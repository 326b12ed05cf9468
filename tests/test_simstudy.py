"""Tests for the Monte Carlo comparison harness."""

import math

import numpy as np
import pytest

from ctreg import (
    IsotropicGaussian,
    PolyDecay,
    ScenarioSpec,
    SpikedHead,
    SpikedTailRandom,
    emit_table,
    generate_scenario,
    parse_table,
    run_experiment,
    scenario_hash,
    spec_from_dict,
    spec_to_dict,
)


def make_spec(**overrides):
    defaults = dict(
        n=20,
        d_grid=(5,),
        eigen_decay_a=2.0,
        coef_pattern=PolyDecay(b=2.0),
        snr_target=10.0,
        replicates=3,
        base_seed=123,
        methods=("Zero",),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(eigen_decay_a=-1.0)
        with pytest.raises(ValueError):
            make_spec(replicates=0)
        with pytest.raises(ValueError):
            make_spec(snr_target=0.0)
        with pytest.raises(ValueError):
            make_spec(methods=("Magic",))
        with pytest.raises(ValueError):
            PolyDecay(b=-0.5)


class TestGenerateScenario:
    def test_snr_matched_exactly(self):
        spec = make_spec()
        draw = generate_scenario(spec, 5, 0)
        signal = float(np.sum(draw.sigma_diag * draw.beta**2))
        assert math.sqrt(signal) / draw.sigma == pytest.approx(10.0, rel=1e-12)

    def test_hand_computed_signal(self):
        # a = 2, b = 2, d = 3: beta = (1, 1/4, 1/9), signal = sum j^{-6}
        spec = make_spec(d_grid=(3,))
        draw = generate_scenario(spec, 3, 0)
        np.testing.assert_allclose(draw.beta, [1.0, 0.25, 1 / 9])
        signal = 1.0 + 2.0**-6 + 3.0**-6
        assert float(np.sum(draw.sigma_diag * draw.beta**2)) == pytest.approx(signal)
        assert draw.sigma == pytest.approx(math.sqrt(signal) / 10.0)

    def test_spiked_head_pattern(self):
        spec = make_spec(coef_pattern=SpikedHead(count=10, value=1.0), d_grid=(20,))
        draw = generate_scenario(spec, 20, 0)
        np.testing.assert_array_equal(draw.beta[:10], np.ones(10))
        np.testing.assert_array_equal(draw.beta[10:], np.zeros(10))

    def test_spiked_tail_random_in_window(self):
        spec = make_spec(
            coef_pattern=SpikedTailRandom(count=3, window=5), d_grid=(20,)
        )
        draw = generate_scenario(spec, 20, 0)
        ones = np.flatnonzero(draw.beta == 1.0)
        assert len(ones) >= 3
        assert np.sum(ones >= 15) >= 3  # spikes land in the tail window

    def test_isotropic_pattern_varies_by_replicate(self):
        spec = make_spec(coef_pattern=IsotropicGaussian())
        a = generate_scenario(spec, 5, 0).beta
        b = generate_scenario(spec, 5, 1).beta
        assert not np.array_equal(a, b)

    def test_replicate_stream_isolation(self):
        spec = make_spec()
        first = generate_scenario(spec, 5, 2)
        again = generate_scenario(spec, 5, 2)
        np.testing.assert_array_equal(first.dataset.design, again.dataset.design)
        np.testing.assert_array_equal(first.dataset.response, again.dataset.response)
        other = generate_scenario(spec, 5, 3)
        assert not np.array_equal(first.dataset.design, other.dataset.design)

    def test_shape_and_model(self):
        spec = make_spec()
        draw = generate_scenario(spec, 5, 0)
        assert draw.dataset.design.shape == (20, 5)
        assert draw.sigma_diag.shape == (5,)


class TestRunExperiment:
    def test_zero_method_medians_are_one(self):
        table = run_experiment(make_spec())
        for row in table.rows:
            assert row.method == "Zero"
            assert row.median_rel_mse == pytest.approx(1.0)
            assert row.median_rel_pe == pytest.approx(1.0)

    def test_near_noiseless_ols_recovers(self):
        spec = make_spec(
            n=30, d_grid=(10,), snr_target=1e6, methods=("OLS",), replicates=3
        )
        table = run_experiment(spec)
        assert table.rows[0].median_rel_mse <= 1e-6

    def test_determinism(self):
        spec = make_spec(methods=("Zero", "OLS"))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a == b

    def test_cv_methods_run(self):
        spec = make_spec(
            n=24, d_grid=(6,), methods=("NCT-CV", "GCT-CV", "PCR-CV", "Ridge-CV"),
            replicates=2,
        )
        table = run_experiment(spec)
        assert len(table.rows) == 4
        for row in table.rows:
            assert math.isfinite(row.median_rel_mse)

    def test_failure_names_method_d_replicate_and_cv_seed(self, monkeypatch):
        from ctreg import simstudy

        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(simstudy, "kfold_cv_ridge", fail)
        spec = make_spec(d_grid=(5, 7), replicates=2, methods=("OLS", "Ridge-CV"))
        seed = int(np.random.SeedSequence([123, 5, 0, 3]).generate_state(1)[0])
        with pytest.raises(RuntimeError) as info:
            run_experiment(spec)
        assert str(info.value) == (
            f"method Ridge-CV failed at d=5, replicate=0, cv_seed={seed}"
        )
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_rows_sorted(self):
        spec = make_spec(d_grid=(8, 5), methods=("Zero", "OLS"))
        table = run_experiment(spec)
        keys = [(row.method, row.d) for row in table.rows]
        assert keys == sorted(keys)


class TestSerialization:
    def test_emit_parse_round_trip(self, tmp_path):
        table = run_experiment(make_spec(methods=("Zero", "OLS")))
        path = str(tmp_path / "out.csv")
        emit_table(table, path)
        loaded = parse_table(path)
        assert loaded.rows == table.rows

    def test_empty_table_header_only(self, tmp_path):
        from ctreg.simstudy import ExperimentTable

        path = str(tmp_path / "empty.csv")
        emit_table(ExperimentTable(rows=(), scenario_hash="x", base_seed=0), path)
        with open(path) as handle:
            lines = handle.read().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("method,")

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as handle:
            handle.write("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_table(path)

    def test_spec_dict_round_trip(self):
        for pattern in (
            PolyDecay(b=1.5),
            SpikedHead(count=4, value=2.0),
            SpikedTailRandom(count=2, window=6, noise_var=0.01),
            IsotropicGaussian(),
        ):
            spec = make_spec(coef_pattern=pattern)
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_hash_stable_and_sensitive(self):
        spec = make_spec()
        assert scenario_hash(spec) == scenario_hash(make_spec())
        assert scenario_hash(spec) != scenario_hash(make_spec(base_seed=124))
        assert len(scenario_hash(spec)) == 12
