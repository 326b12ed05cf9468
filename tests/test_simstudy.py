"""Tests for the Monte Carlo comparison harness."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctreg import (
    ExperimentTable,
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
from ctreg.simstudy import CSV_COLUMNS, KNOWN_METHODS, TableRow


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
        for bad in (math.nan, math.inf):
            with pytest.raises(
                ValueError, match=rf"^ScenarioSpec.eigen_decay_a must be .*, got {bad!r}"
            ):
                make_spec(eigen_decay_a=bad)
            with pytest.raises(
                ValueError, match=rf"^ScenarioSpec.snr_target must be .*, got {bad!r}"
            ):
                make_spec(snr_target=bad)
        for n, d_grid, field in (
            (0, (5,), "n"), (-1, (5,), "n"), (20, (0,), "d_grid[0]"), (20, (5, -3), "d_grid[1]")
        ):
            with pytest.raises(
                ValueError, match=rf"^ScenarioSpec.{re.escape(field)} must be an integer >= 1"
            ):
                make_spec(n=n, d_grid=d_grid)
        with pytest.raises(ValueError, match="method NCT-CV needs n >= 10"):
            make_spec(n=8, methods=("Zero", "NCT-CV"))
        make_spec(n=10, methods=("NCT-CV",))  # one row per fold is enough
        make_spec(n=8, methods=("Zero", "OLS"))  # no CV method, no fold bound
        with pytest.raises(
            ValueError, match=r"^ScenarioSpec.gct_phi must be a number in \[0, inf\), got nan"
        ):
            make_spec(gct_phi=math.nan)
        with pytest.raises(ValueError, match=r"^ScenarioSpec.coef_pattern must be one of"):
            make_spec(coef_pattern=object())

    def test_methods_as_one_string_is_named(self):
        with pytest.raises(ValueError, match=r"^ScenarioSpec.methods must be a sequence, got 'OLS'"):
            make_spec(methods="OLS")
        data = spec_to_dict(make_spec())
        data["methods"] = "OLS"
        with pytest.raises(ValueError, match=r"^ScenarioSpec.methods must be a sequence"):
            spec_from_dict(data)

    @pytest.mark.parametrize("replicates", [1.5, 2.0, "2", 0])
    def test_replicates_must_be_a_positive_integer(self, replicates):
        with pytest.raises(ValueError, match=r"^ScenarioSpec.replicates must be"):
            make_spec(replicates=replicates)

    @pytest.mark.parametrize("count", [-1, 1.5])
    def test_spiked_head_count_is_named(self, count):
        with pytest.raises(ValueError, match=r"^SpikedHead.count must be an int"):
            SpikedHead(count=count)

    @pytest.mark.parametrize("window", [0, -2, 2.5])
    def test_spiked_tail_window_is_named(self, window):
        with pytest.raises(
            ValueError, match=r"^SpikedTailRandom.window must be an integer >= 1"
        ):
            SpikedTailRandom(count=1, window=window)
        with pytest.raises(
            ValueError, match=r"^SpikedTailRandom.count must be an integer >= 0"
        ):
            SpikedTailRandom(count=-1, window=3)

    def test_numpy_integers_are_stored_as_ints(self):
        tail = SpikedTailRandom(count=np.uint8(1), window=np.int64(4))
        assert (type(tail.count), type(tail.window)) == (int, int)
        head = SpikedHead(count=np.int32(3))
        spec = make_spec(replicates=np.int64(2), coef_pattern=head)
        assert (type(spec.replicates), type(spec.coef_pattern.count)) == (int, int)
        assert scenario_hash(spec) == scenario_hash(
            make_spec(replicates=2, coef_pattern=SpikedHead(count=3))
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 20.5, r"^ScenarioSpec.n must be an integer >= 1, got 20.5"),
            ("d_grid", (5.5,), r"^ScenarioSpec.d_grid\[0\] must be an integer >= 1"),
            ("d_grid", (5, 7.0), r"^ScenarioSpec.d_grid\[1\] must be an integer >= 1"),
            ("base_seed", 1.5, r"^ScenarioSpec.base_seed must be an integer >= 0"),
            ("base_seed", -1, r"^ScenarioSpec.base_seed must be an integer >= 0"),
        ],
        ids=["n", "d", "second-d", "fractional-seed", "negative-seed"],
    )
    def test_bad_count_fields_are_named(self, field, value, message):
        # each once failed inside numpy, in run_experiment
        with pytest.raises(ValueError, match=message):
            make_spec(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("n", 20.5), ("d_grid", [5.7]), ("replicates", 2.5), ("base_seed", 1.9)]
    )
    def test_scenario_json_counts_are_not_truncated(self, field, value):
        data = spec_to_dict(make_spec())
        data[field] = value
        with pytest.raises(ValueError, match=rf"^ScenarioSpec.{field}\b"):
            spec_from_dict(data)

    def test_numpy_integer_n_grid_and_seed_are_stored_as_ints(self):
        spec = make_spec(n=np.int64(20), d_grid=[np.int32(5), 7], base_seed=np.uint8(3))
        assert (spec.n, spec.d_grid, spec.base_seed) == (20, (5, 7), 3)
        assert {type(v) for v in (spec.n, *spec.d_grid, spec.base_seed)} == {int}
        assert scenario_hash(spec) == scenario_hash(
            make_spec(n=20, d_grid=(5, 7), base_seed=3)
        )


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
        from ctreg.errors import ExperimentError

        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(simstudy, "kfold_cv_ridge", fail)
        spec = make_spec(d_grid=(5, 7), replicates=2, methods=("OLS", "Ridge-CV"))
        seed = int(np.random.SeedSequence([123, 5, 0, 3]).generate_state(1)[0])
        with pytest.raises(ExperimentError) as info:
            run_experiment(spec)
        assert str(info.value) == (
            f"method Ridge-CV failed at d=5, replicate=0, cv_seed={seed}"
        )
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_known_methods_order(self):
        # perfbench passes KNOWN_METHODS as its method list
        from ctreg.simstudy import KNOWN_METHODS

        assert KNOWN_METHODS == ("NCT-CV", "GCT-CV", "PCR-CV", "OLS", "Ridge-CV", "Zero")

    @pytest.mark.parametrize("method", ["NCT-CV", "GCT-CV", "PCR-CV", "OLS", "Ridge-CV",
                                        "Zero"])
    def test_every_known_method_runs(self, method):
        from ctreg.simstudy import CV_FOLDS

        table = run_experiment(make_spec(n=12, d_grid=(4, 15), replicates=1,
                                         methods=(method,)))
        assert [(row.method, row.d) for row in table.rows] == [(method, 4), (method, 15)]
        for row in table.rows:
            assert math.isfinite(row.median_rel_mse) and math.isfinite(row.median_rel_pe)
        # exactly the CV methods need n >= CV_FOLDS rows
        if method.endswith("-CV"):
            with pytest.raises(ValueError, match=f"method {method} needs n >= {CV_FOLDS}"):
                make_spec(n=CV_FOLDS - 1, methods=(method,))
        else:
            make_spec(n=CV_FOLDS - 1, methods=(method,))

    def test_failed_output_write_leaves_no_csv(self, tmp_path):
        from ctreg.errors import UsageError

        out = tmp_path / "missing" / "r.csv"
        table = run_experiment(make_spec(methods=("Zero",)))
        with pytest.raises(UsageError, match=f"cannot write {out}: No such file"):
            emit_table(table, str(out))
        assert not out.parent.exists()

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

    @pytest.mark.parametrize("cells", [1, -1])
    def test_row_of_another_length_named(self, tmp_path, cells):
        # one cell more or less than the header, in the second row
        table = run_experiment(make_spec(methods=("Zero", "OLS")))
        path = tmp_path / "out.csv"
        emit_table(table, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",x" if cells > 0 else lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        count = len(lines[2].split(","))
        message = f"results CSV {path} row 2 has {count} cells, the header 7"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_table(str(path))

    @pytest.mark.parametrize(
        "column, cell, reason",
        [
            ("d", "5x", "invalid literal for int() with base 10: '5x'"),
            ("median_rel_pe", "0.5.1", "could not convert string to float: '0.5.1'"),
        ],
    )
    def test_bad_cell_named_by_row_and_column(self, tmp_path, column, cell, reason):
        # the reason alone once named neither the file, the row nor the column
        table = run_experiment(make_spec(methods=("Zero", "OLS")))
        path = tmp_path / "out.csv"
        emit_table(table, str(path))
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        message = f"results CSV {path} row 1 column {column}: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_table(str(path))

    def test_spec_dict_round_trip(self):
        for pattern in (
            PolyDecay(b=1.5),
            SpikedHead(count=4, value=2.0),
            SpikedTailRandom(count=2, window=6, noise_var=0.01),
            IsotropicGaussian(),
        ):
            spec = make_spec(coef_pattern=pattern)
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_scenario_hash_pinned_per_pattern(self):
        # literal digests of spec_to_dict's JSON: an int-valued b stays an
        # int, and an omitted noise_var is serialized as null
        pinned = [
            (PolyDecay(b=2), "21e6c6fd8a4d"),
            (PolyDecay(b=1.5), "e36f7bf3bd25"),
            (SpikedHead(count=4, value=2.0), "137eda560fd8"),
            (SpikedHead(count=4), "a5c26ee95ec0"),
            (SpikedTailRandom(count=2, window=6, noise_var=0.01), "25142a4c5cf8"),
            (SpikedTailRandom(count=2, window=6), "c92adecf2e40"),
            (IsotropicGaussian(), "6c9395ac6822"),
        ]
        for pattern, digest in pinned:
            spec = make_spec(
                coef_pattern=pattern, d_grid=(5, 8), methods=("Zero", "OLS")
            )
            assert scenario_hash(spec) == digest, pattern

    def test_emit_table_bytes_pinned(self, tmp_path):
        from ctreg.simstudy import ExperimentTable, TableRow

        rows = (
            TableRow("GCT-CV", 5, 20, 3, 0.1 + 0.2, math.inf, "abc123"),
            TableRow("OLS", 8, 20, 3, math.nan, 1e-300, "abc123"),
            TableRow("Zero", 8, 20, 3, 1.0, -0.0, "abc123"),
        )
        path = tmp_path / "t.csv"
        table = ExperimentTable(rows=rows, scenario_hash="abc123", base_seed=0)
        emit_table(table, str(path))
        assert path.read_bytes() == (
            b"method,d,n,replicates,median_rel_mse,median_rel_pe,scenario_hash\r\n"
            b"GCT-CV,5,20,3,0.30000000000000004,inf,abc123\r\n"
            b"OLS,8,20,3,nan,1e-300,abc123\r\n"
            b"Zero,8,20,3,1.0,-0.0,abc123\r\n"
        )
        loaded = parse_table(str(path)).rows
        assert [repr(row) for row in loaded] == [repr(row) for row in rows]

    def test_spec_from_dict_defaults_and_coercion(self):
        data = spec_to_dict(make_spec())
        data["coef_pattern"] = {"kind": "spiked-tail-random", "count": 2, "window": 6}
        assert spec_from_dict(data).coef_pattern == SpikedTailRandom(count=2, window=6)
        assert spec_from_dict(data).coef_pattern.noise_var is None
        data["coef_pattern"] = {"kind": "spiked-head", "count": 3, "value": 1}
        pattern = spec_from_dict(data).coef_pattern
        assert pattern == SpikedHead(count=3, value=1.0)
        assert type(pattern.count) is int and type(pattern.value) is float
        data["coef_pattern"] = {"kind": "poly-decay", "b": 2}
        assert type(spec_from_dict(data).coef_pattern.b) is float

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ({"kind": "spiked-head", "count": 2.5}, "SpikedHead.count .* got 2.5"),
            ({"kind": "spiked-head", "count": "3"}, "SpikedHead.count .* got '3'"),
            ({"kind": "spiked-head", "count": 3.0}, "SpikedHead.count .* got 3.0"),
            (
                {"kind": "spiked-tail-random", "count": 1, "window": 3.7},
                "SpikedTailRandom.window .* got 3.7",
            ),
        ],
        ids=["fractional", "string", "integral-float", "window"],
    )
    def test_pattern_integers_are_not_truncated(self, pattern, message):
        # int() once made these SpikedHead(count=2), 3, 3 and window=3
        data = spec_to_dict(make_spec())
        data["coef_pattern"] = pattern
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eigen_decay_a", "a", r"ScenarioSpec.eigen_decay_a .* got 'a'"),
            ("snr_target", "2", r"ScenarioSpec.snr_target .* got '2'"),
            ("gct_phi", "1", r"ScenarioSpec.gct_phi .* got '1'"),
            ("coef_pattern", {"kind": "poly-decay", "b": "x"}, r"PolyDecay.b .* got 'x'"),
            (
                "coef_pattern",
                {"kind": "spiked-head", "count": 2, "value": "1"},
                r"SpikedHead.value .* got '1'",
            ),
            (
                "coef_pattern",
                {"kind": "spiked-tail-random", "count": 1, "window": 3, "noise_var": "0.1"},
                r"SpikedTailRandom.noise_var .* got '0.1'",
            ),
        ],
        ids=["scenario-float", "numeric-string", "defaulted-float", "pattern-float",
             "pattern-float-with-default", "optional-float"],
    )
    def test_string_floats_are_named(self, field, value, message):
        # float() once turned "2" into 2.0 and "a" into a message naming no field
        data = spec_to_dict(make_spec())
        data[field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.update(gct_ph=3.0), r"^ScenarioSpec has no field 'gct_ph'$"),
            (lambda data: data["coef_pattern"].update(bb=1.0), r"^PolyDecay has no field 'bb'$"),
            (lambda data: data.update(coef_pattern={"kind": "isotropic-gaussian", "b": 1}),
             r"^IsotropicGaussian has no field 'b'$"),
        ],
        ids=["scenario-key", "pattern-key", "fieldless-pattern"],
    )
    def test_unknown_keys_are_refused(self, edit, message):
        # each was once skipped, so a misspelt gct_phi ran at the default 1.0
        data = spec_to_dict(make_spec())
        edit(data)
        with pytest.raises(ValueError, match=message):
            spec_from_dict(data)

    def test_spec_from_dict_bad_pattern(self):
        data = spec_to_dict(make_spec())
        for kind in ("nope", ["poly-decay"]):
            data["coef_pattern"] = {"kind": kind, "b": 1.0}
            with pytest.raises(ValueError, match="unknown coefficient pattern kind"):
                spec_from_dict(data)
        data["coef_pattern"] = {"kind": "poly-decay"}
        with pytest.raises(KeyError, match="'coef_pattern.b'"):
            spec_from_dict(data)

    def test_hash_stable_and_sensitive(self):
        spec = make_spec()
        assert scenario_hash(spec) == scenario_hash(make_spec())
        assert scenario_hash(spec) != scenario_hash(make_spec(base_seed=124))
        assert len(scenario_hash(spec)) == 12


# every pattern kind, its fields drawn as a scenario file holds them (a
# float field as a float: an int-valued b hashes as an int, see
# test_scenario_hash_pinned_per_pattern, and reads back as a float)
PATTERNS = st.one_of(
    st.builds(PolyDecay, b=st.floats(0, 10)),
    st.builds(SpikedHead, count=st.integers(0, 50), value=st.floats(-1e3, 1e3)),
    st.builds(
        SpikedTailRandom,
        count=st.integers(0, 20),
        window=st.integers(1, 20),
        noise_var=st.none() | st.floats(0, 10),
    ),
    st.just(IsotropicGaussian()),
)
SPECS = st.builds(
    ScenarioSpec,
    n=st.integers(10, 500),
    d_grid=st.lists(st.integers(1, 400), max_size=4),
    eigen_decay_a=st.floats(0, 5),
    coef_pattern=PATTERNS,
    snr_target=st.floats(1e-3, 1e3),
    replicates=st.integers(1, 100),
    base_seed=st.integers(0, 2**63),
    methods=st.lists(st.sampled_from(KNOWN_METHODS), max_size=3),
    gct_phi=st.floats(0, 4),
)
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=8)
ROWS = st.lists(
    st.builds(TableRow, CELL_TEXT, st.integers(), st.integers(), st.integers(), st.floats(),
              st.floats(), CELL_TEXT),
    max_size=5,
)


class TestRoundTrip:
    """Each file ctreg writes reads back to what was written."""

    @settings(max_examples=60, deadline=None)
    @given(SPECS)
    def test_scenario_round_trip(self, spec):
        loaded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert loaded == spec
        assert scenario_hash(loaded) == scenario_hash(spec)

    @settings(max_examples=40, deadline=None)
    @given(ROWS)
    def test_results_csv_round_trip(self, tmp_path_factory, rows):
        digest = rows[0].scenario_hash if rows else ""
        table = ExperimentTable(rows=tuple(rows), scenario_hash=digest, base_seed=0)
        path = str(tmp_path_factory.mktemp("table") / "t.csv")
        emit_table(table, path)
        # repr, not ==: a NaN cell reads back as NaN
        assert repr(parse_table(path)) == repr(table)
