"""Tests for the command-line front end (run in-process through main)."""

import contextlib
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctreg import (
    HARD_RULE,
    SOFT_RULE,
    Dataset,
    GctConfig,
    KernelSpec,
    emit_table,
    fit_gct,
    fit_kernel_gct,
    fit_min_norm_ls,
    fit_pcr,
    fit_ridge,
    kfold_cv,
    predict,
    predict_kernel_batch,
    run_experiment,
    spec_from_dict,
)
from ctreg import cli
from ctreg.cli import main, read_csv


def write_csv(path, X, Y, header=True):
    d = X.shape[1]
    with open(path, "w") as handle:
        if header:
            handle.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
        for row, y in zip(X, Y):
            handle.write(",".join(repr(float(v)) for v in row) + f",{float(y)!r}\n")


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    beta = rng.standard_normal(4)
    Y = X @ beta + 0.1 * rng.standard_normal(12)
    path = str(tmp_path / "data.csv")
    write_csv(path, X, Y)
    return path, X, Y


class TestCsvIo:
    def test_header_autodetect(self, tmp_path):
        path = str(tmp_path / "h.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n1,2\n3,4\n")
        header, data = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self, tmp_path):
        path = str(tmp_path / "n.csv")
        with open(path, "w") as handle:
            handle.write("1,2\n3,4\n")
        header, data = read_csv(path)
        assert header is None
        assert data.shape == (2, 2)

    def test_ragged_rows_usage_error(self, tmp_path):
        from ctreg.cli import UsageError

        path = str(tmp_path / "r.csv")
        with open(path, "w") as handle:
            handle.write("1,2\n3\n")
        with pytest.raises(UsageError):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_usage_error(self, tmp_path, cell):
        from ctreg.cli import UsageError

        path = str(tmp_path / "f.csv")
        with open(path, "w") as handle:
            handle.write(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(UsageError, match=r"row 2, column 2 \(b\)"):
            read_csv(path)


def csv_outcome(path):
    """read_csv's result as comparable bits, or the exit-2 message."""
    try:
        header, data = read_csv(path)
    except cli.UsageError as exc:
        return ("usage error", str(exc))
    return ("ok", header, data.dtype.str, data.shape, data.tobytes())


padding = st.sampled_from(["", " ", "\t", "  ", "\x0c"])
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(
        ["1_0", "1_000.5", "+3", "-2.5", ".5", "-.5", "5.", "1e5", "1E-3", "-2e+2",
         "nan", "NaN", "inf", "-inf", "+Infinity", "1e400", "-0"]
    ),
)
odd_cells = st.sampled_from(["", "a", "x1", "#", "2#c", "#1", "1,", "0x10", "1 2"])
cells = st.builds(
    lambda pad, cell, pad2: pad + cell + pad2,
    padding,
    st.one_of(numbers, numbers, numbers, odd_cells),
    padding,
)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(["a", "b", "y", "x 1"]),
                                            min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            size = width if kind == "row" else draw(st.integers(1, width + 1))
            lines.append(",".join(draw(st.lists(cells, min_size=size, max_size=size))))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


class TestCsvFastPath:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_loadtxt_and_row_parse_agree(self, tmp_path_factory, text):
        path = str(tmp_path_factory.mktemp("csv") / "t.csv")
        with open(path, "w", newline="") as handle:
            handle.write(text)
        fast = csv_outcome(path)
        with mock.patch.object(cli, "_read_csv_loadtxt", return_value=None):
            rows = csv_outcome(path)
        assert fast == rows

    def test_plain_file_takes_the_loadtxt_path(self, tmp_path):
        path = str(tmp_path / "d.csv")
        with open(path, "w") as handle:
            handle.write("\n a , b \n\n1,2.5\n\n-3,4e-3\n")
        header, data = cli._read_csv_loadtxt(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.5], [-3.0, 4e-3]])

    @pytest.mark.parametrize(
        "text", ["a,b\n1_0,2\n3,4\n", "1,2\n  \n3,4\n", "a,b\n1,2#c\n"]
    )
    def test_row_parse_decides_what_loadtxt_rejects(self, tmp_path, text):
        path = str(tmp_path / "d.csv")
        with open(path, "w") as handle:
            handle.write(text)
        assert cli._read_csv_loadtxt(path) is None


class TestExitCodes:
    def test_missing_required_flag(self):
        assert main(["fit", "--response", "y", "--output", "m.json"]) == 2

    def test_unknown_method(self, data_csv, tmp_path):
        path, _, _ = data_csv
        out = str(tmp_path / "m.json")
        assert (
            main(["fit", "--input", path, "--response", "y", "--method", "magic",
                  "--output", out]) == 2
        )

    def test_numerical_failure(self, tmp_path):
        path = str(tmp_path / "zero.csv")
        with open(path, "w") as handle:
            handle.write("0,0,1\n0,0,2\n0,0,3\n")
        out = str(tmp_path / "m.json")
        code = main(["fit", "--input", path, "--response", "2", "--no-center",
                     "--method", "ols", "--output", out])
        assert code == 1

    def test_non_finite_csv_exit_two(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        with open(path, "a") as handle:
            handle.write("1,2,nan,4,5\n")
        for command in ("fit", "cv"):
            out = ["--output", str(tmp_path / "m.json")] if command == "fit" else []
            assert main([command, "--input", path, "--response", "y"] + out) == 2
        assert "non-finite value in row 13, column 3 (x2)" in capsys.readouterr().err

    def test_non_utf8_csv_exit_two(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        model = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "y", "--output", model]) == 0
        bad = str(tmp_path / "utf16.csv")
        with open(path, encoding="utf-8") as source:
            text = source.read()
        with open(bad, "wb") as handle:
            handle.write(text.encode("utf-16"))  # starts with the bytes ff fe
        assert main(["fit", "--input", bad, "--response", "y", "--output", model]) == 2
        assert f"cannot read {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert main(["predict", "--model", model, "--input", bad]) == 2
        assert f"cannot read {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert (
            main(["fit", "--input", str(tmp_path / "nope.csv"), "--response", "y",
                  "--output", str(tmp_path / "m.json")]) == 2
        )


class TestParser:
    """Every subcommand's flags and defaults, pinned as literal values."""

    # subcommand -> (required flags with a value, defaults of the rest)
    FLAGS = {
        "fit": (
            {"input": "d.csv", "response": "y", "output": "m.json"},
            {"method": "nct", "tau": None, "tau_auto": None, "phi": "0",
             "rule": "soft", "no_center": False},
        ),
        "cv": (
            {"input": "d.csv", "response": "y"},
            {"folds": "10", "phi": "0", "phi_grid": None, "rule": "soft", "seed": "0",
             "no_center": False, "fit_out": None},
        ),
        "predict": (
            {"model": "m.json", "input": "d.csv"},
            {"output": None},
        ),
        "kernel-fit": (
            {"input": "d.csv", "response": "y", "kernel": "linear", "output": "k.json"},
            {"tau": "0", "phi": "0", "rule": "soft", "no_center": False},
        ),
        "simulate": (
            {"scenario": "s.json", "output": "r.csv"},
            {},
        ),
        "diagnose": (
            {"input": "d.csv", "response": "y"},
            {"beta": None, "sigma": None, "delta": "0.05", "alpha": "2.0"},
        ),
    }

    @staticmethod
    def argv(command, required):
        argv = [command]
        for name, value in required.items():
            argv += ["--" + name.replace("_", "-"), value]
        return argv

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_defaults(self, command):
        required, defaults = self.FLAGS[command]
        parsed = vars(cli.build_parser().parse_args(self.argv(command, required)))
        assert parsed.pop("func") is not None
        assert parsed == {"command": command, **required, **defaults}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_required_flag_exit_two(self, command, capsys):
        required, _ = self.FLAGS[command]
        for name in required:
            rest = {key: value for key, value in required.items() if key != name}
            assert main(self.argv(command, rest)) == 2
            assert "the following arguments are required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "cv", "kernel-fit"])
    def test_unknown_rule_exit_two(self, command, capsys):
        required, _ = self.FLAGS[command]
        assert main(self.argv(command, required) + ["--rule", "bogus"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestFit:
    def test_ols_matches_normal_equations(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 3))
        Y = X @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.standard_normal(10)
        path = str(tmp_path / "d.csv")
        write_csv(path, X, Y)
        out = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "y", "--method", "ols",
                     "--no-center", "--output", out]) == 0
        with open(out) as handle:
            model = json.load(handle)
        assert model["schema_version"] == 2
        expected = np.linalg.solve(X.T @ X, X.T @ Y)
        np.testing.assert_allclose(model["beta"], expected, atol=1e-8)

    def test_nct_tau_zero_equals_ols(self, data_csv, tmp_path):
        path, _, _ = data_csv
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(["fit", "--input", path, "--response", "y", "--method", "nct",
                     "--tau", "0", "--output", out_a]) == 0
        assert main(["fit", "--input", path, "--response", "y", "--method", "ols",
                     "--output", out_b]) == 0
        a = json.load(open(out_a))["beta"]
        b = json.load(open(out_b))["beta"]
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_bad_tau_exit_two(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        assert main(["fit", "--input", path, "--response", "y", "--tau", "abc",
                     "--output", str(tmp_path / "m.json")]) == 2
        assert "bad --tau value 'abc'" in capsys.readouterr().err

    def test_tau_auto(self, data_csv, tmp_path):
        path, _, _ = data_csv
        out = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "y", "--method", "nct",
                     "--tau-auto", "1.0,0.05,2", "--output", out]) == 0
        model = json.load(open(out))
        assert model["config"]["tau"] > 0

    def test_tau_auto_bad_phi_exit_one(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        assert main(["fit", "--input", path, "--response", "y", "--method", "gct",
                     "--phi", "nan", "--tau-auto", "1,0.05,2",
                     "--output", str(tmp_path / "m.json")]) == 1
        assert "error: --phi must be a number in [0, inf), got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_tau_auto_non_finite_sigma_exit_one(self, data_csv, tmp_path, capsys, sigma):
        # the message names sigma's flag entry, not the tau it would have produced
        path, _, _ = data_csv
        assert main(["fit", "--input", path, "--response", "y", "--method", "nct",
                     "--tau-auto", f"{sigma},0.05,2",
                     "--output", str(tmp_path / "m.json")]) == 1
        assert (f"error: --tau-auto[0] must be a number in [0, inf), got {sigma}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "gct", "--phi", "-1"], "--phi must be a number in [0, inf), got -1.0"),
            (["--tau", "-1"], "--tau must be a number in [0, inf], got -1.0"),
            (["--method", "gct", "--tau", "nan"], "--tau must be a number in [0, inf], got nan"),
            (["--tau-auto=-1,0.05,2"], "--tau-auto[0] must be a number in [0, inf), got -1.0"),
            (["--tau-auto", "1,2,2"], "--tau-auto[1] must be a number in (0, 1), got 2.0"),
            (["--tau-auto", "1,0.05,3"], "--tau-auto[2] must be a number in (0, 2], got 3.0"),
        ],
    )
    def test_bad_value_named_by_its_flag_before_the_csv_is_read(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.csv")
        assert main(["fit", "--input", missing, "--response", "y",
                     "--output", str(tmp_path / "m.json")] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "method, reason",
        [
            ("ridge:-1", "lambda must be a number in [0, inf], got -1.0"),
            ("ridge:nan", "lambda must be a number in [0, inf], got nan"),
            ("pcr:-1", "m must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_method_field_named_before_the_csv_is_read(
        self, tmp_path, capsys, method, reason
    ):
        missing = str(tmp_path / "missing.csv")
        assert main(["fit", "--input", missing, "--response", "y", "--method", method,
                     "--output", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --method value {method!r}: expected {METHOD_GRAMMAR} ({reason})\n"
        )

    def test_pcr_m_above_the_data_exit_one_after_the_read(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv  # 12 x 4
        assert main(["fit", "--input", path, "--response", "y", "--method", "pcr:5",
                     "--output", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == "error: m must be at most min(n, d) = 4, got 5\n"

    def test_response_by_index(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 2))
        Y = rng.standard_normal(8)
        path = str(tmp_path / "d.csv")
        data = np.column_stack([X[:, 0], Y, X[:, 1]])
        with open(path, "w") as handle:
            for row in data:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        out = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "1", "--method", "ols",
                     "--output", out]) == 0


# the kernel block of a poly model whose kind was edited to rbf
POLY_AS_RBF = {"kind": "rbf", "degree": 3, "coef0": 1.0, "scale": 0.3}


class TestPredict:
    def test_round_trip_interpolation(self, tmp_path):
        # d >= n with tau = 0 interpolates the training responses
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 10))
        Y = rng.standard_normal(6)
        train = str(tmp_path / "train.csv")
        write_csv(train, X, Y)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--input", train, "--response", "y", "--method", "nct",
                     "--tau", "0", "--output", model_path]) == 0
        newdata = str(tmp_path / "new.csv")
        with open(newdata, "w") as handle:
            handle.write(",".join(f"x{j}" for j in range(10)) + "\n")
            for row in X:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        preds_path = str(tmp_path / "p.txt")
        assert main(["predict", "--model", model_path, "--input", newdata,
                     "--output", preds_path]) == 0
        preds = np.loadtxt(preds_path)
        np.testing.assert_allclose(preds, Y, atol=1e-8)

    def test_matches_in_process_predict_bitwise(self, data_csv, tmp_path):
        path, X, Y = data_csv
        newdata = str(tmp_path / "new.csv")
        rng = np.random.default_rng(4)
        Xnew = rng.standard_normal((5, 4))
        with open(newdata, "w") as handle:
            for row in Xnew:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        config = GctConfig(tau=0.2, phi=1.0)
        x_means, y_mean = X.mean(axis=0), float(Y.mean())
        centered_fit = fit_gct(Dataset(X - x_means, Y - y_mean), config)
        cases = [
            (["--no-center"], predict(fit_gct(Dataset(X, Y), config), Xnew)),
            # the default centered fit: the model file adds the means back
            ([], y_mean + predict(centered_fit, Xnew - x_means)),
        ]
        for flags, in_process in cases:
            model_path = str(tmp_path / "m.json")
            assert main(["fit", "--input", path, "--response", "y", "--method", "gct",
                         "--tau", "0.2", "--phi", "1.0", "--output", model_path]
                        + flags) == 0
            preds_path = str(tmp_path / "p.txt")
            assert main(["predict", "--model", model_path, "--input", newdata,
                         "--output", preds_path]) == 0
            np.testing.assert_array_equal(np.loadtxt(preds_path), in_process)

    def test_dimension_mismatch_exit_one(self, data_csv, tmp_path):
        path, _, _ = data_csv
        model_path = str(tmp_path / "m.json")
        main(["fit", "--input", path, "--response", "y", "--method", "ols",
              "--output", model_path])
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as handle:
            handle.write("1,2\n")
        assert main(["predict", "--model", model_path, "--input", bad]) == 1

    def test_schema_version_mismatch_exit_two(self, data_csv, tmp_path):
        path, _, _ = data_csv
        model_path = str(tmp_path / "m.json")
        main(["fit", "--input", path, "--response", "y", "--method", "ols",
              "--output", model_path])
        payload = json.load(open(model_path))
        payload["schema_version"] = 99
        with open(model_path, "w") as handle:
            json.dump(payload, handle)
        assert main(["predict", "--model", model_path, "--input", path]) == 2

    @pytest.mark.parametrize("version", [True, 1.0, 0, "2", None])
    def test_schema_version_must_be_a_readable_integer(self, data_csv, tmp_path, capsys,
                                                       version):
        # true and 1.0 were once read as versions 1 and 2
        def mutate(payload):
            payload["schema_version"] = version

        missing = str(tmp_path / "missing.csv")
        assert self.predict_with_edited_model(data_csv, tmp_path, "fit", mutate, missing) == 2
        assert capsys.readouterr().err == f"error: unsupported model schema version {version!r}\n"

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.pop("model_kind"), "lacks model_kind"),
            (lambda p: p.update(model_kind="tree"), "unknown model_kind 'tree'"),
            (lambda p: p.pop("beta"), "lacks beta"),
        ],
    )
    def test_malformed_model_exit_two(self, data_csv, tmp_path, capsys, mutate, message):
        path, X, _ = data_csv
        model_path = str(tmp_path / "m.json")
        main(["fit", "--input", path, "--response", "y", "--method", "ols",
              "--output", model_path])
        payload = json.load(open(model_path))
        mutate(payload)
        with open(model_path, "w") as handle:
            json.dump(payload, handle)
        newdata = str(tmp_path / "new.csv")
        np.savetxt(newdata, X, delimiter=",")
        assert main(["predict", "--model", model_path, "--input", newdata]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def predict_with_edited_model(data_csv, tmp_path, method, mutate, newdata=None):
        """Fit with ``method``, edit the model file in place, run predict on
        newdata (by default the training rows)."""
        path, X, _ = data_csv
        model_path = str(tmp_path / "m.json")
        extra = ["--kernel", "rbf:0.5"] if method == "kernel-fit" else []
        assert main([method, "--input", path, "--response", "y", "--output",
                     model_path] + extra) == 0
        payload = json.load(open(model_path))
        mutate(payload)
        with open(model_path, "w") as handle:
            json.dump(payload, handle)
        if newdata is None:
            newdata = str(tmp_path / "new.csv")
            np.savetxt(newdata, X, delimiter=",")
        return main(["predict", "--model", model_path, "--input", newdata])

    @pytest.mark.parametrize(
        "method, mutate",
        [
            ("kernel-fit", lambda p: p["kernel"].pop("kind")),
            ("fit", lambda p: p["centering"].pop("x_means")),
            pytest.param(
                "fit",
                lambda p: p["centering"].update(x_means=p["centering"]["x_means"][:2]),
                id="x_means-short",
            ),
            pytest.param("fit", lambda p: p.update(beta=[p["beta"]]), id="beta-nested"),
            pytest.param(
                "kernel-fit",
                lambda p: p.update(dual_coeffs=p["dual_coeffs"][:5]),
                id="dual_coeffs-short",
            ),
            pytest.param(
                "kernel-fit",
                lambda p: p["dual_coeffs"].__setitem__(3, float("nan")),
                id="dual_coeffs-nan",
            ),
            # once predicted: KernelSpec takes no other key, and an integral
            # float degree or a quoted number is not converted
            pytest.param("kernel-fit", lambda p: p["kernel"].update(width=1.0),
                         id="kernel-unknown-key"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(degree=2.0),
                         id="degree-float"),
            pytest.param("kernel-fit", lambda p: p.update(response_mean="0.5"),
                         id="response_mean-quoted"),
            # once predicted with exit 0: a kernel block holds exactly its
            # kind's fields, so none is taken from a KernelSpec default and a
            # poly block whose kind was edited to rbf is refused
            pytest.param("kernel-fit", lambda p: p["kernel"].pop("gamma"),
                         id="gamma-missing"),
            pytest.param("kernel-fit", lambda p: p.update(kernel=POLY_AS_RBF), id="poly-as-rbf"),
        ],
    )
    def test_malformed_model_fields_exit_two(self, data_csv, tmp_path, method, mutate):
        assert self.predict_with_edited_model(data_csv, tmp_path, method, mutate) == 2

    @pytest.mark.parametrize(
        "method, mutate, field",
        [
            pytest.param("fit", lambda p: p["centering"].update(y_mean=float("inf")),
                         "model field centering.y_mean", id="y_mean-inf"),
            pytest.param("fit", lambda p: p["beta"].__setitem__(0, float("nan")),
                         "model field beta", id="beta-nan"),
            pytest.param("kernel-fit", lambda p: p.update(response_mean=float("nan")),
                         "KernelPredictor.response_mean", id="response_mean-nan"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(gamma=float("nan")),
                         "KernelSpec.gamma", id="gamma-nan"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(degree=2.5),
                         "KernelSpec.degree", id="degree-fractional"),
            pytest.param("kernel-fit",
                         lambda p: p.update(training_points=p["training_points"][0]),
                         "KernelPredictor.training_points", id="training_points-1d"),
        ],
    )
    def test_bad_model_field_is_named(
        self, data_csv, tmp_path, capsys, method, mutate, field
    ):
        assert self.predict_with_edited_model(data_csv, tmp_path, method, mutate) == 2
        assert f"{field} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, mutate, message",
        [
            pytest.param("kernel-fit", lambda p: p.pop("dual_coeffs"),
                         "kernel model {} lacks dual_coeffs", id="dual_coeffs-missing"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(kind=["rbf"]),
                         "malformed kernel model {}: KernelSpec.kind must be one of "
                         "linear, rbf, poly, got ['rbf']", id="kind-list"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(kind="tree"),
                         "malformed kernel model {}: KernelSpec.kind must be one of "
                         "linear, rbf, poly, got 'tree'", id="kind-unknown"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(gamma=float("nan")),
                         "malformed kernel model {}: KernelSpec.gamma must be a number "
                         "in [0, inf), got nan", id="gamma-nan"),
            pytest.param("fit", lambda p: p["centering"].pop("x_means"),
                         "linear model {} lacks centering.x_means", id="x_means-missing"),
            pytest.param("fit", lambda p: p["centering"].pop("y_mean"),
                         "linear model {} lacks centering.y_mean", id="y_mean-missing"),
            pytest.param("kernel-fit", lambda p: p["kernel"].pop("kind"),
                         "kernel model {} lacks kernel.kind", id="kind-missing"),
            pytest.param("kernel-fit", lambda p: p["kernel"].pop("gamma"),
                         "kernel model {} lacks kernel.gamma", id="gamma-missing"),
            pytest.param("kernel-fit", lambda p: p.update(kernel=POLY_AS_RBF),
                         "malformed kernel model {}: KernelSpec.degree is not a field "
                         "of the rbf kernel", id="poly-as-rbf"),
            pytest.param("fit", lambda p: p["beta"].__setitem__(0, float("nan")),
                         "malformed linear model {}: model field beta must be finite, "
                         "got nan at index (0,)", id="beta-nan"),
            # each of these once predicted with exit 0: a misspelt or missing
            # centering or response_mean lost x-bar and y-bar, and any other
            # key was skipped
            pytest.param("fit", lambda p: p.update(centring=p.pop("centering")),
                         "malformed linear model {}: LinearModelFile has no field "
                         "'centring'", id="centering-misspelt"),
            pytest.param("fit", lambda p: p.pop("centering"),
                         "linear model {} lacks centering", id="centering-missing"),
            pytest.param("kernel-fit", lambda p: p.pop("response_mean"),
                         "kernel model {} lacks response_mean", id="response_mean-missing"),
            pytest.param("fit", lambda p: p.update(note="refit"),
                         "malformed linear model {}: LinearModelFile has no field 'note'",
                         id="linear-unknown-key"),
            pytest.param("kernel-fit", lambda p: p["decomposition"].pop("eigenvalues"),
                         "kernel model {} lacks decomposition.eigenvalues",
                         id="eigenvalues-missing"),
            # a block that is not an object, or a key KernelSpec lacks, is
            # named by its key path and layout, not by a Python error
            pytest.param("kernel-fit", lambda p: p.update(kernel=[1]),
                         "malformed kernel model {}: kernel must be a JSON object, got [1]",
                         id="kernel-list"),
            pytest.param("kernel-fit", lambda p: p.update(kernel=None),
                         "malformed kernel model {}: kernel must be a JSON object, got None",
                         id="kernel-null"),
            pytest.param("fit", lambda p: p.update(centering=[1, 2]),
                         "malformed linear model {}: centering must be a JSON object, "
                         "got [1, 2]", id="centering-list"),
            pytest.param("kernel-fit", lambda p: p["kernel"].update(width=1.0),
                         "malformed kernel model {}: KernelSpec has no field 'width'",
                         id="kernel-unknown-key"),
        ],
    )
    def test_model_read_before_the_csv(self, data_csv, tmp_path, capsys, method, mutate,
                                       message):
        # the message names the model in the reader's own words: no CSV is
        # read, and no exception type wraps the reason
        missing = str(tmp_path / "missing.csv")
        assert self.predict_with_edited_model(data_csv, tmp_path, method, mutate, missing) == 2
        message = message.format(tmp_path / "m.json")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_kernel_model_needs_only_what_predict_uses(self, data_csv, tmp_path, capsys):
        def strip(payload):
            del payload["config"], payload["decomposition"]

        unchanged = self.predict_with_edited_model(
            data_csv, tmp_path, "kernel-fit", lambda payload: None
        )
        assert unchanged == 0
        expected = capsys.readouterr().out
        assert self.predict_with_edited_model(data_csv, tmp_path, "kernel-fit", strip) == 0
        assert "config" not in json.load(open(tmp_path / "m.json"))
        assert capsys.readouterr().out == expected

    def test_null_y_mean_adds_no_response_offset(self, data_csv, tmp_path, capsys):
        _, X, _ = data_csv
        assert self.predict_with_edited_model(
            data_csv, tmp_path, "fit", lambda p: p["centering"].update(y_mean=None)
        ) == 0
        model = json.load(open(tmp_path / "m.json"))
        x_means = np.array(model["centering"]["x_means"])
        expected = (X - x_means) @ np.array(model["beta"])
        printed = np.array(capsys.readouterr().out.split(), dtype=np.float64)
        np.testing.assert_array_equal(printed, expected)


# a linear fit: (the --method text, fit(dataset)); every rule, tau = inf
# (the zero estimator, written as null) and ridge's lambda = inf included
LINEAR_FITS = st.one_of(
    st.just(("ols", fit_min_norm_ls)),
    st.builds(
        lambda tau, phi, rule: ("gct", lambda ds: fit_gct(ds, GctConfig(tau, phi, rule))),
        st.floats(0, 2) | st.just(float("inf")),
        st.floats(0, 2),
        st.sampled_from([SOFT_RULE, HARD_RULE]),
    ),
    st.builds(lambda m: (f"pcr:{m}", lambda ds: fit_pcr(ds, m)), st.integers(0, 3)),
    st.builds(
        lambda lam: (f"ridge:{lam!r}", lambda ds: fit_ridge(ds, lam)),
        st.floats(0, 10) | st.just(float("inf")),
    ),
)
KERNEL_SPECS = st.one_of(
    st.just(KernelSpec("linear")),
    st.builds(lambda gamma: KernelSpec("rbf", gamma=gamma), st.floats(0, 2)),
    st.builds(
        lambda degree, coef0, scale: KernelSpec("poly", degree=degree, coef0=coef0, scale=scale),
        st.integers(1, 3),
        st.floats(0, 2),
        st.floats(0.1, 2),
    ),
)


class TestModelRoundTrip:
    """A model file written by fit, cv or kernel-fit reads back to the same
    predictions, bit for bit."""

    @staticmethod
    def draw(seed, n, d):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)), rng.standard_normal(n), rng.standard_normal((4, d))

    @staticmethod
    def read_back(tmp_path_factory, text, Xnew):
        path = str(tmp_path_factory.mktemp("model") / "m.json")
        with open(path, "w") as handle:
            handle.write(text)
        columns, predict_rows = cli._load_model(path)
        assert columns == Xnew.shape[1]
        return predict_rows(Xnew)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 8), st.integers(3, 6), LINEAR_FITS,
           st.booleans())
    def test_linear(self, tmp_path_factory, seed, n, d, method, center):
        X, Y, Xnew = self.draw(seed, n, d)
        text, fit = method
        Xc, Yc, centering = cli._center(X, Y, center)
        result = fit(Dataset(Xc, Yc))
        written = cli._linear_model_json(result, text, centering)
        if centering is None:
            expected = predict(result, Xnew)
        else:
            expected = centering.y_mean + predict(result, Xnew - centering.x_means)
        assert json.loads(written)["config"]["method"] == text
        np.testing.assert_array_equal(self.read_back(tmp_path_factory, written, Xnew), expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 4), KERNEL_SPECS,
           st.floats(0, 1), st.sampled_from([SOFT_RULE, HARD_RULE]), st.booleans())
    def test_kernel(self, tmp_path_factory, seed, n, d, spec, tau, rule, center):
        X, Y, Xnew = self.draw(seed, n, d)
        model = fit_kernel_gct(X, Y, spec, GctConfig(tau, 1.0, rule), center_response=center)
        written = cli._kernel_model_json(model)
        np.testing.assert_array_equal(
            self.read_back(tmp_path_factory, written, Xnew), predict_kernel_batch(model, Xnew)
        )


class TestCv:
    def test_matches_library_call(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 10))
        Y = X @ rng.standard_normal(10) + rng.standard_normal(20)
        path = str(tmp_path / "d.csv")
        write_csv(path, X, Y)
        assert main(["cv", "--input", path, "--response", "y", "--folds", "20",
                     "--seed", "3", "--no-center"]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        result = kfold_cv(Dataset(X, Y), 20, seed=3)
        assert printed["tau_cv"] == pytest.approx(result.tau_cv, abs=1e-15)
        assert printed["cv_error"] == pytest.approx(result.cv_error_at_tau, abs=1e-15)

    def test_zero_response_tie_break(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 3))
        path = str(tmp_path / "d.csv")
        write_csv(path, X, np.zeros(10))
        assert main(["cv", "--input", path, "--response", "y", "--folds", "5",
                     "--no-center"]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["tau_cv"] == 0.0

    def test_phi_grid_reports_better_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((24, 12))
        Y = X @ rng.standard_normal(12) + rng.standard_normal(24)
        path = str(tmp_path / "d.csv")
        write_csv(path, X, Y)
        assert main(["cv", "--input", path, "--response", "y", "--folds", "4",
                     "--phi-grid", "0,1", "--seed", "2", "--no-center"]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        r0 = kfold_cv(Dataset(X, Y), 4, phi=0.0, seed=2)
        r1 = kfold_cv(Dataset(X, Y), 4, phi=1.0, seed=2)
        assert printed["cv_error"] == pytest.approx(
            min(r0.cv_error_at_tau, r1.cv_error_at_tau)
        )
        assert printed["phi"] == (
            0.0 if r0.cv_error_at_tau <= r1.cv_error_at_tau else 1.0
        )

    def test_fit_out_written(self, data_csv, tmp_path):
        path, _, _ = data_csv
        out = str(tmp_path / "m.json")
        assert main(["cv", "--input", path, "--response", "y", "--folds", "4",
                     "--fit-out", out]) == 0
        model = json.load(open(out))
        assert model["model_kind"] == "linear"

    def test_too_many_folds(self, data_csv):
        path, _, _ = data_csv
        assert main(["cv", "--input", path, "--response", "y", "--folds", "99"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--phi", "inf"], ["--phi", "nan"], ["--phi-grid=-1"], ["--phi-grid=0,-1"]]
    )
    def test_bad_phi_exit_one(self, data_csv, tmp_path, capsys, flags):
        path, _, _ = data_csv
        out = str(tmp_path / "m.json")
        assert main(["cv", "--input", path, "--response", "y", "--folds", "4",
                     "--fit-out", out] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: (--phi|--phi-grid\[\d\]) must be a number in "
                            r"\[0, inf\), got (inf|nan|-1\.0)\n", captured.err)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--phi", "nan"], "--phi must be a number in [0, inf), got nan"),
            (["--phi-grid", "0,-1"], "--phi-grid[1] must be a number in [0, inf), got -1.0"),
            (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_value_named_by_its_flag_before_the_csv_is_read(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.csv")
        assert main(["cv", "--input", missing, "--response", "y"] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_more_folds_than_rows_named_by_its_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        path = str(tmp_path / "d.csv")
        write_csv(path, rng.standard_normal((30, 4)), rng.standard_normal(30))
        assert main(["cv", "--input", path, "--response", "y", "--folds", "40"]) == 1
        assert capsys.readouterr().err == (
            "error: --folds must be at most the row count 30, got 40\n"
        )


class TestKernelFit:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal(10)
        train = str(tmp_path / "train.csv")
        write_csv(train, X, Y)
        model_path = str(tmp_path / "k.json")
        assert main(["kernel-fit", "--input", train, "--response", "y",
                     "--kernel", "rbf:0.5", "--tau", "0.1", "--no-center",
                     "--output", model_path]) == 0
        newdata = str(tmp_path / "new.csv")
        Xnew = rng.standard_normal((4, 3))
        with open(newdata, "w") as handle:
            for row in Xnew:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        preds_path = str(tmp_path / "p.txt")
        assert main(["predict", "--model", model_path, "--input", newdata,
                     "--output", preds_path]) == 0
        file_preds = np.loadtxt(preds_path)
        model = fit_kernel_gct(
            X, Y, KernelSpec(kind="rbf", gamma=0.5), GctConfig(tau=0.1)
        )
        np.testing.assert_array_equal(file_preds, predict_kernel_batch(model, Xnew))

    def test_bad_tau_exit_two(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        assert main(["kernel-fit", "--input", path, "--response", "y",
                     "--kernel", "rbf:0.5", "--tau", "abc",
                     "--output", str(tmp_path / "k.json")]) == 2
        assert "bad --tau value 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tau", "-1"], "--tau must be a number in [0, inf], got -1.0"),
            (["--phi", "nan"], "--phi must be a number in [0, inf), got nan"),
        ],
    )
    def test_bad_value_named_by_its_flag_before_the_csv_is_read(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.csv")
        assert main(["kernel-fit", "--input", missing, "--response", "y", "--kernel",
                     "rbf:0.5", "--output", str(tmp_path / "m.json")] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_kernel_spec(self, data_csv, tmp_path):
        path, _, _ = data_csv
        for kernel in ("wavelet", "rbf:inf", "rbf:nan", "poly:2,nan,1", "poly:2,0,inf"):
            assert main(["kernel-fit", "--input", path, "--response", "y",
                         "--kernel", kernel, "--output", str(tmp_path / "k.json")]) == 2


class TestSimulate:
    def test_zero_method_csv(self, tmp_path):
        scenario = {
            "n": 15,
            "d_grid": [4],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "poly-decay", "b": 2.0},
            "snr_target": 10.0,
            "replicates": 3,
            "base_seed": 7,
            "methods": ["Zero"],
        }
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(scenario, handle)
        out = str(tmp_path / "r.csv")
        assert main(["simulate", "--scenario", spath, "--output", out]) == 0
        rows = open(out).read().strip().splitlines()
        assert len(rows) == 2
        fields = rows[1].split(",")
        assert float(fields[4]) == 1.0 and float(fields[5]) == 1.0

    def test_bad_scenario(self, tmp_path):
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            handle.write("{not json")
        assert main(["simulate", "--scenario", spath,
                     "--output", str(tmp_path / "r.csv")]) == 2

    def test_too_few_rows_for_cv_folds_exit_two(self, tmp_path, capsys):
        scenario = {
            "n": 8,
            "d_grid": [5],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "poly-decay", "b": 2.0},
            "snr_target": 10.0,
            "replicates": 1,
            "base_seed": 7,
            "methods": ["Zero", "NCT-CV"],
        }
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(scenario, handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad scenario: method NCT-CV needs n >= 10 (its CV folds), "
            "got n=8\n"
        )
        assert not out.exists()

    def test_fractional_pattern_count_exit_two(self, tmp_path, capsys):
        # int() once read this count as 2
        scenario = {
            "n": 20,
            "d_grid": [5],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "spiked-head", "count": 2.5},
            "snr_target": 10.0,
            "replicates": 1,
            "base_seed": 7,
            "methods": ["Zero"],
        }
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(scenario, handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad scenario: SpikedHead.count must be an integer >= 0, got 2.5\n"
        )
        assert not out.exists()


    def test_string_float_field_exit_two(self, tmp_path, capsys):
        scenario = {
            "n": 20,
            "d_grid": [5],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "poly-decay", "b": "x"},
            "snr_target": 10.0,
            "replicates": 1,
            "base_seed": 7,
            "methods": ["Zero"],
        }
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(scenario, handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad scenario: PolyDecay.b must be a number in [0, inf), got 'x'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, message",
        [
            (lambda s: {**s, "coef_pattern": {"b": 2.0}}, "lacks coef_pattern.kind"),
            (lambda s: {k: v for k, v in s.items() if k != "n"}, "lacks n"),
            (lambda s: {**s, "coef_pattern": "poly-decay"},
             "coef_pattern must be a JSON object, got 'poly-decay'"),
            (lambda s: [s["n"], s["d_grid"]],
             "ScenarioSpec must be a JSON object, got [20, [5]]"),
        ],
        ids=["kind-missing", "n-missing", "pattern-string", "list"],
    )
    def test_malformed_scenario_named_exit_two(self, tmp_path, capsys, document, message):
        # these once read "bad scenario: 'kind'", "'n'", "string indices must
        # be integers, not 'str'" and "list indices must be integers or
        # slices, not str"
        scenario = {
            "n": 20,
            "d_grid": [5],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "poly-decay", "b": 2.0},
            "snr_target": 10.0,
            "replicates": 1,
            "base_seed": 7,
            "methods": ["Zero"],
        }
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(document(scenario), handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad scenario: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.update(gct_ph=3.0), "ScenarioSpec has no field 'gct_ph'"),
            (lambda s: s["coef_pattern"].update(bb=1.0), "PolyDecay has no field 'bb'"),
        ],
        ids=["scenario-key", "pattern-key"],
    )
    def test_unknown_key_exit_two(self, tmp_path, capsys, edit, message):
        # each key was once skipped: gct_ph ran GCT-CV at the default phi
        scenario = {
            "n": 20,
            "d_grid": [5],
            "eigen_decay_a": 2.0,
            "coef_pattern": {"kind": "poly-decay", "b": 2.0},
            "snr_target": 10.0,
            "replicates": 1,
            "base_seed": 7,
            "methods": ["Zero"],
        }
        edit(scenario)
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(scenario, handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad scenario: {message}\n"
        assert not out.exists()


class TestDiagnose:
    def test_identity_covariance_effective_rank(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        n, d = 3000, 6
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal(n)
        path = str(tmp_path / "d.csv")
        write_csv(path, X, Y)
        assert main(["diagnose", "--input", path, "--response", "y"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["effective_rank"] == pytest.approx(d, rel=0.10)
        assert report["threshold_scale"] > 0

    def test_with_true_beta(self, data_csv, tmp_path, capsys):
        path, X, Y = data_csv
        beta_path = str(tmp_path / "beta.csv")
        with open(beta_path, "w") as handle:
            handle.write("\n".join(["0.5", "1.0", "-1.0", "0.0"]) + "\n")
        assert main(["diagnose", "--input", path, "--response", "y",
                     "--beta", beta_path, "--sigma", "0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "joint_effective_dimension" in report
        assert report["snr"] > 0

    @pytest.mark.parametrize("sigma", ["nan", "-1", "inf"])
    def test_bad_sigma_exit_one_before_the_csv_is_read(self, tmp_path, capsys, sigma):
        # once exit 0: nan and -1 left out snr without a word, inf reported 0
        missing = str(tmp_path / "missing.csv")
        assert main(["diagnose", "--input", missing, "--response", "y",
                     "--sigma", sigma]) == 1
        assert capsys.readouterr().err == (
            f"error: --sigma must be a number in [0, inf), got {float(sigma)!r}\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--delta", "2"], "--delta must be a number in (0, 1), got 2.0"),
            (["--alpha", "0"], "--alpha must be a number in (0, 2], got 0.0"),
        ],
    )
    def test_bad_value_named_by_its_flag_before_the_csv_is_read(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.csv")
        assert main(["diagnose", "--input", missing, "--response", "y"] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_wrong_length_beta_named(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        beta_path = str(tmp_path / "beta.csv")
        with open(beta_path, "w") as handle:
            handle.write("0.5\n1.0\n-1.0\n")
        assert main(["diagnose", "--input", path, "--response", "y",
                     "--beta", beta_path]) == 1
        assert capsys.readouterr().err == "error: beta must be of shape (4,), got (3,)\n"

    def test_zero_sigma_omits_snr(self, data_csv, tmp_path, capsys):
        path, X, Y = data_csv
        beta_path = str(tmp_path / "beta.csv")
        with open(beta_path, "w") as handle:
            handle.write("\n".join(["0.5", "1.0", "-1.0", "0.0"]) + "\n")
        assert main(["diagnose", "--input", path, "--response", "y",
                     "--beta", beta_path, "--sigma", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "mse_zero" in report and "snr" not in report


def reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=reject_constant)


class TestStrictJson:
    @pytest.fixture
    def noise_csv(self, tmp_path):
        # hard-rule CV picks the zero estimator (tau = inf) on this data
        path = str(tmp_path / "noise.csv")
        data = np.random.default_rng(1).standard_normal((20, 3))
        write_csv(path, data[:, :2], data[:, 2])
        return path

    def test_every_json_output_is_strict(self, data_csv, noise_csv, tmp_path, capsys):
        path, _, _ = data_csv
        model = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "y", "--tau", "inf",
                     "--output", model]) == 0
        assert strict_json(open(model).read())["config"]["tau"] is None
        assert main(["cv", "--input", noise_csv, "--response", "y", "--rule", "hard",
                     "--folds", "5", "--fit-out", model]) == 0
        printed = strict_json(capsys.readouterr().out)
        assert printed["tau_cv"] is None
        fitted = strict_json(open(model).read())
        assert fitted["schema_version"] == 2
        assert fitted["config"]["tau"] is None
        assert np.all(np.array(fitted["beta"]) == 0.0)
        kernel = str(tmp_path / "k.json")
        assert main(["kernel-fit", "--input", path, "--response", "y", "--kernel",
                     "rbf:0.5", "--tau", "inf", "--output", kernel]) == 0
        assert strict_json(open(kernel).read())["config"]["tau"] is None
        assert main(["diagnose", "--input", path, "--response", "y"]) == 0
        strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_version_one_model_with_infinity_predicts(self, data_csv, tmp_path, capsys,
                                                      kind):
        path, X, _ = data_csv
        new = str(tmp_path / "new.csv")
        write_csv(new, X[:, :3], X[:, 3])
        model = str(tmp_path / "m.json")
        if kind == "linear":
            argv = ["fit", "--input", path, "--response", "y", "--tau", "inf"]
        else:
            argv = ["kernel-fit", "--input", path, "--response", "y", "--kernel",
                    "rbf:0.5", "--tau", "inf"]
        assert main(argv + ["--output", model]) == 0
        assert main(["predict", "--model", model, "--input", new]) == 0
        expected = capsys.readouterr().out
        payload = json.load(open(model))
        assert payload["config"]["tau"] is None
        payload["schema_version"] = 1
        text = json.dumps(payload).replace('"tau": null', '"tau": Infinity')
        assert "Infinity" in text
        with open(model, "w") as handle:
            handle.write(text)
        assert main(["predict", "--model", model, "--input", new]) == 0
        assert capsys.readouterr().out == expected


SCENARIO = {
    "n": 15,
    "d_grid": [4],
    "eigen_decay_a": 2.0,
    "coef_pattern": {"kind": "poly-decay", "b": 2.0},
    "snr_target": 10.0,
    "replicates": 2,
    "base_seed": 7,
    "methods": ["Zero", "OLS", "Ridge-CV"],
}

KERNEL_GRAMMAR = "linear | rbf:<gamma> | poly:<degree>,<coef0>,<scale>"
METHOD_GRAMMAR = "ols | nct | gct | pcr:<m> | ridge:<lambda>"


class TestValueGrammar:
    """--kernel, --method, --tau, --tau-auto, --phi, --phi-grid, --folds,
    --seed, --sigma, --delta and --alpha: one grammar, one error line for a
    malformed value."""

    @pytest.mark.parametrize(
        "command, flag, text, expected",
        [
            ("kernel-fit", "--kernel", text, KERNEL_GRAMMAR)
            for text in ["wavelet", "linear:", "linear:1", "rbf", "rbf:", "rbf:x",
                         "rbf:1,2", "poly", "poly:2,0", "poly:2,0,1,4", "poly:2.0,0,1",
                         "poly:2.5,0,1", "poly:x,0,1", "Rbf:1", ":1"]
        ]
        + [
            ("fit", "--method", text, METHOD_GRAMMAR)
            for text in ["magic", "ols:", "nct:1", "pcr", "pcr:", "pcr:1.5", "pcr:x",
                         "pcr:1,2", "ridge", "ridge:", "ridge:x", "ridge:1,2", ""]
        ]
        + [("fit", "--tau", text, "<tau>") for text in ["abc", "", "1,2", "1:2"]]
        + [("kernel-fit", "--tau", text, "<tau>") for text in ["abc", "", "0,1"]]
        + [
            ("fit", "--tau-auto", text, "<sigma>,<delta>,<alpha>")
            for text in ["1,2", "1,2,3,4", "1,x,2", "", "1,,2"]
        ]
        + [("cv", "--phi-grid", text, "<phi>[,<phi>...]") for text in ["", "0,x", "0,,1", "1,"]]
        + [(command, "--phi", text, "<phi>") for command in ["fit", "cv", "kernel-fit"]
           for text in ["abc", "", "0,1"]]
        + [("cv", "--folds", text, "an integer >= 2")
           for text in ["1", "0", "-3", "2.5", "x", "", "4,5"]]
        + [("cv", "--seed", text, "<seed>") for text in ["x", "1.5", "", "0,1"]]
        + [("diagnose", flag, text, f"<{flag[2:]}>") for flag in ["--sigma", "--delta", "--alpha"]
           for text in ["abc", "", "0.1,0.2"]],
    )
    def test_malformed_value_exit_two(self, data_csv, tmp_path, capsys, command, flag,
                                      text, expected):
        path, _, _ = data_csv
        argv = [command, "--input", path, "--response", "y", f"{flag}={text}"]
        if command in ("fit", "kernel-fit"):
            argv += ["--output", str(tmp_path / "m.json")]
        if command == "kernel-fit" and flag != "--kernel":
            argv += ["--kernel", "linear"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: bad {flag} value {text!r}: expected {expected}\n"
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method", ["ols", "pcr:2", "ridge:0.1", "nct"])
    @pytest.mark.parametrize(
        "flag, text, expected",
        [("--tau", "abc", "<tau>"), ("--tau-auto", "1,2", "<sigma>,<delta>,<alpha>"),
         ("--phi", "abc", "<phi>")],
    )
    def test_malformed_value_of_an_unused_flag_exit_two(self, data_csv, tmp_path, capsys,
                                                        method, flag, text, expected):
        # every given number flag is parsed before the method is dispatched
        path, _, _ = data_csv
        out = tmp_path / "m.json"
        assert main(["fit", "--input", path, "--response", "y", "--method", method,
                     flag, text, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad {flag} value {text!r}: expected {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, unused",
        [(method, ["--tau", "0.5", "--tau-auto", "1,0.05,2", "--phi", "1"])
         for method in ["ols", "pcr:2", "ridge:0.1"]]
        + [("nct", ["--phi", "1"])]
        # outside their domains too: a method checks only the flags it reads
        + [("ols", ["--tau", "-1", "--tau-auto", "1,2,2", "--phi", "-1"]),
           ("ridge:0.1", ["--tau", "nan", "--phi", "inf"]),
           ("nct", ["--phi", "-1"])],
    )
    def test_well_formed_unused_flags_are_accepted(self, data_csv, tmp_path, method, unused):
        path, _, _ = data_csv
        argv = ["fit", "--input", path, "--response", "y", "--method", method, "--output"]
        assert main(argv + [str(tmp_path / "plain.json")]) == 0
        assert main(argv + [str(tmp_path / "unused.json")] + unused) == 0
        assert (tmp_path / "unused.json").read_text() == (tmp_path / "plain.json").read_text()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("rbf:-1", "KernelSpec.gamma must be a number in [0, inf), got -1.0"),
            ("rbf:inf", "KernelSpec.gamma must be a number in [0, inf), got inf"),
            ("poly:0,0,1", "KernelSpec.degree must be an integer >= 1, got 0"),
            ("poly:2,nan,1", "KernelSpec.coef0 must be a number in (-inf, inf), got nan"),
            ("poly:2,0,-1", "KernelSpec.scale must be a number in (0, inf), got -1.0"),
        ],
        ids=["rbf:-1", "rbf:inf", "poly:0,0,1", "poly:2,nan,1", "poly:2,0,-1"],
    )
    def test_kernel_spec_rejection_is_a_bad_value(self, data_csv, tmp_path, capsys, text,
                                                  reason):
        path, _, _ = data_csv
        assert main(["kernel-fit", "--input", path, "--response", "y", "--kernel", text,
                     "--output", str(tmp_path / "k.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --kernel value {text!r}: expected {KERNEL_GRAMMAR} ({reason})\n"
        )

    @pytest.mark.parametrize(
        "text, block, spec",
        [
            ("linear", '{"kind": "linear"}', KernelSpec("linear")),
            ("rbf:0.5", '{"kind": "rbf", "gamma": 0.5}', KernelSpec("rbf", gamma=0.5)),
            (
                "poly:2,0.5,1.5",
                '{"kind": "poly", "degree": 2, "coef0": 0.5, "scale": 1.5}',
                KernelSpec("poly", degree=2, coef0=0.5, scale=1.5),
            ),
        ],
    )
    def test_kernel_round_trip(self, data_csv, tmp_path, capsys, text, block, spec):
        path, X, Y = data_csv
        model = str(tmp_path / "k.json")
        assert main(["kernel-fit", "--input", path, "--response", "y", "--kernel", text,
                     "--tau", "0.05", "--output", model]) == 0
        # the kernel block, field order and JSON types included
        assert json.dumps(json.load(open(model))["kernel"]) == block
        newdata = str(tmp_path / "new.csv")
        np.savetxt(newdata, X[:5] + 0.25, delimiter=",")
        assert main(["predict", "--model", model, "--input", newdata]) == 0
        fitted = fit_kernel_gct(X, Y, spec, GctConfig(tau=0.05), center_response=True)
        expected = predict_kernel_batch(fitted, np.loadtxt(newdata, delimiter=","))
        printed = np.array(capsys.readouterr().out.split(), dtype=np.float64)
        np.testing.assert_array_equal(printed, expected)

    @pytest.mark.parametrize(
        "text, fit",
        [
            ("ols", lambda ds: fit_min_norm_ls(ds)),
            ("nct", lambda ds: fit_gct(ds, GctConfig(tau=0.05))),
            ("gct", lambda ds: fit_gct(ds, GctConfig(tau=0.05, phi=1.0))),
            ("pcr:2", lambda ds: fit_pcr(ds, 2)),
            ("ridge:0.5", lambda ds: fit_ridge(ds, 0.5)),
        ],
    )
    def test_method_round_trip(self, data_csv, tmp_path, capsys, text, fit):
        path, X, Y = data_csv
        model = str(tmp_path / "m.json")
        assert main(["fit", "--input", path, "--response", "y", "--method", text,
                     "--tau", "0.05", "--phi", "1", "--no-center", "--output", model]) == 0
        assert json.load(open(model))["config"]["method"] == text
        newdata = str(tmp_path / "new.csv")
        np.savetxt(newdata, X[:5] + 0.25, delimiter=",")
        assert main(["predict", "--model", model, "--input", newdata]) == 0
        expected = predict(fit(Dataset(X, Y)), np.loadtxt(newdata, delimiter=","))
        printed = np.array(capsys.readouterr().out.split(), dtype=np.float64)
        np.testing.assert_array_equal(printed, expected)

    def test_folds_checked_before_the_data_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["cv", "--input", missing, "--response", "y", "--folds", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: bad --folds value '1': expected an integer >= 2\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cv", "--folds", "2.5"], "bad --folds value '2.5': expected an integer >= 2"),
            (["cv", "--seed", "x"], "bad --seed value 'x': expected <seed>"),
            (["diagnose", "--sigma", "abc"], "bad --sigma value 'abc': expected <sigma>"),
            (["diagnose", "--delta", "x"], "bad --delta value 'x': expected <delta>"),
            (["cv", "--folds", "1"], "bad --folds value '1': expected an integer >= 2"),
        ],
    )
    def test_once_argparse_typed_flags_give_one_line(self, tmp_path, capsys, argv, message):
        rng = np.random.default_rng(8)
        path = str(tmp_path / "d.csv")
        write_csv(path, rng.standard_normal((30, 4)), rng.standard_normal(30))
        assert main([argv[0], "--input", path, "--response", "y", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def fit_argv(path, command, out):
    """argv that writes out from the data at path, for each writing command."""
    data = ["--input", path, "--response", "y"]
    return {
        "fit": ["fit", *data, "--output", out],
        "cv": ["cv", *data, "--folds", "4", "--fit-out", out],
        "kernel-fit": ["kernel-fit", *data, "--kernel", "rbf:0.5", "--output", out],
    }[command]


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["fit", "cv", "kernel-fit"])
    def test_missing_directory_exit_two(self, data_csv, tmp_path, capsys, command):
        path, _, _ = data_csv
        out = str(tmp_path / "missing" / "m.json")
        assert main(fit_argv(path, command, out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        # cv checks --fit-out before it runs, so it prints no report
        assert captured.out == ""

    def test_predict_missing_directory_exit_two(self, data_csv, tmp_path, capsys):
        path, X, _ = data_csv
        model = str(tmp_path / "m.json")
        assert main(fit_argv(path, "fit", model)) == 0
        newdata = str(tmp_path / "new.csv")
        np.savetxt(newdata, X, delimiter=",")
        out = str(tmp_path / "missing" / "p.txt")
        assert main(["predict", "--model", model, "--input", newdata, "--output", out]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command", ["fit", "kernel-fit", "predict"])
    def test_output_checked_before_any_input_is_read(self, data_csv, tmp_path, capsys,
                                                     monkeypatch, command):
        # a 2000-point kernel fit once ran whole before a missing directory
        # ended it with exit 2
        path, _, _ = data_csv
        model = str(tmp_path / "m.json")
        assert main(fit_argv(path, "fit", model)) == 0
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran before the output check")

            return record

        for name in ("read_csv", "_load_model", "fit_gct", "fit_kernel_gct"):
            monkeypatch.setattr(cli, name, spy(name))
        out = str(tmp_path / "missing" / "out")
        if command == "predict":
            argv = ["predict", "--model", model, "--input", path, "--output", out]
        else:
            argv = fit_argv(path, command, out)
        assert main(argv) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_output_that_is_a_directory_exit_two(self, data_csv, tmp_path, capsys,
                                                 command):
        path, _, _ = data_csv
        out = tmp_path / "taken"
        out.mkdir()
        assert main(fit_argv(path, command, str(out))) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["data.csv", "taken"]
        assert list(out.iterdir()) == []

    def test_written_files_get_the_mode_of_a_new_file(self, data_csv, tmp_path):
        # the temporary file is not made by mkstemp, whose 0600 would stay
        path, _, _ = data_csv
        reference = tmp_path / "plain.txt"
        reference.write_text("")
        mode = reference.stat().st_mode & 0o777
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(SCENARIO, handle)
        assert main(fit_argv(path, "fit", str(tmp_path / "m.json"))) == 0
        assert main(["simulate", "--scenario", spath, "--output",
                     str(tmp_path / "r.csv")]) == 0
        for name in ("m.json", "r.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name

    def test_simulate_checks_output_before_the_study(self, tmp_path, capsys, monkeypatch):
        def study_must_not_run(spec):
            raise AssertionError("run_experiment ran before the output check")

        monkeypatch.setattr(cli, "run_experiment", study_must_not_run)
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(SCENARIO, handle)
        out = str(tmp_path / "missing" / "r.csv")
        assert main(["simulate", "--scenario", spath, "--output", out]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )

    def test_failed_write_leaves_the_old_file_and_no_partial_one(self, tmp_path,
                                                                  monkeypatch):
        from ctreg import files

        target = tmp_path / "r.csv"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(files.os, "replace", fail)
        with pytest.raises(cli.UsageError, match=f"cannot write {target}: No space left"):
            emit_table(run_experiment(spec_from_dict(SCENARIO)), str(target))
        assert target.read_text() == "old\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["r.csv"]


class TestFailuresExitCleanly:
    def test_simulate_method_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        from ctreg import simstudy

        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(simstudy, "kfold_cv_ridge", fail)
        spath = str(tmp_path / "s.json")
        with open(spath, "w") as handle:
            json.dump(SCENARIO, handle)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", spath, "--output", str(out)]) == 1
        seed = int(np.random.SeedSequence([7, 4, 0, 3]).generate_state(1)[0])
        assert capsys.readouterr().err == (
            f"error: method Ridge-CV failed at d=4, replicate=0, cv_seed={seed}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_non_utf8_json_exit_two(self, data_csv, tmp_path, capsys, command):
        path, _, _ = data_csv
        bad = str(tmp_path / "bad.json")
        with open(bad, "wb") as handle:
            handle.write(json.dumps(SCENARIO).encode("utf-16"))
        if command == "simulate":
            argv = ["simulate", "--scenario", bad, "--output", str(tmp_path / "r.csv")]
            what = "scenario"
        else:
            argv = ["predict", "--model", bad, "--input", path]
            what = "model"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Small good and bad files for generated command lines: name -> path."""
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(40)
    X = rng.standard_normal((12, 3))
    write_csv(str(root / "good.csv"), X, X @ [1.0, -0.5, 0.2] + 0.1 * rng.standard_normal(12))
    write_csv(str(root / "wide.csv"), rng.standard_normal((5, 8)), rng.standard_normal(5))
    (root / "zero.csv").write_text("a,b,y\n0,0,1\n0,0,2\n0,0,3\n0,0,4\n")
    (root / "text.csv").write_text("a,b,y\n1,x,2\n3,4,5\n")
    (root / "utf16.csv").write_bytes("a,b,y\n1,2,3\n".encode("utf-16"))
    (root / "beta.csv").write_text("1\n-0.5\n0.2\n")
    scenario = {"n": 10, "d_grid": [3], "eigen_decay_a": 2.0,
                "coef_pattern": {"kind": "poly-decay", "b": 2.0}, "snr_target": 10.0,
                "replicates": 1, "base_seed": 1, "methods": ["Zero", "OLS"]}
    (root / "scenario.json").write_text(json.dumps(scenario))
    (root / "bad-scenario.json").write_text(json.dumps({**scenario, "n": -1}))
    (root / "not.json").write_text("{not json")
    (root / "empty.json").write_text("{}")
    good = str(root / "good.csv")
    assert main(["fit", "--input", good, "--response", "y",
                 "--output", str(root / "linear.json")]) == 0
    assert main(["kernel-fit", "--input", good, "--response", "y", "--kernel", "rbf:0.5",
                 "--output", str(root / "kernel.json")]) == 0
    paths = {path.name: str(path) for path in root.iterdir()}
    paths["missing"] = str(root / "missing.csv")
    paths["directory"] = str(root)
    paths["no-dir"] = str(root / "no-dir" / "out")
    paths["out"] = str(root / "out")
    return paths


# flag -> (good values, bad values, required); a file value names an argv_files entry
NUMBERS = (["0", "0.5", "2"], ["-1", "nan", "inf", "1e400", "abc", "", "1,2"])
INPUTS = (["good.csv", "wide.csv"], ["zero.csv", "text.csv", "utf16.csv", "missing",
                                     "directory"])
OUTPUTS = (["out"], ["no-dir", "directory"])
DATA_FLAGS = {"--input": (*INPUTS, True),
              "--response": (["y", "0"], ["a", "-1", "9", "zz"], True)}
FIT_FLAGS = {"--phi": (*NUMBERS, False), "--rule": (["soft", "hard"], ["bogus"], False)}
ARGV_FLAGS = {
    "fit": {
        **DATA_FLAGS,
        **FIT_FLAGS,
        "--method": (["ols", "nct", "gct", "pcr:1", "ridge:0.1"],
                     ["pcr:0", "pcr:9", "ridge:-1", "magic", "pcr:x"], False),
        "--tau": (*NUMBERS, False),
        "--tau-auto": (["1,0.05,2"], ["nan,0.05,2", "1,0.05,-2", "1,2", "1,2,1"], False),
        "--output": (*OUTPUTS, True),
    },
    "cv": {
        **DATA_FLAGS,
        **FIT_FLAGS,
        "--folds": (["2", "3"], ["1", "0", "99", "x", "2.5"], False),
        "--phi-grid": (["0,1"], ["-1", "nan", "0,x", ""], False),
        "--seed": (["0", "3"], ["-1", "x", "1.5"], False),
        "--fit-out": (*OUTPUTS, False),
    },
    "kernel-fit": {
        **DATA_FLAGS,
        **FIT_FLAGS,
        "--kernel": (["linear", "rbf:0.5", "poly:2,1,1"],
                     ["rbf:-1", "rbf:nan", "poly:0,0,1", "x"], True),
        "--tau": (*NUMBERS, False),
        "--output": (*OUTPUTS, True),
    },
    "predict": {
        "--model": (["linear.json", "kernel.json"],
                    ["empty.json", "not.json", "good.csv", "missing"], True),
        "--input": (*INPUTS, True),
        "--output": (*OUTPUTS, False),
    },
    "simulate": {
        "--scenario": (["scenario.json"],
                       ["bad-scenario.json", "not.json", "utf16.csv", "missing"], True),
        "--output": (*OUTPUTS, True),
    },
    "diagnose": {
        **DATA_FLAGS,
        "--beta": (["beta.csv"], ["good.csv", "text.csv", "missing"], False),
        "--sigma": (*NUMBERS, False),
        "--delta": (["0.05"], NUMBERS[0] + NUMBERS[1], False),
        "--alpha": (["1", "2"], NUMBERS[0] + NUMBERS[1], False),
    },
}


# the flags of the value grammar: a malformed value is exit 2 with the line
# "error: bad <flag> value ..."
GRAMMAR_FLAGS = {"--method", "--kernel", "--tau", "--tau-auto", "--phi", "--phi-grid",
                 "--folds", "--seed", "--sigma", "--delta", "--alpha"}
# the flags whose well-formed values outside their domains are exit 1 with
# the line "error: <flag> must be ..." (or "<flag>[i]" for a grid entry)
DOMAIN_FLAGS = {"cv": {"--phi", "--phi-grid", "--seed", "--folds"},
                "diagnose": {"--sigma", "--delta", "--alpha"}}


@st.composite
def command_lines(draw):
    """(argv, the flags given a value from their bad vocabulary, whether
    every required flag is given) for a subcommand whose flags come from
    small vocabularies: required flags are usually given, optional ones half
    the time, and a value is bad one time in five."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv, bad, complete = [command], [], True
    for flag, (good, bad_values, required) in ARGV_FLAGS[command].items():
        if draw(st.integers(0, 19)) < (19 if required else 10):
            is_bad = draw(st.integers(0, 4)) == 0
            argv += [flag, draw(st.sampled_from(bad_values if is_bad else good))]
            bad += [flag] if is_bad else []
        else:
            complete = complete and not required
    if command in ("fit", "cv", "kernel-fit") and draw(st.booleans()):
        argv.append("--no-center")
    return argv, bad, complete


def run_main(argv):
    """(exit code, the error: lines) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if "error:" in line]


class TestExitCodeContract:
    """The README's exit codes over generated command lines of every
    subcommand: 0, 1 or 2, never an exception, and a failure writes exactly
    one error line (ours, or argparse's "ctreg <command>: error:").  A
    failure caused by the one bad value of a complete command line (with a
    good value in its place the outcome differs) starts by naming the flag
    when it is a number flag's: as a bad value (exit 2), or, for the flags
    that cv and diagnose check, as a value outside its domain (exit 1)."""

    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_main_exits_0_1_or_2_with_one_error_line(self, argv_files, drawn):
        argv, bad, complete = drawn
        code, lines = run_main([argv_files.get(arg, arg) for arg in argv])
        assert code in (0, 1, 2)
        if code == 0:
            return
        assert len(lines) == 1, lines
        assert re.match(r"(ctreg [\w-]+: )?error: ", lines[0]), lines[0]
        if not (complete and len(bad) == 1 and bad[0] in GRAMMAR_FLAGS):
            return
        flag, command = bad[0], argv[0]
        if code == 1 and flag not in DOMAIN_FLAGS.get(command, ()):
            return
        swapped = list(argv)
        swapped[argv.index(flag) + 1] = ARGV_FLAGS[command][flag][0][0]
        if run_main([argv_files.get(arg, arg) for arg in swapped]) != (code, lines):
            assert re.match(rf"error: (bad )?{re.escape(flag)}[ \[]", lines[0]), lines[0]
