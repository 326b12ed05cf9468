"""Command-line front end: fit, cv, predict, kernel-fit, simulate, diagnose.

Data comes in as CSV (header auto-detected), models persist as JSON.
Exit codes: 0 success, 1 numerical/domain failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .canonical import Dataset, canonicalize, to_theta
from .errors import CtregError
from .estimators import (
    FitResult,
    GctConfig,
    default_tau,
    fit_gct,
    fit_min_norm_ls,
    fit_pcr,
    fit_ridge,
)
from .kernel import (
    KernelModel,
    KernelPredictor,
    KernelSpec,
    fit_kernel_gct,
    predict_kernel_batch,
)
from .metrics import (
    effective_rank,
    joint_effective_dimension,
    mse_fixed,
    threshold_scale,
)
from .simstudy import emit_table, run_experiment, spec_from_dict
from .thresholding import HARD_RULE, SOFT_RULE, ThresholdRule
from .tuning import joint_cv

# version 2 writes tau = inf as null; version-1 files (which may hold the
# non-standard Infinity) are still read
SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (1, 2)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Malformed flags or input files; maps to exit code 2."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(payload: dict, indent: Optional[int] = None) -> str:
    """Strict JSON (RFC 8259): a non-finite float raises instead of being
    written as NaN or Infinity."""
    return json.dumps(payload, indent=indent, allow_nan=False)


def _tau_json(tau: float) -> Optional[float]:
    """tau for a JSON document: tau = inf (the zero estimator) is null."""
    return None if math.isinf(tau) else tau


def read_csv(path: str) -> Tuple[Optional[List[str]], np.ndarray]:
    """Read a numeric CSV; the first non-blank row is a header iff it is non-numeric.

    ``np.loadtxt`` parses the rows below the header.  A file it rejects, or
    reads with a width other than the first row's, is parsed again row by
    row (``_read_csv_rows``), which accepts whatever ``float`` accepts,
    such as ``1_0`` and whitespace-only lines, and names the row of a bad
    field; both parses give the same array bit for bit.
    """
    parsed = _read_csv_loadtxt(path)
    header, data = parsed if parsed is not None else _read_csv_rows(path)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = (int(i) for i in bad[0])
        name = f" ({header[col]})" if header is not None else ""
        raise UsageError(
            f"CSV {path}: non-finite value in row {row + 1}, column {col + 1}{name}"
        )
    return header, data


def _csv_cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().split(",")]


def _csv_header(first: List[str]) -> Optional[List[str]]:
    """The first row's cells if they form a header (any non-numeric cell)."""
    try:
        [float(cell) for cell in first]
    except ValueError:
        return first
    return None


def _read_csv_loadtxt(path: str) -> Optional[Tuple[Optional[List[str]], np.ndarray]]:
    """(header, data) parsed by np.loadtxt, or None where the row-by-row
    parse has to decide: an unreadable file, fewer than two non-blank rows,
    or rows loadtxt rejects or reads with the wrong width."""
    try:
        with open(path, newline="") as handle:
            content = (
                (number, line) for number, line in enumerate(handle) if line.strip()
            )
            first = next(content, None)
            if first is None or next(content, None) is None:
                return None
    except (OSError, ValueError):
        return None
    number, line = first
    cells = _csv_cells(line)
    header = _csv_header(cells)
    # comments=None: the default "#" would silently cut a cell such as 2#c
    try:
        data = np.loadtxt(
            path,
            delimiter=",",
            comments=None,
            ndmin=2,
            skiprows=number if header is None else number + 1,
        )
    except ValueError:
        return None
    return (header, data) if data.shape[1] == len(cells) else None


def _read_csv_rows(path: str) -> Tuple[Optional[List[str]], np.ndarray]:
    """Parse a CSV row by row with ``float``; errors name the bad row."""
    try:
        with open(path, newline="") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"empty CSV file {path}")

    first = _csv_cells(lines[0])
    header = _csv_header(first)
    if header is not None:
        lines = lines[1:]
        if not lines:
            raise UsageError(f"CSV {path} has a header but no data rows")

    rows = []
    width = len(first)
    for index, line in enumerate(lines):
        cells = _csv_cells(line)
        if len(cells) != width:
            raise UsageError(
                f"CSV {path}: row {index + 1} has {len(cells)} fields, expected {width}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise UsageError(f"CSV {path}: non-numeric value in row {index + 1}") from exc
    return header, np.asarray(rows, dtype=np.float64)


def _response_column(
    header: Optional[List[str]], data: np.ndarray, response: str
) -> int:
    if header is not None and response in header:
        return header.index(response)
    try:
        index = int(response)
    except ValueError:
        raise UsageError(f"response column {response!r} not found")
    if not 0 <= index < data.shape[1]:
        raise UsageError(f"response index {index} out of range")
    return index


def load_dataset(path: str, response: str) -> Tuple[np.ndarray, np.ndarray]:
    header, data = read_csv(path)
    if data.shape[1] < 2:
        raise UsageError("need at least one covariate column plus the response")
    col = _response_column(header, data, response)
    Y = data[:, col]
    X = np.delete(data, col, axis=1)
    return X, Y


def _parse_rule(name: str) -> ThresholdRule:
    if name == "soft":
        return SOFT_RULE
    if name == "hard":
        return HARD_RULE
    raise UsageError(f"unknown rule {name!r}")


def _parse_kernel(text: str) -> KernelSpec:
    if text == "linear":
        return KernelSpec(kind="linear")
    if text.startswith("rbf:"):
        try:
            return KernelSpec(kind="rbf", gamma=float(text[4:]))
        except ValueError as exc:
            raise UsageError(f"bad rbf kernel spec {text!r}") from exc
    if text.startswith("poly:"):
        parts = text[5:].split(",")
        if len(parts) != 3:
            raise UsageError("poly kernel expects poly:<degree>,<coef0>,<scale>")
        try:
            return KernelSpec(
                kind="poly",
                degree=int(parts[0]),
                coef0=float(parts[1]),
                scale=float(parts[2]),
            )
        except ValueError as exc:
            raise UsageError(f"bad poly kernel spec {text!r}") from exc
    raise UsageError(f"unknown kernel {text!r}")


Offsets = Optional[Tuple[np.ndarray, float]]


def _center(
    X: np.ndarray, Y: np.ndarray, enabled: bool
) -> Tuple[np.ndarray, np.ndarray, Offsets]:
    if not enabled:
        return X, Y, None
    x_means = X.mean(axis=0)
    y_mean = float(Y.mean())
    return X - x_means, Y - y_mean, (x_means, y_mean)


def _linear_model_json(fit: FitResult, method: str, offsets: Offsets) -> str:
    """The model file of a fit on data centered by offsets = (x_means, y_mean),
    or on raw data when offsets is None."""
    config: dict
    if isinstance(fit.config, GctConfig):
        rule = fit.config.rule
        config = {
            "method": method,
            "tau": _tau_json(fit.config.tau),
            "phi": fit.config.phi,
            "rule": rule.kind.value,
        }
    else:
        config = {"method": method, **vars(fit.config)}
    centering = None
    if offsets is not None:
        x_means, y_mean = offsets
        centering = {"x_means": x_means.tolist(), "y_mean": y_mean}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": "linear",
        "beta": fit.beta.tolist(),
        "config": config,
        "centering": centering,
        "decomposition": {
            "rank": fit.decomposition.rank,
            "eigenvalues": fit.decomposition.eigenvalues.tolist(),
        },
    }
    return _dumps(payload, indent=2)


def _kernel_model_json(model: KernelModel) -> str:
    kernel: dict = {"kind": model.kernel.kind}
    if model.kernel.kind == "rbf":
        kernel["gamma"] = model.kernel.gamma
    elif model.kernel.kind == "poly":
        kernel.update(
            degree=model.kernel.degree,
            coef0=model.kernel.coef0,
            scale=model.kernel.scale,
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": "kernel",
        "training_points": model.training_points.tolist(),
        "dual_coeffs": model.dual_coeffs.tolist(),
        "kernel": kernel,
        "config": {
            "tau": _tau_json(model.config.tau),
            "phi": model.config.phi,
            "rule": model.config.rule.kind.value,
        },
        "response_mean": model.response_mean,
        "decomposition": {
            "rank": model.rank,
            "eigenvalues": model.eigenvalues.tolist(),
        },
    }
    return _dumps(payload, indent=2)


# keys each model kind must carry for predict
_MODEL_KEYS = {
    "linear": ("beta",),
    "kernel": ("kernel", "training_points", "dual_coeffs"),
}


def _load_model(path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"model {path} is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"model {path} is not a JSON object")
    if payload.get("schema_version") not in READABLE_SCHEMA_VERSIONS:
        raise UsageError(
            f"unsupported model schema version {payload.get('schema_version')!r}"
        )
    kind = payload.get("model_kind")
    if kind is None:
        raise UsageError(f"model {path} lacks model_kind")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise UsageError(f"model {path} has unknown model_kind {kind!r}")
    missing = [key for key in _MODEL_KEYS[kind] if key not in payload]
    if missing:
        raise UsageError(f"{kind} model {path} lacks {', '.join(missing)}")
    return payload


def _model_array(value: object, field: str, ndim: int) -> np.ndarray:
    """A model-file field as a finite float array with ndim dimensions."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"model field {field} is not numeric") from exc
    if array.ndim != ndim:
        raise UsageError(
            f"model field {field} must have {ndim} dimension(s), got {array.ndim}"
        )
    if not np.all(np.isfinite(array)):
        raise UsageError(f"model field {field} has a non-finite value")
    return array


def _model_mean(value: object, field: str) -> Optional[float]:
    """A finite model-file mean, or None for null."""
    return None if value is None else float(_model_array(value, field, 0))


def _parse_tau(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad --tau value {text!r}") from exc


def _resolve_tau(args: argparse.Namespace, dataset: Dataset, phi: float) -> float:
    if args.tau is not None and args.tau_auto is not None:
        raise UsageError("--tau and --tau-auto are mutually exclusive")
    if args.tau_auto is not None:
        parts = args.tau_auto.split(",")
        if len(parts) != 3:
            raise UsageError("--tau-auto expects sigma,delta,alpha")
        try:
            sigma, delta, alpha = (float(part) for part in parts)
        except ValueError as exc:
            raise UsageError("--tau-auto expects three numbers") from exc
        dec = canonicalize(dataset)
        return default_tau(
            sigma, dataset.n, dec.rank, delta, alpha, phi, float(dec.eigenvalues[0])
        )
    if args.tau is not None:
        return _parse_tau(args.tau)
    return 0.0


def cmd_fit(args: argparse.Namespace) -> int:
    X, Y = load_dataset(args.input, args.response)
    X, Y, offsets = _center(X, Y, not args.no_center)
    dataset = Dataset(X, Y)

    method = args.method
    if method == "ols":
        fit = fit_min_norm_ls(dataset)
    elif method == "nct":
        tau = _resolve_tau(args, dataset, 0.0)
        fit = fit_gct(dataset, GctConfig(tau=tau, phi=0.0, rule=_parse_rule(args.rule)))
    elif method == "gct":
        tau = _resolve_tau(args, dataset, args.phi)
        fit = fit_gct(
            dataset, GctConfig(tau=tau, phi=args.phi, rule=_parse_rule(args.rule))
        )
    elif method.startswith("pcr:"):
        try:
            m = int(method[4:])
        except ValueError as exc:
            raise UsageError(f"bad method {method!r}") from exc
        fit = fit_pcr(dataset, m)
    elif method.startswith("ridge:"):
        try:
            lam = float(method[6:])
        except ValueError as exc:
            raise UsageError(f"bad method {method!r}") from exc
        fit = fit_ridge(dataset, lam)
    else:
        raise UsageError(f"unknown method {method!r}")

    _atomic_write(args.output, _linear_model_json(fit, method, offsets) + "\n")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    X, Y = load_dataset(args.input, args.response)
    X, Y, offsets = _center(X, Y, not args.no_center)
    dataset = Dataset(X, Y)
    rule = _parse_rule(args.rule)

    phis = [args.phi]
    if args.phi_grid is not None:
        try:
            phis = sorted(float(part) for part in args.phi_grid.split(","))
        except ValueError as exc:
            raise UsageError("--phi-grid expects comma-separated numbers") from exc
    phi, tau, result = joint_cv(dataset, args.folds, phis, rule, args.seed)

    report = {"tau_cv": _tau_json(tau), "phi": phi, "cv_error": result.cv_error_at_tau}
    print(_dumps(report))
    if args.fit_out is not None:
        fit = fit_gct(dataset, GctConfig(tau=tau, phi=phi, rule=rule))
        _atomic_write(args.fit_out, _linear_model_json(fit, "gct", offsets) + "\n")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    payload = _load_model(args.model)
    header, data = read_csv(args.input)

    if payload["model_kind"] == "linear":
        try:
            beta, x_means, y_mean = _linear_model_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed linear model {args.model}: {exc!r}") from exc
        if data.shape[1] != beta.shape[0]:
            raise CtregError(
                f"model expects {beta.shape[0]} columns, input has {data.shape[1]}"
            )
        # a fit on centered data: yhat = y_mean + (x - x_means)^T beta
        if x_means is not None:
            data = data - x_means
        preds = data @ beta
        if y_mean is not None:
            preds = y_mean + preds
    else:
        try:
            model = _kernel_model_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed kernel model {args.model}: {exc!r}") from exc
        if data.shape[1] != model.training_points.shape[1]:
            raise CtregError(
                f"model expects {model.training_points.shape[1]} columns, "
                f"input has {data.shape[1]}"
            )
        preds = predict_kernel_batch(model, data)

    text = "\n".join(repr(float(value)) for value in preds) + "\n"
    if args.output is not None:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _linear_model_from_json(
    payload: dict,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[float]]:
    """(beta, x_means, y_mean) of a linear model file; an absent offset is None."""
    beta = _model_array(payload["beta"], "beta", 1)
    centering = payload.get("centering")
    if centering is None:
        return beta, None, None
    x_means = _model_array(centering["x_means"], "centering.x_means", 1)
    if x_means.shape != beta.shape:
        raise UsageError(
            f"model field centering.x_means has {x_means.shape[0]} entries, "
            f"beta has {beta.shape[0]}"
        )
    return beta, x_means, _model_mean(centering["y_mean"], "centering.y_mean")


def _kernel_model_from_json(payload: dict) -> KernelPredictor:
    training_points = _model_array(payload["training_points"], "training_points", 2)
    dual_coeffs = _model_array(payload["dual_coeffs"], "dual_coeffs", 1)
    if dual_coeffs.shape[0] != training_points.shape[0]:
        raise UsageError(
            f"model field dual_coeffs has {dual_coeffs.shape[0]} entries for "
            f"{training_points.shape[0]} training points"
        )
    kernel_data = payload["kernel"]

    def number(key: str, default: float) -> float:
        return float(_model_array(kernel_data.get(key, default), f"kernel.{key}", 0))

    degree = number("degree", 2)
    if not degree.is_integer():
        raise UsageError(f"model field kernel.degree is not an integer: {degree!r}")
    spec = KernelSpec(
        kind=kernel_data["kind"],
        gamma=number("gamma", 1.0),
        degree=int(degree),
        coef0=number("coef0", 0.0),
        scale=number("scale", 1.0),
    )
    return KernelPredictor(
        training_points=training_points,
        dual_coeffs=dual_coeffs,
        kernel=spec,
        response_mean=_model_mean(payload.get("response_mean"), "response_mean"),
    )


def cmd_kernel_fit(args: argparse.Namespace) -> int:
    X, Y = load_dataset(args.input, args.response)
    spec = _parse_kernel(args.kernel)
    config = GctConfig(
        tau=_parse_tau(args.tau), phi=args.phi, rule=_parse_rule(args.rule)
    )
    model = fit_kernel_gct(
        X, Y, spec, config, center_response=not args.no_center
    )
    _atomic_write(args.output, _kernel_model_json(model) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read scenario {args.scenario}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError("scenario file is not valid JSON") from exc
    try:
        spec = spec_from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    table = run_experiment(spec)
    emit_table(table, args.output)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    X, Y = load_dataset(args.input, args.response)
    dataset = Dataset(X, Y)
    dec = canonicalize(dataset)

    report: dict = {
        "n": dataset.n,
        "d": dataset.d,
        "rank": dec.rank,
        "effective_rank": effective_rank(dec.eigenvalues),
        "threshold_scale": threshold_scale(
            dataset.n, dec.rank, args.delta, args.alpha
        ),
    }
    if args.beta is not None:
        _, beta_data = read_csv(args.beta)
        beta = beta_data.reshape(-1)
        if beta.shape[0] != dataset.d:
            raise CtregError(
                f"true-coefficient file has {beta.shape[0]} values, expected {dataset.d}"
            )
        theta = to_theta(dec, beta)
        theta_norm = float(np.linalg.norm(theta))
        mse_hat = mse_fixed(np.zeros(dataset.d), beta, dec)
        report["mse_zero"] = mse_hat
        if args.sigma is not None and args.sigma > 0:
            report["snr"] = theta_norm / args.sigma
        if theta_norm > 0:
            report["joint_effective_dimension"] = {
                f"q={q:g}": joint_effective_dimension(theta, theta_norm, q)
                for q in (0.0, 1.0, 2.0)
            }
    print(_dumps(report, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctreg",
        description="Canonical thresholding regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a linear model and write model JSON")
    fit.add_argument("--input", required=True)
    fit.add_argument("--response", required=True)
    fit.add_argument("--method", default="nct")
    fit.add_argument("--tau", default=None)
    fit.add_argument("--tau-auto", default=None, metavar="SIGMA,DELTA,ALPHA")
    fit.add_argument("--phi", type=float, default=0.0)
    fit.add_argument("--rule", default="soft", choices=("soft", "hard"))
    fit.add_argument("--no-center", action="store_true")
    fit.add_argument("--output", required=True)
    fit.set_defaults(func=cmd_fit)

    cv = sub.add_parser("cv", help="tune the threshold by exact-path K-fold CV")
    cv.add_argument("--input", required=True)
    cv.add_argument("--response", required=True)
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--phi", type=float, default=0.0)
    cv.add_argument("--phi-grid", default=None)
    cv.add_argument("--rule", default="soft", choices=("soft", "hard"))
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--no-center", action="store_true")
    cv.add_argument("--fit-out", default=None)
    cv.set_defaults(func=cmd_cv)

    pred = sub.add_parser("predict", help="predict with a saved model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--output", default=None)
    pred.set_defaults(func=cmd_predict)

    kfit = sub.add_parser("kernel-fit", help="fit a kernel model")
    kfit.add_argument("--input", required=True)
    kfit.add_argument("--response", required=True)
    kfit.add_argument("--kernel", required=True)
    kfit.add_argument("--tau", default="0")
    kfit.add_argument("--phi", type=float, default=0.0)
    kfit.add_argument("--rule", default="soft", choices=("soft", "hard"))
    kfit.add_argument("--no-center", action="store_true")
    kfit.add_argument("--output", required=True)
    kfit.set_defaults(func=cmd_kernel_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    diag = sub.add_parser("diagnose", help="print diagnostic metrics as JSON")
    diag.add_argument("--input", required=True)
    diag.add_argument("--response", required=True)
    diag.add_argument("--beta", default=None, help="CSV with true coefficients")
    diag.add_argument("--sigma", type=float, default=None)
    diag.add_argument("--delta", type=float, default=0.05)
    diag.add_argument("--alpha", type=float, default=2.0)
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CtregError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
