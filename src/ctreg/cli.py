"""Command-line front end: fit, cv, predict, kernel-fit, simulate, diagnose.

Data comes in as CSV (header auto-detected), models persist as JSON.
Exit codes: 0 success, 1 numerical/domain failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .canonical import CanonicalDecomposition, Dataset, canonicalize, to_theta
from .errors import CtregError, UsageError, _array, _grid, _integer, _real
from .estimators import (
    FitResult,
    GctConfig,
    default_tau,
    fit_gct,
    fit_min_norm_ls,
    fit_pcr,
    fit_ridge,
)
from .files import atomic_write, check_writable
from .kernel import (
    KERNEL_PARAMS,
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
from .thresholding import HARD_RULE, SOFT_RULE
from .tuning import joint_cv

# version 2 writes tau = inf as null; version-1 files (which may hold the
# non-standard Infinity) are still read
SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (1, 2)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


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


_RULES = {"soft": SOFT_RULE, "hard": HARD_RULE}

# The value grammar of every flag that takes numbers (--kernel, --method,
# --phi-grid and those of _NUMBER_FLAGS): comma-separated numbers, after
# "name:" where a flag names a table entry.
# Fields are the (name, type) of each number.
Fields = Tuple[Tuple[str, type], ...]


def _bad_value(flag: str, text: str, expected: str, reason: str = "") -> UsageError:
    """The one error of a malformed flag value (exit 2)."""
    why = f" ({reason})" if reason else ""
    return UsageError(f"bad {flag} value {text!r}: expected {expected}{why}")


def _numbers(
    flag: str, text: str, types: Sequence[type], expected: str, part: str | None = None
) -> List[Any]:
    """The comma-separated numbers of text, or of its part after "name:", the
    i-th converted by types[i]; the counts must agree (no text, no numbers)."""
    part = text if part is None else part
    cells = part.split(",") if part else []
    try:
        return [kind(cell) for kind, cell in zip(types, cells, strict=True)]
    except ValueError:
        raise _bad_value(flag, text, expected) from None


def _named(flag: str, text: str, table: Dict[str, Fields], make: Callable) -> Any:
    """make(name, **values) of a value name[:v1,v2,...], where name is a key
    of table and the values are its fields, in order; make's ValueError is
    a bad value too."""
    forms = (f"{key}:" + ",".join(f"<{f}>" for f, _ in table[key]) for key in table)
    expected = " | ".join(form.rstrip(":") for form in forms)
    name, colon, rest = text.partition(":")
    fields = table.get(name)
    if fields is None or bool(colon) != bool(fields):
        raise _bad_value(flag, text, expected)
    values = _numbers(flag, text, [kind for _, kind in fields], expected, rest)
    try:
        return make(name, **{field: value for (field, _), value in zip(fields, values)})
    except ValueError as exc:
        raise _bad_value(flag, text, expected, str(exc)) from exc


# the number flags: dest -> (flag, the types of its values, expected)
_NUMBER_FLAGS: Dict[str, Tuple[str, Tuple[type, ...], str]] = {
    "phi": ("--phi", (float,), "<phi>"),
    "tau": ("--tau", (float,), "<tau>"),
    "tau_auto": ("--tau-auto", (float,) * 3, "<sigma>,<delta>,<alpha>"),
    "folds": ("--folds", (int,), "an integer >= 2"),
    "seed": ("--seed", (int,), "<seed>"),
    "sigma": ("--sigma", (float,), "<sigma>"),
    "delta": ("--delta", (float,), "<delta>"),
    "alpha": ("--alpha", (float,), "<alpha>"),
}


def _parse_numbers(args: argparse.Namespace) -> None:
    """Replace the text of each given number flag by its value (one number)
    or values, before any command runs: a malformed value exits 2 whether
    or not the command or method uses the flag."""
    for dest, (flag, types, expected) in _NUMBER_FLAGS.items():
        text = getattr(args, dest, None)
        if text is not None:
            values = _numbers(flag, text, types, expected)
            setattr(args, dest, values if len(values) > 1 else values[0])


Offsets = Optional[Tuple[np.ndarray, float]]


def _center(
    X: np.ndarray, Y: np.ndarray, enabled: bool
) -> Tuple[np.ndarray, np.ndarray, Offsets]:
    if not enabled:
        return X, Y, None
    x_means = X.mean(axis=0)
    y_mean = float(Y.mean())
    return X - x_means, Y - y_mean, (x_means, y_mean)


def _gct_config_json(config: GctConfig) -> dict:
    rule = config.rule.kind.value
    return {"tau": _tau_json(config.tau), "phi": config.phi, "rule": rule}


def _model_json(
    kind: str, spectrum: CanonicalDecomposition | KernelModel, fields: dict
) -> str:
    """A model file: the schema header, fields, then the retained spectrum."""
    header = {"schema_version": SCHEMA_VERSION, "model_kind": kind}
    eigenvalues = spectrum.eigenvalues.tolist()
    decomposition = {"rank": spectrum.rank, "eigenvalues": eigenvalues}
    return _dumps({**header, **fields, "decomposition": decomposition}, indent=2) + "\n"


def _linear_model_json(fit: FitResult, method: str, offsets: Offsets) -> str:
    """The model file of a fit on data centered by offsets = (x_means, y_mean),
    or on raw data when offsets is None."""
    if isinstance(fit.config, GctConfig):
        config = {"method": method, **_gct_config_json(fit.config)}
    else:
        config = {"method": method, **vars(fit.config)}
    centering = None
    if offsets is not None:
        x_means, y_mean = offsets
        centering = {"x_means": x_means.tolist(), "y_mean": y_mean}
    fields = {"beta": fit.beta.tolist(), "config": config, "centering": centering}
    return _model_json("linear", fit.decomposition, fields)


def _kernel_model_json(model: KernelModel) -> str:
    spec = model.kernel
    params = {name: getattr(spec, name) for name, _ in KERNEL_PARAMS[spec.kind]}
    fields = {
        "training_points": model.training_points.tolist(),
        "dual_coeffs": model.dual_coeffs.tolist(),
        "kernel": {"kind": spec.kind, **params},
        "config": _gct_config_json(model.config),
        "response_mean": model.response_mean,
    }
    return _model_json("kernel", model, fields)


def _read_json(path: str, what: str) -> Any:
    """The JSON document in path; a file that cannot be read or decoded, or
    that is not JSON, is a usage error naming what it should hold."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON") from exc


Predictor = Callable[[np.ndarray], np.ndarray]


def _load_model(path: str) -> Tuple[int, Predictor]:
    """The model file in path, read by its kind's reader: the column count
    of the input rows and their predictor.  A missing key or a field its
    reader rejects is a usage error naming the model."""
    payload = _read_json(path, "model")
    if not isinstance(payload, dict):
        raise UsageError(f"model {path} is not a JSON object")
    if payload.get("schema_version") not in READABLE_SCHEMA_VERSIONS:
        raise UsageError(
            f"unsupported model schema version {payload.get('schema_version')!r}"
        )
    kind = payload.get("model_kind")
    if kind is None:
        raise UsageError(f"model {path} lacks model_kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise UsageError(f"model {path} has unknown model_kind {kind!r}")
    try:
        return _MODEL_KINDS[kind](payload)
    except KeyError as exc:
        raise UsageError(f"{kind} model {path} lacks {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {kind} model {path}: {exc}") from exc


def _field(block: Any, path: str) -> Any:
    """The value that path's last key names in the model block that its
    other keys name; a block without that key raises a KeyError naming the
    whole path."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(block, dict) and key not in block:
        raise KeyError(path)
    return block[key]


def _read_linear_model(payload: dict) -> Tuple[int, Predictor]:
    beta = _array("model field beta", payload["beta"], ("d",))
    x_means, y_mean = None, None
    centering = payload.get("centering")
    if centering is not None:
        x_means = _field(centering, "centering.x_means")
        x_means = _array("model field centering.x_means", x_means, beta.shape)
        y_mean = _field(centering, "centering.y_mean")
        if y_mean is not None:
            y_mean = float(_array("model field centering.y_mean", y_mean, ()))

    def predict_rows(data: np.ndarray) -> np.ndarray:
        # a fit on centered data: yhat = y_mean + (x - x_means)^T beta
        if x_means is not None:
            data = data - x_means
        preds = data @ beta
        return preds if y_mean is None else y_mean + preds

    return beta.shape[0], predict_rows


def _read_kernel_model(payload: dict) -> Tuple[int, Predictor]:
    # a field the file leaves out takes its KernelSpec default; kind has none
    training_points, dual_coeffs = payload["training_points"], payload["dual_coeffs"]
    kernel = payload["kernel"]
    _field(kernel, "kernel.kind")
    model = KernelPredictor(
        training_points, dual_coeffs, KernelSpec(**kernel), payload.get("response_mean")
    )
    return model.training_points.shape[1], lambda data: predict_kernel_batch(model, data)


# model_kind -> its reader: model file -> (column count of the input rows,
# their predictions)
_MODEL_KINDS: Dict[str, Callable[[dict], Tuple[int, Predictor]]] = {
    "linear": _read_linear_model,
    "kernel": _read_kernel_model,
}


# the domains of --tau-auto's sigma, delta and alpha (see default_tau)
_TAU_AUTO_DOMAINS = ((0, math.inf, "[)"), (0, 1, "()"), (0, 2, "(]"))


def _check_gct_flags(args: argparse.Namespace, phi: bool) -> None:
    """Check the --tau and --tau-auto values, and --phi if ``phi``, that a
    GCT fit reads, under the flags' names, before any CSV is read."""
    tau_auto = getattr(args, "tau_auto", None)
    if args.tau is not None and tau_auto is not None:
        raise UsageError("--tau and --tau-auto are mutually exclusive")
    if args.tau is not None:
        _real("--tau", args.tau, 0, math.inf, "[]")
    for i, (value, domain) in enumerate(zip(tau_auto or (), _TAU_AUTO_DOMAINS)):
        _real(f"--tau-auto[{i}]", value, *domain)
    if phi:
        _real("--phi", args.phi, 0, math.inf, "[)")


def _fit_gct(args: argparse.Namespace, dataset: Dataset, phi: float) -> FitResult:
    tau = 0.0 if args.tau is None else args.tau
    if args.tau_auto is not None:
        sigma, delta, alpha = args.tau_auto
        dec = canonicalize(dataset)
        tau = default_tau(
            sigma, dataset.n, dec.rank, delta, alpha, phi, float(dec.eigenvalues[0])
        )
    return fit_gct(dataset, GctConfig(tau=tau, phi=phi, rule=_RULES[args.rule]))


# fit --method name -> (the fields of name:<values>, fit(args, dataset, *values))
_FIT_METHODS: Dict[str, Tuple[Fields, Callable[..., FitResult]]] = {
    "ols": ((), lambda args, data: fit_min_norm_ls(data)),
    "nct": ((), lambda args, data: _fit_gct(args, data, 0.0)),
    "gct": ((), lambda args, data: _fit_gct(args, data, args.phi)),
    "pcr": ((("m", int),), lambda args, data, m: fit_pcr(data, m)),
    "ridge": ((("lambda", float),), lambda args, data, lam: fit_ridge(data, lam)),
}


def _method(name: str, **values: Any) -> Tuple[str, Dict[str, Any]]:
    """(name, values) of a --method value, with pcr's m and ridge's lambda
    checked in the domains of fit_pcr and fit_ridge, before any CSV is read;
    an m above min(n, d) or the rank needs the data."""
    if "m" in values:
        _integer("m", values["m"], 0)
    if "lambda" in values:
        _real("lambda", values["lambda"], 0, math.inf, "[]")
    return name, values


def cmd_fit(args: argparse.Namespace) -> int:
    methods = {name: fields for name, (fields, _) in _FIT_METHODS.items()}
    name, values = _named("--method", args.method, methods, _method)
    if name in ("nct", "gct"):
        _check_gct_flags(args, phi=name == "gct")
    check_writable(args.output)
    X, Y = load_dataset(args.input, args.response)
    X, Y, offsets = _center(X, Y, not args.no_center)
    fit = _FIT_METHODS[name][1](args, Dataset(X, Y), *values.values())
    atomic_write(args.output, _linear_model_json(fit, args.method, offsets))
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    if args.folds < 2:
        raise _bad_value("--folds", str(args.folds), "an integer >= 2")
    _integer("--seed", args.seed, 0)
    if args.phi_grid is None:
        _real("--phi", args.phi, 0, math.inf, "[)")
        phis = [args.phi]
    else:
        floats = (float,) * (args.phi_grid.count(",") + 1)
        phis = _numbers("--phi-grid", args.phi_grid, floats, "<phi>[,<phi>...]")
        _grid("--phi-grid", phis, 0, math.inf, "[)")
    if args.fit_out is not None:
        check_writable(args.fit_out)
    X, Y = load_dataset(args.input, args.response)
    if args.folds > X.shape[0]:  # the one flag bound that needs the data
        raise ValueError(f"--folds must be at most the row count {X.shape[0]}, got {args.folds}")
    X, Y, offsets = _center(X, Y, not args.no_center)
    dataset = Dataset(X, Y)
    rule = _RULES[args.rule]
    phi, tau, result = joint_cv(dataset, args.folds, phis, rule, args.seed)

    report = {"tau_cv": _tau_json(tau), "phi": phi, "cv_error": result.cv_error_at_tau}
    print(_dumps(report))
    if args.fit_out is not None:
        fit = fit_gct(dataset, GctConfig(tau=tau, phi=phi, rule=rule))
        atomic_write(args.fit_out, _linear_model_json(fit, "gct", offsets))
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    if args.output is not None:
        check_writable(args.output)
    columns, predict_rows = _load_model(args.model)
    _, data = read_csv(args.input)
    if data.shape[1] != columns:
        raise CtregError(f"model expects {columns} columns, input has {data.shape[1]}")
    preds = predict_rows(data)
    text = "\n".join(repr(float(value)) for value in preds) + "\n"
    if args.output is not None:
        atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_kernel_fit(args: argparse.Namespace) -> int:
    spec = _named("--kernel", args.kernel, KERNEL_PARAMS, KernelSpec)
    _check_gct_flags(args, phi=True)
    check_writable(args.output)
    X, Y = load_dataset(args.input, args.response)
    config = GctConfig(tau=args.tau, phi=args.phi, rule=_RULES[args.rule])
    model = fit_kernel_gct(X, Y, spec, config, center_response=not args.no_center)
    atomic_write(args.output, _kernel_model_json(model))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    data = _read_json(args.scenario, "scenario")
    try:
        spec = spec_from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    check_writable(args.output)
    table = run_experiment(spec)
    emit_table(table, args.output)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.sigma is not None:
        _real("--sigma", args.sigma, 0, math.inf, "[)")
    _real("--delta", args.delta, 0, 1, "()")
    _real("--alpha", args.alpha, 0, 2, "(]")
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
    # flags shared by several subcommands, each declared once
    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("--input", required=True)
    data_flags.add_argument("--response", required=True)
    fit_flags = argparse.ArgumentParser(add_help=False)
    fit_flags.add_argument("--phi", default="0")
    fit_flags.add_argument("--rule", default="soft", choices=tuple(_RULES))
    fit_flags.add_argument("--no-center", action="store_true")

    fit = sub.add_parser(
        "fit",
        parents=[data_flags, fit_flags],
        help="fit a linear model and write model JSON",
    )
    fit.add_argument("--method", default="nct")
    fit.add_argument("--tau", default=None)
    fit.add_argument("--tau-auto", default=None, metavar="SIGMA,DELTA,ALPHA")
    fit.add_argument("--output", required=True)
    fit.set_defaults(func=cmd_fit)

    cv = sub.add_parser(
        "cv",
        parents=[data_flags, fit_flags],
        help="tune the threshold by exact-path K-fold CV",
    )
    cv.add_argument("--folds", default="10")
    cv.add_argument("--phi-grid", default=None)
    cv.add_argument("--seed", default="0")
    cv.add_argument("--fit-out", default=None)
    cv.set_defaults(func=cmd_cv)

    pred = sub.add_parser("predict", help="predict with a saved model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--output", default=None)
    pred.set_defaults(func=cmd_predict)

    kfit = sub.add_parser(
        "kernel-fit", parents=[data_flags, fit_flags], help="fit a kernel model"
    )
    kfit.add_argument("--kernel", required=True)
    kfit.add_argument("--tau", default="0")
    kfit.add_argument("--output", required=True)
    kfit.set_defaults(func=cmd_kernel_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    diag = sub.add_parser(
        "diagnose", parents=[data_flags], help="print diagnostic metrics as JSON"
    )
    diag.add_argument("--beta", default=None, help="CSV with true coefficients")
    diag.add_argument("--sigma", default=None)
    diag.add_argument("--delta", default="0.05")
    diag.add_argument("--alpha", default="2.0")
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _parse_numbers(args)
        return args.func(args)
    except (UsageError, CtregError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
