"""Command-line front end: fit, cv, predict, kernel-fit, simulate, diagnose.

Data comes in as CSV (header auto-detected), models persist as JSON.
Exit codes: 0 success, 1 numerical/domain failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .canonical import Dataset, canonicalize, to_theta
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
from . import files
from .files import atomic_write, check_writable, read_json
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
from .thresholding import HARD_RULE, SOFT_RULE, ThresholdRule
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


Predictor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Centering:
    """The means that a fit on centered data subtracted; a model file may
    hold y_mean as null, for no response offset."""

    x_means: np.ndarray
    y_mean: Optional[float]


def _center(
    X: np.ndarray, Y: np.ndarray, enabled: bool
) -> Tuple[np.ndarray, np.ndarray, Optional[Centering]]:
    if not enabled:
        return X, Y, None
    centering = Centering(X.mean(axis=0), float(Y.mean()))
    return X - centering.x_means, Y - centering.y_mean, centering


@dataclass(frozen=True)
class Spectrum:
    """The retained spectrum, written for people and other tools."""

    rank: int
    eigenvalues: np.ndarray


@dataclass(frozen=True, kw_only=True)
class ModelFile:
    """The header of a model file; model_kind names the layout of the rest,
    whose config records the fit for people and other tools (predict does
    not read it)."""

    schema_version: int
    model_kind: str

    def __post_init__(self) -> None:
        try:
            if _integer("schema_version", self.schema_version, 1) in READABLE_SCHEMA_VERSIONS:
                return
        except ValueError:
            pass
        raise UsageError(f"unsupported model schema version {self.schema_version!r}")


@dataclass(frozen=True, kw_only=True)
class LinearModelFile(ModelFile):
    """A linear model: ȳ + (x − x̄)ᵀβ, or xᵀβ when centering is null."""

    beta: np.ndarray
    config: Any = None
    centering: Optional[Centering]
    decomposition: Optional[Spectrum] = None

    def predictor(self) -> Tuple[int, Predictor]:
        beta, centering = _array("model field beta", self.beta, ("d",)), self.centering
        x_means, y_mean = None, None
        if centering is not None:
            x_means = _array("model field centering.x_means", centering.x_means, beta.shape)
            if centering.y_mean is not None:
                y_mean = float(_array("model field centering.y_mean", centering.y_mean, ()))

        def predict_rows(data: np.ndarray) -> np.ndarray:
            preds = (data if x_means is None else data - x_means) @ beta
            return preds if y_mean is None else y_mean + preds

        return beta.shape[0], predict_rows


@dataclass(frozen=True, kw_only=True)
class KernelModelFile(ModelFile):
    """A kernel model, read by the library types: its fields are checked,
    and named, by ``KernelPredictor`` and ``KernelSpec``."""

    training_points: np.ndarray
    dual_coeffs: np.ndarray
    kernel: KernelSpec
    config: Any = None
    response_mean: Optional[float]
    decomposition: Optional[Spectrum] = None

    def predictor(self) -> Tuple[int, Predictor]:
        fields = (self.training_points, self.dual_coeffs, self.kernel, self.response_mean)
        model = KernelPredictor(*fields)
        return model.training_points.shape[1], lambda data: predict_kernel_batch(model, data)


_MODEL_KINDS = {"linear": LinearModelFile, "kernel": KernelModelFile}


def _kernel_json(spec: KernelSpec) -> dict:
    names = [name for name, _ in KERNEL_PARAMS[spec.kind]]
    return files._to_tagged("kind", spec.kind, spec, {}, names)


def _kernel_from_json(block: Any, path: str) -> KernelSpec:
    """A kernel block, read as a ``KernelSpec`` layout, that holds exactly
    the keys ``_kernel_json`` writes for its kind: none of another kind's
    fields, and none left to a ``KernelSpec`` default."""
    spec = files._from_fields(KernelSpec, block, {}, f"{path}.")
    written = _kernel_json(spec)
    for key in [*block, *written]:
        if key not in written:
            raise ValueError(f"KernelSpec.{key} is not a field of the {spec.kind} kernel")
        if key not in block:
            raise KeyError(f"{path}.{key}")
    return spec


# how a model file writes values: tau = inf (or a ridge lambda = inf) as
# null, a rule as its kind's name and an array as a (nested) list
_TO_JSON = {float: _tau_json, ThresholdRule: lambda rule: rule.kind.value,
            np.ndarray: np.ndarray.tolist, KernelSpec: _kernel_json}


def _model_json(kind: str, **fields: Any) -> str:
    """A model file: the header, then the fields of its kind's layout, read
    from ``fields`` (any other key is not written)."""
    source = SimpleNamespace(schema_version=SCHEMA_VERSION, model_kind=kind, **fields)
    return _dumps(files._to_fields(_MODEL_KINDS[kind], source, _TO_JSON), indent=2) + "\n"


def _linear_model_json(fit: FitResult, method: str, centering: Optional[Centering]) -> str:
    """The model file of a fit on data centered by centering, or on raw data
    when it is None."""
    config = files._to_tagged("method", method, fit.config, _TO_JSON)
    return _model_json("linear", **{**vars(fit), "config": config, "centering": centering})


def _kernel_model_json(model: KernelModel) -> str:
    config = files._to_fields(GctConfig, model.config, _TO_JSON)
    return _model_json("kernel", **{**vars(model), "config": config, "decomposition": model})


def _load_model(path: str) -> Tuple[int, Predictor]:
    """The model file in path, read by the layout its model_kind names: the
    column count of the input rows and their predictor.  A missing key or a
    field its layout rejects is a usage error naming the model."""
    payload, what = read_json(path, "model"), "model"
    try:
        kind, layout, fields = files._tagged(payload, "model_kind", _MODEL_KINDS)
        what = f"{kind} model"
        return files._from_fields(layout, fields, {KernelSpec: _kernel_from_json}).predictor()
    except KeyError as exc:
        raise UsageError(f"{what} {path} lacks {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {what} {path}: {exc}") from exc


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
    X, Y, centering = _center(X, Y, not args.no_center)
    fit = _FIT_METHODS[name][1](args, Dataset(X, Y), *values.values())
    atomic_write(args.output, _linear_model_json(fit, args.method, centering))
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
    X, Y, centering = _center(X, Y, not args.no_center)
    dataset = Dataset(X, Y)
    rule = _RULES[args.rule]
    phi, tau, result = joint_cv(dataset, args.folds, phis, rule, args.seed)

    report = {"tau_cv": _tau_json(tau), "phi": phi, "cv_error": result.cv_error_at_tau}
    print(_dumps(report))
    if args.fit_out is not None:
        fit = fit_gct(dataset, GctConfig(tau=tau, phi=phi, rule=rule))
        atomic_write(args.fit_out, _linear_model_json(fit, "gct", centering))
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
    data = read_json(args.scenario, "scenario")
    try:
        spec = spec_from_dict(data)
    except KeyError as exc:
        raise UsageError(f"bad scenario: lacks {exc.args[0]}") from exc
    except (ValueError, TypeError) as exc:
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
