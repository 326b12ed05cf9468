"""Monte Carlo comparison harness over a dimension grid.

Scenarios have diagonal population covariance diag(j^{-a}) and one of a
few coefficient regimes; the noise scale is chosen so the population
signal-to-noise ratio hits the requested target exactly.  Replicates
draw from isolated counter-based RNG streams keyed by
(base_seed, dimension, replicate, role), so any subset of the study can
be reproduced bitwise in any order.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import operator
import typing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np
from numpy.typing import NDArray

from .canonical import Dataset
from .errors import ExperimentError
from .estimators import GctConfig, fit_gct, fit_min_norm_ls, fit_pcr, fit_ridge
from .files import atomic_write
from .metrics import _check_phi
from .thresholding import SOFT_RULE
from .tuning import kfold_cv, kfold_cv_pcr, kfold_cv_ridge

FloatArray = NDArray[np.float64]

CV_FOLDS = 10
RIDGE_GRID = np.logspace(-8, 2, 40)

_ROLE_X = 0
_ROLE_NOISE = 1
_ROLE_PATTERN = 2
_ROLE_CV = 3


def _count(name: str, value: Any, least: int) -> int:
    """``value`` as a Python int, or ValueError naming it unless it is an
    integer (numpy's too) of at least ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _set_count(spec: object, field: str, least: int) -> None:
    """Store the field as a Python int, or raise ValueError naming it unless
    it is an integer (numpy's too) of at least ``least``."""
    name = f"{type(spec).__name__}.{field}"
    object.__setattr__(spec, field, _count(name, getattr(spec, field), least))


@dataclass(frozen=True)
class PolyDecay:
    b: float

    def __post_init__(self) -> None:
        if self.b < 0:
            raise ValueError("decay exponent b must be nonnegative")


@dataclass(frozen=True)
class SpikedHead:
    count: int
    value: float = 1.0

    def __post_init__(self) -> None:
        _set_count(self, "count", 0)


@dataclass(frozen=True)
class SpikedTailRandom:
    count: int
    window: int
    noise_var: Optional[float] = None  # None: use 1/d

    def __post_init__(self) -> None:
        _set_count(self, "count", 0)
        _set_count(self, "window", 1)


@dataclass(frozen=True)
class IsotropicGaussian:
    pass


CoefPattern = Union[PolyDecay, SpikedHead, SpikedTailRandom, IsotropicGaussian]

# the "kind" string of each pattern in a scenario's JSON form
_PATTERN_OF_KIND: Dict[str, Type[Any]] = {
    "poly-decay": PolyDecay,
    "spiked-head": SpikedHead,
    "spiked-tail-random": SpikedTailRandom,
    "isotropic-gaussian": IsotropicGaussian,
}
_KIND_OF_PATTERN = {cls: kind for kind, cls in _PATTERN_OF_KIND.items()}


def _gct_cv(dataset: Dataset, phi: float, cv_seed: int) -> GctConfig:
    tau = kfold_cv(dataset, CV_FOLDS, phi, SOFT_RULE, cv_seed).tau_cv
    return GctConfig(tau=tau, phi=phi)


def _gct_beta(dataset: Dataset, config: GctConfig) -> FloatArray:
    return fit_gct(dataset, config).beta


# The methods a scenario may list: name -> (tune, fit).  tune(spec, dataset,
# cv_seed) is the fit's parameter from the public tuner on CV_FOLDS folds,
# None for a method without CV; fit(dataset[, parameter]) is beta.  The
# tuners share the fold spectra and the fits share the decomposition through
# the dataset's memo.
_METHODS: Dict[str, Tuple[Optional[Callable[..., Any]], Callable[..., FloatArray]]] = {
    "NCT-CV": (lambda spec, data, seed: _gct_cv(data, 0.0, seed), _gct_beta),
    "GCT-CV": (lambda spec, data, seed: _gct_cv(data, spec.gct_phi, seed), _gct_beta),
    "PCR-CV": (
        lambda spec, data, seed: kfold_cv_pcr(data, CV_FOLDS, seed)[0],
        lambda data, m: fit_pcr(data, m).beta,
    ),
    "OLS": (None, lambda data: fit_min_norm_ls(data).beta),
    "Ridge-CV": (
        lambda spec, data, seed: kfold_cv_ridge(data, CV_FOLDS, RIDGE_GRID, seed)[0],
        lambda data, lam: fit_ridge(data, lam).beta,
    ),
    "Zero": (None, lambda data: np.zeros(data.d)),
}
KNOWN_METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class ScenarioSpec:
    n: int
    d_grid: Tuple[int, ...]
    eigen_decay_a: float
    coef_pattern: CoefPattern
    snr_target: float
    replicates: int
    base_seed: int
    methods: Tuple[str, ...]
    gct_phi: float = 1.0

    def __post_init__(self) -> None:
        if not (self.n >= 1 and all(d >= 1 for d in self.d_grid)):
            raise ValueError(
                f"n and every d must be at least 1, got n={self.n}, "
                f"d_grid={list(self.d_grid)}"
            )
        _set_count(self, "n", 1)
        object.__setattr__(
            self,
            "d_grid",
            tuple(
                _count(f"ScenarioSpec.d_grid[{i}]", d, 1)
                for i, d in enumerate(self.d_grid)
            ),
        )
        _set_count(self, "base_seed", 0)
        if not 0 <= self.eigen_decay_a < math.inf:
            raise ValueError(
                "eigenvalue decay exponent must be finite and nonnegative, "
                f"got {self.eigen_decay_a!r}"
            )
        if type(self.coef_pattern) not in _KIND_OF_PATTERN:
            raise ValueError(f"unknown coefficient pattern {self.coef_pattern!r}")
        if not 0 < self.snr_target < math.inf:
            raise ValueError(
                f"target SNR must be finite and positive, got {self.snr_target!r}"
            )
        _set_count(self, "replicates", 1)
        if isinstance(self.methods, str):
            raise ValueError(
                f"methods must be a sequence of method names, got {self.methods!r}"
            )
        for method in self.methods:
            if method not in _METHODS:
                raise ValueError(f"unknown method {method!r}")
            tune, _ = _METHODS[method]
            if tune is not None and self.n < CV_FOLDS:
                raise ValueError(
                    f"method {method} needs n >= {CV_FOLDS} (its CV folds), "
                    f"got n={self.n}"
                )
        _check_phi(self.gct_phi)


@dataclass(frozen=True)
class ScenarioDraw:
    dataset: Dataset
    beta: FloatArray
    sigma_diag: FloatArray  # population covariance eigenvalues (U = I)
    sigma: float


def _seed_sequence(
    spec: ScenarioSpec, d: int, replicate: int, role: int
) -> np.random.SeedSequence:
    return np.random.SeedSequence([spec.base_seed, d, replicate, role])


def _stream(spec: ScenarioSpec, d: int, replicate: int, role: int) -> np.random.Generator:
    seq = _seed_sequence(spec, d, replicate, role)
    return np.random.Generator(np.random.Philox(seq))


def _coefficients(spec: ScenarioSpec, d: int, replicate: int) -> FloatArray:
    pattern = spec.coef_pattern
    if isinstance(pattern, PolyDecay):
        return np.arange(1, d + 1, dtype=np.float64) ** (-pattern.b)
    if isinstance(pattern, SpikedHead):
        beta = np.zeros(d)
        beta[: min(pattern.count, d)] = pattern.value
        return beta
    if isinstance(pattern, SpikedTailRandom):
        rng = _stream(spec, d, replicate, _ROLE_PATTERN)
        var = pattern.noise_var if pattern.noise_var is not None else 1.0 / d
        beta = rng.normal(0.0, math.sqrt(var), size=d)
        window = min(pattern.window, d)
        chosen = rng.choice(
            np.arange(d - window, d), size=min(pattern.count, window), replace=False
        )
        beta[chosen] = 1.0
        return beta
    # IsotropicGaussian, the last pattern ScenarioSpec accepts
    return _stream(spec, d, replicate, _ROLE_PATTERN).standard_normal(d)


def generate_scenario(spec: ScenarioSpec, d: int, replicate: int) -> ScenarioDraw:
    """Draw one replicate: covariance diag(j^{-a}), pattern coefficients,
    Gaussian covariates and noise, sigma matched to the target SNR."""
    lam = np.arange(1, d + 1, dtype=np.float64) ** (-spec.eigen_decay_a)
    beta = _coefficients(spec, d, replicate)
    signal = float(np.sum(lam * beta**2))
    if signal <= 0:
        raise ValueError("coefficient pattern produced a zero signal")
    sigma = math.sqrt(signal) / spec.snr_target

    X = _stream(spec, d, replicate, _ROLE_X).standard_normal((spec.n, d)) * np.sqrt(
        lam
    )
    eps = _stream(spec, d, replicate, _ROLE_NOISE).normal(0.0, sigma, size=spec.n)
    Y = X @ beta + eps
    return ScenarioDraw(
        dataset=Dataset(X, Y), beta=beta, sigma_diag=lam, sigma=sigma
    )


@dataclass(frozen=True)
class TableRow:
    method: str
    d: int
    n: int
    replicates: int
    median_rel_mse: float
    median_rel_pe: float
    scenario_hash: str


@dataclass(frozen=True)
class ExperimentTable:
    rows: Tuple[TableRow, ...]
    scenario_hash: str
    base_seed: int


def scenario_hash(spec: ScenarioSpec) -> str:
    payload = json.dumps(spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_experiment(spec: ScenarioSpec) -> ExperimentTable:
    """Run the full study and aggregate per-(method, d) median relative errors."""
    digest = scenario_hash(spec)
    rows: List[TableRow] = []
    for d in spec.d_grid:
        rel_mse: Dict[str, List[float]] = {m: [] for m in spec.methods}
        rel_pe: Dict[str, List[float]] = {m: [] for m in spec.methods}
        for replicate in range(spec.replicates):
            draw = generate_scenario(spec, d, replicate)
            X, beta = draw.dataset.design, draw.beta
            mse_trivial = float(np.sum((X @ beta) ** 2)) / spec.n
            pe_trivial = float(np.sum(draw.sigma_diag * beta**2))
            cv_seed = int(
                _seed_sequence(spec, d, replicate, _ROLE_CV).generate_state(1)[0]
            )
            for method in spec.methods:
                tune, fit = _METHODS[method]
                try:
                    tuned = () if tune is None else (tune(spec, draw.dataset, cv_seed),)
                    beta_hat = fit(draw.dataset, *tuned)
                except Exception as exc:
                    raise ExperimentError(
                        f"method {method} failed at d={d}, replicate={replicate}, "
                        f"cv_seed={cv_seed}"
                    ) from exc
                diff = beta_hat - beta
                mse = float(np.sum((X @ diff) ** 2)) / spec.n
                pe = float(np.sum(draw.sigma_diag * diff**2))
                rel_mse[method].append(mse / mse_trivial)
                rel_pe[method].append(pe / pe_trivial)
        for method in spec.methods:
            rows.append(
                TableRow(
                    method=method,
                    d=d,
                    n=spec.n,
                    replicates=spec.replicates,
                    median_rel_mse=float(np.median(rel_mse[method])),
                    median_rel_pe=float(np.median(rel_pe[method])),
                    scenario_hash=digest,
                )
            )
    rows.sort(key=lambda row: (row.method, row.d))
    return ExperimentTable(
        rows=tuple(rows), scenario_hash=digest, base_seed=spec.base_seed
    )


CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(TableRow))


def _coerce(hint: Any, value: Any) -> Any:
    """``value`` as the annotated type: float, int, str or Optional[float]."""
    if typing.get_origin(hint) is Union:
        if value is None:
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint(value)


def _from_fields(cls: Type[Any], data: Dict[str, Any]) -> Any:
    """An instance of the dataclass ``cls`` from ``data``, each field coerced
    to its annotation; an omitted field takes its default, or raises
    ``KeyError`` if it has none."""
    hints = typing.get_type_hints(cls)
    return cls(
        **{
            field.name: _coerce(hints[field.name], data[field.name])
            for field in dataclasses.fields(cls)
            if field.name in data or field.default is dataclasses.MISSING
        }
    )


def emit_table(table: ExperimentTable, path: str) -> None:
    """Write the long-format results CSV with deterministic row order.

    The csv module writes a float as its repr, so values read back exactly.
    The file is written whole or not at all; an unwritable path is a
    ``UsageError`` naming it.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(dataclasses.astuple(row) for row in table.rows)
    atomic_write(path, text.getvalue())


def parse_table(path: str) -> ExperimentTable:
    """Read back a results CSV written by emit_table."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"unexpected results CSV header in {path}")
        rows: List[TableRow] = [_from_fields(TableRow, record) for record in reader]
    digest = rows[0].scenario_hash if rows else ""
    return ExperimentTable(rows=tuple(rows), scenario_hash=digest, base_seed=0)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready form of a scenario, mirroring the field names; the pattern
    is its fields after its "kind" string."""
    data = dataclasses.asdict(spec)
    data["coef_pattern"] = {
        "kind": _KIND_OF_PATTERN[type(spec.coef_pattern)],
        **data["coef_pattern"],
    }
    return data


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Inverse of spec_to_dict; an omitted pattern field takes its default."""
    pattern_data = data["coef_pattern"]
    kind = pattern_data["kind"]
    if not isinstance(kind, str) or kind not in _PATTERN_OF_KIND:
        raise ValueError(f"unknown coefficient pattern kind {kind!r}")
    # a string reaches ScenarioSpec whole, to be rejected there, and so do
    # the counts, which int() would truncate
    methods = data["methods"]
    if not isinstance(methods, str):
        methods = tuple(methods)
    return ScenarioSpec(
        n=data["n"],
        d_grid=data["d_grid"],
        eigen_decay_a=float(data["eigen_decay_a"]),
        coef_pattern=_from_fields(_PATTERN_OF_KIND[kind], pattern_data),
        snr_target=float(data["snr_target"]),
        replicates=data["replicates"],
        base_seed=data["base_seed"],
        methods=methods,
        gct_phi=float(data.get("gct_phi", 1.0)),
    )
