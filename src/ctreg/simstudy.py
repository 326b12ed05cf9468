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
import functools
import statistics
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np
from numpy.typing import NDArray

from .canonical import Dataset
from .errors import ExperimentError, _integer, _real
from .estimators import GctConfig, fit_gct, fit_min_norm_ls, fit_pcr, fit_ridge
from .files import _from_fields, _json_float, _tagged, _to_fields, _to_tagged, atomic_write
from .thresholding import SOFT_RULE
from .tuning import kfold_cv, kfold_cv_pcr, kfold_cv_ridge

FloatArray = NDArray[np.float64]

CV_FOLDS = 10
RIDGE_GRID = np.logspace(-8, 2, 40)

_ROLE_X = 0
_ROLE_NOISE = 1
_ROLE_PATTERN = 2
_ROLE_CV = 3


@dataclass(frozen=True)
class PolyDecay:
    b: float

    def __post_init__(self) -> None:
        _real("PolyDecay.b", self.b, 0, math.inf, "[)")


@dataclass(frozen=True)
class SpikedHead:
    count: int
    value: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _integer("SpikedHead.count", self.count, 0))
        _real("SpikedHead.value", self.value, -math.inf, math.inf, "()")


@dataclass(frozen=True)
class SpikedTailRandom:
    count: int
    window: int
    noise_var: Optional[float] = None  # None: use 1/d

    def __post_init__(self) -> None:
        for field, least in (("count", 0), ("window", 1)):
            value = _integer(f"SpikedTailRandom.{field}", getattr(self, field), least)
            object.__setattr__(self, field, value)
        if self.noise_var is not None:
            _real("SpikedTailRandom.noise_var", self.noise_var, 0, math.inf, "[)")


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
        for field, least in (("n", 1), ("replicates", 1), ("base_seed", 0)):
            value = _integer(f"ScenarioSpec.{field}", getattr(self, field), least)
            object.__setattr__(self, field, value)
        for field in ("d_grid", "methods"):
            values = getattr(self, field)
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise ValueError(
                    f"ScenarioSpec.{field} must be a sequence, got {values!r}"
                )
            object.__setattr__(self, field, tuple(values))
        entries = enumerate(self.d_grid)
        d_grid = tuple(_integer(f"ScenarioSpec.d_grid[{i}]", d, 1) for i, d in entries)
        object.__setattr__(self, "d_grid", d_grid)
        _real("ScenarioSpec.eigen_decay_a", self.eigen_decay_a, 0, math.inf, "[)")
        if type(self.coef_pattern) not in _KIND_OF_PATTERN:
            raise ValueError(
                "ScenarioSpec.coef_pattern must be one of "
                f"{', '.join(cls.__name__ for cls in _KIND_OF_PATTERN)}, "
                f"got {self.coef_pattern!r}"
            )
        _real("ScenarioSpec.snr_target", self.snr_target, 0, math.inf, "()")
        for i, method in enumerate(self.methods):
            if method not in KNOWN_METHODS:
                raise ValueError(
                    f"ScenarioSpec.methods[{i}] must be one of "
                    f"{', '.join(KNOWN_METHODS)}, got {method!r}"
                )
            tune, _ = _METHODS[method]
            if tune is not None and self.n < CV_FOLDS:
                raise ValueError(
                    f"method {method} needs n >= {CV_FOLDS} (its CV folds), "
                    f"got n={self.n}"
                )
        _real("ScenarioSpec.gct_phi", self.gct_phi, 0, math.inf, "[)")


@dataclass(frozen=True, eq=False)
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
                    median_rel_mse=statistics.median(rel_mse[method]),
                    median_rel_pe=statistics.median(rel_pe[method]),
                    scenario_hash=digest,
                )
            )
    rows.sort(key=lambda row: (row.method, row.d))
    return ExperimentTable(
        rows=tuple(rows), scenario_hash=digest, base_seed=spec.base_seed
    )


CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(TableRow))


def _cell(kind: type, text: str, column: str) -> Any:
    """A results CSV cell as ``kind``; a cell that is not one names its column."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"column {column}: {exc}") from None


_CELLS = {kind: functools.partial(_cell, kind) for kind in (int, float)}


def _pattern_from_dict(block: Any, path: str) -> CoefPattern:
    what = "coefficient pattern kind"
    _, cls, fields = _tagged(block, "kind", _PATTERN_OF_KIND, f"{path}.", what)
    return _from_fields(cls, fields, _FROM_JSON, f"{path}.")


def _pattern_to_dict(pattern: CoefPattern) -> Dict[str, Any]:
    return _to_tagged("kind", _KIND_OF_PATTERN[type(pattern)], pattern, _TO_JSON)


# a scenario's number in a float field is written and read as a float (so
# b = 2 and b = 2.0 give one file, one spec and one hash), and its integers
# are read unconverted, to be checked by the dataclasses
_TO_JSON = {float: float, CoefPattern: _pattern_to_dict}
_FROM_JSON = {float: _json_float, CoefPattern: _pattern_from_dict}


def emit_table(table: ExperimentTable, path: str) -> None:
    """Write the long-format results CSV with deterministic row order.

    The csv module writes a float as its repr, so values read back exactly.
    The file is written whole or not at all; an unwritable path is a
    ``UsageError`` naming it.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_to_fields(TableRow, row, {}).values() for row in table.rows)
    atomic_write(path, text.getvalue())


def parse_table(path: str) -> ExperimentTable:
    """Read back a results CSV written by emit_table.  Blank lines are
    skipped, and a row with more or fewer cells than the header is a
    ``ValueError`` naming the file and the row (1 for the first row after
    the header), and so is a cell that is not of its column's type, with
    the column's name too."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected results CSV header in {path}")
        rows: List[TableRow] = []
        for number, cells in enumerate(reader, 1):
            if not cells:
                continue
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(
                    f"results CSV {path} row {number} has {len(cells)} cells, "
                    f"the header {len(CSV_COLUMNS)}"
                )
            try:
                rows.append(_from_fields(TableRow, dict(zip(CSV_COLUMNS, cells)), _CELLS))
            except ValueError as exc:
                raise ValueError(f"results CSV {path} row {number} {exc}") from None
    digest = rows[0].scenario_hash if rows else ""
    return ExperimentTable(rows=tuple(rows), scenario_hash=digest, base_seed=0)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready form of a scenario, mirroring the field names; the pattern
    is its fields after its "kind" string, and a float field is written as
    a float even when it holds an int."""
    return _to_fields(ScenarioSpec, spec, _TO_JSON)


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Inverse of spec_to_dict; an omitted field with a default takes it.

    The integers reach the dataclasses unconverted, to be checked there, as
    int() would truncate them; so do floats that are not JSON numbers.  A
    missing field raises KeyError with its key path (``coef_pattern.kind``)."""
    return _from_fields(ScenarioSpec, data, _FROM_JSON)
