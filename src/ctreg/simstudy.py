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
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from .canonical import Dataset
from .estimators import GctConfig, fit_gct, fit_min_norm_ls, fit_pcr, fit_ridge
from .thresholding import SOFT_RULE
from .tuning import kfold_cv, kfold_cv_pcr, kfold_cv_ridge

FloatArray = NDArray[np.float64]

CV_FOLDS = 10
RIDGE_GRID = np.logspace(-8, 2, 40)

_ROLE_X = 0
_ROLE_NOISE = 1
_ROLE_PATTERN = 2


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


@dataclass(frozen=True)
class SpikedTailRandom:
    count: int
    window: int
    noise_var: Optional[float] = None  # None: use 1/d


@dataclass(frozen=True)
class IsotropicGaussian:
    pass


CoefPattern = Union[PolyDecay, SpikedHead, SpikedTailRandom, IsotropicGaussian]

KNOWN_METHODS = ("NCT-CV", "GCT-CV", "PCR-CV", "OLS", "Ridge-CV", "Zero")


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
        if self.eigen_decay_a < 0:
            raise ValueError("eigenvalue decay exponent must be nonnegative")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.snr_target <= 0:
            raise ValueError("target SNR must be positive")
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ScenarioDraw:
    dataset: Dataset
    beta: FloatArray
    sigma_diag: FloatArray  # population covariance eigenvalues (U = I)
    sigma: float


def _stream(spec: ScenarioSpec, d: int, replicate: int, role: int) -> np.random.Generator:
    seq = np.random.SeedSequence([spec.base_seed, d, replicate, role])
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
    if isinstance(pattern, IsotropicGaussian):
        rng = _stream(spec, d, replicate, _ROLE_PATTERN)
        return rng.standard_normal(d)
    raise TypeError(f"unknown coefficient pattern {pattern!r}")


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


def _fit_method(
    method: str, spec: ScenarioSpec, dataset: Dataset, cv_seed: int
) -> FloatArray:
    """One method's estimate: the public tuner with the replicate's CV seed,
    then the matching fit_*.  The tuners share the fold spectra and the fits
    share the decomposition through the dataset's memo."""
    if method == "Zero":
        return np.zeros(dataset.d)
    if method == "OLS":
        return fit_min_norm_ls(dataset).beta
    if method in ("NCT-CV", "GCT-CV"):
        phi = 0.0 if method == "NCT-CV" else spec.gct_phi
        tau = kfold_cv(dataset, CV_FOLDS, phi, SOFT_RULE, cv_seed).tau_cv
        return fit_gct(dataset, GctConfig(tau=tau, phi=phi)).beta
    if method == "PCR-CV":
        m, _ = kfold_cv_pcr(dataset, CV_FOLDS, cv_seed)
        return fit_pcr(dataset, m).beta
    if method == "Ridge-CV":
        lam, _ = kfold_cv_ridge(dataset, CV_FOLDS, RIDGE_GRID, cv_seed)
        return fit_ridge(dataset, lam).beta
    raise ValueError(f"unknown method {method!r}")


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
                np.random.SeedSequence(
                    [spec.base_seed, d, replicate, 3]
                ).generate_state(1)[0]
            )
            for method in spec.methods:
                try:
                    beta_hat = _fit_method(method, spec, draw.dataset, cv_seed)
                except Exception as exc:
                    raise RuntimeError(
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


CSV_COLUMNS = (
    "method",
    "d",
    "n",
    "replicates",
    "median_rel_mse",
    "median_rel_pe",
    "scenario_hash",
)


def emit_table(table: ExperimentTable, path: str) -> None:
    """Write the long-format results CSV with deterministic row order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in table.rows:
            writer.writerow(
                [
                    row.method,
                    row.d,
                    row.n,
                    row.replicates,
                    repr(row.median_rel_mse),
                    repr(row.median_rel_pe),
                    row.scenario_hash,
                ]
            )


def parse_table(path: str) -> ExperimentTable:
    """Read back a results CSV written by emit_table."""
    rows: List[TableRow] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"unexpected results CSV header in {path}")
        for record in reader:
            rows.append(
                TableRow(
                    method=record["method"],
                    d=int(record["d"]),
                    n=int(record["n"]),
                    replicates=int(record["replicates"]),
                    median_rel_mse=float(record["median_rel_mse"]),
                    median_rel_pe=float(record["median_rel_pe"]),
                    scenario_hash=record["scenario_hash"],
                )
            )
    digest = rows[0].scenario_hash if rows else ""
    return ExperimentTable(rows=tuple(rows), scenario_hash=digest, base_seed=0)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready form of a scenario, mirroring the field names."""
    pattern: dict
    if isinstance(spec.coef_pattern, PolyDecay):
        pattern = {"kind": "poly-decay", "b": spec.coef_pattern.b}
    elif isinstance(spec.coef_pattern, SpikedHead):
        pattern = {
            "kind": "spiked-head",
            "count": spec.coef_pattern.count,
            "value": spec.coef_pattern.value,
        }
    elif isinstance(spec.coef_pattern, SpikedTailRandom):
        pattern = {
            "kind": "spiked-tail-random",
            "count": spec.coef_pattern.count,
            "window": spec.coef_pattern.window,
            "noise_var": spec.coef_pattern.noise_var,
        }
    else:
        pattern = {"kind": "isotropic-gaussian"}
    return {
        "n": spec.n,
        "d_grid": list(spec.d_grid),
        "eigen_decay_a": spec.eigen_decay_a,
        "coef_pattern": pattern,
        "snr_target": spec.snr_target,
        "replicates": spec.replicates,
        "base_seed": spec.base_seed,
        "methods": list(spec.methods),
        "gct_phi": spec.gct_phi,
    }


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Inverse of spec_to_dict."""
    pattern_data = data["coef_pattern"]
    kind = pattern_data["kind"]
    pattern: CoefPattern
    if kind == "poly-decay":
        pattern = PolyDecay(b=float(pattern_data["b"]))
    elif kind == "spiked-head":
        pattern = SpikedHead(
            count=int(pattern_data["count"]),
            value=float(pattern_data.get("value", 1.0)),
        )
    elif kind == "spiked-tail-random":
        noise_var = pattern_data.get("noise_var")
        pattern = SpikedTailRandom(
            count=int(pattern_data["count"]),
            window=int(pattern_data["window"]),
            noise_var=None if noise_var is None else float(noise_var),
        )
    elif kind == "isotropic-gaussian":
        pattern = IsotropicGaussian()
    else:
        raise ValueError(f"unknown coefficient pattern kind {kind!r}")
    return ScenarioSpec(
        n=int(data["n"]),
        d_grid=tuple(int(d) for d in data["d_grid"]),
        eigen_decay_a=float(data["eigen_decay_a"]),
        coef_pattern=pattern,
        snr_target=float(data["snr_target"]),
        replicates=int(data["replicates"]),
        base_seed=int(data["base_seed"]),
        methods=tuple(data["methods"]),
        gct_phi=float(data.get("gct_phi", 1.0)),
    )
