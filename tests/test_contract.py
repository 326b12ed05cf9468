"""The library's argument contract (see ``ctreg.errors``).

Each public function in TABLE runs over small vocabularies of good and bad
values for its arguments.  A call returns, or raises ``ValueError`` (a
``CtregError`` is one) whose message starts with the name of an argument,
and a call with only good values returns.  A spy on ``eigh_factors``, the
one eigensolver, where ``canonical`` and ``kernel`` bind it, shows that no
rejected call decomposed anything, and the dataset's memo is left empty.
"""

import math
import re
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctreg import (
    HARD_RULE,
    SOFT_RULE,
    Dataset,
    GctConfig,
    KernelPredictor,
    KernelSpec,
    PolyDecay,
    ScenarioSpec,
    SpikedHead,
    SpikedTailRandom,
    apply_rule,
    breakpoints,
    canonical_ls,
    check_rule,
    cv_error_at,
    default_tau,
    effective_rank,
    fit_kernel_gct,
    fit_nct,
    fit_pcr,
    fit_ridge,
    fold_assignment,
    gram,
    grid_cv_oracle,
    hard,
    joint_cv,
    joint_effective_dimension,
    kernel_canonicalize,
    kernel_effective_dimension,
    kernel_in_sample_error,
    kfold_cv,
    kfold_cv_pcr,
    kfold_cv_ridge,
    mse_fixed,
    pe_random,
    predict,
    predict_kernel_batch,
    risk_bound,
    snr,
    soft,
    threshold_scale,
    to_beta,
    to_theta,
    weighted_risk_bound,
)
from ctreg import _blas, canonical, kernel

RNG = np.random.default_rng(20)
X = RNG.standard_normal((12, 5))
Y = X @ np.array([1.0, -1.0, 0.5, 0.0, 2.0]) + 0.3 * RNG.standard_normal(12)
Y_NAN = np.where(np.arange(12) == 4, math.nan, Y)
# made outside every call, so the table's calls that read a decomposition
# or a fit decompose nothing
DEC = canonical.canonicalize(Dataset(X, Y))
FIT = fit_nct(Dataset(X, Y), 0.1)
COEFFICIENTS = ([1.0, 0.0, 2.0, 0.5, -1.0],)
# every array vocabulary holds a non-finite entry, a wrong length, a wrong
# rank and text
BAD_COEFFICIENTS = (
    [1.0, math.nan, 2.0, 0.5, -1.0],
    [1.0, 0.0, 2.0, 0.5, -math.inf],
    np.ones(4),
    np.ones((5, 1)),
    "ab",
)
X_NAN = np.where(np.arange(5) == 2, math.nan, X)
X_BAD = (X_NAN, X[:, 0], X[None], "ab")
# a kernel matrix, and a model fitted outside every call, whose in-sample
# reads decompose nothing
RBF = KernelSpec("rbf", gamma=0.5)
K = gram(X, RBF)
K_BAD = (
    np.where(np.eye(12) > 0, math.nan, K),
    np.where(np.arange(12) == 3, math.inf, K),
    K[:5],
    K[0, 0],
    K + np.triu(np.ones((12, 12)), 1),
    K[None],
    "ab",
)
KERNEL_MODEL = fit_kernel_gct(X, Y, RBF, GctConfig(0.1))
ALPHA = KERNEL_MODEL.dual_coeffs
Y_BAD = (Y_NAN, np.where(np.arange(12) == 7, -math.inf, Y), Y[:11], Y[:, None], "ab")

BAD = ("a", None, math.nan, math.inf, -math.inf, 2.5, -1)
BAD_COUNTS = BAD + (3.0, "3", True, 13)  # 13 folds are more than the 12 rows
BAD_GRIDS = ([[0.0, 1.0]], [], "ab", 1.0, [0.0, None], [0.0, math.nan], [0.0, -1.0])
INF = math.inf


class Param(NamedTuple):
    good: Tuple[Any, ...]
    bad: Tuple[Any, ...]
    name: Optional[str] = None  # what its message starts with, if not its own name


def _spec(**fields):
    defaults = dict(
        n=20,
        d_grid=(5,),
        eigen_decay_a=2.0,
        coef_pattern=PolyDecay(2.0),
        snr_target=10.0,
        replicates=1,
        base_seed=0,
        methods=("Zero",),
        gct_phi=1.0,
    )
    return ScenarioSpec(**{**defaults, **fields})


SPLIT = {"L": Param((3, np.int64(4)), BAD_COUNTS), "seed": Param((0, 7), BAD_COUNTS)}
PHI = Param((0.0, 1.0, np.float64(2.0)), BAD)
RULE = Param((SOFT_RULE, HARD_RULE), ())
# soft, hard and apply_rule map components, so any shape is good
COMPONENTS = ([1.0, -2.0], 0.5, [], np.ones((2, 2)))
# predict and predict_kernel_batch do not scan their rows: a NaN is good
ROWS = Param((X, X[:3], X_NAN), (X[:, :4], X[0], X[None], "ab"))

# name -> (call(dataset, **arguments), {argument: Param})
TABLE: Dict[str, Tuple[Callable[..., Any], Dict[str, Param]]] = {
    "GctConfig": (
        lambda ds, tau, phi: GctConfig(tau, phi),
        {
            "tau": Param((0.0, 0.5, INF), BAD, "GctConfig.tau"),
            "phi": Param(PHI.good, BAD, "GctConfig.phi"),
        },
    ),
    "fit_nct": (
        lambda ds, tau: fit_nct(ds, tau),
        {"tau": Param((0.0, 0.3, INF), BAD, "GctConfig.tau")},
    ),
    "fit_pcr": (lambda ds, m: fit_pcr(ds, m), {"m": Param((0, 2, np.int64(5)), BAD_COUNTS)}),
    "fit_ridge": (
        lambda ds, lambda_reg: fit_ridge(ds, lambda_reg),
        {"lambda_reg": Param((0.0, 1.0, INF), BAD)},
    ),
    "default_tau": (
        lambda ds, **args: default_tau(**args),
        {
            "sigma": Param((0.0, 1.0), BAD),
            "n": Param((10, np.int64(5)), BAD_COUNTS),
            "r": Param((1, 3), BAD_COUNTS),
            "delta": Param((0.05,), BAD),
            "alpha": Param((1.0, 2.0), BAD),
            "phi": PHI,
            "lambda1": Param((1.0, 4.0), BAD),
        },
    ),
    "threshold_scale": (
        lambda ds, **args: threshold_scale(**args),
        {
            "n": Param((10,), BAD_COUNTS),
            "r": Param((3,), BAD_COUNTS),
            "delta": Param((0.05, 0.5), BAD),
            "alpha": Param((2.0,), BAD),
        },
    ),
    "Dataset": (
        lambda ds, **args: Dataset(**args),
        {
            "design": Param((X,), X_BAD + (X[:11], np.ones((0, 5)), np.ones((12, 0)))),
            "response": Param((Y,), Y_BAD),
        },
    ),
    "canonical_ls": (lambda ds, Y: canonical_ls(DEC, Y), {"Y": Param((Y,), Y_BAD)}),
    "to_beta": (
        lambda ds, theta: to_beta(DEC, theta),
        {"theta": Param(COEFFICIENTS, BAD_COEFFICIENTS)},
    ),
    "to_theta": (
        lambda ds, beta: to_theta(DEC, beta),
        {"beta": Param(COEFFICIENTS, BAD_COEFFICIENTS)},
    ),
    "predict": (lambda ds, Xnew: predict(FIT, Xnew), {"Xnew": ROWS}),
    "risk_bound": (
        lambda ds, **args: risk_bound(**args),
        {
            "theta": Param(([1.0, -0.5],), ([1.0, math.nan], [], [[1.0]], "ab")),
            "level": Param((0.5, 1.0), BAD),
        },
    ),
    "weighted_risk_bound": (
        lambda ds, **args: weighted_risk_bound(**args),
        {
            "theta": Param(([1.0, -0.5],), ([math.nan, 1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], "ab")),
            "eigenvalues": Param(
                ([2.0, 1.0],), ([math.inf, 1.0], [2.0], [[2.0, 1.0]], "ab", [1.0, 2.0])
            ),
            "level": Param((0.5,), BAD),
            "phi": PHI,
        },
    ),
    "snr": (
        lambda ds, **args: snr(**args),
        {
            "beta": Param(
                (np.ones(2),), ([1.0, math.nan], np.ones(3), np.ones((2, 2)), "ab")
            ),
            "covariance": Param(
                (np.eye(2),), (np.eye(3), np.ones(2), [[1.0, 0.0], [0.0, math.inf]], "ab")
            ),
            "sigma": Param((0.5, 2.0), BAD),
        },
    ),
    "effective_rank": (
        lambda ds, Sigma: effective_rank(Sigma),
        {
            "Sigma": Param(
                ([2.0, 1.0], np.eye(2)),
                (
                    [math.nan, 1.0],
                    [[1.0, math.inf]],
                    [],
                    np.ones((2, 3)),
                    np.ones((2, 2, 2)),
                    "ab",
                    np.zeros(2),
                ),
            )
        },
    ),
    "joint_effective_dimension": (
        lambda ds, **args: joint_effective_dimension(**args),
        {
            "theta_scaled": Param(
                ([0.5, 0.1],), ([0.5, math.nan], [-math.inf], [], [[0.5]], "ab")
            ),
            "theta_full_norm": Param((1.0,), BAD),
            "q": Param((0.0, 1.0, 2.0), BAD),
        },
    ),
    "pe_random": (
        lambda ds, **args: pe_random(**args),
        {
            "beta_hat": Param(COEFFICIENTS, BAD_COEFFICIENTS),
            "beta": Param((np.zeros(5),), BAD_COEFFICIENTS),
            "Sigma": Param(
                (np.eye(5),),
                (
                    np.eye(2),
                    np.ones(5),
                    [[1.0]],
                    np.where(np.eye(5) > 0, 1.0, math.nan),
                    "ab",
                    -np.eye(5),
                ),
            ),
        },
    ),
    "mse_fixed": (
        lambda ds, **args: mse_fixed(**args, dec=DEC),
        {
            "beta_hat": Param(COEFFICIENTS, BAD_COEFFICIENTS),
            "beta": Param((np.zeros(5),), BAD_COEFFICIENTS),
        },
    ),
    "soft": (
        lambda ds, z, tau: soft(z, tau),
        {"z": Param(COMPONENTS, ([math.nan], "ab")), "tau": Param((0.0, 1.0), BAD)},
    ),
    "hard": (
        lambda ds, z, tau: hard(z, tau),
        {"z": Param(COMPONENTS, ([math.inf], "ab")), "tau": Param((0.0, 1.0), BAD)},
    ),
    "apply_rule": (
        lambda ds, rule, v, tau: apply_rule(rule, v, tau),
        {
            "rule": RULE,
            "v": Param(COMPONENTS, ([1.0, math.nan], [[-math.inf]], "ab")),
            "tau": Param((0.0, 1.0, INF), BAD),
        },
    ),
    "check_rule": (
        lambda ds, **args: check_rule(SOFT_RULE, **args),
        {
            "tau_samples": Param(([0.0, 1.0],), BAD_GRIDS),
            "z_grid": Param((np.linspace(-2.0, 2.0, 5),), BAD_GRIDS),
        },
    ),
    "KernelSpec": (
        lambda ds, kind: KernelSpec(kind),
        {
            "kind": Param(
                ("linear", "rbf", "poly"), ("tree", ["rbf"], {"kind": "rbf"}, None, 1),
                "KernelSpec.kind",
            ),
        },
    ),
    "KernelSpec(rbf)": (
        lambda ds, gamma, degree: KernelSpec("rbf", gamma=gamma, degree=degree),
        {
            "gamma": Param((0.0, 0.5), BAD, "KernelSpec.gamma"),
            "degree": Param((2, np.int64(3)), BAD_COUNTS, "KernelSpec.degree"),
        },
    ),
    "KernelSpec(poly)": (
        lambda ds, degree, coef0, scale: KernelSpec("poly", 1.0, degree, coef0, scale),
        {
            "degree": Param((1, 3), BAD_COUNTS, "KernelSpec.degree"),
            "coef0": Param((0.0, -1.0), BAD[:5], "KernelSpec.coef0"),
            "scale": Param((0.5,), BAD, "KernelSpec.scale"),
        },
    ),
    "fit_kernel_gct": (
        lambda ds, points, Y, gamma, tau: fit_kernel_gct(
            points, Y, KernelSpec("rbf", gamma=gamma), GctConfig(tau)
        ),
        {
            "points": Param((X,), X_BAD),
            "Y": Param((Y,), Y_BAD),
            "gamma": Param((0.5,), BAD, "KernelSpec.gamma"),
            "tau": Param((0.0, 0.1), BAD, "GctConfig.tau"),
        },
    ),
    "gram": (lambda ds, points: gram(points, RBF), {"points": Param((X,), X_BAD)}),
    "predict_kernel_batch": (lambda ds, X: predict_kernel_batch(KERNEL_MODEL, X), {"X": ROWS}),
    # a predictor made by hand, as from a model file, then used
    "KernelPredictor": (
        lambda ds, **fields: predict_kernel_batch(KernelPredictor(kernel=RBF, **fields), X[:3]),
        {
            "training_points": Param(
                (X, X.tolist()), (X_NAN, X[:11], X[0], "ab"), "KernelPredictor.training_points"
            ),
            "dual_coeffs": Param(
                (ALPHA, ALPHA.tolist()),
                (np.where(np.arange(12) == 2, math.nan, ALPHA), ALPHA[:11], ALPHA[None], "ab"),
                "KernelPredictor.dual_coeffs",
            ),
            "response_mean": Param(
                (None, 0.5, np.float64(-1.0)),
                (math.nan, INF, -INF, "a"),
                "KernelPredictor.response_mean",
            ),
        },
    ),
    "kernel_canonicalize": (lambda ds, K: kernel_canonicalize(K), {"K": Param((K,), K_BAD)}),
    "kernel_effective_dimension": (
        lambda ds, **args: kernel_effective_dimension(**args),
        {
            "K": Param((K,), K_BAD),
            "f_values": Param((Y,), Y_BAD + (np.zeros(12),)),
            "q": Param((0.0, 1.0, 2.0), BAD),
        },
    ),
    "kernel_in_sample_error": (
        lambda ds, f_true_values: kernel_in_sample_error(KERNEL_MODEL, f_true_values),
        {"f_true_values": Param((Y,), Y_BAD)},
    ),
    "breakpoints": (
        lambda ds, **args: breakpoints(DEC, **args),
        {"theta_ls": Param(COEFFICIENTS, BAD_COEFFICIENTS + (np.ones(4),)), "phi": PHI},
    ),
    "fold_assignment": (
        lambda ds, **args: fold_assignment(**args),
        {"n": Param((12,), BAD_COUNTS[:-1]), **SPLIT},
    ),
    "kfold_cv": (
        lambda ds, **args: kfold_cv(ds, **args),
        {**SPLIT, "phi": PHI, "rule": RULE},
    ),
    "joint_cv": (
        lambda ds, **args: joint_cv(ds, **args),
        {**SPLIT, "phi_grid": Param(([0.0, 1.0], (2.0,)), BAD_GRIDS), "rule": RULE},
    ),
    "kfold_cv_pcr": (lambda ds, **args: kfold_cv_pcr(ds, **args), SPLIT),
    "kfold_cv_ridge": (
        lambda ds, **args: kfold_cv_ridge(ds, **args),
        {**SPLIT, "lambda_grid": Param(([0.1, 1.0], np.logspace(-2, 1, 4)), BAD_GRIDS)},
    ),
    "cv_error_at": (
        lambda ds, **args: cv_error_at(ds, **args),
        {**SPLIT, "phi": PHI, "rule": RULE, "tau": Param((0.0, 0.4, INF), BAD)},
    ),
    "grid_cv_oracle": (
        lambda ds, **args: grid_cv_oracle(ds, **args),
        {**SPLIT, "phi": PHI, "rule": RULE, "grid": Param(([0.0, 0.5, INF],), BAD_GRIDS)},
    ),
    "PolyDecay": (lambda ds, b: PolyDecay(b), {"b": Param((0.0, 2.0), BAD, "PolyDecay.b")}),
    "SpikedHead": (
        lambda ds, count, value: SpikedHead(count, value),
        {
            "count": Param((0, 3), BAD_COUNTS, "SpikedHead.count"),
            "value": Param((1.0, -2.0), BAD[:5], "SpikedHead.value"),
        },
    ),
    "SpikedTailRandom": (
        lambda ds, count, window, noise_var: SpikedTailRandom(count, window, noise_var),
        {
            "count": Param((0, 2), BAD_COUNTS, "SpikedTailRandom.count"),
            "window": Param((1, 4), BAD_COUNTS, "SpikedTailRandom.window"),
            "noise_var": Param((None, 0.0, 0.1), BAD[:1] + BAD[2:], "SpikedTailRandom.noise_var"),
        },
    ),
    "ScenarioSpec": (
        lambda ds, **fields: _spec(**fields),
        {
            "n": Param((20,), BAD_COUNTS, "ScenarioSpec.n"),
            "d_grid": Param(((5,), [5, 8], ()), BAD + ((None,), (5.5,), [[5]]), "ScenarioSpec.d_grid"),
            "eigen_decay_a": Param((0.0, 2.0), BAD, "ScenarioSpec.eigen_decay_a"),
            "snr_target": Param((10.0,), BAD, "ScenarioSpec.snr_target"),
            "replicates": Param((1, 3), BAD_COUNTS, "ScenarioSpec.replicates"),
            "base_seed": Param((0, 9), BAD_COUNTS, "ScenarioSpec.base_seed"),
            "methods": Param((("Zero", "OLS"),), ("OLS", None, [["OLS"]]), "ScenarioSpec.methods"),
            "gct_phi": Param((0.0, 1.0), BAD, "ScenarioSpec.gct_phi"),
        },
    ),
}


def case(name: str, **arguments: Any) -> Tuple[str, Dict[str, Any]]:
    """A call of TABLE[name], each argument not given at its first good value."""
    params = TABLE[name][1]
    return name, {arg: arguments.get(arg, param.good[0]) for arg, param in params.items()}


# every case once probed to end in a TypeError, in numpy's message, in an
# accepted value or in a rejection after the folds were decomposed
PROBED = [
    case("fit_ridge", lambda_reg="a"),
    case("cv_error_at", tau="a"),
    case("soft", tau="a"),
    case("risk_bound", level="a"),
    case("weighted_risk_bound", level="a"),
    case("snr", sigma="a"),
    case("threshold_scale", delta="a"),
    case("default_tau", sigma="a"),
    case("PolyDecay", b="a"),
    case("ScenarioSpec", n="20"),
    case("ScenarioSpec", d_grid=(None,)),
    case("joint_cv", phi_grid=np.array([[0.0, 1.0]])),
    case("threshold_scale", n=2.5),
    case("default_tau", n=2.5),
    case("snr", sigma=math.nan),
    case("effective_rank", Sigma=[math.nan, 1.0]),
    case("weighted_risk_bound", theta=[math.nan, 1.0]),
    case("KernelSpec(poly)", degree=2.0),
    case("PolyDecay", b=math.nan),
    case("SpikedTailRandom", noise_var=-1),
    case("pe_random", Sigma=np.eye(2)),
    case("joint_cv", phi_grid="ab"),
    case("kfold_cv", phi=-1),
    case("joint_cv", L=4, phi_grid=[0, -1]),
    case("cv_error_at", tau=-1),
    # the split and grid cases, each checked before any fold is decomposed
    case("fold_assignment", L=2.5),
    case("fold_assignment", L=3.0),
    case("fold_assignment", seed=-1),
    case("kfold_cv", L="3"),
    case("kfold_cv_pcr", seed=1.5),
    case("kfold_cv_ridge", lambda_grid=[[1.0, 2.0]]),
    case("kfold_cv_ridge", lambda_grid=[1.0, -1.0]),
    case("grid_cv_oracle", grid=[[1.0], [2.0]]),
    case("grid_cv_oracle", grid=[0.0, math.nan]),
]
# probed later, each under its own id, so the ids pytest numbers above stay
NAMED_PROBES = {
    "pe_random(Sigma=nan)": case("pe_random", Sigma=np.where(np.eye(5) > 0, 1.0, math.nan)),
    "pe_random(beta_hat=nan)": case("pe_random", beta_hat=BAD_COEFFICIENTS[0]),
    "pe_random(beta=-inf)": case("pe_random", beta=BAD_COEFFICIENTS[1]),
    "mse_fixed(beta_hat=nan)": case("mse_fixed", beta_hat=BAD_COEFFICIENTS[0]),
    "mse_fixed(beta=-inf)": case("mse_fixed", beta=BAD_COEFFICIENTS[1]),
    "fit_pcr(m=13)": case("fit_pcr", m=13),
    # once accepted, or rejected only by LAPACK, by numpy's message or by an IndexError
    "kernel_canonicalize(K=nan)": case("kernel_canonicalize", K=K_BAD[0]),
    "kernel_canonicalize(K=inf)": case("kernel_canonicalize", K=K_BAD[1]),
    "kernel_canonicalize(K=K[0, 0])": case("kernel_canonicalize", K=K_BAD[3]),
    "kernel_effective_dimension(f_values=nan)": case(
        "kernel_effective_dimension", f_values=Y_NAN
    ),
    "kernel_in_sample_error(f_true_values=nan)": case(
        "kernel_in_sample_error", f_true_values=Y_NAN
    ),
    "breakpoints(phi=-1)": case("breakpoints", phi=-1),
    "breakpoints(theta_ls=nan)": case("breakpoints", theta_ls=BAD_COEFFICIENTS[0]),
    "snr(beta=nan)": case("snr", beta=np.array([1.0, math.nan])),
    "joint_effective_dimension(theta_scaled=nan)": case(
        "joint_effective_dimension", theta_scaled=[0.5, math.nan]
    ),
    # shape errors, each once named for the wrong argument or for neither
    "mse_fixed(beta_hat=ones(3), beta=zeros(4))": case(
        "mse_fixed", beta_hat=np.ones(3), beta=np.zeros(4)
    ),
    "mse_fixed(beta=zeros(4))": case("mse_fixed", beta=np.zeros(4)),
    "pe_random(beta_hat=ones((2, 2)), beta=zeros((2, 2)))": case(
        "pe_random", beta_hat=np.ones((2, 2)), beta=np.zeros((2, 2)), Sigma=np.eye(2)
    ),
    "pe_random(beta=zeros(4))": case("pe_random", beta=np.zeros(4)),
    "snr(covariance=eye(3))": case("snr", covariance=np.eye(3)),
    "breakpoints(theta_ls=ones(4))": case("breakpoints", theta_ls=np.ones(4)),
    # once NaN results, a RuntimeWarning, numpy's message or a message in
    # another form
    "canonical_ls(Y=nan)": case("canonical_ls", Y=Y_NAN),
    "to_beta(theta=nan)": case("to_beta", theta=[math.nan] * 5),
    "to_theta(beta=inf)": case("to_theta", beta=[math.inf] * 5),
    "weighted_risk_bound(eigenvalues=inf)": case(
        "weighted_risk_bound", theta=[1, 2], eigenvalues=[math.inf, 1], phi=1
    ),
    "risk_bound(theta='ab')": case("risk_bound", theta="ab", level=1),
    "pe_random(beta_hat='ab')": case("pe_random", beta_hat="ab"),
    "kernel_canonicalize(K='ab')": case("kernel_canonicalize", K="ab"),
    "snr(beta=ragged)": case("snr", beta=[[1.0], [1.0, 2.0]]),
    "apply_rule(v=nan)": case("apply_rule", rule=HARD_RULE, v=[math.nan, 1.0], tau=0.5),
    "effective_rank(Sigma=ones((2, 2, 2)))": case("effective_rank", Sigma=np.ones((2, 2, 2))),
    "weighted_risk_bound(theta=[1, 2, 3])": case(
        "weighted_risk_bound", theta=[1, 2, 3], phi=0
    ),
    "Dataset(response=Y[:11])": case("Dataset", response=Y[:11]),
    "canonical_ls(Y=Y[:11])": case("canonical_ls", Y=Y[:11]),
    "to_beta(theta=ones(4))": case("to_beta", theta=np.ones(4)),
    "to_theta(beta=ones((5, 1)))": case("to_theta", beta=np.ones((5, 1))),
    "predict(Xnew=ones(5))": case("predict", Xnew=np.ones(5)),
    "predict_kernel_batch(X=ones(5))": case("predict_kernel_batch", X=np.ones(5)),
    "gram(points=X[0])": case("gram", points=X[0]),
    "fit_kernel_gct(Y=Y[:11])": case("fit_kernel_gct", Y=Y[:11]),
    "kernel_effective_dimension(f_values=Y[:11])": case(
        "kernel_effective_dimension", f_values=Y[:11], q=1
    ),
    "kernel_in_sample_error(f_true_values=Y[:11])": case(
        "kernel_in_sample_error", f_true_values=Y[:11]
    ),
    "kernel_canonicalize(K=K[:5])": case("kernel_canonicalize", K=K[:5]),
    "risk_bound(theta=ones((2, 2)))": case("risk_bound", theta=np.ones((2, 2))),
    "joint_effective_dimension(theta_scaled=[[0.5]])": case(
        "joint_effective_dimension", theta_scaled=[[0.5]]
    ),
    # once a numpy matmul message, a NaN prediction or an accepted value
    "KernelPredictor(dual_coeffs=ALPHA[:11])": case("KernelPredictor", dual_coeffs=ALPHA[:11]),
    "KernelPredictor(response_mean=nan)": case("KernelPredictor", response_mean=math.nan),
    "KernelSpec(rbf, degree=2.5)": case("KernelSpec(rbf)", degree=2.5),
    # once a TypeError, or a message not naming the field
    "KernelSpec(kind=['rbf'])": case("KernelSpec", kind=["rbf"]),
    "KernelSpec(kind={'kind': 'rbf'})": case("KernelSpec", kind={"kind": "rbf"}),
    "KernelSpec(kind='tree')": case("KernelSpec", kind="tree"),
    # once a message with no value or not naming the argument
    "effective_rank(Sigma=zeros(2))": case("effective_rank", Sigma=np.zeros(2)),
    "pe_random(Sigma=-eye(5))": case("pe_random", Sigma=-np.eye(5)),
    "weighted_risk_bound(eigenvalues=[1, 2])": case(
        "weighted_risk_bound", eigenvalues=[1.0, 2.0]
    ),
    "kernel_effective_dimension(f_values=zeros(12))": case(
        "kernel_effective_dimension", f_values=np.zeros(12)
    ),
}
# the argument that each shape probe's message must name
SHAPE_PROBES = {
    "mse_fixed(beta_hat=ones(3), beta=zeros(4))": "beta_hat",
    "mse_fixed(beta=zeros(4))": "beta",
    "pe_random(beta_hat=ones((2, 2)), beta=zeros((2, 2)))": "beta_hat",
    "pe_random(beta=zeros(4))": "beta",
    "snr(covariance=eye(3))": "covariance",
    "breakpoints(theta_ls=ones(4))": "theta_ls",
    "weighted_risk_bound(theta=[1, 2, 3])": "eigenvalues",
    "effective_rank(Sigma=ones((2, 2, 2)))": "Sigma",
    "Dataset(response=Y[:11])": "response",
    "canonical_ls(Y=Y[:11])": "Y",
    "to_beta(theta=ones(4))": "theta",
    "to_theta(beta=ones((5, 1)))": "beta",
    "predict(Xnew=ones(5))": "Xnew",
    "predict_kernel_batch(X=ones(5))": "X",
    "gram(points=X[0])": "points",
    "fit_kernel_gct(Y=Y[:11])": "Y",
    "kernel_effective_dimension(f_values=Y[:11])": "f_values",
    "kernel_in_sample_error(f_true_values=Y[:11])": "f_true_values",
    "kernel_canonicalize(K=K[:5])": "K",
    "risk_bound(theta=ones((2, 2)))": "theta",
    "joint_effective_dimension(theta_scaled=[[0.5]])": "theta_scaled",
    "KernelPredictor(dual_coeffs=ALPHA[:11])": "KernelPredictor.dual_coeffs",
}
# the argument that each other array probe's message must name: a
# non-finite entry, or a value numpy cannot read as floats
ARRAY_PROBES = {
    "canonical_ls(Y=nan)": "Y",
    "to_beta(theta=nan)": "theta",
    "to_theta(beta=inf)": "beta",
    "weighted_risk_bound(eigenvalues=inf)": "eigenvalues",
    "risk_bound(theta='ab')": "theta",
    "pe_random(beta_hat='ab')": "beta_hat",
    "kernel_canonicalize(K='ab')": "K",
    "snr(beta=ragged)": "beta",
    "apply_rule(v=nan)": "v",
}
# the argument that each value probe's message must name, before the value
VALUE_PROBES = {
    "KernelPredictor(response_mean=nan)": "KernelPredictor.response_mean",
    "KernelSpec(rbf, degree=2.5)": "KernelSpec.degree",
    "KernelSpec(kind=['rbf'])": "KernelSpec.kind",
    "KernelSpec(kind={'kind': 'rbf'})": "KernelSpec.kind",
    "KernelSpec(kind='tree')": "KernelSpec.kind",
    "effective_rank(Sigma=zeros(2))": "Sigma",
    "pe_random(Sigma=-eye(5))": "Sigma",
    "weighted_risk_bound(eigenvalues=[1, 2])": "eigenvalues",
    "kernel_effective_dimension(f_values=zeros(12))": "f_values",
}
# good values once rejected by an error other than ValueError
RETURNING_PROBES = {
    "KernelPredictor(training_points=list)": case("KernelPredictor", training_points=X.tolist()),
}
PROBES = PROBED + list(NAMED_PROBES.values())
PROBE_IDS = [name for name, _ in PROBED] + list(NAMED_PROBES)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(TABLE)))
    params = TABLE[name][1]
    return name, {
        arg: draw(st.sampled_from(param.good + param.bad)) for arg, param in params.items()
    }


def run(name: str, arguments: Dict[str, Any]) -> Tuple[Optional[str], int, Dataset]:
    """(the ValueError's message or None, the spectral-core calls, the dataset)."""
    call = TABLE[name][0]
    dataset = Dataset(X, Y)
    spy = mock.Mock(side_effect=_blas.eigh_factors)
    with mock.patch.object(canonical, "eigh_factors", spy), mock.patch.object(
        kernel, "eigh_factors", spy
    ):
        try:
            call(dataset, **arguments)
        except ValueError as exc:
            return str(exc), spy.call_count, dataset
    return None, spy.call_count, dataset


def check_contract(name: str, arguments: Dict[str, Any]) -> Optional[str]:
    message, decompositions, dataset = run(name, arguments)
    params = TABLE[name][1]
    if all(any(value is good for good in params[arg].good) for arg, value in arguments.items()):
        assert message is None, (name, arguments, message)
    if message is not None:
        names = "|".join(re.escape(param.name or arg) for arg, param in params.items())
        assert re.match(rf"({names})(\[\d+\])? must be ", message), (name, message)
        if message.startswith("m must be at most the rank"):
            return message  # the one bound that only the decomposition gives
        assert decompositions == 0, (name, arguments, message)
        assert dataset._memo == {}, (name, arguments, message)
    return message


def with_probed_examples(test):
    for name, arguments in PROBES:
        test = example(case=(name, arguments))(test)
    return test


class TestArgumentContract:
    @settings(max_examples=400, deadline=None)
    @given(case=cases())
    @with_probed_examples
    def test_returns_or_names_the_bad_argument_before_decomposing(self, case):
        check_contract(*case)

    @pytest.mark.parametrize("name, arguments", PROBES, ids=PROBE_IDS)
    def test_each_probed_case_is_rejected(self, name, arguments):
        assert check_contract(name, arguments) is not None

    @pytest.mark.parametrize("probe", SHAPE_PROBES)
    def test_shape_errors_name_their_own_argument(self, probe):
        message = check_contract(*NAMED_PROBES[probe])
        assert message.startswith(f"{SHAPE_PROBES[probe]} must be of shape ("), message

    @pytest.mark.parametrize("probe", ARRAY_PROBES)
    def test_array_errors_name_their_own_argument(self, probe):
        message = check_contract(*NAMED_PROBES[probe])
        assert re.match(rf"{ARRAY_PROBES[probe]} must be (finite|a real array), ", message)

    @pytest.mark.parametrize("probe", VALUE_PROBES)
    def test_value_errors_name_their_argument_and_value(self, probe):
        message = check_contract(*NAMED_PROBES[probe])
        assert re.match(rf"{re.escape(VALUE_PROBES[probe])} must be .+, got \S", message)

    @pytest.mark.parametrize("probe", RETURNING_PROBES)
    def test_each_returning_probe_returns(self, probe):
        assert check_contract(*RETURNING_PROBES[probe]) is None

    def test_good_values_return(self):
        # the first good value of every argument, and each other good value
        for name, (_, params) in TABLE.items():
            for arg, param in params.items():
                for value in param.good:
                    assert check_contract(*case(name, **{arg: value})) is None
