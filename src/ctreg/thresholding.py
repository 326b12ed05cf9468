"""Thresholding rules and a grid-based validity checker.

A valid rule T_tau must (i) satisfy |T_tau[z]| <= c|z'| for all z, z' with
|z - z'| <= tau/2 and a rule-specific constant c, and (ii) stay within tau
of the identity.  Soft and hard thresholding satisfy both with c = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike, NDArray

FloatArray = NDArray[np.float64]


def _check_threshold(tau: float) -> None:
    """Raise ValueError unless tau is a finite nonnegative real."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"threshold must be a finite nonnegative real, got {tau!r}")


def _validate(z: ArrayLike, tau: float) -> FloatArray:
    _check_threshold(tau)
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return z


def soft(z: ArrayLike, tau: float) -> FloatArray:
    """Soft thresholding, component-wise: sign(z) * max(|z| - tau, 0)."""
    z = _validate(z, tau)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def hard(z: ArrayLike, tau: float) -> FloatArray:
    """Hard thresholding, component-wise: z where |z| >= tau, else 0 (boundary kept)."""
    z = _validate(z, tau)
    return np.where(np.abs(z) >= tau, z, 0.0)


class RuleKind(Enum):
    SOFT = "soft"
    HARD = "hard"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ThresholdRule:
    """A generalized thresholding rule.

    For CUSTOM rules the caller supplies the scalar map and the constant c
    of the boundedness condition (it is rule-specific and cannot be
    inferred).
    """

    kind: RuleKind = RuleKind.SOFT
    custom_fn: Optional[Callable[[float, float], float]] = None
    custom_constant: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is RuleKind.CUSTOM:
            if self.custom_fn is None or self.custom_constant is None:
                raise ValueError(
                    "custom rules require custom_fn and custom_constant"
                )
        elif self.custom_fn is not None:
            raise ValueError("custom_fn only applies to custom rules")

    @property
    def constant(self) -> float:
        if self.kind is RuleKind.CUSTOM:
            assert self.custom_constant is not None
            return self.custom_constant
        return 3.0


SOFT_RULE = ThresholdRule(RuleKind.SOFT)
HARD_RULE = ThresholdRule(RuleKind.HARD)


def apply_rule(rule: ThresholdRule, v: FloatArray, tau: float) -> FloatArray:
    """Apply a thresholding rule component-wise.

    Infinite tau is accepted as a sentinel meaning "threshold everything"
    for the soft and hard rules.  A custom rule's map is called once per
    component.
    """
    v = np.asarray(v, dtype=np.float64)
    if math.isinf(tau) and tau > 0 and rule.kind is not RuleKind.CUSTOM:
        return np.zeros_like(v)
    if rule.kind is RuleKind.SOFT:
        return soft(v, tau)
    if rule.kind is RuleKind.HARD:
        return hard(v, tau)
    assert rule.custom_fn is not None
    return np.array([rule.custom_fn(z, tau) for z in v], dtype=np.float64)


@dataclass(frozen=True)
class RuleReport:
    valid: bool
    worst_violation: float


def check_rule(
    rule: ThresholdRule, tau_samples: FloatArray, z_grid: FloatArray
) -> RuleReport:
    """Check rule validity on sampled (tau, z, z') combinations.

    The conditions quantify over all reals, so this is necessarily a grid
    check; density is caller-controlled.  Returns the maximal violation of
    either condition (0 for rules valid on the grid).  Violations within
    1e-12 times the working scale max(1, max|z|, max tau) are rounded to
    zero so exact rules are not flagged for floating-point cancellation
    error.
    """
    tau_samples = np.asarray(tau_samples, dtype=np.float64)
    z_grid = np.asarray(z_grid, dtype=np.float64)
    if tau_samples.size == 0 or z_grid.size == 0:
        raise ValueError("nonempty grids required")
    if not np.all(np.isfinite(tau_samples)):
        raise ValueError("threshold samples must be finite")

    c = rule.constant
    scale = max(1.0, float(np.max(np.abs(z_grid))), float(np.max(tau_samples)))
    worst = 0.0
    for tau in tau_samples:
        tz = apply_rule(rule, z_grid, float(tau))
        # condition (ii): |T[z] - z| <= tau
        worst = max(worst, float(np.max(np.abs(tz - z_grid)) - tau))
        # condition (i): |T[z]| <= c |z'| whenever |z - z'| <= tau/2;
        # the binding z' is the one closest to zero, |z'| = max(|z| - tau/2, 0)
        zmin = np.maximum(np.abs(z_grid) - tau / 2.0, 0.0)
        worst = max(worst, float(np.max(np.abs(tz) - c * zmin)))
    if worst <= 1e-12 * scale:
        worst = 0.0
    return RuleReport(valid=worst == 0.0, worst_violation=worst)
