"""Tests for the thresholding rules and the validity checker."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ctreg import (
    HARD_RULE,
    SOFT_RULE,
    RuleKind,
    ThresholdRule,
    apply_rule,
    check_rule,
    hard,
    soft,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonneg = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSoft:
    def test_zero_input(self):
        assert soft(0.0, 1.0) == 0.0

    def test_above_threshold(self):
        assert soft(2.0, 0.5) == pytest.approx(1.5)

    def test_below_threshold(self):
        assert soft(-0.3, 0.5) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            soft(1.0, -0.1)
        with pytest.raises(ValueError):
            soft(math.nan, 1.0)
        with pytest.raises(ValueError):
            soft(1.0, math.inf)


class TestHard:
    def test_above_threshold(self):
        assert hard(2.0, 0.5) == 2.0

    def test_below_threshold(self):
        assert hard(0.4, 0.5) == 0.0

    def test_boundary_kept(self):
        assert hard(-1.0, 1.0) == -1.0


class TestRuleConstruction:
    def test_custom_requires_fn_and_constant(self):
        with pytest.raises(ValueError):
            ThresholdRule(RuleKind.CUSTOM)
        with pytest.raises(ValueError):
            ThresholdRule(RuleKind.SOFT, custom_fn=soft)

    def test_builtin_constant(self):
        assert SOFT_RULE.constant == 3.0
        assert HARD_RULE.constant == 3.0

    def test_custom_constant(self):
        rule = ThresholdRule(RuleKind.CUSTOM, custom_fn=soft, custom_constant=5.0)
        assert rule.constant == 5.0


class TestApplyRule:
    def test_soft_componentwise(self):
        out = apply_rule(SOFT_RULE, np.array([3.0, -1.0, 0.2]), 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0])

    def test_hard_at_zero_is_identity(self):
        v = np.array([3.0, -1.0, 0.2, 0.0])
        np.testing.assert_array_equal(apply_rule(HARD_RULE, v, 0.0), v)

    def test_custom_equal_to_soft_matches(self):
        # component-wise for v of any shape, as the soft rule is
        rule = ThresholdRule(RuleKind.CUSTOM, custom_fn=soft, custom_constant=3.0)
        for shape in [(20,), (4, 5), ()]:
            v = np.random.default_rng(0).standard_normal(shape)
            np.testing.assert_array_equal(
                apply_rule(rule, v, 0.7), apply_rule(SOFT_RULE, v, 0.7)
            )

    def test_infinite_tau_sentinel(self):
        v = np.array([5.0, -2.0])
        np.testing.assert_array_equal(apply_rule(SOFT_RULE, v, math.inf), [0.0, 0.0])
        np.testing.assert_array_equal(apply_rule(HARD_RULE, v, math.inf), [0.0, 0.0])


class TestCheckRule:
    def test_soft_valid(self):
        report = check_rule(
            SOFT_RULE, np.array([0.1, 1.0, 10.0]), np.arange(-20, 20, 0.01)
        )
        assert report.valid and report.worst_violation == 0.0

    def test_hard_valid(self):
        report = check_rule(
            HARD_RULE, np.array([0.1, 1.0, 10.0]), np.arange(-20, 20, 0.01)
        )
        assert report.valid

    def test_shift_rule_invalid(self):
        rule = ThresholdRule(
            RuleKind.CUSTOM,
            custom_fn=lambda z, tau: z + 2.0 * tau,
            custom_constant=3.0,
        )
        report = check_rule(rule, np.array([1.0]), np.arange(-5, 5, 0.1))
        assert not report.valid
        assert report.worst_violation >= 1.0  # |T[z] - z| = 2 tau, excess tau

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_rule(SOFT_RULE, np.array([]), np.array([1.0]))


class TestScalarProperties:
    @given(z=finite, tau=nonneg, c=st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_equivariance(self, z, tau, c):
        assert soft(c * z, c * tau) == pytest.approx(c * soft(z, tau), rel=1e-9, abs=1e-12)
        assert hard(c * z, c * tau) == pytest.approx(c * hard(z, tau), rel=1e-9, abs=1e-12)

    @given(z=finite, tau=nonneg)
    def test_odd_symmetry(self, z, tau):
        assert soft(-z, tau) == -soft(z, tau)
        assert hard(-z, tau) == -hard(z, tau)

    @given(z=finite, tau=nonneg)
    def test_shrinkage(self, z, tau):
        assert abs(soft(z, tau)) <= abs(z)
        assert abs(hard(z, tau)) <= abs(z)

    @given(z=finite, tau1=nonneg, tau2=nonneg)
    def test_soft_monotone_in_tau(self, z, tau1, tau2):
        lo, hi = sorted((tau1, tau2))
        assert abs(soft(z, lo)) >= abs(soft(z, hi))

    @given(z=finite, tau=nonneg)
    def test_within_tau_of_identity(self, z, tau):
        slack = 1e-12 * max(1.0, abs(z), tau)
        assert abs(soft(z, tau) - z) <= tau + slack
        assert abs(hard(z, tau) - z) <= tau + slack


class TestOneForm:
    """soft and hard are the component-wise maps that apply_rule dispatches to."""

    @given(v=arrays(np.float64, st.integers(0, 20), elements=finite), tau=nonneg)
    def test_array_form_matches_apply_rule_and_each_element(self, v, tau):
        for fn, rule in ((soft, SOFT_RULE), (hard, HARD_RULE)):
            out = fn(v, tau)
            np.testing.assert_array_equal(out, apply_rule(rule, v, tau))
            np.testing.assert_array_equal(out, [fn(z, tau) for z in v])

    def test_infinite_tau_only_a_sentinel_in_apply_rule(self):
        v = np.array([5.0, -2.0, 0.0])
        for fn, rule in ((soft, SOFT_RULE), (hard, HARD_RULE)):
            with pytest.raises(ValueError):
                fn(1.0, math.inf)
            with pytest.raises(ValueError):
                check_rule(rule, np.array([1.0, math.inf]), v)
            np.testing.assert_array_equal(apply_rule(rule, v, math.inf), np.zeros(3))
