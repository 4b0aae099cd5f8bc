import math

import pytest
from hypothesis import given, strategies as st

from stuckwalk.errors import CriticalValue, DomainError
from stuckwalk.spectrum import Params, alpha_threshold, classify, omega


def test_threshold_L1_is_infinite():
    assert alpha_threshold(1) == math.inf


def test_threshold_L2_is_one():
    assert alpha_threshold(2) == pytest.approx(1.0, abs=1e-15)


def test_threshold_L3_golden():
    # 1/(1 + 2 cos(2 pi / 5)) = golden ratio - 1
    assert alpha_threshold(3) == pytest.approx(0.6180339887498949, abs=1e-15)


def test_threshold_L4_is_half():
    # cos(pi/3) = 1/2 exactly
    assert alpha_threshold(4) == pytest.approx(0.5, abs=1e-15)


def test_thresholds_strictly_decreasing_to_one_third():
    vals = [alpha_threshold(L) for L in range(2, 65)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1 / 3 for v in vals)
    assert vals[-1] < 0.34


def test_threshold_rejects_bad_L():
    with pytest.raises(ValueError):
        alpha_threshold(0)


def test_omega_alpha_one():
    assert omega(1.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_omega_alpha_two():
    assert omega(2.0) == pytest.approx(1.823477, abs=1e-6)


def test_omega_boundary_raises():
    with pytest.raises(DomainError):
        omega(1 / 3)
    with pytest.raises(DomainError):
        omega(0.2)


def test_classify_examples():
    assert classify(2.0) == 1
    assert classify(0.8) == 2


def test_classify_critical_value():
    with pytest.raises(CriticalValue):
        classify(1.0)
    with pytest.raises(CriticalValue):
        classify(alpha_threshold(3))


def test_classify_near_one_third_raises():
    with pytest.raises(DomainError):
        classify(1 / 3 + 1e-12)


@given(st.floats(min_value=1 / 3 + 1e-3, max_value=10.0))
def test_classify_omega_window_consistency(alpha):
    try:
        L = classify(alpha)
    except CriticalValue:
        return
    w = omega(alpha)
    assert 2 * math.pi / (L + 3) < w < 2 * math.pi / (L + 2)
    # round trip against the thresholds themselves
    assert alpha_threshold(L + 1) < alpha < alpha_threshold(L)


@given(st.floats(min_value=0.4, max_value=5.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_params_invariants(alpha, beta):
    try:
        p = Params.make(alpha, beta)
    except CriticalValue:
        return
    assert math.cos(p.omega) == pytest.approx((1 - alpha) / (2 * alpha),
                                              abs=1e-12)
    assert 2 * math.pi / (p.L + 3) < p.omega < 2 * math.pi / (p.L + 2)


def test_params_rejects_nonpositive_beta():
    with pytest.raises(DomainError):
        Params.make(2.0, 0.0)


@pytest.mark.parametrize("alpha,beta", [(2.0, 1e308), (1e308, 1.0)])
def test_params_rejects_overflowing_scale(alpha, beta):
    # 2 beta x 2(1+alpha) would be inf, and 2 beta x 0 a NaN in the step
    # probability at Delta = 0
    with pytest.raises(DomainError, match="overflowing"):
        Params.make(alpha, beta)
