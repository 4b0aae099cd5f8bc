import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stuckwalk import linsys
from stuckwalk.errors import IdentityError, Infeasible, RegimeError
from stuckwalk.spectrum import alpha_threshold, classify, omega


def interval_alphas(L, n):
    """n interior alpha values in (alpha_{L+1}, alpha_L)."""
    lo = alpha_threshold(L + 1)
    hi = alpha_threshold(L) if L > 1 else 3.0
    return np.linspace(lo, hi, n + 2)[1:-1]


# ------------------------------------------------------------ solve_closed


def test_closed_K0_alpha2():
    s = linsys.solve_closed(0, 2.0)
    assert s.l == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)
    assert s.d0 == pytest.approx(-1.0, abs=1e-12)
    assert s.dK1 == pytest.approx(1.0, abs=1e-12)


def test_closed_K1_alpha2():
    s = linsys.solve_closed(1, 2.0)
    assert s.l == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-14)
    assert s.d0 == pytest.approx(0.5, abs=1e-12)
    assert s.dK1 == pytest.approx(-0.5, abs=1e-12)


def test_closed_K2_alpha08():
    # symmetric solve: l1 = 1/(3+a), l2 = (1+a)/(3+a)
    s = linsys.solve_closed(2, 0.8)
    assert s.l == pytest.approx(
        (0.0, 0.263158, 0.473684, 0.263158, 0.0), abs=1e-6)
    assert s.d0 == pytest.approx(0.115789, abs=1e-6)


def test_closed_regime_error():
    # alpha=2 has L=1, so closed form covers K <= 2 only
    with pytest.raises(RegimeError):
        linsys.solve_closed(3, 2.0)


def test_closed_symmetry_and_d01():
    for L in range(1, 9):
        for alpha in interval_alphas(L, 5):
            for K in range(0, L + 2):
                s = linsys.solve_closed(K, alpha)
                l = np.asarray(s.l)
                assert np.max(np.abs(l - l[::-1])) < 1e-12
                assert abs(s.d0 + s.dK1) < 1e-12
                assert np.all(l[1:K + 2] > 0)
                # interior streams vanish
                assert np.max(np.abs(linsys.interior_streams(l, alpha))) \
                    < 1e-10 if K else True


def numpy_interior_streams(l, alpha):
    """interior_streams as one numpy expression over the whole vector."""
    l = np.asarray(l, dtype=float)
    return -alpha * l[:-3] + l[1:-2] - l[2:-1] + alpha * l[3:]


@given(l=st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=40),
       alpha=st.floats(min_value=0.3, max_value=5.0, exclude_min=True,
                       exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_interior_streams_match_numpy_bit_for_bit(l, alpha):
    want = repr(numpy_interior_streams(l, alpha).tolist())
    assert repr(linsys.interior_streams(l, alpha)) == want
    floats = [x / 3.0 for x in l]
    assert repr(linsys.interior_streams(floats, alpha)) == \
        repr(numpy_interior_streams(floats, alpha).tolist())


# ------------------------------------------------------------ solve_direct


def test_direct_matches_closed():
    s1 = linsys.solve_closed(1, 2.0)
    s2 = linsys.solve_direct(1, 2.0, 0.0)
    assert np.max(np.abs(np.asarray(s1.l) - np.asarray(s2.l))) < 1e-10


def test_direct_K2_alpha2_prescribed_tail():
    s = linsys.solve_direct(2, 2.0, 0.25)
    assert s.l == pytest.approx((0.0, 0.5, 0.5, 0.0, 0.25), abs=1e-12)
    # residuals of the defining equations
    l = np.asarray(s.l)
    assert abs(l[0]) < 1e-12
    assert abs(l[1:4].sum() - 1.0) < 1e-12
    assert np.max(np.abs(linsys.interior_streams(l, 2.0))) < 1e-12


def test_direct_nonunique_resonant():
    # (K+2) omega = 2 pi at K=9 when omega = 2 pi / 11
    alpha = 1.0 / (1.0 + 2.0 * math.cos(2.0 * math.pi / 11.0))
    assert omega(alpha) == pytest.approx(2.0 * math.pi / 11.0, abs=1e-12)
    s = linsys.solve_direct(9, alpha, 0.0)
    assert not s.unique


def test_direct_unique_flag_generic():
    assert linsys.solve_direct(4, 2.0, 0.1).unique


def test_direct_infeasible_prescription():
    # at alpha=2 the K=3 square system is singular, and a nonzero
    # prescribed l_5 = 0.1 is inconsistent with it
    with pytest.raises(Infeasible):
        linsys.solve_direct(3, 2.0, 0.1)


# ------------------------------------------------------------ solve_affine


def test_affine_zero_d_equals_closed():
    a = linsys.solve_affine(1, 2.0, [0.0])
    c = linsys.solve_closed(1, 2.0)
    assert np.max(np.abs(np.asarray(a.l) - np.asarray(c.l))) < 1e-12
    assert a.dL1 == pytest.approx(-0.5, abs=1e-12)


def test_affine_L1_alpha2_example():
    a = linsys.solve_affine(1, 2.0, [0.2])
    assert a.l == pytest.approx((0.0, 0.6, 0.4, 0.0), abs=1e-12)
    assert a.dL1 == pytest.approx(-0.8, abs=1e-12)
    assert a.c == pytest.approx((1.5,), abs=1e-12)
    # dL1 = -d0(L) - c1 d1
    assert a.dL1 == pytest.approx(-0.5 - 1.5 * 0.2, abs=1e-12)


def test_affine_regime_error():
    with pytest.raises(RegimeError):
        linsys.solve_affine(2, 2.0, [0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=9),
       st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=5,
                max_size=5))
def test_affine_reconstruction_identities(L, ai, d_raw):
    alpha = float(interval_alphas(L, 10)[ai])
    d_in = d_raw[:L]
    base = linsys.solve_affine(L, alpha, [0.0] * L)
    sol = linsys.solve_affine(L, alpha, d_in)
    d0L = base.d0
    assert sol.dL1 == pytest.approx(
        -d0L - sum(c * d for c, d in zip(sol.c, d_in)), abs=1e-9)
    assert sol.d0 == pytest.approx(
        d0L - sum(sol.c[L - k] * d_in[k - 1] for k in range(1, L + 1)),
        abs=1e-9)
    assert all(c > 0 for c in sol.c)


def test_solution_family_is_shared_and_read_only():
    # memoized per (K, alpha): a caller writing into the arrays would
    # change every later caller's family
    x0, v = linsys.solution_family(4, 2.0)
    again = linsys.solution_family(4, 2.0)
    assert again[0] is x0 and again[1] is v
    for arr in (x0, v):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# ------------------------------------------------------------ c_oracle


def test_c_oracle_spot_values():
    assert linsys.c_oracle(1, 2.0) == pytest.approx(0.5, abs=1e-10)
    assert linsys.c_oracle(2, 2.0) == pytest.approx(0.5, abs=1e-10)


def test_c_oracle_regime_error_below_L():
    # K must be >= L
    with pytest.raises(RegimeError):
        linsys.c_oracle(1, 0.8)  # L=2


def test_c_oracle_positive_on_grid():
    for L in range(1, 5):
        for alpha in interval_alphas(L, 4):
            for K in range(L, L + 5):
                try:
                    c = linsys.c_oracle(K, alpha)
                except Infeasible:
                    continue
                assert c > 0.0


# ------------------------------------------------------------ stream_gap


def test_stream_gap_closed_form_K1():
    s = linsys.solve_closed(1, 2.0)
    assert linsys.stream_gap(1, 2.0, s) == pytest.approx(-1.0, abs=1e-10)


def test_stream_gap_K2_alpha2_endpoint():
    s = linsys.solve_direct(2, 2.0, 0.0)
    # the t=0 endpoint of the K=2 family is (0, .2, .6, .2, 0) only when
    # picked by the oracle; the direct solution is the symmetric one, but
    # the gap value is the same affine function evaluated there
    gap = linsys.stream_gap(2, 2.0, s)
    assert gap <= -linsys.c_oracle(2, 2.0) + 1e-9


def test_stream_gap_identity_random_family():
    rng = np.random.default_rng(7)
    for L, K in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]:
        alpha = float(interval_alphas(L, 3)[1])
        for _ in range(20):
            t = rng.uniform(-0.3, 0.3)
            sol = linsys.family_point(K, alpha, t)
            # stream_gap raises IdentityError if the trigonometric
            # identity fails beyond 1e-10
            linsys.stream_gap(K, alpha, sol)


def test_stream_gap_regime_error():
    s = linsys.solve_closed(1, 0.8)
    with pytest.raises(RegimeError):
        linsys.stream_gap(1, 0.8, s)  # K=1 < L=2


# ------------------------------------------------------------ sign_scan


def test_sign_scan_alpha2():
    rows = {r.K: r for r in linsys.sign_scan(2.0, 4)}
    assert rows[0].d0_sign == "-" and rows[0].dK1_sign == "+"
    assert rows[1].d0_sign == "+" and rows[1].dK1_sign == "-"
    assert rows[2].d0_sign == "+" and rows[2].dK1_sign == "-"


def test_sign_scan_alpha08_K1_negative():
    rows = {r.K: r for r in linsys.sign_scan(0.8, 4)}
    assert rows[1].d0_sign == "-"  # K < L


def test_sign_scan_prop_signs_grid():
    for L in range(1, 6):
        for alpha in interval_alphas(L, 3):
            rows = {r.K: r for r in linsys.sign_scan(float(alpha), L + 1)}
            for K in range(0, L):
                assert rows[K].d0_max < -1e-9
                assert rows[K].dK1_min > 1e-9
            for K in (L, L + 1):
                assert rows[K].d0_min > 1e-9
                assert rows[K].dK1_max < -1e-9
