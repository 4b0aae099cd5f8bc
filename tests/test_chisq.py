import math
from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from stuckwalk import chisq, rubin
from stuckwalk.spectrum import Params

special = pytest.importorskip("scipy.special")


def _regime(df, x):
    """The branch of ``igamc(df/2, x/2)`` that answers, from its
    thresholds; the series and the fraction add their prefactor's
    branch in ``igam_fac``."""
    a, x = df / 2.0, x / 2.0
    if not (x > 0 and a > 0 and math.isfinite(a) and math.isfinite(x)):
        return "special"
    ratio = abs(x - a) / a
    if (20 < a < 200 and ratio < 0.3) or (a > 200
                                          and ratio < 4.5 / math.sqrt(a)):
        return "asymptotic"
    if x > 1.1:
        kind = "igam_series" if x < a else "igamc_cf"
    elif x <= 0.5:
        kind = "igam_series" if -0.4 / math.log(x) < a else "igamc_series"
    else:
        kind = "igam_series" if x * 1.1 < a else "igamc_series"
    if kind == "igamc_series":
        return kind
    if abs(a - x) > 0.4 * a:
        return kind + "/lgam"
    return kind + ("/lanczos" if a < 200 and x < 200 else "/lanczos_big")


def _grid():
    """Seeded (df, x) pairs over every regime."""
    rng = np.random.default_rng(20260826)
    n = 40000
    a = 10 ** rng.uniform(-3, 4, n)
    near = a * np.exp(rng.normal(0.0, 0.4, n))
    x = np.where(rng.random(n) < 0.7, near, 10 ** rng.uniform(-4, 4, n))
    df = np.where(rng.random(n) < 0.3, np.round(2 * a), 2 * a)
    # negative, zero, infinite and NaN arguments against finite ones
    edges = (-1.0, 0.0, 0.5, 2.0, 1e300, math.inf, math.nan)
    pairs = [(d, v) for d in edges for v in edges]
    for v, w in (10 ** rng.uniform(-3, 4, (150, 2))).tolist():
        pairs += [(v, -w), (-v, w), (0.0, w), (v, 0.0), (math.inf, w),
                  (v, math.inf), (math.nan, w), (v, math.nan)]
    return list(zip(df.tolist(), (2 * x).tolist())) + pairs


def test_chdtrc_matches_scipy_bit_for_bit_in_every_regime():
    hits, mismatches = Counter(), []
    for df, x in _grid():
        regime = _regime(df, x)
        hits[regime] += 1
        ours, theirs = chisq.chdtrc(df, x), float(special.chdtrc(df, x))
        if ours != theirs and not (math.isnan(ours) and math.isnan(theirs)):
            mismatches.append((regime, df, x, ours, theirs))
    assert mismatches == []
    assert set(hits) == {"special", "asymptotic", "igamc_series"} | {
        f"{kind}/{fac}" for kind in ("igam_series", "igamc_cf")
        for fac in ("lgam", "lanczos", "lanczos_big")}
    assert min(hits.values()) >= 1000, hits


@pytest.mark.parametrize("runs, horizon, cells", [(4, 3, 0), (6, 1, 1)])
def test_equivalence_report_with_fewer_than_two_cells(runs, horizon, cells):
    # no pooled cell is df -1, one cell df 0 with a zero statistic: scipy
    # and the port both give NaN, which the pass rule refuses
    rep = rubin.equivalence_report(Params.make(2.0, 1.0), horizon, runs, 5)
    assert rep["cells"] == cells and rep["chi2_stat"] == 0.0
    assert math.isnan(rep["chi2_pvalue"])
    assert math.isnan(special.chdtrc(cells - 1, rep["chi2_stat"]))
    assert not rubin.equivalence_pass(rep)


def _temme_d(K=25, N=25):
    """Temme's d[k][n] of DLMF 8.12.12, exactly: the recursion of scipy's
    ``special/_precompute/gammainc_asy.py`` in rationals."""
    M = N + 2 * K
    # DLMF 5.11.6: a_k = c_k sqrt(2)^(k+1) with c_k rational
    c = [Fraction(1, 2)]
    for k in range(1, 2 * K):
        ck = c[-1] / k - 2 * sum(c[j] * c[k - j] / (j + 1)
                                 for j in range(1, k))
        c.append(ck / (2 * c[0] * (1 + Fraction(1, k + 1))))
    # DLMF 5.11.3/5.11.5: g_k = sqrt(2) (1/2)_k a_{2k}
    g, rising = [], Fraction(1)
    for k in range(K):
        g.append(rising * c[2 * k] * 2 ** (k + 1))
        rising *= Fraction(1, 2) + k
    # eta(l) = l sqrt(s(l)), s(l) = 2 (l - log(1 + l)) / l^2
    n = M + 2
    s = [Fraction(2 * (-1) ** j, j + 2) for j in range(n)]
    q = [Fraction(1)]
    for m in range(1, n):
        q.append((s[m] - sum(q[i] * q[m - i] for i in range(1, m))) / 2)
    # alpha (DLMF 8.12.13) inverts eta: alpha_k = [l^(k-1)] h^k / k with
    # h = l / eta(l) = 1 / sqrt(s), both series cut after n - 1 terms
    h = [1 / q[0]]
    for m in range(1, n):
        h.append(-sum(q[i] * h[m - i] for i in range(1, min(m, n - 2) + 1))
                 / q[0])
    alpha, power = [Fraction(0)], [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        power = [sum(power[i] * h[m - i] for i in range(m + 1))
                 for m in range(n)]
        alpha.append(power[k - 1] / k)
    d0 = [Fraction(-1, 3)] + [(m + 2) * alpha[m + 2] for m in range(1, M)]
    d = [d0]
    for k in range(1, K):
        d.append([(-1) ** k * g[k] * d0[m] + (m + 2) * d[k - 1][m + 2]
                  for m in range(M - 2 * k)])
    return [row[:N] for row in d]


def test_temme_table_is_the_exact_recursion_at_17_digits():
    digits = Context(prec=17)
    table = [[float(digits.divide(Decimal(v.numerator),
                                  Decimal(v.denominator))) for v in row]
             for row in _temme_d()]
    assert table[0][0] == -1 / 3
    assert [list(row) for row in chisq.TEMME_D] == table
