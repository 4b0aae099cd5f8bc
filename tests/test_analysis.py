import math

import pytest
from hypothesis import given, settings, strategies as st

from stuckwalk import analysis, walk
from stuckwalk.errors import NoTheory, TooShort
from stuckwalk.spectrum import Params

P21 = Params.make(2.0, 1.0)
P081 = Params.make(0.8, 1.0)


def oscillating_trajectory(sites, total=2000, params=P21):
    """Ramp out to sites[0], then cycle across `sites` forever."""
    lo = sites[0]
    ramp = list(range(0, lo + (1 if lo >= 0 else -1), 1 if lo >= 0 else -1))
    cycle = list(sites) + list(sites[-2:0:-1])  # e.g. 5,6,7,6
    positions = ramp[:]
    i = 0
    while len(positions) < total + 1:
        nxt = cycle[(i + 1) % len(cycle)]
        positions.append(nxt)
        i += 1
    return walk.Trajectory(positions=positions, params=params)


def test_detect_oscillation_three_sites():
    traj = oscillating_trajectory([5, 6, 7])
    s = analysis.detect_localization(traj, 0.5)
    assert s.window == (5, 7)
    assert s.size == 3
    assert s.localized


def test_detect_zigzag():
    positions = [0, 1] * 1000
    positions = [positions[i % 2] for i in range(2001)]
    traj = walk.Trajectory(positions=positions, params=P21)
    s = analysis.detect_localization(traj, 0.5)
    assert s.window == (0, 1)
    assert s.localized
    assert s.profile == [1.0]


def test_detect_too_short():
    traj = walk.Trajectory(positions=[0, 1] * 100, params=P21)
    with pytest.raises(TooShort):
        analysis.detect_localization(traj, 0.5)


def test_detect_alpha2_typical_run():
    traj = walk.simulate(P21, 100000, seed=12)
    s = analysis.detect_localization(traj, 0.5)
    assert s.localized
    assert s.size == 3


def test_profile_sums_to_one():
    traj = walk.simulate(P21, 50000, seed=3)
    s = analysis.detect_localization(traj, 0.5)
    assert sum(s.profile) == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= p <= 1.0 for p in s.profile)
    # window inside final range
    assert s.range_final[0] <= s.window[0] <= s.window[1] <= s.range_final[1]


@given(st.integers(min_value=-50, max_value=50))
@settings(max_examples=15, deadline=None)
def test_detect_translation_invariance(shift):
    base = walk.simulate(P21, 5000, seed=21)
    s0 = analysis.detect_localization(base, 0.5)
    shifted = walk.Trajectory(
        positions=[p + shift for p in base.positions], params=P21)
    s1 = analysis.detect_localization(shifted, 0.5)
    assert s1.window == (s0.window[0] + shift, s0.window[1] + shift)
    assert s1.profile == s0.profile
    assert s1.localized == s0.localized


# ------------------------------------------------------------ compare


def test_compare_profile_exact_target_zero_deviation():
    traj = oscillating_trajectory([5, 6, 7])
    s = analysis.detect_localization(traj, 0.5)
    # symmetric cycle gives exactly the alpha=2, K=1 target (0.5, 0.5)
    analysis.compare_profile(s, P21)
    assert s.deviation == pytest.approx(0.0, abs=1e-9)


def test_compare_profile_K2_target():
    from stuckwalk.linsys import solve_closed

    target = solve_closed(2, 0.8).l[1:4]
    assert target == pytest.approx((0.26316, 0.47368, 0.26316), abs=1e-5)
    s = analysis.RunSummary(
        window=(0, 3), size=4, localized=True, profile=list(target),
        deviation=float("nan"), stream_rate={}, range_final=(0, 3))
    analysis.compare_profile(s, P081)
    assert s.deviation == pytest.approx(0.0, abs=1e-12)


def test_compare_profile_no_theory():
    s = analysis.RunSummary(
        window=(0, 5), size=6, localized=True, profile=[0.2] * 5,
        deviation=float("nan"), stream_rate={}, range_final=(0, 5))
    with pytest.raises(NoTheory):
        analysis.compare_profile(s, P21)  # size-2 = 4 > L+1 = 2


# ------------------------------------------------------------ stream decay


def test_stream_decay_interior_small():
    # |Delta_k(j)|/k at the interior sites of the window, as criterion 8
    # reads it, after 1e4 and 1e5 steps
    for steps in (10000, 100000):
        traj = walk.simulate(P21, steps, seed=12)
        s = analysis.detect_localization(traj)
        assert s.localized and s.stream_rate
        assert all(rate < 0.05 for rate in s.stream_rate.values())


# ------------------------------------------------------------ batch stats


def _summary(size, localized=True, deviation=0.01):
    return analysis.RunSummary(
        window=(0, size - 1), size=size, localized=localized,
        profile=[1.0 / (size - 1)] * (size - 1), deviation=deviation,
        stream_rate={}, range_final=(0, size - 1))


def test_batch_stats_degenerate():
    agg = analysis.batch_stats([_summary(3)] * 10, P21)
    assert agg.size_histogram == {3: 10}
    assert agg.frac_L2 == 1.0
    assert agg.frac_L3 == 0.0
    assert agg.mean_deviation == pytest.approx(0.01)


def test_batch_stats_mixed():
    summaries = [_summary(3)] * 8 + [_summary(4)] * 1 + \
        [_summary(7, localized=False)] * 1
    agg = analysis.batch_stats(summaries, P21)
    assert sum(agg.size_histogram.values()) == 10
    assert agg.frac_L2 == 0.8
    assert agg.frac_L3 == 0.1
    assert 0.0 <= agg.ci_L2[0] <= 0.8 <= agg.ci_L2[1] <= 1.0


def test_batch_stats_empty_raises():
    with pytest.raises(ValueError):
        analysis.batch_stats([], P21)


def test_wilson_interval_basic():
    lo, hi = analysis.wilson_interval(95, 100)
    assert lo < 0.95 < hi
    assert analysis.wilson_interval(0, 0) == (0.0, 1.0)
