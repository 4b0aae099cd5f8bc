import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stuckwalk import analysis, walk
from stuckwalk.errors import NoTheory, TooShort
from stuckwalk.linsys import solve_closed
from stuckwalk.spectrum import Params, alpha_threshold

import oracles

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
    assert s1.range_final == (s0.range_final[0] + shift,
                              s0.range_final[1] + shift)
    assert s1.profile == s0.profile
    assert s1.localized == s0.localized


@pytest.mark.parametrize("positions, step", [
    ([0, 2] + [1, 2] * 1000, 1),            # a step of +2 first
    ([5, 6, 7, 7] + [6, 7] * 1000, 3),      # a step of 0, shifted start
    ([0, 1] * 1000 + [0, -3], 2001),        # a step of -3 last
])
def test_replay_rejects_malformed_path(positions, step):
    # a path that does not move by +-1 is no walk: its replay fails at
    # the first bad step instead of counting a window from it
    traj = walk.Trajectory(positions=positions, params=P21)
    with pytest.raises(ValueError, match=f"path step {step} goes from"):
        analysis.detect_localization(traj, 0.5)


def drifting_path(seed, legs):
    """X_0 = 0 and then, for each (steps, p) of ``legs``, that many +-1
    steps that go right with probability p; padded to MIN_TRAJECTORY
    steps with a fair leg."""
    rnd = random.Random(seed)
    short = analysis.MIN_TRAJECTORY - sum(n for n, _ in legs)
    positions = [0]
    for n, p in legs + [(max(0, short), 0.5)]:
        for _ in range(n):
            positions.append(positions[-1] + (1 if rnd.random() < p else -1))
    return positions


def recount_summary(positions, params, tail_fraction):
    """The tail summary recounted from the path: visits and window from a
    Counter over the tail positions, crossings from max(X_m, X_m+1), the
    streams from ``oracles.recount_local_times``."""
    steps = len(positions) - 1
    t0 = steps - int(steps * tail_fraction)
    visits = Counter(positions[t0:])
    a, b = min(visits), max(visits)
    size = b - a + 1
    threshold = (steps - t0) / (analysis.SUSTAIN_DIVISOR * size)
    crossed = Counter(max(x, y) for x, y in zip(positions[t0:],
                                                positions[t0 + 1:]))
    inner = [crossed[j] for j in range(a + 1, b + 1)]
    lt = Counter(oracles.recount_local_times(positions))
    al = params.alpha
    rates = {j: abs(-al * lt[j - 1] + lt[j] - lt[j + 1] + al * lt[j + 2])
             / steps for j in range(a + 1, b)}
    deviation = float("nan")
    K = size - 2
    if K <= params.L + 1:
        target = np.asarray(solve_closed(K, al).l[1:K + 2])
        deviation = float(np.max(np.abs(np.asarray(inner) / sum(inner)
                                        - target)))
    return {"window": (a, b), "size": size,
            "localized": all(visits[j] >= threshold
                             for j in range(a, b + 1)),
            "profile": [c / sum(inner) for c in inner],
            "stream_rate": rates, "deviation": deviation,
            "range_final": (min(positions), max(positions))}


LEGS = st.lists(st.tuples(st.integers(min_value=1, max_value=1500),
                          st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0])),
                min_size=1, max_size=5)


@given(seed=st.integers(min_value=0, max_value=2 ** 32), legs=LEGS,
       params=st.sampled_from([P21, P081, Params.make(0.45, 0.2)]),
       tail_fraction=st.sampled_from([0.5, 0.3, 0.9, 0.001]))
@example(seed=1, legs=[(600, 1.0), (900, 0.0)], params=P21,
         tail_fraction=0.5)                 # 901 sites, tail to the left end
@example(seed=2, legs=[(700, 0.0), (700, 0.97)], params=P081,
         tail_fraction=0.5)                 # tail from the left end of 700
@example(seed=3, legs=[(200, 0.5), (900, 0.03)], params=P081,
         tail_fraction=0.3)                 # tail at the end of the range
@example(seed=4, legs=[(1200, 0.5)], params=P21, tail_fraction=0.001)
@settings(max_examples=80, deadline=None)
def test_summary_matches_path_recount(seed, legs, params, tail_fraction):
    # random +-1 paths, with the path kept and path-free from their two
    # stops, against a recount from scratch; floats compare by repr
    positions = drifting_path(seed, legs)
    steps = len(positions) - 1
    t0 = analysis.tail_start(steps, tail_fraction)
    want = recount_summary(positions, params, tail_fraction)
    replayed = walk.Trajectory(positions=positions, params=params)
    path_free = walk.Trajectory(
        positions=None, params=params, steps=steps,
        stops=dict(zip((t0, steps), replayed.stops_at([t0, steps]))))
    for traj in (walk.Trajectory(positions=positions, params=params),
                 path_free):
        s = analysis.detect_localization(traj, tail_fraction)
        if s.size - 2 <= params.L + 1:
            analysis.compare_profile(s, params)
        got = {"window": s.window, "size": s.size, "localized": s.localized,
               "profile": s.profile, "stream_rate": s.stream_rate,
               "deviation": s.deviation, "range_final": s.range_final}
        assert repr(got) == repr(want)


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


def test_closed_profiles_are_finite_and_positive():
    # compare_profile takes max() over the deviation, which, unlike
    # np.max, would not propagate a NaN target
    for L in range(1, 13):
        lo = alpha_threshold(L + 1)
        hi = alpha_threshold(L) if L > 1 else 1e6
        for alpha in (lo * (1 + 1e-8), (lo + min(hi, 3.0)) / 2,
                      hi * (1 - 1e-8)):
            for K in range(L + 2):
                target = analysis._closed_profile(K, alpha)
                assert len(target) == K + 1
                assert all(math.isfinite(x) and x > 0.0 for x in target)


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


def _decades(n):
    """n positive floats spread over eight decades."""
    return [(1.0 + k * 0.6180339887 % 9.0) * 10.0 ** (k % 8 - 6)
            for k in range(n)]


# the lengths where numpy's pairwise summation changes its order: 8
# accumulators from 8 items, halves split at a multiple of 8 above 128
@example(_decades(1))
@example(_decades(7))
@example(_decades(8))
@example(_decades(9))
@example(_decades(127))
@example(_decades(128))
@example(_decades(129))
@example(_decades(136))
@example(_decades(256))
@example(_decades(257))
@given(st.lists(st.builds(lambda m, e: m * 10.0 ** e,
                          st.floats(min_value=1.0, max_value=10.0),
                          st.integers(min_value=-8, max_value=2)),
                min_size=1, max_size=1000))
@settings(max_examples=150, deadline=None)
def test_batch_stats_deviations_match_numpy(devs):
    # batch_stats sums in numpy's order without numpy, bit for bit
    agg = analysis.batch_stats([_summary(3, deviation=d) for d in devs], P21)
    assert repr(agg.mean_deviation) == repr(float(np.mean(devs)))
    assert repr(agg.max_deviation) == repr(float(np.max(devs)))


def test_batch_stats_empty_raises():
    with pytest.raises(ValueError):
        analysis.batch_stats([], P21)


def test_wilson_interval_basic():
    lo, hi = analysis.wilson_interval(95, 100)
    assert lo < 0.95 < hi
    assert analysis.wilson_interval(0, 0) == (0.0, 1.0)
