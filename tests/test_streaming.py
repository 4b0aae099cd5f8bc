"""Path-free runs: kernel stops, the growing local-time window, and the
summaries built from stops instead of the position path."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stuckwalk import _kernel, analysis, mc, walk
from stuckwalk.spectrum import Params

import oracles
from oracles import BLOCK

P21 = Params.make(2.0, 1.0)


def summary_from_path(traj, tail_fraction):
    """The tail summary straight from the positions, without stops."""
    pos = np.asarray(traj.positions)
    steps = len(pos) - 1
    t0 = steps - int(steps * tail_fraction)
    tail = pos[t0:]
    a, b = int(tail.min()), int(tail.max())
    size = b - a + 1
    threshold = (steps - t0) / (analysis.SUSTAIN_DIVISOR * size)
    visits = np.bincount(tail - a, minlength=size)
    edges = np.maximum(pos[:-1], pos[1:])
    tail_edges = edges[t0:].tolist()
    inner = [tail_edges.count(j) for j in range(a + 1, b + 1)]
    total = sum(inner)
    lt = oracles.recount_local_times(traj.positions)
    alpha = traj.params.alpha
    stream_rate = {
        str(j): abs(-alpha * lt.get(j - 1, 0) + lt.get(j, 0)
                    - lt.get(j + 1, 0) + alpha * lt.get(j + 2, 0)) / steps
        for j in range(a + 1, b)}
    return {
        "window": [a, b], "size": size,
        "localized": bool(np.all(visits >= threshold)),
        "profile": [c / total for c in inner] if total else [0.0] * len(inner),
        "deviation": float("nan"), "stream_rate": stream_rate,
        "range_final": [int(pos.min()), int(pos.max())],
    }


def check_streamed_equals_path(params, steps, seed, tail_fraction,
                               simulate=walk.simulate):
    t0 = analysis.tail_start(steps, tail_fraction)
    streamed = simulate(params, steps, seed, stops=(1, t0, steps),
                        keep_path=False)
    full = simulate(params, steps, seed)
    assert streamed.positions is None and streamed.steps == steps
    s = analysis.detect_localization(streamed, tail_fraction)
    f = analysis.detect_localization(full, tail_fraction)
    got = json.dumps(s.as_dict(), sort_keys=True)
    assert got == json.dumps(f.as_dict(), sort_keys=True)
    assert got == json.dumps(summary_from_path(full, tail_fraction),
                             sort_keys=True)
    assert streamed.stops[1].pos == full.positions[1]
    return s


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.sampled_from([0.3, 1.0, 4.0]),
       steps=st.sampled_from([1000, BLOCK - 1, BLOCK, BLOCK + 1,
                              2 * BLOCK + 1, 40001])
       | st.integers(min_value=1000, max_value=6000),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       tail_fraction=st.sampled_from([0.5, 0.3, 0.77, 0.999, 0.0004]),
       simulate=st.sampled_from([walk.simulate, oracles.simulate]),
       window=st.sampled_from([walk._WINDOW0, 4]))
@settings(max_examples=60, deadline=None)
def test_streamed_summary_equals_path_summary(alpha, beta, steps, seed,
                                              tail_fraction, simulate,
                                              window):
    if int(steps * tail_fraction) == 0:
        with pytest.raises(ValueError, match="holds no step"):
            analysis.tail_start(steps, tail_fraction)
        return
    with mock.patch.object(walk, "_WINDOW0", window):
        check_streamed_equals_path(Params.make(alpha, beta), steps, seed,
                                   tail_fraction, simulate)


def test_streamed_summary_of_non_localized_runs():
    # about a quarter of 1500-step runs at alpha = 0.45 have settled
    params = Params.make(0.45, 1.0)
    localized = [check_streamed_equals_path(params, 1500, seed,
                                            0.5).localized
                 for seed in range(30)]
    assert not all(localized) and any(localized)


def test_tail_start_off_block_boundary():
    steps = 2 * BLOCK + 7
    t0 = analysis.tail_start(steps, 0.5)
    assert t0 % BLOCK
    check_streamed_equals_path(P21, steps, 11, 0.5)
    check_streamed_equals_path(P21, steps, 11, 0.5, oracles.simulate)


def test_tiny_window_grows_many_times():
    params = Params.make(0.36, 1.0)
    sizes = []
    place = walk._KernelWalk._place

    def counting(self, lt, size):
        sizes.append(size)
        place(self, lt, size)

    with mock.patch.object(walk, "_WINDOW0", 4), \
            mock.patch.object(walk._KernelWalk, "_place", counting):
        stops = (1, 777, 5000, 20000)
        a = walk.simulate(params, 20000, 8, stops=stops, keep_path=False)
    b = oracles.simulate(params, 20000, 8, stops=stops)
    # the first placement, then at least four doublings
    assert sizes[:5] == [4, 8, 16, 32, 64]
    for k in stops:
        sa, sb = a.stops[k], b.stops[k]
        assert (sa.step, sa.pos, sa.lo, sa.hi) == (sb.step, sb.pos, sb.lo,
                                                   sb.hi)
        assert sa.lt.tolist() == sb.lt.tolist()


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.sampled_from([0.05, 1.0, 3.0, 20.0 - 2.0 ** -41]),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       marks=st.lists(st.integers(min_value=0, max_value=4096), min_size=1,
                      max_size=6))
@example(alpha=0.8, beta=1.0, seed=5, marks=[0, 1, 999, 1000, 4096])
@settings(max_examples=40, deadline=None)
def test_stops_from_path_match_recorded_stops(alpha, beta, seed, marks):
    stops = sorted(set(marks))
    traj = walk.simulate(Params.make(alpha, beta), 4096, seed, stops=stops)
    recorded = [traj.stops[k] for k in stops]
    assert all(a is b for a, b in zip(traj.stops_at(stops), recorded))
    derived = walk.Trajectory(positions=traj.positions,
                              params=traj.params).stops_at(stops)
    for got, want in zip(recorded, derived):
        assert (got.step, got.pos, got.lo, got.hi) == (want.step, want.pos,
                                                       want.lo, want.hi)
        assert got.lt.tolist() == want.lt.tolist()


def check_start_invariants(stop):
    """The checks a Stop must pass to start a walk: its range [lo, hi]
    holds 0 and its position, edges lo and hi+1 are uncrossed and edges
    lo+1..hi crossed, an edge is crossed an odd number of times exactly
    when it lies between 0 and the position, and the local times sum to
    the step count."""
    lt, lo, hi = stop.lt.tolist(), stop.lo, stop.hi
    a, b = min(0, stop.pos), max(0, stop.pos)
    assert len(lt) == hi - lo + 2
    assert lo <= a and b <= hi
    assert lt[0] == lt[-1] == 0 and all(c > 0 for c in lt[1:-1])
    assert all((c % 2 == 1) == (a < j <= b) for j, c in enumerate(lt, lo))
    assert sum(lt) == stop.step


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.sampled_from([0.05, 0.3, 1.0, 4.0]),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       marks=st.lists(st.integers(min_value=0, max_value=3000), min_size=1,
                      max_size=5))
@settings(max_examples=60, deadline=None)
def test_recorded_stops_pass_the_start_checks(alpha, beta, seed, marks):
    # a kernel group, a rubin walk of a few hundred jumps (beta <= 1) and
    # the replay of a kept kernel path
    params, marks = Params.make(alpha, beta), sorted(set(marks))
    walks = walk.simulate_many(params, 3000, [seed, seed ^ 1], stops=marks,
                               keep_path=False)
    stops = [t.stops[k] for t in walks for k in marks]
    if beta <= 1.0:
        jumps = [k // 10 for k in marks]
        stops += walk.simulate(params, 300, seed, stops=jumps,
                               keep_path=False,
                               engine="rubin").stops_at(jumps)
    kept = walk.simulate(params, 3000, seed)
    stops += walk.Trajectory(kept.positions, params).stops_at(marks)
    for stop in stops:
        check_start_invariants(stop)


@pytest.mark.parametrize("shift", [-40, 3])
def test_stops_from_a_shifted_path_match_recount(shift):
    # a path that starts off 0 replays from its own first position
    traj = walk.simulate(Params.make(0.8, 1.0), 3000, 7)
    positions = [x + shift for x in traj.positions]
    marks = [0, 1, 1500, 3000]
    derived = walk.Trajectory(positions=positions,
                              params=traj.params).stops_at(marks)
    for k, stop in zip(marks, derived):
        head = positions[:k + 1]
        assert (stop.step, stop.pos, stop.lo, stop.hi) == (
            k, head[-1], min(head), max(head))
        assert {j: c for j, c in zip(range(stop.lo, stop.hi + 2),
                                     stop.lt.tolist()) if c} \
            == oracles.recount_local_times(head)


def test_path_free_trajectory_needs_its_stops():
    traj = walk.simulate(P21, 2000, 1, stops=(2000,), keep_path=False)
    with pytest.raises(ValueError, match="no stop at step 1000"):
        analysis.detect_localization(traj, 0.5)
    with pytest.raises(ValueError):
        walk.simulate(P21, 100, 1, stops=(101,))


def test_batch_first_step_matches_path():
    cfg = mc.BatchConfig(params=P21, runs=16, steps=1000, master_seed=9)
    got, expected = [], []
    for i in range(cfg.runs):
        seed = mc.derive_seed(9, i)
        _, traj = mc.run_one(P21, cfg.steps, seed, cfg.engine,
                             cfg.tail_fraction, stops=(1,))
        got.append(traj.stops_at([1])[0].pos)
        expected.append(walk.simulate(P21, 1, seed).positions[1])
    assert got == expected


def test_kernel_returns_early_at_window_edge():
    kernel = _kernel.load().stuck_walk_many
    # pos, lo, hi, first, last, then key, counter[4], buffer[4] and used
    # all 0: the buffer's four zero draws give u = 0, always right; then
    # the local times of edges -1..2
    buf = np.array([0, 0, 0, -1, 2] + [0] * 10 + [0] * 4, dtype=np.int64)
    states = np.array([buf.ctypes.data], dtype=np.int64)
    outs = np.zeros(1, dtype=np.int64)              # NULL: no path
    n = np.array([10], dtype=np.int64)
    kernel(2.0, 2.0, 1, states.ctypes.data, outs.ctypes.data, n.ctypes.data)
    # after one step hi = 1 and the next step would read edge 3
    assert n.tolist() == [1]
    assert buf[:15].tolist() == [1, 0, 1, -1, 2] + [0] * 9 + [1]
    assert buf[15:].tolist() == [0, 0, 1, 0]


def test_path_free_memory_does_not_grow_with_steps():
    walk.simulate(P21, 10, 1)                     # load the kernel first

    def peak(steps):
        tracemalloc.start()
        try:
            walk.simulate(P21, steps, 3, stops=(1, steps // 2, steps),
                          keep_path=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10 ** 5), peak(10 ** 7)
    assert large < 1 << 20
    assert large <= small + 16 * 1024
    # the kernel draws its uniforms itself: no block of them is held
    assert max(small, large) < 64 * 1024
