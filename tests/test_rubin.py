import hashlib
import math
from array import array
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stuckwalk import _kernel, rubin, walk
from stuckwalk.errors import ConstructionFailure
from stuckwalk.rng import philox_record
from stuckwalk.spectrum import Params

import oracles
from oracles import keyed_std_exponential, philox, philox_words

P21 = Params.make(2.0, 1.0)
P205 = Params.make(2.0, 0.5)


# ------------------------------------------------------------ weights


def test_weight_spec_defaults():
    ws = oracles.WeightSpec(P21.alpha, P21.beta)
    # at the origin both first clocks have mean 1
    assert ws.log_f(0, 1, 0) == 0.0
    assert ws.log_f(0, -1, 0) == 0.0
    # stepping toward the origin: target-origin factor -alpha plus the
    # "behind" factor (1 + alpha), net 2 beta (1) for alpha=2, beta=1
    assert ws.log_f(1, -1, 0) == pytest.approx(2.0)
    assert ws.log_f(-1, 1, 0) == pytest.approx(2.0)
    # stepping outward from outside the origin: no extra factors
    assert ws.log_f(2, 1, 0) == 0.0
    assert ws.log_f(-2, -1, 0) == 0.0
    # clock-index growth factor
    assert ws.log_f(0, 1, 1) == pytest.approx(2.0 * 2.0 * 3.0)
    assert ws.log_w(3) == pytest.approx(4.0 * 1.0 * 2.0 * 3)


def test_weight_identity_joint_replay():
    # log w(Z_k(y+1)) - log f+(y, N_k(y, y+1)) must equal
    # 2 beta (-l_k(y+1) + alpha l_k(y+2)) at every visited state
    ws = oracles.WeightSpec(P21.alpha, P21.beta)
    traj, _ = rubin.simulate_rubin(P21, 2000, seed=31)
    pos = traj.positions
    a, b = 2.0, 1.0
    Z, lt, N = {}, {}, {}
    for k in range(len(pos) - 1):
        y = pos[k]
        lhs_p = ws.log_w(Z.get(y + 1, 0)) - ws.log_f(y, 1, N.get((y, 1), 0))
        rhs_p = 2.0 * b * (-lt.get(y + 1, 0) + a * lt.get(y + 2, 0))
        assert lhs_p == pytest.approx(rhs_p, abs=1e-9 * max(1, abs(rhs_p)))
        lhs_m = ws.log_w(Z.get(y - 1, 0)) - ws.log_f(y, -1, N.get((y, -1), 0))
        rhs_m = 2.0 * b * (-lt.get(y, 0) + a * lt.get(y - 1, 0))
        assert lhs_m == pytest.approx(rhs_m, abs=1e-9 * max(1, abs(rhs_m)))
        nxt = pos[k + 1]
        s = nxt - y
        N[(y, s)] = N.get((y, s), 0) + 1
        j = max(y, nxt)
        lt[j] = lt.get(j, 0) + 1
        Z[nxt] = Z.get(nxt, 0) + 1


# ------------------------------------------------------------ race


def _keyed_engine(overrides, seed=77, params=P21):
    src = oracles.KeyedClockSource(seed, overrides=overrides)
    return oracles.RubinEngine(params, src)


def test_race_documented_example():
    # xi- = 0.7, xi+ = 0.3 at the origin, w(0) = 1: jump +1 at time 0.3,
    # loser keeps raw residual 0.4
    eng = _keyed_engine({(0, 1, 0): 0.3, (0, -1, 0): 0.7})
    direction, log_e = eng.race_step()
    assert direction == 1
    assert math.exp(log_e) == pytest.approx(0.3, rel=1e-12)
    loser = eng.clocks[(0, -1)]
    assert math.exp(loser.log_residual) == pytest.approx(0.4, rel=1e-12)


def test_race_tie_is_construction_failure():
    eng = _keyed_engine({(0, 1, 0): 0.5, (0, -1, 0): 0.5})
    with pytest.raises(ConstructionFailure):
        eng.race_step()


def test_race_first_step_symmetric():
    n = 20000
    right = 0
    for i in range(n):
        right += walk.simulate(P21, 1, i, engine="rubin").positions[1] == 1
    assert right / n == pytest.approx(0.5, abs=0.011)


def test_residual_decreases_across_suspensions():
    eng = oracles.RubinEngine(P21, oracles.SequentialClockSource(123))
    seen = {}
    for _ in range(500):
        y = eng.pos
        before = {s: getattr(eng.clocks.get((y, s)), "log_residual", None)
                  for s in (1, -1)}
        eng.race_step()
        for s in (1, -1):
            c = eng.clocks[(y, s)]
            if before[s] is not None and c.log_residual is not None:
                # non-strict: a depletion below ~1e-16 relative is not
                # representable in the log-domain residual
                assert c.log_residual <= before[s]


# ------------------------------------------------------------ simulate


def test_simulate_rubin_zero_jumps():
    traj, ty = rubin.simulate_rubin(P21, 0, seed=1)
    assert traj.positions == [0]
    assert ty == {}


def test_simulate_rubin_deterministic():
    t1, _ = rubin.simulate_rubin(P21, 500, seed=9)
    t2, _ = rubin.simulate_rubin(P21, 500, seed=9)
    assert t1.positions == t2.positions


def test_no_construction_failure_long_run():
    traj, _ = rubin.simulate_rubin(P21, 100000, seed=17)
    assert len(traj.positions) == 100001


@given(params=st.sampled_from([P21, Params.make(0.8, 1.0)]),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       jumps=st.integers(min_value=0, max_value=3000),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          max_size=4))
@settings(max_examples=30, deadline=None)
def test_rubin_walker_records_the_stops_of_its_path(params, seed, jumps,
                                                    fractions):
    # the Stops counted from the clocks' ring counts are those of the
    # path's replay, with or without the path kept
    stops = sorted({0, jumps, *(int(f * jumps) for f in fractions)})
    kept = walk.simulate(params, jumps, seed, stops=stops, engine="rubin")
    free = walk.simulate(params, jumps, seed, stops=stops, keep_path=False,
                         engine="rubin")
    assert kept.positions == rubin.simulate_rubin(params, jumps,
                                                  seed)[0].positions
    assert free.positions is None and free.steps == jumps
    replayed = walk.Trajectory(positions=kept.positions,
                               params=params).stops_at(stops)
    assert [kept.stops[k] for k in stops] == replayed
    assert [free.stops[k] for k in stops] == replayed


@pytest.mark.parametrize("seed", [0, 1, 9, 2 ** 64 - 1])
def test_sequential_clocks_are_the_logged_philox_stream(seed):
    # drawn in blocks of 4096, the clocks are still one stream: n crosses
    # three block boundaries
    n = 3 * 4096 + 17
    want = np.log(philox(seed).standard_exponential(n)).tolist()
    src = oracles.SequentialClockSource(seed)
    got = [src.log_std_exponential(0, 1, 0) for _ in range(n)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _kernel_exponentials(seed, skip, n):
    """``n`` draws of ``stuck_std_exponentials`` from the words of a fresh
    ``philox(seed)`` after ``skip`` skipped draws, and the words after."""
    kernels, words = _kernel.load(), np.array(philox_record(seed))
    kernels.stuck_std_exponentials(words.ctypes.data, 1, skip, 0, None)
    out = np.empty(n)
    kernels.stuck_std_exponentials(words.ctypes.data, 1, n, 0,
                                   out.ctypes.data)
    return out, words.tolist()


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       skip=st.one_of(st.just(0), st.integers(min_value=1, max_value=99)
                      .filter(lambda k: k % 4)),
       n=st.integers(min_value=0, max_value=3000))
@example(seed=2 ** 64 - 1, skip=3, n=1)
@settings(max_examples=60, deadline=None)
def test_kernel_exponentials_are_numpys(seed, skip, n):
    # byte for byte Generator(Philox(key=seed)).standard_exponential, from
    # fresh words or from words left mid-buffer, and the same state after
    got, words = _kernel_exponentials(seed, skip, n)
    rng = philox(seed)
    rng.standard_exponential(skip)
    assert got.tobytes() == rng.standard_exponential(n).tobytes()
    assert words == philox_words(rng)


def test_kernel_exponentials_take_the_slow_branches():
    # 4e6 draws in four chunks of n: some land in the tail beyond the
    # base layer's r, and the rejections (tail, wedge or retry) draw extra
    # words, so the counter of 4-word blocks passes 4e6 / 4
    n, r = 10 ** 6, 7.69711747013104972
    kernels, words = _kernel.load(), np.array(philox_record(20260826))
    rng, got, tail = philox(20260826), np.empty(n), 0
    for _ in range(4):
        kernels.stuck_std_exponentials(words.ctypes.data, 1, n, 0,
                                       got.ctypes.data)
        assert got.tobytes() == rng.standard_exponential(n).tobytes()
        tail += int(np.count_nonzero(got > r))
    assert words.tolist() == philox_words(rng)
    assert tail > 0
    assert int(words[1]) > n


def test_path_free_rubin_memory_does_not_grow_with_jumps():
    walk.simulate(P21, 10, 1, engine="rubin")      # import the engine first

    def peak(jumps):
        tracemalloc.start()
        try:
            walk.simulate(P21, jumps, 3, stops=(1, jumps // 2, jumps),
                          keep_path=False, engine="rubin")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # both sizes draw more than one block of 4096 clocks, each refilled
    # into the one 32 kB buffer of doubles
    small, large = peak(5 * 10 ** 3), peak(5 * 10 ** 4)
    assert large <= small + 16 * 1024
    assert large < 150 * 1024


def test_ty_accounting_identity():
    # T_y+- equals the log-sum of the race durations committed to it
    eng = oracles.RubinEngine(P21, oracles.SequentialClockSource(41))
    races = []  # (site, winner, log_e)
    for _ in range(3000):
        y = eng.pos
        races.append((y, *eng.race_step()))
    last_win = {}
    for i, (y, s, _log_e) in enumerate(races):
        last_win[(y, s)] = i
    for key, c in eng.clocks.items():
        if key not in last_win:
            assert c.log_consumed == -math.inf
            continue
        y, _s = key
        logs = [log_e for i, (site, _w, log_e) in enumerate(races)
                if site == y and i <= last_win[key]]
        expect = logs[0]
        for v in logs[1:]:
            expect = np.logaddexp(expect, v)
        assert c.log_consumed == pytest.approx(expect, abs=1e-9)


def test_ty_boundary_tail_fraction_small():
    traj, rep = rubin.simulate_rubin(P21, 10000, seed=7)
    sites = sorted(rep)
    # outermost sites: clock activity froze long before the tail
    assert rep[sites[0]]["tail_fraction"] < 1e-6
    assert rep[sites[-1]]["tail_fraction"] < 1e-6
    for r in rep.values():
        assert r["t_plus"] >= 0.0 and r["t_minus"] >= 0.0


def test_embedded_law_matches_exact_sequential():
    horizon, n = 4, 20000
    law = walk.exact_path_law(P21, horizon)
    counts = {}
    for i in range(n):
        traj, _ = rubin.simulate_rubin(P21, horizon, seed=50000 + i)
        key = tuple(traj.positions[1:])
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(p, 0) / n - q) for p, q in law.items())
    assert tv < 0.02


# sha256 of repr(sorted(counts.items())) for 20000 runs at beta 1, taken
# from the (runs, S, 2)-array sampler this one replaced
SAMPLER_DIGESTS = {
    (2.0, 5, 3): "1f9eaf6c05fa7281004a3104715d0fe5595899a01357cd871047a8f7d6885e83",
    (2.0, 5, 2 ** 64 - 5): "d8f297b4908e07fea8618e548e3406a158a147d4da9f09a59700267aaa4c6775",
    (2.0, 6, 3): "5d955d74cd834a726df73026bc0b227e7c0c2014d3922a32aa19848c28dfee74",
    (2.0, 6, 2 ** 64 - 5): "e5a83903b8221281a0e9d6ba9f49c0863a2b61e39fcf4b090caf7971c9c671aa",
    (0.8, 5, 3): "4c5275e7d620c119c3ceea90cea4dff20a9ec518a90c7dd77e9ae1aca1f7797a",
    (0.8, 5, 2 ** 64 - 5): "bd20974811024039998a4a831b682f46db4b1f0226162223ef0b6d92f9d50e6d",
    (0.8, 6, 3): "b256a853ad0d348e3613538298f19bf5e3d665dd349b7069a93daefeb5a37d40",
    (0.8, 6, 2 ** 64 - 5): "716323c0e151cf0baa9f6c19057d6e0713e90508038ca5345e051e13866342ff",
    (0.45, 5, 3): "c9e8397778927c1820a176f96e743a85e3267689c86e37f25e2fda6ea8139864",
    (0.45, 5, 2 ** 64 - 5): "6178ea2929915e94358325f043395d0a3a2b880ba0bb77a8de18f12feccf989d",
    (0.45, 6, 3): "6470eb5c631bda637e183bb58d0569c4f1ce3cd6cd32d4dcdbf9ca2f2745449e",
    (0.45, 6, 2 ** 64 - 5): "5514b073bbb25fd212c0e5833ab5c53a18d7186063589be2760ca42d2d56b3d9",
}


@pytest.mark.parametrize("alpha, horizon, seed", sorted(SAMPLER_DIGESTS))
def test_sampler_golden(alpha, horizon, seed):
    emp = rubin.sample_embedded_paths(Params.make(alpha, 1.0), horizon,
                                      20000, seed)
    digest = hashlib.sha256(repr(sorted(emp.items())).encode()).hexdigest()
    assert digest == SAMPLER_DIGESTS[(alpha, horizon, seed)]


def test_vectorized_sampler_matches_sequential():
    horizon, n = 5, 30000
    emp = rubin.sample_embedded_paths(P205, horizon, n, seed=13)
    assert sum(emp.values()) == n
    law = walk.exact_path_law(P205, horizon)
    tv = 0.5 * sum(abs(emp.get(p, 0) / n - q) for p, q in law.items())
    assert tv < 0.02


def test_equivalence_report():
    rep = rubin.equivalence_report(P21, 6, 100000, seed=42)
    assert rubin.equivalence_pass(rep)


def _sampler_codes(blocks):
    """The path codes of the sampler's ``blocks``, or the
    ConstructionFailure message."""
    try:
        return [code for codes in blocks for code in codes.tolist()]
    except ConstructionFailure as exc:
        return str(exc)


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.floats(min_value=0.01, max_value=30.0),
       horizon=st.integers(min_value=0, max_value=8),
       runs=st.integers(min_value=1, max_value=5000),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
@example(alpha=0.36, beta=3.0, horizon=8, runs=4097, seed=2 ** 64 - 5)
@example(alpha=0.8, beta=0.3, horizon=20, runs=3 * rubin._BLOCK + 17,
         seed=29)
@settings(max_examples=60, deadline=None)
def test_sampler_kernel_matches_lockstep(alpha, beta, horizon, runs, seed):
    # same draws, same codes run by run, through partial final blocks; the
    # kernel reuses its records from block to block without clearing them
    params = Params.make(alpha, beta)
    assert _sampler_codes(rubin._path_codes(_kernel.load(), params, horizon,
                                            runs, seed)) \
        == _sampler_codes(oracles.path_codes(params, horizon, runs, seed))


@pytest.mark.parametrize("block", [1, 7, 5000])
def test_sampler_block_size_does_not_change_counts(monkeypatch, block):
    expected = rubin.sample_embedded_paths(P21, 6, 2500, seed=17)
    monkeypatch.setattr(rubin, "_BLOCK", block)
    assert rubin.sample_embedded_paths(P21, 6, 2500, seed=17) == expected


def _race_in_oracle(monkeypatch):
    """Make ``rubin.sample_embedded_paths`` count the oracle's path codes,
    raced in lockstep over numpy's draws."""
    monkeypatch.setattr(rubin, "_path_codes",
                        lambda kernels, *args: oracles.path_codes(*args))


def test_equivalence_report_fallback_is_identical(monkeypatch):
    # the report from the compiled sampler and from the oracle's codes
    compiled = [rubin.equivalence_report(p, 5, 20000, seed=s)
                for p, s in ((P21, 3), (P205, 2 ** 64 - 1))]
    _race_in_oracle(monkeypatch)
    assert [rubin.equivalence_report(p, 5, 20000, seed=s)
            for p, s in ((P21, 3), (P205, 2 ** 64 - 1))] == compiled


def _stub_codes(monkeypatch, compiled, params, horizon, runs, values):
    """The sampler's path codes, compiled or the oracle's, over one slice
    holding the logs of ``values[k]`` in row k and of 1 below them."""
    rows = 2 * horizon
    column = [values[k] if k < len(values) else 1.0 for k in range(rows)]
    draws = np.log(np.repeat(np.array(column)[:, None], runs, axis=1))
    if not compiled:
        return oracles.lockstep_codes(params, horizon, draws)
    monkeypatch.setattr(rubin, "_draw_blocks", lambda *args: iter([draws]))
    return rubin.sample_embedded_paths(params, horizon, runs, seed=1)


@pytest.mark.parametrize("compiled", [True, False])
def test_sampler_tie_raises(monkeypatch, compiled):
    # at site 0 both first clocks have log_f = 0, so equal draws tie
    with pytest.raises(ConstructionFailure,
                       match="^exact clock tie in vectorized sampler$"):
        _stub_codes(monkeypatch, compiled, P21, 3, 10, [])


@pytest.mark.parametrize("compiled", [True, False])
def test_sampler_exhausted_residual_raises(monkeypatch, compiled):
    # the first race goes left (minus clock 1 against plus clock 2); at
    # site -1 the minus clock rings at log time 0 and the plus clock at
    # 2 beta = 2e-20, so exp(0 - 2e-20) rounds to 1 and the loser has no
    # residual left
    params = Params.make(2.0, 1e-20)
    clocks = {(0, -1, 0): 1.0, (0, 1, 0): 2.0, (-1, -1, 0): 1.0,
              (-1, 1, 0): 1.0}
    with pytest.raises(ConstructionFailure,
                       match="^loser residual exhausted at site -1 after "
                             "1 jumps$"):
        oracles.RubinEngine(params, oracles.KeyedClockSource(
            1, overrides=clocks)).advance(3)
    with pytest.raises(ConstructionFailure, match="^loser residual "
                       "exhausted in vectorized sampler$"):
        _stub_codes(monkeypatch, compiled, params, 3, 4, [1.0, 2.0])


@pytest.mark.parametrize("seed", [3, 2 ** 64 - 5])
def test_sampler_blocks_are_slices_of_one_draw(seed):
    # from the kernel's draws and from the oracle's; runs is not a
    # multiple of the block, so the last slice is partial
    horizon, runs = 3, 2 * rubin._BLOCK + 17
    want = np.log(philox(seed).standard_exponential((2 * horizon, runs)))
    for blocks in (rubin._draw_blocks(_kernel.load(), seed, 2 * horizon,
                                      runs, rubin._BLOCK),
                   oracles.draw_blocks(seed, 2 * horizon, runs,
                                       rubin._BLOCK)):
        got = [draws.copy() for draws in blocks]
        assert [d.shape for d in got] == [(2 * horizon, rubin._BLOCK)] * 2 \
            + [(2 * horizon, 17)]
        assert np.concatenate(got, axis=1).tobytes() == want.tobytes()


@pytest.mark.parametrize("compiled", [True, False])
def test_sampler_memory_does_not_grow_with_runs(monkeypatch, compiled):
    if not compiled:
        _race_in_oracle(monkeypatch)

    def peak(runs):
        tracemalloc.start()
        try:
            rubin.sample_embedded_paths(P21, 6, runs, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rubin.sample_embedded_paths(P21, 6, 10, seed=5)  # warm the kernel or numpy
    small, large = peak(2 * 10 ** 4), peak(2 * 10 ** 5)
    # the draws, the race state and the block's path codes are one block
    # whatever the runs, and the counts one entry per distinct path
    assert (large - small) / (18 * 10 ** 4) < 1


@pytest.mark.parametrize("compiled", [True, False])
def test_sampler_input_checks_and_long_horizons(monkeypatch, compiled):
    if not compiled:
        _race_in_oracle(monkeypatch)
    for horizon, runs in ((-1, 10), (63, 1), (5, 0)):
        with pytest.raises(ValueError):
            rubin.sample_embedded_paths(P21, horizon, runs, seed=1)
    # codes are counted without a 2**horizon array
    emp = rubin.sample_embedded_paths(P21, 62, 3, seed=1)
    assert sum(emp.values()) == 3
    for path in emp:
        assert len(path) == 62
        assert all(abs(b - a) == 1 for a, b in zip((0, *path), path))
    assert rubin.sample_embedded_paths(P21, 0, 5, seed=1) == {(): 5}


# ------------------------------------------------------------ coupling


def test_couple_identical_u():
    rep = rubin.couple(0, 0.5, 0.5, shared_seed=99, jumps=200, params=P21)
    assert rep.positions1 == rep.positions2
    assert rep.violations == 0


def test_couple_tiny_u_first_jump_right():
    rep = rubin.couple(0, 1e-300, 0.5, shared_seed=5, jumps=50, params=P21)
    assert rep.positions1[1] == 1


def test_couple_no_violations_randomized():
    from stuckwalk.rng import keyed_uniform

    total = 0
    for i in range(60):
        ua = keyed_uniform(2024, 1, i)
        ub = keyed_uniform(2024, 2, i)
        u1, u2 = min(ua, ub), max(ua, ub)
        rep = rubin.couple(0, u1, u2, shared_seed=3000 + i, jumps=400,
                           params=P21)
        total += rep.compared
        assert rep.violations == 0
    assert total > 0


def _matched_crossings_loop(path1, path2):
    # the per-jump visit-count bookkeeping RubinEngine used to record
    def crossings(path):
        visits, out = {}, {}
        for y, x in zip(path, path[1:]):
            visits[x] = visits.get(x, 0) + 1
            z = min(y, x)
            out.setdefault(z, []).append(
                (visits.get(z + 1, 0), visits.get(z, 0)))
        return out

    c1, c2 = crossings(path1), crossings(path2)
    compared = violations = 0
    for z in set(c1) | set(c2):
        for (zr1, zl1), (zr2, zl2) in zip(c1.get(z, []), c2.get(z, [])):
            compared += 1
            violations += zr1 < zr2 or zl1 > zl2
    return compared, violations


def _independent_walks(steps, bias, seed):
    # independent walks, so the coupling inequalities fail often
    if bias is None:
        moves = [(1 if a else -1, 1 if b else -1) for a, b in steps]
    else:
        u = philox(seed).random((len(steps), 2))
        moves = [(1 if p < bias else -1, 1 if q < bias else -1)
                 for p, q in u.tolist()]
    paths = ([0], [0])
    for move in moves:
        for path, d in zip(paths, move):
            path.append(path[-1] + d)
    return paths


_WALK_PAIRS = dict(
    steps=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300),
    bias=st.sampled_from([None, 0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1))


@given(**_WALK_PAIRS)
@settings(max_examples=100, deadline=None)
def test_matched_crossings_equal_loop(steps, bias, seed):
    paths = _independent_walks(steps, bias, seed)
    assert oracles.matched_crossings(*paths) \
        == _matched_crossings_loop(*paths)


@given(**_WALK_PAIRS)
@example(steps=[], bias=None, seed=0)
@settings(max_examples=100, deadline=None)
def test_kernel_matched_crossings_equal_numpy(steps, bias, seed):
    paths = [array("q", p) for p in _independent_walks(steps, bias, seed)]
    assert rubin._kernel_matched_crossings(_kernel.load(), *paths) \
        == oracles.matched_crossings(*paths)


def test_kernel_matched_crossings_count_violations():
    kernels, total = _kernel.load(), [0, 0]
    for seed in range(20):
        paths = [array("q", p) for p in _independent_walks(
            [None] * 300, 0.5, seed)]
        got = rubin._kernel_matched_crossings(kernels, *paths)
        assert got == oracles.matched_crossings(*paths)
        total = [a + b for a, b in zip(total, got)]
    assert total[0] > total[1] > 0


def test_couple_rejects_bad_input():
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            rubin.couple(0, bad, 0.5, shared_seed=1, jumps=10, params=P21)
        with pytest.raises(ValueError, match="finite and > 0"):
            rubin.couple(0, 0.5, bad, shared_seed=1, jumps=10, params=P21)
    with pytest.raises(ValueError, match="jumps"):
        rubin.couple(0, 0.3, 0.5, shared_seed=1, jumps=-1, params=P21)


def test_couple_fallback_gives_same_report():
    cases = [(0, 0.2, 0.9, 11, 300), (2, 1e-300, 3.0, 2 ** 64 - 1, 200),
             (-1, 0.5, 0.5, 7, 0), (0, 0.01, 0.02, 12, 1)]
    compiled = [rubin.couple(h, u1, u2, s, j, P21)
                for h, u1, u2, s, j in cases]
    assert [oracles.couple(h, u1, u2, s, j, P21)
            for h, u1, u2, s, j in cases] == compiled


# ------------------------------------------------------------ race kernel


def _engine_race(params, seed, hold_out, u, jumps):
    src = oracles.KeyedClockSource(seed, overrides={(hold_out, 1, 0): u})
    eng = oracles.RubinEngine(params, src)
    for _ in range(jumps):
        eng.race_step()
    return eng


def _kernel_race(params, seed, hold_out, u, jumps):
    # the first window of 64 sites, so far walks move it
    race = rubin._RaceWalk(params, seed, jumps, held=(hold_out, u))
    race.advance(jumps)
    return race


def _window_clocks(race):
    """{(y, d): (index, log_residual.hex())} of every clock in the kernel
    race's window, 'nan' for an unarmed one."""
    ints, floats = race.bufs[:2]
    first, last = ints[3:5]
    index = ints[rubin._WORDS:].tolist()
    return {(y, d): (index[3 * s + 1 + (d > 0)],
                     floats[2 * s + (d > 0)].hex())
            for s, y in enumerate(range(first, last + 1)) for d in (-1, 1)}


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.floats(min_value=0.01, max_value=30.0),
       hold_out=st.integers(min_value=-6, max_value=6),
       u=st.floats(min_value=1e-300, max_value=50.0),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       jumps=st.integers(min_value=0, max_value=500))
@example(alpha=0.8, beta=0.01, hold_out=0, u=0.5, seed=3, jumps=500)
@settings(max_examples=60, deadline=None)
def test_race_kernel_matches_engine(alpha, beta, hold_out, u, seed, jumps):
    # keyed clocks: the same path, clock indices and residuals
    params = Params.make(alpha, beta)
    try:
        eng = _engine_race(params, seed, hold_out, u, jumps)
    except ConstructionFailure as exc:
        with pytest.raises(ConstructionFailure) as got:
            _kernel_race(params, seed, hold_out, u, jumps)
        assert str(got.value) == str(exc)
        return
    race = _kernel_race(params, seed, hold_out, u, jumps)
    assert race.path() == eng.positions
    got = _window_clocks(race)
    want = {key: (0, math.nan.hex()) for key in got}
    for key, c in eng.clocks.items():
        residual = math.nan if c.log_residual is None else c.log_residual
        want[key] = (c.index, residual.hex())
    assert got == want


def test_race_kernel_tie_matches_engine():
    # the held-out plus clock at the origin equals the minus clock there
    seed = 2024
    u = keyed_std_exponential(seed, 0, 2, 0)
    with pytest.raises(ConstructionFailure) as want:
        _engine_race(P21, seed, 0, u, 5)
    with pytest.raises(ConstructionFailure) as got:
        _kernel_race(P21, seed, 0, u, 5)
    assert str(got.value) == str(want.value) \
        == "exact clock tie at site 0 after 0 jumps"


def _hex_report(ty):
    return [(y, [(k, v.hex()) for k, v in r.items()]) for y, r in ty.items()]


def _oracle_walk(params, jumps, seed, marks):
    """The sequential-clock walk of ``oracles.RubinEngine``: its path and
    its Stops at ``marks``."""
    eng = oracles.RubinEngine(params, oracles.SequentialClockSource(seed))
    stops = walk._drive(eng, jumps, marks)
    return eng.path(), stops


@given(alpha=st.sampled_from([2.0, 0.8]),
       beta=st.floats(min_value=1e-9, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       jumps=st.integers(min_value=0, max_value=2000),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          max_size=3))
@example(alpha=0.8, beta=1e-9, seed=5, jumps=2000, fractions=[0.5])
@example(alpha=2.0, beta=1.0, seed=2 ** 64 - 1, jumps=4097, fractions=[])
@settings(max_examples=40, deadline=None)
def test_sequential_race_matches_engine(alpha, beta, seed, jumps,
                                        fractions):
    # sequential clocks: the kernel route and the Python engine give the
    # same path, Stops, T_y report bit for bit, or failure message.  The
    # examples move the window (beta 1e-9 wanders) and cross a block of
    # 4096 draws
    params = Params.make(alpha, beta)
    marks = sorted({0, jumps, *(int(f * jumps) for f in fractions)})
    try:
        want_path, want_stops = _oracle_walk(params, jumps, seed, marks)
        want_traj, want_ty = oracles.simulate_rubin(params, jumps, seed)
    except ConstructionFailure as exc:
        with pytest.raises(ConstructionFailure) as got:
            walk.simulate(params, jumps, seed, stops=marks, engine="rubin")
        assert str(got.value) == str(exc)
        with pytest.raises(ConstructionFailure) as got:
            rubin.simulate_rubin(params, jumps, seed)
        assert str(got.value) == str(exc)
        return
    traj = walk.simulate(params, jumps, seed, stops=marks, engine="rubin")
    free = walk.simulate(params, jumps, seed, stops=marks, keep_path=False,
                         engine="rubin")
    assert traj.positions == want_path
    assert traj.stops == free.stops == want_stops
    got_traj, got_ty = rubin.simulate_rubin(params, jumps, seed)
    assert got_traj.positions == want_traj.positions == want_path
    assert _hex_report(got_ty) == _hex_report(want_ty)


@pytest.mark.parametrize("block", [1, 3])
def test_sequential_race_resumes_between_blocks(monkeypatch, block):
    # blocks of one or three draws stop the kernel at every draw or
    # every third, between a race's two armings too: the same walk and
    # report as blocks of 4096
    params = Params.make(0.8, 1.0)
    want_traj, want_ty = rubin.simulate_rubin(params, 3000, 7)
    draw_blocks = rubin._draw_blocks
    monkeypatch.setattr(rubin, "_draw_blocks",
                        lambda kernels, seed, rows, runs, _:
                        draw_blocks(kernels, seed, rows, runs, block))
    traj, ty = rubin.simulate_rubin(params, 3000, 7)
    assert traj.positions == want_traj.positions
    assert _hex_report(ty) == _hex_report(want_ty)


@pytest.mark.parametrize("beta, values, message", [
    # both first clocks at the origin have log_f = 0
    (1.0, [], "exact clock tie at site 0 after 0 jumps"),
    # as in test_sampler_exhausted_residual_raises: plus clock 2 against
    # minus clock 1 goes left, and at site -1 exp(log_e - ring_l) rounds
    # to 1
    (1e-20, [2.0], "loser residual exhausted at site -1 after 1 jumps")])
def test_sequential_race_failures_match_engine(monkeypatch, beta, values,
                                               message):
    # the draws are the logs of ``values``, then of 1: the same failure
    # from the kernel route and the Python engine
    draws = np.log(np.array([values + [1.0] * (8 - len(values))]))
    for module in (rubin, oracles):
        monkeypatch.setattr(module, "_draw_blocks",
                            lambda *args: iter([draws.copy()]))
    params = Params.make(2.0, beta)
    for route in (oracles.simulate_rubin, rubin.simulate_rubin):
        with pytest.raises(ConstructionFailure, match=f"^{message}$"):
            route(params, 5, seed=1)
