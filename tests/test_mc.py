import hashlib
import json
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stuckwalk import _kernel, analysis, mc, walk
from stuckwalk.analysis import detect_localization
from stuckwalk.rng import derive_seed
from stuckwalk.spectrum import Params
from stuckwalk.walk import simulate, simulate_many

P21 = Params.make(2.0, 1.0)


def small_config(**kw):
    defaults = dict(params=P21, runs=8, steps=2000, master_seed=555)
    defaults.update(kw)
    return mc.BatchConfig(**defaults)


# ------------------------------------------------------------ derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(123, 7) == derive_seed(123, 7)


def test_derive_seed_distinct_indices():
    rng = np.random.default_rng(0)
    for s in rng.integers(0, 2 ** 63, size=10000):
        assert derive_seed(int(s), 0) != derive_seed(int(s), 1)


def test_derive_seed_avalanche():
    rng = np.random.default_rng(1)
    flips = []
    for _ in range(10000):
        s = int(rng.integers(0, 2 ** 63))
        bit = int(rng.integers(0, 64))
        a = derive_seed(s, 3)
        b = derive_seed(s ^ (1 << bit), 3)
        flips.append(bin(a ^ b).count("1"))
    assert np.mean(flips) >= 20.0


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_derive_seed_in_range(master, index):
    s = derive_seed(master, index)
    assert 0 <= s < 2 ** 64


# ------------------------------------------------------------ run_batch


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(runs=0)
    with pytest.raises(ValueError):
        small_config(steps=10)
    with pytest.raises(ValueError):
        small_config(workers=0)
    with pytest.raises(ValueError):
        small_config(engine="bogus")
    # the tail is checked with the config, before any run
    with pytest.raises(ValueError, match="must be in"):
        small_config(tail_fraction=1.5)
    with pytest.raises(ValueError, match="holds no step"):
        small_config(tail_fraction=1e-4)
    # the step bound is checked, never walked
    small_config(steps=walk.MAX_STEPS)
    with pytest.raises(ValueError, match="steps must be <= "):
        small_config(steps=walk.MAX_STEPS + 1)


def test_single_run_equals_pipeline():
    cfg = small_config(runs=1)
    res = mc.run_batch(cfg)
    traj = simulate(P21, cfg.steps, derive_seed(cfg.master_seed, 0))
    direct = detect_localization(traj, cfg.tail_fraction)
    s = res.summaries[0]
    assert s.window == direct.window
    assert s.profile == direct.profile


def test_worker_count_invariance():
    cfg1 = small_config(workers=1)
    cfg2 = small_config(workers=4)
    r1 = mc.run_batch(cfg1)
    r2 = mc.run_batch(cfg2)
    d1 = json.dumps(r1.aggregate.as_dict(), sort_keys=True)
    d2 = json.dumps(r2.aggregate.as_dict(), sort_keys=True)
    assert d1 == d2
    assert [s.window for s in r1.summaries] == \
        [s.window for s in r2.summaries]


def test_batch_reproducible():
    r1 = mc.run_batch(small_config())
    r2 = mc.run_batch(small_config())
    assert json.dumps(r1.aggregate.as_dict(), sort_keys=True) == \
        json.dumps(r2.aggregate.as_dict(), sort_keys=True)


def test_first_step_balance():
    cfg = small_config(runs=64, steps=1000)
    right = 0
    for i in range(cfg.runs):
        _, traj = mc.run_one(cfg.params, cfg.steps,
                             derive_seed(cfg.master_seed, i), cfg.engine,
                             cfg.tail_fraction, stops=(1,))
        right += traj.stops_at([1])[0].pos == 1
    frac = right / cfg.runs
    assert abs(frac - 0.5) <= 3 * 0.5 / np.sqrt(cfg.runs)


class RecordingThread:
    """Stands in for threading.Thread: counts the walkers made and runs
    each one's target when it starts, so no thread starts."""
    made = 0

    def __init__(self, target):
        type(self).made += 1
        self.target = target

    def start(self):
        self.target()

    def join(self):
        pass


_WALKERS = [(1, 2, 100000, 0), (3, 2, 100000, 1), (3, 16, 100000, 2),
            (8, 16, 1, 0), (8, 16, 3, 2)]


@pytest.mark.parametrize("runs, cpus, workers, threads, engine", [
    pytest.param(*case, "direct", id="-".join(map(str, case)))
    for case in _WALKERS] + [
    pytest.param(*case, "rubin", id="rubin-" + "-".join(map(str, case)))
    for case in _WALKERS[:3]])
def test_walker_count_is_capped(monkeypatch, runs, cpus, workers, threads,
                                engine):
    # the calling thread walks too, so min(workers, runs, cpus) - 1
    # threads, for either engine: a huge --workers starts no more
    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingThread, "made", 0)
    res = mc.run_batch(small_config(runs=runs, workers=workers,
                                    engine=engine))
    assert RecordingThread.made == threads
    assert res.aggregate.runs == runs


def test_walkers_claim_each_run_once(monkeypatch):
    # more walkers than cores, switching threads as often as the
    # interpreter allows: a run claimed twice or lost shows in the seeds
    # walked or in the summaries
    seeds = []

    def counting_simulate_many(params, steps, chunk, **kwargs):
        seeds.extend(chunk)
        return simulate_many(params, steps, chunk, **kwargs)

    cfg = small_config(runs=120, steps=1000)
    serial = mc.run_batch(cfg)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(mc, "simulate_many", counting_simulate_many)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc.run_batch(small_config(runs=120, steps=1000, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seeds) == sorted(derive_seed(555, i) for i in range(120))
    assert json.dumps([s.as_dict() for s in threaded.summaries]) == \
        json.dumps([s.as_dict() for s in serial.summaries])


def test_walker_error_surfaces(monkeypatch):
    # an error other than StuckWalkError in another thread's chunk stops
    # the batch: the calling thread waits in its first chunk until it is
    # raised
    caller = threading.current_thread()
    raised = threading.Event()

    def failing_simulate_many(*args, **kwargs):
        if threading.current_thread() is caller:
            raised.wait(timeout=30)
            return simulate_many(*args, **kwargs)
        raised.set()
        raise RuntimeError("walker failed")

    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc, "simulate_many", failing_simulate_many)
    with pytest.raises(RuntimeError, match="walker failed"):
        mc.run_batch(small_config(runs=50, workers=2))
    assert raised.is_set()


@pytest.mark.parametrize("workers", [1, 2])
def test_walker_error_stops_claims(monkeypatch, workers):
    # at 2 workers the recorder runs the first walker to its end before the
    # calling thread walks: neither may walk a chunk after the error
    calls = []

    def failing_simulate_many(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == 3:
            raise RuntimeError("walker failed")
        return simulate_many(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc, "simulate_many", failing_simulate_many)
    with pytest.raises(RuntimeError, match="walker failed"):
        mc.run_batch(small_config(runs=8, workers=workers))
    chunk = max(1, 8 // (4 * workers))
    assert calls == [[derive_seed(555, i) for i in range(j, j + chunk)]
                     for j in range(0, 3 * chunk, chunk)]


def test_threads_drop_each_walk_once_analyzed(monkeypatch):
    # a walker holds one chunk's walks at a time, never the whole batch's,
    # and drops each once analyzed: when a run is analyzed, only it and
    # the runs after it in its chunk of 2 hold a walk
    walks = []
    live = []

    def recording_simulate_many(*args, **kwargs):
        trajs = simulate_many(*args, **kwargs)
        walks.extend(weakref.ref(traj) for traj in trajs)
        return trajs

    def recording_analyze(traj, tail_fraction):
        live.append(sum(ref() is not None for ref in walks))
        return analyze(traj, tail_fraction)

    analyze = mc._analyze
    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc, "simulate_many", recording_simulate_many)
    monkeypatch.setattr(mc, "_analyze", recording_analyze)
    res = mc.run_batch(small_config(runs=20, workers=2))
    assert res.aggregate.runs == 20
    assert live == [2, 1] * 10


def test_direct_batch_calls_the_kernel_once_per_chunk_and_stop(monkeypatch):
    # 200 runs on 2 walkers: 8 chunks of 25 runs, each advanced to its
    # two stops in one call apiece, plus one call per round of walks
    # re-placed in a wider window; one call per run and stop would be 400
    kernels = _kernel.load()
    calls, placements = [], []
    many, place = kernels.stuck_walk_many, walk._KernelWalk._place

    def counting_many(*args):
        calls.append(args[2])
        return many(*args)

    def counting_place(self, lt, size):
        placements.append(size)
        place(self, lt, size)

    monkeypatch.setattr(kernels, "stuck_walk_many", counting_many)
    monkeypatch.setattr(walk._KernelWalk, "_place", counting_place)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    res = mc.run_batch(small_config(runs=200, steps=5000, workers=2))
    assert res.aggregate.runs == 200
    chunks = 200 // 25
    replaced = len(placements) - 200            # the first placements
    assert len(calls) <= 2 * chunks + replaced


def test_batch_compiles_the_kernels_once(tmp_path, monkeypatch):
    # on a cold cache the kernels are built before the walker threads
    # start, which would otherwise each find no library and build one
    compiles, compile_ = [], _kernel._compile

    def counting_compile(compiler, lib):
        compiles.append(lib)
        compile_(compiler, lib)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_compile", counting_compile)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    _kernel.load.cache_clear()
    try:
        res = mc.run_batch(small_config(runs=8, workers=4))
    finally:
        _kernel.load.cache_clear()
    assert res.aggregate.runs == 8
    assert len(compiles) == 1


def test_rubin_engine_batch():
    cfg = small_config(engine="rubin", runs=4)
    res = mc.run_batch(cfg)
    assert res.aggregate.runs == 4
    assert not res.failures


def test_rubin_walk_failure_is_one_record(tmp_path, monkeypatch):
    # a rubin walk that fails is that run's failure record, whether the
    # calling thread or the second walker thread walks it
    from stuckwalk.cli import parse_and_dispatch
    from stuckwalk.errors import ConstructionFailure

    failing = derive_seed(99, 37)
    made = []

    def failing_simulate(params, steps, seed, **kwargs):
        if seed == failing:
            raise ConstructionFailure("clock tie")
        return simulate(params, steps, seed, **kwargs)

    class CountingThread(threading.Thread):
        def __init__(self, target):
            made.append(target)
            super().__init__(target=target)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc, "simulate", failing_simulate)
    outs = []
    for workers in ("1", "2"):
        path = tmp_path / f"agg{workers}.json"
        assert parse_and_dispatch(
            ["batch", "--engine", "rubin", "--alpha", "2", "--beta", "1",
             "--steps", "1000", "--runs", "100", "--seed", "99",
             "--workers", workers, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert len(made) == 1               # the 2-worker batch's second walker
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["failures"] == [
        {"run": 37, "seed": failing, "reason": "ConstructionFailure: clock tie"}]


# ------------------------------------------------------------ run_one


def test_range_saturation_alpha2():
    # the visited range stops growing: the stops at 1e4 and 2e4 steps
    frozen = 0
    for i in range(20):
        _, traj = mc.run_one(P21, 20000, derive_seed(555, i), "direct", 0.5,
                             stops=(10000, 20000))
        (lo1, hi1), (lo2, hi2) = [(s.lo, s.hi)
                                  for s in traj.stops_at([10000, 20000])]
        assert lo2 <= lo1 and hi2 >= hi1  # ranges only grow
        frozen += (lo1, hi1) == (lo2, hi2)
    assert frozen / 20 >= 0.9


# sha256 of each run's summary, sustain threshold and checkpoint ranges,
# as the criterion 6-8 fixture of tests/test_acceptance.py records them,
# taken before that fixture and the batch shared ``run_one``; the
# threshold is recomputed as detect_localization computes it
@pytest.mark.parametrize("alpha, steps, master, checkpoints, digest", [
    (2.0, 20000, 424242, (2000, 20000),
     "54d1653c44a3359a914043e38fb81dace6b95ca18657ad3964b073cddb150e2e"),
    (0.8, 30000, 434343, (3000, 30000),
     "3fdf114f0f38f3f4ca68b19a276f3e2c7da92fe2b9757060bd61966a945dec9c"),
])
def test_run_one_golden(alpha, steps, master, checkpoints, digest):
    params = Params.make(alpha, 1.0)
    records = []
    for i in range(20):
        summary, traj = mc.run_one(params, steps, derive_seed(master, i),
                                   "direct", 0.5, stops=checkpoints)
        records.append({
            "summary": summary.as_dict(),
            "sustain_threshold": (steps - analysis.tail_start(steps, 0.5))
            / (analysis.SUSTAIN_DIVISOR * summary.size),
            "ranges": [(s.lo, s.hi) for s in traj.stops_at(checkpoints)]})
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
