import ctypes
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stuckwalk
from stuckwalk import _kernel, cli, mc, rng, walk
from stuckwalk.cli import parse_and_dispatch
from stuckwalk.errors import CapacityError
from stuckwalk.spectrum import Params

import oracles

P21 = Params.make(2.0, 1.0)
P205 = Params.make(2.0, 0.5)


def make_state(positions, alpha=2.0, beta=1.0):
    """Replay a position sequence through the incremental state."""
    state = walk.WalkState(alpha=alpha, beta=beta)
    for prev, cur in zip(positions, positions[1:]):
        state.apply_move(cur - prev)
    return state


# ------------------------------------------------------------ local stream


def test_local_stream_fresh_state_zero():
    state = walk.WalkState(alpha=2.0, beta=1.0)
    for j in (-3, 0, 1, 7):
        assert walk.local_stream(state, j) == 0.0


def test_local_stream_after_one_right_step():
    state = make_state([0, 1])
    assert walk.local_stream(state, 1) == pytest.approx(1.0)


def test_local_stream_after_two_right_steps():
    state = make_state([0, 1, 2])
    # l(1)=l(2)=1: Delta(2) = -2*1 + 1 = -1
    assert walk.local_stream(state, 2) == pytest.approx(-1.0)


# ------------------------------------------------------------ step prob


def test_step_prob_initial_half():
    state = walk.WalkState(alpha=2.0, beta=1.0)
    assert walk.step_prob_right(state) == 0.5


def test_step_prob_after_one_step():
    state = make_state([0, 1])
    assert walk.step_prob_right(state) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_step_prob_saturates_without_overflow():
    assert walk.logistic_prob(2.0e6) == 1.0
    assert walk.logistic_prob(-2.0e6) == 0.0
    assert walk.logistic_prob(-1e9) == 0.0


def test_step_moves_right_below_threshold():
    state = walk.WalkState(alpha=2.0, beta=1.0)
    oracles.step(state, 0.3)
    assert state.pos == 1
    oracles.step(walk.WalkState(alpha=2.0, beta=1.0), 0.7)


# ------------------------------------------------------------ simulate


def test_simulate_zero_steps():
    traj = walk.simulate(P21, 0, seed=1)
    assert traj.positions == [0]


def test_simulate_rejects_negative_arguments(capsys):
    with pytest.raises(ValueError):
        walk.simulate(P21, -1, seed=1)
    with pytest.raises(ValueError):
        walk.simulate(P21, 10, seed=1, stops=(-5,))
    assert parse_and_dispatch([
        "simulate", "--alpha", "2", "--beta", "1", "--steps", "10",
        "--seed", "1", "--snapshot-every", "-5"]) == 1
    assert "snapshot_every must be >= 0, got -5" in capsys.readouterr().err


def test_simulate_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        walk.simulate(P21, 10, seed=1, engine="bogus")


def test_simulate_deterministic():
    a = walk.simulate(P21, 10, seed=12345)
    b = walk.simulate(P21, 10, seed=12345)
    assert a.positions == b.positions


def test_engines_agree():
    a = walk.simulate(P21, 3000, seed=99)
    b = oracles.simulate(P21, 3000, seed=99)
    assert a.positions == b.positions


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.floats(min_value=0.01, max_value=30.0),
       steps=st.sampled_from([1, 4999, 16383, 16384, 16385, 40001])
       | st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       period=st.sampled_from([0, 977, 16384, None]))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(alpha, beta, steps, seed, period):
    # None: about 50 snapshots, one per step on short walks
    every = max(1, steps // 50) if period is None else period
    marks = range(every, steps + 1, every) if every else ()
    params = Params.make(alpha, beta)
    a = walk.simulate(params, steps, seed, stops=marks)
    walker = oracles.ReferenceWalk(params, seed, True)
    b = walk._drive(walker, steps, list(marks))
    assert a.positions == walker.path()
    assert ([a.stops[k].snapshot() for k in marks]
            == [b[k].snapshot() for k in marks])


# ------------------------------------------------------------ kernel build

@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36])
       | st.floats(min_value=0.34, max_value=3.0),
       beta=st.floats(min_value=0.01, max_value=30.0),
       lts=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=4, max_size=4))
# x = 2 beta Delta: at alpha = 2, beta = 1 an integer, so on a cell edge
# of the kernel's bracket; then -40 and 40, and 2^-40 inside each
@example(alpha=2.0, beta=1.0, lts=[0, 3, 1, 0])
@example(alpha=2.0, beta=1.0, lts=[0, 0, 20, 0])
@example(alpha=2.0, beta=1.0, lts=[0, 20, 0, 0])
@example(alpha=2.0, beta=20.0 - 2.0 ** -41, lts=[0, 0, 1, 0])
@example(alpha=2.0, beta=20.0 - 2.0 ** -41, lts=[0, 1, 0, 0])
@settings(max_examples=300, deadline=None)
def test_kernel_step_probability_is_bit_identical(alpha, beta, lts):
    # stuck_step_prob is the p that stuck_walk_steps compares u with
    state = walk.WalkState(alpha=alpha, beta=beta,
                           edge_lt=dict(zip((-1, 0, 1, 2), lts)))
    p = walk.step_prob_right(state)
    kernels = _kernel.load()
    lt = np.array([0, 0, *lts, 0, 0], dtype=np.int64)   # edges -3..4
    got = kernels.stuck_step_prob(alpha, 2.0 * beta, lt.ctypes.data + 8 * 3)
    assert got.hex() == p.hex()
    # u == p must step left and the next draw below p must step right;
    # the kernel's draws are the multiples of 2^-53 in [0, 1), fed here
    # through the generator's buffer words
    for u, expected in ((p, -1), (p - 2.0 ** -53, 1)):
        if not 0.0 <= u < 1.0 or u * 2.0 ** 53 != int(u * 2.0 ** 53):
            continue
        # pos, lo, hi, first, last, then key, counter, buffer, used
        words = np.array([0, 0, 0, 0, 0, int(u * 2.0 ** 53) << 11, 0, 0, 0,
                          0], dtype=np.uint64)
        kstate = np.concatenate([[0, 0, 0, -3, 4], words.view(np.int64)])
        out = np.zeros(1, dtype=np.int64)
        kernels.stuck_walk_steps(alpha, 2.0 * beta, lt.ctypes.data + 8 * 3,
                                 1, kstate.ctypes.data, out.ctypes.data)
        assert out[0] == expected, (p, u)


@given(alpha=st.sampled_from([2.0, 0.8, 0.45]),
       beta=st.sampled_from([0.05, 1.0, 3.0]),
       seed=st.sampled_from([0, 2 ** 64 - 1, -1, -(2 ** 70) - 3,
                             2 ** 64 + 3, 2 ** 80 + 2 ** 63])
       | st.integers(min_value=-(2 ** 66), max_value=2 ** 66),
       steps=st.sampled_from([1, 3, 5, 16385, 40001])
       | st.integers(min_value=0, max_value=3000),
       marks=st.lists(st.integers(min_value=0, max_value=40001),
                      max_size=5))
@settings(max_examples=60, deadline=None)
def test_kernel_draws_numpys_philox_stream(alpha, beta, seed, steps, marks):
    # after the walk the kernel's generator words are numpy's state after
    # random(steps), and the walk is the Python stepper's
    params = Params.make(alpha, beta)
    marks = sorted({k % (steps + 1) for k in marks})
    group = walk._KernelGroup(_kernel.load(), params, steps, [seed], True)
    records = walk._drive(group, steps, marks)
    [walker] = group.walks
    gen = oracles.philox(seed)
    gen.random(steps)
    words = np.asarray(walker.state)[5:].view(np.uint64).tolist()
    assert words == oracles.philox_words(gen)
    assert words[0] == seed % 2 ** 64
    ref = oracles.simulate(params, steps, seed, stops=marks)
    assert walker.path() == ref.positions
    assert ([records[k][0].snapshot() for k in marks]
            == [ref.stops[k].snapshot() for k in marks])


@given(alpha=st.sampled_from([2.0, 0.8, 0.45, 0.36]),
       beta=st.floats(min_value=0.01, max_value=30.0),
       steps=st.sampled_from([1, 4999, 16383, 16384, 16385, 40001])
       | st.integers(min_value=0, max_value=3000),
       seeds=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                      min_size=1, max_size=6, unique=True),
       period=st.sampled_from([0, 977, 16384, None]))
@settings(max_examples=40, deadline=None)
def test_kernel_group_matches_reference(alpha, beta, steps, seeds, period):
    # a 4-edge first window makes the walks of one group outgrow their
    # windows at different steps, so most calls after the first advance
    # only some of them; each walk is still its seed's reference walk
    every = max(1, steps // 50) if period is None else period
    marks = list(range(every, steps + 1, every)) if every else []
    params = Params.make(alpha, beta)
    with mock.patch.object(walk, "_WINDOW0", 4):
        group = walk._KernelGroup(_kernel.load(), params, steps, seeds, True)
        records = walk._drive(group, steps, marks)
    for i, (seed, walker) in enumerate(zip(seeds, group.walks)):
        ref = oracles.ReferenceWalk(params, seed, True)
        ref_records = walk._drive(ref, steps, marks)
        assert walker.path() == ref.path()
        assert ([records[k][i].snapshot() for k in marks]
                == [ref_records[k].snapshot() for k in marks])
        words = np.asarray(walker.state)[5:].view(np.uint64).tolist()
        assert words == oracles.philox_words(ref.gen)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -1, 2 ** 64 + 3])
def test_philox_record_is_a_fresh_generator(seed):
    # the words the kernel starts from are those of a fresh philox(seed),
    # and a fresh kernel walk holds them
    words = rng.philox_record(seed).tolist()
    assert words == oracles.philox_words(oracles.philox(seed))
    group = walk._KernelGroup(_kernel.load(), P21, 0, [seed], False)
    [walker] = group.walks
    assert np.asarray(walker.state)[5:].view(np.uint64).tolist() == words


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "stuckwalk"
    _kernel.load.cache_clear()


def test_kernel_builds_and_loads(empty_cache):
    assert _kernel.load() is not None
    assert [p.suffix for p in empty_cache.iterdir()] == [".so"]


@pytest.mark.parametrize("compiler", ["broken", "missing"])
def test_cli_fails_without_a_working_compiler(empty_cache, tmp_path,
                                              monkeypatch, capsys, compiler):
    # a compiler that fails its build, or none on PATH: simulate exits 1
    # with one error line naming it, and the cache holds no library
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler == "broken":
        fake = bin_dir / _kernel.COMPILER
        fake.write_text("#!/bin/sh\necho broken >&2\nexit 1\n")
        fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    assert parse_and_dispatch(["simulate", "--alpha", "2", "--beta", "1",
                               "--steps", "10", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("stuckwalk: error: ")
    assert (os.path.realpath(bin_dir / _kernel.COMPILER)
            if compiler == "broken" else repr(_kernel.COMPILER)) in line
    # and the compiler's own last word on why
    assert compiler != "broken" or line.endswith(" broken")
    assert not empty_cache.exists() or list(empty_cache.iterdir()) == []


def _cli_bytes(tmp_path, tag):
    out = tmp_path / f"{tag}.csv"
    agg = tmp_path / f"{tag}.json"
    assert parse_and_dispatch([
        "simulate", "--alpha", "0.8", "--beta", "1", "--steps", "20000",
        "--seed", "5", "--snapshot-every", "7000", "--out", str(out)]) == 0
    assert parse_and_dispatch([
        "batch", "--alpha", "2", "--beta", "1", "--steps", "2000",
        "--runs", "3", "--seed", "5", "--out", str(agg)]) == 0
    return [p.read_bytes() for p in
            (out, tmp_path / f"{tag}.csv.snapshots.json", agg)]


def test_fallback_gives_same_bytes(tmp_path, monkeypatch):
    # the CLI's bytes from kernel walks and from the oracle stepper's
    compiled = _cli_bytes(tmp_path, "kernel")
    monkeypatch.setattr(cli, "simulate", oracles.simulate)
    monkeypatch.setattr(mc, "simulate_many", oracles.simulate_many)
    assert _cli_bytes(tmp_path, "fallback") == compiled


def _env_with_src(**extra):
    src = os.path.dirname(os.path.dirname(stuckwalk.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_import_builds_no_kernel(tmp_path):
    code = ("from stuckwalk import _kernel, cli, mc, rubin\n"
            "assert _kernel.load.cache_info().misses == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=_env_with_src(XDG_CACHE_HOME=str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


def test_concurrent_cold_builds(tmp_path):
    env = _env_with_src(XDG_CACHE_HOME=str(tmp_path))
    code = ("from stuckwalk import _kernel, walk, spectrum\n"
            "assert _kernel.load() is not None\n"
            "p = spectrum.Params.make(2.0, 1.0)\n"
            "print(walk.simulate(p, 3000, 99).positions[-1])\n")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    results = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], results
    expected = oracles.simulate(P21, 3000, 99).positions[-1]
    assert [int(out) for out, _ in results] == [expected, expected]
    files = list((tmp_path / "stuckwalk").iterdir())
    assert len(files) == 1 and files[0].suffix == ".so"
    assert ctypes.CDLL(str(files[0])).stuck_walk_steps


def test_simulate_range_stays_small():
    traj = walk.simulate(P21, 100000, seed=4)
    assert max(traj.positions) - min(traj.positions) <= 40


def test_incremental_matches_recount():
    traj = walk.simulate(P21, 10000, seed=11)
    state = make_state(traj.positions)
    assert dict(state.edge_lt) == {
        j: c for j, c in walk.recount_local_times(traj.positions).items()
        if c}


def test_local_time_conservation():
    traj = walk.simulate(P205, 4321, seed=8)
    lt = walk.recount_local_times(traj.positions)
    assert sum(lt.values()) == 4321


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
@settings(max_examples=20, deadline=None)
def test_simulate_steps_of_unit_size(seed):
    traj = walk.simulate(P21, 200, seed=seed)
    assert traj.positions[0] == 0
    assert all(abs(a - b) == 1
               for a, b in zip(traj.positions, traj.positions[1:]))


def test_snapshots():
    traj = walk.simulate(P21, 1000, seed=2, stops=(500, 1000))
    snapshots = [traj.stops[k].snapshot() for k in (500, 1000)]
    assert [s["step"] for s in snapshots] == [500, 1000]
    assert sum(snapshots[0]["edge_local_times"].values()) == 500


# ------------------------------------------------------------ exact law


def test_exact_law_horizon1():
    law = walk.exact_path_law(P21, 1)
    assert law[(1,)] == 0.5
    assert law[(-1,)] == 0.5


def test_exact_law_horizon2_example():
    law = walk.exact_path_law(P21, 2)
    assert law[(1, 2)] == pytest.approx(0.5 / (1.0 + math.exp(-2.0)),
                                        abs=1e-12)


def test_exact_law_normalizes():
    law = walk.exact_path_law(P21, 10)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_law_sign_flip_invariance():
    for horizon in (4, 7):
        law = walk.exact_path_law(P205, horizon)
        for path, p in law.items():
            flipped = tuple(-x for x in path)
            assert law[flipped] == pytest.approx(p, rel=1e-12)


def test_exact_law_capacity():
    with pytest.raises(CapacityError):
        walk.exact_path_law(P21, 15)


def test_empirical_matches_exact_law():
    # frequency of each horizon-4 path over many runs vs exact law
    horizon, n = 4, 20000
    law = walk.exact_path_law(P21, horizon)
    counts = {}
    for i in range(n):
        traj = walk.simulate(P21, horizon, seed=1000 + i)
        key = tuple(traj.positions[1:])
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(p, 0) / n - q) for p, q in law.items())
    assert tv < 0.02


def test_exact_law_rejects_negative_horizon():
    with pytest.raises(ValueError):
        walk.exact_path_law(P21, -1)
