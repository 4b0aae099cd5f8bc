import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stuckwalk import cli, errors, mc
from stuckwalk.cli import load_config_file, parse_and_dispatch
from stuckwalk.spectrum import Params
from stuckwalk.walk import ENGINES, simulate as walk_simulate

import oracles


def run(argv):
    return parse_and_dispatch(argv)


def test_thresholds_csv(tmp_path, capsys):
    rc = run(["thresholds", "--max-L", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "L,alpha_L"
    assert lines[1] == "1,inf"
    assert len(lines) == 6


def test_linsys_json(capsys):
    rc = run(["linsys", "--alpha", "2", "--K", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l"] == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)
    assert payload["d0"] == pytest.approx(0.5, abs=1e-12)
    assert payload["c_oracle"] == pytest.approx(0.5, abs=1e-10)
    assert payload["prng"]
    assert payload["version"]


def test_linsys_scan(capsys):
    rc = run(["linsys", "--alpha", "2", "--scan-to", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "K,d0_sign,dK1_sign,feasible" in out


@pytest.mark.parametrize("values, flag", [
    ({"K": "1"}, "--K"),
    ({"lk2": "0.3"}, "--lk2"),
    ({"K": "1", "lk2": "0.3"}, "--K"),
])
@pytest.mark.parametrize("via_config", [False, True])
def test_linsys_option_the_scan_drops_is_usage_error(
        tmp_path, monkeypatch, capsys, values, flag, via_config):
    # the sign scan reads alpha and scan_to only; a K or lK2 it would
    # ignore is refused, whether a flag or the config file sets it
    monkeypatch.chdir(tmp_path)
    values = {"alpha": "2", "scan_to": "3", **values}
    if via_config:
        (tmp_path / "cfg.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = ["linsys", "--config", "cfg.txt"]
    else:
        argv = ["linsys"] + [a for k, v in values.items()
                             for a in (cli._flag(k), v)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--scan-to takes no {flag}\n" in captured.err


def test_unknown_flag_usage_error():
    assert run(["thresholds", "--bogus"]) == 2


def test_unknown_subcommand_usage_error():
    assert run(["frobnicate"]) == 2


def test_no_subcommand_usage_error():
    assert run([]) == 2


def test_simulate_requires_seed():
    rc = run(["simulate", "--alpha", "2", "--beta", "1",
              "--steps", "1000"])
    assert rc == 2


def test_simulate_and_analyze_roundtrip(tmp_path):
    traj_path = tmp_path / "traj.csv"
    rc = run(["simulate", "--alpha", "2", "--beta", "1", "--steps", "20000",
              "--seed", "31", "--out", str(traj_path)])
    assert rc == 0
    text = traj_path.read_text()
    assert text.splitlines()[0].startswith("#")
    assert "step,position" in text

    summary_path = tmp_path / "summary.json"
    rc = run(["analyze", "--in", str(traj_path), "--alpha", "2",
              "--beta", "1", "--out", str(summary_path)])
    assert rc == 0
    payload = json.loads(summary_path.read_text())
    assert payload["size"] >= 2
    assert payload["window"][0] <= payload["window"][1]
    assert sum(payload["profile"]) == pytest.approx(1.0, abs=1e-9)


def test_simulate_golden_stability(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--alpha", "2", "--beta", "1", "--steps", "2000",
            "--seed", "7"]
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_batch_worker_invariance(tmp_path, monkeypatch):
    # with the kernel, --workers 4 walks on threads and starts no pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    outs = []
    for i, workers in enumerate(("1", "4")):
        path = tmp_path / f"agg{i}.json"
        rc = run(["batch", "--alpha", "2", "--beta", "1", "--steps", "2000",
                  "--runs", "6", "--seed", "99", "--workers", workers,
                  "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["runs"] == 6
    assert payload["seed"] == 99 if "seed" in payload else True
    assert "failures" in payload


def test_batch_pool_gives_serial_bytes(tmp_path, monkeypatch):
    # rubin walks race in the kernel on the batch's pool of walker
    # threads, as direct walks do
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    outs = []
    for workers in ("2", "1"):
        path = tmp_path / f"agg{workers}.json"
        assert run(["batch", "--engine", "rubin", "--alpha", "0.8",
                    "--beta", "1", "--steps", "2000", "--runs", "6",
                    "--seed", "99", "--workers", workers, "--out",
                    str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_batch_threads_give_serial_bytes(tmp_path, monkeypatch):
    # one run fails; its failure record must not depend on which thread
    # walked it.  Direct walks cannot fail, so its analysis does: the
    # analysis of run 37's walk, whichever chunk and thread it is in
    failing = mc.derive_seed(99, 37)
    doomed = []                         # the walks of run 37

    def walk_many(params, steps, seeds, **kwargs):
        trajs = mc_simulate_many(params, steps, seeds, **kwargs)
        doomed.extend(t for seed, t in zip(seeds, trajs) if seed == failing)
        return trajs

    def analyze(traj, tail_fraction):
        if any(traj is t for t in doomed):
            raise errors.CapacityError("walk failed")
        return mc_analyze(traj, tail_fraction)

    mc_simulate_many, mc_analyze = mc.simulate_many, mc._analyze
    monkeypatch.setattr(mc, "simulate_many", walk_many)
    monkeypatch.setattr(mc, "_analyze", analyze)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    outs = []
    for workers in ("1", "2", "4"):
        path = tmp_path / f"agg{workers}.json"
        assert run(["batch", "--alpha", "2", "--beta", "1", "--steps",
                    "1000", "--runs", "100", "--seed", "99", "--workers",
                    workers, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["failures"] == [
        {"run": 37, "seed": failing, "reason": "CapacityError: walk failed"}]


def test_batch_requires_seed():
    rc = run(["batch", "--alpha", "2", "--beta", "1", "--steps", "2000",
              "--runs", "2"])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("alpha = 2\n# comment line\nK = 1\n")
    out = tmp_path / "out.json"
    rc = run(["linsys", "--config", str(cfg), "--K", "0",
              "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["K"] == 0  # flag beats file
    assert payload["l"] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("this is not a key value pair\n")
    with pytest.raises(ValueError):
        load_config_file(str(cfg))
    rc = run(["linsys", "--config", str(cfg), "--alpha", "2", "--K", "0"])
    assert rc == 1


def test_verify_none_suite_usage_error():
    assert run(["verify", "--suite", "none"]) == 2


def test_verify_missing_suite_usage_error():
    assert run(["verify"]) == 2


def test_verify_linsys_suite(capsys):
    rc = run(["verify", "--suite", "linsys"])
    assert rc == 0
    assert "linsys: PASS" in capsys.readouterr().out


def test_verify_rubin_suite_small(capsys):
    rc = run(["verify", "--suite", "rubin", "--horizon", "5",
              "--runs", "20000", "--seed", "11"])
    assert rc == 0
    assert "rubin: PASS" in capsys.readouterr().out


def test_rubin_simulate_with_ty_out(tmp_path):
    traj_path = tmp_path / "t.csv"
    ty_path = tmp_path / "ty.json"
    rc = run(["simulate", "--engine", "rubin", "--alpha", "2", "--beta", "1",
              "--steps", "2000", "--seed", "5", "--out", str(traj_path),
              "--ty-out", str(ty_path)])
    assert rc == 0
    ty = json.loads(ty_path.read_text())["ty"]
    assert all("tail_fraction" in rec for rec in ty.values())


def test_verify_walk_suite(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "walk", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "walk: PASS" in capsys.readouterr().out
    assert json.loads(out.read_text())["walk_local_times_ok"] is True


def bump_interior_edge(traj):
    # +2 keeps the edge's parity
    for stop in traj.stops.values():
        stop.lt[1] += 2


def stretch_a_right_step(traj):
    # the first +1 step becomes +3; every later step is kept
    path = traj.positions
    k = next(i for i in range(traj.steps) if path[i + 1] == path[i] + 1)
    path[k + 1:] = [x + 2 for x in path[k + 1:]]


@pytest.mark.parametrize("corrupt", [bump_interior_edge,
                                     stretch_a_right_step])
def test_verify_walk_suite_fails_on_bad_kernel_output(tmp_path, capsys,
                                                     monkeypatch, corrupt):
    def simulate(*args, **kwargs):
        traj = walk_simulate(*args, **kwargs)
        corrupt(traj)
        return traj

    monkeypatch.setattr(cli, "simulate", simulate)
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "walk", "--out", str(out)]) == 1
    assert capsys.readouterr().out == "walk: FAIL\n"
    assert json.loads(out.read_text())["walk_local_times_ok"] is False


@pytest.mark.parametrize("command, text, named", [
    ("linsys", "alpha = 2\nalpah = 2\nK = 1\n", "unknown config key 'alpah'"),
    ("linsys", "alpha = 2\nK = 1.5\n", "K = '1.5' is not a valid int"),
    ("simulate", "alpha = 2\nbeta = 1\nsteps = 1e5\nseed = 1\n",
     "steps = '1e5' is not a valid int"),
    ("simulate", "alpha = 2\nbeta = 1\nsteps = 10\nseed = 1\nengine = bogus\n",
     "engine = 'bogus' is not one of direct, rubin"),
    ("batch", "alpha = 2\nbeta = 1\nsteps = 2000\nruns = 2\nseed = 1\n"
     "engine = bogus\n",
     "engine = 'bogus' is not one of direct, rubin"),
])
def test_config_file_bad_key_or_value_is_usage_error(tmp_path, capsys,
                                                     command, text, named):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("rows, lineno", [
    ("0,1\n1,2\n", 2),           # does not start at 0
    ("0,0\n1,1\n2,3\n", 4),      # a step of +2
    ("0,0\n1,1\n2,1\n", 4),      # a step of 0
    ("0,0\n1,x\n", 3),           # unparsable position
    ("0,0\n1,1,0\n", 3),         # extra field
    ("0,0\n1\n", 3),             # missing field
    ("1,0\n2,1\n", 2),           # does not start at step 0
    ("0,0\n1,1\n1,0\n", 4),      # a repeated step
    ("0,0\n1,1\n3,0\n", 4),      # a skipped step
])
def test_analyze_rejects_malformed_trajectory(tmp_path, capsys, rows, lineno):
    path = tmp_path / "bad.csv"
    path.write_text("step,position\n" + rows)
    rc = run(["analyze", "--in", str(path), "--alpha", "2", "--beta", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:{lineno}:" in captured.err


def test_analyze_rejects_empty_trajectory(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("# comment\nstep,position\n")
    assert run(["analyze", "--in", str(path), "--alpha", "2",
                "--beta", "1"]) == 1
    assert "no trajectory rows" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_analyze_non_localized_output_is_strict_json(tmp_path):
    # 1900 steps rocking on {0, 1}, then a ramp out to 10: the ramp's
    # sites get one tail visit each, below the sustain threshold of 9
    positions = [i % 2 for i in range(1900)] + list(range(2, 11))
    csv = tmp_path / "walk.csv"
    csv.write_text("step,position\n" + "".join(
        f"{k},{p}\n" for k, p in enumerate(positions)))
    out = tmp_path / "summary.json"
    assert run(["analyze", "--in", str(csv), "--alpha", "2", "--beta", "1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["localized"] is False
    assert payload["deviation"] is None


def test_analyze_window_without_closed_form(tmp_path):
    # 3000 steps bouncing over sites 0..5: a localized window of 6 sites,
    # beyond L+3 = 4 at alpha 2, so no profile to compare
    positions = [5 - abs(5 - k % 10) for k in range(3001)]
    csv = tmp_path / "walk.csv"
    csv.write_text("step,position\n" + "".join(
        f"{k},{p}\n" for k, p in enumerate(positions)))
    out = tmp_path / "summary.json"
    assert run(["analyze", "--in", str(csv), "--alpha", "2", "--beta", "1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["localized"] is True
    assert payload["size"] == 6
    assert payload["deviation"] is None


# ------------------------------------------------------------ option table

# Small-size invocations that together set every option of every
# subcommand; each option is also given through a config file below.
INVOCATIONS = [
    ("thresholds", {"max_L": "4", "out": "o.csv"}),
    ("linsys", {"alpha": "2", "K": "2", "lk2": "0.1", "out": "o.json"}),
    ("linsys", {"alpha": "0.8", "scan_to": "4"}),
    ("simulate", {"alpha": "0.8", "beta": "1", "steps": "2000", "seed": "3",
                  "engine": "direct", "snapshot_every": "700",
                  "out": "o.csv"}),
    ("simulate", {"alpha": "2", "beta": "1", "steps": "300", "seed": "3",
                  "engine": "rubin", "ty_out": "ty.json"}),
    ("analyze", {"infile": "walk.csv", "alpha": "2", "beta": "1",
                 "tail": "0.4", "out": "o.json"}),
    ("batch", {"alpha": "2", "beta": "1", "steps": "1000", "runs": "2",
               "seed": "5", "workers": "2", "engine": "direct",
               "tail": "0.4", "out": "o.json"}),
    ("verify", {"suite": "rubin", "horizon": "3", "runs": "10",
                "seed": "7", "out": "o.json"}),
]


def test_every_option_has_a_config_case():
    covered = {(cmd, key) for cmd, values in INVOCATIONS for key in values}
    assert covered == {(cmd, key) for cmd, opts in cli.OPTIONS.items()
                       for key in opts}


def _outputs(directory, capsys, argv):
    (directory / "walk.csv").write_text(
        "step,position\n" + "".join(f"{k},{k % 2}\n" for k in range(1200)))
    rc = run(argv)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())
             if p.name != "cfg.txt"}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("command, values, key", [
    (cmd, values, key) for cmd, values in INVOCATIONS for key in values],
    ids=lambda v: v if isinstance(v, str) else "")
def test_config_value_equals_flag(tmp_path, monkeypatch, capsys, command,
                                  values, key):
    results = []
    for via_config in (False, True):
        directory = tmp_path / str(via_config)
        directory.mkdir()
        monkeypatch.chdir(directory)
        argv = [command]
        for k, v in values.items():
            if not (via_config and k == key):
                argv += [cli._flag(k), v]
        if via_config:
            (directory / "cfg.txt").write_text(f"{key} = {values[key]}\n")
            argv += ["--config", "cfg.txt"]
        results.append(_outputs(directory, capsys, argv))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)      # verify exits 1 on a failed suite


def test_batch_fallback_matches_kernel(capsys, monkeypatch):
    # the batch from kernel walks and from the oracle stepper's
    outs = []
    for walker in (None, oracles.simulate_many):
        if walker is not None:
            monkeypatch.setattr(mc, "simulate_many", walker)
        assert run(["batch", "--alpha", "2", "--beta", "1", "--steps",
                    "2000", "--runs", "3", "--seed", "8"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# sha256 of the CSV and the .snapshots.json written by
# `simulate --snapshot-every` before snapshots became stops
@pytest.mark.parametrize("argv, csv_sha, snapshots_sha", [
    (["--alpha", "0.8", "--steps", "20000", "--seed", "5",
      "--snapshot-every", "7000"],
     "194eefc5f707d9cb65503cdc1f725e488dd778a97bf1d8a7dd88688b93bcdb86",
     "968b68d9996da88a8682bf35b23acad921a500fbbabc02090cfeeb1ec65789d5"),
    (["--alpha", "2", "--steps", "3000", "--seed", "11",
      "--snapshot-every", "1000"],
     "b5e39df7f5c1ac8c69626f03dcb88b3fbd2c79a0bd66315678c9dc0772809220",
     "cd160161704ef0d963227e23d962bf0aa262bad7fe898f75fdb684fa8212c893"),
])
def test_snapshot_golden(tmp_path, argv, csv_sha, snapshots_sha):
    out = tmp_path / "g.csv"
    assert run(["simulate", "--beta", "1", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    snapshots = tmp_path / "g.csv.snapshots.json"
    assert hashlib.sha256(snapshots.read_bytes()).hexdigest() == snapshots_sha


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the rubin engine's outputs, taken while it still kept its
# clocks in a ClockBank with a tail snapshot
def test_rubin_simulate_golden(tmp_path):
    out, ty = tmp_path / "r.csv", tmp_path / "ty.json"
    assert run(["simulate", "--engine", "rubin", "--alpha", "0.8",
                "--beta", "1", "--steps", "3000", "--seed", "7",
                "--out", str(out), "--ty-out", str(ty)]) == 0
    assert _sha(out) == \
        "fae82f03958397f7593a35a0b35c7441739276012c399edb349b5136d37cbb0c"
    assert _sha(ty) == \
        "0fcfacd28b0847b80deee423d27eaea20fef6f49f37b8251d9635defd5381a1e"


def test_rubin_snapshots_are_the_recorded_stops(tmp_path):
    # the same run as test_rubin_simulate_golden, with snapshots: they are
    # the Stops a rubin walk records, and the CSV does not change
    out = tmp_path / "r.csv"
    assert run(["simulate", "--engine", "rubin", "--alpha", "0.8", "--beta",
                "1", "--steps", "3000", "--seed", "7", "--snapshot-every",
                "700", "--out", str(out)]) == 0
    assert _sha(out) == \
        "fae82f03958397f7593a35a0b35c7441739276012c399edb349b5136d37cbb0c"
    marks = range(700, 3001, 700)
    traj = walk_simulate(Params.make(0.8, 1.0), 3000, 7, stops=marks,
                         keep_path=False, engine="rubin")
    payload = json.loads((tmp_path / "r.csv.snapshots.json").read_text())
    assert payload["snapshots"] == [traj.stops[k].snapshot() for k in marks]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_rubin_batch_golden(tmp_path, monkeypatch, workers):
    # at 2 workers the rubin walks run in the process pool
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    out = tmp_path / "agg.json"
    assert run(["batch", "--engine", "rubin", "--alpha", "2", "--beta", "1",
                "--runs", "4", "--steps", "2000", "--seed", "3",
                "--workers", workers, "--out", str(out)]) == 0
    assert _sha(out) == \
        "ad571088ca0bc47ee8fa15af957d1c9494d02041b28d0b5d49c4dbb1778279a8"


# ------------------------------------------------------------ bad input


@pytest.mark.parametrize("flag, value", [
    ("--beta", "nan"), ("--beta", "inf"), ("--alpha", "nan"),
    ("--alpha", "inf"), ("--beta", "1e308")])
def test_simulate_rejects_non_finite_parameters(capsys, flag, value):
    # argparse keeps the last of a repeated flag
    assert run(["simulate", "--alpha", "2", "--beta", "1", flag, value,
                "--steps", "100", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha and beta must be finite" in captured.err
    assert "overflowing" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "rubin", "--runs", "0"], "runs must be >= 1"),
    (["verify", "--suite", "rubin", "--horizon", "0"], "horizon must be >= 1"),
    (["verify", "--suite", "rubin", "--horizon", "-1"],
     "horizon must be >= 1"),
    (["batch", "--alpha", "2", "--beta", "1", "--steps", "2000", "--runs",
      "2", "--seed", "1", "--workers", "0"], "workers must be >= 1"),
    (["thresholds", "--max-L", "0"], "max_L must be >= 1"),
    (["thresholds", "--max-L", "-3"], "max_L must be >= 1"),
])
def test_size_options_below_one_are_errors(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"stuckwalk: error: {message}, got" in captured.err


@pytest.mark.parametrize("command", ["batch", "simulate"])
def test_oversized_steps_are_one_error_line(capsys, command):
    # 1e20 steps overflow the walk's 64-bit counters, so they are refused
    # before any step
    argv = [command, "--alpha", "2", "--beta", "1", "--steps",
            "100000000000000000000", "--seed", "1"]
    assert run(argv + (["--runs", "1"] if command == "batch" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stuckwalk: error: ")
    assert len(captured.err.splitlines()) == 1
    assert "steps must be <= " in captured.err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 298. GiB"), "Unable to allocate 298. GiB"),
    (MemoryError(), "MemoryError")])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, exc, message):
    # linsys --K 200000 --lk2 0 would ask numpy for a 298 GiB matrix; the
    # patched solver raises what numpy raises without allocating
    from stuckwalk import linsys

    def solve_direct(*args):
        raise exc

    monkeypatch.setattr(linsys, "solve_direct", solve_direct)
    assert run(["linsys", "--alpha", "2", "--K", "200000", "--lk2", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"stuckwalk: error: {message}\n"


@pytest.mark.parametrize("tail, message", [
    ("1e-9", "a tail_fraction of 1e-09 of 2000 steps holds no step"),
    ("0.0004", "a tail_fraction of 0.0004 of 2000 steps holds no step"),
    ("1.5", "tail_fraction must be in (0,1), got 1.5")])
@pytest.mark.parametrize("command", ["batch", "analyze"])
def test_tail_without_steps_is_error(tmp_path, capsys, command, tail,
                                     message):
    if command == "batch":
        # the config check fails before any run starts
        argv = ["batch", "--steps", "2000", "--runs", "5", "--seed", "1"]
    else:
        path = tmp_path / "walk.csv"
        path.write_text("step,position\n" + "".join(
            f"{k},{k % 2}\n" for k in range(2001)))
        argv = ["analyze", "--in", str(path)]
    assert run(argv + ["--alpha", "2", "--beta", "1", "--tail", tail]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"stuckwalk: error: {message}\n"


@pytest.mark.parametrize("flags, value", [
    (["--alpha", "2", "--lk2", "nan"], "lK2=nan"),
    (["--alpha", "nan"], "got nan"),
    (["--alpha", "inf"], "got inf"),
    (["--alpha", "nan", "--lk2", "1"], "alpha=nan"),
])
def test_linsys_rejects_non_finite_input(capsys, flags, value):
    assert run(["linsys", "--K", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err and value in captured.err


# ------------------------------------------------------------ dropped options


SIMULATE = {"alpha": "2", "beta": "1", "steps": "300", "seed": "3"}


@pytest.mark.parametrize("values, flag", [
    ({"engine": "rubin", "snapshot_every": "100"}, "--snapshot-every"),
    ({"snapshot_every": "100"}, "--snapshot-every"),
    ({"ty_out": "ty.json"}, "--ty-out"),
    ({"engine": "direct", "ty_out": "ty.json", "out": "o.csv"},
     "--ty-out"),
    ({"engine": "rubin", "ty_out": "t.json", "out": "./t.json"}, "--ty-out"),
    ({"engine": "rubin", "snapshot_every": "100", "out": "r.csv",
      "ty_out": "./r.csv.snapshots.json"}, "--ty-out"),
])
@pytest.mark.parametrize("via_config", [False, True])
def test_simulate_option_the_engine_drops_is_usage_error(
        tmp_path, monkeypatch, capsys, values, flag, via_config):
    monkeypatch.chdir(tmp_path)
    values = {**SIMULATE, **values}
    if via_config:
        (tmp_path / "cfg.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = ["simulate", "--config", "cfg.txt"]
    else:
        argv = ["simulate"] + [a for k, v in values.items()
                               for a in (cli._flag(k), v)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["cfg.txt"] if via_config else [])


@pytest.mark.parametrize("suite", ["linsys", "walk", "coupling"])
@pytest.mark.parametrize("key, value", [("horizon", "4"), ("runs", "500")])
@pytest.mark.parametrize("via_config", [False, True])
def test_verify_option_the_suite_drops_is_usage_error(
        tmp_path, monkeypatch, capsys, suite, key, value, via_config):
    # only the rubin suite reads horizon and runs; another suite refuses a
    # value it would drop, whether a flag or the config file sets it
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--suite", suite]
    if via_config:
        (tmp_path / "cfg.txt").write_text(f"{key} = {value}\n")
        argv += ["--config", "cfg.txt"]
    else:
        argv += [cli._flag(key), value]
    assert run(argv + ["--out", "v.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--suite {suite} takes no {cli._flag(key)}\n" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["cfg.txt"] if via_config else [])


def test_verify_suite_accepts_the_defaults_it_drops(capsys):
    assert run(["verify", "--suite", "linsys", "--horizon", "6",
                "--runs", "100000"]) == 0
    assert capsys.readouterr().out == "linsys: PASS\n"


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_every_past_the_steps_writes_an_empty_list(tmp_path,
                                                          engine):
    # the snapshots file that --snapshot-every asks for is written even
    # when no multiple of k is reached: an empty list, not a missing file
    out = tmp_path / "s.csv"
    assert run(["simulate", "--alpha", "2", "--beta", "1", "--steps", "300",
                "--seed", "1", "--engine", engine, "--snapshot-every", "500",
                "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "s.csv.snapshots.json").read_text())
    assert payload["snapshots"] == []
    assert payload["config"] == {"seed": 1}


@pytest.mark.parametrize("engine", ENGINES)
def test_negative_snapshot_every_is_error_for_every_engine(tmp_path, capsys,
                                                           engine):
    assert run(["simulate", "--alpha", "2", "--beta", "1", "--steps", "300",
                "--seed", "3", "--engine", engine, "--snapshot-every", "-1",
                "--out", str(tmp_path / "o.csv")]) == 1
    captured = capsys.readouterr()
    assert "snapshot_every must be >= 0, got -1" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_python_m_cli_runs_the_cli(tmp_path, capsys):
    assert run(["thresholds", "--max-L", "2"]) == 0
    expected = capsys.readouterr().out.encode()
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "stuckwalk.cli", "thresholds", "--max-L", "2"],
        capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # the first call builds the parser; a later call adds no argument
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    counts = []
    for _ in range(2):
        assert run(["thresholds", "--max-L", "2"]) == 0
        counts.append(len(added))
    assert counts[0] > 0
    assert counts[1] == counts[0]


_BATCH = {"alpha": "2", "beta": "1", "steps": "2000", "runs": "6",
          "seed": "99", "workers": "2"}
_CALLS = [  # argv, run in this order in one process
    ["batch", "--workers", "two"],      # usage error
    ["--version"],
    ["batch", *[f"--{k}={v}" for k, v in _BATCH.items()], "--out", "b.json"],
    ["batch", "--config", "batch.cfg"],  # the same options, from the file
    ["verify", "--suite", "linsys", "--out", "v.json"],
    ["simulate", "--alpha", "2", "--beta", "1", "--steps", "1000", "--seed",
     "7", "--out", "w.csv"],
]


def test_in_process_calls_share_no_state(tmp_path, monkeypatch, capsys):
    # each call gives what it gives on a parser of its own, though every
    # call after the first reuses the first call's parser
    def outcomes(fresh):
        results = []
        for i, argv in enumerate(_CALLS):
            work = tmp_path / ("fresh" if fresh else "shared") / str(i)
            work.mkdir(parents=True)
            (work / "batch.cfg").write_text("".join(
                f"{k} = {v}\n" for k, v in _BATCH.items()) + "out = b.json\n")
            monkeypatch.chdir(work)
            if fresh:
                cli.build_parser.cache_clear()
            rc = run(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err, {
                p.name: p.read_bytes() for p in sorted(work.iterdir())}))
        return results

    shared, fresh = outcomes(False), outcomes(True)
    assert [r[0] for r in shared] == [2, 0, 0, 0, 0, 0]
    assert shared[2][3]["b.json"] == shared[3][3]["b.json"]
    for call, one, other in zip(_CALLS, shared, fresh):
        assert one == other, call
