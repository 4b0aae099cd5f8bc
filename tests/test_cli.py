import json

import pytest

from stuckwalk.cli import load_config_file, parse_and_dispatch


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


def test_batch_worker_invariance(tmp_path):
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


@pytest.mark.parametrize("command, text, named", [
    ("linsys", "alpha = 2\nalpah = 2\nK = 1\n", "unknown config key 'alpah'"),
    ("linsys", "alpha = 2\nK = 1.5\n", "K = '1.5' is not a valid int"),
    ("simulate", "alpha = 2\nbeta = 1\nsteps = 1e5\nseed = 1\n",
     "steps = '1e5' is not a valid int"),
])
def test_config_file_bad_key_or_value_is_usage_error(tmp_path, capsys,
                                                     command, text, named):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("rows, lineno", [
    ("0,1\n1,2\n", 2),           # does not start at 0
    ("0,0\n1,1\n2,3\n", 4),      # a step of +2
    ("0,0\n1,1\n2,1\n", 4),      # a step of 0
    ("0,0\n1,x\n", 3),           # unparsable position
    ("0,0\n1,1,0\n", 3),         # extra field
    ("0,0\n1\n", 3),             # missing field
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
