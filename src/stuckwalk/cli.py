"""Command-line front end.

Every output embeds the tool version, the resolved configuration, the
master seed, and the PRNG identifier.  Randomized subcommands require an
explicit --seed: there are no wall-clock defaults, so fixed invocations
are byte-reproducible.

The parser is built on first use and shared by every later call of
``parse_and_dispatch`` in the process; the ``stuckwalk`` command makes
one call per process, so only in-process callers (the tests, perfbench)
build it less often.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import StuckWalkError
from .rng import PRNG_ID
from .spectrum import Params, alpha_threshold
from .walk import ENGINES, Trajectory, simulate

PROG = "stuckwalk"


def _metadata(config: dict) -> dict:
    return {"tool": PROG, "version": __version__, "prng": PRNG_ID,
            "config": config}


def _finite_or_null(value):
    """``value`` with every non-finite float (NaN, inf) replaced by None,
    which JSON writes as null; bare NaN or Infinity is not valid JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write(text, out_path):
    """``text`` to the file ``out_path``, or to stdout when it is None."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path):
    _write(json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n", out_path)


def _emit_csv(comment_lines, header, rows, out_path):
    lines = [f"# {c}" for c in comment_lines]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write("\n".join(lines) + "\n", out_path)


def load_config_file(path: str) -> dict:
    """Plain-text `key = value` lines; `#` starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _flag(key):
    return "--in" if key == "infile" else "--" + key.replace("_", "-")


def _resolve(parser, args):
    """The options of the subcommand: a flag wins over the config file,
    which wins over the default.

    A config value passes the same type and choices checks as its flag;
    like an unknown key or a missing required option, a failed check is a
    usage error.
    """
    file_vals = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals).difference(*OPTIONS.values()))
    if unknown:
        parser.error(f"{args.config}: unknown config key {unknown[0]!r}")
    cfg = {}
    for key, (kind, default) in OPTIONS[args.subcommand].items():
        value, text = getattr(args, key), file_vals.get(key)
        if value is None and text is not None:
            if isinstance(kind, tuple):
                if text not in kind:
                    parser.error(f"{args.config}: {key} = {text!r} is not "
                                 f"one of {', '.join(kind)}")
                value = text
            else:
                try:
                    value = kind(text)
                except ValueError:
                    parser.error(f"{args.config}: {key} = {text!r} is not "
                                 f"a valid {kind.__name__}")
        if value is None and default is REQUIRED:
            parser.error(f"missing required option {_flag(key)}")
        cfg[key] = default if value is None else value
    return cfg


# ---------------------------------------------------------------- commands


def cmd_thresholds(parser, cfg):
    if cfg["max_L"] < 1:
        raise ValueError(f"max_L must be >= 1, got {cfg['max_L']}")
    rows = [(L, alpha_threshold(L)) for L in range(1, cfg["max_L"] + 1)]
    _emit_csv(
        [f"tool={PROG} version={__version__}",
         f"config max_L={cfg['max_L']}"],
        ["L", "alpha_L"], rows, cfg["out"])
    return 0


def cmd_linsys(parser, cfg):
    from . import linsys
    from .errors import Infeasible, RegimeError

    if cfg["scan_to"] is not None:
        for key in ("K", "lk2"):
            if cfg[key] is not None:
                parser.error(f"--scan-to takes no {_flag(key)}")
        rows = [(r.K, r.d0_sign, r.dK1_sign, r.feasible)
                for r in linsys.sign_scan(cfg["alpha"], cfg["scan_to"])]
        _emit_csv(
            [f"tool={PROG} version={__version__}",
             f"config alpha={cfg['alpha']!r} scan_to={cfg['scan_to']}"],
            ["K", "d0_sign", "dK1_sign", "feasible"], rows, cfg["out"])
        return 0
    if cfg["K"] is None:
        parser.error("missing required option --K")
    if cfg["lk2"] is not None:
        sol = linsys.solve_direct(cfg["K"], cfg["alpha"], cfg["lk2"])
    else:
        sol = linsys.solve_closed(cfg["K"], cfg["alpha"])
    payload = _metadata({"alpha": cfg["alpha"], "K": cfg["K"],
                         "lk2": cfg["lk2"]})
    payload.update({
        "K": cfg["K"], "l": list(sol.l), "d0": sol.d0, "dK1": sol.dK1,
        "unique": sol.unique,
    })
    try:
        payload["c_oracle"] = linsys.c_oracle(cfg["K"], cfg["alpha"])
    except (RegimeError, Infeasible):
        payload["c_oracle"] = None
    _emit_json(payload, cfg["out"])
    return 0


def cmd_simulate(parser, cfg):
    engine, every, out = cfg["engine"], cfg["snapshot_every"], cfg["out"]
    if every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {every}")
    if every and not out:
        parser.error("--snapshot-every needs --out: the snapshots go to "
                     "<out>.snapshots.json")
    if cfg["ty_out"] and engine != "rubin":
        parser.error("--ty-out needs --engine rubin")
    if cfg["ty_out"] and out:
        ty_out = os.path.abspath(cfg["ty_out"])
        if ty_out == os.path.abspath(out):
            parser.error("--ty-out names the --out file")
        if every and ty_out == os.path.abspath(out + ".snapshots.json"):
            parser.error("--ty-out names the snapshots file "
                         "<out>.snapshots.json")
    params = Params.make(cfg["alpha"], cfg["beta"])
    # a snapshot is the Stop at each multiple of snapshot_every
    marks = range(every, cfg["steps"] + 1, every) if every else ()
    if engine == "rubin":
        from .rubin import simulate_rubin
        traj, ty = simulate_rubin(params, cfg["steps"], cfg["seed"])
        if cfg["ty_out"]:
            payload = _metadata({"alpha": cfg["alpha"], "beta": cfg["beta"],
                                 "jumps": cfg["steps"], "seed": cfg["seed"]})
            payload["ty"] = {str(y): r for y, r in ty.items()}
            _emit_json(payload, cfg["ty_out"])
    else:
        traj = simulate(params, cfg["steps"], cfg["seed"], stops=marks)
    if every:
        _emit_json(_metadata({"seed": cfg["seed"]}) | {"snapshots": [
            s.snapshot() for s in traj.stops_at(marks)]},
            out + ".snapshots.json")
    comments = [
        f"tool={PROG} version={__version__}",
        f"prng={PRNG_ID}",
        f"config alpha={cfg['alpha']!r} beta={cfg['beta']!r} "
        f"steps={cfg['steps']} seed={cfg['seed']} engine={engine}",
    ]
    rows = list(enumerate(traj.positions))
    _emit_csv(comments, ["step", "position"], rows, out)
    return 0


def _read_trajectory_csv(path, params):
    """Positions from a `step,position` CSV; rejects anything but a walk
    that starts at 0 and moves by +-1, with the k-th row at step k."""
    positions = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("step"):
                continue
            try:
                k, p = map(int, line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected step,position "
                                 f"integers, got {line!r}") from None
            if k != len(positions):
                raise ValueError(f"{path}:{lineno}: expected step "
                                 f"{len(positions)}, got {k}")
            if not positions and p != 0:
                raise ValueError(f"{path}:{lineno}: trajectory must start "
                                 f"at 0, got {p}")
            if positions and abs(p - positions[-1]) != 1:
                raise ValueError(f"{path}:{lineno}: step from "
                                 f"{positions[-1]} to {p} is not +-1")
            positions.append(p)
    if not positions:
        raise ValueError(f"{path}: no trajectory rows")
    return Trajectory(positions=positions, params=params)


def cmd_analyze(parser, cfg):
    from .mc import _analyze

    params = Params.make(cfg["alpha"], cfg["beta"])
    traj = _read_trajectory_csv(cfg["infile"], params)
    summary = _analyze(traj, cfg["tail"])
    payload = _metadata({"in": cfg["infile"], "alpha": cfg["alpha"],
                         "beta": cfg["beta"], "tail": cfg["tail"]})
    payload.update(summary.as_dict())
    _emit_json(payload, cfg["out"])
    return 0


def cmd_batch(parser, cfg):
    from .mc import BatchConfig, run_batch

    params = Params.make(cfg["alpha"], cfg["beta"])
    result = run_batch(BatchConfig(
        params=params, runs=cfg["runs"], steps=cfg["steps"],
        master_seed=cfg["seed"], engine=cfg["engine"],
        workers=cfg["workers"], tail_fraction=cfg["tail"]))
    # workers is deliberately absent from the emitted config: it cannot
    # change the results, and its absence keeps outputs byte-identical
    # across worker counts.
    payload = _metadata({key: cfg[key] for key in (
        "alpha", "beta", "steps", "runs", "seed", "engine", "tail")})
    payload.update(result.aggregate.as_dict())
    payload["ci"] = {"L2": list(result.aggregate.ci_L2),
                     "L3": list(result.aggregate.ci_L3)}
    payload["failures"] = result.failures
    _emit_json(payload, cfg["out"])
    return 0


def _verify_linsys(report, cfg):
    import numpy as np

    from .linsys import identity_sweep

    dev, _sym, d01, _margin = identity_sweep(
        (L, alpha) for L in range(1, 7)
        for alpha in np.linspace(alpha_threshold(L + 1),
                                 alpha_threshold(L) if L > 1 else 3.0,
                                 8)[1:-1])
    worst = max(dev, d01)
    report["linsys_max_residual"] = worst
    return worst < 1e-10


def _verify_walk(report, cfg):
    from .walk import exact_path_law

    params = Params.make(2.0, 1.0)
    law = exact_path_law(params, 8)
    total_err = abs(sum(law.values()) - 1.0)
    steps = 5000
    traj = simulate(params, steps, cfg["seed"], stops=(steps,))
    stop = traj.stops[steps]
    # the kernel's Stop must be that of its path's replay
    try:
        ok = stop == Trajectory(traj.positions, params).stops_at([steps])[0]
    except ValueError:      # a path step that is not +-1
        ok = False
    # edge {j-1, j} is crossed an odd number of times exactly when it
    # separates the start 0 from X_n; the Stop's edges lo..hi+1 hold them
    lo, hi = min(0, stop.pos), max(0, stop.pos)
    ok = (ok and sum(stop.lt) == steps and stop.lo <= lo and hi <= stop.hi
          and all((c % 2 == 1) == (lo < j <= hi)
                  for j, c in enumerate(stop.lt, stop.lo)))
    report["walk_law_total_error"] = total_err
    report["walk_local_times_ok"] = ok
    return total_err < 1e-12 and ok


def _verify_rubin(report, cfg):
    from .rubin import equivalence_pass, equivalence_report

    params = Params.make(2.0, 1.0)
    rep = equivalence_report(params, cfg["horizon"], cfg["runs"],
                             cfg["seed"])
    report["rubin"] = rep
    return equivalence_pass(rep)


def _verify_coupling(report, cfg):
    from .rng import keyed_uniform
    from .rubin import coupling_sweep

    seed = cfg["seed"]
    compared, violations = coupling_sweep(
        ((keyed_uniform(seed, 7, i), keyed_uniform(seed, 11, i), seed + i)
         for i in range(50)), jumps=300, params=Params.make(2.0, 1.0))
    report["coupling_pairs_compared"] = compared
    report["coupling_violations"] = violations
    return violations == 0


# verify suite -> check(report, cfg), in the order that --suite all runs
# them and prints their PASS/FAIL lines
_SUITES = {"linsys": _verify_linsys, "walk": _verify_walk,
           "rubin": _verify_rubin, "coupling": _verify_coupling}


def cmd_verify(parser, cfg):
    for key in ("horizon", "runs"):
        # only the rubin suite reads them; another refuses a value it drops
        if (cfg["suite"] not in ("rubin", "all")
                and cfg[key] != OPTIONS["verify"][key][1]):
            parser.error(f"--suite {cfg['suite']} takes no {_flag(key)}")
        if cfg[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {cfg[key]}")
    report = _metadata({key: cfg[key] for key in (
        "suite", "horizon", "runs", "seed")})
    all_ok = True
    for name in _SUITES if cfg["suite"] == "all" else [cfg["suite"]]:
        ok = _SUITES[name](report, cfg)
        report[f"{name}_pass"] = ok
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    if cfg["out"]:
        _emit_json(report, cfg["out"])
    return 0 if all_ok else 1


# ----------------------------------------------------------------- parser


# Per subcommand: option -> (type, or a tuple of choices; default).  A
# REQUIRED option must come from a flag or the config file.  The flag is
# --<option> with "_" as "-", except infile (--in); the config key is the
# option itself.
REQUIRED = object()
_PARAMS = {"alpha": (float, REQUIRED), "beta": (float, REQUIRED)}
OPTIONS = {name: {**opts, "out": (str, None)} for name, opts in {
    "thresholds": {"max_L": (int, REQUIRED)},
    "linsys": {"alpha": (float, REQUIRED), "K": (int, None),
               "lk2": (float, None), "scan_to": (int, None)},
    "simulate": {**_PARAMS, "steps": (int, REQUIRED),
                 "seed": (int, REQUIRED), "engine": (ENGINES, "direct"),
                 "snapshot_every": (int, 0), "ty_out": (str, None)},
    "analyze": {"infile": (str, REQUIRED), **_PARAMS, "tail": (float, 0.5)},
    "batch": {**_PARAMS, "steps": (int, REQUIRED), "runs": (int, REQUIRED),
              "seed": (int, REQUIRED), "workers": (int, 1),
              "engine": (ENGINES, "direct"), "tail": (float, 0.5)},
    "verify": {"suite": ((*_SUITES, "all"), REQUIRED), "horizon": (int, 6),
               "runs": (int, 100000), "seed": (int, 20260826)},
}.items()}


_COMMANDS = {  # name -> (handler, help); the options are in OPTIONS
    "thresholds": (cmd_thresholds, "critical alpha values per L"),
    "linsys": (cmd_linsys, "candidate profiles and sign scans"),
    "simulate": (cmd_simulate, "run one trajectory"),
    "analyze": (cmd_analyze, "localization summary of a trajectory"),
    "batch": (cmd_batch, "Monte-Carlo batch"),
    "verify": (cmd_verify, "run invariant suites"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by
    every later call in the process: ``parse_args`` leaves it unchanged,
    and a handler only calls its ``error``."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="simulation and verification toolkit for stuck walks")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand")
    for name, opts in OPTIONS.items():
        p = sub.add_parser(name, help=_COMMANDS[name][1])
        for key, (kind, _) in opts.items():
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(_flag(key), dest=key, choices=choices,
                           type=None if choices else kind,
                           help="output path (default stdout)"
                           if key == "out" else None)
        p.add_argument("--config", help="key = value config file")
    return parser


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2
        return _COMMANDS[args.subcommand][0](parser, _resolve(parser, args))
    except SystemExit as exc:  # argparse, or parser.error in a handler
        return exc.code if isinstance(exc.code, int) else 2
    except (StuckWalkError, OSError, ValueError, OverflowError,
            MemoryError) as exc:
        print(f"{PROG}: error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
