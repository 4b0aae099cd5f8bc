"""Command-line front end.

Every output embeds the tool version, the resolved configuration, the
master seed, and the PRNG identifier.  Randomized subcommands require an
explicit --seed: there are no wall-clock defaults, so fixed invocations
are byte-reproducible.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

import argparse
import json
import math
import sys

from . import __version__
from .errors import StuckWalkError
from .rng import PRNG_ID
from .spectrum import Params, alpha_threshold
from .walk import Trajectory, simulate

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


def _emit_json(payload: dict, out_path):
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(comment_lines, header, rows, out_path):
    lines = [f"# {c}" for c in comment_lines]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


_CONFIG_TYPES = {
    "alpha": float, "beta": float, "tail": float, "steps": int,
    "runs": int, "seed": int, "workers": int, "K": int, "max_L": int,
    "horizon": int, "jumps": int, "engine": str, "suite": str,
    "out": str, "infile": str, "lk2": float, "scan_to": int,
    "snapshot_every": int, "ty_out": str,
}


def _resolve(parser, args, keys):
    """Merge config-file values under explicit flags; flags win.

    An unknown key or a value of the wrong type in the file is a usage
    error, like the same mistake on the command line.
    """
    file_vals = {}
    if getattr(args, "config", None):
        file_vals = load_config_file(args.config)
        unknown = sorted(set(file_vals) - set(_CONFIG_TYPES))
        if unknown:
            parser.error(f"{args.config}: unknown config key {unknown[0]!r}")
    resolved = {}
    for key in keys:
        v = getattr(args, key, None)
        if v is None and key in file_vals:
            caster = _CONFIG_TYPES[key]
            try:
                v = caster(file_vals[key])
            except ValueError:
                parser.error(f"{args.config}: {key} = {file_vals[key]!r} is "
                             f"not a valid {caster.__name__}")
        resolved[key] = v
    return resolved


def _require(parser, resolved, *keys):
    for key in keys:
        if resolved.get(key) is None:
            parser.error(f"missing required option --{key.replace('_', '-')}")


# ---------------------------------------------------------------- commands


def cmd_thresholds(parser, args):
    cfg = _resolve(parser, args, ["max_L", "out"])
    _require(parser, cfg, "max_L")
    rows = [(L, alpha_threshold(L)) for L in range(1, cfg["max_L"] + 1)]
    _emit_csv(
        [f"tool={PROG} version={__version__}",
         f"config max_L={cfg['max_L']}"],
        ["L", "alpha_L"], rows, cfg["out"])
    return 0


def cmd_linsys(parser, args):
    from . import linsys
    from .errors import Infeasible, RegimeError

    cfg = _resolve(parser, args, ["alpha", "K", "lk2", "scan_to", "out"])
    _require(parser, cfg, "alpha")
    if cfg["scan_to"] is not None:
        rows = [(r.K, r.d0_sign, r.dK1_sign, r.feasible)
                for r in linsys.sign_scan(cfg["alpha"], cfg["scan_to"])]
        _emit_csv(
            [f"tool={PROG} version={__version__}",
             f"config alpha={cfg['alpha']!r} scan_to={cfg['scan_to']}"],
            ["K", "d0_sign", "dK1_sign", "feasible"], rows, cfg["out"])
        return 0
    _require(parser, cfg, "K")
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


def cmd_simulate(parser, args):
    cfg = _resolve(parser, args, ["alpha", "beta", "steps", "seed", "engine",
                                  "snapshot_every", "ty_out", "out"])
    _require(parser, cfg, "alpha", "beta", "steps", "seed")
    engine = cfg["engine"] or "direct"
    params = Params.make(cfg["alpha"], cfg["beta"])
    if engine == "rubin":
        from .rubin import simulate_rubin, ty_report
        traj, bank = simulate_rubin(params, cfg["steps"], cfg["seed"])
        if cfg["ty_out"]:
            payload = _metadata({"alpha": cfg["alpha"], "beta": cfg["beta"],
                                 "jumps": cfg["steps"], "seed": cfg["seed"]})
            payload["ty"] = {str(y): r for y, r in ty_report(bank).items()}
            _emit_json(payload, cfg["ty_out"])
    elif engine in ("direct", "reference"):
        traj = simulate(params, cfg["steps"], cfg["seed"],
                        engine="fast" if engine == "direct" else "reference",
                        snapshot_every=cfg["snapshot_every"] or 0)
        if traj.snapshots and cfg["out"]:
            _emit_json(_metadata({"seed": cfg["seed"]})
                       | {"snapshots": traj.snapshots},
                       cfg["out"] + ".snapshots.json")
    else:
        parser.error(f"unknown engine {engine!r}")
    comments = [
        f"tool={PROG} version={__version__}",
        f"prng={PRNG_ID}",
        f"config alpha={cfg['alpha']!r} beta={cfg['beta']!r} "
        f"steps={cfg['steps']} seed={cfg['seed']} engine={engine}",
    ]
    rows = list(enumerate(traj.positions))
    _emit_csv(comments, ["step", "position"], rows, cfg["out"])
    return 0


def _read_trajectory_csv(path, params, seed=None):
    """Positions from a `step,position` CSV; rejects anything but a walk
    that starts at 0 and moves by +-1."""
    positions = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("step"):
                continue
            try:
                _, p = map(int, line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected step,position "
                                 f"integers, got {line!r}") from None
            if not positions and p != 0:
                raise ValueError(f"{path}:{lineno}: trajectory must start "
                                 f"at 0, got {p}")
            if positions and abs(p - positions[-1]) != 1:
                raise ValueError(f"{path}:{lineno}: step from "
                                 f"{positions[-1]} to {p} is not +-1")
            positions.append(p)
    if not positions:
        raise ValueError(f"{path}: no trajectory rows")
    return Trajectory(positions=positions, seed=seed, params=params)


def cmd_analyze(parser, args):
    from .analysis import compare_profile, detect_localization
    from .errors import NoTheory

    cfg = _resolve(parser, args, ["infile", "alpha", "beta", "tail", "out"])
    _require(parser, cfg, "infile", "alpha", "beta")
    tail = cfg["tail"] if cfg["tail"] is not None else 0.5
    params = Params.make(cfg["alpha"], cfg["beta"])
    traj = _read_trajectory_csv(cfg["infile"], params)
    summary = detect_localization(traj, tail)
    if summary.localized:
        try:
            compare_profile(summary, params)
        except NoTheory:
            pass
    payload = _metadata({"in": cfg["infile"], "alpha": cfg["alpha"],
                         "beta": cfg["beta"], "tail": tail})
    payload.update(summary.as_dict())
    _emit_json(payload, cfg["out"])
    return 0


def cmd_batch(parser, args):
    from .mc import BatchConfig, run_batch

    cfg = _resolve(parser, args, ["alpha", "beta", "steps", "runs", "seed",
                                  "workers", "engine", "tail", "out"])
    _require(parser, cfg, "alpha", "beta", "steps", "runs", "seed")
    params = Params.make(cfg["alpha"], cfg["beta"])
    bc = BatchConfig(params=params, runs=cfg["runs"], steps=cfg["steps"],
                     master_seed=cfg["seed"],
                     engine=cfg["engine"] or "direct",
                     workers=cfg["workers"] or 1,
                     tail_fraction=cfg["tail"] if cfg["tail"] is not None else 0.5)
    result = run_batch(bc)
    # workers is deliberately absent from the emitted config: it cannot
    # change the results, and its absence keeps outputs byte-identical
    # across worker counts.
    payload = _metadata({
        "alpha": cfg["alpha"], "beta": cfg["beta"], "steps": cfg["steps"],
        "runs": cfg["runs"], "seed": cfg["seed"],
        "engine": bc.engine, "tail": bc.tail_fraction,
    })
    payload.update(result.aggregate.as_dict())
    payload["ci"] = {"L2": list(result.aggregate.ci_L2),
                     "L3": list(result.aggregate.ci_L3)}
    payload["failures"] = result.failures
    _emit_json(payload, cfg["out"])
    return 0


def _verify_linsys(report):
    import numpy as np

    from . import linsys

    worst = 0.0
    for L in range(1, 7):
        lo = alpha_threshold(L + 1)
        hi = alpha_threshold(L) if L > 1 else 3.0
        for alpha in np.linspace(lo, hi, 8)[1:-1]:
            for K in range(0, L + 2):
                a = linsys.solve_closed(K, alpha)
                b = linsys.solve_direct(K, alpha)
                worst = max(worst,
                            float(np.max(np.abs(np.asarray(a.l)
                                                - np.asarray(b.l)))),
                            abs(a.d0 + a.dK1))
    report["linsys_max_residual"] = worst
    return worst < 1e-10


def _verify_walk(report, seed):
    from .walk import exact_path_law, recount_local_times

    params = Params.make(2.0, 1.0)
    law = exact_path_law(params, 8)
    total_err = abs(sum(law.values()) - 1.0)
    steps = 5000
    traj = simulate(params, steps, seed)
    lt = recount_local_times(traj.positions)
    # edge {j-1, j} is crossed an odd number of times exactly when it
    # separates the start 0 from the endpoint X_n
    x = traj.positions[-1]
    lo, hi = min(0, x), max(0, x)
    ok = (sum(lt.values()) == steps
          and all((lt.get(j, 0) % 2 == 1) == (lo < j <= hi)
                  for j in set(lt) | set(range(lo + 1, hi + 1))))
    report["walk_law_total_error"] = total_err
    report["walk_local_times_ok"] = ok
    return total_err < 1e-12 and ok


def _verify_rubin(report, horizon, runs, seed):
    from .rubin import equivalence_report

    params = Params.make(2.0, 1.0)
    rep = equivalence_report(params, horizon, runs, seed)
    report["rubin"] = rep
    return rep["tv_distance"] <= 0.01 and rep["chi2_pvalue"] > 0.001


def _verify_coupling(report, seed):
    from .rng import keyed_uniform
    from .rubin import couple

    params = Params.make(2.0, 1.0)
    violations = compared = 0
    for i in range(50):
        u_a = keyed_uniform(seed, 7, i)
        u_b = keyed_uniform(seed, 11, i)
        u1, u2 = min(u_a, u_b), max(u_a, u_b)
        rep = couple(0, u1, u2, seed + i, 300, params)
        violations += rep.violations
        compared += rep.compared
    report["coupling_pairs_compared"] = compared
    report["coupling_violations"] = violations
    return violations == 0


def cmd_verify(parser, args):
    cfg = _resolve(parser, args, ["suite", "horizon", "runs", "seed", "out"])
    _require(parser, cfg, "suite")
    suite = cfg["suite"]
    known = ("linsys", "walk", "rubin", "coupling", "all")
    if suite not in known:
        parser.error(f"unknown suite {suite!r}; choose from {known}")
    selected = ["linsys", "walk", "rubin", "coupling"] if suite == "all" \
        else [suite]
    seed = cfg["seed"] if cfg["seed"] is not None else 20260826
    horizon = cfg["horizon"] or 6
    runs = cfg["runs"] or 100000
    report = _metadata({"suite": suite, "horizon": horizon,
                        "runs": runs, "seed": seed})
    all_ok = True
    for name in selected:
        if name == "linsys":
            ok = _verify_linsys(report)
        elif name == "walk":
            ok = _verify_walk(report, seed)
        elif name == "rubin":
            ok = _verify_rubin(report, horizon, runs, seed)
        else:
            ok = _verify_coupling(report, seed)
        report[f"{name}_pass"] = ok
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    if cfg["out"]:
        _emit_json(report, cfg["out"])
    return 0 if all_ok else 1


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="simulation and verification toolkit for stuck walks")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("thresholds", help="critical alpha values per L")
    p.add_argument("--max-L", dest="max_L", type=int)
    common(p)

    p = sub.add_parser("linsys", help="candidate profiles and sign scans")
    p.add_argument("--alpha", type=float)
    p.add_argument("--K", type=int)
    p.add_argument("--lk2", type=float)
    p.add_argument("--scan-to", dest="scan_to", type=int)
    common(p)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--engine", choices=["direct", "reference", "rubin"])
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    p.add_argument("--ty-out", dest="ty_out")
    common(p)

    p = sub.add_parser("analyze", help="localization summary of a trajectory")
    p.add_argument("--in", dest="infile")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tail", type=float)
    common(p)

    p = sub.add_parser("batch", help="Monte-Carlo batch")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--engine", choices=["direct", "rubin"])
    p.add_argument("--tail", type=float)
    common(p)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite")
    p.add_argument("--horizon", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    common(p)

    return parser


_DISPATCH = {
    "thresholds": cmd_thresholds,
    "linsys": cmd_linsys,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "batch": cmd_batch,
    "verify": cmd_verify,
}


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _DISPATCH[args.subcommand](parser, args)
    except SystemExit as exc:  # parser.error inside a handler
        return exc.code if isinstance(exc.code, int) else 2
    except StuckWalkError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())
