"""Benchmark for the stuckwalk CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root.  The program under test is imported from
``src/``; without it the benchmark exits with code 2 and prints no result.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
appends a record with its environment to ``.perfbench/results.jsonl``, and
a traced run writes its spans to ``.perfbench/spans-<workload>-<seed>.json``.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

from spans import LAYER_UNITS, Tracer, layer_metrics
from workloads import QUICK_WORKLOADS, WORKLOADS, gate, run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
INPUT_STRIDE = 1 << 32  # keeps the inputs of nearby --seed values apart


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import stuckwalk.cli
    except ImportError as exc:
        print(f"perfbench: cannot import stuckwalk from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(stuckwalk.cli.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: stuckwalk was not imported from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return stuckwalk.cli


def _setup_seconds(modules):
    """Time to import ``modules`` in a fresh interpreter, measured inside it."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(repr(time.perf_counter() - t0))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return os.uname().machine


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
    }


class Bench:
    """One benchmark run: checked passes of one workload.

    The passes cycle over the workload's number of master seeds made from
    ``--seed``; the first one is ``--seed`` itself.
    Every pass with a given master seed must reproduce the bytes of the
    first pass with it, or the pinned digest at the default seed.
    """

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.masters = [seed + j * INPUT_STRIDE
                        for j in range(workload.inputs)]
        self.out_path = str(WORK / f"out-{workload.name}-{os.getpid()}.json")
        self.attempted = 0
        self.failed = 0
        self.expected = {workload.default_seed: workload.pinned_sha256}

    def run(self, master, workers=None, dispatch=None):
        """One checked pass; returns it."""
        argv = self.workload.argv(master, self.out_path, workers)
        p = run_pass(dispatch or self.cli.parse_and_dispatch, argv,
                     self.out_path)
        expected = self.expected.setdefault(master, p.sha256)
        self.attempted += self.workload.ops_per_pass
        self.failed += gate(self.workload, master, p, expected)
        return p

    def pinned_pass(self):
        """Pass at the default seed against the pinned digest; also warms
        lazy imports and caches before anything is timed."""
        return self.run(self.workload.default_seed)

    def timed(self, seconds, body):
        """Call ``body(master)`` until ``seconds`` have passed and every
        input has had at least two passes."""
        deadline = time.perf_counter() + seconds
        n = 0
        while n < 2 * len(self.masters) or time.perf_counter() < deadline:
            body(self.masters[n % len(self.masters)])
            n += 1


def _wall(walls):
    """Mean over inputs of the median pass wall of each input: medians damp
    machine noise, the mean averages over the inputs."""
    return statistics.fmean(statistics.median(w) for w in walls.values())


def end_to_end(bench, seconds):
    w = bench.workload
    bench.pinned_pass()
    serial = bench.run(bench.seed, workers=1) if w.workers > 1 else None
    walls = {}
    bench.timed(seconds, lambda m: walls.setdefault(m, []).append(
        bench.run(m).wall_s))
    peak = _peak_rss_mb()
    setup = [_setup_seconds(w.setup_modules) for _ in range(SETUP_REPEATS)]
    wall = _wall(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (w.steps_per_pass / wall, "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": (1.0 - bench.failed / bench.attempted, "frac"),
    }
    record = {"passes_wall_s": walls, "setup_s": setup,
              "serial_baseline_wall_s": serial.wall_s if serial else None}
    return metrics, record


def _bytes_per_step(args, kwargs):
    from stuckwalk.walk import simulate
    tracemalloc.start()
    try:
        traj = simulate(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / traj.steps


def per_layer(bench, seconds):
    """Untraced and traced passes alternate; traced passes run serially."""
    w = bench.workload
    bench.pinned_pass()
    tracer = Tracer()
    traced_dispatch = tracer.wrap("cli.dispatch", bench.cli.parse_and_dispatch)
    walls, serial_walls, traced_walls = {}, {}, {}

    def body(master):
        walls.setdefault(master, []).append(bench.run(master).wall_s)
        if w.workers > 1:
            serial_walls.setdefault(master, []).append(
                bench.run(master, workers=1).wall_s)
        tracer.begin_pass()
        with tracer.probes():
            traced_walls.setdefault(master, []).append(
                bench.run(master, workers=1, dispatch=traced_dispatch).wall_s)

    bench.timed(seconds, body)
    values = layer_metrics(tracer.spans, w.workers, _wall(walls))
    values["trace.overhead_frac"] = (
        _wall(traced_walls) / _wall(serial_walls or walls) - 1.0)
    first = tracer.first_call.get("walk.simulate")
    values["walk.bytes_per_step"] = _bytes_per_step(*first) if first else 0.0
    metrics = {k: (values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    record = {"passes_wall_s": walls, "serial_passes_wall_s": serial_walls,
              "traced_passes_wall_s": traced_walls}
    spans_path = WORK / f"spans-{w.name}-{bench.seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    return metrics, record


def measure(cli, workload, seed, seconds, trace):
    bench = Bench(cli, workload, seed)
    try:
        if trace:
            metrics, record = per_layer(bench, seconds)
        else:
            metrics, record = end_to_end(bench, seconds)
    finally:
        if os.path.exists(bench.out_path):
            os.remove(bench.out_path)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record.update(workload=workload.name, trace=trace, seconds=seconds,
                  environment=environment(seed), result=result)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="workload master seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny workload sizes, for the self-check")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    cli = _import_program()
    WORK.mkdir(exist_ok=True)
    if args.self_check:
        from selfcheck import self_check
        return self_check(cli, ROOT)
    if args.workload is None:
        ap.error("--workload is required")
    workload = (QUICK_WORKLOADS if args.quick else WORKLOADS)[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result = measure(cli, workload, seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
