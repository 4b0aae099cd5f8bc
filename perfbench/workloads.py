"""The benchmark's workloads, the single-pass runner and the output-hash gate.

A pass is one call of ``stuckwalk.cli.parse_and_dispatch`` with a
workload's argument list, timed from the call to its return (which
includes writing the ``--out`` file).  Its output bytes are what it wrote
to stdout followed by the ``--out`` file; their sha256 is compared with
the pinned digest (default seed) or with the first pass of the same
invocation (any other seed).
"""

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

# Modules a fresh interpreter must import before the workload's first call:
# the package, the CLI, and what each subcommand imports lazily.
BATCH_MODULES = ("stuckwalk", "stuckwalk.cli", "stuckwalk.mc",
                 "stuckwalk.analysis")
VERIFY_MODULES = ("stuckwalk", "stuckwalk.cli", "stuckwalk.linsys",
                  "stuckwalk.rubin", "scipy.stats")
VERIFY_SUITES = ("linsys", "walk", "rubin", "coupling")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple            # stuckwalk argv without --seed, --workers, --out
    default_seed: int
    workers: int           # pool size; 1 for verify, which has no pool
    steps_per_pass: int    # walk steps (or sampled and raced jumps) per pass
    ops_per_pass: int      # batch: runs; verify: suites
    setup_modules: tuple
    pinned_sha256: str     # output digest at default_seed
    inputs: int            # master seeds one benchmark run cycles over

    @property
    def is_batch(self):
        return self.args[0] == "batch"

    def argv(self, seed, out_path, workers=None):
        argv = list(self.args) + ["--seed", str(seed), "--out", out_path]
        if self.is_batch:
            argv += ["--workers", str(workers or self.workers)]
        return argv

    def failed_ops(self, seed, doc):
        """Operations the parsed output reports as failed."""
        cfg = doc.get("config", {})
        if cfg.get("seed") != seed:
            return self.ops_per_pass
        if self.is_batch:
            if cfg.get("runs") != self.ops_per_pass:
                return self.ops_per_pass
            return len(doc["failures"])
        return sum(doc.get(f"{s}_pass") is not True for s in VERIFY_SUITES)


def _batch(name, alpha, steps, runs, workers, seed, pin):
    return Workload(
        name=name,
        args=("batch", "--alpha", alpha, "--beta", "1", "--steps", str(steps),
              "--runs", str(runs), "--engine", "direct"),
        default_seed=seed, workers=workers,
        steps_per_pass=runs * steps, ops_per_pass=runs,
        setup_modules=BATCH_MODULES, pinned_sha256=pin,
        # the cost of a run depends on its trajectory; four inputs average
        # that out of the run-to-run spread
        inputs=4)


def _verify(name, horizon, runs, seed, pin):
    # walk suite: 5000 steps; rubin suite: runs x horizon sampled jumps;
    # coupling suite: 50 pairs of walks of 300 jumps each.
    return Workload(
        name=name,
        args=("verify", "--suite", "all", "--horizon", str(horizon),
              "--runs", str(runs)),
        default_seed=seed, workers=1,
        steps_per_pass=5000 + runs * horizon + 50 * 2 * 300,
        ops_per_pass=len(VERIFY_SUITES),
        setup_modules=VERIFY_MODULES, pinned_sha256=pin,
        # the cost barely depends on the seed, and each extra seed is one
        # more chance for the chi-square suite to fail at its 0.1% level
        inputs=1)


# Run counts are sized so that one pass takes about a second on a 2-core
# x86 machine, which gives 35-60 timed passes per 45 s run.
# batch-a08-long is not in BENCHMARK.json: like verify-all it runs on one
# core and follows a shared host's speed swings, and the time limit for all
# runs leaves room for two workloads of the length that verify-all needs.
# It stays runnable by hand for changes to the walk loop.
WORKLOADS = {w.name: w for w in (
    _batch("batch-a08-long", "0.8", 300000, 3, 1, 434343,
           "2bc58278883cae0da17d711361f1424c72d91fb6e0c395bd67545832ad761085"),
    _batch("batch-a2-short-w2", "2", 5000, 200, 2, 314159,
           "e5e920e64c930d38bbda97ac4a46f572aa004cf0ff0357ad08f34ee797aca788"),
    _verify("verify-all", 6, 100000, 20260826,
            "f2b90e66f355882e4c7f362db5761ade6c7b8b71068f0a21eda989e8e0af0aea"),
)}

# Tiny versions for the self-check.  verify-all keeps its size: with fewer
# sampled paths its total-variation threshold would fail by chance.
QUICK_WORKLOADS = {w.name: w for w in (
    _batch("batch-a08-long", "0.8", 20000, 2, 1, 434343,
           "6c446cf2d8103690fbeeb25aa536e9a406958e1966ca1d7864cbc9345cb3a027"),
    _batch("batch-a2-short-w2", "2", 5000, 16, 2, 314159,
           "f6819d447e0c00f7ba7a4341cf6de3bc91d8975f1ff17fd8b9dace8d1adadb66"),
    WORKLOADS["verify-all"],
)}


@dataclass
class Pass:
    rc: int
    wall_s: float
    stdout: bytes
    out: bytes

    @property
    def sha256(self):
        h = hashlib.sha256(self.stdout)
        h.update(b"\0")
        h.update(self.out)
        return h.hexdigest()


def run_pass(dispatch, argv, out_path):
    """Time one call of ``dispatch(argv)`` and collect its output bytes."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = dispatch(argv)
    wall = time.perf_counter() - t0
    try:
        with open(out_path, "rb") as fh:
            out = fh.read()
    except FileNotFoundError:
        out = b""
    return Pass(rc=rc, wall_s=wall, stdout=buf.getvalue().encode(), out=out)


def read_output(data):
    """Parse output JSON, accepting the bare NaN/Infinity the CLI can emit."""
    return json.loads(data, parse_constant=float)


def gate(workload, seed, p, expected_sha256):
    """Failed operations of one pass.

    Every operation of the pass fails when its bytes differ from the
    expected digest or cannot be parsed; otherwise the output's own
    failure records count.
    """
    if expected_sha256 is not None and p.sha256 != expected_sha256:
        return workload.ops_per_pass
    try:
        doc = read_output(p.out)
    except ValueError:
        return workload.ops_per_pass
    if p.rc != 0 and workload.is_batch:
        return workload.ops_per_pass
    try:
        return workload.failed_ops(seed, doc)
    except (KeyError, TypeError, AttributeError):
        return workload.ops_per_pass
