"""Quick self-check of the benchmark itself.

    python3 perfbench/run.py --self-check

Runs every workload at its tiny size, as the benchmark command would be
run, and asserts that

* every metric named in BENCHMARK.json is emitted with its unit, and the
  result is correct with nothing failed;
* a flipped output byte trips the hash gate;
* a traced pass reproduces the untraced pass's bytes.
"""

import json
import os
import subprocess
import sys

from spans import Tracer
from workloads import QUICK_WORKLOADS, gate, run_pass


def _check(cond, what):
    if not cond:
        raise SystemExit(f"self-check FAILED: {what}")


def _metrics_emitted(root, spec):
    for name in QUICK_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=root, capture_output=True, text=True, timeout=600)
            _check(done.returncode == 0,
                   f"{name} trace={trace} exited {done.returncode}: "
                   f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys {sorted(result)}")
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(got == want,
                   f"{name} trace={trace}: metrics {got} != {want}")
            _check(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={trace}: non-numeric metric value")
            print(f"ok  {name} trace={trace}: {len(got)} metrics",
                  file=sys.stderr)


def _gates(cli, root):
    out_path = str(root / ".perfbench" / "selfcheck-out.json")
    for w in QUICK_WORKLOADS.values():
        seed = w.default_seed
        p = run_pass(cli.parse_and_dispatch, w.argv(seed, out_path), out_path)
        _check(gate(w, seed, p, w.pinned_sha256) == 0,
               f"{w.name}: pinned digest mismatch ({p.sha256})")
        flipped = bytearray(p.out)
        flipped[len(flipped) // 2] ^= 0x01
        p.out = bytes(flipped)
        _check(gate(w, seed, p, w.pinned_sha256) == w.ops_per_pass,
               f"{w.name}: a flipped output byte passed the hash gate")
        tracer = Tracer()
        with tracer.probes():
            traced = run_pass(
                tracer.wrap("cli.dispatch", cli.parse_and_dispatch),
                w.argv(seed, out_path, workers=1), out_path)
        _check(traced.sha256 == w.pinned_sha256,
               f"{w.name}: traced replay changed the output bytes")
        _check(len(tracer.spans) > 1, f"{w.name}: no layer spans recorded")
        print(f"ok  {w.name}: pinned digest, flipped byte, traced replay",
              file=sys.stderr)
    os.remove(out_path)


def self_check(cli, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    _check({w["name"] for w in spec["workloads"]} <= set(QUICK_WORKLOADS),
           "BENCHMARK.json names a workload perfbench/workloads.py lacks")
    _gates(cli, root)
    _metrics_emitted(root, spec)
    print("self-check passed", file=sys.stderr)
    return 0
