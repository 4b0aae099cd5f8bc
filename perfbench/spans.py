"""Spans around the calls a workload makes into each stuckwalk layer.

The probes replace module attributes for the duration of a traced pass,
so the program itself carries no tracing code.  A span records its name,
start, end, parent span and run id; spans of one pass share the pass id,
and spans inside one Monte-Carlo run also carry the run index.  Spans
stay in memory until the benchmark writes them out at the end.

Traced passes run serially: spans recorded in pool workers would be lost,
and the output is byte-identical for any worker count.
"""

import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int            # index into Tracer.spans, -1 for a root
    run: str               # "p<pass>" or "p<pass>.r<run index>"
    work: int              # steps, jumps or path steps the call produced
    error: str             # exception or failure type, "" if none


def _steps(args, result):
    return result.steps


def _analysed_steps(args, result):
    return args[0].steps


def _path_steps(args, result):
    return args[1] * args[2]            # horizon x runs


def _coupled_jumps(args, result):
    return len(result.positions1) + len(result.positions2) - 2


def _run_failure(result):
    reason = result[4]
    return reason.split(":", 1)[0] if reason else ""


# (module, attribute, span name, options).  A function reached through
# several module namespaces is probed in each of them.
PROBES = (
    ("stuckwalk.mc", "run_batch", "mc.run_batch", {}),
    ("stuckwalk.mc", "_run_one", "mc.run",
     {"failure": _run_failure, "run_index": lambda args: args[1]}),
    ("stuckwalk.mc", "derive_seed", "rng.derive_seed", {}),
    ("stuckwalk.mc", "simulate", "walk.simulate", {"work": _steps}),
    ("stuckwalk.cli", "simulate", "walk.simulate", {"work": _steps}),
    ("stuckwalk.walk", "exact_path_law", "walk.exact_path_law", {}),
    ("stuckwalk.mc", "detect_localization", "analysis.detect_localization",
     {"work": _analysed_steps}),
    ("stuckwalk.mc", "compare_profile", "analysis.compare_profile", {}),
    ("stuckwalk.analysis", "compare_profile", "analysis.compare_profile", {}),
    ("stuckwalk.mc", "batch_stats", "analysis.batch_stats", {}),
    ("stuckwalk.analysis", "solve_closed", "linsys.solve_closed", {}),
    ("stuckwalk.linsys", "solve_closed", "linsys.solve_closed", {}),
    ("stuckwalk.linsys", "solve_direct", "linsys.solve_direct", {}),
    ("stuckwalk.rubin", "equivalence_report", "rubin.equivalence_report", {}),
    ("stuckwalk.rubin", "sample_embedded_paths", "rubin.sample_embedded_paths",
     {"work": _path_steps}),
    ("stuckwalk.rubin", "couple", "rubin.couple", {"work": _coupled_jumps}),
    ("stuckwalk.spectrum", "Params.make", "spectrum.params", {}),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.first_call = {}       # span name -> (args, kwargs) of its first call
        self._open = []            # indices of the spans now running
        self._passes = 0
        self._run = ""

    def begin_pass(self):
        self._passes += 1
        self._run = f"p{self._passes}"

    def wrap(self, name, fn, work=None, failure=None, run_index=None):
        def traced(*args, **kwargs):
            self.first_call.setdefault(name, (args, kwargs))
            outer_run = self._run
            if run_index is not None:
                self._run = f"{outer_run.split('.')[0]}.r{run_index(args)}"
            span = Span(name, 0, 0, self._open[-1] if self._open else -1,
                        self._run, 0, "")
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
                self._run = outer_run
            if work is not None:
                span.work = work(args, result)
            if failure is not None:
                span.error = failure(result)
            return result
        return traced

    @contextmanager
    def probes(self):
        """Install every probe; restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, name, opts in PROBES:
                owner = importlib.import_module(module)
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.wrap(name, raw.__func__, **opts)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, **opts))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self):
        return [asdict(s) for s in self.spans]


LAYER_UNITS = {
    "walk.ns_per_step": "ns", "walk.self_s": "s", "walk.share": "frac",
    "walk.steps": "count", "walk.bytes_per_step": "B",
    "walk.exact_law_ms": "ms",
    "analysis.detect_ms": "ms", "analysis.compare_us": "us",
    "analysis.ns_per_step": "ns", "analysis.self_s": "s",
    "analysis.share": "frac", "analysis.batch_stats_ms": "ms",
    "mc.run_ms.p50": "ms", "mc.run_ms.p90": "ms", "mc.runs": "count",
    "mc.busy_s": "s", "mc.failed_runs": "count", "mc.parallel_eff": "frac",
    "mc.overhead_s": "s",
    "rubin.sampler_ns_per_path_step": "ns", "rubin.equivalence_ms": "ms",
    "rubin.couple_ms_per_pair": "ms", "rubin.us_per_jump": "us",
    "rubin.jumps": "count", "rubin.self_s": "s", "rubin.share": "frac",
    "rubin.construction_failures": "count",
    "linsys.solve_closed_us": "us", "linsys.solve_direct_us": "us",
    "linsys.calls": "count", "linsys.self_s": "s",
    "spectrum.params_us": "us", "cli.self_ms": "ms",
    "trace.passes": "count", "trace.overhead_frac": "frac",
}


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _pass_metrics(spans, self_ns):
    """Per-layer figures of one traced pass; spans are (index, Span)."""
    by_name = {}
    layer_self = {}
    for i, s in spans:
        by_name.setdefault(s.name, []).append(s)
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns[i]

    def dur(name):
        return [(s.end_ns - s.start_ns) / 1e9 for s in by_name.get(name, [])]

    def work(name):
        return sum(s.work for s in by_name.get(name, []))

    def self_s(layer):
        return layer_self.get(layer, 0) / 1e9

    wall = sum(dur("cli.dispatch"))
    steps = work("walk.simulate")
    analysed = work("analysis.detect_localization")
    path_steps = work("rubin.sample_embedded_paths")
    jumps = work("rubin.couple")
    linsys = dur("linsys.solve_closed") + dur("linsys.solve_direct")
    return {
        "wall": wall,
        "walk.ns_per_step": sum(dur("walk.simulate")) / steps * 1e9
        if steps else 0.0,
        "walk.self_s": self_s("walk"),
        "walk.share": self_s("walk") / wall,
        "walk.steps": steps,
        "walk.exact_law_ms": _mean(dur("walk.exact_path_law")) * 1e3,
        "analysis.detect_ms": _mean(dur("analysis.detect_localization")) * 1e3,
        "analysis.compare_us": _mean(dur("analysis.compare_profile")) * 1e6,
        "analysis.ns_per_step": self_s("analysis") / analysed * 1e9
        if analysed else 0.0,
        "analysis.self_s": self_s("analysis"),
        "analysis.share": self_s("analysis") / wall,
        "analysis.batch_stats_ms": _mean(dur("analysis.batch_stats")) * 1e3,
        "mc.busy_s": sum(dur("mc.run")),
        "rubin.sampler_ns_per_path_step":
            sum(dur("rubin.sample_embedded_paths")) / path_steps * 1e9
            if path_steps else 0.0,
        "rubin.equivalence_ms": _mean(dur("rubin.equivalence_report")) * 1e3,
        "rubin.couple_ms_per_pair": _mean(dur("rubin.couple")) * 1e3,
        "rubin.us_per_jump": sum(dur("rubin.couple")) / jumps * 1e6
        if jumps else 0.0,
        "rubin.jumps": jumps,
        "rubin.self_s": self_s("rubin"),
        "rubin.share": self_s("rubin") / wall,
        "linsys.solve_closed_us": _mean(dur("linsys.solve_closed")) * 1e6,
        "linsys.solve_direct_us": _mean(dur("linsys.solve_direct")) * 1e6,
        "linsys.calls": len(linsys),
        "linsys.self_s": self_s("linsys"),
        "spectrum.params_us": _mean(dur("spectrum.params")) * 1e6,
        "cli.self_ms": self_s("cli") * 1e3,
    }


def layer_metrics(spans, workers, untraced_wall_s):
    """Per-layer metrics over all traced passes.

    Per-pass figures are reported as their median over passes; run
    latencies are pooled over all runs of all passes.  Self time is a
    span's duration minus its children's: spans nest within one thread,
    so children never overlap.
    """
    self_ns = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_ns[s.parent] -= s.end_ns - s.start_ns
    passes = {}
    for i, s in enumerate(spans):
        passes.setdefault(s.run.split(".")[0], []).append((i, s))
    per_pass = [_pass_metrics(p, self_ns) for p in passes.values()]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    del out["wall"]

    runs = [s for s in spans if s.name == "mc.run"]
    run_ms = [(s.end_ns - s.start_ns) / 1e6 for s in runs]
    busy = out["mc.busy_s"]
    if run_ms:
        q = statistics.quantiles(run_ms, n=10, method="inclusive")
        out["mc.run_ms.p50"] = statistics.median(run_ms)
        out["mc.run_ms.p90"] = q[8]
        out["mc.parallel_eff"] = busy / (workers * untraced_wall_s)
        out["mc.overhead_s"] = workers * untraced_wall_s - busy
    else:
        out.update({"mc.run_ms.p50": 0.0, "mc.run_ms.p90": 0.0,
                    "mc.parallel_eff": 0.0, "mc.overhead_s": 0.0})
    out["mc.runs"] = len(runs)
    out["mc.failed_runs"] = sum(1 for s in runs if s.error)
    # the failure propagates through equivalence_report: count where raised
    out["rubin.construction_failures"] = sum(
        1 for s in spans if s.error == "ConstructionFailure"
        and s.name in ("rubin.couple", "rubin.sample_embedded_paths"))
    out["trace.passes"] = len(per_pass)
    return out
