"""Reproducible Monte-Carlo batches.

Every run gets its own seed derived from (master_seed, run_index) by a
fixed avalanche mix, so the batch output is a pure function of its config:
identical across platforms, worker counts, and scheduling orders.
A batch splits its runs into chunks of consecutive runs, and the worker
that claims a chunk walks it, path-free, to the Stops its analysis reads,
then analyzes it: on threads, a ``direct`` chunk as one
``walk.simulate_many`` group (one kernel call per chunk and stop), or in
processes, ``rubin`` walks (which race in Python) one ``walk.simulate``
per run.  The records are joined in index order and aggregated with
integer counters, never order-sensitive floating-point accumulation.
"""

import os
import threading
from dataclasses import dataclass, field

from . import _kernel
from .analysis import (MIN_TRAJECTORY, batch_stats, compare_profile,
                       detect_localization, tail_start)
from .errors import StuckWalkError
from .rng import derive_seed
from .spectrum import Params
from .walk import ENGINES, MAX_STEPS, simulate, simulate_many

__all__ = ["BatchConfig", "derive_seed", "run_batch", "run_one"]


@dataclass(frozen=True)
class BatchConfig:
    params: Params
    runs: int
    steps: int
    master_seed: int
    engine: str = "direct"          # one of walk.ENGINES
    workers: int = 1
    tail_fraction: float = 0.5

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.steps < MIN_TRAJECTORY:
            raise ValueError(
                f"steps must be >= {MIN_TRAJECTORY}, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(
                f"steps must be <= {MAX_STEPS}, got {self.steps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        tail_start(self.steps, self.tail_fraction)


@dataclass
class BatchResult:
    summaries: list                 # index-ordered; None where a run failed
    aggregate: object               # BatchAggregate
    failures: list = field(default_factory=list)  # {run, seed, reason}


def run_one(params: Params, steps: int, seed: int, engine: str,
            tail_fraction: float, stops=()):
    """Walk and analyze one run; returns (summary, trajectory).  The
    trajectory keeps no path, only the Stops after each step count of
    ``stops`` and those its analysis reads."""
    traj = simulate(params, steps, seed,
                    stops=(*stops, *_stops(steps, tail_fraction)),
                    keep_path=False, engine=engine)
    return _analyze(traj, tail_fraction), traj


def _stops(steps: int, tail_fraction: float):
    """The step counts whose Stops a run's analysis reads."""
    return tail_start(steps, tail_fraction), steps


def _analyze(traj, tail_fraction: float):
    summary = detect_localization(traj, tail_fraction)
    if summary.localized and 0 <= summary.size - 2 <= traj.params.L + 1:
        compare_profile(summary, traj.params)
    return summary


def _run_chunk(config: BatchConfig, indices: range) -> list:
    """Runs ``indices`` of a batch walked and analyzed, as ``_run_one``
    records: ``direct`` walks as one kernel group, which cannot fail, and
    ``rubin`` walks one by one, a walk's ``StuckWalkError`` kept in its
    place.  Top-level so it pickles."""
    seeds = [derive_seed(config.master_seed, i) for i in indices]
    stops = _stops(config.steps, config.tail_fraction)
    if config.engine == "direct":
        walks = simulate_many(config.params, config.steps, seeds,
                              stops=stops, keep_path=False)
    else:
        walks = []
        for seed in seeds:
            try:
                walks.append(simulate(config.params, config.steps, seed,
                                      stops=stops, keep_path=False,
                                      engine=config.engine))
            except StuckWalkError as exc:
                walks.append(exc)
    walks.reverse()                     # each walk is dropped once analyzed
    return [_run_one(config, i, walks.pop()) for i in indices]


def _run_one(config: BatchConfig, index: int, traj):
    """Run ``index`` of a batch analyzed from its walk ``traj``, or that
    walk's failure, as (index, seed, summary, None, failure).  perfbench
    reads the failure at index 4."""
    seed = derive_seed(config.master_seed, index)
    try:
        if isinstance(traj, StuckWalkError):
            raise traj
        return index, seed, _analyze(traj, config.tail_fraction), None, None
    except StuckWalkError as exc:
        return index, seed, None, None, f"{type(exc).__name__}: {exc}"


def run_batch(config: BatchConfig) -> BatchResult:
    """Run the batch in chunks of ``max(1, runs // (4 * workers))``
    consecutive runs on at most min(workers, runs, cpus) threads, or
    processes for ``rubin`` walks; the worker that claims a chunk walks
    and analyzes it.  Per-run failures are recorded with their seed for
    replay, in index order; the batch itself fails only if more than 1%
    of runs fail."""
    workers = min(config.workers, config.runs, os.cpu_count() or 1)
    chunk = max(1, config.runs // (4 * workers))
    chunks = [range(start, min(start + chunk, config.runs))
              for start in range(0, config.runs, chunk)]
    # build the kernels once, here: load() holds no lock, and a missing
    # compiler then fails before any walker starts
    _kernel.load()
    if workers > 1 and config.engine == "rubin":
        # here, so that a direct batch imports no process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_chunk, [config] * len(chunks),
                                    chunks))
    else:
        # the kernel call releases the GIL; one walker starts no thread
        records, errors = [None] * len(chunks), []
        # next() is atomic under the GIL
        claims = iter(enumerate(chunks))
        def walk():
            for k, indices in claims:
                if errors:
                    break
                try:
                    records[k] = _run_chunk(config, indices)
                except BaseException as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=walk) for _ in range(workers - 1)]
        for thread in threads:
            thread.start()
        walk()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    raw = [record for part in records for record in part]
    summaries = [summary for _, _, summary, _, _ in raw]
    failures = [{"run": index, "seed": seed, "reason": reason}
                for index, seed, _, _, reason in raw if reason is not None]
    if len(failures) > 0.01 * config.runs:
        raise StuckWalkError(
            f"{len(failures)}/{config.runs} runs failed; first: {failures[0]}")
    return BatchResult(
        summaries=summaries,
        aggregate=batch_stats([s for s in summaries if s is not None],
                              config.params),
        failures=failures)
