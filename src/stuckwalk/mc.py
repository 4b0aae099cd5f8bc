"""Reproducible Monte-Carlo batches.

Every run gets its own seed derived from (master_seed, run_index) by a
fixed avalanche mix, so the batch output is a pure function of its config:
identical across platforms, worker counts, and scheduling orders.
A batch first walks every run, path-free, to the Stops its analysis
reads, in chunks of consecutive runs: on threads, each chunk of
``direct`` walks one ``walk.simulate_many`` group (one kernel call per
chunk and stop), or in processes, ``rubin`` walks (which race in Python)
one ``walk.simulate`` per run.  It then analyzes and aggregates the runs
in index order with integer counters, never order-sensitive
floating-point accumulation.
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
from .walk import ENGINES, simulate, simulate_many

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
    ``stops``, at the tail start and at the end."""
    traj = simulate(params, steps, seed,
                    stops=(*stops, tail_start(steps, tail_fraction), steps),
                    keep_path=False, engine=engine)
    return _analyze(traj, tail_fraction), traj


def _analyze(traj, tail_fraction: float):
    summary = detect_localization(traj, tail_fraction)
    if summary.localized and 0 <= summary.size - 2 <= traj.params.L + 1:
        compare_profile(summary, traj.params)
    return summary


def _walk_run(config: BatchConfig, index: int):
    """Run ``index`` of a ``rubin`` batch walked to the Stops its analysis
    reads, or that walk's failure.  Top-level so it pickles."""
    try:
        return simulate(config.params, config.steps,
                        derive_seed(config.master_seed, index),
                        stops=_stops(config), keep_path=False,
                        engine=config.engine)
    except StuckWalkError as exc:
        return f"{type(exc).__name__}: {exc}"


def _walk_chunk(config: BatchConfig, indices: range) -> list:
    """Runs ``indices`` of a batch walked to the Stops their analysis
    reads: ``direct`` walks as one kernel group, which cannot fail, and
    ``rubin`` walks one by one through ``_walk_run``."""
    if config.engine == "rubin":
        return [_walk_run(config, i) for i in indices]
    return simulate_many(config.params, config.steps,
                         [derive_seed(config.master_seed, i) for i in indices],
                         stops=_stops(config), keep_path=False)


def _stops(config: BatchConfig):
    return tail_start(config.steps, config.tail_fraction), config.steps


def _run_one(config: BatchConfig, index: int, traj):
    """Run ``index`` of a batch analyzed from its walk ``traj``, or that
    walk's failure, as (index, seed, summary, None, failure).  perfbench
    reads the failure at index 4."""
    seed = derive_seed(config.master_seed, index)
    if isinstance(traj, str):
        return index, seed, None, None, traj
    try:
        return index, seed, _analyze(traj, config.tail_fraction), None, None
    except StuckWalkError as exc:
        return index, seed, None, None, f"{type(exc).__name__}: {exc}"


def run_batch(config: BatchConfig) -> BatchResult:
    """Walk the runs on at most min(workers, runs, cpus) threads, or
    processes for ``rubin`` walks, then analyze them here in index order.

    Walkers claim chunks of ``max(1, runs // (4 * workers))`` consecutive
    runs; a thread walks a ``direct`` chunk as one kernel group, so it
    crosses into C once per chunk and stop.  Per-run failures are
    recorded with their seed for replay; the batch itself fails only if
    more than 1% of runs fail.
    """
    workers = min(config.workers, config.runs, os.cpu_count() or 1)
    chunk = max(1, config.runs // (4 * workers))
    # build the kernels once, here: load() holds no lock, and a missing
    # compiler then fails before any walker starts
    _kernel.load()
    if workers > 1 and config.engine == "rubin":
        # here, so that a direct batch imports no process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            walks = dict(enumerate(pool.map(
                _walk_run, [config] * config.runs, range(config.runs),
                chunksize=chunk)))
    else:
        # the kernel call releases the GIL; one walker starts no thread
        walks, errors = {}, []
        # next() is atomic under the GIL
        claims = iter(range(0, config.runs, chunk))
        def walk():
            for start in claims:
                if errors:
                    break
                indices = range(start, min(start + chunk, config.runs))
                try:
                    walks.update(zip(indices, _walk_chunk(config, indices)))
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
    # each walk is dropped once analyzed
    raw = [_run_one(config, i, walks.pop(i)) for i in range(config.runs)]

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
