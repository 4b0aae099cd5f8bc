"""Reproducible Monte-Carlo batches.

Every run gets its own seed derived from (master_seed, run_index) by a
fixed avalanche mix, so the batch output is a pure function of its config:
identical across platforms, worker counts, and scheduling orders.
Aggregation reads the runs in index order, as ``pool.map`` returns them,
and uses integer counters, never order-sensitive floating-point
accumulation.
"""

import os
from dataclasses import dataclass, field

from .analysis import (batch_stats, compare_profile, detect_localization,
                       tail_start)
from .errors import StuckWalkError
from .rng import derive_seed
from .spectrum import Params
from .walk import ENGINES, simulate

__all__ = ["BatchConfig", "derive_seed", "run_batch", "run_one"]

# Kernel batches of fewer steps in all run serially: on 2 cores the serial
# and 2-worker walls cross between 2e6 and 3e6 steps (BENCH_11.json).
# Batches in Python (rubin, or direct where no kernel loads) always pool.
_POOL_MIN_STEPS = 2_500_000


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
        if self.steps < 1000:
            raise ValueError(f"steps must be >= 1000, got {self.steps}")
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
    """Simulate and analyze one run; returns (summary, trajectory).

    A direct run keeps no path: it stops at each step count of
    ``stops``, at the tail start and at the end, which is all the
    analysis and the caller read.  A rubin run keeps its path, from which
    any stop can be read.
    """
    if engine == "rubin":
        from .rubin import simulate_rubin
        traj, _ty = simulate_rubin(params, steps, seed)
    else:
        t0 = tail_start(steps, tail_fraction)
        traj = simulate(params, steps, seed, stops=(*stops, t0, steps),
                        keep_path=False)
    summary = detect_localization(traj, tail_fraction)
    if summary.localized and 0 <= summary.size - 2 <= params.L + 1:
        compare_profile(summary, params)
    return summary, traj


def _run_one(config: BatchConfig, index: int):
    """``run_one`` for run ``index`` of a batch, as (index, seed, summary,
    None, failure); perfbench reads the failure at index 4.  Top-level so
    it pickles."""
    seed = derive_seed(config.master_seed, index)
    try:
        summary, _ = run_one(config.params, config.steps, seed,
                             config.engine, config.tail_fraction)
        return index, seed, summary, None, None
    except StuckWalkError as exc:
        return index, seed, None, None, f"{type(exc).__name__}: {exc}"


def run_batch(config: BatchConfig) -> BatchResult:
    """Run the batch on at most min(workers, runs, cpus) processes; aggregate.

    Per-run failures are recorded with their seed for replay; the batch
    itself fails only if more than 1% of runs fail.
    """
    from . import _kernel  # here, so that importing mc loads no kernel

    indices = range(config.runs)
    workers = min(config.workers, config.runs, os.cpu_count() or 1)
    if workers > 1 and (config.engine == "rubin"
                        or config.runs * config.steps >= _POOL_MIN_STEPS
                        or _kernel.load() is None):
        # here, so that a serial batch imports no process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_one, [config] * config.runs, indices,
                                chunksize=max(1, config.runs // (4 * workers))))
    else:
        raw = [_run_one(config, i) for i in indices]

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

