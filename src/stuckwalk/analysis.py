"""Localization detection and comparison with the candidate profiles.

A trajectory localizes when, over the tail of the run, the walk keeps
visiting every site of a fixed interval at a sustained rate.  The
normalized edge local-time increments over that tail are then compared
with the closed-form candidate profile of matching window size.
"""

from dataclasses import dataclass
import functools
import math

from .errors import NoTheory, TooShort
from .linsys import interior_streams, solve_closed
from .spectrum import Params
from .walk import Trajectory

WILSON_Z = 1.959963984540054  # two-sided 95%

# A window site must collect at least tail_len/(SUSTAIN_DIVISOR * size)
# visits over the tail to count as recurrent at finite horizon.
SUSTAIN_DIVISOR = 10

MIN_TRAJECTORY = 1000


@dataclass
class RunSummary:
    """Tail diagnostics of one trajectory."""

    window: tuple               # (a, b), sites visited during the tail
    size: int                   # b - a + 1
    localized: bool
    profile: list               # normalized interior edge local times (tail)
    deviation: float            # vs matching closed-form profile, nan if n/a
    stream_rate: dict           # interior site -> |Delta_k(j)| / k at final k
    range_final: tuple          # (min, max) site ever visited

    def as_dict(self):
        return {
            "window": list(self.window),
            "size": self.size,
            "localized": self.localized,
            "profile": list(self.profile),
            "deviation": self.deviation,
            "stream_rate": {str(j): v for j, v in self.stream_rate.items()},
            "range_final": list(self.range_final),
        }


def tail_start(steps: int, tail_fraction: float) -> int:
    """First step count of the tail that ``detect_localization`` reads."""
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must be in (0,1), got {tail_fraction}")
    tail = int(steps * tail_fraction)
    if tail < 1:
        raise ValueError(f"a tail_fraction of {tail_fraction} of {steps} "
                         f"steps holds no step")
    return steps - tail


def detect_localization(traj: Trajectory, tail_fraction: float = 0.5) -> RunSummary:
    """Estimate the localization window from the final tail of a run.

    The window is the set of sites visited during the last ``tail_fraction``
    of the steps; the run counts as localized when each of its sites is
    visited at least tail_len/(10*size) times.  The profile is built from
    edge local-time increments over the tail only.

    Everything comes from the Stops at the tail start t0 and at the end:
    with e(j) the tail crossings of edge {j-1, j}, site j is visited
    (e(j) + e(j+1) + 1{X_t0 = j} + 1{X_end = j}) / 2 times in the tail.
    A path-free trajectory must have recorded both Stops.
    """
    steps = traj.steps
    if steps < MIN_TRAJECTORY:
        raise TooShort(
            f"need >= {MIN_TRAJECTORY} steps, got {steps}")
    t0 = tail_start(steps, tail_fraction)
    start, end = traj.stops_at([t0, steps])
    lo, hi = end.lo, end.hi
    end_lt = end.lt.tolist()                            # edges lo..hi+1
    t0_lt = [0] * (start.lo - lo) + start.lt.tolist() + [0] * (hi - start.hi)
    # the tail crosses exactly the edges a+1..b of its window [a, b]
    i, j = 1, hi - lo
    while end_lt[i] == t0_lt[i]:
        i += 1
    while end_lt[j] == t0_lt[j]:
        j -= 1
    a, b = lo + i - 1, lo + j
    crossings = [x - y for x, y in zip(end_lt[i - 1:j + 2],
                                       t0_lt[i - 1:j + 2])]  # edges a..b+1
    twice = [x + y for x, y in zip(crossings, crossings[1:])]  # sites a..b
    twice[start.pos - a] += 1
    twice[end.pos - a] += 1
    size = b - a + 1
    threshold = (steps - t0) / (SUSTAIN_DIVISOR * size)
    localized = all(t // 2 >= threshold for t in twice)

    inner = crossings[1:-1]                             # edges a+1..b
    total = sum(inner)
    profile = [c / total for c in inner] if total else [0.0] * len(inner)

    # Delta(j) for j = a+1..b-1 from the local times of edges a..b+1
    streams = interior_streams(end_lt[a - lo:b + 2 - lo], traj.params.alpha)
    stream_rate = {j: abs(d) / steps for j, d in zip(range(a + 1, b), streams)}

    return RunSummary(
        window=(a, b), size=size, localized=localized,
        profile=profile, deviation=float("nan"), stream_rate=stream_rate,
        range_final=(lo, hi))


@functools.lru_cache(maxsize=64)
def _closed_profile(K: int, alpha: float) -> tuple:
    """Interior edges of the closed-form profile, shared by every run of a
    batch.  For K <= L+1 each is finite and positive: with omega in
    (2 pi/(L+3), 2 pi/(L+2)), both sine factors of l_1..l_{K+1} have
    arguments in (0, pi)."""
    return solve_closed(K, alpha).l[1:K + 2]


def compare_profile(summary: RunSummary, params: Params) -> RunSummary:
    """Fill in the max abs deviation of the tail profile from the
    closed-form candidate of matching window size (K = size - 2).

    Size L+3 windows are compared against the K = L+1 candidate.  Larger
    windows have no closed form and raise NoTheory.
    """
    K = summary.size - 2
    if K > params.L + 1:
        raise NoTheory(
            f"window size {summary.size} exceeds L+3 = {params.L + 3}; "
            "no closed-form profile")
    if K < 0:
        raise NoTheory(f"window size {summary.size} too small to compare")
    target = _closed_profile(K, params.alpha)
    prof = summary.profile
    if len(prof) != len(target):
        raise NoTheory(
            f"profile length {len(prof)} does not match K = {K}")
    summary.deviation = max(abs(x - y) for x, y in zip(prof, target))
    return summary


def wilson_interval(successes: int, n: int):
    """Wilson score confidence interval for a binomial fraction."""
    z = WILSON_Z
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class BatchAggregate:
    """Order-independent aggregate over a list of run summaries."""

    runs: int
    size_histogram: dict
    frac_localized: float
    frac_L2: float
    frac_L3: float
    ci_L2: tuple
    ci_L3: tuple
    mean_deviation: float
    max_deviation: float

    def as_dict(self):
        return {
            "runs": self.runs,
            "size_histogram": {str(k): v for k, v in
                               sorted(self.size_histogram.items())},
            "frac_localized": self.frac_localized,
            "frac_L2": self.frac_L2,
            "frac_L3": self.frac_L3,
            "ci_L2": list(self.ci_L2),
            "ci_L3": list(self.ci_L3),
            "mean_deviation": self.mean_deviation,
            "max_deviation": self.max_deviation,
        }


def _pairwise_sum(x) -> float:
    """The sum of ``x`` in numpy's float64 pairwise order, so that dividing
    by len(x) gives ``np.mean(x)`` bit for bit: in order below 8 items, in 8
    accumulators up to 128, and over halves split at a multiple of 8 above."""
    n = len(x)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    s, rest = 0.0, x
    if n >= 8:
        r, rest = x[:8], x[n - n % 8:]
        for i in range(8, n - n % 8, 8):
            r = [u + v for u, v in zip(r, x[i:i + 8])]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in rest:
        s += v
    return s


def batch_stats(summaries, params: Params) -> BatchAggregate:
    """Histogram of localization sizes, fractions at L+2 / L+3 with Wilson
    intervals, and the profile deviations, which ``compare_profile`` has
    filled in, among the size-(L+2) runs."""
    if not summaries:
        raise ValueError("batch_stats needs at least one summary")
    n = len(summaries)
    hist = {}
    n_loc = n_l2 = n_l3 = 0
    devs = []
    for s in summaries:
        key = s.size if s.localized else -1
        hist[key] = hist.get(key, 0) + 1
        if not s.localized:
            continue
        n_loc += 1
        if s.size == params.L + 2:
            n_l2 += 1
            devs.append(s.deviation)
        elif s.size == params.L + 3:
            n_l3 += 1
    return BatchAggregate(
        runs=n, size_histogram=hist,
        frac_localized=n_loc / n, frac_L2=n_l2 / n, frac_L3=n_l3 / n,
        ci_L2=wilson_interval(n_l2, n), ci_L3=wilson_interval(n_l3, n),
        mean_deviation=_pairwise_sum(devs) / n_l2 if devs else float("nan"),
        max_deviation=max(devs) if devs else float("nan"))
