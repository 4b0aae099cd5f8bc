"""Direct discrete-time simulator for the stuck walk.

The walker at site j feels the local stream
Delta(j) = -alpha l(j-1) + l(j) - l(j+1) + alpha l(j+2), where l(j) is the
local time on the non-oriented edge {j-1, j}, and steps right with
probability 1 / (1 + exp(-2 beta Delta)).

Every Stop is recorded by a walker under ``_drive``: a group of
``"direct"`` walks in the compiled kernel (see ``_kernel``), which
``simulate_many`` advances to each stop in one call for the whole group
and ``simulate`` runs as a group of one, the ``"rubin"`` engine's
``rubin.RubinEngine``, or the ``WalkState`` bookkeeping replaying a kept
path.  ``WalkState`` also serves the exact path-law oracle.
"""

from array import array
from dataclasses import dataclass, field
from math import exp

from . import _kernel
from .errors import CapacityError
from .rng import philox_record
from .spectrum import Params

ENGINES = ("direct", "rubin")

_SAT = 40.0  # |2 beta Delta| beyond which the logistic saturates in double


def logistic_prob(x: float) -> float:
    """1 / (1 + exp(-x)), saturating instead of overflowing."""
    if x > _SAT:
        return 1.0
    if x < -_SAT:
        return 0.0
    return 1.0 / (1.0 + exp(-x))


@dataclass
class WalkState:
    """State of one walk: ``edge_lt[j]`` is the local time on edge
    {j-1, j}, and [min_site, max_site] the visited range."""

    alpha: float
    beta: float
    pos: int = 0
    edge_lt: dict = field(default_factory=dict)
    min_site: int = 0
    max_site: int = 0

    def lt(self, j: int) -> int:
        return self.edge_lt.get(j, 0)

    def apply_move(self, direction: int) -> None:
        """Move one step (+1 or -1) and update the counters in O(1)."""
        y = self.pos
        edge = y + (1 if direction > 0 else 0)  # {j-1, j} with j = edge
        self.edge_lt[edge] = self.edge_lt.get(edge, 0) + 1
        self.pos = y + direction
        if self.pos < self.min_site:
            self.min_site = self.pos
        elif self.pos > self.max_site:
            self.max_site = self.pos


def local_stream(state: WalkState, j: int) -> float:
    """Delta(j) from the current local times; absent edges count 0."""
    lt = state.edge_lt.get
    return (-state.alpha * lt(j - 1, 0) + lt(j, 0) - lt(j + 1, 0)
            + state.alpha * lt(j + 2, 0))


def step_prob_right(state: WalkState) -> float:
    return logistic_prob(2.0 * state.beta * local_stream(state, state.pos))


@dataclass
class Stop:
    """The walk after ``step`` steps: its position, its visited range
    [lo, hi] and the local times ``lt`` of edges lo..hi+1 (``array("q")``)."""

    step: int
    pos: int
    lo: int
    hi: int
    lt: array

    def snapshot(self) -> dict:
        return {
            "step": self.step,
            "pos": self.pos,
            "edge_local_times": {
                str(j): c for j, c in zip(range(self.lo, self.hi + 2),
                                          self.lt.tolist()) if c},
            "range": [self.lo, self.hi],
        }


@dataclass
class Trajectory:
    """One run.  ``positions`` is the path X_0..X_n, or None when the run
    kept no path; ``stops`` maps step counts to the Stops recorded during
    the run."""

    positions: list
    params: Params
    stops: dict = field(default_factory=dict)
    steps: int = None

    def __post_init__(self):
        if self.steps is None:
            self.steps = len(self.positions) - 1

    def stops_at(self, ks) -> list:
        """The Stops after each step count in ``ks``: the recorded ones,
        and the others from a replay of the path when the run kept it."""
        missing = sorted({k for k in ks if k not in self.stops})
        if missing and self.positions is None:
            raise ValueError(f"the run kept no path and recorded no stop at "
                             f"step {missing[0]}")
        stops = self.stops | (_drive(_PathWalk(self.positions), self.steps,
                                     missing) if missing else {})
        return [stops[k] for k in ks]


_WINDOW0 = 64  # edges in the kernel's first local-time array


class _KernelWalk:
    """One kernel walk: its 15 state words in one buffer, followed by a
    local-time array over a window of edges that doubles, recentred on
    the visited range, whenever the walker reaches its edge; memory grows
    with the range, not the step count.  The kernel draws the Philox
    stream of numpy's ``Generator(Philox(key=seed))`` itself, from the
    generator words of ``state`` (see ``stuck_walk_steps``), which start
    as ``rng.philox_record(seed)``.  ``_KernelGroup`` advances it."""

    def __init__(self, steps, seed, keep_path):
        # pos, lo, hi, first, last = 0, then the generator words
        self.state = bytes(40) + philox_record(seed)
        self._place(b"", _WINDOW0)          # edges 0..1, never crossed
        self.out = array("q", [0]) * (steps + 1) if keep_path else None
        # address of the next position the kernel writes, X_1 first, or
        # NULL: no path
        self.next_out = self.out.buffer_info()[0] + 8 if keep_path else 0

    def _place(self, lt, size):
        """Move the 15 state words into a new buffer, followed by a window
        of ``size`` edges centred on edges lo-1..hi+2 that holds ``lt``,
        the local times of edges lo..hi+1, or zeros where ``lt`` is
        empty."""
        buf = array("q", bytes(self.state) + bytes(8 * size))
        view = memoryview(buf)
        self.state, self.lt = view[:15], view[15:]
        lo, hi = view[1], view[2]
        first = lo - 1 - (size - (hi - lo + 4)) // 2
        if lt:
            self.lt[lo - first:hi + 2 - first] = lt
        view[3], view[4] = first, first + size - 1
        self.state_addr = buf.buffer_info()[0]

    def took(self, k):
        """Account for the ``k`` steps the kernel just took, and double
        the window if the walk left it: the kernel returns once lo-1..hi+2
        outgrew the window by one edge, so doubling makes room."""
        if self.out is not None:
            self.next_out += 8 * k
        _, lo, hi, first, last = self.state[:5].tolist()
        if lo - 1 < first or hi + 2 > last:
            self._place(self.lt[lo - first:hi + 2 - first], 2 * len(self.lt))

    def record(self, step_no):
        pos, lo, hi, first, _ = self.state[:5].tolist()
        return Stop(step_no, pos, lo, hi,
                    array("q", self.lt[lo - first:hi + 2 - first].tobytes()))

    def path(self):
        return None if self.out is None else self.out.tolist()


class _KernelGroup:
    """Kernel walks of one ``params`` behind the ``_drive`` interface:
    ``advance`` moves all of them in one ``stuck_walk_many`` call, then
    calls again for just those that stopped at their window's edge, once
    re-placed; ``record`` gives one Stop per walk, in seed order."""

    def __init__(self, kernels, params, steps, seeds, keep_path):
        self.kernel = kernels.stuck_walk_many
        self.alpha, self.tb = params.alpha, 2.0 * params.beta
        self.walks = [_KernelWalk(steps, seed, keep_path) for seed in seeds]

    def advance(self, n):
        if not n:
            return
        walks, left = self.walks, array("q", [n]) * len(self.walks)
        while walks:
            # the arrays are named: the kernel reads them by address
            states = array("q", [w.state_addr for w in walks])
            outs = array("q", [w.next_out for w in walks])
            taken = array("q", left)        # steps wanted in, taken out
            self.kernel(self.alpha, self.tb, len(walks),
                        states.buffer_info()[0], outs.buffer_info()[0],
                        taken.buffer_info()[0])
            again, rest = [], array("q")
            for walk, want, k in zip(walks, left, taken):
                walk.took(k)
                if k < want:
                    again.append(walk)
                    rest.append(want - k)
            walks, left = again, rest

    def record(self, step_no):
        return [walk.record(step_no) for walk in self.walks]


class _PathWalk:
    """The ``WalkState`` bookkeeping replaying a kept path from its first
    position, which need not be 0; no step is drawn, alpha goes unread."""

    def __init__(self, positions):
        x0 = positions[0]
        self.state = WalkState(0.0, 0.0, pos=x0, min_site=x0, max_site=x0)
        self.positions, self.done = positions, 0

    def advance(self, n):
        path, state = self.positions, self.state
        for i in range(self.done, self.done + n):
            if abs(move := path[i + 1] - path[i]) != 1:
                raise ValueError(f"path step {i + 1} goes from {path[i]} "
                                 f"to {path[i + 1]}, not by +-1")
            state.apply_move(move)
        self.done += n

    def record(self, step_no):
        s = self.state
        lo, hi = s.min_site, s.max_site
        return Stop(step_no, s.pos, lo, hi,
                    array("q", [s.lt(j) for j in range(lo, hi + 2)]))


def _drive(walker, steps, marks):
    """Walk ``steps`` steps; return the Stops recorded after each step
    count of ``marks`` (sorted, within 0..steps, else ValueError)."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if marks and not 0 <= marks[0] <= marks[-1] <= steps:
        raise ValueError(f"stops must lie in [0, {steps}], got {marks}")
    records, done = {}, 0
    for target in marks:
        walker.advance(target - done)
        records[target] = walker.record(target)
        done = target
    walker.advance(steps - done)
    return records


def simulate_many(params: Params, steps: int, seeds, stops=(),
                  keep_path: bool = True) -> list:
    """The ``"direct"`` walk of each seed in ``seeds``, as
    ``simulate(params, steps, seed, stops, keep_path)`` gives it, walked
    as one group: one kernel call per stop for all of them, and one more
    per round of walks that outgrew their window.  Raises OSError if the
    kernel cannot be built."""
    group = _KernelGroup(_kernel.load(), params, steps, seeds, keep_path)
    marks = sorted(set(stops))
    records = _drive(group, steps, marks)
    return [Trajectory(positions=walk.path(), params=params,
                       stops={k: records[k][i] for k in marks}, steps=steps)
            for i, walk in enumerate(group.walks)]


def simulate(params: Params, steps: int, seed: int, stops=(),
             keep_path: bool = True, engine: str = "direct") -> Trajectory:
    """Run one ``engine`` walk, deterministic in (params, steps, seed).

    The walk records a Stop after each step count in ``stops`` (kept in
    ``Trajectory.stops``).  With ``keep_path=False`` the trajectory has no
    position path and the run's memory grows with the visited range only.

    A ``"direct"`` walk is the one-seed group of ``simulate_many``, run
    in the compiled kernel of ``_kernel`` (OSError if it cannot be
    built).  A ``"rubin"`` walk of ``steps`` jumps is that of
    ``rubin.simulate_rubin``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "direct":
        return simulate_many(params, steps, [seed], stops, keep_path)[0]
    from .rubin import RubinEngine, SequentialClockSource
    walker = RubinEngine(params, SequentialClockSource(seed), keep_path)
    records = _drive(walker, steps, sorted(set(stops)))
    return Trajectory(positions=walker.path(), params=params,
                      stops=records, steps=steps)


MAX_EXACT_HORIZON = 14


def exact_path_law(params: Params, horizon: int) -> dict:
    """Exact law of the first ``horizon`` steps by full enumeration.

    Keys are position tuples (X_1, ..., X_h); values are path probabilities
    (products of the step probabilities), summing to 1.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > MAX_EXACT_HORIZON:
        raise CapacityError(
            f"exact enumeration supports horizon <= {MAX_EXACT_HORIZON}, got {horizon}")
    law = {}
    state = WalkState(alpha=params.alpha, beta=params.beta)
    path = []

    def recurse(prob):
        if len(path) == horizon:
            law[tuple(path)] = prob
            return
        p_right = step_prob_right(state)
        y = state.pos
        for direction, p in ((1, p_right), (-1, 1.0 - p_right)):
            state.apply_move(direction)
            path.append(state.pos)
            recurse(prob * p)
            path.pop()
            state.pos = y
            state.edge_lt[y + (direction > 0)] -= 1

    recurse(1.0)
    return law


# --- debug oracle --------------------------------------------------------

def recount_local_times(positions) -> dict:
    """Edge local times recomputed from scratch (oracle for the hot loop)."""
    lt = {}
    for a, b in zip(positions, positions[1:]):
        j = max(a, b)
        lt[j] = lt.get(j, 0) + 1
    return lt

