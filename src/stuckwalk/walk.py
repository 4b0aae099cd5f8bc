"""Direct discrete-time simulator for the stuck walk.

The walker at site j feels the local stream
Delta(j) = -alpha l(j-1) + l(j) - l(j+1) + alpha l(j+2), where l(j) is the
local time on the non-oriented edge {j-1, j}, and steps right with
probability 1 / (1 + exp(-2 beta Delta)).

Every Stop is recorded by a walker under ``_drive``: a group of
``"direct"`` walks in the compiled kernel (see ``_kernel``), which
``simulate_many`` advances to each stop in one call for the whole group
and ``simulate`` runs as a group of one, the ``"rubin"`` engine's
``rubin._RaceWalk``, which races sequential clocks in the kernel's
``stuck_rubin_races``, or ``_PathWalk`` replaying a kept path, the one
code here that counts local times off a path.  The step rule is the
kernel's alone: ``exact_path_law`` weighs its steps with it.
"""

from array import array
from dataclasses import dataclass, field

from . import _kernel
from .errors import CapacityError
from .rng import philox_record
from .spectrum import Params

ENGINES = ("direct", "rubin")

# the most steps one kernel walk takes: the kernel counts steps in int64,
# and a kept path holds steps + 1 positions
MAX_STEPS = 2**63 - 2


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
    kept no path, and then ``steps`` gives n; ``stops`` maps step counts to
    the Stops recorded during the run, each under its own ``Stop.step``."""

    positions: list
    params: Params
    stops: dict = field(default_factory=dict)
    steps: int = None

    def __post_init__(self):
        if self.positions is not None:
            n = len(self.positions) - 1
            if n < 0:
                raise ValueError("positions must hold X_0, got an empty path")
            if self.steps not in (None, n):
                raise ValueError(f"steps must be len(positions) - 1 = {n}, "
                                 f"got {self.steps}")
            self.steps = n
        elif self.steps is None or self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        for k, stop in self.stops.items():
            if stop.step != k or not 0 <= k <= self.steps:
                raise ValueError(f"stops must be filed under their own step "
                                 f"in [0, {self.steps}], got the step "
                                 f"{stop.step} stop at key {k}")

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
    """A kept path replayed from its first position, which need not be 0:
    the edge local times ``lt`` (edge {j-1, j} at key j) of its first
    ``done`` steps; no step is drawn."""

    def __init__(self, positions):
        self.positions, self.done, self.lt = positions, 0, {}

    def advance(self, n):
        path, lt = self.positions, self.lt
        for i in range(self.done, self.done + n):
            a, b = path[i], path[i + 1]
            if b == a + 1:
                lt[b] = lt.get(b, 0) + 1
            elif b == a - 1:
                lt[a] = lt.get(a, 0) + 1
            else:
                raise ValueError(f"path step {i + 1} goes from {a} "
                                 f"to {b}, not by +-1")
        self.done += n

    def record(self, step_no):
        lt, pos = self.lt, self.positions[self.done]
        # a +-1 path over the sites lo..hi has crossed edges lo+1..hi
        lo, hi = (min(lt) - 1, max(lt)) if lt else (pos, pos)
        return Stop(step_no, pos, lo, hi,
                    array("q", [lt.get(j, 0) for j in range(lo, hi + 2)]))


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
    kernel cannot be built, and ValueError, before any allocation, if
    ``steps`` exceeds ``MAX_STEPS``."""
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}, got {steps}")
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
    ``rubin.simulate_rubin``, raced in the same kernel library.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "direct":
        return simulate_many(params, steps, [seed], stops, keep_path)[0]
    from .rubin import _RaceWalk
    walker = _RaceWalk(params, seed, steps, keep_path)
    records = _drive(walker, steps, sorted(set(stops)))
    return Trajectory(positions=walker.path(), params=params,
                      stops=records, steps=steps)


MAX_EXACT_HORIZON = 14


def exact_path_law(params: Params, horizon: int) -> dict:
    """Exact law of the first ``horizon`` steps by full enumeration.

    Keys are position tuples (X_1, ..., X_h); values are path probabilities
    (products of the kernel's step probabilities ``stuck_step_prob``),
    summing to 1.  Raises OSError if the kernel cannot be built.
    """
    from operator import index

    try:
        horizon = index(horizon)
    except TypeError:
        raise ValueError(f"horizon must be an integer, got "
                         f"{horizon!r}") from None
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > MAX_EXACT_HORIZON:
        raise CapacityError(
            f"exact enumeration supports horizon <= {MAX_EXACT_HORIZON}, got {horizon}")
    step_prob = _kernel.load().stuck_step_prob
    alpha, tb = params.alpha, 2.0 * params.beta
    # edges -h-1..h+2, all a walk of h steps reads: edge j at lt[j + h + 1]
    lt = array("q", bytes(8 * (2 * horizon + 4)))
    edge0 = lt.buffer_info()[0] + 8 * (horizon + 1)
    law = {}

    def recurse(path, pos, prob):
        if len(path) == horizon:
            law[path] = prob
            return
        p_right = step_prob(alpha, tb, edge0 + 8 * pos)
        left = pos + horizon + 1        # where lt holds the edge {pos-1, pos}
        for y, edge, p in ((pos + 1, left + 1, p_right),
                           (pos - 1, left, 1.0 - p_right)):
            lt[edge] += 1
            recurse(path + (y,), y, prob * p)
            lt[edge] -= 1

    recurse((), 0, 1.0)
    return law
