"""Direct discrete-time simulator for the stuck walk.

The walker at site j feels the local stream
Delta(j) = -alpha l(j-1) + l(j) - l(j+1) + alpha l(j+2), where l(j) is the
local time on the non-oriented edge {j-1, j}, and steps right with
probability 1 / (1 + exp(-2 beta Delta)).

Two engines produce bit-identical trajectories from the same seed: a
compiled step kernel used by ``simulate`` (see ``_kernel``) and a
bookkeeping-complete ``WalkState`` stepper kept as the reference, as the
fallback where no kernel can be built, and for the exact small-horizon
path-law oracle.
"""

from dataclasses import dataclass, field
from math import exp

import numpy as np

from .errors import CapacityError
from .rng import BLOCK, UniformBlocks, philox
from .spectrum import Params

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
    """Full bookkeeping state of one walk.

    ``edge_lt[j]`` is the local time on edge {j-1, j}; ``site_visits[j]``
    counts visits to j (excluding the start at 0); ``crossings[(j, s)]``
    counts crossings of the oriented edge (j, j+s).
    """

    alpha: float
    beta: float
    pos: int = 0
    step: int = 0
    edge_lt: dict = field(default_factory=dict)
    site_visits: dict = field(default_factory=dict)
    crossings: dict = field(default_factory=dict)
    min_site: int = 0
    max_site: int = 0

    def lt(self, j: int) -> int:
        return self.edge_lt.get(j, 0)

    def apply_move(self, direction: int) -> None:
        """Move one step (+1 or -1) and update all counters in O(1)."""
        y = self.pos
        edge = y + (1 if direction > 0 else 0)  # {j-1, j} with j = edge
        self.edge_lt[edge] = self.edge_lt.get(edge, 0) + 1
        self.crossings[(y, direction)] = self.crossings.get((y, direction), 0) + 1
        self.pos = y + direction
        self.step += 1
        self.site_visits[self.pos] = self.site_visits.get(self.pos, 0) + 1
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


def step(state: WalkState, u: float) -> WalkState:
    """Advance one step using the uniform draw u; mutates and returns state."""
    state.apply_move(1 if u < step_prob_right(state) else -1)
    return state


@dataclass
class Trajectory:
    positions: list
    seed: int
    params: Params
    snapshots: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.positions) - 1


def _snapshot(step_no, pos, lo, hi, counts):
    """Snapshot record; ``counts`` are the local times of edges lo..hi+1."""
    return {
        "step": step_no,
        "pos": pos,
        "edge_local_times": {str(j): c
                             for j, c in zip(range(lo, hi + 2), counts) if c},
        "range": [lo, hi],
    }


def _simulate_kernel(kernel, params, steps, seed, snapshot_every):
    """Drive the compiled kernel over Philox blocks, split at snapshots."""
    off = steps + 2
    lt = np.zeros(2 * steps + 5, dtype=np.int64)
    out = np.zeros(steps + 1, dtype=np.int64)
    state = np.zeros(3, dtype=np.int64)  # pos, lo, hi
    lt_origin = lt.ctypes.data + 8 * off
    out_addr = out.ctypes.data
    state_addr = state.ctypes.data
    alpha, tb = params.alpha, 2.0 * params.beta
    gen = philox(seed)
    snapshots = []
    done = 0
    while done < steps:
        # the stream prefix of random(n) does not depend on n, so the last
        # block is drawn short
        u = gen.random(min(BLOCK, steps - done))
        i = 0
        while i < len(u):
            n = len(u) - i
            if snapshot_every:
                n = min(n, snapshot_every - (done + i) % snapshot_every)
            kernel(alpha, tb, lt_origin, u.ctypes.data + 8 * i, n,
                   state_addr, out_addr + 8 * (done + i + 1))
            i += n
            if snapshot_every and (done + i) % snapshot_every == 0:
                pos, lo, hi = state.tolist()
                snapshots.append(_snapshot(done + i, pos, lo, hi,
                                           lt[lo + off:hi + off + 2].tolist()))
        done += len(u)
    return out.tolist(), snapshots


def _simulate_reference(params, steps, seed, snapshot_every):
    state = WalkState(alpha=params.alpha, beta=params.beta)
    draws = UniformBlocks(seed)
    positions = [0]
    snapshots = []
    for k in range(1, steps + 1):
        step(state, draws.next())
        positions.append(state.pos)
        if snapshot_every and k % snapshot_every == 0:
            lo, hi = state.min_site, state.max_site
            counts = [state.lt(j) for j in range(lo, hi + 2)]
            snapshots.append(_snapshot(k, state.pos, lo, hi, counts))
    return positions, snapshots


def simulate(params: Params, steps: int, seed: int,
             snapshot_every: int = 0, engine: str = "fast") -> Trajectory:
    """Run one trajectory, deterministic in (params, steps, seed).

    ``engine="fast"`` runs the compiled kernel of ``_kernel`` and falls
    back to the WalkState stepper (``engine="reference"``) when no kernel
    can be built; both consume the same Philox stream and produce
    identical paths and snapshots.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown walk engine {engine!r}")
    from . import _kernel  # here, so that importing walk loads no kernel

    kernel = _kernel.load() if engine == "fast" else None
    if kernel is not None:
        positions, snapshots = _simulate_kernel(kernel, params, steps, seed,
                                                snapshot_every)
    else:
        positions, snapshots = _simulate_reference(params, steps, seed,
                                                   snapshot_every)
    return Trajectory(positions=positions, seed=seed, params=params,
                      snapshots=snapshots)


MAX_EXACT_HORIZON = 14


def exact_path_law(params: Params, horizon: int) -> dict:
    """Exact law of the first ``horizon`` steps by full enumeration.

    Keys are position tuples (X_1, ..., X_h); values are path probabilities
    (products of the step probabilities), summing to 1.
    """
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
            edge = y + (1 if direction > 0 else 0)
            state.edge_lt[edge] = state.edge_lt.get(edge, 0) + 1
            state.pos = y + direction
            path.append(state.pos)
            recurse(prob * p)
            path.pop()
            state.pos = y
            state.edge_lt[edge] -= 1

    recurse(1.0)
    return law


# --- debug oracles -------------------------------------------------------

def recount_local_times(positions) -> dict:
    """Edge local times recomputed from scratch (oracle for the hot loop)."""
    lt = {}
    for a, b in zip(positions, positions[1:]):
        j = max(a, b)
        lt[j] = lt.get(j, 0) + 1
    return lt


def check_state_identities(state: WalkState) -> None:
    """Raise AssertionError if the visit/crossing count identities fail.

    Z(j) = (l(j) + l(j+1) + 1{X=j} - 1{j=0}) / 2, and with X = y,
    N(y, y+-1) = (l(y + (1+-1)/2) - 1{+-y < 0}) / 2.
    """
    lt = state.lt
    for j in set(state.site_visits) | {0, state.pos}:
        z = (lt(j) + lt(j + 1) + (state.pos == j) - (j == 0)) / 2
        assert state.site_visits.get(j, 0) == z, (j, state.site_visits.get(j, 0), z)
    y = state.pos
    n_plus = (lt(y + 1) - (y < 0)) / 2
    n_minus = (lt(y) - (-y < 0)) / 2
    assert state.crossings.get((y, 1), 0) == n_plus
    assert state.crossings.get((y, -1), 0) == n_minus
