"""Python and numpy twins of the compiled kernels, kept as test oracles.

Each twin computes the bytes its kernel computes, from the same seed
where it draws:

* ``step_prob_right`` (with ``local_stream``, ``logistic_prob`` and the
  ``WalkState`` bookkeeping) is the kernel's ``stuck_step_prob``;
* ``ReferenceWalk`` (with ``step``) is one walk of ``walk._KernelGroup``'s
  ``stuck_walk_many``, over ``philox(seed).random`` in blocks of
  ``BLOCK``; ``simulate`` drives it as ``walk.simulate`` drives the
  kernel, and ``simulate_many`` as ``walk.simulate_many`` does;
* ``exact_path_law`` is ``walk.exact_path_law``, each step weighed by
  ``step_prob_right`` instead of ``stuck_step_prob``;
* ``recount_local_times`` is the path oracle: ``walk._PathWalk``'s edge
  local times of a kept path, recounted from scratch;
* ``draw_blocks`` is ``rubin._draw_blocks``' ``stuck_std_exponentials``,
  with one numpy Generator per row;
* ``lockstep_codes`` is ``rubin._kernel_codes``' ``stuck_sampler_step``,
  the block's runs advanced in lockstep in numpy;
* ``RubinEngine`` (with ``Clock``, and ``WeightSpec``, the kernels'
  ``log_f`` and ``log_w``) is ``rubin._RaceWalk``'s ``stuck_rubin_races``:
  over ``SequentialClockSource`` it is a sequential-clock walk, and
  ``simulate_rubin`` is ``rubin.simulate_rubin`` raced that way; over
  ``KeyedClockSource`` it is a keyed-clock walk, and ``couple`` is
  ``rubin.couple`` raced that way;
* ``matched_crossings`` is ``rubin._kernel_matched_crossings``'
  ``stuck_matched_crossings``.
"""

import copy
from array import array
from dataclasses import dataclass, field
from math import exp, inf, log, log1p

import numpy as np
from numpy.random import Generator, Philox

from stuckwalk import _kernel
from stuckwalk.errors import CapacityError, ConstructionFailure
from stuckwalk.rng import keyed_uniform
from stuckwalk.rubin import (_EXHAUSTED, _EXHAUSTED_SAMPLER, _BLOCK, _TIE,
                             CoupleReport, _draw_blocks, _failure,
                             _logaddexp, _ty_report)
from stuckwalk.spectrum import Params
from stuckwalk.walk import MAX_EXACT_HORIZON, Stop, Trajectory, _drive

BLOCK = 1 << 14  # uniforms per Philox call of the Python stepper
_MASK64 = (1 << 64) - 1


def philox(seed: int):
    return Generator(Philox(key=seed & _MASK64))


def philox_words(gen):
    """The ten words {key, ctr[4], buf[4], used} of numpy Generator
    ``gen``'s Philox state, as the kernel keeps them."""
    state = gen.bit_generator.state
    key, counter = state["state"]["key"].tolist(), \
        state["state"]["counter"].tolist()
    assert key[1] == 0
    return [key[0], *counter, *state["buffer"].tolist(),
            state["buffer_pos"]]


def keyed_std_exponential(seed: int, *words: int) -> float:
    """Standard exponential via inverse CDF of the keyed uniform."""
    return -log(keyed_uniform(seed, *words))


# ------------------------------------------------------------ walk

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


def step(state: WalkState, u: float) -> WalkState:
    """Advance one step using the uniform draw u; mutates and returns state."""
    state.apply_move(1 if u < step_prob_right(state) else -1)
    return state


class ReferenceWalk:
    """The WalkState stepper behind the ``walk._drive`` interface, drawing
    the uniforms from ``philox(seed)`` in blocks of at most ``BLOCK``."""

    def __init__(self, params, seed, keep_path):
        self.state = WalkState(alpha=params.alpha, beta=params.beta)
        self.gen = philox(seed)
        self.positions = [0] if keep_path else None

    def advance(self, n):
        state = self.state
        while n:
            # random(a) then random(b) is the stream prefix random(a + b)
            u = self.gen.random(min(BLOCK, n)).tolist()
            n -= len(u)
            for x in u:
                step(state, x)
                if self.positions is not None:
                    self.positions.append(state.pos)

    def record(self, step_no):
        s = self.state
        lo, hi = s.min_site, s.max_site
        return Stop(step_no, s.pos, lo, hi,
                    array("q", [s.lt(j) for j in range(lo, hi + 2)]))

    def path(self):
        return self.positions


def simulate(params, steps, seed, stops=(), keep_path=True,
             engine="direct"):
    """``walk.simulate`` of a ``"direct"`` walk, stepped by
    ``ReferenceWalk``."""
    assert engine == "direct"
    walker = ReferenceWalk(params, seed, keep_path)
    records = _drive(walker, steps, sorted(set(stops)))
    return Trajectory(positions=walker.path(), params=params,
                      stops=records, steps=steps)


def simulate_many(params, steps, seeds, stops=(), keep_path=True):
    """``walk.simulate_many``, one ``simulate`` per seed."""
    return [simulate(params, steps, seed, stops, keep_path)
            for seed in seeds]


def exact_path_law(params, horizon: int) -> dict:
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


# ------------------------------------------------------------ race


class WeightSpec:
    """The clock-mean functions f_pm and the race weight w, in log domain:
    the two-factor rewrite of the jump law.

    ``y`` and ``n`` may be integer arrays, as ``lockstep_codes`` passes
    them; the compiled kernels repeat both formulas in the same order.
    """

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta

    def log_f(self, y, direction: int, n):
        a, b = self.alpha, self.beta
        target_origin = (y + direction) == 0
        behind = (direction * y) < 0
        return 2.0 * b * (2.0 * (1.0 + a) * n - a * target_origin
                          + (1.0 + a) * behind)

    def log_w(self, n):
        return 4.0 * self.beta * self.alpha * n


class SequentialClockSource:
    """Clock draws taken in order of first use from one Philox stream: the
    logged draws of ``_draw_blocks`` as one row of a count of runs no walk
    reaches, read a block of 4096 at a time in one reused buffer."""

    def __init__(self, seed: int):
        self._blocks = _draw_blocks(_kernel.load(), seed, 1, 1 << 62, 4096)
        self._buf, self._i = (), 0

    def log_std_exponential(self, y, direction, k) -> float:
        if self._i == len(self._buf):
            self._buf, self._i = memoryview(next(self._blocks)[0]), 0
        v = self._buf[self._i]
        self._i += 1
        return v


@dataclass
class Clock:
    """Per-oriented-edge clock state.

    Consumed real time lives in the log domain (log_consumed = log T_y+-):
    clock means grow like exp(4 beta (1+alpha) k) with the clock index, so
    the raw accumulators overflow doubles long before interesting horizons.
    """

    index: int = 0
    log_residual: float = None
    log_pending: float = -inf   # accrued sitting time not yet committed;
    # -inf whenever the clock is unarmed: fresh, or its last race won
    log_consumed: float = -inf  # log of the T accumulator


class RubinEngine:
    """A ``walk._drive`` walker in continuous time over a clock source;
    ``clocks`` maps each oriented edge (y, direction) raced on to its Clock."""

    def __init__(self, params: Params, clock_source, keep_path=True):
        self.weights = WeightSpec(params.alpha, params.beta)
        self.source = clock_source
        self.pos = 0
        self.jumps = 0
        self.positions = [0] if keep_path else None
        self.visits = {}  # Z: visit counts, start at 0 excluded
        self.clocks = {}

    def _armed(self, y: int, direction: int) -> Clock:
        c = self.clocks.get((y, direction))
        if c is None:
            c = self.clocks[(y, direction)] = Clock()
        if c.log_residual is None:
            k = c.index
            c.log_residual = (self.weights.log_f(y, direction, k)
                              + self.source.log_std_exponential(y, direction, k))
        return c

    def race_step(self):
        """Run one race at the current site; returns (direction, log of
        the elapsed time)."""
        y = self.pos
        z = self.visits.get
        cp = self._armed(y, 1)
        cm = self._armed(y, -1)
        ring_p = cp.log_residual - self.weights.log_w(z(y + 1, 0))
        ring_m = cm.log_residual - self.weights.log_w(z(y - 1, 0))
        if ring_p == ring_m:
            raise _failure(_TIE, y, self.jumps)
        if ring_p < ring_m:
            direction, winner, loser, log_e, ring_l = 1, cp, cm, ring_p, ring_m
        else:
            direction, winner, loser, log_e, ring_l = -1, cm, cp, ring_m, ring_p
        # deplete the loser: its raw amount shrinks by the consumed fraction
        frac = exp(log_e - ring_l)
        if frac >= 1.0:
            raise _failure(_EXHAUSTED, y, self.jumps)
        loser.log_residual += log1p(-frac)
        loser.log_pending = _logaddexp(loser.log_pending, log_e)
        winner.log_consumed = _logaddexp(
            winner.log_consumed, _logaddexp(winner.log_pending, log_e))
        winner.log_pending = -inf
        winner.log_residual = None
        winner.index += 1
        self.pos = y + direction
        self.visits[self.pos] = z(self.pos, 0) + 1
        self.jumps += 1
        if self.positions is not None:
            self.positions.append(self.pos)
        return direction, log_e

    def advance(self, n):
        for _ in range(n):
            self.race_step()

    def record(self, step):
        """The Stop after ``step`` jumps: edge {j-1, j} was crossed once
        per ring of clock (j-1, +1) or (j, -1), counted by their index."""
        sites, c = self.visits.keys() | {0}, self.clocks
        lo, hi = min(sites), max(sites)
        return Stop(step, self.pos, lo, hi, array("q", [
            getattr(c.get((j - 1, 1)), "index", 0)
            + getattr(c.get((j, -1)), "index", 0) for j in range(lo, hi + 2)]))

    def path(self):
        return self.positions


def simulate_rubin(params, jumps: int, seed: int):
    """``rubin.simulate_rubin`` raced by ``RubinEngine`` over
    ``SequentialClockSource``, its report built by ``rubin._ty_report``."""
    if jumps < 0:
        raise ValueError(f"jumps must be >= 0, got {jumps}")
    engine = RubinEngine(params, SequentialClockSource(seed))
    mark = (9 * jumps) // 10
    engine.advance(mark)
    at_mark = {key: c.log_consumed for key, c in engine.clocks.items()}
    engine.advance(jumps - mark)
    at_end = {key: c.log_consumed for key, c in engine.clocks.items()}
    return (Trajectory(positions=engine.positions, params=params),
            _ty_report(at_mark, at_end))


# ------------------------------------------------------------ sampler


def draw_blocks(seed: int, rows: int, runs: int, block: int):
    """``rubin._draw_blocks`` with numpy's Generator: a first pass runs
    one through rows 0..rows-2 and deep-copies it at each row start, and
    each slice is filled from those copies, one Generator per row."""
    buf = np.empty((rows, block))
    rng, flat, gens = philox(seed), buf.reshape(-1), []
    for k in range(rows):
        if k:
            for start in range(0, runs, len(flat)):
                rng.standard_exponential(out=flat[:runs - start])
        gens.append(copy.deepcopy(rng))
    for start in range(0, runs, block):
        m = min(block, runs - start)
        for gen, row in zip(gens, buf):
            gen.standard_exponential(out=row[:m])
        draws = buf[:, :m]
        np.log(draws, out=draws)
        yield draws


def path_codes(params, horizon: int, runs: int, seed: int):
    """``rubin._path_codes`` raced by ``lockstep_codes`` over
    ``draw_blocks``' draws."""
    for draws in draw_blocks(seed, 2 * horizon, runs, min(_BLOCK, runs)):
        yield lockstep_codes(params, horizon, draws)


def lockstep_codes(params, horizon: int, draws):
    """``rubin._kernel_codes`` in numpy, the block's runs advanced in
    lockstep."""
    ws = WeightSpec(params.alpha, params.beta)
    runs = draws.shape[1]
    S = 2 * horizon + 3
    origin = horizon + 1
    coords = np.arange(S) - origin

    # site-major state: the runs sit on a few sites at any step, so the
    # gathers and scatters below touch a few contiguous rows.  Z[x*runs + r]
    # is run r's visit count of site x; clock (x, si) of run r (si 0 for
    # minus, 1 for plus) sits at (2*x + si)*runs + r of N and logres, where
    # a NaN residual marks an unarmed clock, as in both C kernels
    pos = np.full(runs, origin, dtype=np.int64)
    Z = np.zeros(S * runs, dtype=np.int64)
    N = np.zeros(2 * S * runs, dtype=np.int64)
    logres = np.full(2 * S * runs, np.nan)
    codes = np.zeros(runs, dtype=np.int64)
    idx = np.arange(runs)

    for t in range(horizon):
        y = coords[pos]
        edge = (2 * runs) * pos + idx          # the minus clock at pos
        site = runs * pos + idx
        for si, s in ((0, -1), (1, 1)):
            e = edge + si * runs
            draw = ws.log_f(y, s, N[e]) + draws[2 * t + si]
            fresh = np.flatnonzero(np.isnan(logres[e]))
            logres[e[fresh]] = draw[fresh]
        ring_m = logres[edge] - ws.log_w(Z[site - runs])
        ring_p = logres[edge + runs] - ws.log_w(Z[site + runs])
        right = ring_p < ring_m
        if np.any(ring_p == ring_m):
            raise ConstructionFailure("exact clock tie in vectorized sampler")
        frac = np.exp(np.minimum(ring_p, ring_m) - np.maximum(ring_p, ring_m))
        if frac.max() >= 1.0:
            raise ConstructionFailure(_EXHAUSTED_SAMPLER)
        # integer arithmetic on the booleans: np.where is several times
        # slower on random masks
        lose = edge + runs * ~right
        win = edge + runs * right
        with np.errstate(invalid="raise"):
            logres[lose] += np.log1p(-frac)
        logres[win] = np.nan
        N[win] += 1
        step = 2 * right - 1
        pos += step
        Z[site + step * runs] += 1
        codes = 2 * codes + right
    return codes


# ------------------------------------------------------------ coupling


class KeyedClockSource:
    """Stateless clock draws keyed by (site, direction, clock index).

    Order-independent, so two coupled walks see the identical collection
    without materializing it.  ``overrides`` pins raw values for chosen
    clocks (the held-out clock of a coupling experiment).
    """

    def __init__(self, seed: int, overrides=None):
        self._seed = seed
        self._overrides = dict(overrides or {})

    def log_std_exponential(self, y, direction, k) -> float:
        ov = self._overrides.get((y, direction, k))
        if ov is not None:
            return log(ov)  # interpreted as the raw xi itself, mean folded out
        return log(keyed_std_exponential(self._seed, y, 3 + direction, k))


def ranks(v):
    """r[t] = #{s <= t: v[s] == v[t]} for a 1-D integer array v."""
    order = np.argsort(v, kind="stable")
    starts = np.flatnonzero(np.diff(v[order])) + 1
    first = np.zeros(len(v), dtype=np.int64)
    first[starts] = starts
    r = np.empty(len(v), dtype=np.int64)
    r[order] = np.arange(1, len(v) + 1) - np.maximum.accumulate(first)
    return r


def crossings(positions):
    """Every edge crossing of a walk: the key z*(n+1) + i of the i-th
    crossing of edge {z, z+1} (n jumps, z shifted to be >= 0), and the
    visit counts Z(z+1) and Z(z) just after it, counted after the start."""
    p = np.asarray(positions, dtype=np.int64)
    n = len(p) - 1
    z = np.minimum(p[:-1], p[1:])
    visits = np.concatenate(([0], ranks(p[1:])))
    right = p[1:] > p[:-1]
    upper = np.where(right, visits[1:], visits[:-1])
    lower = np.where(right, visits[:-1], visits[1:])
    return (z + n) * (n + 1) + ranks(z), upper, lower


def matched_crossings(path1, path2):
    """(compared, violations): the crossings matched by edge and rank in
    two walks of equal length, and how many of them break Z1(z+1) >=
    Z2(z+1) or Z1(z) <= Z2(z)."""
    (key1, up1, low1), (key2, up2, low2) = crossings(path1), \
        crossings(path2)
    _, i1, i2 = np.intersect1d(key1, key2, assume_unique=True,
                               return_indices=True)
    bad = (up1[i1] < up2[i2]) | (low1[i1] > low2[i2])
    return len(i1), int(np.count_nonzero(bad))


def couple(hold_out, u1, u2, shared_seed, jumps, params) -> CoupleReport:
    """``rubin.couple`` with both walks raced by ``RubinEngine`` over
    ``KeyedClockSource`` and their crossings matched in numpy."""
    paths = []
    for u in (u1, u2):
        eng = RubinEngine(params, KeyedClockSource(
            shared_seed, overrides={(hold_out, 1, 0): u}))
        eng.advance(jumps)
        paths.append(eng.positions)
    compared, violations = matched_crossings(*paths)
    return CoupleReport(site=hold_out, u1=u1, u2=u2,
                        positions1=paths[0], positions2=paths[1],
                        compared=compared, violations=violations)
