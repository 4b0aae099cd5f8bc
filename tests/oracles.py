"""Python and numpy twins of the compiled kernels, kept as test oracles.

Each twin computes, from the same seed, the bytes its kernel computes:

* ``ReferenceWalk`` (with ``step``) is one walk of ``walk._KernelGroup``'s
  ``stuck_walk_many``, over ``philox(seed).random`` in blocks of
  ``BLOCK``; ``simulate`` drives it as ``walk.simulate`` drives the
  kernel, and ``simulate_many`` as ``walk.simulate_many`` does;
* ``draw_blocks`` is ``rubin._draw_blocks``' ``stuck_std_exponentials``,
  with one numpy Generator per row;
* ``lockstep_codes`` is ``rubin._kernel_codes``' ``stuck_sampler_step``,
  the block's runs advanced in lockstep in numpy;
* ``KeyedClockSource`` under ``rubin.RubinEngine`` is
  ``rubin.race_kernel``'s ``stuck_rubin_races``, and ``couple`` is
  ``rubin.couple`` run that way;
* ``matched_crossings`` is ``rubin._kernel_matched_crossings``'
  ``stuck_matched_crossings``.
"""

import copy
from array import array
from math import log

import numpy as np
from numpy.random import Generator, Philox

from stuckwalk.errors import ConstructionFailure
from stuckwalk.rng import keyed_uniform
from stuckwalk.rubin import (_EXHAUSTED_SAMPLER, _BLOCK, CoupleReport,
                             RubinEngine, WeightSpec)
from stuckwalk.walk import Stop, Trajectory, WalkState, _drive, \
    step_prob_right

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
