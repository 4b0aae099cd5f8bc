"""Continuous-time embedding of the walk via racing exponential clocks.

Each oriented edge (y, y+-1) carries a sequence of exponential clocks; the
k-th clock's raw duration has mean

    f_pm(y, k) = exp(2 beta [2(1+alpha) k - alpha 1{y+-1=0} + (1+alpha) 1{+-y<0}]),

and while the walker sits at y a clock's raw amount is consumed at rate
w(n) = exp(4 beta alpha n), n the visit count of the clock's target site.
The first clock to ring wins the race; the walker crosses that edge
instantaneously and the loser's residual is suspended.  The embedded jump
chain has the law of the discrete walk.

All residuals and ring times live in the log domain: w overflows double
precision after a few dozen visits, while log-domain depletion keeps
~1e-12 relative precision.  A numerically non-positive loser residual (or
an exact tie) raises ConstructionFailure rather than silently clamping.
"""

from array import array
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, log, log1p

import numpy as np

from . import _kernel
from .errors import ConstructionFailure
from .rng import philox_record
from .spectrum import Params
from .walk import Stop, Trajectory


def _logaddexp(a: float, b: float) -> float:
    if a == -inf:
        return b
    if b == -inf:
        return a
    if a < b:
        a, b = b, a
    return a + log1p(exp(b - a))


def _safe_exp(x: float) -> float:
    try:
        return exp(x)
    except OverflowError:
        return inf


class WeightSpec:
    """The clock-mean functions f_pm and the race weight w, in log domain:
    the two-factor rewrite of the jump law.

    ``y`` and ``n`` may be integer arrays (the vectorized sampler); the
    compiled race kernel repeats both formulas in the same order.
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


_TIE, _EXHAUSTED = "exact clock tie", "loser residual exhausted"


def _failure(what: str, site: int, jumps: int) -> ConstructionFailure:
    return ConstructionFailure(f"{what} at site {site} after {jumps} jumps")


def race_kernel(kernels, params: Params, seed: int, hold_out: int, u: float,
                jumps: int):
    """RubinEngine's race loop in the compiled kernel (``kernels`` from
    ``_kernel.load()``), over stateless clocks keyed by (site, direction,
    clock index): clock k of oriented edge (y, d) has the raw value
    ``-log(rng.keyed_uniform(seed, y, 3 + d, k))``, but ``u`` for clock 0
    of (hold_out, +1).  Two walks that differ only in ``u`` race on one
    clock collection.

    Returns (path, index, log_residual), views of the kernel's two
    buffers (layout in _kernel.SOURCE): the int64 positions after 0..jumps
    races, then the clocks of sites -jumps-2..jumps+2 as (sites, 2)
    arrays, row y + jumps + 2, column 0 for the minus clock and 1 for the
    plus clock; NaN marks an unarmed residual, as None does in
    RubinEngine.  Raises the ConstructionFailure RubinEngine would raise.
    """
    edges = 4 * jumps + 10
    # the kernel fills both buffers
    ints = np.empty(2 + (jumps + 1) + (2 * jumps + 5) + edges,
                    dtype=np.int64)
    floats = np.empty(edges)
    # a site the walk cannot reach stands in for any far hold_out, which
    # might not fit an int64
    hold = hold_out if abs(hold_out) <= jumps + 2 else jumps + 2
    done = kernels.stuck_rubin_races(
        params.alpha, params.beta, seed % 2 ** 64, hold, log(u), jumps,
        ints.ctypes.data, floats.ctypes.data)
    if done < jumps:
        raise _failure((_TIE, _EXHAUSTED)[ints[0] - 1], int(ints[1]), done)
    return (ints[2:jumps + 3], ints[-edges:].reshape(-1, 2),
            floats.reshape(-1, 2))


def simulate_rubin(params: Params, jumps: int, seed: int):
    """Full construction for a fixed number of jumps over sequential
    clocks.

    Returns (Trajectory of the embedded walk, T_y report).  The report
    maps each site with a clock to its consumed times T_y+ and T_y-
    (``t_plus``, ``t_minus`` and their logs) and to ``tail_fraction``, the
    share of T_y+ + T_y- accumulated during the last 10% of the jumps; a
    vanishing value signals the geometric decay of clock rates at that
    site (finite-sum trend, no almost-sure claim).
    """
    if jumps < 0:
        raise ValueError(f"jumps must be >= 0, got {jumps}")
    engine = RubinEngine(params, SequentialClockSource(seed))
    mark = (9 * jumps) // 10
    engine.advance(mark)
    at_mark = {key: c.log_consumed for key, c in engine.clocks.items()}
    engine.advance(jumps - mark)
    at_end = {key: c.log_consumed for key, c in engine.clocks.items()}
    ty = {}
    for y in sorted({y for y, _ in at_end}):
        lp, lm = at_end.get((y, 1), -inf), at_end.get((y, -1), -inf)
        log_total = _logaddexp(lp, lm)
        log_mark = _logaddexp(at_mark.get((y, 1), -inf),
                              at_mark.get((y, -1), -inf))
        if log_total == -inf:
            frac = 0.0
        elif log_mark == -inf:
            frac = 1.0
        else:
            # tail/total = 1 - T_mark/T_total, stable for huge accumulators
            frac = max(0.0, -expm1(log_mark - log_total))
        ty[y] = {"t_plus": _safe_exp(lp), "t_minus": _safe_exp(lm),
                 "log_t_plus": lp, "log_t_minus": lm, "tail_fraction": frac}
    return Trajectory(positions=engine.positions, params=params), ty


@dataclass
class CoupleReport:
    """Pathwise monotone-coupling check for a held-out clock."""

    site: int
    u1: float
    u2: float
    positions1: list
    positions2: list
    compared: int
    violations: int


def _kernel_matched_crossings(kernels, path1, path2):
    """(compared, violations) for two int64 position arrays of walks of
    equal length from site 0, counted by ``stuck_matched_crossings``: the
    crossings matched by edge and rank, and how many of them break
    Z1(z+1) >= Z2(z+1) or Z1(z) <= Z2(z), Z the visit counts just after
    the crossing, counted after the start."""
    n = len(path1) - 1
    # the layout is in _kernel.SOURCE
    work = np.empty(8 * n + 4, dtype=np.int64)
    compared = kernels.stuck_matched_crossings(
        path1.ctypes.data, path2.ctypes.data, n, work.ctypes.data)
    return compared, int(work[0])


def couple(hold_out: int, u1: float, u2: float, shared_seed: int,
           jumps: int, params: Params) -> CoupleReport:
    """Run two walks on one shared clock collection, differing only in the
    first plus-clock at ``hold_out`` (u1 for walk 1, u2 for walk 2).

    With u1 < u2, walk 1's clock collection dominates walk 2's, and at the
    matched i-th crossing of every non-oriented edge {z, z+1} the visit
    counts must satisfy Z1(z+1) >= Z2(z+1) and Z1(z) <= Z2(z).

    The walks run in the compiled race kernel, and their crossings are
    matched in a second one.
    """
    if jumps < 0:
        raise ValueError(f"jumps must be >= 0, got {jumps}")
    for u in (u1, u2):
        if not (isfinite(u) and u > 0.0):
            raise ValueError(f"held-out clock values must be finite and "
                             f"> 0, got {u}")
    kernels = _kernel.load()
    paths = [race_kernel(kernels, params, shared_seed, hold_out, u,
                         jumps)[0] for u in (u1, u2)]
    compared, violations = _kernel_matched_crossings(kernels, *paths)
    paths = [p.tolist() for p in paths]
    return CoupleReport(site=hold_out, u1=u1, u2=u2,
                        positions1=paths[0], positions2=paths[1],
                        compared=compared, violations=violations)


def coupling_sweep(draws, jumps: int, params: Params):
    """``couple`` at site 0 for each (u_a, u_b, shared_seed) of ``draws``,
    with walk 1 holding min(u_a, u_b) and walk 2 max(u_a, u_b).

    Returns (compared, violations) summed over the pairs.
    """
    compared = violations = 0
    for u_a, u_b, shared_seed in draws:
        rep = couple(0, min(u_a, u_b), max(u_a, u_b), shared_seed, jumps,
                     params)
        compared += rep.compared
        violations += rep.violations
    return compared, violations


def equivalence_report(params: Params, horizon: int, runs: int,
                       seed: int) -> dict:
    """Compare the embedded walk's path law with the exact discrete law.

    Draws ``runs`` embedded trajectories of length ``horizon`` and returns
    the total-variation distance to the exact law plus a chi-square
    goodness-of-fit p-value (cells with expected count < 5 pooled).  With
    fewer than two cells the p-value is NaN (JSON null), or 0 for one
    cell whose statistic rounds above 0.
    """
    from .chisq import chdtrc
    from .walk import exact_path_law

    law = exact_path_law(params, horizon)
    emp = sample_embedded_paths(params, horizon, runs, seed)
    paths = sorted(law)
    expected = np.array([law[p] * runs for p in paths])
    observed = np.array([emp.get(p, 0) for p in paths], dtype=float)
    tv = 0.5 * float(np.sum(np.abs(observed / runs
                                   - expected / runs)))
    # pool small-expectation cells so the chi-square approximation holds
    order = np.argsort(expected)
    exp_s, obs_s = expected[order], observed[order]
    pooled_e, pooled_o = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(exp_s, obs_s):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            pooled_e.append(acc_e)
            pooled_o.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0.0 and pooled_e:
        pooled_e[-1] += acc_e
        pooled_o[-1] += acc_o
    # scipy.stats.chisquare(pooled_o, f_exp=pooled_e), operation for
    # operation: its sum check, statistic and p-value (chisq.chdtrc is
    # scipy's chdtrc bit for bit)
    obs, exp_ = np.array(pooled_o), np.array(pooled_e)
    rtol = np.finfo(float).eps ** 0.5
    with np.errstate(invalid="ignore"):  # no cells: 0/0
        gap = abs(obs.sum() - exp_.sum()) / min(obs.sum(), exp_.sum())
    if gap > rtol:
        raise ValueError(f"observed and expected counts must agree to a "
                         f"relative tolerance of {rtol}")
    stat = ((obs - exp_) ** 2 / exp_).sum()
    pvalue = chdtrc(len(exp_) - 1, stat)
    return {
        "horizon": horizon, "runs": runs, "seed": seed,
        "alpha": params.alpha, "beta": params.beta,
        "tv_distance": tv, "chi2_stat": float(stat),
        "chi2_pvalue": float(pvalue), "cells": len(pooled_e),
    }


def equivalence_pass(rep: dict) -> bool:
    """The pass rule of an ``equivalence_report``: total-variation
    distance at most 0.01 and chi-square p-value above 0.001."""
    return rep["tv_distance"] <= 0.01 and rep["chi2_pvalue"] > 0.001


# runs per block of the sampler, whose draws and race state are reused
# from block to block
_BLOCK = 1024

_EXHAUSTED_SAMPLER = "loser residual exhausted in vectorized sampler"


def sample_embedded_paths(params: Params, horizon: int, runs: int,
                          seed: int) -> dict:
    """Empirical law of the embedded walk's first ``horizon`` jumps.

    ``runs`` independent trajectories, same construction as RubinEngine;
    returns {position tuple: count} in ascending order of path code.  Used
    for the distributional-equivalence check against the exact discrete
    path law.

    The runs go in blocks of ``_BLOCK``: each block takes its slice of
    the ``2·horizon`` rows of Philox draws from ``_draw_blocks`` and races
    it in the compiled kernel, with ``log``, ``exp`` and ``log1p`` taken
    in numpy.  Each block's path codes are counted as it ends, so memory
    is one block's draws and race state plus one count per distinct path,
    whatever ``runs`` is.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > 62:
        # path codes are int64 with one bit per jump
        raise ValueError(f"horizon must be <= 62, got {horizon}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    counts = {}
    for codes in _path_codes(_kernel.load(), params, horizon, runs, seed):
        for code, count in zip(*(a.tolist() for a in np.unique(
                codes, return_counts=True))):
            counts[code] = counts.get(code, 0) + count
    out = {}
    for code in sorted(counts):
        p = 0
        path = []
        for i in range(horizon - 1, -1, -1):
            p += 1 if (code >> i) & 1 else -1
            path.append(p)
        out[tuple(path)] = counts[code]
    return out


def _draw_blocks(kernels, seed: int, rows: int, runs: int, block: int):
    """The logs of a (rows, runs) matrix of numpy's
    ``Generator(Philox(key=seed)).standard_exponential``, filled row by
    row as one call would fill it, yielded as
    its (rows, m) slices of columns in order, m = ``block`` but in the
    last slice.  Each slice is a view of one buffer that the next
    overwrites.  The sampler and ``SequentialClockSource`` take their
    Philox exponentials only from here.

    A first pass runs a generator through rows 0..rows-2 only to keep its
    state at the start of each row; each slice is then filled from those
    states, in one ``stuck_std_exponentials`` call on copies of
    ``philox_record(seed)``.
    """
    buf = np.empty((rows, block))
    gens = np.frombuffer(philox_record(seed) * rows,
                         dtype=np.uint64).reshape(rows, 10)
    draw = kernels.stuck_std_exponentials
    words, out = gens.ctypes.data, buf.ctypes.data
    for k in range(1, rows):
        gens[k] = gens[k - 1]
        draw(words + gens.strides[0] * k, 1, runs, 0, None)
    for start in range(0, runs, block):
        m = min(block, runs - start)
        draw(words, rows, m, block, out)
        draws = buf[:, :m]
        np.log(draws, out=draws)
        yield draws


def _path_codes(kernels, params: Params, horizon: int, runs: int,
                seed: int):
    """Path codes of ``runs`` embedded walks (jump t is bit horizon-1-t,
    set if it went right) over ``_draw_blocks``' draws, yielded block by
    block: raced in ``_kernel_codes``, whose codes are a view that the
    next block overwrites."""
    block = min(_BLOCK, runs)
    S = 2 * horizon + 3
    ints = np.empty(block * (3 + 3 * S), dtype=np.int64)
    floats = np.empty(block * (1 + 2 * S))
    # per step the minus clock's row, then the plus clock's
    for draws in _draw_blocks(kernels, seed, 2 * horizon, runs, block):
        yield _kernel_codes(kernels, params, horizon, draws, ints, floats)


def _kernel_codes(kernels, params: Params, horizon: int, draws, ints,
                  floats):
    """Path codes of the block of walks whose logged draws are ``draws``
    (2·horizon rows of m), raced by ``stuck_sampler_step`` in the buffers
    ``ints`` and ``floats``; their layout is in _kernel.SOURCE."""
    m = draws.shape[1]
    rec = 3 + 3 * (2 * horizon + 3)
    d = floats[:m]
    row = draws.strides[0]
    step = kernels.stuck_sampler_step
    alpha, beta = params.alpha, params.beta
    base, ip, fp = draws.ctypes.data, ints.ctypes.data, floats.ctypes.data
    # log1p(-1) = -inf marks an exhausted residual, which the next step
    # reports
    with np.errstate(divide="ignore", invalid="raise"):
        for t in range(horizon + 1):
            at = base + 2 * t * row if t < horizon else None
            failed = step(alpha, beta, horizon, m, t, at, row // 8, ip, fp)
            if failed:
                raise ConstructionFailure(
                    _EXHAUSTED_SAMPLER if failed < 0
                    else "exact clock tie in vectorized sampler")
            if at is not None:
                # d becomes log1p(-exp(log_e - ring_l))
                np.exp(d, out=d)
                np.negative(d, out=d)
                np.log1p(d, out=d)
    return ints[1:m * rec:rec]

