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

Every walk races in the compiled ``stuck_rubin_races`` (see ``_kernel``),
driven by ``_RaceWalk``, over one of two clock sources: sequential clocks
drawn from one Philox stream in order of first use (``simulate_rubin``
and ``walk.simulate(..., engine="rubin")``), or stateless clocks keyed by
(site, direction, clock index) (``couple``).  The Python race it repeats
is kept in ``tests/oracles.py`` as its reference.
"""

from array import array
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, isnan, log, log1p, nan
from operator import add

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


_TIE, _EXHAUSTED = "exact clock tie", "loser residual exhausted"


def _failure(what: str, site: int, jumps: int) -> ConstructionFailure:
    return ConstructionFailure(f"{what} at site {site} after {jumps} jumps")


_WORDS = 8      # pos, lo, hi, first, last, fail, site, left
_WINDOW0 = 64   # sites in a race's first window
# (offset, words per site) of the window in each of the three buffers
_LAYOUT = ((_WORDS, 3), (0, 2), (0, 4))


class _RaceWalk:
    """A rubin walk of at most ``jumps`` jumps raced in
    ``stuck_rubin_races``, behind the ``walk._drive`` interface.  Its state
    words and per-site records of visit counts and clock indices sit in an
    ``array("q")``, its clocks' log residuals in an ``array("d")`` and, if
    ``timed``, their pending and consumed times in another (layout in
    _kernel.SOURCE), over a window of sites that doubles, recentred on the
    visited range, whenever the walker reaches its edge: memory grows with
    the range, not the jump count.

    The clocks are the logged draws of ``_draw_blocks(kernels, seed, 1,
    1 << 62, 4096)`` (a count of runs no walk reaches) in order of first
    use, or, with ``held = (hold_out, u)``, keyed: clock k of oriented edge
    (y, d) has the raw value ``-log(rng.keyed_uniform(seed, y, 3 + d,
    k))``, but ``u`` for clock 0 of (hold_out, +1), so two walks that
    differ only in ``u`` race on one clock collection.
    """

    def __init__(self, params, seed, jumps, keep_path=True, timed=False,
                 held=None):
        kernels = _kernel.load()
        self.kernel = kernels.stuck_rubin_races
        hold, u = held or (0, 1.0)
        # a site the walk cannot reach stands in for any far hold_out,
        # which might not fit an int64
        self.args = (params.alpha, params.beta, seed % 2 ** 64,
                     max(-jumps - 2, min(hold, jumps + 2)), log(u))
        self.blocks = None if held else _draw_blocks(kernels, seed, 1,
                                                     1 << 62, 4096)
        self.timed, self.done, self.draws_end = timed, 0, 0
        self.bufs = [array("q", bytes(8 * _WORDS)), None, None]
        self._place(_WINDOW0)
        self.out = array("q", [0]) * (jumps + 1) if keep_path else None

    def _place(self, size):
        """Move the walk into new buffers with a window of ``size`` sites
        centred on lo-1..hi+1, holding the records of the sites lo..hi."""
        ints, floats, _ = self.bufs
        _, lo, hi, first, _ = ints[:5]
        start = lo - 1 - (size - (hi - lo + 3)) // 2
        new = [ints[:_WORDS] + array("q", bytes(24 * size)),
               array("d", [nan]) * (2 * size),
               array("d", [-inf]) * (4 * size) if self.timed else None]
        if floats is not None:          # not a fresh walk
            a, b, n = lo - first, lo - start, hi - lo + 1
            for buf, old, (at, per) in zip(new, self.bufs, _LAYOUT):
                if old is not None:
                    buf[at + per * b:at + per * (b + n)] = \
                        old[at + per * a:at + per * (a + n)]
        new[0][3], new[0][4] = start, start + size - 1
        self.bufs = new
        self.at = [None if b is None else b.buffer_info()[0] for b in new]

    def advance(self, n):
        while n:
            ints = self.bufs[0]
            if self.blocks is not None and not ints[7]:
                draws = next(self.blocks)
                ints[7] = draws.shape[1]
                self.draws_end = draws.ctypes.data + 8 * ints[7]
            draws = None if self.blocks is None \
                else self.draws_end - 8 * ints[7]
            out = None if self.out is None \
                else self.out.buffer_info()[0] + 8 * (self.done + 1)
            k = self.kernel(*self.args, n, *self.at, draws, out)
            self.done += k
            n -= k
            if ints[5]:
                raise _failure((_TIE, _EXHAUSTED)[ints[5] - 1], ints[6],
                               self.done)
            pos, _, _, first, last = ints[:5]
            if not first < pos < last:
                self._place(2 * (last - first + 1))

    def _records(self, part):
        """Buffer ``part``'s records of the sites lo..hi, as one list."""
        _, lo, hi, first, _ = self.bufs[0][:5]
        at, per = _LAYOUT[part]
        return self.bufs[part][at + per * (lo - first):
                               at + per * (hi - first + 1)].tolist()

    def record(self, step_no):
        """The Stop after ``step_no`` jumps: edge {j-1, j} was crossed
        once per ring of clock (j-1, +1) or (j, -1), counted by their
        index."""
        pos, lo, hi = self.bufs[0][:3]
        sites = self._records(0)
        return Stop(step_no, pos, lo, hi, array("q", map(
            add, sites[1::3] + [0], [0] + sites[2::3])))

    def consumed(self):
        """{(y, direction): log T_y+-} for each site y raced at least once,
        which keeps one clock armed from its first race on."""
        lo, hi = self.bufs[0][1:3]
        res, times, out = self._records(1), self._records(2), {}
        for k, y in enumerate(range(lo, hi + 1)):
            if not (isnan(res[2 * k]) and isnan(res[2 * k + 1])):
                out[(y, -1)], out[(y, 1)] = times[4 * k + 2:4 * k + 4]
        return out

    def path(self):
        return None if self.out is None else self.out.tolist()


def _ty_report(at_mark: dict, at_end: dict) -> dict:
    """The T_y report of ``simulate_rubin`` from the log consumed times
    {(y, direction): log T_y+-} at the 9/10 mark and at the end."""
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
    return ty


def simulate_rubin(params: Params, jumps: int, seed: int):
    """Full construction for a fixed number of jumps over sequential
    clocks, raced in the kernel.

    Returns (Trajectory of the embedded walk, T_y report).  The report
    maps each site raced at least once to its consumed times T_y+ and
    T_y- (``t_plus``, ``t_minus`` and their logs) and to
    ``tail_fraction``, the share of T_y+ + T_y- accumulated during the
    last 10% of the jumps; a vanishing value signals the geometric decay
    of clock rates at that site (finite-sum trend, no almost-sure claim).
    """
    if jumps < 0:
        raise ValueError(f"jumps must be >= 0, got {jumps}")
    race = _RaceWalk(params, seed, jumps, timed=True)
    mark = (9 * jumps) // 10
    race.advance(mark)
    at_mark = race.consumed()
    race.advance(jumps - mark)
    return (Trajectory(positions=race.path(), params=params),
            _ty_report(at_mark, race.consumed()))


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
    """(compared, violations) for two ``array("q")`` position paths of
    walks of equal length from site 0, counted by
    ``stuck_matched_crossings``: the crossings matched by edge and rank,
    and how many of them break Z1(z+1) >= Z2(z+1) or Z1(z) <= Z2(z), Z the
    visit counts just after the crossing, counted after the start."""
    n = len(path1) - 1
    # the layout is in _kernel.SOURCE
    work = array("q", bytes(8 * (8 * n + 4)))
    compared = kernels.stuck_matched_crossings(
        path1.buffer_info()[0], path2.buffer_info()[0], n,
        work.buffer_info()[0])
    return compared, work[0]


def couple(hold_out: int, u1: float, u2: float, shared_seed: int,
           jumps: int, params: Params) -> CoupleReport:
    """Run two walks on one shared clock collection, differing only in the
    first plus-clock at ``hold_out`` (u1 for walk 1, u2 for walk 2).

    With u1 < u2, walk 1's clock collection dominates walk 2's, and at the
    matched i-th crossing of every non-oriented edge {z, z+1} the visit
    counts must satisfy Z1(z+1) >= Z2(z+1) and Z1(z) <= Z2(z).

    The walks race in the compiled race kernel over keyed clocks, and
    their crossings are matched in a second kernel.
    """
    if jumps < 0:
        raise ValueError(f"jumps must be >= 0, got {jumps}")
    for u in (u1, u2):
        if not (isfinite(u) and u > 0.0):
            raise ValueError(f"held-out clock values must be finite and "
                             f"> 0, got {u}")
    paths = []
    for u in (u1, u2):
        race = _RaceWalk(params, shared_seed, jumps, held=(hold_out, u))
        race.advance(jumps)
        paths.append(race.out)
    compared, violations = _kernel_matched_crossings(_kernel.load(), *paths)
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

    ``runs`` independent trajectories, same construction as
    ``simulate_rubin``; returns {position tuple: count} in ascending order
    of path code.  Used for the distributional-equivalence check against
    the exact discrete path law.

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
    overwrites.  The sampler and ``_RaceWalk`` take their
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

