"""Compiled kernels for the direct walk, the keyed clock race and the
embedded-path sampler, built on first use.

``stuck_walk_steps`` repeats, step for step, the arithmetic of
``walk.step``: the same evaluation order of the local stream, the same
saturation branches and libm ``exp``, bar the steps a table fixes.  It
draws its uniforms itself from a port of numpy's Philox4x64-10, so its
stream is the bytes of ``rng.philox(seed).random``; the port multiplies
in ``__uint128_t``, and a compiler without that type fails the build,
leaving the Python stepper.  ``stuck_rubin_races`` repeats
``rubin.RubinEngine.race_step`` over the clocks of a
``rubin.KeyedClockSource``: the same splitmix64 chain, the same
``log_f``, ``log_w`` and ``_logaddexp`` evaluation order, and libm
``log``, ``log1p`` and ``exp``, which Python's ``math`` calls too.
``stuck_sampler_step`` does the race bookkeeping of
``rubin.sample_embedded_paths`` with only ``+``, ``-`` and ``*``: the
sampler's ``log``, ``exp`` and ``log1p`` stay in numpy, whose SIMD
versions differ from libm in the last bit on a few percent of inputs.
``stuck_matched_crossings`` is ``rubin._matched_crossings`` in integer
arithmetic: one counting pass over each of ``rubin.couple``'s two walks.
All four are compiled with the system C compiler into
``$XDG_CACHE_HOME/stuckwalk`` (default ``~/.cache``) as one library and
loaded with ``ctypes``.
``-ffp-contract=off`` forbids fused multiply-adds, which would change the
bits of Delta and of the clock means; ``-ffast-math`` and
``-march=native`` must never be added for the same reason.

``load()`` returns None when no kernel can be built or loaded (no
compiler, unwritable cache, failed compile; the last two with a
RuntimeWarning); callers then fall back to the Python engines, which
give the same results.  Nothing here runs at import time.
"""

import functools
import os
import warnings
import zlib  # names the cached library; hashlib would load OpenSSL

SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define SAT 40.0

/* numpy's Philox4x64-10 (Random123 constants): fill buf with the four
   outputs of counter ctr under key {key, 0}. */
static void philox4x64(uint64_t key, const uint64_t *ctr, uint64_t *buf)
{
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    uint64_t k0 = key, k1 = 0;
    int r;
    for (r = 0; r < 10; r++) {
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    buf[0] = c0;
    buf[1] = c1;
    buf[2] = c2;
    buf[3] = c3;
}

static double step_x(double alpha, double tb, const int64_t *l)
{
    return tb * (((-alpha * (double)l[-1] + (double)l[0]) - (double)l[1])
                 + alpha * (double)l[2]);
}

static double logistic(double x)
{
    if (x > SAT)
        return 1.0;
    if (x < -SAT)
        return 0.0;
    return 1.0 / (1.0 + exp(-x));
}

/* bracket[i] = {p(a) - 1e-12, p(a + 1/16) + 1e-12}, a = -SAT + i/16 and
   p = logistic, for the 1280 cells of width 1/16 on [-SAT, SAT].  p is
   increasing, so u below the first bound steps right and u at or above
   the second steps left, as u < p(x) would decide: x + SAT rounds by at
   most 7e-15, which moves p by at most 2e-15 (p' <= 1/4), and libm exp
   and the divide are off by a few ulp, all far inside 1e-12.  Only the
   u between the bounds, at most about 1/64 of the steps, need exp.
   Filled when the library is loaded, before any walk can run. */
#define CELLS 1280
static double bracket[CELLS][2];

__attribute__((constructor))
static void fill_bracket(void)
{
    int i;
    for (i = 0; i < CELLS; i++) {
        bracket[i][0] = logistic(-SAT + i / 16.0) - 1e-12;
        bracket[i][1] = logistic(-SAT + (i + 1) / 16.0) + 1e-12;
    }
}

/* u < logistic(x), read from the bracket of x's cell where it can be. */
static int steps_right(double u, double x)
{
    if (x >= -SAT && x <= SAT) {
        const int64_t i = (int64_t)((x + SAT) * 16.0);
        const double *b = bracket[i < CELLS ? i : CELLS - 1];
        if (u < b[0] || u >= b[1])
            return u < b[0];
    }
    return u < logistic(x);
}

/* The probability that the walk at edge pointer l (l[0] the local time
   of the edge left of the walker) steps right, as stuck_walk_steps
   computes it. */
double stuck_step_prob(double alpha, double tb, const int64_t *l)
{
    return logistic(step_x(alpha, tb, l));
}

/* Advance the walk up to n steps and return the number taken.  lt
   points at edge 0 of the local-time array (lt[j] is the local time of
   edge {j-1, j}).  state = {pos, lo, hi, first, last, key, ctr[4],
   buf[4], used}: the position and the visited range, read and written
   back, the lowest and highest edge index the array holds, read only,
   and the Philox generator of numpy's Generator(Philox(key=key)) with
   its counter, output buffer and buffer position, read and written
   back (the caller seeds ctr = buf = 0 and used = 4).  Step k draws
   u = (x >> 11) * 2^-53 from the next output x, as Generator.random
   does, and steps right if u < p.  A step reads edges pos-1 to pos+2,
   so the caller keeps first <= lo-1 and hi+2 <= last; the walk stops
   early, right after the step that sets a new lo or hi which breaks
   that, and the caller widens the array.  out[k] receives the position
   after step k unless out is NULL. */
int64_t stuck_walk_steps(double alpha, double tb, int64_t *lt, int64_t n,
                         int64_t *state, int64_t *out)
{
    int64_t pos = state[0], lo = state[1], hi = state[2];
    const int64_t first = state[3], last = state[4];
    uint64_t *rng = (uint64_t *)state + 5, *ctr = rng + 1, *buf = rng + 5;
    uint64_t used = rng[9];
    int64_t k;
    for (k = 0; k < n; k++) {
        int64_t *l = lt + pos;
        double u;
        int i;
        if (used == 4) {
            for (i = 0; i < 4 && ++ctr[i] == 0; i++)
                ;
            philox4x64(rng[0], ctr, buf);
            used = 0;
        }
        u = (double)(buf[used++] >> 11) * 0x1p-53;
        if (steps_right(u, step_x(alpha, tb, l))) {
            l[1] += 1;
            pos += 1;
            if (pos > hi) {
                hi = pos;
                if (hi + 2 > last)
                    n = k + 1;
            }
        } else {
            l[0] += 1;
            pos -= 1;
            if (pos < lo) {
                lo = pos;
                if (lo - 1 < first)
                    n = k + 1;
            }
        }
        if (out)
            out[k] = pos;
    }
    state[0] = pos;
    state[1] = lo;
    state[2] = hi;
    rng[9] = used;
    return k;
}

static uint64_t splitmix64(uint64_t x)
{
    uint64_t z = x + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* rubin.WeightSpec.log_f for clock i of oriented edge (y, d) */
static double log_f(double alpha, double beta, int64_t i, int64_t y,
                    int64_t d)
{
    return 2.0 * beta * (2.0 * (1.0 + alpha) * (double)i
                         - alpha * (double)(y + d == 0)
                         + (1.0 + alpha) * (double)(d * y < 0));
}

static double logaddexp(double a, double b)
{
    if (a == -INFINITY)
        return b;
    if (b == -INFINITY)
        return a;
    if (a < b) {
        double t = a;
        a = b;
        b = t;
    }
    return a + log1p(exp(b - a));
}

/* Run up to n races of RubinEngine over the clocks of
   KeyedClockSource(seed, {(hold, +1, 0): exp(log_u)}), from site 0 with
   no clock armed, and return the number run.  The kernel fills both
   buffers; what they hold on entry does not matter.  Sites -n-2..n+2
   sit at z[0..2n+4], and the clock of oriented edge (y, d) at
   e = 2*(y+n+2) + (d > 0) of index, log_res, log_pend and log_cons:
       ints   = fail[2], path[n+1], z[2n+5], index[4n+10]
       floats = log_res[4n+10], log_pend[4n+10], log_cons[4n+10]
   path[k] is the position after k races; a NaN log_res marks an unarmed
   clock, as None does in RubinEngine, and an unarmed clock's log_pend is
   -inf, since a clock is unarmed only when fresh or just won.  On an
   exact tie (fail[0] = 1) or an exhausted loser residual (fail[0] = 2)
   the loop stops at that race, with the site in fail[1]. */
int64_t stuck_rubin_races(double alpha, double beta, uint64_t seed,
                          int64_t hold, double log_u, int64_t n,
                          int64_t *ints, double *floats)
{
    const int64_t off = n + 2, edges = 4 * n + 10;
    const double lw = 4.0 * beta * alpha;
    const uint64_t h0 = splitmix64(seed);
    int64_t *fail = ints, *path = ints + 2, *z = path + n + 1;
    int64_t *index = z + 2 * off + 1;
    double *log_res = floats, *log_pend = log_res + edges;
    double *log_cons = log_pend + edges;
    int64_t pos = 0, k;
    path[0] = 0;
    for (k = 0; k <= 2 * off; k++)
        z[k] = 0;
    for (k = 0; k < edges; k++) {
        index[k] = 0;
        log_res[k] = NAN;
        log_pend[k] = -INFINITY;
        log_cons[k] = -INFINITY;
    }
    for (k = 0; k < n; k++) {
        const int64_t y = pos, em = 2 * (y + off), ep = em + 1;
        int64_t d, win, lose;
        double ring_p, ring_m, log_e, ring_l, frac;
        for (d = -1; d <= 1; d += 2) {
            const int64_t e = d > 0 ? ep : em, i = index[e];
            double draw;
            if (!isnan(log_res[e]))
                continue;
            if (d > 0 && i == 0 && y == hold) {
                draw = log_u;
            } else {
                uint64_t h = splitmix64(h0 ^ (uint64_t)y);
                h = splitmix64(h ^ (uint64_t)(3 + d));
                h = splitmix64(h ^ (uint64_t)i);
                double u = (double)(h >> 11) * 0x1p-53;
                draw = log(-log(u > 0.0 ? u : 0x1p-53));
            }
            log_res[e] = log_f(alpha, beta, i, y, d) + draw;
        }
        ring_p = log_res[ep] - lw * (double)z[y + 1 + off];
        ring_m = log_res[em] - lw * (double)z[y - 1 + off];
        if (ring_p == ring_m) {
            fail[0] = 1;
            fail[1] = y;
            break;
        }
        if (ring_p < ring_m) {
            d = 1, win = ep, lose = em, log_e = ring_p, ring_l = ring_m;
        } else {
            d = -1, win = em, lose = ep, log_e = ring_m, ring_l = ring_p;
        }
        frac = exp(log_e - ring_l);
        if (frac >= 1.0) {
            fail[0] = 2;
            fail[1] = y;
            break;
        }
        log_res[lose] += log1p(-frac);
        log_pend[lose] = logaddexp(log_pend[lose], log_e);
        log_cons[win] = logaddexp(log_cons[win],
                                  logaddexp(log_pend[win], log_e));
        log_pend[win] = -INFINITY;
        log_res[win] = NAN;
        index[win] += 1;
        pos = y + d;
        z[pos + off] += 1;
        path[k + 1] = pos;
    }
    return k;
}

/* Step t of rubin.sample_embedded_paths over a block of m runs with
   horizon h.  Run r sits on sites 0..S-1, S = 2h+3 (site x is position
   x-h-1), and keeps its state in record r of both buffers:
       ints   = m records of {pos, code, right, z[S], index[2S]}
       floats = d[m], then m records of log_res[2S]
   where the clock of oriented edge (x, dir) sits at 2x + (dir > 0) of
   index and log_res, and a NaN log_res marks an unarmed clock.  For
   t = 0 run r starts at the origin; for t > 0 race t-1 is committed,
   d[r] then holding log1p(-exp(log_e - ring_l)), which the caller
   computes, and -inf where the loser's residual is exhausted.  Then,
   unless draws is NULL, race t is run: each unarmed clock at pos is
   armed with log_f plus draws[r] (minus clock) or draws[stride + r]
   (plus clock), logs of standard exponentials; the winner's direction
   goes to right and log_e - ring_l to d[r].  log_f and log_w are
   evaluated as in stuck_rubin_races.  Returns -1 if a residual was
   exhausted in race t-1, else the number of exact ties in race t.
   A record is reset only where the run reads it, so the buffers need no
   clearing between blocks: at t = 0 the origin's clocks and z at the
   origin and its neighbours, and on the first arrival at a site its
   clocks and z at its far neighbour, which the run cannot have reached;
   z at the site itself was reset when the run started at, or first
   arrived at, the site it comes from. */
int64_t stuck_sampler_step(double alpha, double beta, int64_t h,
                           int64_t m, int64_t t, const double *draws,
                           int64_t stride, int64_t *ints, double *floats)
{
    const int64_t S = 2 * h + 3, rec = 3 + 3 * S, origin = h + 1;
    const double lw = 4.0 * beta * alpha;
    double *d = floats, *log_res = floats + m;
    int64_t r, k, ties = 0, exhausted = 0;
    for (r = 0; r < m; r++) {
        int64_t *run = ints + r * rec, *z = run + 3, *index = z + S;
        double *res = log_res + r * 2 * S;
        int64_t pos;
        if (t == 0) {
            pos = origin;
            run[1] = 0;
            z[pos - 1] = z[pos] = z[pos + 1] = 0;
            index[2 * pos] = index[2 * pos + 1] = 0;
            res[2 * pos] = res[2 * pos + 1] = NAN;
        } else {
            const int64_t right = run[2], win = 2 * run[0] + right;
            exhausted |= d[r] == -INFINITY;
            res[win ^ 1] += d[r];
            res[win] = NAN;
            index[win] += 1;
            pos = run[0] + 2 * right - 1;
            if (z[pos] == 0 && pos != origin) {
                index[2 * pos] = index[2 * pos + 1] = 0;
                res[2 * pos] = res[2 * pos + 1] = NAN;
                z[2 * pos - run[0]] = 0;
            }
            z[pos] += 1;
            run[1] = 2 * run[1] + right;
        }
        run[0] = pos;
        if (draws) {
            const int64_t y = pos - origin;
            double ring_p, ring_m;
            for (k = 0; k < 2; k++) {
                const int64_t e = 2 * pos + k, dir = 2 * k - 1;
                const double fresh = log_f(alpha, beta, index[e], y, dir)
                                     + draws[k * stride + r];
                res[e] = isnan(res[e]) ? fresh : res[e];
            }
            ring_m = res[2 * pos] - lw * (double)z[pos - 1];
            ring_p = res[2 * pos + 1] - lw * (double)z[pos + 1];
            ties += ring_p == ring_m;
            run[2] = ring_p < ring_m;
            /* log_e - ring_l: rounding to nearest is symmetric, so
               ring_m - ring_p == -(ring_p - ring_m) bit for bit */
            d[r] = -fabs(ring_p - ring_m);
        }
    }
    return exhausted ? -1 : ties;
}

/* rubin._matched_crossings over walks p1 and p2 of n jumps from site 0:
   the i-th crossing of edge {z, z+1} in walk 1 is matched with the i-th
   in walk 2, and it is a violation if Z1(z+1) < Z2(z+1) or Z1(z) >
   Z2(z), Z the visit counts just after the crossing, counted after the
   start.  Returns the number matched and puts the violations in work[0].
   Site x sits at x+n of first, next and visits, and edge {z, z+1} at
   z+n, the index of its lower site:
       work = {violations, first[2n+1], next[2n+1], visits[2n+1],
               upper[n], lower[n]}
   Walk 1's crossings of edge e fill slots first[e]..first[e+1]-1 of
   upper and lower, in order, with its Z(z+1) and Z(z); next[e] is the
   slot of the next crossing of e in the walk being read. */
int64_t stuck_matched_crossings(const int64_t *p1, const int64_t *p2,
                                int64_t n, int64_t *work)
{
    const int64_t sites = 2 * n + 1;
    int64_t *first = work + 1, *next = first + sites, *visits = next + sites;
    int64_t *upper = visits + sites, *lower = upper + n;
    int64_t e, k, compared = 0, violations = 0;
    for (e = 0; e < sites; e++)
        first[e] = 0;
    for (k = 0; k < n; k++)
        first[(p1[k] < p1[k + 1] ? p1[k] : p1[k + 1]) + n + 1] += 1;
    for (e = 1; e < sites; e++)
        first[e] += first[e - 1];
    for (e = 0; e < sites; e++) {
        next[e] = first[e];
        visits[e] = 0;
    }
    for (k = 0; k < n; k++) {
        const int64_t s = (p1[k] < p1[k + 1] ? p1[k] : p1[k + 1]) + n;
        const int64_t slot = next[s]++;
        visits[p1[k + 1] + n] += 1;
        upper[slot] = visits[s + 1];
        lower[slot] = visits[s];
    }
    for (e = 0; e < sites; e++) {
        next[e] = first[e];
        visits[e] = 0;
    }
    for (k = 0; k < n; k++) {
        const int64_t s = (p2[k] < p2[k + 1] ? p2[k] : p2[k + 1]) + n;
        const int64_t slot = next[s]++;
        visits[p2[k + 1] + n] += 1;
        if (slot < first[s + 1]) {
            compared += 1;
            violations += upper[slot] < visits[s + 1]
                          || lower[slot] > visits[s];
        }
    }
    work[0] = violations;
    return compared;
}
"""

COMPILER = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "stuckwalk")


def _library_path(compiler: str) -> str:
    st = os.stat(compiler)
    key = "\0".join([SOURCE, compiler, str(st.st_size), str(st.st_mtime_ns),
                     *FLAGS]).encode()
    digest = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    return os.path.join(_cache_dir(), f"walk-{digest}.so")


def _compile(compiler: str, lib: str) -> None:
    """Build ``lib`` or raise OSError; os.replace makes racing builds safe."""
    import subprocess
    import tempfile

    directory = os.path.dirname(lib)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=SOURCE.encode(), capture_output=True,
                       check=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as exc:
        raise OSError(exc) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load():
    """The kernel library (``ctypes.CDLL`` with every function typed), or
    None if it cannot be had here."""
    import ctypes
    import shutil

    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    try:
        lib = _library_path(compiler)
        if not os.path.exists(lib):
            _compile(compiler, lib)
        kernels = ctypes.CDLL(lib)
    except OSError as exc:
        warnings.warn(f"cannot build the walk kernels ({exc}); using the "
                      "slower Python engines", RuntimeWarning)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    kernels.stuck_step_prob.argtypes = [f64, f64, ptr]
    kernels.stuck_step_prob.restype = f64
    kernels.stuck_walk_steps.argtypes = [f64, f64, ptr, i64, ptr, ptr]
    kernels.stuck_walk_steps.restype = i64
    kernels.stuck_rubin_races.argtypes = [f64, f64, ctypes.c_uint64, i64,
                                          f64, i64, ptr, ptr]
    kernels.stuck_rubin_races.restype = i64
    kernels.stuck_sampler_step.argtypes = [f64, f64, i64, i64, i64, ptr,
                                           i64, ptr, ptr]
    kernels.stuck_sampler_step.restype = i64
    kernels.stuck_matched_crossings.argtypes = [ptr, ptr, i64, ptr]
    kernels.stuck_matched_crossings.restype = i64
    return kernels
