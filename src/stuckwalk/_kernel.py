"""Compiled kernels for the direct walk, the keyed clock race and the
embedded-path sampler, built on first use.

``stuck_walk_steps`` steps the walk with the arithmetic of
``walk.step_prob_right``: the same evaluation order of the local stream,
the same saturation branches and libm ``exp``, bar the steps a table
fixes.  It draws its uniforms itself from a port of numpy's
Philox4x64-10, so its stream is the bytes of numpy's
``Generator(Philox(key=seed)).random``; the port multiplies in
``__uint128_t``, so the compiler must have that type (gcc or clang on a
64-bit target).  ``stuck_walk_many`` runs that loop over a group of
walks, one after another, in one call: ``walk`` calls it and no other
walk entry, so a batch's walker thread crosses ctypes, and releases the
GIL, once per chunk of runs and stop, not twice per run.
``stuck_std_exponentials`` draws that generator's
``standard_exponential`` from the same port: numpy's
256-layer ziggurat with its tail and wedge rejections, libm ``exp`` and
``log1p``, and numpy's tables ``ke_double``, ``we_double`` and
``fe_double`` as literals.  Those were copied from the ``.rodata`` of
numpy's ``libnpyrandom.a`` and must never be recomputed: no
recomputation gives back all their bits.  ``stuck_rubin_races`` repeats
``rubin.RubinEngine.race_step`` over clocks keyed by
``rng.keyed_uniform``, for the positions, clock indices and
residuals only: the same splitmix64 chain, the same ``log_f`` and
``log_w`` evaluation order, and libm ``log``, ``log1p`` and ``exp``,
which Python's ``math`` calls too.
``stuck_sampler_step`` does the race bookkeeping of
``rubin.sample_embedded_paths`` with only ``+``, ``-`` and ``*``: the
sampler's ``log``, ``exp`` and ``log1p`` stay in numpy, whose SIMD
versions differ from libm in the last bit on a few percent of inputs.
``stuck_matched_crossings`` matches the crossings of ``rubin.couple``'s
two walks in integer arithmetic: one counting pass over each walk.
``stuck_step_prob`` is the walk's step probability, for tests.  All seven
are compiled with the system C compiler into
``$XDG_CACHE_HOME/stuckwalk`` (default ``~/.cache``) as one library and
loaded with ``ctypes``; the tests hold each one to a Python or numpy
twin that gives the same bytes.
``-ffp-contract=off`` forbids fused multiply-adds, which would change the
bits of Delta, of the clock means and of the ziggurat's wedge test;
``-ffast-math`` and ``-march=native`` must never be added for the same
reason.

``load()`` returns the library or raises OSError: when no compiler is on
``PATH``, when the build fails or when the library cannot be loaded.
Nothing here runs at import time.
"""

import functools
import os
import zlib  # names the cached library; hashlib would load OpenSSL

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define SAT 40.0

/* One Philox4x64 round under key {k0, k1}, then the key bump. */
#define PHILOX_ROUND                                                    \
    do {                                                                \
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0; \
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2; \
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;                            \
        c1 = (uint64_t)p1;                                              \
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;                            \
        c3 = (uint64_t)p0;                                              \
        k0 += 0x9E3779B97F4A7C15ULL;                                    \
        k1 += 0xBB67AE8584CAA73BULL;                                    \
    } while (0)

/* numpy's Philox4x64-10 (Random123 constants): fill buf with the four
   outputs of counter ctr under key {key, 0}.  The ten rounds are
   written out: gcc at -O2 keeps a loop of them as a loop. */
static void philox4x64(uint64_t key, const uint64_t *ctr, uint64_t *buf)
{
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    uint64_t k0 = key, k1 = 0;
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    buf[0] = c0;
    buf[1] = c1;
    buf[2] = c2;
    buf[3] = c3;
}

/* numpy's Philox4x64-10 generator {key, ctr[4], buf[4], used}: the ten
   words of Generator(Philox(key=key)), as stuck_walk_steps keeps them */
typedef struct {
    uint64_t key, ctr[4], buf[4], used;
} philox_gen;

static inline uint64_t next_u64(philox_gen *g)
{
    if (g->used == 4) {
        int i;
        for (i = 0; i < 4 && ++g->ctr[i] == 0; i++)
            ;
        philox4x64(g->key, g->ctr, g->buf);
        g->used = 0;
    }
    return g->buf[g->used++];
}

static inline double next_double(philox_gen *g)
{
    return (double)(next_u64(g) >> 11) * 0x1p-53;
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
   u between the bounds, at most about 1/64 of the steps, need exp;
   stuck_walk_steps reads u < p(x) from the bracket of x's cell where
   it can.  Filled when the library is loaded, before any walk can run. */
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
   back (a fresh generator is rng.philox_record), held in a local
   while the walk runs.  Step k draws u = next_double, as
   Generator.random does, and steps right if u < p.  A step reads edges
   pos-1 to pos+2, so the caller keeps first <= lo-1 and hi+2 <= last;
   the walk stops early, right after the step that sets a new lo or hi
   which breaks that, and the caller widens the array.  out[k] receives
   the position after step k unless out is NULL. */
int64_t stuck_walk_steps(double alpha, double tb, int64_t *lt, int64_t n,
                         int64_t *state, int64_t *out)
{
    int64_t pos = state[0], lo = state[1], hi = state[2];
    const int64_t first = state[3], last = state[4];
    philox_gen g;
    int64_t k;
    memcpy(&g, state + 5, sizeof g);
    for (k = 0; k < n; k++) {
        int64_t *l = lt + pos;
        const double u = next_double(&g), x = step_x(alpha, tb, l);
        int right;
        if (x >= -SAT && x <= SAT) {
            const int64_t i = (int64_t)((x + SAT) * 16.0);
            const double *b = bracket[i < CELLS ? i : CELLS - 1];
            right = (u < b[0] || u >= b[1]) ? u < b[0] : u < logistic(x);
        } else {
            right = u < logistic(x);
        }
        if (right) {
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
    memcpy(state + 5, &g, sizeof g);
    return k;
}

/* Advance m walks, one after another, as stuck_walk_steps does: walk i
   keeps its 15 state words at states[i], followed by its local-time
   array, so its edge 0 is at states[i] + 15 - states[i][3]; its
   positions go to outs[i], or nowhere if outs[i] is NULL.
   n[i] is read as the steps walk i wants and written back as the steps
   it took, fewer where it stopped at its window's edge. */
void stuck_walk_many(double alpha, double tb, int64_t m,
                     int64_t *const *states, int64_t *const *outs,
                     int64_t *n)
{
    int64_t i;
    for (i = 0; i < m; i++)
        n[i] = stuck_walk_steps(alpha, tb, states[i] + 15 - states[i][3],
                                n[i], states[i], outs[i]);
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

/* Run up to n races of RubinEngine over the clocks keyed by seed, raw
   value -log(keyed_uniform(seed, y, 3 + d, i)) for clock i of oriented
   edge (y, d), but exp(log_u) for clock 0 of (hold, +1), from site 0 with
   no clock armed, and return the number run.  The kernel fills both
   buffers; what they hold on entry does not matter.  Sites -n-2..n+2
   sit at z[0..2n+4], and the clock of oriented edge (y, d) at
   e = 2*(y+n+2) + (d > 0) of index and log_res:
       ints   = fail[2], path[n+1], z[2n+5], index[4n+10]
       floats = log_res[4n+10]
   path[k] is the position after k races; a NaN log_res marks an unarmed
   clock, as None does in RubinEngine.  The clocks' pending and consumed
   times, which RubinEngine keeps for the T_y report, are not kept.  On an
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
    double *log_res = floats;
    int64_t pos = 0, k;
    path[0] = 0;
    for (k = 0; k <= 2 * off; k++)
        z[k] = 0;
    for (k = 0; k < edges; k++) {
        index[k] = 0;
        log_res[k] = NAN;
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

/* The crossings of rubin.couple's walks p1 and p2 of n jumps from site 0:
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

/* The ziggurat tables of numpy's random_standard_exponential
   (numpy/random/src/distributions/ziggurat_constants.h), copied byte for
   byte from the .rodata of numpy 2.4's numpy/random/lib/libnpyrandom.a,
   where each is a local symbol of 256 x 8 bytes whose offset nm -S
   gives, and the tail start r as that header writes it.  Never recompute
   the tables: neither double-precision nor 60-digit arithmetic gives
   back their bits, and one changed bit changes the draws.

   Copyright (c) 2005-2017, NumPy Developers.
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

   * Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.

   * Redistributions in binary form must reproduce the above
      copyright notice, this list of conditions and the following
      disclaimer in the documentation and/or other materials provided
      with the distribution.

   * Neither the name of the NumPy Developers nor the names of any
      contributors may be used to endorse or promote products derived
      from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

   numpy derived its ziggurat methods from Julia's (MIT license,
   Copyright (c) 2009-2019: Jeff Bezanson, Stefan Karpinski, Viral B.
   Shah, and other contributors). */
#define ZIGGURAT_EXP_R 7.69711747013104972
static const uint64_t ke_double[256] = {
    0x1c5214272497c6, 0x0, 0x137d5bd79c317e, 0x186ef58e3f3c10,
    0x1a9bb7320eb0ae, 0x1bd127f719447c, 0x1c951d0f88651a, 0x1d1bfe2d5c3972,
    0x1d7e5bd56b18b2, 0x1dc934dd172c70, 0x1e0409dfac9dc8, 0x1e337b71d47836,
    0x1e5a8b177cb7a2, 0x1e7b42096f046c, 0x1e970daf08ae3e, 0x1eaef5b14ef09e,
    0x1ec3bd07b46556, 0x1ed5f6f08799ce, 0x1ee614ae6e5688, 0x1ef46eca361cd0,
    0x1f014b76ddd4a4, 0x1f0ce313a796b6, 0x1f176369f1f77a, 0x1f20f20c452570,
    0x1f29ae1951a874, 0x1f31b18fb95532, 0x1f39125157c106, 0x1f3fe2eb6e694c,
    0x1f463332d788fa, 0x1f4c10bf1d3a0e, 0x1f51874c5c3322, 0x1f56a109c3ecc0,
    0x1f5b66d9099996, 0x1f5fe08210d08c, 0x1f6414dd445772, 0x1f6809f6859678,
    0x1f6bc52a2b02e6, 0x1f6f4b3d32e4f4, 0x1f72a07190f13a, 0x1f75c8974d09d6,
    0x1f78c71b045cc0, 0x1f7b9f12413ff4, 0x1f7e5346079f8a, 0x1f80e63be21138,
    0x1f835a3dad9162, 0x1f85b16056b912, 0x1f87ed89b24262, 0x1f8a10759374fa,
    0x1f8c1bba3d39ac, 0x1f8e10cc45d04a, 0x1f8ff102013e16, 0x1f91bd968358e0,
    0x1f9377ac47afd8, 0x1f95204f8b64da, 0x1f96b878633892, 0x1f98410c968892,
    0x1f99bae146ba80, 0x1f9b26bc697f00, 0x1f9c85561b717a, 0x1f9dd759cfd802,
    0x1f9f1d6761a1ce, 0x1fa058140936c0, 0x1fa187eb3a3338, 0x1fa2ad6f6bc4fc,
    0x1fa3c91ace0682, 0x1fa4db5fee6aa2, 0x1fa5e4aa4d097c, 0x1fa6e55ee46782,
    0x1fa7dddca51ec4, 0x1fa8ce7ce6a874, 0x1fa9b793ce5fee, 0x1faa9970adb858,
    0x1fab745e588232, 0x1fac48a3740584, 0x1fad1682bf9fe8, 0x1fadde3b5782c0,
    0x1faea008f21d6c, 0x1faf5c2418b07e, 0x1fb012c25b7a12, 0x1fb0c41681dff4,
    0x1fb17050b6f1fa, 0x1fb2179eb2963a, 0x1fb2ba2bdfa84a, 0x1fb358217f4e18,
    0x1fb3f1a6c9be0c, 0x1fb486e10cacd6, 0x1fb517f3c793fc, 0x1fb5a500c5fdaa,
    0x1fb62e2837fe58, 0x1fb6b388c9010a, 0x1fb7353fb50798, 0x1fb7b368dc7da8,
    0x1fb82e1ed6ba08, 0x1fb8a57b0347f6, 0x1fb919959a0f74, 0x1fb98a85ba7204,
    0x1fb9f861796f26, 0x1fba633deee286, 0x1fbacb2f41ec16, 0x1fbb3048b49144,
    0x1fbb929caea4e2, 0x1fbbf23cc8029e, 0x1fbc4f39d22994, 0x1fbca9a3e140d4,
    0x1fbd018a548f9e, 0x1fbd56fbde729c, 0x1fbdaa068bd66a, 0x1fbdfab7cb3f40,
    0x1fbe491c7364de, 0x1fbe9540c9695e, 0x1fbedf3086b128, 0x1fbf26f6de6174,
    0x1fbf6c9e828ae2, 0x1fbfb031a904c4, 0x1fbff1ba0ffdb0, 0x1fc03141024588,
    0x1fc06ecf5b54b2, 0x1fc0aa6d8b1426, 0x1fc0e42399698a, 0x1fc11bf9298a64,
    0x1fc151f57d1942, 0x1fc1861f770f4a, 0x1fc1b87d9e74b4, 0x1fc1e91620ea42,
    0x1fc217eed505de, 0x1fc2450d3c83fe, 0x1fc27076864fc2, 0x1fc29a2f90630e,
    0x1fc2c23ce98046, 0x1fc2e8a2d2c6b4, 0x1fc30d654122ec, 0x1fc33087de9c0e,
    0x1fc3520e0b7ec6, 0x1fc371fadf66f8, 0x1fc390512a2886, 0x1fc3ad137497fa,
    0x1fc3c844013348, 0x1fc3e1e4ccab40, 0x1fc3f9f78e4da8, 0x1fc4107db85060,
    0x1fc4257877fd68, 0x1fc438e8b5bfc6, 0x1fc44acf15112a, 0x1fc45b2bf447e8,
    0x1fc469ff6c4504, 0x1fc477495001b2, 0x1fc483092bfbb8, 0x1fc48d3e457ff6,
    0x1fc495e799d21a, 0x1fc49d03dd30b0, 0x1fc4a29179b432, 0x1fc4a68e8e07fc,
    0x1fc4a8f8ebfb8c, 0x1fc4a9ce16ea9e, 0x1fc4a90b41fa34, 0x1fc4a6ad4e28a0,
    0x1fc4a2b0c82e74, 0x1fc49d11e62de2, 0x1fc495cc852df4, 0x1fc48cdc265ec0,
    0x1fc4823bec237a, 0x1fc475e696dee6, 0x1fc467d6817e82, 0x1fc458059dc036,
    0x1fc4466d702e20, 0x1fc433070bcb98, 0x1fc41dcb0d6e0e, 0x1fc406b196bbf6,
    0x1fc3edb248cb62, 0x1fc3d2c43e593c, 0x1fc3b5de0591b4, 0x1fc396f599614c,
    0x1fc376005a4592, 0x1fc352f3069370, 0x1fc32dc1b22818, 0x1fc3065fbd7888,
    0x1fc2dcbfcbf262, 0x1fc2b0d3b99f9e, 0x1fc2828c8ffcf0, 0x1fc251da79f164,
    0x1fc21eacb6d39e, 0x1fc1e8f18c6756, 0x1fc1b09637bb3c, 0x1fc17586dccd10,
    0x1fc137ae74d6b6, 0x1fc0f6f6bb2414, 0x1fc0b348184da4, 0x1fc06c898baff0,
    0x1fc022a092f364, 0x1fbfd5710f72b8, 0x1fbf84dd29488e, 0x1fbf30c52fc60a,
    0x1fbed907770cc6, 0x1fbe7d80327dda, 0x1fbe1e094ba614, 0x1fbdba7a354408,
    0x1fbd52a7b9f826, 0x1fbce663c6201a, 0x1fbc757d2c4de4, 0x1fbbffbf63b7aa,
    0x1fbb84f23fe6a2, 0x1fbb04d9a0d18c, 0x1fba7f351a70ac, 0x1fb9f3bf92b618,
    0x1fb9622ed4abfc, 0x1fb8ca33174a16, 0x1fb82b76765b54, 0x1fb7859c5b895c,
    0x1fb6d840d55594, 0x1fb622f7d96942, 0x1fb5654c6f37e0, 0x1fb49ebfbf69d2,
    0x1fb3cec803e746, 0x1fb2f4cf539c3e, 0x1fb21032442852, 0x1fb1203e5a9604,
    0x1fb0243042e1c2, 0x1faf1b31c479a6, 0x1fae045767e104, 0x1facde9dbf2d72,
    0x1faba8e640060a, 0x1faa61f399ff28, 0x1fa908656f66a2, 0x1fa79ab3508d3c,
    0x1fa61726d1f214, 0x1fa47bd48bea00, 0x1fa2c693c5c094, 0x1fa0f4f47df314,
    0x1f9f04336bbe0a, 0x1f9cf12b79f9bc, 0x1f9ab84415abc4, 0x1f98555b782fb8,
    0x1f95c3abd03f78, 0x1f92fda9cef1f2, 0x1f8ffcda9ae41c, 0x1f8cb99e7385f8,
    0x1f892aec479606, 0x1f8545f904db8e, 0x1f80fdc336039a, 0x1f7c427839e926,
    0x1f7700a3582acc, 0x1f71200f1a241c, 0x1f6a8234b7352a, 0x1f630000a8e266,
    0x1f5a66904fe3c4, 0x1f50724ece1172, 0x1f44c7665c6fda, 0x1f36e5a38a59a2,
    0x1f26143450340a, 0x1f113e047b0414, 0x1ef6aefa57cbe6, 0x1ed38ca188151e,
    0x1ea2a61e122db0, 0x1e5961c78b267c, 0x1dddf62bac0bb0, 0x1cdb4dd9e4e8c0
};
static const double we_double[256] = {
    0x1.164ec94bf5dc1p-50, 0x1.0589d8b5d4119p-57, 0x1.ad6b2495b4d2bp-57,
    0x1.19335a95b8dbap-56, 0x1.522e6e54a2a73p-56, 0x1.85090fbc27a80p-56,
    0x1.b38d1ef79b7ccp-56, 0x1.decd8b76dbd98p-56, 0x1.03bf049c65c3cp-55,
    0x1.170db24d6f670p-55, 0x1.2980290da2633p-55, 0x1.3b388fe3d6ecap-55,
    0x1.4c515c60bfe21p-55, 0x1.5cdf89d024ac3p-55, 0x1.6cf40f0a72bbdp-55,
    0x1.7c9cdda17d019p-55, 0x1.8be5954d3606fp-55, 0x1.9ad80552237d2p-55,
    0x1.a97c8be5d5203p-55, 0x1.b7da5dddda3c4p-55, 0x1.c5f7bd78c3f89p-55,
    0x1.d3da24df17c36p-55, 0x1.e186678f1735ap-55, 0x1.ef00ccf5f4faap-55,
    0x1.fc4d25d683209p-55, 0x1.04b76ed6a7558p-54, 0x1.0b348479b80fcp-54,
    0x1.119f38749f5afp-54, 0x1.17f8ceb4bdfa0p-54, 0x1.1e426e93e49e7p-54,
    0x1.247d26538ff2ep-54, 0x1.2aa9ee123680bp-54, 0x1.30c9aa526da4bp-54,
    0x1.36dd2e26d8202p-54, 0x1.3ce53d12162a0p-54, 0x1.42e28ca706748p-54,
    0x1.48d5c5f35e712p-54, 0x1.4ebf86bcd0b93p-54, 0x1.54a0629786f4dp-54,
    0x1.5a78e3db8befdp-54, 0x1.60498c7dd2ecfp-54, 0x1.6612d6d0c68e0p-54,
    0x1.6bd5362faa944p-54, 0x1.71911797990bbp-54, 0x1.7746e23077973p-54,
    0x1.7cf6f7c7e8172p-54, 0x1.82a1b53fed599p-54, 0x1.884772f2be1ecp-54,
    0x1.8de8850d0c52ap-54, 0x1.93853bdfda244p-54, 0x1.991de42ad1338p-54,
    0x1.9eb2c75ff03bfp-54, 0x1.a4442be14884ap-54, 0x1.a9d255396d261p-54,
    0x1.af5d844f224c9p-54, 0x1.b4e5f794c979bp-54, 0x1.ba6beb33f8f89p-54,
    0x1.bfef99359fe99p-54, 0x1.c57139a70d29fp-54, 0x1.caf102bc25adbp-54,
    0x1.d06f28ef0e6fbp-54, 0x1.d5ebdf1d86b8dp-54, 0x1.db6756a429057p-54,
    0x1.e0e1bf77c31fep-54, 0x1.e65b483cf1044p-54, 0x1.ebd41e5e21b62p-54,
    0x1.f14c6e202949fp-54, 0x1.f6c462b57feb5p-54, 0x1.fc3c26504a9a1p-54,
    0x1.00d9f119a3cd9p-53, 0x1.0395df60db162p-53, 0x1.0651f1c7276f8p-53,
    0x1.090e3bb4b0072p-53, 0x1.0bcad03710137p-53, 0x1.0e87c207a2f66p-53,
    0x1.114523917ac15p-53, 0x1.140306f707dbep-53, 0x1.16c17e1777ffbp-53,
    0x1.19809a93d2396p-53, 0x1.1c406dd3d5283p-53, 0x1.1f01090a9c4e2p-53,
    0x1.21c27d3b10e05p-53, 0x1.2484db3c2a329p-53, 0x1.274833bd0189fp-53,
    0x1.2a0c9748bcdaap-53, 0x1.2cd2164a53b5dp-53, 0x1.2f98c11031721p-53,
    0x1.3260a7cfb7611p-53, 0x1.3529daa8a1ba1p-53, 0x1.37f469a851af0p-53,
    0x1.3ac064ccfeffcp-53, 0x1.3d8ddc08d336dp-53, 0x1.405cdf44f09c4p-53,
    0x1.432d7e6466cd0p-53, 0x1.45ffc94716ca7p-53, 0x1.48d3cfcc883c4p-53,
    0x1.4ba9a1d6b18a4p-53, 0x1.4e814f4cb45eap-53, 0x1.515ae81d900fbp-53,
    0x1.54367c42cb5f8p-53, 0x1.57141bc316f27p-53, 0x1.59f3d6b4e9cf9p-53,
    0x1.5cd5bd4119335p-53, 0x1.5fb9dfa56cf26p-53, 0x1.62a04e3731a2ep-53,
    0x1.65891965c9b8cp-53, 0x1.687451bd3ebeep-53, 0x1.6b6207e8d3cdfp-53,
    0x1.6e524cb59a608p-53, 0x1.714531150a9fbp-53, 0x1.743ac61fa041cp-53,
    0x1.77331d177d130p-53, 0x1.7a2e476b1240ap-53, 0x1.7d2c56b7d17f7p-53,
    0x1.802d5ccce7277p-53, 0x1.83316badfe62ap-53, 0x1.86389596108e7p-53,
    0x1.8942ecfa40f54p-53, 0x1.8c50848cc6094p-53, 0x1.8f616f3fe1513p-53,
    0x1.9275c048e73e1p-53, 0x1.958d8b235828ap-53, 0x1.98a8e3940bbf4p-53,
    0x1.9bc7ddac7035dp-53, 0x1.9eea8dcdde951p-53, 0x1.a21108ad0592dp-53,
    0x1.a53b63556c690p-53, 0x1.a869b32d0f30fp-53, 0x1.ab9c0df81657ap-53,
    0x1.aed289dcaacffp-53, 0x1.b20d3d66e8bb5p-53, 0x1.b54c3f8cf2542p-53,
    0x1.b88fa7b324fb6p-53, 0x1.bbd78db072610p-53, 0x1.bf2409d2dfd85p-53,
    0x1.c27534e42e02dp-53, 0x1.c5cb282eab1a4p-53, 0x1.c925fd82323fbp-53,
    0x1.cc85cf395a56cp-53, 0x1.cfeab83ed7180p-53, 0x1.d354d4130f2adp-53,
    0x1.d6c43ed1ea3fep-53, 0x1.da391538da50ap-53, 0x1.ddb374ad2357fp-53,
    0x1.e1337b426509bp-53, 0x1.e4b947c16a452p-53, 0x1.e844f9af4237fp-53,
    0x1.ebd6b154a7678p-53, 0x1.ef6e8fc5b9168p-53, 0x1.f30cb6ea0bc7fp-53,
    0x1.f6b1498515ed0p-53, 0x1.fa5c6b3efe1e5p-53, 0x1.fe0e40add09d8p-53,
    0x1.00e377af911d4p-52, 0x1.02c34ef11391bp-52, 0x1.04a6b9e9224a3p-52,
    0x1.068dccf1126dbp-52, 0x1.08789cf3aad0fp-52, 0x1.0a673f733c819p-52,
    0x1.0c59ca900946fp-52, 0x1.0e50550efcfb7p-52, 0x1.104af660befcep-52,
    0x1.1249c6a92154ap-52, 0x1.144cdec6f3a2bp-52, 0x1.1654585c404c1p-52,
    0x1.18604dd6fae9ep-52, 0x1.1a70da7a27820p-52, 0x1.1c861a6782a5ap-52,
    0x1.1ea02aa9b3370p-52, 0x1.20bf293f0f4a2p-52, 0x1.22e33524fe550p-52,
    0x1.250c6e6403bbap-52, 0x1.273af61c7daa6p-52, 0x1.296eee942532bp-52,
    0x1.2ba87b445db51p-52, 0x1.2de7c0e962d70p-52, 0x1.302ce59265965p-52,
    0x1.327810b2aa7d0p-52, 0x1.34c96b33bc965p-52, 0x1.37211f88ca856p-52,
    0x1.397f59c345143p-52, 0x1.3be447a8d8b83p-52, 0x1.3e5018cadded0p-52,
    0x1.40c2fe9f5eeadp-52, 0x1.433d2c9bd42f8p-52, 0x1.45bed851bc92cp-52,
    0x1.4848398d39432p-52, 0x1.4ad98a75da14cp-52, 0x1.4d7307b1cb127p-52,
    0x1.5014f08b99508p-52, 0x1.52bf871acaab2p-52, 0x1.5573106f8a75ap-52,
    0x1.582fd4c1b4461p-52, 0x1.5af61fa38e107p-52, 0x1.5dc640388bd9ep-52,
    0x1.60a0897081879p-52, 0x1.63855247b2e94p-52, 0x1.6674f60c3f432p-52,
    0x1.696fd4a9748eep-52, 0x1.6c7652f9a7b1ep-52, 0x1.6f88db1f42507p-52,
    0x1.72a7dce5cd218p-52, 0x1.75d3ce2bd71c3p-52, 0x1.790d2b56b71f9p-52,
    0x1.7c5477d1476d3p-52, 0x1.7faa3e96e1412p-52, 0x1.830f12cc0bec3p-52,
    0x1.8683906687342p-52, 0x1.8a085ce695babp-52, 0x1.8d9e2823b3695p-52,
    0x1.9145ad2f37544p-52, 0x1.94ffb34fc2a0ep-52, 0x1.98cd0f18d1ad8p-52,
    0x1.9caea3a24d9eap-52, 0x1.a0a563e49f178p-52, 0x1.a4b2543e84c3bp-52,
    0x1.a8d68c2ad86eap-52, 0x1.ad13382d845c4p-52, 0x1.b1699c003b60ap-52,
    0x1.b5db15091ea0fp-52, 0x1.ba691d276da5ep-52, 0x1.bf154de4bef77p-52,
    0x1.c3e1641c2e0a7p-52, 0x1.c8cf442c8c8f4p-52, 0x1.cde0fecf2a97fp-52,
    0x1.d318d6b2738c5p-52, 0x1.d87946fec3becp-52, 0x1.de050af4ef19fp-52,
    0x1.e3bf26e190960p-52, 0x1.e9aaf2af383c1p-52, 0x1.efcc26750ea4ap-52,
    0x1.f626e9791f7a7p-52, 0x1.fcbfe43f6c6e5p-52, 0x1.01ce2b362ec2ep-51,
    0x1.056118bf58eefp-51, 0x1.091c1cdcba54ep-51, 0x1.0d031785d48a0p-51,
    0x1.111a8034392a6p-51, 0x1.156786775442ap-51, 0x1.19f03bcb3c2d6p-51,
    0x1.1ebbca0c9fa7cp-51, 0x1.23d2bb659919fp-51, 0x1.293f5ae49aaa5p-51,
    0x1.2f0e38a4411f0p-51, 0x1.354ee27ccf75ep-51, 0x1.3c14ec7c8b861p-51,
    0x1.4379766e41362p-51, 0x1.4b9d7cd4751d1p-51, 0x1.54ad83ccf73f6p-51,
    0x1.5ee7ae17313d2p-51, 0x1.6aa676d4bbf72p-51, 0x1.78750d6eac62fp-51,
    0x1.8939fe6f2ed19p-51, 0x1.9e9dc0d487b85p-51, 0x1.bc39e51da71fcp-51,
    0x1.ec9d9297ebb83p-51
};
static const double fe_double[256] = {
    0x1.0000000000000p+0, 0x1.e0545e5881137p-1, 0x1.cd0a65081fff1p-1,
    0x1.be5007beb7b27p-1, 0x1.b210f0ee67f2ap-1, 0x1.a76baa562fae7p-1,
    0x1.9de9715556d9bp-1, 0x1.95431c455aa39p-1, 0x1.8d4a376d3d22fp-1,
    0x1.85de87806c5b8p-1, 0x1.7ee8a2d243126p-1, 0x1.7856e9b09d47ep-1,
    0x1.721bb5ba94b63p-1, 0x1.6c2c3498418c6p-1, 0x1.667fa6d4f5c06p-1,
    0x1.610edc1a7af66p-1, 0x1.5bd3d694cac75p-1, 0x1.56c9882da8773p-1,
    0x1.51eba1578899ap-1, 0x1.4d366c151f8afp-1, 0x1.48a6afb8ee069p-1,
    0x1.44399afa8e125p-1, 0x1.3fecb2bb18b80p-1, 0x1.3bbdc44e1d114p-1,
    0x1.37aada708ddd9p-1, 0x1.33b23450e6318p-1, 0x1.2fd23e345da5ep-1,
    0x1.2c098b61f4f24p-1, 0x1.2856d111132bdp-1, 0x1.24b8e228c50a3p-1,
    0x1.212eaba813ec8p-1, 0x1.1db7319877b89p-1, 0x1.1a518c71e3b25p-1,
    0x1.16fce6dce6feep-1, 0x1.13b87bc33169cp-1, 0x1.108394a1cc38dp-1,
    0x1.0d5d8812b1e2bp-1, 0x1.0a45b8854d02ap-1, 0x1.073b931ee3b7dp-1,
    0x1.043e8ebd26548p-1, 0x1.014e2b160f324p-1, 0x1.fcd3dfe214576p-2,
    0x1.f722d8ebfc5fap-2, 0x1.f1886d1eb424dp-2, 0x1.ec03d4b969d90p-2,
    0x1.e6945367dd351p-2, 0x1.e139375e137fcp-2, 0x1.dbf1d88a7210cp-2,
    0x1.d6bd97db9ed7ap-2, 0x1.d19bde97e1a0bp-2, 0x1.cc8c1dc40e092p-2,
    0x1.c78dcd983fb60p-2, 0x1.c2a06d00ea583p-2, 0x1.bdc3812aeeeb5p-2,
    0x1.b8f6951990b88p-2, 0x1.b43939454806fp-2, 0x1.af8b03428ef5fp-2,
    0x1.aaeb8d6fdf6e5p-2, 0x1.a65a76aa30140p-2, 0x1.a1d76207521f4p-2,
    0x1.9d61f695a3792p-2, 0x1.98f9df2097ba8p-2, 0x1.949ec9f9a8110p-2,
    0x1.905068c545d04p-2, 0x1.8c0e704b75d39p-2, 0x1.87d8984bc3f8cp-2,
    0x1.83ae9b5446138p-2, 0x1.7f90369b6ce59p-2, 0x1.7b7d29dc6801ep-2,
    0x1.77753735e72e3p-2, 0x1.7378230b08deap-2, 0x1.6f85b3e649e9dp-2,
    0x1.6b9db25e4e99cp-2, 0x1.67bfe8fc60d9fp-2, 0x1.63ec2424827e4p-2,
    0x1.602231fef5876p-2, 0x1.5c61e2631ee6cp-2, 0x1.58ab06c3aa9efp-2,
    0x1.54fd721bda3e7p-2, 0x1.5158f8dde89f5p-2, 0x1.4dbd70e26f91dp-2,
    0x1.4a2ab158bdad3p-2, 0x1.46a092b80beefp-2, 0x1.431eeeb1841e2p-2,
    0x1.3fa5a0230a14ep-2, 0x1.3c34830abb285p-2, 0x1.38cb747b17defp-2,
    0x1.356a528fcd0ddp-2, 0x1.3210fc6312435p-2, 0x1.2ebf520394270p-2,
    0x1.2b75346ae2262p-2, 0x1.2832857457629p-2, 0x1.24f727d4776fdp-2,
    0x1.21c2ff10b7effp-2, 0x1.1e95ef77b09dbp-2, 0x1.1b6fde19abc5ap-2,
    0x1.1850b0c191982p-2, 0x1.15384dee291efp-2, 0x1.12269ccba9fbap-2,
    0x1.0f1b852d9a66cp-2, 0x1.0c16ef88f5333p-2, 0x1.0918c4ee93e13p-2,
    0x1.0620ef05d90d2p-2, 0x1.032f580797c2cp-2, 0x1.0043eab93476ap-2,
    0x1.fabd24cff9354p-3, 0x1.f4fe75c963e7ep-3, 0x1.ef4ba0fe8e09bp-3,
    0x1.e9a48005940f2p-3, 0x1.e408ed62f83a7p-3, 0x1.de78c48224f39p-3,
    0x1.d8f3e1ae3eeb8p-3, 0x1.d37a220b431fdp-3, 0x1.ce0b638f6d09fp-3,
    0x1.c8a784fce1802p-3, 0x1.c34e65db9afeep-3, 0x1.bdffe67394435p-3,
    0x1.b8bbe7c72e4a5p-3, 0x1.b3824b8dcef3ep-3, 0x1.ae52f42eb5b0bp-3,
    0x1.a92dc4bc03c49p-3, 0x1.a412a0edf5cbcp-3, 0x1.9f016d1e4c512p-3,
    0x1.99fa0e43e1623p-3, 0x1.94fc69ee692a1p-3, 0x1.900866425bb79p-3,
    0x1.8b1de9f5062d5p-3, 0x1.863cdc48c1af9p-3, 0x1.816525094e7e6p-3,
    0x1.7c96ac8851baep-3, 0x1.77d15b99f46fep-3, 0x1.73151b91a2839p-3,
    0x1.6e61d63ee84eap-3, 0x1.69b775ea6da28p-3, 0x1.6515e5530d1acp-3,
    0x1.607d0fab06a31p-3, 0x1.5bece0954c2b6p-3, 0x1.57654422e78f5p-3,
    0x1.52e626d078c49p-3, 0x1.4e6f7583cb6fap-3, 0x1.4a011d8983096p-3,
    0x1.459b0c92dccc6p-3, 0x1.413d30b386a9ap-3, 0x1.3ce7785f8a905p-3,
    0x1.3899d2694d5c9p-3, 0x1.34542dffa0cafp-3, 0x1.30167aabe7d6ep-3,
    0x1.2be0a8504cf34p-3, 0x1.27b2a72609940p-3, 0x1.238c67bbbe878p-3,
    0x1.1f6ddaf3dca65p-3, 0x1.1b56f2031d666p-3, 0x1.17479e6f0ae78p-3,
    0x1.133fd20c9712fp-3, 0x1.0f3f7efec1720p-3, 0x1.0b4697b54b62fp-3,
    0x1.07550eeb7a5bep-3, 0x1.036ad7a6e7f04p-3, 0x1.ff0fca6cbea8dp-4,
    0x1.f758566190414p-4, 0x1.efaf3ae83c33cp-4, 0x1.e8146048eb9ccp-4,
    0x1.e087af561bafbp-4, 0x1.d909116ad9398p-4, 0x1.d198706914dd7p-4,
    0x1.ca35b6b80fd57p-4, 0x1.c2e0cf42e10afp-4, 0x1.bb99a5771268fp-4,
    0x1.b460254356548p-4, 0x1.ad343b1655465p-4, 0x1.a615d3dd938b7p-4,
    0x1.9f04dd046f428p-4, 0x1.9801447336b70p-4, 0x1.910af88e574b9p-4,
    0x1.8a21e835a533bp-4, 0x1.834602c3bc4bap-4, 0x1.7c77380d7a6f3p-4,
    0x1.75b5786193c1ep-4, 0x1.6f00b488416b6p-4, 0x1.6858ddc30b620p-4,
    0x1.61bde5ccadef7p-4, 0x1.5b2fbed91bb3ep-4, 0x1.54ae5b959d036p-4,
    0x1.4e39af290d929p-4, 0x1.47d1ad343985cp-4, 0x1.417649d25b10ep-4,
    0x1.3b277999b9f9ep-4, 0x1.34e5319c6e718p-4, 0x1.2eaf676948dd1p-4,
    0x1.2886110ce0570p-4, 0x1.22692512c9d8cp-4, 0x1.1c589a86fa340p-4,
    0x1.165468f755392p-4, 0x1.105c88756ca50p-4, 0x1.0a70f19871b3bp-4,
    0x1.04919d7f5c817p-4, 0x1.fd7d0ba699676p-5, 0x1.f1ef49944e834p-5,
    0x1.e679ea52eb2e5p-5, 0x1.db1ce49315810p-5, 0x1.cfd83031e794ap-5,
    0x1.c4abc640721e9p-5, 0x1.b997a10bed985p-5, 0x1.ae9bbc26a8084p-5,
    0x1.a3b81471bf138p-5, 0x1.98eca827b7c4cp-5, 0x1.8e3976e80776dp-5,
    0x1.839e81c3a396bp-5, 0x1.791bcb4ab089ep-5, 0x1.6eb1579b6af52p-5,
    0x1.645f2c726a041p-5, 0x1.5a25513c5d2cap-5, 0x1.5003cf296c5ebp-5,
    0x1.45fab14266b19p-5, 0x1.3c0a047ff18ffp-5, 0x1.3231d7e3f14aep-5,
    0x1.28723c956c00cp-5, 0x1.1ecb45ff312d4p-5, 0x1.153d09f19b3a1p-5,
    0x1.0bc7a0c7cd651p-5, 0x1.026b2590dfaeep-5, 0x1.f24f6c7af9890p-6,
    0x1.dffae7a517468p-6, 0x1.cdd9054331b0cp-6, 0x1.bbea150fa5870p-6,
    0x1.aa2e6e6924e9bp-6, 0x1.98a670f132a48p-6, 0x1.8752853ec9967p-6,
    0x1.76331da87fc96p-6, 0x1.6548b72a24077p-6, 0x1.5493da6ab0251p-6,
    0x1.44151ce87f0bep-6, 0x1.33cd225315d84p-6, 0x1.23bc9e1b93a32p-6,
    0x1.13e4554725f5fp-6, 0x1.04452091e02f0p-6, 0x1.e9bfdde89c7cep-7,
    0x1.cb6b9146e2757p-7, 0x1.ad8fa5542c92dp-7, 0x1.902ea688fa7bdp-7,
    0x1.734b6e6aa74f5p-7, 0x1.56e930be416cbp-7, 0x1.3b0b8c1516f62p-7,
    0x1.1fb69edb37671p-7, 0x1.04ef2295fd7f9p-7, 0x1.d5751fa745dc5p-8,
    0x1.a23e9d4974836p-8, 0x1.7049f37ec3620p-8, 0x1.3fa97cee322fdp-8,
    0x1.1073d69574043p-8, 0x1.c58b381cd4b11p-9, 0x1.6d888f3a1feffp-9,
    0x1.1946ba8e1a324p-9, 0x1.92bb5540c3e25p-10, 0x1.fb20af78dfcb9p-11,
    0x1.dc31c329f0b4bp-12
};

/* numpy's random_standard_exponential: the next standard exponential of
   g, in the operations of numpy's ziggurat, its rejections included */
static inline double std_exponential(philox_gen *g)
{
    for (;;) {
        uint64_t ri = next_u64(g) >> 3;
        const int idx = (int)(ri & 0xFF);
        double x;
        ri >>= 8;
        x = (double)ri * we_double[idx];
        if (ri < ke_double[idx])
            return x;
        if (idx == 0)
            return ZIGGURAT_EXP_R - log1p(-next_double(g));
        if ((fe_double[idx - 1] - fe_double[idx]) * next_double(g)
                + fe_double[idx] < exp(-x))
            return x;
    }
}

/* Advance each of the rows generator records at gens (ten words each,
   laid out as philox_gen) by n standard exponentials, the draws of
   numpy's Generator.standard_exponential: record r's go to
   out[r * stride .. r * stride + n - 1], or nowhere if out is NULL.
   A record is held in a local while it draws. */
void stuck_std_exponentials(uint64_t *gens, int64_t rows, int64_t n,
                            int64_t stride, double *out)
{
    int64_t r, k;
    for (r = 0; r < rows; r++) {
        double *row = out ? out + r * stride : NULL;
        philox_gen g;
        memcpy(&g, gens + 10 * r, sizeof g);
        for (k = 0; k < n; k++) {
            const double x = std_exponential(&g);
            if (row)
                row[k] = x;
        }
        memcpy(gens + 10 * r, &g, sizeof g);
    }
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
        # the compiler's last word on why, kept to one line
        stderr = getattr(exc, "stderr", None) or b""
        why = [line.strip() for line in stderr.decode(
            errors="replace").splitlines() if line.strip()]
        raise OSError(f"{exc} {why[-1]}" if why else str(exc)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load():
    """The kernel library (``ctypes.CDLL`` with every function typed);
    raises OSError if it cannot be built or loaded here."""
    import ctypes
    import shutil

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise OSError(f"no C compiler {COMPILER!r} on PATH: the kernels "
                      "need one with __uint128_t (gcc or clang, 64-bit)")
    compiler = os.path.realpath(compiler)
    lib = _library_path(compiler)
    if not os.path.exists(lib):
        _compile(compiler, lib)
    kernels = ctypes.CDLL(lib)
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    kernels.stuck_step_prob.argtypes = [f64, f64, ptr]
    kernels.stuck_step_prob.restype = f64
    kernels.stuck_walk_steps.argtypes = [f64, f64, ptr, i64, ptr, ptr]
    kernels.stuck_walk_steps.restype = i64
    kernels.stuck_walk_many.argtypes = [f64, f64, i64, ptr, ptr, ptr]
    kernels.stuck_walk_many.restype = None
    kernels.stuck_rubin_races.argtypes = [f64, f64, ctypes.c_uint64, i64,
                                          f64, i64, ptr, ptr]
    kernels.stuck_rubin_races.restype = i64
    kernels.stuck_sampler_step.argtypes = [f64, f64, i64, i64, i64, ptr,
                                           i64, ptr, ptr]
    kernels.stuck_sampler_step.restype = i64
    kernels.stuck_matched_crossings.argtypes = [ptr, ptr, i64, ptr]
    kernels.stuck_matched_crossings.restype = i64
    kernels.stuck_std_exponentials.argtypes = [ptr, i64, i64, i64, ptr]
    kernels.stuck_std_exponentials.restype = None
    return kernels
