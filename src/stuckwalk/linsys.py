"""Generalized-Fibonacci linear systems tied to the localization windows.

The central object is the system (E_K) on (l_0, ..., l_{K+2}):

    d_j := -alpha l_{j-1} + l_j - l_{j+1} + alpha l_{j+2} = 0   (j = 1..K)
    l_0 = 0,   sum_{j=1}^{K+1} l_j = 1,

whose solutions are the candidate limiting normalized edge local-time
profiles.  Boundary streams d_0 = l_0 - l_1 + alpha l_2 and
d_{K+1} = -alpha l_K + l_{K+1} - l_{K+2} decide stability of a window.

Solvers: a trigonometric closed form for K <= L+1, a dense direct solver
with a prescribed l_{K+2}, the affine system AS(d_1..d_L) with its positive
constants c_k, and a brute-force oracle for the positive constant bounding
d_0 over nonnegative solutions.
"""

from dataclasses import dataclass
import functools
import math

from .errors import DomainError, IdentityError, Infeasible, RegimeError
from .spectrum import alpha_threshold, classify, omega

_RANK_TOL = 1e-10
_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class SystemSolution:
    """A solved (E_K) instance."""

    K: int
    alpha: float
    l: tuple
    d0: float
    dK1: float
    unique: bool


@dataclass(frozen=True)
class AffineSolution:
    """A solved AS(d_1..d_L) instance with the constants c_1..c_L."""

    L: int
    alpha: float
    d_in: tuple
    l: tuple
    d0: float
    dL1: float
    c: tuple


def interior_streams(l, alpha: float) -> list:
    """d_j for j = 1..K given the full vector l_0..l_{K+2}."""
    # floats first: the same bits below 2**53, no per-operation conversion
    l, minus = list(map(float, l)), -alpha
    return [minus * a + b - c + alpha * d
            for a, b, c, d in zip(l, l[1:], l[2:], l[3:])]


def boundary_streams(l, alpha: float):
    """(d_0, d_{K+1}) recomputed from the full vector."""
    d0 = l[0] - l[1] + alpha * l[2]
    dK1 = -alpha * l[-3] + l[-2] - l[-1]
    return d0, dK1


def _solution_from_l(K, alpha, l, unique):
    d0, dK1 = boundary_streams(l, alpha)
    return SystemSolution(K=K, alpha=alpha, l=tuple(float(v) for v in l),
                          d0=float(d0), dK1=float(dK1), unique=unique)


def solve_closed(K: int, alpha: float) -> SystemSolution:
    """Closed-form solution of (E_K) with l_{K+2} = 0, valid for K <= L+1.

    l_j = sin((K+2-j) w/2) sin(j w/2) / Z with Z normalizing the interior
    sum to 1; the boundary streams come out as
    d_0 = -d_{K+1} = -alpha sin((K+3) w/2) sin(w/2) / Z.
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    L = classify(alpha)
    if K > L + 1:
        raise RegimeError(f"closed form requires K <= L+1 = {L + 1}, got K={K}")
    w = omega(alpha)
    raw = [math.sin((K + 2 - j) * w / 2.0) * math.sin(j * w / 2.0)
           for j in range(K + 3)]
    z = sum(raw[1:K + 2])
    l = [v / z for v in raw]
    l[0] = 0.0
    l[K + 2] = 0.0
    # the trigonometric boundary value keeps d0 = -dK1 exact
    d0 = -alpha * math.sin((K + 3) * w / 2.0) * math.sin(w / 2.0) / z
    return SystemSolution(K=K, alpha=alpha, l=tuple(l), d0=d0, dK1=-d0,
                          unique=True)


def _system_matrix(K: int, alpha: float):
    """Rows: l_0, l_{K+2}, interior sum, then d_1..d_K (matrix M for K = L)."""
    import numpy as np
    n = K + 3
    A = np.zeros((n, n))
    A[0, 0] = 1.0
    A[1, n - 1] = 1.0
    A[2, 1:K + 2] = 1.0
    for j in range(1, K + 1):
        A[2 + j, j - 1] = -alpha
        A[2 + j, j] = 1.0
        A[2 + j, j + 1] = -1.0
        A[2 + j, j + 2] = alpha
    return A


def solve_direct(K: int, alpha: float, lK2: float = 0.0) -> SystemSolution:
    """Dense solve of (E_K) with l_{K+2} = lK2 prescribed.

    Rank-deficient but consistent systems (e.g. (K+2) omega a multiple of
    2 pi at critical alpha) return the minimum-norm representative with
    unique=False; inconsistent ones raise Infeasible.
    """
    import numpy as np
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if not (math.isfinite(alpha) and math.isfinite(lK2)):
        raise DomainError(f"alpha and lK2 must be finite, got alpha={alpha}, "
                          f"lK2={lK2}")
    A = _system_matrix(K, alpha)
    b = np.zeros(K + 3)
    b[1] = lK2
    b[2] = 1.0
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=_RANK_TOL)
    scale = max(1.0, abs(lK2))
    if np.max(np.abs(A @ x - b)) > _CONSISTENCY_TOL * scale:
        raise Infeasible(f"(E_{K}) with l_K+2={lK2} has no solution at alpha={alpha}")
    return _solution_from_l(K, alpha, x, unique=bool(rank == K + 3))


def identity_sweep(points):
    """Closed form against dense solve of (E_K), K = 0..L+1, at each
    (L, alpha) of ``points``.

    Returns (max |closed - direct|, max |l_j - l_{K+2-j}|, max |d0 + dK1|,
    smallest signed boundary margin), each over every component and
    instance.  The margin of an instance is min(-d0, dK1) for K < L and
    min(d0, -dK1) for K >= L: positive exactly when d0 < 0 < dK1 for
    K < L and dK1 < 0 < d0 for K >= L.
    """
    import numpy as np
    dev = sym = d01 = 0.0
    margin = math.inf
    for L, alpha in points:
        for K in range(L + 2):
            a = solve_closed(K, alpha)
            la = np.asarray(a.l)
            dev = max(dev, float(np.max(np.abs(
                la - np.asarray(solve_direct(K, alpha).l)))))
            sym = max(sym, float(np.max(np.abs(la - la[::-1]))))
            d01 = max(d01, abs(a.d0 + a.dK1))
            lo, hi = (-a.d0, a.dK1) if K < L else (a.d0, -a.dK1)
            margin = min(margin, lo, hi)
    return dev, sym, d01, margin


def solve_affine(L: int, alpha: float, d_in) -> AffineSolution:
    """Unique solution of AS(d_1..d_L) plus the positive constants c_k.

    c_k is read off the inverse of the system matrix M:
    c_k = -(0..0, -alpha, 1, 0) M^{-1} e_{3+k}, so that
    d_{L+1} = -d0(L) - sum_k c_k d_k  and  d_0 = d0(L) - sum_k c_{L+1-k} d_k.
    """
    import numpy as np
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not alpha_threshold(L + 1) < alpha < alpha_threshold(L):
        raise RegimeError(
            f"alpha={alpha} outside (alpha_{L + 1}, alpha_{L}) = "
            f"({alpha_threshold(L + 1)}, {alpha_threshold(L)})")
    d_in = tuple(float(v) for v in d_in)
    if len(d_in) != L:
        raise ValueError(f"expected {L} interior streams, got {len(d_in)}")
    M = _system_matrix(L, alpha)
    b = np.zeros(L + 3)
    b[2] = 1.0
    b[3:] = d_in
    Minv = np.linalg.inv(M)
    l = Minv @ b
    row = np.zeros(L + 3)
    row[L] = -alpha
    row[L + 1] = 1.0
    c = tuple(float(-(row @ Minv[:, 3 + k])) for k in range(L))
    d0 = float(-l[1] + alpha * l[2])
    dL1 = float(row @ l)
    return AffineSolution(L=L, alpha=alpha, d_in=d_in,
                          l=tuple(float(v) for v in l), d0=d0, dL1=dL1, c=c)


@functools.lru_cache(maxsize=64)
def solution_family(K: int, alpha: float):
    """The 1-parameter affine family of (E_K) solutions: (x0, v).

    Solutions are x0 + t v; x0 is the minimum-norm particular solution and
    v spans the (generically 1-dimensional) null space of the constraints
    {l_0 = 0, interior sum = 1, d_1..d_K = 0}.  Memoized: both arrays are
    read-only and shared by every caller with the same (K, alpha).
    """
    import numpy as np
    n = K + 3
    A = np.delete(_system_matrix(K, alpha), 1, axis=0)   # l_{K+2} is free
    b = np.zeros(n - 1)
    b[1] = 1.0
    x0, _, rank, _ = np.linalg.lstsq(A, b, rcond=_RANK_TOL)
    if np.max(np.abs(A @ x0 - b)) > _CONSISTENCY_TOL:
        raise Infeasible(f"(E_{K}) constraints inconsistent at alpha={alpha}")
    nullity = n - rank
    if nullity != 1:
        raise Infeasible(
            f"(E_{K}) solution family is {nullity}-dimensional at alpha={alpha}; "
            "endpoint parametrization needs exactly one free direction")
    _, _, vt = np.linalg.svd(A)
    v = vt[-1]
    x0.setflags(write=False)
    v.setflags(write=False)
    return x0, v


def family_point(K: int, alpha: float, t: float) -> SystemSolution:
    """The (E_K) solution x0 + t v of the 1-parameter family."""
    x0, v = solution_family(K, alpha)
    return _solution_from_l(K, alpha, x0 + t * v, unique=False)


def _feasible_interval(x0, v):
    """t-interval where (x0 + t v)[1:] >= 0 componentwise."""
    tlo, thi = -math.inf, math.inf
    for a, bv in zip(x0[1:], v[1:]):
        if abs(bv) < 1e-14:
            if a < -1e-12:
                return None
            continue
        bound = -a / bv
        if bv > 0:
            tlo = max(tlo, bound)
        else:
            thi = min(thi, bound)
    if tlo > thi + 1e-12:
        return None
    return tlo, thi


def _endpoint_streams(K: int, alpha: float) -> list:
    """(d_0, d_{K+1}) at the two endpoints of the nonnegative part
    {l_1..l_{K+2} >= 0} of the (E_K) solution family.

    Both boundary streams are affine along the family, so their extremes
    over that part sit at these endpoints.  Raises Infeasible when the
    part is empty or unbounded.
    """
    x0, v = solution_family(K, alpha)
    iv = _feasible_interval(x0, v)
    if iv is None:
        raise Infeasible(f"no nonnegative (E_{K}) solution at alpha={alpha}")
    if not all(math.isfinite(t) for t in iv):
        raise Infeasible(f"nonnegativity interval unbounded for (E_{K}) at alpha={alpha}")
    return [tuple(float(d) for d in boundary_streams(x0 + t * v, alpha))
            for t in iv]


def c_oracle(K: int, alpha: float) -> float:
    """Brute-force lower bound realization for the constant bounding d_0:
    the minimum of d_0 over the (E_K) solutions with l_1..l_{K+2} >= 0.
    """
    L = classify(alpha)
    if K < L:
        raise RegimeError(f"c_oracle requires K >= L = {L}, got K={K}")
    return min(d0 for d0, _ in _endpoint_streams(K, alpha))


def stream_gap(K: int, alpha: float, sol: SystemSolution) -> float:
    """l_{L+2} - alpha l_{L+1} for a solution of (E_K), K >= L.

    Verified on the fly against the trigonometric identity
    -sin((L+2) w/2)/sin(L w/2) l_1 + 2 alpha cos(w/2) sin((L+3) w/2)/sin(L w/2) l_{L+1},
    and, for componentwise-nonnegative solutions, against the oracle bound
    gap <= -c_oracle(K, alpha).
    """
    L = classify(alpha)
    if K < L:
        raise RegimeError(f"stream_gap requires K >= L = {L}, got K={K}")
    l = sol.l
    gap = l[L + 2] - alpha * l[L + 1]
    w = omega(alpha)
    s_l = math.sin(L * w / 2.0)
    rhs = (-math.sin((L + 2) * w / 2.0) / s_l * l[1]
           + 2.0 * alpha * math.cos(w / 2.0) * math.sin((L + 3) * w / 2.0) / s_l
           * l[L + 1])
    if abs(gap - rhs) > 1e-10 * max(1.0, abs(gap)):
        raise IdentityError(
            f"stream-gap identity violated: {gap} vs {rhs} (K={K}, alpha={alpha})")
    if all(v >= 0.0 for v in l[1:]):
        bound = -c_oracle(K, alpha)
        if gap > bound + 1e-9:
            raise IdentityError(
                f"nonnegative solution violates gap <= -c_oracle: {gap} > {bound}")
    return float(gap)


@dataclass(frozen=True)
class ScanRow:
    """One row of a sign scan: boundary-stream ranges over the feasible set."""

    K: int
    feasible: bool
    d0_min: float
    d0_max: float
    dK1_min: float
    dK1_max: float

    @property
    def d0_sign(self) -> str:
        return _sign_str(self.d0_min, self.d0_max)

    @property
    def dK1_sign(self) -> str:
        return _sign_str(self.dK1_min, self.dK1_max)


def _sign_str(lo, hi):
    if math.isnan(lo):
        return "n/a"
    if lo > 0:
        return "+"
    if hi < 0:
        return "-"
    return "+/-"


def sign_scan(alpha: float, Kmax: int) -> list:
    """Boundary-stream sign table for K = 0..Kmax.

    K <= L+1 uses the closed form (a point); K > L+1 reports the d_0 and
    d_{K+1} ranges over the nonnegative 1-parameter family's endpoints.
    """
    L = classify(alpha)
    if Kmax < L + 1:
        raise ValueError(f"Kmax must be >= L+1 = {L + 1}, got {Kmax}")
    rows = []
    nan = float("nan")
    for K in range(Kmax + 1):
        if K <= L + 1:
            sol = solve_closed(K, alpha)
            rows.append(ScanRow(K, True, sol.d0, sol.d0, sol.dK1, sol.dK1))
            continue
        try:
            d0s, dK1s = zip(*_endpoint_streams(K, alpha))
        except Infeasible:
            rows.append(ScanRow(K, False, nan, nan, nan, nan))
            continue
        rows.append(ScanRow(K, True, min(d0s), max(d0s), min(dK1s), max(dK1s)))
    return rows
