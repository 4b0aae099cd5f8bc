"""Regime thresholds and classification for the interaction strength alpha.

The walk's asymptotic window size is governed by where alpha falls in the
decreasing threshold sequence alpha_1 = +inf, alpha_L = 1/(1 + 2 cos(2 pi /
(L+2))) for L >= 2; the companion angle omega = arccos((1 - alpha)/(2 alpha))
is the argument of the complex roots of alpha X^3 - X^2 + X - alpha.
"""

from dataclasses import dataclass
import math

from .errors import CriticalValue, DomainError

ALPHA_MIN = 1.0 / 3.0
DEFAULT_CRITICAL_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def alpha_threshold(L: int) -> float:
    """Threshold alpha_L; +inf for L = 1, strictly decreasing to 1/3."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L == 1:
        return math.inf
    return 1.0 / (1.0 + 2.0 * math.cos(TWO_PI / (L + 2)))


def omega(alpha: float) -> float:
    """Angle in (0, pi) with cos(omega) = (1 - alpha) / (2 alpha)."""
    if alpha <= ALPHA_MIN:
        raise DomainError(f"omega requires alpha > 1/3, got {alpha}")
    return math.acos((1.0 - alpha) / (2.0 * alpha))


def classify(alpha: float) -> int:
    """The unique L with alpha_threshold(L+1) < alpha < alpha_threshold(L).

    With the relative tolerance tol = DEFAULT_CRITICAL_TOL, alpha within
    tol of a finite threshold raises CriticalValue (critical couplings are
    excluded), and alpha within tol of 1/3 raises DomainError, as does a
    non-finite alpha.
    """
    tol = DEFAULT_CRITICAL_TOL
    if not ALPHA_MIN + tol < alpha < math.inf:
        raise DomainError(f"classify requires a finite alpha > 1/3 (+tol), "
                          f"got {alpha}")
    # 2 pi / (L+3) < omega < 2 pi / (L+2)  <=>  L + 2 < 2 pi / omega < L + 3
    r = TWO_PI / omega(alpha)
    L = max(1, int(math.floor(r)) - 2)
    # floor can land one off at the edges of a regime; nudge into place
    # (larger alpha means smaller L).
    while L > 1 and alpha >= alpha_threshold(L):
        L -= 1
    while alpha <= alpha_threshold(L + 1):
        L += 1
    for Lc in (L, L + 1):
        a_c = alpha_threshold(Lc)
        if math.isfinite(a_c) and abs(alpha - a_c) <= tol * max(1.0, a_c):
            raise CriticalValue(f"alpha={alpha} is within tol of alpha_{Lc}={a_c}")
    return L


@dataclass(frozen=True)
class Params:
    """Walk parameters with the derived regime index and angle."""

    alpha: float
    beta: float
    L: int
    omega: float

    @classmethod
    def make(cls, alpha: float, beta: float) -> "Params":
        # 2 beta x 2(1+alpha) is the largest factor either engine
        # multiplies by; it is also inf or NaN if alpha or beta is
        if not math.isfinite(4.0 * beta * (1.0 + alpha)):
            raise DomainError(f"alpha and beta must be finite, with 4 beta "
                              f"(1+alpha) not overflowing a double, got "
                              f"alpha={alpha}, beta={beta}")
        if beta <= 0.0:
            raise DomainError(f"beta must be > 0, got {beta}")
        return cls(alpha=alpha, beta=beta, L=classify(alpha),
                   omega=omega(alpha))
