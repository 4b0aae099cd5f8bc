"""Reproducible RNG plumbing.

Two primitives are used throughout:

* numpy's Philox (counter-based) generator for bulk draws inside one
  trajectory, identified in output metadata as ``PRNG_ID``; the kernels'
  C port draws its stream from the ten words of ``philox_record``, the
  one place a fresh generator record is written, so no caller imports
  numpy's generator;
* a splitmix64 avalanche mix for deriving independent 64-bit seeds and
  for stateless, order-independent clock draws keyed by
  (site, direction, clock index).
"""

from array import array

PRNG_ID = "philox4x64(numpy) + splitmix64 key mix"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 finalization round (public-domain constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, run_index: int) -> int:
    """Per-run 64-bit seed: splitmix64 of master advanced run_index+1 times.

    Equivalent to the splitmix64 output stream seeded at ``master``, so
    distinct run indices give independent-looking seeds and the map is
    injective in run_index for any fixed master (stream positions differ).
    """
    return splitmix64((master + run_index * _GOLDEN) & _MASK64)


def philox_record(seed: int) -> array:
    """The ten words {key, ctr[4], buf[4], used} of a fresh numpy
    ``Generator(Philox(key=seed))`` as the kernels' Philox port keeps
    them: the key, a zero counter and buffer, and ``used = 4``, an empty
    buffer."""
    return array("Q", (seed & _MASK64, 0, 0, 0, 0, 0, 0, 0, 0, 4))


def keyed_u64(seed: int, *words: int) -> int:
    """Stateless 64-bit output keyed by (seed, words...): chained splitmix64."""
    h = splitmix64(seed & _MASK64)
    for w in words:
        h = splitmix64((h ^ (w & _MASK64)) & _MASK64)
    return h


def keyed_uniform(seed: int, *words: int) -> float:
    """Uniform in (0, 1) from keyed_u64 (53-bit mantissa, zero avoided)."""
    u = (keyed_u64(seed, *words) >> 11) * 2.0**-53
    return u if u > 0.0 else 2.0**-53
