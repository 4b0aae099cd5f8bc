"""Compiled step kernel for the direct walk, built on first use.

The C loop below repeats, step for step, the arithmetic of
``walk.step``: the same evaluation order of the local stream, the same
saturation branches and libm ``exp``.  It is compiled with the system C
compiler into ``$XDG_CACHE_HOME/stuckwalk`` (default ``~/.cache``) and
loaded with ``ctypes``.  ``-ffp-contract=off`` forbids fused multiply-adds,
which would change the bits of Delta; ``-ffast-math`` and
``-march=native`` must never be added for the same reason.

``load()`` returns None when no kernel can be built or loaded (no
compiler, unwritable cache, failed compile; the last two with a
RuntimeWarning); callers then fall back to the reference stepper, which
gives the same trajectories.  Nothing here runs at import time.
"""

import functools
import os
import warnings

SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define SAT 40.0

/* Advance the walk up to n steps and return the number taken.  lt
   points at edge 0 of the local-time array (lt[j] is the local time of
   edge {j-1, j}).  state = {pos, lo, hi, first, last}: the position and
   the visited range, read and written back, and the lowest and highest
   edge index the array holds, read only.  A step reads edges pos-1 to
   pos+2, so the caller keeps first <= lo-1 and hi+2 <= last; the walk
   stops early, right after the step that sets a new lo or hi which
   breaks that, and the caller widens the array.  out[k] receives the
   position after step k unless out is NULL. */
int64_t stuck_walk_steps(double alpha, double tb, int64_t *lt,
                         const double *u, int64_t n, int64_t *state,
                         int64_t *out)
{
    int64_t pos = state[0], lo = state[1], hi = state[2];
    const int64_t first = state[3], last = state[4];
    int64_t k;
    for (k = 0; k < n; k++) {
        int64_t *l = lt + pos;
        double delta = ((-alpha * (double)l[-1] + (double)l[0])
                        - (double)l[1]) + alpha * (double)l[2];
        double x = tb * delta;
        double p;
        if (x > SAT)
            p = 1.0;
        else if (x < -SAT)
            p = 0.0;
        else
            p = 1.0 / (1.0 + exp(-x));
        if (u[k] < p) {
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
    return k;
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
    import hashlib

    st = os.stat(compiler)
    key = "\0".join([SOURCE, compiler, str(st.st_size), str(st.st_mtime_ns),
                     *FLAGS])
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    return os.path.join(_cache_dir(), f"walk-{digest}.so")


def _compile(compiler: str, lib: str) -> None:
    """Build ``lib``; parallel builds race harmlessly via os.replace."""
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
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load():
    """The kernel's ctypes function, or None if it cannot be had here."""
    import ctypes
    import shutil
    import subprocess

    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    try:
        lib = _library_path(compiler)
        if not os.path.exists(lib):
            _compile(compiler, lib)
        fn = ctypes.CDLL(lib).stuck_walk_steps
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"cannot build the walk kernel ({exc}); using the "
                      "slower reference stepper", RuntimeWarning)
        return None
    fn.argtypes = [ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_void_p]
    fn.restype = ctypes.c_int64
    return fn
