"""Acceptance gate: nine statistical/numerical criteria with pinned
tolerances, one pass/fail line printed per criterion.

The localization claims are almost-sure limit theorems; the checks here are
their finite-horizon statistical surrogates with explicit tolerances, plus
exact identity checks for the linear-system theory.
"""

import time

import numpy as np
import pytest

from stuckwalk import analysis, linsys, mc, rubin
from stuckwalk.cli import parse_and_dispatch
from stuckwalk.errors import Infeasible
from stuckwalk.rng import derive_seed, keyed_uniform
from stuckwalk.spectrum import Params, alpha_threshold


def _announce(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def interval_alphas(L, n):
    lo = alpha_threshold(L + 1)
    hi = alpha_threshold(L) if L > 1 else 5.0
    return np.linspace(lo, hi, n + 2)[1:-1]


# --------------------------------------------------------------------- 1


def test_criterion_1_linear_system_identities(capsys):
    t0 = time.perf_counter()
    dev_cd, sym, d01, margin = linsys.identity_sweep(
        (L, float(alpha)) for L in range(1, 9)
        for alpha in interval_alphas(L, 20))
    margin_ok = margin > 1e-9
    dt = time.perf_counter() - t0
    ok = dev_cd < 1e-10 and sym < 1e-12 and d01 < 1e-12 and margin_ok \
        and dt < 5.0
    _announce(capsys, 1, "linear-system identities", ok,
              f"(closed-vs-direct {dev_cd:.2e}, symmetry {sym:.2e}, "
              f"d0+dK1 {d01:.2e}, sign margins {'ok' if margin_ok else 'BAD'}, "
              f"{dt:.1f}s)")


# --------------------------------------------------------------------- 2


def test_criterion_2_affine_constants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    c_ok = True
    resid = 0.0
    for L in range(1, 9):
        for alpha in interval_alphas(L, 20):
            alpha = float(alpha)
            base = linsys.solve_affine(L, alpha, [0.0] * L)
            c_ok &= all(c > 0 for c in base.c)
    for L in range(1, 9):
        alphas = interval_alphas(L, 20)
        for _ in range(100):
            alpha = float(rng.choice(alphas))
            d_in = rng.uniform(-0.5, 0.5, size=L)
            base = linsys.solve_affine(L, alpha, [0.0] * L)
            sol = linsys.solve_affine(L, alpha, d_in)
            c_ok &= all(c > 0 for c in sol.c)
            pred_dL1 = -base.d0 - sum(c * d for c, d in zip(sol.c, d_in))
            pred_d0 = base.d0 - sum(sol.c[L - k] * d_in[k - 1]
                                    for k in range(1, L + 1))
            resid = max(resid, abs(sol.dL1 - pred_dL1),
                        abs(sol.d0 - pred_d0))
    dt = time.perf_counter() - t0
    ok = c_ok and resid < 1e-9 and dt < 5.0
    _announce(capsys, 2, "affine constants c_k", ok,
              f"(all c_k > 0: {c_ok}, reconstruction residual {resid:.2e}, "
              f"{dt:.1f}s)")


# --------------------------------------------------------------------- 3


def test_criterion_3_c_oracle_and_gap_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    oracle_ok = gap_ok = True
    feasible_instances = 0
    spot_ok = (abs(linsys.c_oracle(1, 2.0) - 0.5) < 1e-10
               and abs(linsys.c_oracle(2, 2.0) - 0.5) < 1e-10)
    for L in range(1, 6):
        for alpha in interval_alphas(L, 10):
            alpha = float(alpha)
            for K in range(L, L + 7):
                try:
                    c = linsys.c_oracle(K, alpha)
                except Infeasible:
                    continue
                feasible_instances += 1
                oracle_ok &= c > 0.0
                x0, v = linsys.solution_family(K, alpha)
                for t in rng.uniform(-0.5, 0.5, size=100):
                    sol = linsys.family_point(K, alpha, float(t))
                    # stream_gap raises IdentityError beyond 1e-10 and
                    # checks gap <= -c_oracle + 1e-9 on nonnegative sols
                    gap = linsys.stream_gap(K, alpha, sol)
                    if all(val >= 0 for val in sol.l[1:]):
                        gap_ok &= gap <= -c + 1e-9
    dt = time.perf_counter() - t0
    ok = spot_ok and oracle_ok and gap_ok and feasible_instances > 100 \
        and dt < 10.0
    _announce(capsys, 3, "c oracle positivity and gap identity", ok,
              f"({feasible_instances} feasible instances, spot values "
              f"{'ok' if spot_ok else 'BAD'}, {dt:.1f}s)")


# --------------------------------------------------------------------- 4


def test_criterion_4_rubin_equivalence(capsys):
    t0 = time.perf_counter()
    results = {}
    all_ok = True
    for alpha, beta in ((2.0, 0.5), (2.0, 1.0), (0.8, 1.0)):
        params = Params.make(alpha, beta)
        passing = 0
        for s in range(10):
            rep = rubin.equivalence_report(
                params, horizon=6, runs=100000,
                seed=derive_seed(868686, s))
            passing += rubin.equivalence_pass(rep)
        results[(alpha, beta)] = passing
        all_ok &= passing >= 9
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 60.0
    _announce(capsys, 4, "embedded-walk law equals discrete law", ok,
              f"(seeds passing per (alpha,beta): {results}, {dt:.1f}s)")


# --------------------------------------------------------------------- 5


def test_criterion_5_monotone_coupling(capsys):
    t0 = time.perf_counter()
    compared, violations = rubin.coupling_sweep(
        ((keyed_uniform(505050, 1, i), keyed_uniform(505050, 2, i),
          derive_seed(707070, i)) for i in range(1000)),
        jumps=500, params=Params.make(2.0, 1.0))
    dt = time.perf_counter() - t0
    ok = violations == 0 and compared > 0 and dt < 60.0
    _announce(capsys, 5, "monotone coupling inequalities", ok,
              f"({compared} matched crossings, {violations} violations, "
              f"{dt:.1f}s)")


# --------------------------------------------------------------------- 6/7/8


def _batch_records(alpha, beta, runs, steps, master, checkpoints):
    params = Params.make(alpha, beta)
    records = []
    for i in range(runs):
        summary, traj = mc.run_one(params, steps, derive_seed(master, i),
                                   "direct", 0.5, stops=checkpoints)
        ranges = [(s.lo, s.hi) for s in traj.stops_at(sorted(checkpoints))]
        records.append((summary, ranges))
    return params, records


@pytest.fixture(scope="module")
def alpha2_batch():
    return _batch_records(2.0, 1.0, runs=200, steps=100000,
                          master=424242, checkpoints=(10000, 100000))


@pytest.fixture(scope="module")
def alpha08_batch():
    return _batch_records(0.8, 1.0, runs=200, steps=300000,
                          master=434343, checkpoints=(10000, 300000))


def test_criterion_6_three_site_localization(capsys, alpha2_batch):
    t0 = time.perf_counter()
    params, records = alpha2_batch
    n = len(records)
    size3 = [s for s, _ in records if s.localized and s.size == 3]
    frac = len(size3) / n
    ci = analysis.wilson_interval(len(size3), n)
    close = sum(1 for s in size3 if s.deviation <= 0.03)
    frac_close = close / len(size3) if size3 else 0.0
    dt = time.perf_counter() - t0
    ok = frac >= 0.95 and frac_close >= 0.90
    _announce(capsys, 6, "3-site localization at alpha=2", ok,
              f"(frac size=3: {frac:.3f}, Wilson CI [{ci[0]:.3f}, {ci[1]:.3f}], "
              f"profile within 0.03: {frac_close:.3f})")


def test_criterion_7_L2_localization(capsys, alpha08_batch):
    params, records = alpha08_batch
    n = len(records)
    in_theory = [s for s, _ in records if s.localized and s.size in (4, 5)]
    frac = len(in_theory) / n
    ci = analysis.wilson_interval(len(in_theory), n)
    size4 = [s for s, _ in records if s.localized and s.size == 4]
    close = sum(1 for s in size4 if s.deviation <= 0.05)
    frac_close = close / len(size4) if size4 else 0.0
    ok = frac >= 0.90 and frac_close >= 0.90
    _announce(capsys, 7, "L+2/L+3 localization at alpha=0.8", ok,
              f"(frac size in (4,5): {frac:.3f}, Wilson CI "
              f"[{ci[0]:.3f}, {ci[1]:.3f}], size-4 profile within 0.05: "
              f"{frac_close:.3f})")


def test_criterion_8_finite_range_and_stream_decay(capsys, alpha2_batch):
    params, records = alpha2_batch
    n = len(records)
    frozen = sum(1 for _, ranges in records if ranges[0] == ranges[1])
    frac_frozen = frozen / n
    localized = [s for s, _ in records if s.localized]
    decayed = sum(1 for s in localized
                  if all(v < 0.05 for v in s.stream_rate.values()))
    frac_decayed = decayed / len(localized) if localized else 0.0
    ok = frac_frozen >= 0.99 and frac_decayed >= 0.95
    _announce(capsys, 8, "finite range and stream decay", ok,
              f"(range frozen 1e4->1e5: {frac_frozen:.3f}, interior "
              f"|stream|/k < 0.05: {frac_decayed:.3f})")


# --------------------------------------------------------------------- 9


def test_criterion_9_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    outs = []
    for i, workers in enumerate(("1", "8")):
        path = tmp_path / f"agg{i}.json"
        rc = parse_and_dispatch(
            ["batch", "--alpha", "2", "--beta", "1", "--steps", "5000",
             "--runs", "16", "--seed", "314159", "--workers", workers,
             "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    worker_invariant = outs[0] == outs[1]

    golden_ok = True
    for args in (
        ["thresholds", "--max-L", "8"],
        ["linsys", "--alpha", "2", "--K", "2"],
        ["simulate", "--alpha", "0.8", "--beta", "1", "--steps", "3000",
         "--seed", "27"],
    ):
        p1, p2 = tmp_path / "g1", tmp_path / "g2"
        assert parse_and_dispatch(args + ["--out", str(p1)]) == 0
        assert parse_and_dispatch(args + ["--out", str(p2)]) == 0
        golden_ok &= p1.read_bytes() == p2.read_bytes()
    dt = time.perf_counter() - t0
    ok = worker_invariant and golden_ok and dt < 60.0
    _announce(capsys, 9, "byte-identical deterministic outputs", ok,
              f"(workers 1 vs 8 identical: {worker_invariant}, golden files "
              f"stable: {golden_ok}, {dt:.1f}s)")
