"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete.  Empirical regression baselines (the 50-digit abort size, the
sandwich threshold, the extended-run abort size) were established by the
first verified run of this implementation and are frozen below; everything
is deterministic given (config, seed), so they are stable.
"""

import random

import eilab

# Reference trajectory table: K, |x_K|, EI at selection time.  Values are
# printed at two significant digits (the source table mixes rounding and
# truncation, e.g. 7.3e-6 for a true 7.356e-6), so agreement is asserted to
# one unit in the second significant digit.
REFERENCE_TABLE = [
    (2, "0.63", "0.16"),
    (3, "0.77", "0.13"),
    (4, "0.23", "0.025"),
    (5, "0.1", "0.0013"),
    (6, "0.0036", "3.4e-06"),
    (7, "7.3e-06", "1.4e-11"),
    (8, "2.8e-11", "2.2e-22"),
    (9, "4.1e-22", "4.5e-44"),
    (10, "7.9e-44", "1.7e-87"),
]

# Frozen regression baselines (first verified run).
D50_ABORT_SIZE = 9
SWEEP_THRESHOLD = 2
EXTENDED_ABORT_SIZE = 11


def _matches_two_sig(mp, value, reference):
    ref = mp.mpf(reference)
    ulp = mp.power(10, mp.floor(mp.log10(ref)) - 1)
    return abs(value - ref) <= ulp


def test_acceptance_01_table_reproduction(default_run, ctx300):
    mp = ctx300.mp
    assert not default_run.aborted
    assert default_run.state.size == 10
    for k, x_ref, ei_ref in REFERENCE_TABLE:
        x = default_run.state.points[k - 1]
        ei = default_run.records[k - 1].ei
        assert _matches_two_sig(mp, abs(x), x_ref), f"x at K={k}: {ctx300.to_str(x, 8)}"
        assert _matches_two_sig(mp, ei, ei_ref), f"EI at K={k}: {ctx300.to_str(ei, 8)}"
    print("\nACCEPTANCE 1 PASS: default run reproduces the reference table "
          "(|x_K| and EI to 2 significant digits, K=2..10)")


def test_acceptance_02_ei_oracle_equivalence(ctx300):
    reports = eilab.ei_oracle_trials(ctx300, seed=0, trials=20, max_k=6)
    assert len(reports) == 20
    tol = ctx300.mpf("1e-20")
    for r in reports:
        assert r.satisfied          # internal tolerance 1e-75
        assert r.ratio <= tol       # criterion tolerance
    worst = max(r.ratio for r in reports)
    print(f"ACCEPTANCE 2 PASS: closed-form EI vs quadrature oracle, 20 states, "
          f"worst relative gap {ctx300.to_str(worst, 3)} <= 1e-20")


def test_acceptance_03_posterior_oracle_equivalence(ctx300):
    reports = eilab.posterior_oracle_trials(ctx300, seed=0, trials=10, max_k=5)
    assert len(reports) == 10
    tol = ctx300.mpf("1e-20")
    for r in reports:
        assert r.satisfied
        assert r.ratio <= tol
    worst = max(r.ratio for r in reports)
    print(f"ACCEPTANCE 3 PASS: Gram variance vs spectral quadrature, 10 designs, "
          f"worst relative gap {ctx300.to_str(worst, 3)} <= 1e-20")


def test_acceptance_04_vandermonde_lemma(ctx300):
    reports = eilab.vandermonde_trials(ctx300, seed=0, trials=50, max_k=8)
    assert len(reports) == 50
    tol = ctx300.mpf("1e-100")
    for r in reports:
        assert r.satisfied          # internal tolerance 1e-150
        assert r.ratio <= tol
    worst = max(r.ratio for r in reports)
    print(f"ACCEPTANCE 4 PASS: symmetric-function distance vs Gram oracle, "
          f"50 unit-circle configs, worst relative gap {ctx300.to_str(worst, 3)} <= 1e-100")


def test_acceptance_05_exact_interpolant(default_run, ctx300, gauss_unit):
    mp = ctx300.mp
    probes = [mp.mpf(-1) + mp.mpf(2) * j / 51 for j in range(1, 51)]
    bound = ctx300.mpf("1e-270")
    worst = mp.mpf(0)
    for k in range(1, 11):
        state = eilab.TrajectoryState(
            kernel=gauss_unit,
            ctx=ctx300,
            points=default_run.state.points[:k],
            values=default_run.state.values[:k],
            best=min(default_run.state.values[:k]),
        )
        fitted = eilab.FittedPosterior(state)
        for x in probes:
            dev = abs(fitted.moments(x).mean + eilab.covariance(gauss_unit, x, ctx300))
            worst = max(worst, dev)
            assert dev <= bound
    print(f"ACCEPTANCE 5 PASS: posterior mean interpolates -G exactly, "
          f"worst |mean + G| = {ctx300.to_str(worst, 3)} <= 1e-270 over 50 probes, K<=10")


def test_acceptance_06_trajectory_envelope(default_run, ctx300, gauss_unit):
    reports = eilab.trajectory_envelope_check(default_run.state.points, gauss_unit, ctx300)
    by_k = {}
    for r in reports:
        by_k.setdefault(r.k, []).append(r)
    below = {k: all(r.satisfied for r in rs) for k, rs in by_k.items() if k < 4}
    for k in range(4, 10):
        for r in by_k[k]:
            assert r.satisfied, f"{r.label} fails at K={k}"
    print(f"ACCEPTANCE 6 PASS: ln|x_K+1| within [2^K F(K), F(K)/3] for K=4..9 "
          f"(below threshold, reported not asserted: {below})")


def test_acceptance_07_sandwich_sweep(ctx300):
    results = {}
    for seed in (0, 1):
        sweep = eilab.sandwich_sweep(ctx300, seed=seed, trials=20, k_min=2, k_max=25)
        results[seed] = sweep
        assert sweep.threshold == SWEEP_THRESHOLD
        for trial in sweep.trials:
            assert trial["first_k"] <= SWEEP_THRESHOLD
    assert results[0].threshold == results[1].threshold
    print(f"ACCEPTANCE 7 PASS: sandwich bounds hold for all K >= {SWEEP_THRESHOLD} "
          f"in 20 random configs, threshold stable across seeds 0 and 1")


def test_acceptance_08_decay_scan(ctx300, gauss_unit):
    mp = ctx300.mp
    scan = eilab.decay_scan(gauss_unit, ctx300, k_min=6, k_max=14)
    assert scan.slope <= -mp.log(4)
    errs = dict(scan.errors)
    assert errs[14] < errs[6]
    print(f"ACCEPTANCE 8 PASS: approximation error log-slope "
          f"{ctx300.to_str(scan.slope, 6)} <= -ln 4 over K=6..14 "
          "(variance vanishes at a non-limit point)")


def test_acceptance_09_rate_function_analytics(ctx300):
    mp = ctx300.mp
    rng = random.Random(0)
    tol = ctx300.mpf("1e-100")
    for _ in range(20):
        kernel = eilab.SpectralPowerKernel(
            a=rng.uniform(0.2, 2.0), b=rng.uniform(1.3, 3.5), c0=rng.uniform(0.3, 2.0)
        )
        k = rng.randint(2, 80)
        profile = eilab.legendre_conjugate(kernel, 2 * k + 1, ctx300)
        rel = abs(profile.value - profile.numeric_value) / max(abs(profile.value), mp.mpf(1))
        assert rel <= tol
    kernel = eilab.SpectralPowerKernel(a="1", b="2")
    per_step = [eilab.rate_function(kernel, k, ctx300) / k for k in range(10, 201)]
    assert all(b < a for a, b in zip(per_step, per_step[1:]))
    print("ACCEPTANCE 9 PASS: conjugate closed form matches independent "
          "maximization to 1e-100 (20 draws); F(K)/K strictly decreasing on K=10..200")


def test_acceptance_10_consistency_contrast(ou_coverage_run, extended_run, ctx60, ctx300):
    def max_gap(pts):
        ordered = sorted(pts)
        return max(b - a for a, b in zip(ordered, ordered[1:]))

    ou_pts = ou_coverage_run.state.points
    assert not ou_coverage_run.aborted
    assert len(ou_pts) == 30
    ou_gap10 = max_gap(ou_pts[:10])
    ou_gap30 = max_gap(ou_pts[:30])
    assert ou_gap30 < ou_gap10

    g_pts = extended_run.state.points
    assert extended_run.aborted_at == EXTENDED_ABORT_SIZE
    assert len(g_pts) >= 10
    g_gap10 = max_gap(g_pts[:10])
    g_gap_final = max_gap(g_pts)
    assert g_gap_final == g_gap10

    print(f"ACCEPTANCE 10 PASS: rough-kernel gap shrinks "
          f"({ctx60.to_str(ou_gap10, 4)} -> {ctx60.to_str(ou_gap30, 4)}); "
          f"analytic-kernel gap frozen at {ctx300.to_str(g_gap10, 4)} and the run "
          f"aborts from ill-conditioning at design size {extended_run.aborted_at}")


def test_acceptance_11_precision_exhaustion(gauss_unit):
    ctx50 = eilab.PrecisionContext(digits=50, guard_digits=20)
    grid = eilab.CandidateGrid()
    first = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 9, grid, ctx50)
    second = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 9, grid, ctx50)
    assert first.aborted_at == D50_ABORT_SIZE
    assert first.aborted_at < 10
    assert "NonPositivePivot" in first.abort_reason
    assert second.aborted_at == first.aborted_at
    assert [ctx50.to_str(p) for p in first.state.points] == [
        ctx50.to_str(p) for p in second.state.points
    ]
    print(f"ACCEPTANCE 11 PASS: 50-digit run aborts at design size "
          f"{first.aborted_at} (< 10), identically across re-runs")


def test_condition_growth_regression(default_run, ctx300):
    # conditioning of the design Gram matrix after 8 points exceeds 1e30
    # (diagnostic regression, not a criterion; the exact value is recorded
    # in run reports rather than asserted)
    cond_k8 = default_run.records[8].condition
    assert cond_k8 > ctx300.mpf("1e30")
