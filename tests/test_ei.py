import pytest

import eilab


def test_grid_generation(ctx60):
    grid = eilab.CandidateGrid(epsilon="0.5", l_max=3, extra_points=("0.123", "2"))
    pts = grid.points(ctx60)
    mp = ctx60.mp
    expected = set()
    for l in range(4):
        expected.add(mp.exp(-l * mp.mpf("0.5")))
        expected.add(-mp.exp(-l * mp.mpf("0.5")))
    expected.add(mp.mpf("0.123"))  # the out-of-range extra point is dropped
    assert set(pts) == expected
    assert pts == sorted(pts)
    assert all(abs(p) <= 1 for p in pts)


def test_grid_deduplicates(ctx60):
    grid = eilab.CandidateGrid(epsilon="0.5", l_max=2, extra_points=("1",))
    pts = grid.points(ctx60)
    assert len(pts) == len(set(pts))


def test_ei_zero_at_design_points(ctx60, gauss_unit):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    ev = eilab.expected_improvement(state, 0)
    assert ev.ei == 0


def test_first_step_matches_reference_row(ctx60, gauss_unit, argmax_ei):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    best = argmax_ei(state, eilab.CandidateGrid(l_max=400))
    assert abs(abs(best.point) - ctx60.mpf("0.63")) < ctx60.mpf("0.01")
    assert abs(best.ei - ctx60.mpf("0.16")) < ctx60.mpf("0.01")
    # the symmetric tie resolves to the negative sign
    assert best.point < 0


def test_argmax_single_candidate(ctx60, gauss_unit, argmax_ei):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    grid = eilab.CandidateGrid(l_max=0, extra_points=("0.5",))
    # grid = {1, -1, 0.5}; all are valid candidates
    best = argmax_ei(state, grid)
    assert best.ei >= 0


def test_argmax_is_exhaustive_maximum(ctx60, gauss_unit, argmax_ei):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    grid = eilab.CandidateGrid(l_max=50)
    best = argmax_ei(state, grid)
    fitted = eilab.FittedPosterior(state)
    for c in grid.points(ctx60):
        if any(c == p for p in state.points):
            continue
        assert eilab.expected_improvement(state, c, fitted).ei <= best.ei


def test_argmax_empty_grid(ctx60, gauss_unit, argmax_ei):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 1, -1)
    state = eilab.add_point(state, -1, -1)
    with pytest.raises(eilab.EmptyGrid):
        argmax_ei(state, eilab.CandidateGrid(l_max=0))


def test_closed_form_matches_integral_oracle(ctx60):
    reports = eilab.ei_oracle_trials(ctx60, seed=2, trials=20, max_k=6)
    assert all(r.satisfied for r in reports)


def test_zero_mean_gap_case(ctx60, gauss_unit):
    # with the observed value equal to the incumbent best, the posterior mean
    # at any x keeps m = f* scaled by the correlation only when f* = 0; then
    # EI reduces to sigma / sqrt(2 pi)
    mp = ctx60.mp
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, 0)
    x = mp.mpf("0.4")
    ev = eilab.expected_improvement(state, x)
    sigma = mp.sqrt(ev.moments.variance)
    expected = sigma / mp.sqrt(2 * mp.pi)
    assert abs(ev.ei - expected) <= expected * ctx60.tol(-(ctx60.digits // 2))
    oracle = eilab.ei_integral_oracle(state, x, ctx60)
    assert abs(oracle - expected) <= expected * ctx60.tol(-(ctx60.digits // 4))


def test_tail_bracketing_at_sample_heights(ctx60):
    reports = eilab.tail_integral_check(["0", "1", "5", "20"], ctx60)
    assert all(r.satisfied for r in reports)


def test_oracle_requires_positive_variance(ctx60, gauss_unit):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    with pytest.raises(eilab.EILabError):
        eilab.ei_integral_oracle(state, 0, ctx60)


def test_scale_equivariance_of_first_step(ctx60, argmax_ei):
    # The exact scaling law: covariance scale gamma together with
    # observations scaled by sqrt(gamma) multiplies EI by sqrt(gamma) and
    # leaves the argmax unchanged.  (Scaling the kernel alone reshapes the
    # EI landscape: the mean is scale-invariant while sigma grows, so even
    # the winning candidate may move; see the companion test below.)
    base = eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")
    mp = ctx60.mp
    scaled = eilab.GaussianKernel(a="0.25", gamma=4 * mp.sqrt(mp.pi))
    grid = eilab.CandidateGrid(l_max=300)
    s1 = eilab.TrajectoryState.start(base, ctx60, 0, -1)
    s2 = eilab.TrajectoryState.start(scaled, ctx60, 0, -2)
    b1 = argmax_ei(s1, grid)
    b2 = argmax_ei(s2, grid)
    assert b1.point == b2.point
    assert abs(b2.ei - 2 * b1.ei) <= b2.ei * ctx60.tol(-(ctx60.digits // 2))


def test_kernel_scale_alone_reshapes_ranking(ctx60, argmax_ei):
    # with observations held fixed, quadrupling the covariance scale changes
    # the EI values and can move the maximizer outward
    base = eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")
    mp = ctx60.mp
    scaled = eilab.GaussianKernel(a="0.25", gamma=4 * mp.sqrt(mp.pi))
    grid = eilab.CandidateGrid(l_max=300)
    s1 = eilab.TrajectoryState.start(base, ctx60, 0, -1)
    s2 = eilab.TrajectoryState.start(scaled, ctx60, 0, -1)
    b1 = argmax_ei(s1, grid)
    b2 = argmax_ei(s2, grid)
    assert b1.ei != b2.ei
    assert abs(b2.point) > abs(b1.point)


def test_run_trajectory_one_step(ctx60, gauss_unit):
    run = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 1, eilab.CandidateGrid(l_max=400), ctx60)
    assert run.state.size == 2
    assert not run.aborted
    assert abs(abs(run.state.points[1]) - ctx60.mpf("0.63")) < ctx60.mpf("0.01")


def test_run_trajectory_rejects_bad_input(ctx60, gauss_unit):
    grid = eilab.CandidateGrid(l_max=10)
    with pytest.raises(eilab.EILabError):
        eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 0, grid, ctx60)
    with pytest.raises(eilab.UnknownObjective):
        eilab.run_trajectory(gauss_unit, "nope", 0, 1, grid, ctx60)
    with pytest.raises(eilab.EILabError):
        eilab.run_trajectory(gauss_unit, "neg_kernel", 2, 1, grid, ctx60)


def test_small_run_collapses_super_exponentially(small_run, ctx60):
    pts = small_run.state.points
    assert not small_run.aborted
    # once the collapse sets in, |x_{K+1}| < |x_K|^2
    mags = [abs(p) for p in pts]
    assert mags[5] < mags[4] ** 2
    assert mags[6] < mags[5] ** 2
    # EI column decreases along the run
    eis = [rec.ei for rec in small_run.records[1:]]
    assert all(a > b for a, b in zip(eis, eis[1:]))


def test_objective_registry(ctx60, gauss_unit):
    mp = ctx60.mp
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    g = eilab.objective_function("neg_gauss", gauss_unit, ctx60)
    # for the headline kernel both objectives coincide
    for x in ("0", "0.3", "0.9"):
        assert abs(f(mp.mpf(x)) - g(mp.mpf(x))) <= ctx60.tol(-(ctx60.digits - 2))
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    f_ou = eilab.objective_function("neg_kernel", ou, ctx60)
    g_ou = eilab.objective_function("neg_gauss", ou, ctx60)
    assert f_ou(mp.mpf("0.5")) != g_ou(mp.mpf("0.5"))
