import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

import eilab
from eilab import verifier


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


def _two_loop_points(grid, ctx):
    """``CandidateGrid.points`` as it was written with one dedupe loop for
    the generated points and another for the extras."""
    mp = ctx.mp
    eps = mp.mpf(grid.epsilon)
    seen = set()
    out = []
    for l in range(grid.l_max + 1):
        v = mp.exp(-l * eps)
        for cand in (v, -v):
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    for raw in grid.extra_points:
        cand = mp.mpf(raw)
        if abs(cand) > 1:
            continue
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    out.sort()
    return out


@st.composite
def _grid_with_extras(draw):
    """A small grid and extras that repeat its points, sit at +-1 or 0,
    lie outside [-1, 1], or are other decimals, some drawn twice."""
    epsilon = str(draw(st.decimals(min_value="0.001", max_value="2", places=3)))
    l_max = draw(st.integers(min_value=0, max_value=12))
    on_grid = st.tuples(st.sampled_from((-1, 1)), st.integers(min_value=0, max_value=l_max))
    decimal = st.decimals(min_value=-3, max_value=3, places=4).map(str)
    extras = draw(st.lists(st.one_of(on_grid, st.sampled_from(("1", "-1", "0", "1.0001", "-2")), decimal), max_size=8))
    if extras:
        extras += draw(st.lists(st.sampled_from(extras), max_size=4))
    return epsilon, l_max, draw(st.permutations(extras))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_grid_with_extras())
def test_grid_points_match_the_two_loop_dedupe(case):
    ctx = eilab.PrecisionContext(digits=60, guard_digits=20)
    mp = ctx.mp
    epsilon, l_max, extras = case
    # an on-grid extra is the generated point itself, as an mpf
    extras = tuple(e if isinstance(e, str) else e[0] * mp.exp(-e[1] * mp.mpf(epsilon)) for e in extras)
    grid = eilab.CandidateGrid(epsilon=epsilon, l_max=l_max, extra_points=extras)
    assert grid.points(ctx) == _two_loop_points(grid, ctx)


def _set_sorted_points(grid, ctx):
    """``CandidateGrid.points`` as it was written with a set and a full
    sort."""
    mp = ctx.mp
    eps = mp.mpf(grid.epsilon)
    out = set()
    for l in range(grid.l_max + 1):
        v = mp.exp(-l * eps)
        out.update((v, -v))
    out.update(c for c in (mp.mpf(raw) for raw in grid.extra_points) if abs(c) <= 1)
    return sorted(out)


@pytest.mark.parametrize(
    "epsilon, l_max, extras",
    [
        # the default grid, 20 002 points
        ("0.02", 10**4, ()),
        # at 60 + 20 digits e^(-l eps) steps down by one unit in the last
        # place every few l: runs of neighbouring values round equal
        ("2e-82", 200, ()),
        # extras on a grid value (+-e^(-2 eps) as the grid computes it, and
        # +-1), outside [-1, 1], and between grid points, one twice
        ("0.5", 6, ("1", "-1", (1, 2), (-1, 2), "1.5", "-2", "0.3", "-0.3", "0.3", "0.999")),
    ],
    ids=["default", "equal-neighbours", "extras"],
)
def test_grid_built_in_order_is_the_sorted_set(ctx60, epsilon, l_max, extras):
    mp = ctx60.mp
    extras = tuple(e if isinstance(e, str) else e[0] * mp.exp(-e[1] * mp.mpf(epsilon)) for e in extras)
    grid = eilab.CandidateGrid(epsilon=epsilon, l_max=l_max, extra_points=extras)
    points = grid.points(ctx60)
    assert points == _set_sorted_points(grid, ctx60)
    if epsilon == "2e-82":
        assert 2 < len(points) < 2 * (l_max + 1)


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


def test_expected_improvement_refuses_the_fit_of_another_design(ctx60, gauss_unit):
    # the fit of the design before x_2, or of the same points with another
    # value, would score x with moments of the wrong design
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    grown = eilab.add_point(state, "0.5", "-0.5")
    revalued = eilab.add_point(state, "0.5", "-0.25")
    for other in (state, revalued):
        with pytest.raises(eilab.EILabError, match="another design"):
            eilab.expected_improvement(grown, "0.3", eilab.FittedPosterior(other))
    # an equal design built apart is the same design
    same = eilab.add_point(eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1), "0.5", "-0.5")
    fresh = eilab.expected_improvement(grown, "0.3")
    assert eilab.expected_improvement(grown, "0.3", eilab.FittedPosterior(same)) == fresh


def test_argmax_empty_grid(ctx60, gauss_unit, argmax_ei):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 1, -1)
    state = eilab.add_point(state, -1, -1)
    with pytest.raises(eilab.EmptyGrid):
        argmax_ei(state, eilab.CandidateGrid(l_max=0))


def test_closed_form_matches_integral_oracle(ctx60):
    reports = eilab.ei_oracle_trials(ctx60, seed=2, trials=20)
    assert all(r.satisfied for r in reports)


def test_ei_oracle_sees_a_relative_error_at_any_scale(ctx60, monkeypatch):
    # A closed form off by 10^-13 relative is refused in every state, also
    # where EI lies far below the working roundoff (6 of these 20 states,
    # down to about 1e-95381800), so the agreement measure has no floor.
    real = verifier.expected_improvement
    shift = 1 + ctx60.tol(-13)

    def perturbed(state, x):
        evaluation = real(state, x)
        return dataclasses.replace(evaluation, ei=evaluation.ei * shift)

    monkeypatch.setattr(verifier, "expected_improvement", perturbed)
    reports = eilab.ei_oracle_trials(ctx60, seed=0, trials=20)
    assert len(reports) == 20
    assert not any(r.satisfied for r in reports)


def test_zero_mean_gap_case(ctx60, gauss_unit):
    # with the observed value equal to the incumbent best, the posterior mean
    # at any x keeps m = f* scaled by the correlation only when f* = 0; then
    # EI reduces to sigma / sqrt(2 pi)
    mp = ctx60.mp
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, 0)
    x = mp.mpf("0.4")
    ev = eilab.expected_improvement(state, x)
    sigma = mp.sqrt(eilab.FittedPosterior(state).moments(x).variance)
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


def test_shorter_run_is_the_prefix_of_a_longer_one(ctx60, gauss_unit, run_prefix):
    # The default_run fixture is taken from the extended run this way.
    grid = eilab.CandidateGrid(l_max=600)
    short = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 5, grid, ctx60)
    long = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 29, grid, ctx60)
    assert len(long.records) > 6
    assert short == run_prefix(long, 5)
    assert [t.size for t in short.timings] == [t.size for t in long.timings[:5]]


def test_default_run_eis_meet_the_precision_contract(default_run, ctx300, gauss_unit):
    """Every EI of the default run agrees to relative 10^-(digits/2) with the
    EI rebuilt at 1200 digits from the run's own working-precision inputs:
    the Gram entries, the chosen point's covariance column, G(0) and the
    observed values.  Only the posterior solves, the mean, the variance and
    the closed form run at the higher precision."""
    ctx = ctx300
    hp = MPContext()
    hp.dps = 1200
    cov = lambda d: hp.mpf(eilab.covariance(gauss_unit, d, ctx))
    pts, vals = default_run.state.points, default_run.state.values
    bound = hp.mpf(10) ** -(ctx.digits // 2)
    for k, record in enumerate(default_run.records[1:], start=1):
        gram = hp.matrix([[cov(p - q) for q in pts[:k]] for p in pts[:k]])
        g = hp.matrix([cov(record.point - p) for p in pts[:k]])
        mean = hp.fdot(g, hp.lu_solve(gram, hp.matrix([hp.mpf(v) for v in vals[:k]])))
        sigma = hp.sqrt(cov(0) - hp.fdot(g, hp.lu_solve(gram, g)))
        gap = hp.mpf(min(vals[:k])) - mean
        u = gap / sigma
        ei = gap * hp.erfc(-u / hp.sqrt(2)) / 2 + sigma * hp.exp(-u * u / 2) / hp.sqrt(2 * hp.pi)
        assert abs(hp.mpf(record.ei) - ei) <= bound * ei, k


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
