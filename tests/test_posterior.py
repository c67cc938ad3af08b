import random

import pytest

import eilab


def _state(ctx, kernel, points, values):
    mp = ctx.mp
    vs = [mp.mpf(v) for v in values]
    return eilab.TrajectoryState(
        kernel=kernel,
        ctx=ctx,
        points=tuple(mp.mpf(p) for p in points),
        values=tuple(vs),
        best=min(vs),
    )


def test_observed_point_is_exact(ctx60, gauss_unit):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    m = eilab.FittedPosterior(state).moments(0)
    assert m.mean == -1
    assert m.variance == 0


def test_single_point_variance_closed_form(ctx60, gauss_unit):
    mp = ctx60.mp
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    m = eilab.FittedPosterior(state).moments(1)
    expected = 1 - mp.exp(-2)
    assert abs(m.variance - expected) <= ctx60.tol(-(ctx60.digits - 5))
    assert abs(m.mean + mp.exp(-1)) <= ctx60.tol(-(ctx60.digits - 5))


def test_interpolates_negated_kernel(ctx60, gauss_unit):
    # objective f = -G: the posterior mean reproduces f everywhere
    mp = ctx60.mp
    cov = lambda x: eilab.covariance(gauss_unit, x, ctx60)
    pts = ["0", "-0.63", "0.77", "0.23"]
    state = _state(ctx60, gauss_unit, pts, [-cov(mp.mpf(p)) for p in pts])
    fitted = eilab.FittedPosterior(state)
    tol = ctx60.tol(-(ctx60.digits - 2 * ctx60.guard_digits))
    for x in ("-0.9", "-0.41", "0.05", "0.52", "0.98"):
        m = fitted.moments(x)
        assert abs(m.mean + cov(mp.mpf(x))) <= tol


def test_variance_positive_off_design(ctx60, gauss_unit):
    rng = random.Random(3)
    state = _state(ctx60, gauss_unit, ["-0.5", "0.1", "0.8"], ["-1", "0.2", "0.5"])
    fitted = eilab.FittedPosterior(state)
    for _ in range(20):
        x = ctx60.mpf(rng.uniform(-1, 1))
        if any(x == p for p in state.points):
            continue
        assert fitted.moments(x).variance > 0


def test_added_point_never_increases_variance(ctx60, gauss_unit):
    rng = random.Random(11)
    state = _state(ctx60, gauss_unit, ["-0.4", "0.3"], ["-0.5", "-0.2"])
    grown = eilab.add_point(state, "0.75", "-0.1")
    before = eilab.FittedPosterior(state)
    after = eilab.FittedPosterior(grown)
    slack = ctx60.tol(-(ctx60.digits // 2))
    for _ in range(20):
        x = ctx60.mpf(rng.uniform(-1, 1))
        assert after.moments(x).variance <= before.moments(x).variance + slack


def test_add_point_updates_best(ctx60, gauss_unit):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    grown = eilab.add_point(state, "0.5", "-0.3")
    assert grown.best == -1
    deeper = eilab.add_point(grown, "-0.5", "-2")
    assert deeper.best == -2
    assert deeper.size == 3


def test_add_point_rejects_duplicates(ctx60, gauss_unit):
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, -1)
    with pytest.raises(eilab.DuplicatePoint):
        eilab.add_point(state, 0, -1)


def test_degenerate_design_raises(ctx60, gauss_unit):
    mp = ctx60.mp
    state = eilab.TrajectoryState(
        kernel=gauss_unit,
        ctx=ctx60,
        points=(mp.mpf(0), mp.mpf("1e-40")),
        values=(mp.mpf(-1), mp.mpf(-1)),
        best=mp.mpf(-1),
    )
    with pytest.raises(eilab.NonPositivePivot):
        eilab.FittedPosterior(state)
    # the opt-in jitter pushes past the degeneracy and says so
    fitted = eilab.FittedPosterior(state, jitter=True)
    assert fitted.jitter_used
    assert fitted.moments("0.5").variance > 0


def test_extends_refuses_a_design_that_does_not_start_with_the_fit(ctx60, gauss_unit):
    fit = eilab.FittedPosterior(_state(ctx60, gauss_unit, ["0", "0.5"], ["-1", "-2"]))
    points = ["0", "0.5", "0.25"]
    # a replaced point, a shorter design and another kernel are refused
    for kernel, design in (
        (gauss_unit, ["0", "-0.5", "0.25"]),
        (gauss_unit, ["0"]),
        (eilab.GaussianKernel(a="0.5"), points),
    ):
        with pytest.raises(eilab.EILabError, match="leading design"):
            eilab.FittedPosterior(_state(ctx60, kernel, design, ["-1"] * len(design)), extends=fit)
    # so are another jitter and another precision, by the factor
    state = _state(ctx60, gauss_unit, points, ["-1", "-2", "-3"])
    with pytest.raises(eilab.DimensionMismatch):
        eilab.FittedPosterior(state, jitter=True, extends=fit)
    ctx61 = eilab.PrecisionContext(digits=61, guard_digits=20)
    with pytest.raises(eilab.DimensionMismatch):
        eilab.FittedPosterior(_state(ctx61, gauss_unit, points, ["-1", "-2", "-3"]), extends=fit)
    # an extension may observe new values; it is the fresh fit
    grown = eilab.FittedPosterior(state, extends=fit)
    assert grown.moments("0.1") == eilab.FittedPosterior(state).moments("0.1")


def test_state_invariants_enforced(ctx60, gauss_unit):
    mp = ctx60.mp
    with pytest.raises(eilab.DuplicatePoint):
        eilab.TrajectoryState(
            kernel=gauss_unit, ctx=ctx60,
            points=(mp.mpf(0), mp.mpf(0)),
            values=(mp.mpf(-1), mp.mpf(-1)),
            best=mp.mpf(-1),
        )
    with pytest.raises(eilab.EILabError):
        eilab.TrajectoryState(
            kernel=gauss_unit, ctx=ctx60,
            points=(mp.mpf(0),), values=(mp.mpf(-1),), best=mp.mpf(0),
        )
    with pytest.raises(eilab.EILabError):
        eilab.TrajectoryState(
            kernel=gauss_unit, ctx=ctx60, points=(), values=(), best=mp.mpf(0),
        )


def test_spectral_oracle_matches_gram_formula(ctx60):
    reports = eilab.posterior_oracle_trials(ctx60, seed=5, trials=10, max_k=5)
    assert all(r.satisfied for r in reports)


def test_spectral_oracle_quadratic_expansion(ctx60, gauss_unit):
    # expanding the squared modulus gives G0 - 2 lam.g + lam.G.lam; both
    # evaluation paths must agree
    mp = ctx60.mp
    state = _state(ctx60, gauss_unit, ["-0.6", "0.2", "0.7"], ["0", "0", "0"])
    x = mp.mpf("0.35")
    fitted = eilab.FittedPosterior(state)
    lam = fitted.weights(x)
    cov = lambda d: eilab.covariance(gauss_unit, d, ctx60)
    expansion = cov(0)
    for lk, pk in zip(lam, state.points):
        expansion -= 2 * lk * cov(x - pk)
    for i, (li, pi) in enumerate(zip(lam, state.points)):
        for lj, pj in zip(lam, state.points):
            expansion += li * lj * cov(pi - pj)
    oracle = eilab.variance_spectral_oracle(state, x, ctx60)
    direct = fitted.moments(x).variance
    tol = direct * ctx60.tol(-(ctx60.digits // 4))
    assert abs(oracle - direct) <= tol
    assert abs(expansion - direct) <= tol


def test_spectral_oracle_caps_design_size(ctx60, gauss_unit):
    pts = [str(x / 10) for x in range(-4, 5)]
    state = _state(ctx60, gauss_unit, pts, ["0"] * len(pts))
    assert state.size == 9
    with pytest.raises(eilab.EILabError):
        eilab.variance_spectral_oracle(state, "0.95", ctx60)


def test_ou_kernel_posterior(ctx60):
    # rough kernel: same formulas, no collapse pathologies
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    state = _state(ctx60, ou, ["-0.5", "0", "0.5"], ["-0.3", "-1", "-0.3"])
    fitted = eilab.FittedPosterior(state)
    m = fitted.moments("0.25")
    assert m.variance > 0
    assert fitted.condition < ctx60.mpf("1e6")
