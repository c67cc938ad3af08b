"""The oracles run at the precision their contracts need, and still deliver it.

Quadrature oracles integrate in ``quadrature.quadrature_context`` (digits//2
plus guard digits, plus the digits their integrand cancels), the Legendre
cross-check's Brent search runs at 0.55 digits + 10 + guard, and the
sandwich sweep grows one fit per trial.  These tests pin each of those
precisions, hold the lowered oracles against references computed at the
full working precision (or above) on the acceptance seeds, and check that
the lowered quadrature still refuses an integral it cannot resolve to
digits/2.  The trapezoidal rule that the Gaussian variance oracle takes is
held against closed forms and the Parseval expansion on the collapse
designs, and must refuse an even integrand that is not analytic.
"""

import random

import mpmath
import pytest

import eilab
from eilab import ei, kernels, posterior, verifier
from eilab.quadrature import integrate, quadrature_context

H_VALUES = ("0", "2", "20")


def _spy_integrate(monkeypatch, module, seen):
    """Replace ``module.integrate`` by a wrapper recording, per integrand
    call, the precision of its argument and of its value."""
    real = module.integrate

    def spy(ctx, f, points, **kwargs):
        def traced(t):
            value = f(t)
            seen.append((t.context.dps, value.context.dps))
            return value

        return real(ctx, traced, points, **kwargs)

    monkeypatch.setattr(module, "integrate", spy)


def _lowered_dps(ctx):
    return ctx.digits // 2 + ctx.guard_digits


def _ran_at(seen, dps):
    """Every integrand call saw ``dps`` digits, plus the few guard bits that
    mpmath's quadrature adds to its context while it runs."""
    return bool(seen) and all(dps <= d < dps + 10 for pair in seen for d in pair)


def _state(ctx, kernel, points, values):
    mp = ctx.mp
    vals = tuple(mp.mpf(v) for v in values)
    return eilab.TrajectoryState(
        kernel=kernel, ctx=ctx, points=tuple(mp.mpf(p) for p in points), values=vals, best=min(vals)
    )


# -- precision actually used --------------------------------------------------


def test_ei_oracle_integrand_runs_at_the_lowered_precision(ctx300, gauss_unit, monkeypatch):
    seen = []
    _spy_integrate(monkeypatch, ei, seen)
    state = _state(ctx300, gauss_unit, ["-0.4", "0.3"], ["-0.5", "-0.9"])
    eilab.ei_integral_oracle(state, "0.05", ctx300)
    assert _ran_at(seen, _lowered_dps(ctx300))


def test_tail_quadrature_integrand_runs_at_the_lowered_precision(ctx60, monkeypatch):
    seen = []
    _spy_integrate(monkeypatch, ei, seen)
    eilab.tail_integral_check(list(H_VALUES), ctx60)
    assert _ran_at(seen, _lowered_dps(ctx60))
    assert _lowered_dps(ctx60) < ctx60.working_dps


def test_variance_oracle_integrand_adds_only_its_cancellation_digits(ctx300, gauss_unit, monkeypatch):
    seen = []
    _spy_integrate(monkeypatch, posterior, seen)
    state = _state(ctx300, gauss_unit, ["-0.6", "0.2", "0.7"], ["0", "0", "0"])
    x = "0.35"
    eilab.variance_spectral_oracle(state, x, ctx300)
    fitted = eilab.FittedPosterior(state)
    mp = ctx300.mp
    lam_scale = 1 + sum(abs(lk) for lk in fitted.weights(x))
    g0 = eilab.covariance(gauss_unit, 0, ctx300)
    cancel = int(mp.ceil(mp.log10(lam_scale**2 * g0 / fitted.moments(x).variance)))
    assert cancel > 0
    dps = _lowered_dps(ctx300) + cancel
    assert dps < ctx300.working_dps
    assert _ran_at(seen, dps)


def test_covariance_quadrature_keeps_the_working_precision(ctx60, monkeypatch):
    seen = []
    _spy_integrate(monkeypatch, kernels, seen)
    eilab.covariance_by_quadrature(eilab.SpectralPowerKernel(a="1", b="3"), "0.4", ctx60)
    assert _ran_at(seen, ctx60.working_dps)


def test_ou_spectral_routines_refused_before_any_quadrature(ctx60, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("integrated before refusing")

    monkeypatch.setattr(kernels, "integrate", forbidden)
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    for refused in (
        lambda: eilab.covariance_by_quadrature(ou, "1", ctx60),
        lambda: eilab.spectral_density(ou, "0.5", ctx60.mp),
        lambda: kernels.spectral_breakpoints(ou, ctx60, ctx60.working_dps),
    ):
        with pytest.raises(eilab.VariantUnsupported):
            refused()


def test_legendre_search_runs_at_its_bracket_precision(ctx300, monkeypatch):
    seen = []
    real = kernels._brent_max

    def spy(mp, phi, lo, hi):
        seen.append((mp.dps, lo.context.dps))
        return real(mp, phi, lo, hi)

    monkeypatch.setattr(kernels, "_brent_max", spy)
    profile = eilab.legendre_conjugate(eilab.SpectralPowerKernel(a="0.3", b="2.5", c0="0.7"), 11, ctx300)
    dps = int(0.55 * ctx300.digits) + 10 + ctx300.guard_digits
    assert seen == [(dps, dps)]
    # The reported values are working-precision reals.
    assert profile.numeric_value.context is ctx300.mp
    assert profile.value.context is ctx300.mp


def test_lowered_quadrature_still_refuses_what_it_cannot_resolve(ctx60):
    # (e^t + 10^40) - 10^40 loses 40 digits: at the lowered 50 digits the
    # integrand is noise at 1e-10, far above the digits/2 line, while with
    # those 40 digits named as cancellation the same integral converges.
    mp = ctx60.mp
    for extra in (0, 40):
        lp = quadrature_context(ctx60, extra)
        big = lp.mpf(10) ** 40
        f = lambda t: (lp.exp(t) + big) - big
        if extra == 0:
            with pytest.raises(eilab.QuadratureNotConverged):
                integrate(ctx60, f, [0, 1], extra_digits=extra)
        else:
            value = integrate(ctx60, f, [0, 1], extra_digits=extra)
            assert value.context is mp
            assert abs(value - (mp.e - 1)) <= ctx60.tol(-(ctx60.digits // 2))


def test_ou_variance_oracle_refused_before_any_fit_or_quadrature(ctx60, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle fitted or integrated before refusing")

    monkeypatch.setattr(posterior, "FittedPosterior", forbidden)
    monkeypatch.setattr(posterior, "integrate", forbidden)
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    state = _state(ctx60, ou, ["-0.5", "0.1", "0.7"], ["0", "0", "0"])
    with pytest.raises(eilab.VariantUnsupported):
        eilab.variance_spectral_oracle(state, "0.3", ctx60)


def _cancellation_digits(state, x, ctx):
    """The digits the variance oracle's integrand cancels at ``x``:
    log10(lam_scale^2 G(0) / variance), rounded up."""
    fitted = eilab.FittedPosterior(state)
    lam_scale = 1 + sum(abs(lk) for lk in fitted.weights(x))
    g0 = eilab.covariance(state.kernel, 0, ctx)
    return int(ctx.mp.ceil(ctx.mp.log10(lam_scale**2 * g0 / fitted.moments(x).variance)))


@pytest.mark.parametrize("b", ["3", "1.5"])
def test_variance_oracle_off_b_2_stays_on_tanh_sinh(ctx60, b, monkeypatch):
    # |t|^b is not analytic at 0, so no trapezoid step is named: the oracle
    # keeps tanh-sinh at the lowered precision plus its cancellation digits.
    steps, seen = [], []
    real = posterior.integrate

    def step_spy(*args, **kwargs):
        steps.append(kwargs.get("step"))
        return real(*args, **kwargs)

    monkeypatch.setattr(posterior, "integrate", step_spy)
    _spy_integrate(monkeypatch, posterior, seen)
    kernel = eilab.SpectralPowerKernel(a="1", b=b)
    state = _state(ctx60, kernel, ["-0.3", "0.4"], ["0", "0"])
    oracle = eilab.variance_spectral_oracle(state, "0.1", ctx60)
    variance = eilab.FittedPosterior(state).moments("0.1").variance
    assert steps == [None]
    assert _ran_at(seen, _lowered_dps(ctx60) + _cancellation_digits(state, "0.1", ctx60))
    assert abs(oracle - variance) <= variance * ctx60.tol(-(ctx60.digits // 4))


def _trapezoid_step(a, dps, width, mp):
    """The step ``variance_spectral_oracle`` names for a density
    exp(-a t^2) and frequencies up to ``width``."""
    return mp.pi / (width + mp.sqrt(a * (dps + 10) * mp.ln10))


def test_trapezoid_rule_on_known_integrals(ctx60):
    mp = quadrature_context(ctx60)
    end = mp.sqrt((2 * ctx60.digits + ctx60.guard_digits) * mp.ln10)
    for nu in (0, 3, 7):
        step = _trapezoid_step(1, mp.dps, nu, mp)
        value = integrate(ctx60, lambda t: mp.exp(-t * t) * mp.cos(nu * t), [0, end], step=step)
        exact = ctx60.mp.sqrt(ctx60.mp.pi) * ctx60.mp.exp(-ctx60.mp.mpf(nu) ** 2 / 4) / 2
        assert _agrees(value, exact, ctx60.digits), nu
    # Even but not analytic at 0: the halving exposes the slow convergence.
    with pytest.raises(eilab.QuadratureNotConverged):
        integrate(ctx60, lambda t: mp.exp(-abs(t) ** 3), [0, end], step=_trapezoid_step(1, mp.dps, 0, mp))


def test_variance_oracle_on_the_collapse_designs(ctx300, default_run):
    # Prefixes K = 2..7 of the 300-digit collapse run, queried at the run's
    # next point and at 0.3, against the Parseval expansion at twice the
    # working digits.  At K = 7 the variance at x_8 is 7.7e-21 and the
    # integrand cancels at least 20 digits.
    ctx = ctx300
    wide = eilab.PrecisionContext(digits=2 * ctx.digits, guard_digits=ctx.guard_digits)
    points = default_run.state.points
    kernel = default_run.state.kernel
    cov = lambda d: eilab.covariance(kernel, d, wide)
    for k in range(2, 8):
        state = _state(ctx, kernel, points[:k], [0] * k)
        for query in (points[k], ctx.mpf("0.3")):
            oracle = eilab.variance_spectral_oracle(state, query, ctx)
            lam = eilab.FittedPosterior(state).weights(query)
            reference = cov(0) - 2 * sum(lk * cov(query - pk) for lk, pk in zip(lam, state.points))
            reference += sum(li * lj * cov(pi - pj) for li, pi in zip(lam, state.points) for lj, pj in zip(lam, state.points))
            assert _agrees(oracle, reference, ctx.digits), (k, query)
    assert _cancellation_digits(state, points[7], ctx) >= 20


# -- agreement with full-precision references on the acceptance seeds ---------


def _tail_reference(h, dps):
    """I(h) = integral_0^inf w exp(-(w+h)^2/2) dw in plain mpmath at ``dps``
    digits, from e^{-h^2/2} - h sqrt(pi/2) erfc(h/sqrt 2); the extra digits
    cover the 1/h^2 cancellation of the two terms."""
    with mpmath.workdps(dps + 40):
        h = mpmath.mpf(h)
        return mpmath.exp(-h * h / 2) - h * mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(h / mpmath.sqrt(2))


def _agrees(value, reference, digits):
    """|value - reference| <= |reference| 10^-(digits/2), judged exactly."""
    with mpmath.workdps(2 * digits + 100):
        value, reference = mpmath.mpf(value), mpmath.mpf(reference)
        return abs(value - reference) <= abs(reference) * mpmath.mpf(10) ** (-(digits // 2))


def test_tail_quadrature_matches_full_precision_reference(ctx300):
    for h in H_VALUES:
        value = ei.improvement_tail_quadrature(ctx300, ctx300.mpf(h))
        assert value.context is ctx300.mp
        assert _agrees(value, _tail_reference(h, ctx300.working_dps), ctx300.digits), h


def test_ei_oracle_matches_full_precision_reference_on_seed_0(ctx300):
    # The states of ei_oracle_trials(seed=0, trials=20), drawn in the same order.
    ctx = ctx300
    mp = ctx.mp
    rng = random.Random(0)
    for _ in range(20):
        kernel, pts, query = verifier._random_design(rng, 6)
        values = [mp.mpf(rng.uniform(-1.2, 0.2)) for _ in pts]
        state = _state(ctx, kernel, pts, values)
        oracle = eilab.ei_integral_oracle(state, query, ctx)
        moments = eilab.FittedPosterior(state).moments(query)
        sigma = mp.sqrt(moments.variance)
        h = (moments.mean - state.best) / sigma
        with mpmath.workdps(ctx.working_dps + 40):
            s, hh = mpmath.mpf(sigma), mpmath.mpf(h)
            reference = s / mpmath.sqrt(2 * mpmath.pi) * _tail_reference(hh, ctx.working_dps)
        assert _agrees(oracle, reference, ctx.digits), query


def test_variance_oracle_matches_full_precision_reference_on_seed_0(ctx300):
    # The designs of posterior_oracle_trials(seed=0, trials=10).
    # For the weights lambda the oracle uses, its integral equals
    # G(0) - 2 lambda.g + lambda^T G lambda exactly (Parseval); that
    # expansion is evaluated at twice the working digits.
    ctx = ctx300
    wide = eilab.PrecisionContext(digits=2 * ctx.digits, guard_digits=ctx.guard_digits)
    rng = random.Random(0)
    for _ in range(10):
        kernel, pts, query = verifier._random_design(rng, 5)
        state = _state(ctx, kernel, pts, [0] * len(pts))
        oracle = eilab.variance_spectral_oracle(state, query, ctx)
        x = ctx.mpf(query)
        lam = eilab.FittedPosterior(state).weights(x)
        cov = lambda d: eilab.covariance(kernel, d, wide)
        reference = cov(0)
        for lk, pk in zip(lam, state.points):
            reference -= 2 * lk * cov(x - pk)
        for li, pi in zip(lam, state.points):
            for lj, pj in zip(lam, state.points):
                reference += li * lj * cov(pi - pj)
        assert _agrees(oracle, reference, ctx.digits), query


def test_grown_sandwich_fits_match_fresh_fits_bit_for_bit(ctx300, monkeypatch):
    grown = []
    real = verifier.FittedPosterior

    def spy(state, **kwargs):
        grown.append(kwargs.get("extends") is not None)
        return real(state, **kwargs)

    monkeypatch.setattr(verifier, "FittedPosterior", spy)
    sweep = eilab.sandwich_sweep(ctx300, seed=0, trials=1, k_min=2, k_max=25)
    monkeypatch.setattr(verifier, "FittedPosterior", real)
    assert grown == [False] + [True] * 23
    # The draws of sandwich_sweep(seed=0): kernel, then x and the nodes.
    rng = random.Random(0)
    kernel = eilab.SpectralPowerKernel(a=rng.uniform(0.15, 0.6), b=2, c0=rng.uniform(0.3, 1.2))
    raw = verifier._distinct_uniform(rng, 26, min_gap=1e-3)
    x, nodes = raw[0], raw[1:]
    for k in range(2, 26):
        fresh = eilab.variance_sandwich_check(kernel, x, nodes[:k], ctx300)
        swept = sweep.reports[2 * (k - 2): 2 * (k - 1)]
        for a, b in zip(swept, fresh):
            assert (a.label, a.k, a.satisfied, a.context) == (b.label, b.k, b.satisfied, b.context)
            assert a.ratio._mpf_ == b.ratio._mpf_
