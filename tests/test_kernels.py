import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

import eilab
from eilab import kernels as kernels_module
from eilab.kernels import covariance_column, profile_rate, resolve_param, spectral_power_law
from eilab.precision import raw_context
from eilab.quadrature import integrate, quadrature_context


def _log_scale_exponent(kernel, s, ctx):
    """T(s) = a e^{bs} - ln(gamma c0): the full density is exp(-T(ln|t|))."""
    mp = ctx.mp
    a, b, c0, gamma = (mp.mpf(v) for v in (kernel.a, kernel.b, kernel.c0, kernel.gamma))
    return a * mp.exp(b * mp.mpf(s)) - mp.log(gamma * c0)


def _ou_density(kernel, t, mp):
    """The Ornstein-Uhlenbeck density gamma theta / (pi (theta^2 + t^2)),
    which eilab refuses to serve: it decays only polynomially."""
    theta, gamma, t = mp.mpf(kernel.theta), mp.mpf(kernel.gamma), mp.mpf(t)
    return gamma * theta / (mp.pi * (theta * theta + t * t))


def _ou_covariance_by_quadrature(kernel, x, ctx):
    """2 * integral_0^inf of the Ornstein-Uhlenbeck density times cos(t x),
    in ``quadrature_context(ctx)`` and returned at working precision.  Off
    zero the slow polynomial decay needs ``quadosc``'s series acceleration
    over half-periods; at zero tanh-sinh converges."""
    qp = quadrature_context(ctx)
    xq = qp.mpf(ctx.mpf(x))
    f = lambda t: _ou_density(kernel, t, qp) * qp.cos(t * xq)
    if xq == 0:
        value = qp.quad(f, [0, qp.mpf(kernel.theta), qp.inf])
    else:
        value = qp.quadosc(f, [0, qp.inf], period=2 * qp.pi / abs(xq))
    return ctx.mpf(2 * value)


def test_headline_kernel_is_unit_gaussian(ctx60, gauss_unit):
    mp = ctx60.mp
    assert eilab.covariance(gauss_unit, 0, ctx60) == 1
    for x in ("0.3", "1", "-0.7"):
        v = eilab.covariance(gauss_unit, x, ctx60)
        expected = mp.exp(-mp.mpf(x) ** 2)
        assert abs(v - expected) <= ctx60.tol(-(ctx60.digits - 2))


def test_covariance_maximum_at_zero(ctx60, gauss_unit):
    kernels = [
        gauss_unit,
        eilab.SpectralPowerKernel(a="0.7", b="3"),
        eilab.OrnsteinUhlenbeckKernel(theta="1.5", gamma="2"),
    ]
    for kernel in kernels:
        g0 = eilab.covariance(kernel, 0, ctx60)
        for x in ("0.1", "0.5", "1.3", "2"):
            assert g0 >= eilab.covariance(kernel, x, ctx60)


def test_spectral_power_b2_closed_form(ctx60):
    mp = ctx60.mp
    kernel = eilab.SpectralPowerKernel(a="1", b="2", c0="1")
    v = eilab.covariance(kernel, 0, ctx60)
    assert abs(v - mp.sqrt(mp.pi)) <= ctx60.tol(-(ctx60.digits - 2))
    # quadrature of the density reproduces the closed form
    q = eilab.covariance_by_quadrature(kernel, 0, ctx60)
    assert abs(q - v) <= abs(v) * ctx60.tol(-(ctx60.digits // 2))


def test_general_b_covariance_consistency(ctx60):
    # For b != 2 the covariance is the quadrature of the density; spot-check
    # evenness and positivity at 0.
    kernel = eilab.SpectralPowerKernel(a="1", b="3")
    v = eilab.covariance(kernel, "0.4", ctx60)
    w = eilab.covariance(kernel, "-0.4", ctx60)
    assert v == w
    assert eilab.covariance(kernel, 0, ctx60) > 0
    assert eilab.covariance_by_quadrature(kernel, "0.4", ctx60) == v


def _closed_form(kernel, x, mp):
    """G(x) by the closed forms written as mpf expressions, each operation
    rounded at the working precision of ``mp`` in the order the column
    routine promises."""
    if isinstance(kernel, eilab.GaussianKernel):
        a, gamma = mp.mpf(kernel.a), mp.mpf(kernel.gamma)
        return gamma / (2 * mp.sqrt(mp.pi * a)) * mp.exp(-x * x / (4 * a))
    if isinstance(kernel, eilab.OrnsteinUhlenbeckKernel):
        theta, gamma = mp.mpf(kernel.theta), mp.mpf(kernel.gamma)
        return gamma * mp.exp(-theta * abs(x))
    a, c0, gamma = mp.mpf(kernel.a), mp.mpf(kernel.c0), mp.mpf(kernel.gamma)
    return gamma * c0 * mp.sqrt(mp.pi / a) * mp.exp(-x * x / (4 * a))


def _decimal(mantissa, exponent):
    return f"{mantissa}e{exponent}"


_PARAM = st.builds(_decimal, st.integers(min_value=1, max_value=10**40), st.integers(min_value=-42, max_value=-38))
_KERNEL = st.one_of(
    st.builds(lambda a, gamma: eilab.GaussianKernel(a=a, gamma=gamma), _PARAM, _PARAM),
    st.builds(lambda theta, gamma: eilab.OrnsteinUhlenbeckKernel(theta=theta, gamma=gamma), _PARAM, _PARAM),
    st.builds(lambda a, c0, gamma: eilab.SpectralPowerKernel(a=a, b="2", c0=c0, gamma=gamma), _PARAM, _PARAM, _PARAM),
)
# A point as a signed mantissa of up to 1100 bits times a power of two, so
# that the lag p - x0 of two points of unlike scales needs more bits than
# the working precision holds; 0 is one of them.
_POINT = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(min_value=-(2**1100), max_value=2**1100), st.integers(min_value=-1200, max_value=-1000)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_KERNEL, st.sampled_from([60, 300]), _POINT, st.lists(_POINT, min_size=1, max_size=6))
def test_covariance_column_is_the_covariance_at_each_lag(kernel, digits, origin, points):
    ctx = eilab.PrecisionContext(digits=digits, guard_digits=20)
    mp = ctx.mp
    prec = mp.prec
    x0 = mp.make_mpf(from_man_exp(*origin, prec, "n"))
    pts = [mp.make_mpf(from_man_exp(*p, prec, "n")) for p in points] + [x0, -x0]
    lags = [p - x0 for p in pts]
    column = covariance_column(kernel, x0, pts, ctx)
    at_zero = covariance_column(kernel, mp.zero, lags, ctx)
    assert len(column) == len(at_zero) == len(pts)
    for lag, value, direct in zip(lags, column, at_zero):
        assert direct == eilab.covariance(kernel, lag, ctx)._mpf_
        assert direct == _closed_form(kernel, lag, mp)._mpf_
        # the Gaussian column at x0 != 0 is separable, and held to its
        # accuracy bound in the test below
        if not x0 or isinstance(kernel, eilab.OrnsteinUhlenbeckKernel):
            assert value == direct


# a in [0.01, 4]
_A = st.integers(10**6, 4 * 10**8).map(lambda n: f"{n}e-8")
_SCALE = st.sampled_from(["1", "0.3", "7.25"])
_SMOOTH = st.one_of(
    st.builds(lambda a, gamma: eilab.GaussianKernel(a=a, gamma=gamma), _A, _SCALE),
    st.builds(lambda a, c0: eilab.SpectralPowerKernel(a=a, b="2", c0=c0), _A, _SCALE),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    _SMOOTH,
    st.sampled_from([60, 300]),
    st.sampled_from(["0.02", "0.3", "1.5"]),
    st.integers(min_value=0, max_value=8),
    st.one_of(st.just(None), st.integers(min_value=-(10**12), max_value=10**12)),
    st.integers(min_value=0),
)
def test_separable_gaussian_column_is_accurate(kernel, digits, epsilon, l_max, origin, drop):
    """Every entry of a Gaussian column at x0 in [-1, 1] lies within
    relative (8 + 4M) 2^-prec of G(p - x0) evaluated at twice the working
    precision, over the grid's mirror pairs and one point whose mirror has
    left the set; an entry has the bits it has alone; at x0 = 0 the column
    is the closed form bit for bit."""
    ctx = eilab.PrecisionContext(digits=digits, guard_digits=20)
    mp = ctx.mp
    hp = raw_context(2 * ctx.working_dps)
    pts = eilab.CandidateGrid(epsilon=epsilon, l_max=l_max).points(ctx)
    del pts[drop % len(pts)]
    # x0 in [-1, 1] (0 among them), or a point of the grid
    x0 = mp.mpf(origin) / 10**12 if origin is not None else pts[drop % len(pts)]
    column = covariance_column(kernel, x0, pts, ctx)
    unit = hp.mpf(2) ** -mp.prec
    for p, value in zip(pts, column):
        reference = _closed_form(kernel, hp.mpf(p) - hp.mpf(x0), hp)
        m = (abs(hp.mpf(p)) + abs(hp.mpf(x0))) ** 2 / (4 * hp.mpf(kernel.a))
        assert abs(hp.make_mpf(value) - reference) <= (8 + 4 * m) * unit * reference
        assert covariance_column(kernel, x0, [p], ctx) == [value]
    # a point that repeats, before or after its mirror, keeps its own bits
    assert covariance_column(kernel, x0, pts + pts[::-1], ctx) == column + column[::-1]
    at_zero = covariance_column(kernel, mp.zero, pts, ctx)
    assert at_zero == [_closed_form(kernel, p, mp)._mpf_ for p in pts]
    assert at_zero == [eilab.covariance(kernel, p, ctx)._mpf_ for p in pts]


@pytest.mark.parametrize("a", ["1e-12", "3e-40"])
def test_small_a_column_is_the_covariance_at_the_rounded_lag(ctx60, a):
    # M = (|p| + |x0|)^2 / 4a far above 10^(guard_digits / 2): each entry is
    # the closed form at p - x0, as the covariance evaluates it
    mp = ctx60.mp
    kernel = eilab.GaussianKernel(a=a)
    pts = eilab.CandidateGrid(epsilon="0.3", l_max=6).points(ctx60)
    for x0 in (mp.mpf("0.35"), mp.mpf("-0.7"), pts[3]):
        column = covariance_column(kernel, x0, pts, ctx60)
        assert column == [eilab.covariance(kernel, p - x0, ctx60)._mpf_ for p in pts]


def test_covariance_column_integrates_each_lag_for_b_other_than_2(ctx60):
    mp = ctx60.mp
    kernel = eilab.SpectralPowerKernel(a="1", b="3")
    x0, p = mp.mpf("0.1"), mp.mpf("0.5")
    (value,) = covariance_column(kernel, x0, [p], ctx60)
    assert value == eilab.covariance_by_quadrature(kernel, p - x0, ctx60)._mpf_
    assert value == eilab.covariance(kernel, p - x0, ctx60)._mpf_


def test_spectral_density_examples(ctx60):
    mp = ctx60.mp
    assert eilab.spectral_density(eilab.SpectralPowerKernel(a="1", b="2"), 0, ctx60.mp) == 1
    v = _ou_density(eilab.OrnsteinUhlenbeckKernel(theta="1"), 0, mp)
    assert abs(v - 1 / mp.pi) <= ctx60.tol(-(ctx60.digits - 2))


def test_density_even_and_positive(ctx60, gauss_unit):
    ou = eilab.OrnsteinUhlenbeckKernel(theta="2")
    for density in (
        lambda t: eilab.spectral_density(gauss_unit, t, ctx60.mp),
        lambda t: eilab.spectral_density(eilab.SpectralPowerKernel(a="0.5", b="2.5"), t, ctx60.mp),
        lambda t: _ou_density(ou, t, ctx60.mp),
    ):
        for t in ("0.2", "1", "7"):
            plus = density(t)
            minus = density("-" + t)
            assert plus == minus
            assert plus > 0


@pytest.mark.parametrize("dps", [60, 320])
@pytest.mark.parametrize("a, gamma", [("0.25", "sqrt_pi"), ("0.3", "1.7")])
def test_gaussian_density_value(dps, a, gamma):
    """The Gaussian density is gamma exp(-a t^2) / (2 pi), checked against
    that expression evaluated 20 digits higher."""
    mp, ref = raw_context(dps), raw_context(dps + 20)
    kernel = eilab.GaussianKernel(a=a, gamma=gamma)
    ra, rgamma = resolve_param(a, ref), resolve_param(gamma, ref)
    for t in ("0", "0.5", "3.7", "12.25", "40"):
        value = eilab.spectral_density(kernel, t, mp)
        rt = ref.mpf(t)
        expected = rgamma * ref.exp(-ra * rt * rt) / (2 * ref.pi)
        assert abs(ref.mpf(value) - expected) <= expected * ref.mpf(10) ** -(dps - 2)


@pytest.mark.parametrize("x", ["0", "0.3", "1"])
def test_fourier_pair_consistency(ctx60, gauss_unit, x):
    tol = ctx60.tol(-(ctx60.digits // 4))
    for kernel, by_quadrature in (
        (gauss_unit, eilab.covariance_by_quadrature),
        (eilab.SpectralPowerKernel(a="0.25", b="2", c0="0.28"), eilab.covariance_by_quadrature),
        (eilab.OrnsteinUhlenbeckKernel(theta="1"), _ou_covariance_by_quadrature),
    ):
        direct = eilab.covariance(kernel, x, ctx60)
        quad = by_quadrature(kernel, x, ctx60)
        assert abs(direct - quad) <= abs(direct) * tol


def test_exponent_profile_rejects_other_variants(ctx60):
    with pytest.raises(eilab.VariantUnsupported):
        eilab.legendre_conjugate(eilab.OrnsteinUhlenbeckKernel(), 5, ctx60)


def test_shallow_spectral_decay_rejected():
    with pytest.raises(eilab.VariantUnsupported):
        eilab.SpectralPowerKernel(a="1", b="1")
    with pytest.raises(eilab.VariantUnsupported):
        eilab.SpectralPowerKernel(a="1", b="0.9")


def test_legendre_conjugate_hand_case(ctx60):
    profile = eilab.legendre_conjugate(eilab.SpectralPowerKernel(a="1", b="2"), 2, ctx60)
    assert profile.s_star == 0
    assert abs(profile.value + 1) <= ctx60.tol(-(ctx60.digits - 5))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=1.2, max_value=4.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=1.0, max_value=80.0),
)
def test_legendre_duality(a, b, s, q):
    ctx = eilab.PrecisionContext(digits=60)
    kernel = eilab.SpectralPowerKernel(a=a, b=b)
    conj = eilab.legendre_conjugate(kernel, q, ctx).value
    t_s = _log_scale_exponent(kernel, s, ctx)
    mp = ctx.mp
    assert t_s + conj >= mp.mpf(q) * mp.mpf(s) - ctx.tol(-(ctx.digits // 2))


def test_legendre_equality_at_maximizer(ctx60):
    mp = ctx60.mp
    kernel = eilab.SpectralPowerKernel(a="0.8", b="2.3", c0="0.6")
    for q in (3, 11, 41):
        profile = eilab.legendre_conjugate(kernel, q, ctx60)
        t_s = _log_scale_exponent(kernel, profile.s_star, ctx60)
        gap = t_s + profile.value - q * profile.s_star
        assert abs(gap) <= ctx60.tol(-(ctx60.digits // 2))


def _golden_section_conjugate(kernel, q, ctx):
    """T*(q) by a plain golden-section search: a slow reference for the
    cross-check's Brent search.  Same brackets and search precision, but the
    bracket shrinks only linearly (x0.618 per evaluation), down to
    10**-(0.55 digits + 10)."""
    width_digits = int(ctx.digits * 0.55) + 10
    sp = mpmath.MPContext()
    sp.dps = width_digits + ctx.guard_digits
    q, a, b, c0, gamma = (sp.mpf(v) for v in (q, kernel.a, kernel.b, kernel.c0, kernel.gamma))
    log_amp = sp.log(gamma * c0)
    phi = lambda s: q * s - (a * sp.exp(b * s) - log_amp)
    hi = sp.mpf(1)
    while phi(hi) >= phi(hi - 1):
        hi *= 2
    lo = sp.mpf(-1)
    while phi(lo) >= phi(lo + 1):
        lo *= 2
    inv = (sp.sqrt(5) - 1) / 2
    lo, hi = lo - 1, hi + 1
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = phi(c), phi(d)
    for _ in range(int(sp.ceil(width_digits * sp.log(10) / -sp.log(inv))) + 4):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = phi(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = phi(c)
    return phi((lo + hi) / 2)


def test_closed_form_matches_numeric_maximization(ctx60):
    # The Brent value is held against the closed form and against the
    # golden-section reference, each to relative 10^-(digits/2).
    mp = ctx60.mp
    tol = ctx60.tol(-(ctx60.digits // 2))
    rng = random.Random(7)
    for _ in range(20):
        kernel = eilab.SpectralPowerKernel(
            a=rng.uniform(0.2, 2.0), b=rng.uniform(1.3, 3.5), c0=rng.uniform(0.3, 2.0)
        )
        q = rng.uniform(2.0, 120.0)
        profile = eilab.legendre_conjugate(kernel, q, ctx60)
        scale = max(abs(profile.value), mp.mpf(1))
        assert abs(profile.value - profile.numeric_value) <= tol * scale
        reference = mp.mpf(_golden_section_conjugate(kernel, q, ctx60))
        assert abs(reference - profile.numeric_value) <= tol * scale


def test_legendre_search_takes_at_most_60_evaluations(ctx300, gauss_unit, monkeypatch):
    # Each phi evaluation takes one exp in the search context; the golden
    # section search this replaced took about 850 per call at 300 digits.
    # No exp argument repeats within a call: the bracketing loops revisit
    # phi(0) and phi(+-1), and each is computed once.
    kernels = (gauss_unit, eilab.SpectralPowerKernel(a="0.3", b="2.5", c0="0.7"))
    real = kernels_module.raw_context
    calls = []

    class CountingExp:
        def __init__(self, mp):
            self._mp = mp

        def __getattr__(self, name):
            return getattr(self._mp, name)

        def exp(self, x):
            calls[-1].append(x)
            return self._mp.exp(x)

    monkeypatch.setattr(kernels_module, "raw_context", lambda dps: CountingExp(real(dps)))
    for kernel in kernels:
        for q in range(5, 52):
            calls.append([])
            eilab.legendre_conjugate(kernel, q, ctx300)
    assert 0 < max(len(args) for args in calls) <= 60, calls
    assert all(len(set(args)) == len(args) for args in calls)


def test_rate_function_value(ctx60):
    f10 = eilab.rate_function(eilab.SpectralPowerKernel(a="1", b="2"), 10, ctx60)
    assert abs(f10 - ctx60.mpf("-34.16484675")) < ctx60.mpf("1e-7")


def test_rate_function_amplitude_shift(ctx60):
    mp = ctx60.mp
    base = eilab.rate_function(eilab.SpectralPowerKernel(a="1", b="2", c0="1"), 10, ctx60)
    scaled = eilab.rate_function(eilab.SpectralPowerKernel(a="1", b="2", c0="0.5"), 10, ctx60)
    assert abs(scaled - (base + mp.log(mp.mpf("0.5")))) <= ctx60.tol(-(ctx60.digits - 10))


def test_rate_per_step_diverges(ctx60):
    kernel = eilab.SpectralPowerKernel(a="1", b="2")
    f10 = eilab.rate_function(kernel, 10, ctx60)
    f100 = eilab.rate_function(kernel, 100, ctx60)
    assert f10 / 10 < 0
    assert f100 / 100 < f10 / 10


def test_rate_monotone_decrease_tail(ctx60):
    kernel = eilab.SpectralPowerKernel(a="1", b="2")
    values = [eilab.rate_function(kernel, k, ctx60) for k in range(2, 61)]
    diffs_ok = [values[i + 1] < values[i] for i in range(len(values) - 1)]
    # find the first K after which the decrease never breaks, then insist it
    # holds through the rest of the scan
    first_bad = max((i for i, ok in enumerate(diffs_ok) if not ok), default=-1)
    assert first_bad < 5, "rate function should decrease from small K on"


def test_rate_function_requires_k_at_least_two(ctx60):
    with pytest.raises(eilab.EILabError):
        eilab.rate_function(eilab.SpectralPowerKernel(a="1", b="2"), 1, ctx60)


def test_profile_rate_is_the_rate_of_its_profile(ctx60):
    kernel = eilab.SpectralPowerKernel(a="1", b="2")
    profile = eilab.legendre_conjugate(kernel, 21, ctx60)
    assert profile_rate(profile, 10, ctx60) == eilab.rate_function(kernel, 10, ctx60)
    with pytest.raises(eilab.EILabError):
        profile_rate(profile, 9, ctx60)


def _gaussian_as_spectral_power(kernel, ctx):
    """The Gaussian's density gamma exp(-a t^2) / (2 pi) as a spectral-power
    kernel: b = 2, c0 = gamma / (2 pi) and gamma = 1, resolved at the
    context's working precision and stored exactly."""
    mp = ctx.mp
    a = resolve_param(kernel.a, mp)
    amplitude = resolve_param(kernel.gamma, mp) / (2 * mp.pi)
    return eilab.SpectralPowerKernel(a=a, b=2, c0=amplitude, gamma=1)


def test_gaussian_spectral_equivalent(ctx60, ctx300, gauss_unit):
    # The Legendre machinery reads the Gaussian's power law directly; its
    # profiles are bit for bit those of the equivalent spectral-power kernel.
    for ctx in (ctx60, ctx300):
        for gauss in (gauss_unit, eilab.GaussianKernel(a="0.4", gamma="1.7")):
            spectral = _gaussian_as_spectral_power(gauss, ctx)
            for q in range(5, 52):
                direct = eilab.legendre_conjugate(gauss, q, ctx)
                converted = eilab.legendre_conjugate(spectral, q, ctx)
                assert direct.s_star == converted.s_star, (ctx.digits, gauss, q)
                assert direct.value == converted.value, (ctx.digits, gauss, q)
                assert direct.numeric_value == converted.numeric_value, (ctx.digits, gauss, q)
    mp = ctx60.mp
    spectral = _gaussian_as_spectral_power(gauss_unit, ctx60)
    # same covariance both ways
    for x in ("0", "0.4", "1.2"):
        a = eilab.covariance(gauss_unit, x, ctx60)
        b = eilab.covariance(spectral, x, ctx60)
        assert abs(a - b) <= abs(a) * ctx60.tol(-(ctx60.digits - 5))
    # the amplitude is 1/(2 sqrt(pi)) for the unit-Gaussian normalization
    _, b, amplitude = spectral_power_law(gauss_unit, ctx60.mp)
    assert b == 2
    assert abs(amplitude - 1 / (2 * mp.sqrt(mp.pi))) <= ctx60.tol(-(ctx60.digits - 5))
    with pytest.raises(eilab.VariantUnsupported):
        spectral_power_law(eilab.OrnsteinUhlenbeckKernel(), ctx60.mp)


def test_invalid_parameters_rejected():
    with pytest.raises(eilab.EILabError):
        eilab.GaussianKernel(a="-1")
    with pytest.raises(eilab.EILabError):
        eilab.OrnsteinUhlenbeckKernel(theta="0")
    with pytest.raises(eilab.EILabError):
        eilab.GaussianKernel(a="bogus")


def _clear_kernel_caches():
    for value in vars(kernels_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_parameters_resolved_inside_a_quadrature_are_not_served_after_it():
    # mp.quad raises the precision of the shared context it runs in by 20
    # bits; the 100-digit quadrature context is the 50-digit working context
    kernel = eilab.GaussianKernel(a="0.3", gamma="sqrt_pi")
    ctx = eilab.PrecisionContext(digits=50, guard_digits=20)
    wide = eilab.PrecisionContext(digits=100, guard_digits=20)
    assert quadrature_context(wide) is ctx.mp
    _clear_kernel_caches()
    before = eilab.covariance(kernel, "0.3", ctx)
    _clear_kernel_caches()
    integrate(wide, lambda t: eilab.spectral_density(kernel, t, ctx.mp), [0, 1])
    after = eilab.covariance(kernel, "0.3", ctx)
    assert after._mpf_ == before._mpf_
