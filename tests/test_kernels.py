import random

import pytest
from hypothesis import given, settings, strategies as st

import eilab
from eilab import kernels as kernels_module
from eilab.kernels import profile_rate, spectral_power_form
from eilab.quadrature import integrate, quadrature_context


def _log_scale_exponent(kernel, s, ctx):
    """T(s) = a e^{bs} - ln(gamma c0): the full density is exp(-T(ln|t|))."""
    mp = ctx.mp
    a, b, c0, gamma = (mp.mpf(v) for v in (kernel.a, kernel.b, kernel.c0, kernel.gamma))
    return a * mp.exp(b * mp.mpf(s)) - mp.log(gamma * c0)


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


def test_spectral_density_examples(ctx60):
    mp = ctx60.mp
    assert eilab.spectral_density(eilab.SpectralPowerKernel(a="1", b="2"), 0, ctx60) == 1
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    v = eilab.spectral_density(ou, 0, ctx60)
    assert abs(v - 1 / mp.pi) <= ctx60.tol(-(ctx60.digits - 2))


def test_density_even_and_positive(ctx60, gauss_unit):
    for kernel in (
        gauss_unit,
        eilab.SpectralPowerKernel(a="0.5", b="2.5"),
        eilab.OrnsteinUhlenbeckKernel(theta="2"),
    ):
        for t in ("0.2", "1", "7"):
            plus = eilab.spectral_density(kernel, t, ctx60)
            minus = eilab.spectral_density(kernel, "-" + t, ctx60)
            assert plus == minus
            assert plus > 0


@pytest.mark.parametrize("x", ["0", "0.3", "1"])
def test_fourier_pair_consistency(ctx60, gauss_unit, x):
    tol = ctx60.tol(-(ctx60.digits // 4))
    for kernel in (
        gauss_unit,
        eilab.SpectralPowerKernel(a="0.25", b="2", c0="0.28"),
        eilab.OrnsteinUhlenbeckKernel(theta="1"),
    ):
        direct = eilab.covariance(kernel, x, ctx60)
        quad = eilab.covariance_by_quadrature(kernel, x, ctx60)
        assert abs(direct - quad) <= abs(direct) * tol


def test_exponent_profile_rejects_other_variants(ctx60, gauss_unit):
    with pytest.raises(eilab.VariantUnsupported):
        eilab.legendre_conjugate(gauss_unit, 5, ctx60)
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


def test_closed_form_matches_numeric_maximization(ctx60):
    rng = random.Random(7)
    for _ in range(20):
        kernel = eilab.SpectralPowerKernel(
            a=rng.uniform(0.2, 2.0), b=rng.uniform(1.3, 3.5), c0=rng.uniform(0.3, 2.0)
        )
        q = rng.uniform(2.0, 120.0)
        profile = eilab.legendre_conjugate(kernel, q, ctx60)
        rel = abs(profile.value - profile.numeric_value) / max(abs(profile.value), ctx60.mpf(1))
        assert rel <= ctx60.tol(-(ctx60.digits // 2))


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


def test_gaussian_spectral_equivalent(ctx60, gauss_unit):
    mp = ctx60.mp
    spectral = spectral_power_form(gauss_unit, ctx60)
    assert spectral.b == 2
    # same covariance both ways
    for x in ("0", "0.4", "1.2"):
        a = eilab.covariance(gauss_unit, x, ctx60)
        b = eilab.covariance(spectral, x, ctx60)
        assert abs(a - b) <= abs(a) * ctx60.tol(-(ctx60.digits - 5))
    # the amplitude is 1/(2 sqrt(pi)) for the unit-Gaussian normalization
    assert abs(spectral.c0 - 1 / (2 * mp.sqrt(mp.pi))) <= ctx60.tol(-(ctx60.digits - 5))


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
