"""Stationary covariance kernels and their spectral machinery.

Three variants are supported, all even, strictly positive definite, and
scaled by an overall covariance factor gamma > 0:

* ``GaussianKernel(a)``:  G(x) = gamma / (2 sqrt(pi a)) * exp(-x^2 / (4a)),
  with spectral density gamma * exp(-a t^2) / (2 pi).
* ``SpectralPowerKernel(a, b, c0)``: defined through its spectral density
  gamma * c0 * exp(-a |t|^b) with b > 1 strictly; the covariance is the
  Fourier integral of the density (closed form when b = 2, high-precision
  quadrature otherwise).
* ``OrnsteinUhlenbeckKernel(theta)``:  G(x) = gamma * exp(-theta |x|), the
  rough contrast case with polynomially decaying density
  gamma * theta / (pi (theta^2 + t^2)).

The Fourier convention throughout is G(x) = integral of Ghat(t) e^{itx} dt.

Kernel parameters are stored either as decimal strings (or the named
constant ``sqrt_pi``), which resolve at whatever working precision a context
asks for, or as exact mpf values produced internally.  Kernels are immutable
values and safe to share across threads.

The spectral-power family also carries the Legendre-transform machinery used
by the conditional-variance analysis: writing the full density as
``exp(-S(|t|))`` with S(t) = a t^b - ln(gamma c0), and T(s) = S(e^s), the
convex conjugate T*(q) = max_s (q s - T(s)) yields the collapse rate
function F(K) = T*(2K+1) - (2K+1) ln K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

from mpmath.ctx_mp import MPContext

from .errors import EILabError, MaximizationDiverged, VariantUnsupported
from .precision import PrecisionContext, raw_context
from .quadrature import integrate

_NAMED_CONSTANTS = {
    "sqrt_pi": lambda mp: mp.sqrt(mp.pi),
}


def resolve_param(value, mp):
    """Resolve a kernel parameter to a working-precision real.

    Accepts decimal strings, the named constant ``sqrt_pi``, python ints,
    and mpf values (which convert exactly at any precision).
    """
    if isinstance(value, str):
        fn = _NAMED_CONSTANTS.get(value)
        if fn is not None:
            return fn(mp)
        try:
            return mp.mpf(value)
        except ValueError:
            raise EILabError(f"cannot parse kernel parameter {value!r}")
    return mp.mpf(value)


def _positive(name, value):
    check = raw_context(30)
    v = resolve_param(value, check)
    if not v > 0:
        raise EILabError(f"kernel parameter {name} must be positive, got {value!r}")


@dataclass(frozen=True)
class GaussianKernel:
    a: Union[str, object] = "0.25"
    gamma: Union[str, object] = "1"

    def __post_init__(self):
        _positive("a", self.a)
        _positive("gamma", self.gamma)

    variant = "gaussian"


@dataclass(frozen=True)
class SpectralPowerKernel:
    a: Union[str, object]
    b: Union[str, object]
    c0: Union[str, object] = "1"
    gamma: Union[str, object] = "1"

    def __post_init__(self):
        _positive("a", self.a)
        _positive("c0", self.c0)
        _positive("gamma", self.gamma)
        check = raw_context(30)
        if not resolve_param(self.b, check) > 1:
            raise VariantUnsupported(
                f"spectral-power kernel requires b > 1 strictly, got {self.b!r}"
            )

    variant = "spectral"


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel:
    theta: Union[str, object] = "1"
    gamma: Union[str, object] = "1"

    def __post_init__(self):
        _positive("theta", self.theta)
        _positive("gamma", self.gamma)

    variant = "ou"


KernelSpec = Union[GaussianKernel, SpectralPowerKernel, OrnsteinUhlenbeckKernel]

def _params(kernel: KernelSpec, mp):
    return _resolved_params(kernel, mp, mp.prec)


# Resolved numeric parameters per (kernel, mpmath context, its precision now):
# ``mp.quad`` raises the precision of the shared context it runs in, and
# parameters first resolved there must not be served after it returns.  The
# bound matters because the randomized verifier trials build a new kernel
# per trial.
@functools.lru_cache(maxsize=256)
def _resolved_params(kernel: KernelSpec, mp, prec):
    if isinstance(kernel, GaussianKernel):
        a = resolve_param(kernel.a, mp)
        gamma = resolve_param(kernel.gamma, mp)
        pref = gamma / (2 * mp.sqrt(mp.pi * a))
        return (a, gamma, pref, 4 * a)
    if isinstance(kernel, SpectralPowerKernel):
        a = resolve_param(kernel.a, mp)
        b = resolve_param(kernel.b, mp)
        c0 = resolve_param(kernel.c0, mp)
        gamma = resolve_param(kernel.gamma, mp)
        return (a, b, c0, gamma)
    theta = resolve_param(kernel.theta, mp)
    gamma = resolve_param(kernel.gamma, mp)
    return (theta, gamma)


def _power_law(kernel, mp):
    """(a, b, amplitude) of a Gaussian or spectral-power density, which is
    amplitude * exp(-a |t|^b) in both cases."""
    if isinstance(kernel, GaussianKernel):
        a, gamma, _, _ = _params(kernel, mp)
        return a, mp.mpf(2), gamma / (2 * mp.pi)
    a, b, c0, gamma = _params(kernel, mp)
    return a, b, gamma * c0


def spectral_power_form(kernel: KernelSpec, ctx: PrecisionContext) -> SpectralPowerKernel:
    """The kernel as a member of the spectral-power family, which the
    Legendre and rate-function machinery needs.

    A Gaussian kernel converts exactly to b = 2, c0 = gamma/(2 pi), gamma = 1:
    the amplitude is resolved at the context's working precision and stored
    exactly, so the converted kernel feeds the Legendre machinery with the
    same normalization the closed-form covariance uses.  The
    Ornstein-Uhlenbeck kernel has no super-exponential spectral decay and
    raises ``VariantUnsupported``.
    """
    if isinstance(kernel, SpectralPowerKernel):
        return kernel
    if isinstance(kernel, GaussianKernel):
        a, _, amplitude = _power_law(kernel, ctx.mp)
        return SpectralPowerKernel(a=a, b=2, c0=amplitude, gamma=1)
    raise VariantUnsupported(
        "rate-function machinery requires super-exponential spectral decay; "
        "the Ornstein-Uhlenbeck kernel has none"
    )


def spectral_breakpoints(kernel: KernelSpec, ctx: PrecisionContext, budget_dps, weight_scale=1):
    """Breakpoints of the half-line integral of w(t) Ghat(t), |w| <= weight_scale^2.

    ``[0, theta, inf]`` for the Ornstein-Uhlenbeck kernel, whose density
    decays only polynomially.  Otherwise ``[0, T]`` with T the smallest cutoff
    at which amplitude * weight_scale^2 * exp(-a T^b) falls below
    10**-budget_dps (T = 1 when the bound is below that everywhere).
    """
    mp = ctx.mp
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        theta, _ = _params(kernel, mp)
        return [0, theta, mp.inf]
    a, b, amp = _power_law(kernel, mp)
    target = budget_dps * mp.log(10) + mp.log(amp * weight_scale * weight_scale)
    if target <= 0:
        return [0, mp.mpf(1)]
    return [0, (target / a) ** (1 / b)]


def covariance(kernel: KernelSpec, x, ctx: PrecisionContext):
    """Covariance G(x) of the stationary kernel at lag x.

    Closed form for the Gaussian and Ornstein-Uhlenbeck variants and for the
    spectral-power family at b = 2; otherwise the Fourier integral of the
    density, truncated where the density falls below the working roundoff
    (the super-exponential tail makes the cutoff explicit).
    """
    mp = ctx.mp
    x = mp.mpf(x)
    if isinstance(kernel, GaussianKernel):
        _, _, pref, four_a = _params(kernel, mp)
        return pref * mp.exp(-x * x / four_a)
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        theta, gamma = _params(kernel, mp)
        return gamma * mp.exp(-theta * abs(x))
    a, b, c0, gamma = _params(kernel, mp)
    if b == 2:
        return gamma * c0 * mp.sqrt(mp.pi / a) * mp.exp(-x * x / (4 * a))
    return covariance_by_quadrature(kernel, x, ctx)


def spectral_density(kernel: KernelSpec, t, ctx: PrecisionContext | MPContext):
    """Spectral density Ghat(t); strictly positive for every variant.
    ``ctx`` may also be an mpmath context, such as an oracle integrand's."""
    mp = ctx.mp if isinstance(ctx, PrecisionContext) else ctx
    t = mp.mpf(t)
    if isinstance(kernel, GaussianKernel):
        a, gamma, _, _ = _params(kernel, mp)
        return gamma * mp.exp(-a * t * t) / (2 * mp.pi)
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        theta, gamma = _params(kernel, mp)
        return gamma * theta / (mp.pi * (theta * theta + t * t))
    a, b, c0, gamma = _params(kernel, mp)
    return gamma * c0 * mp.exp(-a * abs(t) ** b)


def covariance_by_quadrature(kernel: KernelSpec, x, ctx: PrecisionContext):
    """The covariance as the quadrature of the spectral density.

    ``covariance`` of the spectral-power family at b != 2; for the
    closed-form variants an independent Fourier-pair cross-check.  It is a
    production covariance, so it integrates at the working precision.  The
    density is truncated at
    ``spectral_breakpoints`` with a budget of 10 digits past the working
    precision.  The Ornstein-Uhlenbeck density decays only polynomially, so
    its integral runs over the full half line.
    """
    mp = ctx.mp
    x = mp.mpf(x)
    f = lambda t: spectral_density(kernel, t, ctx) * mp.cos(t * x)
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        if x != 0:
            # The density decays only polynomially, so the oscillatory
            # integral needs series acceleration over half-periods instead
            # of tanh-sinh.
            return 2 * mp.quadosc(f, [0, mp.inf], period=2 * mp.pi / abs(x))
        _, floor = _params(kernel, mp)
    else:
        _, _, floor = _power_law(kernel, mp)
    points = spectral_breakpoints(kernel, ctx, ctx.working_dps + 10)
    return 2 * integrate(ctx, f, points, floor=floor, extra_digits=ctx.digits - ctx.digits // 2)


def _require_spectral_power(kernel):
    if not isinstance(kernel, SpectralPowerKernel):
        raise VariantUnsupported(
            "this operation is defined for the spectral-power family only "
            f"(got {type(kernel).__name__})"
        )


@dataclass(frozen=True)
class LegendreProfile:
    """One evaluation of the convex conjugate T*.

    ``s_star`` maximizes q s - T(s); ``value`` is T*(q) by the closed form
    and ``numeric_value`` the independent golden-section maximization both
    agree with to relative 10**-(digits/2).
    """

    q: object
    s_star: object
    value: object
    numeric_value: object


def _golden_max(mp, phi, lo, hi, iterations):
    inv = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(lo), mp.mpf(hi)
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(iterations):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = phi(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = phi(c)
    s = (a + b) / 2
    return s, phi(s)


def legendre_conjugate(kernel: SpectralPowerKernel, q, ctx: PrecisionContext):
    """T*(q) = max_s (q s - T(s)) for the spectral-power family.

    Returns the closed form s* = ln(q/(ab))/b and
    T*(q) = q/b (ln(q/(ab)) - 1) + ln(gamma c0), at working precision,
    after verifying the value to relative 10^-(digits/2) against a
    derivative-free golden-section maximization of q s - T(s).  The search
    shrinks its bracket to 10^-(0.55 digits + 10) and runs at that many
    digits plus the guard digits: near the maximum the value error is
    quadratic in the bracket width, far below the agreement needed.
    """
    _require_spectral_power(kernel)
    mp = ctx.mp
    q = mp.mpf(q)
    if not q > 0:
        raise EILabError("legendre_conjugate requires q > 0")
    a, b, c0, gamma = _params(kernel, mp)
    log_amp = mp.log(gamma * c0)
    s_star = mp.log(q / (a * b)) / b
    value = q / b * (mp.log(q / (a * b)) - 1) + log_amp

    width_digits = int(ctx.digits * 0.55) + 10
    sp = raw_context(width_digits + ctx.guard_digits)
    sq, sa, sb, slog_amp = (sp.mpf(v) for v in (q, a, b, log_amp))
    phi = lambda s: sq * s - (sa * sp.exp(sb * s) - slog_amp)
    # Bracket the concave maximum by expanding until phi turns down on both
    # sides, without consulting the closed form.
    hi = sp.mpf(1)
    while phi(hi) >= phi(hi - 1):
        hi = hi * 2
        if hi > 10**9:
            raise MaximizationDiverged("no right bracket for the conjugate")
    lo = sp.mpf(-1)
    while phi(lo) >= phi(lo + 1):
        lo = lo * 2
        if lo < -(10**9):
            raise MaximizationDiverged("no left bracket for the conjugate")
    shrink_per_iter = sp.log(10) / sp.log(1 / ((sp.sqrt(5) - 1) / 2))
    iterations = int(sp.ceil(width_digits * shrink_per_iter)) + 4
    _, numeric = _golden_max(sp, phi, lo - 1, hi + 1, iterations)
    numeric = mp.mpf(numeric)

    tol = ctx.tol(-(ctx.digits // 2)) * max(abs(value), mp.mpf(1))
    if abs(numeric - value) > tol:
        raise MaximizationDiverged(
            "closed-form conjugate disagrees with numeric maximization: "
            f"{mp.nstr(value, 20)} vs {mp.nstr(numeric, 20)}"
        )
    return LegendreProfile(q=q, s_star=s_star, value=value, numeric_value=numeric)


def rate_function(kernel: SpectralPowerKernel, K: int, ctx: PrecisionContext):
    """Collapse rate F(K) = T*(2K+1) - (2K+1) ln K, K >= 2."""
    if K < 2:
        raise EILabError(f"rate_function requires K >= 2, got {K}")
    return profile_rate(legendre_conjugate(kernel, 2 * K + 1, ctx), K, ctx)


def profile_rate(profile: LegendreProfile, K: int, ctx: PrecisionContext):
    """F(K) = T*(2K+1) - (2K+1) ln K from the conjugate profile at q = 2K+1."""
    if profile.q != 2 * K + 1:
        raise EILabError(f"profile at q = {profile.q} does not give F({K})")
    return profile.value - (2 * K + 1) * ctx.mp.log(K)
