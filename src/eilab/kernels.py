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
  rough contrast case.  Its density gamma * theta / (pi (theta^2 + t^2))
  decays only polynomially, so only the closed-form covariance serves it:
  the spectral machinery below (density, breakpoints, covariance
  quadrature, Legendre conjugate and rate function) refuses it with
  ``VariantUnsupported``, in the one check of ``spectral_power_law``.

The Fourier convention throughout is G(x) = integral of Ghat(t) e^{itx} dt.

Kernel parameters are stored either as decimal strings (or the named
constant ``sqrt_pi``), which resolve at whatever working precision a context
asks for, or as exact mpf values produced internally.  Kernels are immutable
values and safe to share across threads.

The Gaussian and spectral-power densities are both amplitude * exp(-a |t|^b)
(b = 2 and amplitude gamma/(2 pi) for the Gaussian); ``spectral_power_law``
gives (a, b, amplitude), and the Legendre-transform machinery of the
conditional-variance analysis reads it: writing the full density as
``exp(-S(|t|))`` with S(t) = a t^b - ln(amplitude), and T(s) = S(e^s), the
convex conjugate T*(q) = max_s (q s - T(s)) yields the collapse rate
function F(K) = T*(2K+1) - (2K+1) ln K.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_pos, mpf_shift, mpf_sub

from .errors import EILabError, MaximizationDiverged, VariantUnsupported
from .precision import PrecisionContext, pack, raw_context, unpack
from .quadrature import integrate, quadrature_context

def resolve_param(value, mp):
    """Resolve a kernel parameter to a working-precision real.

    Accepts decimal strings, the named constant ``sqrt_pi``, python ints,
    and mpf values (which convert exactly at any precision).
    """
    if isinstance(value, str):
        if value == "sqrt_pi":
            return mp.sqrt(mp.pi)
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


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel:
    theta: Union[str, object] = "1"
    gamma: Union[str, object] = "1"

    def __post_init__(self):
        _positive("theta", self.theta)
        _positive("gamma", self.gamma)


KernelSpec = Union[GaussianKernel, SpectralPowerKernel, OrnsteinUhlenbeckKernel]


# Resolved numeric parameters per (kernel, mpmath context, its precision now):
# ``mp.quad`` raises the precision of the shared context it runs in, and
# parameters first resolved there must not be served after it returns.  The
# bound matters because the randomized verifier trials build a new kernel
# per trial.
@functools.lru_cache(maxsize=256)
def _resolved_params(kernel: KernelSpec, mp, prec):
    """(a, b, amplitude, pref, 4a) of a Gaussian or spectral-power kernel,
    with ``pref`` the closed-form covariance prefactor (``None`` at b != 2);
    (theta, gamma) of the Ornstein-Uhlenbeck kernel."""
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        return resolve_param(kernel.theta, mp), resolve_param(kernel.gamma, mp)
    a = resolve_param(kernel.a, mp)
    gamma = resolve_param(kernel.gamma, mp)
    if isinstance(kernel, GaussianKernel):
        pref = gamma / (2 * mp.sqrt(mp.pi * a))
        return a, mp.mpf(2), gamma / (2 * mp.pi), pref, 4 * a
    b = resolve_param(kernel.b, mp)
    c0 = resolve_param(kernel.c0, mp)
    amplitude = gamma * c0
    pref = amplitude * mp.sqrt(mp.pi / a) if b == 2 else None
    return a, b, amplitude, pref, 4 * a


def spectral_power_law(kernel: KernelSpec, mp):
    """(a, b, amplitude) of a Gaussian or spectral-power density, which is
    amplitude * exp(-a |t|^b) in both cases, resolved under the mpmath
    context ``mp``: the first three fields of ``_resolved_params``.

    The Ornstein-Uhlenbeck kernel raises ``VariantUnsupported``: its
    density has no super-exponential decay, and every spectral routine of
    this module refuses it here.
    """
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        raise VariantUnsupported(
            "the spectral machinery requires super-exponential spectral decay; "
            "the Ornstein-Uhlenbeck kernel has none"
        )
    return _resolved_params(kernel, mp, mp.prec)[:3]


def spectral_breakpoints(kernel: KernelSpec, ctx: PrecisionContext, budget_dps, weight_scale=1):
    """Breakpoints of the half-line integral of w(t) Ghat(t), |w| <= weight_scale^2.

    ``[0, T]`` with T the smallest cutoff at which
    amplitude * weight_scale^2 * exp(-a T^b) falls below 10**-budget_dps
    (T = 1 when the bound is below that everywhere).  The
    Ornstein-Uhlenbeck kernel raises ``VariantUnsupported``.
    """
    mp = ctx.mp
    a, b, amp = spectral_power_law(kernel, mp)
    target = budget_dps * mp.log(10) + mp.log(amp * weight_scale * weight_scale)
    if target <= 0:
        return [0, mp.mpf(1)]
    return [0, (target / a) ** (1 / b)]


def covariance(kernel: KernelSpec, x, ctx: PrecisionContext):
    """Covariance G(x) of the stationary kernel at lag x, at working precision.

    The one-lag case of ``covariance_column`` at origin 0, where its
    Gaussian factors other than the closed form are exactly 1: closed form
    for the Gaussian and Ornstein-Uhlenbeck variants and for the
    spectral-power family at b = 2; otherwise the Fourier integral of the
    density, truncated where the density falls below the working roundoff
    (the super-exponential tail makes the cutoff explicit).
    """
    mp = ctx.mp
    return mp.make_mpf(covariance_column(kernel, mp.zero, (mp.mpf(x),), ctx)[0])


def covariance_column(kernel: KernelSpec, x0, points, ctx: PrecisionContext, decay=None, origin_decay=None):
    """G(p - x0) for every p of ``points``, as raw mpf tuples.

    ``x0`` and ``points`` are working-precision mpf values.  The parameters
    come from the cached ``_resolved_params``, and each operation below is
    rounded at working precision.

    Gaussian and spectral-power at b = 2, with ``pref`` and 4a as
    ``_resolved_params`` rounds them, by the factorization behind the fast
    Gauss transform (Greengard & Strain, SIAM J. Sci. Stat. Comput. 12,
    1991):

        G(p - x0) = scale * D(p) * e^(p x0 / 2a),  scale = pref * D(x0),
        D(q) = exp(((-q) * q) / (4a)).

    D(p) depends on |p| only, and e^(-|p| x0 / 2a) = 1 / E with
    E = exp(|p| * ((2 x0) / (4a))), so the two members of a mirror pair +-p
    share one D and one E: p >= 0 reads (scale * D) * E and p < 0
    (scale * D) / E, whether or not its mirror is among ``points``.  At
    x0 = 0 the scale is ``pref`` and E is 1, exactly, so the column is bit
    for bit the closed form pref * D(p).  Elsewhere it loses about
    log10(1 + M) digits, M = (|p| + |x0|)^2 / 4a.  Where the binary
    exponents of p, x0 and 4a cannot rule out M > 10^(guard_digits / 2),
    the entry is the x0 = 0 case at the rounded lag p - x0 instead,
    pref * D(p - x0), which is ``covariance(kernel, p - x0, ctx)``.

    ``decay`` and ``origin_decay`` map |p| and |x0| to D, packed (see
    ``precision.pack``).  A caller that keeps them across calls for one
    kernel and context (``CandidatePosterior`` for its candidates,
    ``FittedPosterior`` for its design points) evaluates each D once; the
    ones missing are evaluated and added here.  Omitted, each is the call's
    own.

    Ornstein-Uhlenbeck: gamma * exp((-theta) * |x|) at the rounded lag
    x = p - x0.  Where ``pref`` is ``None`` (the spectral-power family at
    b != 2) each rounded lag is one ``covariance_by_quadrature``.
    """
    mp = ctx.mp
    prec, rnd = mp._prec_rounding
    origin = x0._mpf_
    lags = (mpf_sub(p._mpf_, origin, prec, rnd) for p in points)
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        theta, gamma = _resolved_params(kernel, mp, mp.prec)
        rate, gamma = mpf_neg(theta._mpf_), gamma._mpf_
        return [mpf_mul(gamma, mpf_exp(mpf_mul(rate, mpf_abs(x), prec, rnd), prec, rnd), prec, rnd) for x in lags]
    _, _, _, pref, four_a = _resolved_params(kernel, mp, mp.prec)
    if pref is None:
        return [covariance_by_quadrature(kernel, mp.make_mpf(x), ctx)._mpf_ for x in lags]
    pref, four_a = pref._mpf_, four_a._mpf_

    def gauss(x):
        return mpf_exp(mpf_div(mpf_mul(mpf_neg(x), x, prec, rnd), four_a, prec, rnd), prec, rnd)

    def kept(cache, man, exp, bc):
        packed = cache.get((man, exp))
        if packed is not None:
            return unpack(packed)
        d = gauss((0, man, exp, bc))
        cache[man, exp] = pack(d)
        return d

    decay = {} if decay is None else decay
    if not origin[1]:
        # x0 = 0: the scale is pref and E is 1, so each entry is pref * D(p)
        return [mpf_mul(pref, kept(decay, *p._mpf_[1:]), prec, rnd) for p in points]
    scale = mpf_mul(pref, kept({} if origin_decay is None else origin_decay, *origin[1:]), prec, rnd)
    rate = mpf_div(mpf_shift(origin, 1), four_a, prec, rnd)
    # |v| < 2^(exp + bc), so M < 2^(2 t + 3 - e), t the larger of that
    # exponent of p and of x0 and e the one of 4a: entries with t > reach
    # fall back.
    reach = (int(ctx.guard_digits * math.log2(10) / 2) + four_a[2] + four_a[3] - 3) // 2
    if origin[2] + origin[3] > reach:
        reach = -math.inf
    # The entry of the mirror of each pair met once, keyed by the mirror's
    # sign too (a point may repeat), until the mirror comes.
    mirrors = {}
    column = []
    for p in points:
        sign, man, exp, bc = raw = p._mpf_
        if exp + bc > reach:
            column.append(mpf_mul(pref, gauss(mpf_sub(raw, origin, prec, rnd)), prec, rnd))
            continue
        mirror = mirrors.pop((sign, man, exp), None)
        if mirror is not None:
            column.append(mirror)
            continue
        scaled = mpf_mul(scale, kept(decay, man, exp, bc), prec, rnd)
        growth = mpf_exp(mpf_mul((0, man, exp, bc), rate, prec, rnd), prec, rnd)
        column.append((mpf_div if sign else mpf_mul)(scaled, growth, prec, rnd))
        mirrors[1 - sign, man, exp] = (mpf_mul if sign else mpf_div)(scaled, growth, prec, rnd)
    return column


def ou_correlations(kernel: OrnsteinUhlenbeckKernel, lags, ctx: PrecisionContext):
    """(rho, 1 - rho^2) with rho = e^(-theta d), as raw mpf tuples, for each
    lag d >= 0 of ``lags`` (raw tuples, read exactly) of the
    Ornstein-Uhlenbeck kernel, whose covariance is gamma rho.

    1 - rho^2 = (1 - rho)(1 + rho), and 1 - rho = -expm1(-theta d) is 1
    minus one exponential evaluated at enough bits past the working
    precision to hold the ones the subtraction cancels, about
    -log2(theta d): each factor is rounded once at working precision, and
    nothing cancels however small d is.  The Markov closed form of the
    posterior reads them (``posterior.MarkovPosterior``).
    """
    mp = ctx.mp
    prec, rnd = mp._prec_rounding
    theta = _resolved_params(kernel, mp, mp.prec)[0]._mpf_
    pairs = []
    for d in lags:
        wp = prec + max(0, -(theta[2] + theta[3] + d[2] + d[3])) + 10
        e = mpf_exp(mpf_neg(mpf_mul(theta, d, wp, rnd)), wp, rnd)
        pairs.append((mpf_pos(e, prec, rnd), mpf_mul(mpf_sub(fone, e, prec, rnd), mpf_add(fone, e, prec, rnd), prec, rnd)))
    return pairs


def spectral_density(kernel: KernelSpec, t, mp):
    """Spectral density Ghat(t) = amplitude * exp(-a |t|^b) under the mpmath
    context ``mp`` (such as an oracle integrand's), strictly positive; the
    Ornstein-Uhlenbeck kernel raises ``VariantUnsupported``."""
    a, b, amp = spectral_power_law(kernel, mp)
    return amp * mp.exp(-a * abs(mp.mpf(t)) ** b)


def covariance_by_quadrature(kernel: KernelSpec, x, ctx: PrecisionContext):
    """The covariance as the quadrature of the spectral density.

    ``covariance`` of the spectral-power family at b != 2; for the Gaussian
    and b = 2 an independent Fourier-pair cross-check of the closed form.
    It integrates at the working precision, the path of the production
    covariance, with the density truncated at ``spectral_breakpoints`` with
    a budget of 10 digits past the working precision.  The
    Ornstein-Uhlenbeck kernel raises ``VariantUnsupported`` before any
    quadrature.
    """
    mp = ctx.mp
    floor = spectral_power_law(kernel, mp)[2]
    extra = ctx.digits - ctx.digits // 2
    qp = quadrature_context(ctx, extra)
    x = mp.mpf(x)
    xq = qp.mpf(x)
    f = lambda t: spectral_density(kernel, t, qp) * qp.cos(t * xq)
    points = spectral_breakpoints(kernel, ctx, ctx.working_dps + 10)
    return 2 * integrate(ctx, f, points, floor=floor, extra_digits=extra)


@dataclass(frozen=True)
class LegendreProfile:
    """One evaluation of the convex conjugate T*.

    ``s_star`` maximizes q s - T(s); ``value`` is T*(q) by the closed form
    and ``numeric_value`` the independent derivative-free (Brent)
    maximization; the two agree to relative 10**-(digits/2).
    """

    q: object
    s_star: object
    value: object
    numeric_value: object


def _brent_max(mp, phi, lo, hi):
    """The maximum value of the unimodal ``phi`` on [lo, hi].

    Brent's derivative-free search (Algorithms for Minimization without
    Derivatives, 1973, ch. 5): golden-section steps, replaced by a parabola
    through the three best points whenever that step is safe.  It stops when
    the maximizer s is known to within 10**-(dps//2) (1 + |s|), dps being
    ``mp``'s precision: closer to s, phi is flat to within its own roundoff.
    """
    golden = (3 - mp.sqrt(5)) / 2
    tol = mp.mpf(10) ** -(mp.dps // 2)
    a, b = mp.mpf(lo), mp.mpf(hi)
    x = w = v = a + golden * (b - a)
    fx = fw = fv = phi(x)
    d = e = mp.zero
    while True:
        m = (a + b) / 2
        tol1 = tol * (abs(x) + 1)
        if abs(x - m) <= 2 * tol1 - (b - a) / 2:
            return fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            t = (x - v) * (fx - fw)
            p, den = (x - v) * t - (x - w) * r, 2 * (t - r)
            if den > 0:
                p = -p
            den = abs(den)
            if abs(p) < abs(den * e / 2) and den * (a - x) < p < den * (b - x):
                e, d = d, p / den
                parabolic = True
                if min(x + d - a, b - x - d) < 2 * tol1:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b if x < m else a) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = phi(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def legendre_conjugate(kernel: KernelSpec, q, ctx: PrecisionContext):
    """T*(q) = max_s (q s - T(s)) for a Gaussian or spectral-power kernel.

    (a, b, amplitude) come from ``spectral_power_law``, which refuses the
    Ornstein-Uhlenbeck kernel.  Returns the closed form s* = ln(q/(ab))/b and
    T*(q) = q/b (ln(q/(ab)) - 1) + ln(amplitude), at working precision,
    after verifying the value to relative 10^-(digits/2) against a
    maximization of q s - T(s) by Brent's derivative-free search.  The
    search runs at 0.55 digits + 10 + guard digits and locates s* to the
    square root of that roundoff: near the maximum the value error is
    quadratic in that width, at the search's own roundoff and far below the
    agreement needed.  At 300 digits it takes about 30 evaluations of
    q s - T(s).
    """
    mp = ctx.mp
    a, b, amplitude = spectral_power_law(kernel, mp)
    q = mp.mpf(q)
    if not q > 0:
        raise EILabError("legendre_conjugate requires q > 0")
    log_amp = mp.log(amplitude)
    s_star = mp.log(q / (a * b)) / b
    value = q / b * (mp.log(q / (a * b)) - 1) + log_amp

    sp = raw_context(int(ctx.digits * 0.55) + 10 + ctx.guard_digits)
    sq, sa, sb, slog_amp = (sp.mpf(v) for v in (q, a, b, log_amp))
    # Memoized: the bracketing loops revisit phi(0) and phi(+-1).
    phi = functools.lru_cache(maxsize=None)(lambda s: sq * s - (sa * sp.exp(sb * s) - slog_amp))
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
    numeric = mp.mpf(_brent_max(sp, phi, lo - 1, hi + 1))

    tol = ctx.tol(-(ctx.digits // 2)) * max(abs(value), mp.mpf(1))
    if abs(numeric - value) > tol:
        raise MaximizationDiverged(
            "closed-form conjugate disagrees with numeric maximization: "
            f"{mp.nstr(value, 20)} vs {mp.nstr(numeric, 20)}"
        )
    return LegendreProfile(q=q, s_star=s_star, value=value, numeric_value=numeric)


def rate_function(kernel: KernelSpec, K: int, ctx: PrecisionContext):
    """Collapse rate F(K) = T*(2K+1) - (2K+1) ln K, K >= 2."""
    if K < 2:
        raise EILabError(f"rate_function requires K >= 2, got {K}")
    return profile_rate(legendre_conjugate(kernel, 2 * K + 1, ctx), K, ctx)


def profile_rate(profile: LegendreProfile, K: int, ctx: PrecisionContext):
    """F(K) = T*(2K+1) - (2K+1) ln K from the conjugate profile at q = 2K+1."""
    if profile.q != 2 * K + 1:
        raise EILabError(f"profile at q = {profile.q} does not give F({K})")
    return profile.value - (2 * K + 1) * ctx.mp.log(K)
