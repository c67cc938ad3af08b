"""Thin wrapper around two quadrature rules with explicit convergence checks.

Every integral runs here, at the precision ``quadrature_context`` sets, by
one of two rules.  Tanh-sinh (mpmath's ``quad``) takes any integrand that is
smooth inside its interval; its cost grows faster than linearly in the
digits requested (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005), so oracles
whose tolerance is digits/4 do not pay for the full working precision.  The
trapezoidal rule takes integrands that are even and entire on the real line
and decay fast, where it converges faster than geometrically in the number
of nodes (Trefethen & Weideman, SIAM Rev. 56, 2014); the caller names its
step.
"""

from __future__ import annotations

from mpmath.ctx_mp import MPContext

from .errors import QuadratureNotConverged
from .precision import PrecisionContext, raw_context


def quadrature_context(ctx: PrecisionContext, extra_digits: int = 0) -> MPContext:
    """The mpmath context at digits//2 + guard + ``extra_digits`` decimal
    digits, where ``integrate`` runs and callers build their integrands.
    ``extra_digits`` are the digits the integrand cancels (digits - digits//2
    give the working precision)."""
    return raw_context(ctx.digits // 2 + ctx.guard_digits + extra_digits)


def _trapezoid(mp, f, end, h):
    """The half-line trapezoid sums of an even ``f`` over [0, end] at steps
    h and h/2 (the finer sum reuses every node of the coarser), as (finer
    sum, |finer - coarser|)."""
    n = int(mp.ceil(end / h))
    coarse = h * (f(mp.zero) / 2 + mp.fsum(f(k * h) for k in range(1, n + 1)))
    half = h / 2
    fine = coarse / 2 + half * mp.fsum(f((2 * k - 1) * half) for k in range(1, n + 1))
    return fine, abs(fine - coarse)


def integrate(ctx: PrecisionContext, f, points, floor=0, extra_digits=0, step=None):
    """Integrate ``f`` over the interval(s) given by ``points``.

    The rule runs in ``quadrature_context(ctx, extra_digits)``, where ``f``
    should be built too; the value is returned at working precision.  With
    no ``step`` it is tanh-sinh over ``points``, with mpmath's error
    estimate.  With a ``step`` h, ``points`` is [0, T] and ``f`` must be
    even and entire: the value is the half-line trapezoid sum at step h/2,
    and its error estimate the distance to the sum at step h.  The result
    must carry at least digits/2 correct digits: the estimate is compared
    against max(|value|, floor) * 10**-(digits//2), and
    ``QuadratureNotConverged`` is raised past that.  Every tolerance
    advertised by the lab's oracles is digits/4 or looser, so a value that
    passes here is good for all of them; a genuinely stalling integral
    reports estimates orders of magnitude above this line.  ``floor`` lets
    callers name the absolute scale below which the value is as good as
    zero (for integrals whose true value may vanish).
    """
    mp = quadrature_context(ctx, extra_digits)
    if step is None:
        value, err = mp.quad(f, points, error=True, maxdegree=12)
    else:
        value, err = _trapezoid(mp, f, points[-1], mp.mpf(step))
    scale = max(abs(value), mp.mpf(floor))
    if scale == 0:
        scale = mp.mpf(1)
    if err > scale * ctx.tol(-(ctx.digits // 2)):
        raise QuadratureNotConverged(
            f"quadrature error estimate {mp.nstr(err, 4)} exceeds tolerance "
            f"for value {mp.nstr(value, 8)}"
        )
    return ctx.mpf(value)
