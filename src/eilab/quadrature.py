"""Thin wrapper around mpmath quadrature with explicit convergence checks.

Every tanh-sinh integral runs here, at the precision ``quadrature_context``
sets.  Tanh-sinh cost grows faster than linearly in the digits requested
(Bailey, Jeyabalan & Li, Exp. Math. 14, 2005), so oracles whose tolerance
is digits/4 do not pay for the full working precision.
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


def integrate(ctx: PrecisionContext, f, points, floor=0, extra_digits=0):
    """Integrate ``f`` over the interval(s) given by ``points``.

    Tanh-sinh quadrature runs in ``quadrature_context(ctx, extra_digits)``,
    where ``f`` should be built too; the value is returned at working
    precision.  The result must carry at least digits/2 correct digits:
    mpmath's error estimate is compared against
    max(|value|, floor) * 10**-(digits//2), and ``QuadratureNotConverged``
    is raised past that.  Every tolerance advertised by the lab's oracles is
    digits/4 or looser, so a value that passes here is good for all of
    them; a genuinely stalling integral reports estimates orders of
    magnitude above this line.  ``floor`` lets callers name the absolute
    scale below which the value is as good as zero (for integrals whose
    true value may vanish).
    """
    mp = quadrature_context(ctx, extra_digits)
    value, err = mp.quad(f, points, error=True, maxdegree=12)
    scale = max(abs(value), mp.mpf(floor))
    if scale == 0:
        scale = mp.mpf(1)
    if err > scale * ctx.tol(-(ctx.digits // 2)):
        raise QuadratureNotConverged(
            f"quadrature error estimate {mp.nstr(err, 4)} exceeds tolerance "
            f"for value {mp.nstr(value, 8)}"
        )
    return ctx.mpf(value)
