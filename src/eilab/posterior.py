"""Conditional mean and variance of the Gaussian process given a design.

The conditional moments at a query point x are

    mean     = g^t G^-1 f
    variance = G(0) - g^t G^-1 g

with G the kernel Gram matrix of the design, g the covariance vector of x
against the design, and f the observed values.  Both come out of a single
factorization of G applied to the two right-hand sides.

Numerical contract: the Gram entries, g, and f are always evaluated at the
context's working precision, and the linear algebra inherits the elevated
solve precision of ``CholeskyFactor``.  Keeping the *entries* at working
precision is deliberate: with the objective f = -G the value vector is then
bit-identical to a column of G, and the interpolation identity
mean(x) = -G(x) survives in floating point instead of being destroyed by
entry-level rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_mul, mpf_pos, mpf_sub

from .errors import EILabError, NonPositivePivot, VariantUnsupported, require_distinct
from .kernels import KernelSpec, OrnsteinUhlenbeckKernel, covariance, spectral_breakpoints, spectral_density
from .linalg import CholeskyFactor
from .precision import PrecisionContext
from .quadrature import integrate, quadrature_context


@dataclass(frozen=True)
class PosteriorMoments:
    """Conditional mean and variance at one query point.

    ``clamped`` marks a variance whose raw value came out negative from
    cancellation and was clamped to zero; the clamp threshold
    10**(-digits + 2 guard) is the level below which such values would
    indicate precision exhaustion rather than benign roundoff.
    """

    point: object
    mean: object
    variance: object
    clamped: bool = False


@dataclass(frozen=True)
class TrajectoryState:
    """An immutable snapshot of evaluated points x_1..x_K.

    Points are pairwise distinct (exact comparison), ``best`` is the running
    minimum of the values, and the list is never empty: x_1 seeds the run.
    """

    kernel: KernelSpec
    ctx: PrecisionContext
    points: tuple
    values: tuple
    best: object

    def __post_init__(self):
        if not self.points:
            raise EILabError("a trajectory state needs at least the seed point")
        if len(self.points) != len(self.values):
            raise EILabError("points and values differ in length")
        require_distinct(self.points, "design points")
        if self.best != min(self.values):
            raise EILabError("best is not the minimum of the values")

    @classmethod
    def start(cls, kernel, ctx, x1, f1):
        x = ctx.mpf(x1)
        v = ctx.mpf(f1)
        return cls(kernel=kernel, ctx=ctx, points=(x,), values=(v,), best=v)

    @property
    def size(self) -> int:
        return len(self.points)


def add_point(state: TrajectoryState, x, f_x) -> TrajectoryState:
    """Return the state extended by one evaluation; best is kept current.

    Raises ``DuplicatePoint`` (from the new state's own check) when x is
    already in the design.
    """
    ctx = state.ctx
    x = ctx.mpf(x)
    v = ctx.mpf(f_x)
    best = state.best if state.best <= v else v
    return TrajectoryState(
        kernel=state.kernel,
        ctx=state.ctx,
        points=state.points + (x,),
        values=state.values + (v,),
        best=best,
    )


def _checked_moments(ctx, x, mean, variance, clamp_threshold) -> PosteriorMoments:
    """Moments at working precision, with the negative-variance clamp."""
    clamped = False
    if variance < 0:
        # Tiny negatives are cancellation roundoff; anything beyond the
        # clamp threshold means the precision budget is spent and the
        # value would be fiction.
        mp = ctx.mp
        if variance < -clamp_threshold:
            raise NonPositivePivot(
                f"posterior variance {mp.nstr(variance, 6)} at "
                f"{mp.nstr(x, 12)} is negative beyond the cancellation "
                "budget: design too degenerate at this precision"
            )
        clamped = True
        variance = mp.mpf(0)
    return PosteriorMoments(point=x, mean=mean, variance=variance, clamped=clamped)


class FittedPosterior:
    """One factorization of the design Gram matrix, reusable across queries.

    Building this object performs the only factorization; ``moments`` then
    costs K covariance evaluations and two triangular solves per query.  The
    object is read-only after construction and safe to query from several
    threads.  Raises ``NonPositivePivot`` when the design is numerically
    degenerate at the context's precision.

    ``extends`` may be the fit of an earlier design of the same run (same
    kernel, context and jitter) that this design extends.  Only the Gram
    rows of the new points are evaluated (the lower triangle) and the
    factor is extended by them; the result is bit for bit the fresh fit.
    ``EILabError`` is raised when this design does not start with that one
    (``DimensionMismatch`` when the context or jitter differs).
    """

    def __init__(self, state: TrajectoryState, jitter: bool = False, extends: FittedPosterior | None = None):
        ctx = state.ctx
        kernel = state.kernel
        pts = state.points
        m = extends.state.size if extends else 0
        if extends is not None and (extends.state.kernel != kernel or pts[:m] != extends.state.points):
            raise EILabError("extends is not the fit of a leading design of this state")
        rows = [[covariance(kernel, pts[i] - pts[j], ctx) for j in range(i + 1)] for i in range(m, len(pts))]
        factor = CholeskyFactor(rows, ctx, jitter=jitter, extends=extends._factor if extends else None)
        self.jitter_used = factor.jitter_used
        self.solve_dps = factor.solve_dps
        self.state = state
        self.ctx = ctx
        self._factor = factor
        # w = L^-1 f feeds the incremental mean; beta = G^-1 f the direct one.
        self._w_hi = factor.solve_lower(state.values)
        self._beta_hi = factor.solve_upper_t(self._w_hi)
        self._g0_hi = factor.solve_mp.mpf(covariance(kernel, 0, ctx))
        self._clamp_threshold = ctx.tol(-(ctx.digits - 2 * ctx.guard_digits))
        self.condition = factor.pivot_ratio

    def moments(self, x) -> PosteriorMoments:
        ctx = self.ctx
        mp = ctx.mp
        x = mp.mpf(x)
        pts = self.state.points
        for k, p in enumerate(pts):
            if x == p:
                return PosteriorMoments(point=x, mean=self.state.values[k], variance=mp.mpf(0))
        g = [covariance(self.state.kernel, x - p, ctx) for p in pts]
        z = self._factor.solve_lower(g)
        var_hi = self._g0_hi
        for zi in z:
            var_hi -= zi * zi
        mean_hi = self._factor.solve_mp.mpf(0)
        # An mpf product rounds in its left operand's context: beta's, the
        # solve precision, to which g converts exactly.
        for gi, bi in zip(g, self._beta_hi):
            mean_hi += bi * gi
        return _checked_moments(ctx, x, mp.mpf(mean_hi), mp.mpf(var_hi), self._clamp_threshold)

    def weights(self, x):
        """Interpolation weights lambda = G^-1 g(x) at working precision."""
        ctx = self.ctx
        x = ctx.mpf(x)
        g = [covariance(self.state.kernel, x - p, ctx) for p in self.state.points]
        return self._factor.solve(g)


# A kept covariance entry is one int: the signed mantissa above 64 bits that
# hold the binary exponent offset by 2^63.  It takes about 60 % of the
# memory of the raw (sign, man, exp, bc) tuple, and unpacks to that tuple
# exactly for any finite normalized mpf (bc is the mantissa's bit length).
_EXP_BITS = 64
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_OFFSET = 1 << (_EXP_BITS - 1)


def _pack(raw) -> int:
    sign, man, exp, _ = raw
    return ((-man if sign else man) << _EXP_BITS) | (exp + _EXP_OFFSET)


def _unpack(packed: int):
    man = packed >> _EXP_BITS
    sign = int(man < 0)
    man = -man if sign else man
    return (sign, man, (packed & _EXP_MASK) - _EXP_OFFSET, man.bit_length())


class CandidatePosterior:
    """Posterior moments over a fixed candidate set, kept across a growing design.

    For each candidate c the state holds its covariance column g(c), the
    covariances against the design points at working precision (packed, see
    ``_pack``), and
    z(c) = L^-1 g(c), the variance G(0) - sum z^2 and the mean sum z_j w_j
    with w = L^-1 f, at the solve precision of the factor it was last synced
    to.  When the design gains one point x_K, ``sync`` costs one covariance
    and K multiply-adds per candidate: the new column entry g_K(c) =
    G(c - x_K) and the new forward-substitution entry

        z_K(c) = (g_K(c) - sum_{j<K} L_{K,j} z_j(c)) / L_{K,K}

    (the bordered Cholesky factor organised by column; Rasmussen & Williams,
    GPML 2006, sec. 2.2 and Alg. 2.1).  The leading rows of L do not change
    when a point is appended, so z and the variance are bit-identical to the
    direct forward solve of ``FittedPosterior.moments``; only the rounding
    order of the mean differs.  When the solve precision or the jitter
    changes, z, the variance and the mean are re-solved from the kept
    column at the new factor, with no covariance evaluated again.  Values
    are raw ``mpf`` tuples combined with ``mpmath.libmp`` at the solve
    context's precision and rounding, exactly as the ``mpf`` operators
    combine them.  A state serves one run: one kernel, one precision
    context, and one design that only grows.
    """

    def __init__(self, points):
        self.points = list(points)
        self._fitted = None
        self._g = self._z = self._var = self._mean = None

    def __len__(self):
        return len(self.points)

    def sync(self, fitted: FittedPosterior):
        """Bring the state up to the design and factor of ``fitted``.

        ``fitted`` is the first fit synced, or one whose points and values
        extend those of the last; ``EILabError`` is raised otherwise.
        Returns the number of covariances evaluated and whether the kept
        forward-substitution entries were re-solved at the new factor.
        """
        state, prev = fitted.state, self._fitted
        n = len(self.points)
        kept = prev.state.size if prev else 0
        if prev and (state.points[:kept], state.values[:kept]) != (prev.state.points, prev.state.values):
            raise EILabError("the fit does not extend the last synced design")
        solved = kept if prev and (prev.solve_dps, prev.jitter_used) == (fitted.solve_dps, fitted.jitter_used) else 0
        if not kept:
            self._g = [[] for _ in range(n)]
        if not solved:
            # Free the old state before the new one grows.
            self._z = self._var = self._mean = None
            self._z = [[] for _ in range(n)]
            self._var = [fitted._g0_hi._mpf_] * n
            self._mean = [fzero] * n
        prec, rnd = fitted._factor.solve_mp._prec_rounding
        for k in range(solved, state.size):
            self._advance(fitted, k, prec, rnd)
        self._fitted = fitted
        return n * (state.size - kept), solved < kept

    def _advance(self, fitted, k, prec, rnd):
        """Add forward-substitution entry ``k`` for every candidate; column
        entry k is evaluated here the first time it is needed."""
        lower = fitted._factor.lower
        row = [v._mpf_ for v in lower[k][:k]]
        diag = lower[k][k]._mpf_
        w = fitted._w_hi[k]._mpf_
        xk = fitted.state.points[k]
        kernel, ctx = fitted.state.kernel, fitted.ctx
        zs, var, mean = self._z, self._var, self._mean
        for i, (c, g) in enumerate(zip(self.points, self._g)):
            z = zs[i]
            if k < len(g):
                s = _unpack(g[k])
            else:
                s = covariance(kernel, c - xk, ctx)._mpf_
                g.append(_pack(s))
            for a, b in zip(row, z):
                s = mpf_sub(s, mpf_mul(a, b, prec, rnd), prec, rnd)
            s = mpf_div(s, diag, prec, rnd)
            z.append(s)
            var[i] = mpf_sub(var[i], mpf_mul(s, s, prec, rnd), prec, rnd)
            mean[i] = mpf_add(mean[i], mpf_mul(s, w, prec, rnd), prec, rnd)

    def moments(self, i) -> PosteriorMoments:
        """Working-precision moments at candidate ``i`` for the synced design.

        Raises ``NonPositivePivot`` like ``FittedPosterior.moments`` when the
        variance is negative beyond the cancellation budget.
        """
        fitted = self._fitted
        mp = fitted.ctx.mp
        prec, rnd = mp._prec_rounding
        mean = mp.make_mpf(mpf_pos(self._mean[i], prec, rnd))
        variance = mp.make_mpf(mpf_pos(self._var[i], prec, rnd))
        return _checked_moments(fitted.ctx, self.points[i], mean, variance, fitted._clamp_threshold)

    def remove(self, i) -> None:
        """Take candidate ``i`` out of the set (it joined the design)."""
        del self.points[i], self._g[i], self._z[i], self._var[i], self._mean[i]


_ORACLE_MAX_DESIGN = 8


def variance_spectral_oracle(state: TrajectoryState, x, ctx: PrecisionContext):
    """The conditional variance as a spectral-domain least-squares distance.

    Computes the interpolation weights lambda = G^-1 g and evaluates

        integral of |e^{ixt} - sum_k lambda_k e^{i x_k t}|^2 Ghat(t) dt

    by direct quadrature.  This is an independent cross-check of the
    Gram-formula variance (the weights are a stationary point of the
    quadratic, so their rounding does not move the value to first order).
    The integrand's terms reach lam_scale^2 Ghat while the integral is the
    variance, so it runs in ``quadrature_context`` with
    log10(lam_scale^2 G(0) / variance) digits added, the variance read from
    the Gram formula being checked (a zero variance falls back to the
    working precision).  Designs are capped at 8 points to keep the oracle
    affordable.  The Ornstein-Uhlenbeck kernel is refused before any fit:
    tanh-sinh does not converge on its polynomially decaying integrand.
    """
    kernel = state.kernel
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        raise VariantUnsupported(
            "the spectral variance oracle needs a super-exponentially decaying "
            "density; the Ornstein-Uhlenbeck kernel has none"
        )
    if state.size > _ORACLE_MAX_DESIGN:
        raise EILabError(
            f"spectral variance oracle supports designs of at most "
            f"{_ORACLE_MAX_DESIGN} points, got {state.size}"
        )
    mp = ctx.mp
    x = mp.mpf(x)
    fitted = FittedPosterior(state)
    lam = fitted.weights(x)
    variance = fitted.moments(x).variance
    lam_scale = 1 + sum(abs(lk) for lk in lam)
    if variance > 0:
        cancel = max(0, int(mp.ceil(mp.log10(lam_scale**2 * covariance(kernel, 0, ctx) / variance))))
    else:
        cancel = ctx.digits - ctx.digits // 2
    qp = quadrature_context(ctx, cancel)
    xq = qp.mpf(x)
    terms = [(qp.mpf(lk), qp.mpf(pk)) for lk, pk in zip(lam, state.points)]

    def integrand(t):
        d, e = qp.cos_sin(xq * t)
        for lk, pk in terms:
            c, s = qp.cos_sin(pk * t)
            d -= lk * c
            e -= lk * s
        return (d * d + e * e) * spectral_density(kernel, t, qp)

    budget = 2 * ctx.digits + ctx.guard_digits
    points = spectral_breakpoints(kernel, ctx, budget, lam_scale)
    return 2 * integrate(ctx, integrand, points, floor=ctx.tol(-budget), extra_digits=cancel)
