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

from .errors import DuplicatePoint, EILabError, NonPositivePivot
from .kernels import KernelSpec, OrnsteinUhlenbeckKernel, covariance, spectral_density, _params, _power_tail_cutoff
from .linalg import CholeskyFactor, _solve_lower, _solve_upper_t
from .precision import PrecisionContext
from .quadrature import integrate


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
        n = len(self.points)
        for i in range(n):
            for j in range(i + 1, n):
                if self.points[i] == self.points[j]:
                    raise DuplicatePoint(
                        f"design points {i} and {j} coincide exactly"
                    )
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
    """Return the state extended by one evaluation; best is kept current."""
    ctx = state.ctx
    x = ctx.mpf(x)
    if any(x == p for p in state.points):
        raise DuplicatePoint(f"point {ctx.to_str(x, 30)} is already in the design")
    v = ctx.mpf(f_x)
    best = state.best if state.best <= v else v
    return TrajectoryState(
        kernel=state.kernel,
        ctx=state.ctx,
        points=state.points + (x,),
        values=state.values + (v,),
        best=best,
    )


def _covariance_fn(kernel, ctx):
    """A fast closure over the resolved kernel parameters."""
    mp = ctx.mp
    if kernel.variant == "gaussian":
        _, _, pref, four_a = _params(kernel, mp)
        return lambda x: pref * mp.exp(-x * x / four_a)
    if kernel.variant == "ou":
        theta, gamma = _params(kernel, mp)
        return lambda x: gamma * mp.exp(-theta * abs(x))
    return lambda x: covariance(kernel, x, ctx)


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
    """

    def __init__(self, state: TrajectoryState, jitter: bool = False):
        ctx = state.ctx
        mp = ctx.mp
        cov = _covariance_fn(state.kernel, ctx)
        pts = state.points
        n = len(pts)
        gram = [[cov(pts[i] - pts[j]) for j in range(n)] for i in range(n)]
        factor = CholeskyFactor(gram, ctx, jitter=jitter)
        self.jitter_used = factor.jitter_used
        self.solve_dps = factor.solve_dps
        smp = factor.solve_mp
        self.state = state
        self.ctx = ctx
        self._cov = cov
        self._factor = factor
        self._lower = factor.lower
        self._smp = smp
        self._same_mp = smp is mp
        values = list(state.values)
        # w = L^-1 f feeds the incremental mean; beta = G^-1 f the direct one.
        self._w_hi = _solve_lower(smp, self._lower, values if self._same_mp else [smp.mpf(v) for v in values])
        self._beta_hi = _solve_upper_t(smp, self._lower, self._w_hi)
        self._g0_hi = smp.mpf(cov(mp.mpf(0)))
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
        cov = self._cov
        g = [cov(x - p) for p in pts]
        smp = self._smp
        g_hi = g if self._same_mp else [smp.mpf(v) for v in g]
        z = _solve_lower(smp, self._lower, g_hi)
        var_hi = self._g0_hi
        for zi in z:
            var_hi -= zi * zi
        mean_hi = smp.mpf(0)
        for gi, bi in zip(g_hi, self._beta_hi):
            mean_hi += gi * bi
        return _checked_moments(ctx, x, mp.mpf(mean_hi), mp.mpf(var_hi), self._clamp_threshold)

    def weights(self, x):
        """Interpolation weights lambda = G^-1 g(x) at working precision."""
        mp = self.ctx.mp
        x = mp.mpf(x)
        cov = self._cov
        g = [cov(x - p) for p in self.state.points]
        return self._factor.solve(g)


class CandidatePosterior:
    """Posterior moments over a fixed candidate set, kept across a growing design.

    For each candidate c the state holds z(c) = L^-1 g(c), the variance
    G(0) - sum z^2 and the mean sum z_j w_j with w = L^-1 f, at the solve
    precision of the factor it was last synced to.  When the design gains
    one point x_K, ``sync`` costs one covariance and K multiply-adds per
    candidate: the new forward-substitution entry

        z_K(c) = (G(c - x_K) - sum_{j<K} L_{K,j} z_j(c)) / L_{K,K}

    (the bordered Cholesky factor organised by column; Rasmussen & Williams,
    GPML 2006, sec. 2.2 and Alg. 2.1).  The leading rows of L do not change
    when a point is appended, so z and the variance are bit-identical to the
    direct forward solve of ``FittedPosterior.moments``; only the rounding
    order of the mean differs.  The state is rebuilt from scratch when the
    solve precision or the jitter changes, or when the design does not
    extend the previous one.  Values are raw ``mpf`` tuples combined with
    ``mpmath.libmp`` at the solve context's precision and rounding,
    exactly as the ``mpf`` operators combine them.  A state serves one run:
    one kernel and one precision context.
    """

    def __init__(self, points):
        self.points = list(points)
        self._fitted = None
        self._z = self._var = self._mean = None

    def __len__(self):
        return len(self.points)

    def sync(self, fitted: FittedPosterior) -> None:
        """Bring the state up to the design and factor of ``fitted``."""
        state, prev = fitted.state, self._fitted
        done = 0
        if prev is not None and (prev.solve_dps, prev.jitter_used) == (fitted.solve_dps, fitted.jitter_used):
            done = prev.state.size
            if state.points[:done] != prev.state.points or state.values[:done] != prev.state.values:
                done = 0
        if not done:
            # Free the old state before the new one grows.
            self._z = self._var = self._mean = None
            n = len(self.points)
            self._z = [[] for _ in range(n)]
            self._var = [fitted._g0_hi._mpf_] * n
            self._mean = [fzero] * n
        prec, rnd = fitted._smp._prec_rounding
        for k in range(done, state.size):
            self._advance(fitted, k, prec, rnd)
        self._fitted = fitted

    def _advance(self, fitted, k, prec, rnd):
        row = [v._mpf_ for v in fitted._lower[k][:k]]
        diag = fitted._lower[k][k]._mpf_
        w = fitted._w_hi[k]._mpf_
        xk = fitted.state.points[k]
        cov = fitted._cov
        zs, var, mean = self._z, self._var, self._mean
        for i, c in enumerate(self.points):
            z = zs[i]
            s = cov(c - xk)._mpf_
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
        del self.points[i], self._z[i], self._var[i], self._mean[i]


def posterior(state: TrajectoryState, x) -> PosteriorMoments:
    """Conditional moments at x from a fresh factorization of the design.

    A query that coincides exactly with a design point returns its observed
    value with zero variance before any factorization is attempted, so it
    succeeds even on designs too degenerate to factor.
    """
    mp = state.ctx.mp
    x = mp.mpf(x)
    for k, p in enumerate(state.points):
        if x == p:
            return PosteriorMoments(point=x, mean=state.values[k], variance=mp.mpf(0))
    return FittedPosterior(state).moments(x)


_ORACLE_MAX_DESIGN = 8


def variance_spectral_oracle(state: TrajectoryState, x, ctx: PrecisionContext):
    """The conditional variance as a spectral-domain least-squares distance.

    Computes the interpolation weights lambda = G^-1 g and evaluates

        integral of |e^{ixt} - sum_k lambda_k e^{i x_k t}|^2 Ghat(t) dt

    by direct quadrature.  This is an independent cross-check of the
    Gram-formula variance (the weights are a stationary point of the
    quadratic, so their rounding does not move the value to first order).
    Designs are capped at 8 points to keep the oracle affordable.
    """
    if state.size > _ORACLE_MAX_DESIGN:
        raise EILabError(
            f"spectral variance oracle supports designs of at most "
            f"{_ORACLE_MAX_DESIGN} points, got {state.size}"
        )
    mp = ctx.mp
    x = mp.mpf(x)
    fitted = FittedPosterior(state)
    lam = fitted.weights(x)
    pts = state.points
    kernel = state.kernel

    def integrand(t):
        d = mp.cos(x * t)
        e = mp.sin(x * t)
        for lk, pk in zip(lam, pts):
            d -= lk * mp.cos(pk * t)
            e -= lk * mp.sin(pk * t)
        return (d * d + e * e) * spectral_density(kernel, t, ctx)

    lam_scale = 1 + sum(abs(lk) for lk in lam)
    budget = 2 * ctx.digits + ctx.guard_digits
    if isinstance(kernel, OrnsteinUhlenbeckKernel):
        theta, _ = _params(kernel, mp)
        points = [0, theta, mp.inf]
    else:
        if kernel.variant == "gaussian":
            a, gamma, _, _ = _params(kernel, mp)
            b, amp = mp.mpf(2), gamma / (2 * mp.pi)
        else:
            a, b, c0, gamma = _params(kernel, mp)
            amp = gamma * c0
        cutoff = _power_tail_cutoff(
            mp, a, b, mp.log(amp * lam_scale * lam_scale), budget
        )
        points = [0, cutoff]
    value = 2 * integrate(ctx, integrand, points, floor=ctx.tol(-budget))
    return value
