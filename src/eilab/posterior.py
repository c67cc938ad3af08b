"""Conditional mean and variance of the Gaussian process given a design.

The conditional moments at a query point x are

    mean     = g^t G^-1 f
    variance = G(0) - g^t G^-1 g

with G the kernel Gram matrix of the design, g the covariance vector of x
against the design, and f the observed values.  Both come out of a single
factorization of G applied to the two right-hand sides.

Numerical contract: the Gram entries, g, and f are always evaluated at the
context's working precision, and every moment read is solved at the
elevated solve precision of ``CholeskyFactor`` and rounded to working
precision (the one tier ``CandidatePosterior`` keeps solves at working
precision, and is only scored within its error bounds).  Keeping the
*entries* at working precision is deliberate: with the objective f = -G
the value vector is then bit-identical to a column of G, and the
interpolation identity mean(x) = -G(x) survives in floating point instead
of being destroyed by entry-level rounding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from mpmath.libmp import fone, fzero, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_pos, mpf_sub

from .errors import EILabError, NonPositivePivot, require_distinct
from .kernels import (
    KernelSpec,
    covariance,
    covariance_column,
    ou_correlations,
    resolve_param,
    spectral_breakpoints,
    spectral_density,
    spectral_power_law,
)
from .linalg import CholeskyFactor, check_pivot_floor, conditioning, forward_substitution, substitution_entry
from .precision import PrecisionContext, pack, unpack
from .quadrature import integrate, quadrature_context


@dataclass(frozen=True)
class PosteriorMoments:
    """Conditional mean and variance at one query point; a clamped variance reads 0."""

    point: object
    mean: object
    variance: object


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


class FittedPosterior:
    """One factorization of the design Gram matrix, reusable across queries.

    Building this object performs the only factorization; ``moments`` then
    costs K covariance evaluations and one forward substitution per query.
    Under a Gaussian kernel those K covariances take K + 1 exponentials,
    for the fit keeps D(x_k) = e^(-x_k^2/4a) of each design point: shared
    with the fits that extend it, and evaluated on first use by a candidate
    column (``kernels.covariance_column``).  Apart from that cache the
    object is not modified after construction, and it is not safe to
    query from several threads: its arithmetic runs in the process-wide
    mpmath context of its precision, whose precision ``mp.quad`` raises
    while it integrates (see ``precision``), and the covariance of a
    spectral-power kernel with b != 2 integrates in that very context
    (``covariance_by_quadrature``).  Raises ``NonPositivePivot`` when the
    design is numerically degenerate at the context's precision.

    ``extends`` may be the fit of an earlier design of the same run (same
    kernel, context and jitter) that this design extends.  Only the Gram
    rows of the new points are evaluated (the lower triangle) and the
    factor is extended by them; when the solve precision is unchanged, so
    is w = L^-1 f, by its new entries only.  The result is bit for bit the
    fresh fit.
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
        self.solve_dps = factor.solve_dps
        self.state = state
        self.ctx = ctx
        self._factor = factor
        # w = L^-1 f: the mean at c is z(c) . w (see ``CandidatePosterior``).
        # The leading entries of a fit extended at the same solve precision
        # are its own.
        leading = extends._w_hi if extends and extends.solve_dps == factor.solve_dps else ()
        self._w_hi = factor.solve_lower(state.values, leading)
        # w against the working-precision factor, for the working tier of a
        # candidate state; never re-solved, for its rows never change.
        if factor.solve_mp is ctx.mp:
            self._w = self._w_hi
        else:
            self._w = forward_substitution(ctx.mp, factor.working_lower, state.values, extends._w if extends else ())
        self._g0_hi = factor.solve_mp.mpf(covariance(kernel, 0, ctx))
        # e^(-x_k^2/4a) per design point of a Gaussian kernel, shared along
        # the fits one run extends and filled by the candidate columns.
        self._decay = extends._decay if extends else {}

    def moments(self, x) -> PosteriorMoments:
        """Working-precision moments at ``x``: at a design point its observed
        value with zero variance, elsewhere those of the one-candidate
        ``CandidatePosterior`` synced to this fit, read exactly: its column
        is kept and solved at the solve precision only, with no working
        tier (``CandidatePosterior._sync_columns``)."""
        mp = self.ctx.mp
        x = mp.mpf(x)
        for k, p in enumerate(self.state.points):
            if x == p:
                return PosteriorMoments(point=x, mean=self.state.values[k], variance=mp.mpf(0))
        candidate = CandidatePosterior([x])
        candidate._sync_columns(self)
        return candidate.moments(0)

    def working_error(self):
        """(E_mean, E_var): first-order bounds, raw working-precision
        tuples, on how far a candidate's mean and variance solved against
        the working-precision factor (the working tier of
        ``CandidatePosterior``) sit from the exact ones.

        E_var = E G(0) and E_mean = E sqrt(G(0)) |w|, with E the factor's
        ``working_error``: |z|^2 <= G(0) for z = L^-1 g(c) at every c.  An
        exact read's own error is that bound at the solve precision, smaller
        by 10^(working_dps - solve_dps) <= 10^-15, plus its rounding to
        working precision, and E takes u at twice the unit roundoff.
        """
        mp = self.ctx.mp
        g0 = mp.mpf(self._g0_hi)
        error = self._factor.working_error()
        return (error * mp.sqrt(g0) * mp.sqrt(mp.fsum(w * w for w in self._w)))._mpf_, (error * g0)._mpf_

    def weights(self, x):
        """Interpolation weights lambda = G^-1 g(x) at working precision."""
        ctx = self.ctx
        x = ctx.mpf(x)
        g = [covariance(self.state.kernel, x - p, ctx) for p in self.state.points]
        return self._factor.solve(g)


class CandidatePosterior:
    """Posterior moments over a fixed candidate set, kept across a growing design.

    ``sync`` brings the state up to a design: it extends the fit of the
    last design synced by the new points' Gram rows (``FittedPosterior``
    with ``extends=``, jittered when the state was built with ``jitter``),
    and then each candidate's forward substitution.  After a sync the state
    gives the run its factor's pivot ratio (``condition``), solve precision
    (``solve_dps``) and ``jitter_used``.

    For each candidate c the state holds its covariance column g(c), the
    covariances against the design points at working precision, and
    z(c) = L^-1 g(c), the variance G(0) - sum z^2 and the mean sum z_j w_j
    with w = L^-1 f.  When the design gains one point x_K, ``sync`` costs
    one covariance and K exact products per candidate: the new column
    entries g_K(c) = G(c - x_K) of every candidate, from one
    ``kernels.covariance_column`` call, and the new forward-substitution
    entry

        z_K(c) = (g_K(c) - sum_{j<K} L_{K,j} z_j(c)) / L_{K,K}

    (the bordered Cholesky factor organised by column; Rasmussen & Williams,
    GPML 2006, sec. 2.2 and Alg. 2.1), ``linalg.substitution_entry``: its
    numerator exact and the division its one rounding, as in
    ``CholeskyFactor.solve_lower``.  The leading rows of L and entries of w
    do not change when a point is appended, so a state grown step by step
    holds bit for bit the z, variance and mean of a state synced once to
    the last fit.

    The z, variance and mean the state holds are the working tier: solved
    against the factor's working-precision rows
    (``CholeskyFactor.working_lower``) and w at working precision, one
    entry more per step, never re-solved.  While the fit solves at the
    working precision they are the exact moments.  While it solves above
    it, a read (``working_moments``, ``moments``, and ``screen`` where the
    working tier's error bounds, ``FittedPosterior.working_error``, cannot
    settle the score) solves the candidate's kept column against the
    factor at the solve precision and rounds the result to working
    precision (``_solve``), with no covariance evaluated again: bit for bit
    the value of an eager solve of every candidate.  That result is kept
    until the next sync or ``remove``, so a candidate is solved at most
    once per step; ``raised_solves`` counts the candidates solved at the
    raised precision since the last sync.  ``FittedPosterior.moments`` is
    the exact read of a one-candidate state.

    Every value the state keeps per candidate (column entry,
    forward-substitution entry, variance, mean and exact read) is one int,
    ``precision.pack`` of its raw ``mpf`` tuple: about 55 % of the tuple's
    memory.  The next z entry is formed from the packed ones
    (``linalg.substitution_entry``), and the variance and mean updates
    round each product and each sum at working precision.
    ``working_moments`` reads them as raw tuples for the whole set at once;
    ``moments`` wraps one candidate's in ``PosteriorMoments``.  A state
    serves one run: one kernel, one precision context, and one design that
    only grows.

    Under a Gaussian kernel the state also keeps D(c) = e^(-c^2/4a), one
    per mirror pair +-c, for the whole run, so each column costs one
    exponential per pair and one for the new design point (see
    ``kernels.covariance_column``).  An entry's bits depend only on the
    kernel, the context, c and x_K, so they are those of the one-candidate
    state whatever else the set holds.

    The state also keeps the EI argmax's float screen (``screen``): each
    candidate's last score and clamp flag, and the f* they were scored
    against.  A sync marks the candidates whose moments it changed, every
    one here, so that the next screen scores only those.
    """

    # Whether a read solves exactly: the synced factor's solve precision is
    # above the working one.
    _tiered = False

    def __init__(self, points, jitter=False):
        self.points = list(points)
        self.jitter_used = bool(jitter)
        self._state = self._fitted = None
        self._g = self._z = self._var = self._mean = None
        # (mean, variance), packed, of each candidate read exactly since the
        # last sync or ``remove`` (``_solve``)
        self._solved = {}
        self.raised_solves = 0
        # e^(-p^2/4a) per mirror pair +-p of a Gaussian kernel, for the run.
        self._decay = {}
        # The kept screen; a clamp flag of None marks a candidate whose
        # moments changed since it was scored.
        self._log_ei = [None] * len(self.points)
        self._clamped = [None] * len(self.points)
        self._screen_fstar = None

    def __len__(self):
        return len(self.points)

    def sync(self, state: TrajectoryState):
        """Bring the state up to the design ``state``.

        ``state`` is the first design synced, or one whose points and values
        extend those of the last; ``EILabError`` is raised otherwise, before
        anything is evaluated.  Raises ``NonPositivePivot`` when the extended
        factor fails the pivot floor.  Returns the number of covariances
        evaluated for the candidates and whether the solve precision rose.
        """
        kept = self._kept(state)
        return self._sync(FittedPosterior(state, jitter=self.jitter_used, extends=self._fitted), kept)

    def _kept(self, state):
        """The size of the design last synced (0 before the first sync),
        after checking that ``state`` extends its points and values."""
        prev = self._state
        kept = prev.size if prev else 0
        if kept and (state.points[:kept], state.values[:kept]) != (prev.points, prev.values):
            raise EILabError("the design does not extend the last synced one")
        return kept

    def _sync(self, fitted, kept):
        """``sync`` to the fit ``fitted`` of a design whose first ``kept``
        points the state holds."""
        state, prev = fitted.state, self._fitted
        n = len(self.points)
        if not kept:
            self._g, self._z = [[]] * n, [[]] * n
            self._var = [pack(fitted._g0_hi._mpf_)] * n
            self._mean = [pack(fzero)] * n
        for k in range(kept, state.size):
            self._advance(fitted, k)
        self._state, self._fitted = state, fitted
        self.condition, self.solve_dps = fitted._factor.pivot_ratio, fitted.solve_dps
        self._tiered = fitted.solve_dps != fitted.ctx.working_dps
        self._solved.clear()
        self.raised_solves = 0
        self._clamped = [None] * n
        return n * (state.size - kept), prev is not None and fitted.solve_dps != prev.solve_dps

    def _advance(self, fitted, k):
        """Add the working-precision forward-substitution entry ``k`` for
        every candidate, from column entry k, evaluated here for every
        candidate in one ``covariance_column`` call and kept.  Each raw
        entry is dropped from the call's list once it is packed, so the
        list does not outlive the step's new values.  A candidate's column
        and z lists are rebuilt at their new length, not appended to, which
        would leave them spare slots."""
        state = fitted.state
        row, w = fitted._factor.working_lower[k], fitted._w[k]._mpf_
        prec, rnd = fitted.ctx.mp._prec_rounding
        columns, zs, var, mean = self._g, self._z, self._var, self._mean
        column = covariance_column(state.kernel, state.points[k], self.points, fitted.ctx, self._decay, fitted._decay)
        for i, s in enumerate(column):
            column[i] = None
            columns[i] = [*columns[i], pack(s)]
            entry, v, m = _substitute(s, row, w, prec, rnd, zs[i], unpack(var[i]), unpack(mean[i]))
            zs[i], var[i], mean[i] = [*zs[i], entry], pack(v), pack(m)

    def _sync_columns(self, fitted):
        """Keep only the columns of the design of the fit ``fitted``, so
        that every read solves exactly (``_solve``), with no working tier:
        the one-candidate state of ``FittedPosterior.moments``."""
        state = fitted.state
        columns = self._g = [[]] * len(self.points)
        for x in state.points:
            for i, s in enumerate(covariance_column(state.kernel, x, self.points, fitted.ctx, self._decay, fitted._decay)):
                columns[i] = [*columns[i], pack(s)]
        self._state, self._fitted, self._tiered = state, fitted, True

    def _solve(self, i):
        """Candidate ``i``'s (mean, variance), raw tuples: solved from its
        kept column against the synced fit's solve-precision factor and
        rounded to working precision, and kept until the next sync or
        ``remove``."""
        solved = self._solved.get(i)
        if solved is not None:
            return unpack(solved[0]), unpack(solved[1])
        fitted = self._fitted
        prec, rnd = fitted._factor.solve_mp._prec_rounding
        z, var, mean = [], fitted._g0_hi._mpf_, fzero
        for row, w, g in zip(fitted._factor.lower, fitted._w_hi, self._g[i]):
            entry, var, mean = _substitute(unpack(g), row, w._mpf_, prec, rnd, z, var, mean)
            z.append(entry)
        prec, rnd = fitted.ctx.mp._prec_rounding
        mean, variance = mpf_pos(mean, prec, rnd), mpf_pos(var, prec, rnd)
        self._solved[i] = pack(mean), pack(variance)
        self.raised_solves += 1
        return mean, variance

    def working_moments(self, indices=None):
        """Yield (mean, variance, clamped) at working precision, as raw mpf
        tuples, for the candidates at ``indices`` (every one, in index
        order, by default) for the synced design: while the fit solves above
        working precision, each read exactly (``_solve``).

        A negative variance is cancellation roundoff: it is clamped to zero
        and flagged.  Below -10**(-digits + 2 guard), the level that marks
        precision exhaustion rather than benign roundoff, it raises
        ``NonPositivePivot`` when its candidate is reached.
        """
        ctx = self._state.ctx
        mp = ctx.mp
        budget = mpf_neg(ctx.tol(-(ctx.digits - 2 * ctx.guard_digits))._mpf_)
        means, variances, tiered = self._mean, self._var, self._tiered
        for i in range(len(self.points)) if indices is None else indices:
            mean, variance = self._solve(i) if tiered else (unpack(means[i]), unpack(variances[i]))
            if not variance[0]:
                yield mean, variance, False
            elif mpf_lt(variance, budget):
                raise NonPositivePivot(
                    f"posterior variance {mp.nstr(mp.make_mpf(variance), 6)} at "
                    f"{mp.nstr(self.points[i], 12)} is negative beyond the cancellation "
                    "budget: design too degenerate at this precision"
                )
            else:
                yield mean, fzero, True

    def moments(self, i) -> PosteriorMoments:
        """Working-precision moments at candidate ``i`` for the synced design,
        those of ``working_moments``.

        Raises ``NonPositivePivot`` when the variance is negative beyond the
        cancellation budget.
        """
        ((mean, variance, _),) = self.working_moments((i,))
        mp = self._state.ctx.mp
        return PosteriorMoments(point=self.points[i], mean=mp.make_mpf(mean), variance=mp.make_mpf(variance))

    def screen(self, fstar, score):
        """Every candidate's float score against f* ``fstar``, in index
        order, with the clamp count and the number of candidates scored.

        ``fstar`` is a raw mpf tuple.  ``score(mean, variance)`` scores a
        candidate's raw working moments; ``score.within(error)``, ``error``
        being (E_mean, E_var) of ``FittedPosterior.working_error``, gives
        the scorer of its working-tier ones, which gives None when those
        bounds cannot settle the score.  Only the candidates whose moments
        changed since the last screen are scored; every candidate is when
        ``fstar`` is not the last screen's.  While a read solves exactly, a
        candidate whose working variance exceeds E_var, so that its exact
        variance is positive (no clamp, no abort), is scored from its
        working moments when they settle the score.  Every other is read
        from ``working_moments``, in index order, which raises
        ``NonPositivePivot`` as it does.  Candidates not scored keep their
        score and clamp flag, so the count equals that of a screen of the
        whole set read exactly, and each score that of the exact moments to
        within the settled slack.  The list is the state's own, valid until
        the next sync or ``remove``.
        """
        log_ei, clamped = self._log_ei, self._clamped
        if fstar == self._screen_fstar:
            indices = [i for i, flag in enumerate(clamped) if flag is None]
        else:
            indices = range(len(clamped))
        pending = indices
        if self._tiered:
            error = self._fitted.working_error()
            bounded = score.within(error)
            means, variances = self._mean, self._var
            pending = []
            for i in indices:
                variance = unpack(variances[i])
                if mpf_lt(error[1], variance):
                    value = bounded(unpack(means[i]), variance)
                    if value is not None:
                        log_ei[i], clamped[i] = value, False
                        continue
                pending.append(i)
        for i, (mean, variance, flag) in zip(pending, self.working_moments(pending)):
            log_ei[i], clamped[i] = score(mean, variance), flag
        self._screen_fstar = fstar
        return log_ei, sum(clamped), len(indices)

    def remove(self, i) -> None:
        """Take candidate ``i`` out of the set (it joined the design)."""
        del self.points[i], self._g[i], self._z[i], self._var[i], self._mean[i]
        del self._log_ei[i], self._clamped[i]
        self._solved.clear()


def _substitute(s, row, w, prec, rnd, z, var, mean):
    """The forward-substitution entry after the packed entries ``z``, from
    column entry ``s`` and the factor row ``row`` (its diagonal last),
    packed, and ``var`` and ``mean`` moved by it, with ``w`` the matching
    entry of L^-1 f: raw tuples, each operation rounded at ``prec``."""
    s = substitution_entry(s, row, z, prec, rnd)
    return pack(s), mpf_sub(var, mpf_mul(s, s, prec, rnd), prec, rnd), mpf_add(mean, mpf_mul(s, w, prec, rnd), prec, rnd)


def _bridge_variance(gamma, left, right, q_lr, prec, rnd):
    """gamma q_l q_r / Q from the (rho, q) pairs towards the left and right
    neighbour and the gap's Q, raw tuples, each product and the quotient
    rounded once."""
    return mpf_div(mpf_mul(mpf_mul(gamma, left[1], prec, rnd), right[1], prec, rnd), q_lr, prec, rnd)


class MarkovPosterior(CandidatePosterior):
    """``CandidatePosterior`` for the unjittered Ornstein-Uhlenbeck kernel,
    by the Markov closed form, with no Gram matrix.

    The Ornstein-Uhlenbeck process is Markov (Rasmussen & Williams, GPML
    2006, App. B; Hartikainen & Sarkka, IEEE MLSP 2010), so the moments at
    a candidate c depend only on its design neighbours x_l < c < x_r.  With
    rho_l = e^(-theta (c - x_l)), rho_r = e^(-theta (x_r - c)) and
    q = 1 - rho^2,

        variance = gamma q_l q_r / Q,   mean = (rho_l q_r f_l + rho_r q_l f_r) / Q,

    Q = 1 - rho_l^2 rho_r^2 = 1 - e^(-2 theta (x_r - x_l)); beyond the
    design's hull they are gamma q and rho f of the nearest point.  The
    lags are exact, rho, q and Q come from ``kernels.ou_correlations``
    without cancellation, and each product and quotient is rounded once at
    working precision: the moments are working-precision values, never
    negative, and agree with the fit's Cholesky moments to roundoff, not bit
    for bit.  They are kept packed as ``CandidatePosterior`` keeps its own,
    so the readers it shares with that state read both alike; the (rho, q)
    pairs below, read only by the sync, stay raw tuples.

    The candidates stay sorted (``CandidateGrid.points`` gives them so, and
    ``remove`` keeps the order), and so does the design.  Each candidate
    keeps its (rho, q) pair towards either neighbour, and each gap of the
    design its Q.  A sync that adds x_K finds by bisection the candidates
    between the neighbours x_K had before it arrived, and recomputes only
    those: the pair towards x_K (one exponential each) and the moments, and
    it marks only those for the next ``screen``.  x_K's own pairs towards
    those neighbours (one exponential each) give the Q of the two new gaps.

    The state also keeps the Cholesky pivots of the design (``pivots``, in
    insertion order).  Pivot K is the variance at x_K given x_1..x_{K-1}
    (GPML 2006, sec. 2.2 and App. A): the bridge variance between x_K's old
    neighbours, from x_K's pairs and the old gap's Q, and gamma for the
    first point.  Each is held to the pivot floor of ``linalg`` at scale
    gamma (``check_pivot_floor``), and ``condition`` and ``solve_dps``
    follow from them (``linalg.conditioning``), so a sync evaluates no
    covariance and builds no fit.  The state has no jitter: a jittered
    posterior is not the Markov bridge.
    """

    def __init__(self, points):
        # no jitter: a jittered posterior is not the Markov bridge
        super().__init__(points)

    def sync(self, state: TrajectoryState):
        """Bring the moments and pivots up to the design ``state``, refused
        with ``EILabError`` as ``CandidatePosterior.sync`` refuses it.

        Raises ``NonPositivePivot`` when a new pivot fails the floor, after
        which the state serves no further sync.  Returns (0, False): no
        covariance evaluated or re-solved.
        """
        kept = self._kept(state)
        ctx, kernel, points, n = state.ctx, state.kernel, self.points, len(self.points)
        mp = ctx.mp
        prec, rnd = mp._prec_rounding
        if not kept:
            self._xs, self._fs, self.pivots = [], [], []
            # Q of each gap of the sorted design; the two beyond the hull read 1
            self._gaps = [fone]
            # (rho, q) towards each candidate's left and right neighbour
            self._left, self._right = [(fzero, fone)] * n, [(fzero, fone)] * n
            self._mean, self._var = [None] * n, [None] * n
        xs, pivots = self._xs, self.pivots
        gamma = resolve_param(kernel.gamma, mp)._mpf_
        scale, unit = mp.make_mpf(gamma), mp.mpf(10) ** (-ctx.working_dps)
        for x, f in zip(state.points[kept:], state.values[kept:]):
            j = bisect_left(xs, x)
            lo = bisect_right(points, xs[j - 1]) if j else 0
            hi = bisect_left(points, xs[j]) if j < len(xs) else n
            split = bisect_right(points, x, lo, hi)
            # x's pairs towards its old neighbours give its pivot and the Q
            # of the two gaps it splits the old one into (mpf_sub rounds
            # nothing at its default precision 0: the lags are exact)
            xr = x._mpf_
            left = ou_correlations(kernel, [mpf_sub(xr, xs[j - 1]._mpf_)], ctx)[0] if j else (fzero, fone)
            right = ou_correlations(kernel, [mpf_sub(xs[j]._mpf_, xr)], ctx)[0] if j < len(xs) else (fzero, fone)
            pivot = mp.make_mpf(_bridge_variance(gamma, left, right, self._gaps[j], prec, rnd))
            check_pivot_floor(mp, len(pivots), pivot, pivots, scale, unit)
            pivots.append(pivot)
            self._gaps[j : j + 1] = [left[1], right[1]]
            xs.insert(j, x)
            self._fs.insert(j, f._mpf_)
            # x is the new right neighbour of the candidates below it and
            # the new left one of those above: one exponential each
            self._right[lo:split] = ou_correlations(kernel, [mpf_sub(xr, c._mpf_) for c in points[lo:split]], ctx)
            self._left[split:hi] = ou_correlations(kernel, [mpf_sub(c._mpf_, xr) for c in points[split:hi]], ctx)
            self._bridge(gamma, j - 1, lo, split, prec, rnd)
            self._bridge(gamma, j, split, hi, prec, rnd)
        self._state = state
        self.condition, self.solve_dps = conditioning(pivots, ctx)
        return 0, False

    def _bridge(self, gamma, l, lo, hi, prec, rnd):
        """Moments of candidates lo..hi-1, which lie between the sorted
        design points l and l + 1, from their kept (rho, q) pairs, the
        gap's Q and the kernel's ``gamma`` (a raw tuple), marked for the
        next screen.  -1 and the design size stand for beyond the hull,
        where that side's pair reads rho = 0 and q = 1, and Q = 1."""
        xs, fs, r = self._xs, self._fs, l + 1
        f_l, f_r = fs[l] if l >= 0 else fzero, fs[r] if r < len(xs) else fzero
        q_lr = self._gaps[r]
        self._clamped[lo:hi] = [None] * (hi - lo)

        def mul(a, b):
            return mpf_mul(a, b, prec, rnd)

        for i in range(lo, hi):
            (rho_l, q_l), (rho_r, q_r) = left, right = self._left[i], self._right[i]
            self._var[i] = pack(_bridge_variance(gamma, left, right, q_lr, prec, rnd))
            mean = mpf_add(mul(mul(rho_l, q_r), f_l), mul(mul(rho_r, q_l), f_r), prec, rnd)
            self._mean[i] = pack(mpf_div(mean, q_lr, prec, rnd))

    def remove(self, i) -> None:
        del self.points[i], self._left[i], self._right[i], self._var[i], self._mean[i], self._log_ei[i], self._clamped[i]


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
    working precision).

    At b = 2 (the Gaussian density) the integrand is even and entire, and
    ``integrate`` takes the trapezoidal rule at step
    h = pi / (W + sqrt(a (dps + 10) ln 10)), W = 2 max |x - x_k| bounding
    its frequencies and dps the quadrature precision.  By Poisson summation
    its error is the integrand's Fourier transform at the multiples of
    2 pi / h, a sum of Gaussians of width sqrt(a) centred within W of 0: at
    this step about 10^-(dps + 10).  At b != 2, |t|^b is not analytic at 0
    and the oracle keeps tanh-sinh.  Designs are capped at 8 points to keep
    the oracle affordable.  The Ornstein-Uhlenbeck kernel is refused before
    any fit: neither rule converges on its polynomially decaying integrand.
    """
    kernel = state.kernel
    # Raises VariantUnsupported for the Ornstein-Uhlenbeck kernel.
    a, b, _ = spectral_power_law(kernel, ctx.mp)
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

    step = None
    if b == 2:
        width = 2 * max(abs(x - p) for p in state.points)
        step = mp.pi / (width + mp.sqrt(a * (qp.dps + 10) * mp.ln10))
    budget = 2 * ctx.digits + ctx.guard_digits
    points = spectral_breakpoints(kernel, ctx, budget, lam_scale)
    return 2 * integrate(ctx, integrand, points, floor=ctx.tol(-budget), extra_digits=cancel, step=step)
