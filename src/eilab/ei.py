"""Expected improvement: closed form, quadrature oracle, and the run loop.

The acquisition value at a query point x with conditional moments (m, s) and
incumbent best f* is

    EI(x) = (f* - m) Phi(u) + s phi(u),      u = (f* - m) / s,

with phi/Phi the standard normal density and distribution function.  Phi is
evaluated through the complementary error function, and when |u| is large the
whole expression is recomputed at a precision raised by ~2 log10|u| digits:
the two terms then cancel to relative size 1/u^2, and the bump keeps the
result accurate to the context's working precision instead of losing those
digits.  At design points (s = 0) the value is exactly zero by definition.

The candidate grid is the log-spaced set {+-e^{-l eps} : l = 0..l_max}; the
next point of a run is the grid argmax of EI, with exact ties broken toward
smaller |x| and then toward the negative sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EILabError, EmptyGrid, NonPositivePivot, UnknownObjective
from .kernels import KernelSpec, covariance
from .posterior import CandidatePosterior, FittedPosterior, PosteriorMoments, TrajectoryState, add_point
from .precision import PrecisionContext, raw_context
from .quadrature import integrate


@dataclass(frozen=True)
class CandidateGrid:
    """Log-scale candidate set {+e^{-l eps}, -e^{-l eps} : l = 0..l_max}.

    ``extra_points`` are appended verbatim (values outside [-1, 1] are
    dropped); the generated set is deduplicated and design points are
    filtered out before scoring.
    """

    epsilon: object = "0.02"
    l_max: int = 10**4
    extra_points: tuple = ()

    def __post_init__(self):
        if self.l_max < 0:
            raise EILabError("l_max must be nonnegative")

    def points(self, ctx: PrecisionContext):
        mp = ctx.mp
        eps = mp.mpf(self.epsilon)
        if not eps > 0:
            raise EILabError("grid epsilon must be positive")
        seen = set()
        out = []
        for l in range(self.l_max + 1):
            v = mp.exp(-l * eps)
            for cand in (v, -v):
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
        one = mp.mpf(1)
        for raw in self.extra_points:
            cand = mp.mpf(raw)
            if abs(cand) > one:
                continue
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
        out.sort()
        return out


@dataclass(frozen=True)
class EIEvaluation:
    """EI value and the posterior moments behind it at one candidate."""

    point: object
    ei: object
    moments: PosteriorMoments


def _ei_value(ctx: PrecisionContext, fstar, mean, sigma):
    mp = ctx.mp
    if sigma == 0:
        gap = fstar - mean
        return gap if gap > 0 else mp.mpf(0)
    u = (fstar - mean) / sigma
    au = abs(u)
    if au > 16:
        extra = int(2 * mp.log10(au)) + 8
        hp = raw_context(ctx.working_dps + extra)
        f_, m_, s_ = hp.mpf(fstar), hp.mpf(mean), hp.mpf(sigma)
        u_ = (f_ - m_) / s_
        phi = hp.exp(-u_ * u_ / 2) / hp.sqrt(2 * hp.pi)
        big_phi = hp.erfc(-u_ / hp.sqrt(2)) / 2
        value = mp.mpf((f_ - m_) * big_phi + s_ * phi)
    else:
        phi = mp.exp(-u * u / 2) / mp.sqrt(2 * mp.pi)
        big_phi = mp.erfc(-u / mp.sqrt(2)) / 2
        value = (fstar - mean) * big_phi + sigma * phi
    return value if value > 0 else mp.mpf(0)


def expected_improvement(state: TrajectoryState, x, fitted: FittedPosterior | None = None) -> EIEvaluation:
    """Closed-form EI at x.

    ``fitted`` may carry a pre-built factorization of the current design
    (grid scoring reuses one across all candidates); otherwise a fresh one
    is constructed.
    """
    ctx = state.ctx
    mp = ctx.mp
    if fitted is None:
        fitted = FittedPosterior(state)
    moments = fitted.moments(x)
    sigma = mp.sqrt(moments.variance)
    value = _ei_value(ctx, state.best, moments.mean, sigma)
    return EIEvaluation(point=moments.point, ei=value, moments=moments)


def ei_integral_oracle(state: TrajectoryState, x, ctx: PrecisionContext):
    """EI by direct quadrature of the improvement expectation.

    With h = (m - f*) / s, valid for either sign of h:

        EI = s / sqrt(2 pi) * integral_0^inf w exp(-(w + h)^2 / 2) dw,

    truncated where the integrand falls below the working roundoff.
    Requires s > 0 (use the closed-form definition at design points).
    """
    mp = ctx.mp
    moments = FittedPosterior(state).moments(x)
    sigma = mp.sqrt(moments.variance)
    if sigma == 0:
        raise EILabError("integral oracle needs positive posterior variance")
    h = (moments.mean - state.best) / sigma
    budget = mp.mpf(ctx.working_dps + 10) * mp.log(10)
    upper = max(mp.mpf(0), -h) + mp.sqrt(2 * budget) + 5
    peak = (-h + mp.sqrt(h * h + 4)) / 2
    points = [0, peak, upper] if peak < upper else [0, upper]
    # exp(-(w+h)^2/2) = exp(-h^2/2) * exp(-wh - w^2/2); integrating the
    # right-hand factor keeps the integrand scale near 1 for large |h|.
    integrand = lambda w: mp.exp(-w * h - w * w / 2) * w
    val = integrate(ctx, integrand, points)
    return sigma / mp.sqrt(2 * mp.pi) * mp.exp(-h * h / 2) * val


def _tie_key(x):
    return (abs(x), 0 if x < 0 else 1)


def _grid_candidates(state: TrajectoryState, grid: CandidateGrid) -> CandidatePosterior:
    design = set(state.points)
    return CandidatePosterior(c for c in grid.points(state.ctx) if c not in design)


def argmax_ei(state: TrajectoryState, grid: CandidateGrid) -> EIEvaluation:
    """Score EI on every grid candidate and return the maximizer.

    Ties within relative 10**-(digits/2) of the maximum are broken toward
    smaller |x|, then toward the negative sign; the result is independent of
    scoring order.
    """
    best, _, _ = _argmax(FittedPosterior(state), _grid_candidates(state, grid))
    return best


def _argmax(fitted: FittedPosterior, candidates: CandidatePosterior):
    """EI argmax over ``candidates`` synced to ``fitted``.

    Returns the winner's evaluation, the number of clamped variances and the
    winner's index in ``candidates``.
    """
    if not candidates:
        raise EmptyGrid("no candidates remain after filtering design points")
    candidates.sync(fitted)
    ctx = fitted.ctx
    mp = ctx.mp
    fstar = fitted.state.best
    values = []
    clamps = 0
    for i in range(len(candidates)):
        moments = candidates.moments(i)
        clamps += moments.clamped
        values.append(_ei_value(ctx, fstar, moments.mean, mp.sqrt(moments.variance)))
    top = max(values)
    slack = top * ctx.tol(-(ctx.digits // 2))
    points = candidates.points
    best = None
    for i, value in enumerate(values):
        if value + slack >= top and (best is None or _tie_key(points[i]) < _tie_key(points[best])):
            best = i
    moments = candidates.moments(best)
    return EIEvaluation(point=moments.point, ei=values[best], moments=moments), clamps, best


@dataclass(frozen=True)
class StepRecord:
    """Per-iteration diagnostics of a run."""

    size: int
    point: object
    value: object
    ei: object
    condition: object
    variance_clamps: int
    solve_dps: int
    jitter: bool = False


@dataclass(frozen=True)
class TrajectoryRun:
    """Outcome of a run: chosen evaluations, final state, abort tag.

    ``aborted_at`` is the design size whose Gram matrix failed to factor;
    the partial trajectory up to that point is always returned.
    """

    state: TrajectoryState
    chosen: tuple
    records: tuple
    aborted_at: int | None = None
    abort_reason: str | None = None

    @property
    def aborted(self) -> bool:
        return self.aborted_at is not None


_OBJECTIVES = ("neg_kernel", "neg_gauss")


def objective_function(name: str, kernel: KernelSpec, ctx: PrecisionContext):
    """Resolve a named objective to a callable f(x).

    ``neg_kernel`` is the negated covariance of the run's kernel (the
    collapse experiment); ``neg_gauss`` is the fixed bump -exp(-x^2),
    usable under any kernel (the consistency contrast).
    """
    if name == "neg_kernel":
        return lambda x: -covariance(kernel, x, ctx)
    if name == "neg_gauss":
        mp = ctx.mp
        return lambda x: -mp.exp(-mp.mpf(x) ** 2)
    raise UnknownObjective(
        f"unknown objective {name!r}; built-ins: {', '.join(_OBJECTIVES)}"
    )


def run_trajectory(
    kernel: KernelSpec,
    objective: str,
    x1,
    steps: int,
    grid: CandidateGrid,
    ctx: PrecisionContext,
    jitter: bool = False,
) -> TrajectoryRun:
    """Run ``steps`` EI iterations from the seed point x1.

    The grid is built once.  Each iteration factors the current Gram matrix
    once, brings the candidates' posterior state up to the new design (one
    covariance per candidate; see ``CandidatePosterior``), scores EI on every
    remaining candidate, appends the argmax, and evaluates the objective
    there.  On a factorization failure the run stops cleanly and returns the
    partial trajectory with the failing design size recorded.  ``jitter``
    turns on the exploratory diagonal shift (recorded per iteration); the
    default run never regularizes.
    """
    if steps < 1:
        raise EILabError(f"steps must be >= 1, got {steps}")
    mp = ctx.mp
    f = objective_function(objective, kernel, ctx)
    x1 = mp.mpf(x1)
    if abs(x1) > 1:
        raise EILabError("x1 must lie in [-1, 1]")
    state = TrajectoryState.start(kernel, ctx, x1, f(x1))
    records = [
        StepRecord(
            size=1,
            point=state.points[0],
            value=state.values[0],
            ei=None,
            condition=mp.mpf(1),
            variance_clamps=0,
            solve_dps=ctx.working_dps,
        )
    ]
    candidates = _grid_candidates(state, grid)
    chosen = []
    aborted_at = None
    abort_reason = None
    for _ in range(steps):
        try:
            fitted = FittedPosterior(state, jitter=jitter)
            best, clamps, index = _argmax(fitted, candidates)
        except NonPositivePivot as exc:
            aborted_at = state.size
            abort_reason = f"NonPositivePivot: {exc}"
            break
        candidates.remove(index)
        state = add_point(state, best.point, f(best.point))
        chosen.append(best)
        records.append(
            StepRecord(
                size=state.size,
                point=best.point,
                value=state.values[-1],
                ei=best.ei,
                condition=fitted.condition,
                variance_clamps=clamps,
                solve_dps=fitted.solve_dps,
                jitter=fitted.jitter_used,
            )
        )
    return TrajectoryRun(
        state=state,
        chosen=tuple(chosen),
        records=tuple(records),
        aborted_at=aborted_at,
        abort_reason=abort_reason,
    )
