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

The argmax screens the grid in floats first.  ln EI = ln s + ln tau(u), with
tau(u) = u Phi(u) + phi(u), is computed in double precision for every
candidate from the raw binary exponents of f* - m and s^2, so nothing
underflows however small EI gets (on the default run u reaches -1.6e23).
Only the candidates whose float ln EI lies within the margin
``_SCREEN_MARGIN`` of the float maximum, and those whose float value is not
finite, are scored with the closed form above; the maximum, the tie slack
and the tie-break are then taken over them exactly as over the whole grid.
The margin exceeds the float error by a factor above 10^4 and the tie slack
is below it, so every candidate left out is provably below the maximum by
more than the slack: the winner and its EI are those of the exhaustive
argmax.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import EILabError, EmptyGrid, NonPositivePivot, UnknownObjective
from .kernels import KernelSpec, covariance
from .posterior import CandidatePosterior, FittedPosterior, PosteriorMoments, TrajectoryState, add_point
from .precision import PrecisionContext, raw_context
from .quadrature import integrate, quadrature_context


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


def closed_form_at(ctx: PrecisionContext, t, closed_form, *args):
    """``closed_form(mp, *args)`` evaluated at a precision fit for the scale t.

    The Gaussian-tail closed forms here (EI, and the improvement tail
    integral of the verifier) subtract terms that agree to relative size
    ~1/t^2 once |t| is large.  For |t| > 16 the arguments are lifted exactly
    to a precision raised by int(2 log10|t|) + 8 digits, the form is
    evaluated there and the result rounded back to working precision;
    otherwise it runs at working precision.
    """
    mp = ctx.mp
    at = abs(t)
    if at > 16:
        hp = raw_context(ctx.working_dps + int(2 * mp.log10(at)) + 8)
        return mp.mpf(closed_form(hp, *(hp.mpf(a) for a in args)))
    return closed_form(mp, *args)


def _ei_closed(mp, fstar, mean, sigma):
    u = (fstar - mean) / sigma
    phi = mp.exp(-u * u / 2) / mp.sqrt(2 * mp.pi)
    big_phi = mp.erfc(-u / mp.sqrt(2)) / 2
    return (fstar - mean) * big_phi + sigma * phi


def _ei_value(ctx: PrecisionContext, fstar, mean, sigma):
    mp = ctx.mp
    if sigma == 0:
        gap = fstar - mean
        return gap if gap > 0 else mp.mpf(0)
    value = closed_form_at(ctx, (fstar - mean) / sigma, _ei_closed, fstar, mean, sigma)
    return value if value > 0 else mp.mpf(0)


def expected_improvement(state: TrajectoryState, x, fitted: FittedPosterior | None = None) -> EIEvaluation:
    """Closed-form EI at x.

    ``fitted`` may carry a pre-built factorization of the current design,
    for callers that query one design at several points; otherwise a fresh
    one is constructed.  Grid scoring does not come here: the run loop reads
    the moments of every candidate from a ``CandidatePosterior``.
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

        EI = s / sqrt(2 pi) * integral_0^inf w exp(-(w + h)^2 / 2) dw.

    The moments and the prefactor are working-precision values; the
    integral is ``improvement_tail_quadrature``, good to digits/2, which is
    what the digits/4 tolerance of the oracle comparison needs.  Requires
    s > 0 (use the closed-form definition at design points).
    """
    mp = ctx.mp
    moments = FittedPosterior(state).moments(x)
    sigma = mp.sqrt(moments.variance)
    if sigma == 0:
        raise EILabError("integral oracle needs positive posterior variance")
    h = (moments.mean - state.best) / sigma
    val = improvement_tail_quadrature(ctx, h)
    return sigma / mp.sqrt(2 * mp.pi) * mp.exp(-h * h / 2) * val


def improvement_tail_quadrature(ctx: PrecisionContext, h):
    """integral_0^inf w exp(-wh - w^2/2) dw by quadrature, for either sign of h.

    This is the improvement tail integral_0^inf w exp(-(w+h)^2/2) dw with
    the factor exp(-h^2/2) taken out (callers multiply it back).  For h < 0
    the integrand's peak e^{h^2/2} is taken out too and multiplied back at
    working precision: mpmath tests convergence in absolute terms, so the
    integrand's scale must stay near max(1, |h|).  Nothing cancels, so it
    runs in ``quadrature_context(ctx)`` (digits//2 + guard digits).  The
    integrand is a bump about w = -h; it is truncated on both sides where
    it falls 10 digits below that context's roundoff and split at its peak.
    """
    h = ctx.mpf(h)
    mp = quadrature_context(ctx)
    hq = mp.mpf(h)
    reach = mp.sqrt(2 * (mp.dps + 10) * mp.log(10)) + 5
    lower = max(mp.mpf(0), -hq - reach)
    upper = max(mp.mpf(0), -hq) + reach
    peak = (-hq + mp.sqrt(hq * hq + 4)) / 2
    points = [lower, peak, upper] if peak < upper else [lower, upper]
    if h >= 0:
        return integrate(ctx, lambda w: mp.exp(-w * hq - w * w / 2) * w, points)
    return integrate(ctx, lambda w: mp.exp(-(w + hq) ** 2 / 2) * w, points) * ctx.mp.exp(h * h / 2)


def _tie_key(x):
    return (abs(x), 0 if x < 0 else 1)


# Relative margin of the float screen.  Over every candidate of every step,
# the float ln EI errs from the log of the closed form by at most
# 4.0e-15 * max(1, |ln EI|) on the benchmark's collapse run (u down to
# -1.5e4), 6.1e-16 on its rough contrast run and 1.7e-14 on the default run
# (u down to -1.6e23); the property test holds ln tau to 1e-12.  With
# errors that far below the margin, a candidate whose float value sits more
# than the margin below the float maximum, on both sides' scales, is below
# the maximum by a factor of at least exp(1e-9), while the tie slack
# 10**-(digits/2) is at most 1e-25 (digits >= 50): it can be neither the
# winner nor tied with it.
_SCREEN_MARGIN = 1e-9

_LN2 = math.log(2)
_LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)
# Depth of the continued fraction in _log_tau.  Depth 40 already reaches
# double precision at t = 5, and the fraction converges faster as t grows.
_MILLS_DEPTH = 60


def _log_tau(u: float) -> float:
    """ln tau(u), tau(u) = u Phi(u) + phi(u), in floats.

    For u >= -5 tau is summed directly; its two terms cancel by at most a
    factor of about u^2 = 25.  Below, write tau(-t) = phi(t) R(t) C(t) with
    R(t) = Phi(-t) / phi(t) the Mills ratio and C(t) = 1/R(t) - t, which the
    continued fraction 1/(t + 2/(t + 3/(t + ...))) gives without
    cancellation:

        ln tau(-t) = -t^2/2 - ln sqrt(2 pi) - ln(t + C(t)) + ln C(t).
    """
    if u >= -5:
        return math.log(u * math.erfc(-u / math.sqrt(2)) / 2 + math.exp(-u * u / 2) / math.sqrt(2 * math.pi))
    t = -u
    c = t
    for k in range(_MILLS_DEPTH, 1, -1):
        c = t + k / c
    c = 1 / c
    return -t * t / 2 - _LN_SQRT_2PI - math.log(t + c) + math.log(c)


def _split(raw):
    """(f, e) with |x| = f * 2**e and f in [0.5, 1), for a nonzero raw mpf."""
    _, man, exp, bc = raw
    shift = max(bc - 53, 0)
    return math.ldexp(man >> shift, shift - bc), exp + bc


def _screen_log_ei(fstar, moments: PosteriorMoments):
    """Float ln EI at one candidate, or None where that is not a finite float.

    f* - m is an mpf subtraction at working precision (the mean cancels
    against f*); ln|f* - m| and ln s = ln(s^2) / 2 come from the raw
    mantissas and exponents, the exponents combined as integers, so no
    square root runs and nothing underflows.  s = 0 (after a clamp, or at
    a design point) yields None.
    """
    var = moments.variance._mpf_
    if not var[1]:
        return None
    fv, ev = _split(var)
    log_sigma = (math.log(fv) + ev * _LN2) / 2
    gap = (fstar - moments.mean)._mpf_
    if not gap[1]:
        return log_sigma - _LN_SQRT_2PI
    fd, ed = _split(gap)
    log_u = math.log(fd) - math.log(fv) / 2 + (2 * ed - ev) * _LN2 / 2
    if log_u > 700:  # |u| beyond the float range
        return None
    u = math.exp(log_u)
    value = log_sigma + _log_tau(-u if gap[0] else u)
    return value if math.isfinite(value) else None


def _grid_candidates(state: TrajectoryState, grid: CandidateGrid) -> CandidatePosterior:
    design = set(state.points)
    return CandidatePosterior(c for c in grid.points(state.ctx) if c not in design)


def _argmax(fitted: FittedPosterior, candidates: CandidatePosterior):
    """EI argmax over ``candidates``, which must be synced to ``fitted``.

    Every candidate's moments are read and screened by a float ln EI; only
    those within the margin ``_SCREEN_MARGIN`` of the float maximum are
    scored with the closed form, which cannot change the winner (see
    ``_select``).  Returns the winner's evaluation, the number of clamped
    variances and the winner's index in ``candidates``.
    """
    if not candidates:
        raise EmptyGrid("no candidates remain after filtering design points")
    best, value, clamps = _select(fitted.ctx, fitted.state.best, candidates.moments, candidates.points)
    moments = candidates.moments(best)
    return EIEvaluation(point=moments.point, ei=value, moments=moments), clamps, best


def _select(ctx: PrecisionContext, fstar, moments_at, points):
    """Index and EI of the argmax over ``points``, and the clamp count.

    ``moments_at(i)`` gives the moments at ``points[i]``; it is read once
    for every candidate (counting clamps, and raising ``NonPositivePivot``
    on a variance negative beyond the budget) and again for each candidate
    that survives the float screen.  Survivors are the candidates whose
    float ln EI L satisfies

        L + margin * max(1, |L|) >= L* - margin * max(1, |L*|)

    with L* the largest finite L, and every candidate without a finite L
    (so all of them when no L is finite).  The float maximizer is among the
    survivors, and every other candidate is below it by more than the tie
    slack (see ``_SCREEN_MARGIN``), so the top, the slack and the tie-break
    over the survivors' closed-form EI are those over every candidate.
    """
    mp = ctx.mp
    clamps = 0
    screen = []
    for i in range(len(points)):
        moments = moments_at(i)
        clamps += moments.clamped
        screen.append(_screen_log_ei(fstar, moments))
    top_log = max((v for v in screen if v is not None), default=0.0)
    cut = top_log - _SCREEN_MARGIN * max(1.0, abs(top_log))
    values = {}
    for i, log_ei in enumerate(screen):
        if log_ei is None or log_ei + _SCREEN_MARGIN * max(1.0, abs(log_ei)) >= cut:
            moments = moments_at(i)
            values[i] = _ei_value(ctx, fstar, moments.mean, mp.sqrt(moments.variance))
    top = max(values.values())
    slack = top * ctx.tol(-(ctx.digits // 2))
    best = None
    for i, value in values.items():
        if value + slack >= top and (best is None or _tie_key(points[i]) < _tie_key(points[best])):
            best = i
    return best, values[best], clamps


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
class StepTiming:
    """Where one completed iteration's time went.

    Wall seconds of the fit (the new Gram rows and the extended factor), of
    the candidate sync and of the EI argmax, the number of covariances the
    sync evaluated, and whether it re-solved the kept covariance columns at
    a new factor (a raised solve precision).  Timings vary between runs, so
    they go to the timings sidecar, never into the deterministic reports.
    """

    size: int
    fit_s: float
    sync_s: float
    select_s: float
    sync_covariances: int
    sync_resolved: bool


@dataclass(frozen=True)
class TrajectoryRun:
    """Outcome of a run: final state, per-step records, abort tag.

    ``aborted_at`` is the design size whose Gram matrix failed to factor;
    the partial trajectory up to that point is always returned.
    ``timings`` holds one ``StepTiming`` per completed iteration and takes
    no part in comparisons.
    """

    state: TrajectoryState
    records: tuple
    aborted_at: int | None = None
    abort_reason: str | None = None
    timings: tuple = field(default=(), compare=False)

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

    The grid is built once.  Each iteration extends the previous Gram
    factor by the newest point's row, brings the candidates' posterior state
    up to the new design (one covariance per candidate; see
    ``CandidatePosterior``), scores EI on every remaining candidate, appends
    the argmax, and evaluates the objective there.  On a factorization
    failure the run stops cleanly and returns the partial trajectory with
    the failing design size recorded.  ``jitter`` turns on the exploratory
    diagonal shift (recorded per iteration); the default run never
    regularizes.  ``timings`` of the result say where each step's time
    went (see ``StepTiming``).
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
    timings = []
    fitted = None
    aborted_at = None
    abort_reason = None
    for _ in range(steps):
        try:
            started = time.perf_counter()
            fitted = FittedPosterior(state, jitter=jitter, extends=fitted)
            fit_done = time.perf_counter()
            covariances, resolved = candidates.sync(fitted)
            sync_done = time.perf_counter()
            best, clamps, index = _argmax(fitted, candidates)
        except NonPositivePivot as exc:
            aborted_at = state.size
            abort_reason = f"NonPositivePivot: {exc}"
            break
        timings.append(
            StepTiming(
                size=state.size,
                fit_s=fit_done - started,
                sync_s=sync_done - fit_done,
                select_s=time.perf_counter() - sync_done,
                sync_covariances=covariances,
                sync_resolved=resolved,
            )
        )
        candidates.remove(index)
        state = add_point(state, best.point, f(best.point))
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
        records=tuple(records),
        aborted_at=aborted_at,
        abort_reason=abort_reason,
        timings=tuple(timings),
    )
