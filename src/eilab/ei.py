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
The improvement tail integral of Lemma 3 is the same closed form at
f* = 0, m = h, s = 1, times sqrt(2 pi) (``improvement_tail``).

The candidate grid is the log-spaced set {+-e^{-l eps} : l = 0..l_max}; the
next point of a run is the grid argmax of EI, with exact ties broken toward
smaller |x| and then toward the negative sign.

The argmax screens the grid in floats first.  ln EI = ln s + ln tau(u), with
tau(u) = u Phi(u) + phi(u), is computed in double precision for every
candidate from the raw binary exponents of f* - m and s^2, read as raw mpf
tuples from the candidate state, so nothing underflows however small EI
gets (on the default run u reaches -1.6e23).  The candidate state keeps
these values, so a step recomputes only those whose moments its sync
changed, or all of them when f* moved.
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

from mpmath.libmp import mpf_sub

from .errors import EILabError, EmptyGrid, NonPositivePivot, UnknownObjective
from .kernels import KernelSpec, OrnsteinUhlenbeckKernel, covariance
from .posterior import CandidatePosterior, FittedPosterior, MarkovPosterior, TrajectoryState, add_point
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
        # e^(-l eps) falls with l, so -v_0..-v_L, v_L..v_0 is one ascending
        # run that the sort takes in one pass before merging in the extras.
        values = [mp.exp(-l * eps) for l in range(self.l_max + 1)]
        extras = (mp.mpf(raw) for raw in self.extra_points)
        out = sorted([-v for v in values] + values[::-1] + [c for c in extras if abs(c) <= 1])
        return [c for k, c in enumerate(out) if not k or c != out[k - 1]]


@dataclass(frozen=True)
class EIEvaluation:
    """EI value at one candidate."""

    point: object
    ei: object


def _ei_closed(mp, fstar, mean, sigma):
    u = (fstar - mean) / sigma
    phi = mp.exp(-u * u / 2) / mp.sqrt(2 * mp.pi)
    big_phi = mp.erfc(-u / mp.sqrt(2)) / 2
    return (fstar - mean) * big_phi + sigma * phi


def _ei_value(ctx: PrecisionContext, fstar, mean, sigma):
    """EI by the closed form, clamped at zero; max(f* - m, 0) at s = 0.

    Its two terms cancel to relative size ~1/u^2 once |u| is large: for
    |u| > 16 the arguments are lifted exactly to a precision raised by
    int(2 log10|u|) + 8 digits, the form is evaluated there and the result
    rounded back to working precision.
    """
    mp = ctx.mp
    if sigma == 0:
        gap = fstar - mean
        return gap if gap > 0 else mp.mpf(0)
    au = abs((fstar - mean) / sigma)
    if au > 16:
        hp = raw_context(ctx.working_dps + int(2 * mp.log10(au)) + 8)
        value = mp.mpf(_ei_closed(hp, hp.mpf(fstar), hp.mpf(mean), hp.mpf(sigma)))
    else:
        value = _ei_closed(mp, fstar, mean, sigma)
    return value if value > 0 else mp.mpf(0)


def improvement_tail(ctx: PrecisionContext, h):
    """The improvement tail I(h) = integral_0^inf w exp(-(w+h)^2/2) dw.

    I(h) = sqrt(2 pi) tau(-h) with tau(u) = u Phi(u) + phi(u): sqrt(2 pi)
    times the EI closed form at f* = 0, m = h, s = 1, with its precision
    lift for |h| > 16.
    """
    mp = ctx.mp
    return mp.sqrt(2 * mp.pi) * _ei_value(ctx, mp.zero, ctx.mpf(h), mp.one)


def expected_improvement(state: TrajectoryState, x, fitted: FittedPosterior | None = None) -> EIEvaluation:
    """Closed-form EI at x.

    ``fitted`` may carry a pre-built factorization of this design, for
    callers that query one design at several points; otherwise a fresh one
    is constructed.  ``EILabError`` is raised when ``fitted`` is the fit of
    another design.  Grid scoring does not come here: the run loop reads
    the moments of every candidate from a ``CandidatePosterior``.
    """
    ctx = state.ctx
    mp = ctx.mp
    if fitted is None:
        fitted = FittedPosterior(state)
    elif fitted.state != state:
        raise EILabError("fitted is the fit of another design")
    moments = fitted.moments(x)
    sigma = mp.sqrt(moments.variance)
    value = _ei_value(ctx, state.best, moments.mean, sigma)
    return EIEvaluation(point=moments.point, ei=value)


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
    return sigma / mp.sqrt(2 * mp.pi) * improvement_tail_quadrature(ctx, h)


def improvement_tail_quadrature(ctx: PrecisionContext, h):
    """The improvement tail I(h) by quadrature, for either sign of h.

    I(h) = integral_0^inf w exp(-(w+h)^2/2) dw, the quadrature oracle of
    ``improvement_tail``.  mpmath tests convergence in absolute terms, so
    the integrand's scale must stay near max(1, |h|): for h < 0 that is the
    integrand itself, and for h >= 0 the factor exp(-h^2/2) is taken out of
    it and multiplied in at working precision.  Nothing cancels, so it runs
    in ``quadrature_context(ctx)`` (digits//2 + guard digits).  The
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
        return integrate(ctx, lambda w: mp.exp(-w * hq - w * w / 2) * w, points) * ctx.mp.exp(-h * h / 2)
    return integrate(ctx, lambda w: mp.exp(-(w + hq) ** 2 / 2) * w, points)


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

# Slack of a score from working-tier moments (``CandidatePosterior.screen``):
# such a score stands only where ln EI provably moves by less than this,
# relative to max(1, |ln EI|), between the working moments and the exact
# ones.  Added to the float error above it stays below 2e-14, so the margin
# still exceeds the screen's error by a factor above 10^4.
_WORKING_SLACK = 1e-15

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


def _screen_log_ei(variance, gap):
    """Float ln EI at one candidate, or None where that is not a finite float.

    ``variance`` (s^2) and ``gap`` (f* - m) are raw mpf tuples at working
    precision.  ln|f* - m| and ln s = ln(s^2) / 2 come from their mantissas
    and exponents, the exponents combined as integers, so no square root
    runs and nothing underflows.  s = 0 (after a clamp, or at a design
    point) yields None.
    """
    if not variance[1]:
        return None
    fv, ev = _split(variance)
    log_sigma = (math.log(fv) + ev * _LN2) / 2
    if not gap[1]:
        return log_sigma - _LN_SQRT_2PI
    fd, ed = _split(gap)
    log_u = math.log(fd) - math.log(fv) / 2 + (2 * ed - ev) * _LN2 / 2
    if log_u > 700:  # |u| beyond the float range
        return None
    u = math.exp(log_u)
    value = log_sigma + _log_tau(-u if gap[0] else u)
    return value if math.isfinite(value) else None


def _log_abs(raw):
    """ln |x| for a raw mpf, -inf at 0."""
    if not raw[1]:
        return -math.inf
    f, e = _split(raw)
    return math.log(f) + e * _LN2


def _log_add(a, b):
    """ln(e^a + e^b) without overflow."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


def _settled(value, variance, gap, log_error):
    """Whether the float ln EI ``value`` of moments with variance s^2 =
    ``variance`` and f* - m = ``gap`` (raw mpf tuples) provably moves by
    less than ``_WORKING_SLACK * max(1, |value|)`` when the mean moves by at
    most E_mean and the variance by at most E_var, E_var below s^2;
    ``log_error`` = (ln E_mean, ln E_var), in floats.

    With EI = s tau(u) and u = (f* - m) / s, d ln EI / dm = -Phi(u) / (s tau)
    and d ln EI / d(s^2) = phi(u) / (2 s^2 tau).  Phi / tau <= |u| + 2.6:
    for u < 0 it is 1/C(-u) in the notation of ``_log_tau``, below
    |u| + sqrt(2) by Sampford's bound on the Mills ratio
    (R(t) < 4 / (3t + sqrt(t^2 + 8)); Ann. Math. Statist. 24, 1953), and for
    u >= 0 below 1 / tau(0) = sqrt(2 pi).  phi / tau = 1 - u Phi / tau is
    then below (|u| + 2.6)^2.  Over the box of moments within the bounds
    the variance is at least s_min^2 = s^2 - E_var and
    |u| <= U = (|f* - m| + E_mean) / s_min, so the move is at most
    (U + 2.6) E_mean / s_min + (U + 2.6)^2 E_var / (2 s_min^2); it is
    doubled for the float rounding of this reckoning.
    """
    log_var = _log_abs(variance)
    log_mean_error, log_var_error = log_error
    ratio = math.exp(log_var_error - log_var)
    if ratio >= 0.5:
        return False
    log_var_min = log_var + math.log1p(-ratio)
    log_s_min = log_var_min / 2
    slope = _log_add(_log_add(_log_abs(gap), log_mean_error) - log_s_min, math.log(2.6))
    move = _LN2 + _log_add(slope + log_mean_error - log_s_min, 2 * slope + log_var_error - _LN2 - log_var_min)
    return move < math.log(_WORKING_SLACK * max(1.0, abs(value)))


def _scorer(ctx: PrecisionContext, fstar):
    """``_screen_log_ei`` as a function of one candidate's raw working
    (mean, variance): f* - m is one mpf subtraction at working precision
    (the mean cancels against f*).  ``within(error)``, with ``error`` =
    (E_mean, E_var) the bounds of working-tier moments, gives the scorer of
    such moments: None unless the value is finite and ``_settled``, with
    the logs of the bounds taken once."""
    prec, rnd = ctx.mp._prec_rounding
    fstar = fstar._mpf_

    def score(mean, variance):
        return _screen_log_ei(variance, mpf_sub(fstar, mean, prec, rnd))

    def within(error):
        log_error = _log_abs(error[0]), _log_abs(error[1])

        def bounded(mean, variance):
            gap = mpf_sub(fstar, mean, prec, rnd)
            value = _screen_log_ei(variance, gap)
            return value if value is not None and _settled(value, variance, gap, log_error) else None

        return bounded

    score.within = within
    return score


def _screen(ctx: PrecisionContext, fstar, working):
    """The float ln EI (``_scorer``) of every candidate, in order, and the
    number of clamped variances, from scratch: the reference of the
    screen the candidate state keeps (``CandidatePosterior.screen``).

    ``working`` yields each candidate's (mean, variance, clamped) as raw
    mpf tuples at working precision (``CandidatePosterior.working_moments``).
    """
    score = _scorer(ctx, fstar)
    clamps = 0
    screen = []
    for mean, variance, clamped in working:
        clamps += clamped
        screen.append(score(mean, variance))
    return screen, clamps


def _grid_candidates(state: TrajectoryState, grid: CandidateGrid, jitter: bool = False) -> CandidatePosterior:
    """The grid's candidates off the design, in increasing order: a
    ``MarkovPosterior`` for the unjittered Ornstein-Uhlenbeck kernel, a
    ``CandidatePosterior`` with ``jitter`` otherwise."""
    design = set(state.points)
    points = (c for c in grid.points(state.ctx) if c not in design)
    markov = isinstance(state.kernel, OrnsteinUhlenbeckKernel) and not jitter
    return MarkovPosterior(points) if markov else CandidatePosterior(points, jitter)


def _argmax(state: TrajectoryState, candidates: CandidatePosterior):
    """EI argmax over ``candidates``, which must be synced to ``state``.

    Every candidate is screened by a float ln EI from its raw moments (its
    working tier where the error bounds settle the score, else
    ``working_moments``), kept by the candidate state across steps: a step
    scores only the candidates whose moments its sync changed, or every
    candidate when f* moved (``CandidatePosterior.screen``), and the kept
    values equal those of ``_screen`` over every candidate read exactly,
    within ``_WORKING_SLACK`` where the working tier settled them.  Only those
    within the margin ``_SCREEN_MARGIN`` of the float maximum get
    ``PosteriorMoments`` and the closed form, which cannot change the
    winner (see ``_select``).  Returns the winner's evaluation, the number
    of clamped variances, the winner's index in ``candidates`` and the
    number of float ln EI values the step computed.
    """
    if not candidates:
        raise EmptyGrid("no candidates remain after filtering design points")
    ctx, fstar = state.ctx, state.best
    screen, clamps, screened = candidates.screen(fstar._mpf_, _scorer(ctx, fstar))
    best, evaluation = _select(ctx, fstar, screen, candidates.moments, candidates.points)
    return evaluation, clamps, best, screened


def _select(ctx: PrecisionContext, fstar, screen, moments_at, points):
    """Index and evaluation of the EI argmax over ``points``.

    ``screen`` holds the float ln EI of every candidate in index order, as
    ``_screen`` computes it (None where it is not a finite float).
    ``moments_at(i)`` gives the ``PosteriorMoments`` at ``points[i]``; it is
    read once for each candidate that survives the screen, and for no
    other.  Survivors are the candidates whose float ln EI L satisfies

        L + margin * max(1, |L|) >= L* - margin * max(1, |L*|)

    with L* the largest finite L, and every candidate without a finite L
    (so all of them when no L is finite).  The float maximizer is among the
    survivors, and every other candidate is below it by more than the tie
    slack (see ``_SCREEN_MARGIN``), so the top, the slack and the tie-break
    over the survivors' closed-form EI are those over every candidate.
    """
    mp = ctx.mp
    top_log = max((v for v in screen if v is not None), default=0.0)
    cut = top_log - _SCREEN_MARGIN * max(1.0, abs(top_log))
    survivors = [i for i, v in enumerate(screen) if v is None or v + _SCREEN_MARGIN * max(1.0, abs(v)) >= cut]
    values = {}
    for i in survivors:
        moments = moments_at(i)
        values[i] = EIEvaluation(moments.point, _ei_value(ctx, fstar, moments.mean, mp.sqrt(moments.variance)))
    top = max(v.ei for v in values.values())
    slack = top * ctx.tol(-(ctx.digits // 2))
    best = None
    for i, value in values.items():
        if value.ei + slack >= top and (best is None or _tie_key(points[i]) < _tie_key(points[best])):
            best = i
    return best, values[best]


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

    Wall seconds of the candidate sync (``sync_s``; for a
    ``CandidatePosterior`` it includes the fit, the new Gram rows and the
    extended factor) and of the EI argmax, the number of covariances the
    sync evaluated for the candidates, whether the solve precision rose at
    this step (``sync_resolved``), the number of candidates solved at the
    raised solve precision in the step (``raised_solves``: the candidates
    the argmax read exactly, each once, see ``CandidatePosterior``), and
    the number of float ln EI values the argmax's screen computed
    (``screened``): every candidate after a ``CandidatePosterior`` sync,
    and on a run whose state is the ``MarkovPosterior`` of an unjittered
    Ornstein-Uhlenbeck kernel only the candidates the sync recomputed,
    unless f* moved.  That state evaluates no covariance and solves nothing
    at a raised precision: 0, False and 0.
    Timings vary between runs, so they go to the timings sidecar, never
    into the deterministic reports.
    """

    size: int
    sync_s: float
    select_s: float
    sync_covariances: int
    sync_resolved: bool
    raised_solves: int
    screened: int


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

    The grid is built once.  Each iteration syncs the candidates' posterior
    state to the new design: a ``CandidatePosterior`` extends its Gram
    factor by the newest point's row and evaluates one covariance per
    candidate; the ``MarkovPosterior`` of an unjittered Ornstein-Uhlenbeck
    run builds no Gram matrix, and recomputes only the candidates between
    the new point's neighbours by the Markov closed form.  The state's
    pivots decide an abort, and give each record its ``condition`` and
    ``solve_dps``.  The iteration then scores EI on every remaining
    candidate (its float screen recomputed only where the sync changed the
    moments, unless f* moved), appends the argmax, and evaluates the
    objective there.  When a pivot fails the floor (``NonPositivePivot``),
    the run stops cleanly and returns the partial trajectory with the
    failing design size recorded.
    ``jitter`` turns on the exploratory diagonal shift (recorded per
    iteration); the default run never regularizes.  ``timings`` of the
    result say where each step's time went (see ``StepTiming``).
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
    candidates = _grid_candidates(state, grid, jitter)
    timings = []
    aborted_at = None
    abort_reason = None
    for _ in range(steps):
        try:
            started = time.perf_counter()
            covariances, resolved = candidates.sync(state)
            sync_done = time.perf_counter()
            best, clamps, index, screened = _argmax(state, candidates)
        except NonPositivePivot as exc:
            aborted_at = state.size
            abort_reason = f"NonPositivePivot: {exc}"
            break
        timings.append(
            StepTiming(
                size=state.size,
                sync_s=sync_done - started,
                select_s=time.perf_counter() - sync_done,
                sync_covariances=covariances,
                sync_resolved=resolved,
                raised_solves=candidates.raised_solves,
                screened=screened,
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
                condition=candidates.condition,
                variance_clamps=clamps,
                solve_dps=candidates.solve_dps,
                jitter=candidates.jitter_used,
            )
        )
    return TrajectoryRun(
        state=state,
        records=tuple(records),
        aborted_at=aborted_at,
        abort_reason=abort_reason,
        timings=tuple(timings),
    )
