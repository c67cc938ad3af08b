"""The float screen of the EI argmax against the exhaustive closed-form argmax.

``ei._select`` ranks candidates by a float ln EI and scores only those
within ``_SCREEN_MARGIN`` of the float maximum with the full-precision
closed form.  The reference here scores every candidate with ``_ei_value``
and applies the same top, tie slack and tie-break; winner and EI must agree
exactly.  The screen reads raw working-precision tuples from the candidate
state; it is also held, float for float, against a copy of the screen that
read every candidate through ``PosteriorMoments``.  The screen the
candidate state keeps across the steps of a run, scoring only the
candidates whose moments changed, is held equal to a fresh screen of every
candidate.
"""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import mpf_pos

import eilab
from eilab import ei
from eilab.ei import _SCREEN_MARGIN, _ei_value, _log_tau, _screen, _screen_log_ei, _select, _split, _tie_key
from eilab.posterior import CandidatePosterior, MarkovPosterior, PosteriorMoments
from eilab.precision import pack, raw_context, unpack


def _reference_log_tau(u):
    """ln(u Phi(u) + phi(u)) to 60 digits; the precision is raised by
    2 log10|u| digits to absorb the cancellation of the two terms."""
    mp = raw_context(60 + 2 * max(0, int(math.log10(abs(u) or 1))) + 10)
    u = mp.mpf(u)
    return mp.log(u * mp.ncdf(u) + mp.npdf(u))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(min_value=-1e30, max_value=1e6), st.floats(min_value=-6.0, max_value=-4.0)))
@example(0.0)
@example(-0.0)
@example(-5.0)
@example(math.nextafter(-5.0, -math.inf))
@example(math.nextafter(-5.0, math.inf))
@example(-1e30)
@example(1e6)
@example(5e-324)
def test_float_log_tau_matches_mpmath(u):
    ref = _reference_log_tau(u)
    assert abs(_log_tau(u) - ref) <= 1e-12 * max(1, abs(ref))


def _reference_log_ei(gap, variance):
    """ln EI = ln s + ln tau((f* - m) / s) for mpf ``gap`` = f* - m and
    ``variance`` = s^2 > 0, to 60 digits past the cancellation of tau."""
    mp = raw_context(80 + 2 * max(0, int(math.log10(float(abs(gap)) / math.sqrt(float(variance)) + 1))))
    sigma = mp.sqrt(mp.mpf(variance))
    u = mp.mpf(gap) / sigma
    return mp.log(sigma) + mp.log(u * mp.ncdf(u) + mp.npdf(u))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([-1, 0, 1]),  # sign of f* - m (0: mean == f*)
    st.integers(min_value=-30, max_value=3),  # log10 |f* - m|
    st.integers(min_value=-60, max_value=2),  # log10 variance
    st.integers(min_value=-40, max_value=0),  # log10 (E_mean / s)
    st.integers(min_value=-40, max_value=0),  # log10 (E_var / variance)
)
@example(-1, -3, -30, -40, -40)
@example(1, 0, -2, -40, -40)
def test_a_settled_working_score_moves_by_less_than_the_slack(sign, gap_exp, var_exp, mean_err, var_err):
    # Over the box of moments within (E_mean, E_var) of the working ones,
    # EI is monotone in each (increasing in s, decreasing in m), so ln EI
    # moves most at a corner.  Where ``_settled`` settles the score, every
    # corner's ln EI is within _WORKING_SLACK * max(1, |ln EI|) of the
    # centre's; with relative errors of 1e-40 it settles.
    mp = raw_context(120)
    gap = sign * mp.mpf(10) ** gap_exp
    variance = mp.mpf(10) ** var_exp
    e_mean = mp.sqrt(variance) * mp.mpf(10) ** mean_err
    e_var = variance * mp.mpf(10) ** var_err * (1 - mp.mpf(10) ** -3)
    value = _screen_log_ei(variance._mpf_, gap._mpf_)
    assume(value is not None)
    settled = ei._settled(value, variance._mpf_, gap._mpf_, (ei._log_abs(e_mean._mpf_), ei._log_abs(e_var._mpf_)))
    if max(mean_err, var_err) == -40 and abs(gap) / mp.sqrt(variance) < 10**10:
        assert settled
    if settled:
        centre = _reference_log_ei(gap, variance)
        slack = ei._WORKING_SLACK * max(1, abs(centre))
        for dm in (-e_mean, e_mean):
            for dv in (-e_var, e_var):
                assert abs(_reference_log_ei(gap - dm, variance + dv) - centre) <= slack


def _moments(ctx, x, mean, variance):
    return PosteriorMoments(point=ctx.mpf(x), mean=ctx.mpf(mean), variance=ctx.mpf(variance))


def _exhaustive(ctx, fstar, moments):
    """Index and EI of the argmax with every candidate at full precision."""
    mp = ctx.mp
    values = [_ei_value(ctx, fstar, m.mean, mp.sqrt(m.variance)) for m in moments]
    top = max(values)
    slack = top * ctx.tol(-(ctx.digits // 2))
    tied = [i for i, v in enumerate(values) if v + slack >= top]
    best = min(tied, key=lambda i: _tie_key(moments[i].point))
    return best, values[best]


def _screened(ctx, fstar, moments):
    working = ((m.mean._mpf_, m.variance._mpf_, False) for m in moments)
    screen, _ = ei._screen(ctx, fstar, working)
    best, evaluation = _select(ctx, fstar, screen, moments.__getitem__, [m.point for m in moments])
    assert evaluation.point is moments[best].point
    return best, evaluation.ei


@pytest.fixture
def ei_calls(monkeypatch):
    """Count the full-precision EI evaluations of ``_select``."""
    calls = []
    real = ei._ei_value

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ei, "_ei_value", counting)
    return calls


def _adversarial(monkeypatch, front):
    """Shift the float ln EI by 0.9 margin: down at the candidate indices in
    ``front``, up everywhere else.  The screen must absorb any float error
    below the margin."""
    real = ei._screen

    def shifted(ctx, fstar, working):
        screen, clamps = real(ctx, fstar, working)
        for i, value in enumerate(screen):
            if value is not None:
                shift = 0.9 * _SCREEN_MARGIN * max(1.0, abs(value))
                screen[i] = value - shift if i in front else value + shift
        return screen, clamps

    monkeypatch.setattr(ei, "_screen", shifted)


def test_mirrored_exact_tie_goes_to_the_negative_sign(ctx60):
    fstar = ctx60.mpf(-1)
    moments = [
        _moments(ctx60, "0.9", "-0.2", "0.05"),
        _moments(ctx60, "0.4", "-0.5", "0.3"),
        _moments(ctx60, "-0.4", "-0.5", "0.3"),
        _moments(ctx60, "-0.9", "-0.2", "0.05"),
    ]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert moments[best].point == ctx60.mpf("-0.4")


def test_near_tie_inside_the_slack_goes_to_smaller_abs_x(ctx60, ei_calls):
    # mean == f* everywhere, so u = 0 and EI = s / sqrt(2 pi)
    fstar = ctx60.mpf(0)
    moments = [
        # within the float margin but 1e-20 below the top: rescored, loses
        _moments(ctx60, "0.1", "0", 1 - ctx60.mpf("2e-20")),
        # 1e-32 below the top, inside the tie slack 1e-30: wins on |x|
        _moments(ctx60, "0.3", "0", 1 - ctx60.mpf("2e-32")),
        _moments(ctx60, "0.5", "0", "1"),
        # far below: screened out
        _moments(ctx60, "0.05", "0", "0.25"),
    ]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert moments[best].point == ctx60.mpf("0.3")
    assert len(ei_calls) == 3


def test_float_errors_below_the_margin_keep_the_winner(ctx60, monkeypatch):
    fstar = ctx60.mpf(0)
    moments = [
        _moments(ctx60, "0.1", "0", 1 - ctx60.mpf("2e-20")),
        _moments(ctx60, "0.3", "0", 1 - ctx60.mpf("2e-32")),
        _moments(ctx60, "0.5", "0", "1"),
        _moments(ctx60, "0.7", "1e-12", "1"),
    ]
    expected = _exhaustive(ctx60, fstar, moments)
    _adversarial(monkeypatch, {1, 2})
    assert _screened(ctx60, fstar, moments) == expected


def test_zero_variance_with_a_positive_gap_wins_on_the_gap(ctx60):
    fstar = ctx60.mpf(-1)
    moments = [
        _moments(ctx60, "0.6", "-0.5", "0.3"),
        _moments(ctx60, "0.2", "-1.5", "0"),  # EI = gap = 0.5
        _moments(ctx60, "0.01", "-1", "0"),  # zero gap: EI = 0
    ]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert moments[best].point == ctx60.mpf("0.2") and value == ctx60.mpf("0.5")


def test_zero_variance_candidates_lose_to_a_larger_ei(ctx60):
    fstar = ctx60.mpf(-1)
    moments = [
        _moments(ctx60, "0.2", "-1.001", "0"),  # EI = 0.001
        _moments(ctx60, "0.01", "-1", "0"),  # EI = 0
        _moments(ctx60, "0.6", "-0.5", "0.3"),
    ]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert moments[best].point == ctx60.mpf("0.6")


def test_mean_at_the_incumbent_scores_u_zero(ctx60):
    mp = ctx60.mp
    fstar = ctx60.mpf("-0.7")
    at_u0 = _moments(ctx60, "0.3", "-0.7", "0.04")
    log_ei = _screen_log_ei(at_u0.variance._mpf_, (fstar - at_u0.mean)._mpf_)
    assert abs(log_ei - (math.log(0.2) - 0.5 * math.log(2 * math.pi))) <= 1e-15
    moments = [_moments(ctx60, "0.8", "-0.6", "0.04"), at_u0]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert best == 1 and abs(value - mp.mpf("0.2") / mp.sqrt(2 * mp.pi)) <= ctx60.tol(-(ctx60.working_dps - 5))


def test_every_ei_zero_picks_the_smallest_tie_key_of_all(ctx60):
    fstar = ctx60.mpf(-1)
    moments = [
        _moments(ctx60, "0.7", "-1", "0"),
        _moments(ctx60, "0.3", "-0.5", "0"),
        _moments(ctx60, "-0.3", "0", "0"),
        _moments(ctx60, "-0.9", "-1", "0"),
    ]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert moments[best].point == ctx60.mpf("-0.3") and value == 0


def _synced(ctx, design, candidates):
    """A candidate state synced to the fit of ``design`` under the headline
    kernel with f = -G, every candidate read once, so that a state whose
    fit solves above working precision holds this step's exact read of
    each, the one ``_poke`` overwrites."""
    mp = ctx.mp
    kernel = eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")
    xs = tuple(mp.mpf(x) for x in design)
    values = tuple(-eilab.covariance(kernel, x, ctx) for x in xs)
    fitted = eilab.FittedPosterior(eilab.TrajectoryState(kernel=kernel, ctx=ctx, points=xs, values=values, best=min(values)))
    state = CandidatePosterior(mp.mpf(c) for c in candidates)
    state.sync(fitted.state)
    list(state.working_moments())
    return fitted, state


def _held(candidates, i):
    """The raw (mean, variance) the state reads candidate ``i`` as: this
    step's exact read when the fit solves above working precision, else
    the working tier."""
    held = candidates._solved[i] if candidates._tiered else (candidates._mean[i], candidates._var[i])
    return tuple(map(unpack, held))


def _poke(fitted, candidates, i, mean=None, variance=None):
    """Overwrite the mean and variance the state reads for candidate ``i``
    with values given at the solve precision, rounded to working precision
    as an exact read (``CandidatePosterior._solve``) rounds them."""
    smp = raw_context(fitted.solve_dps)
    prec, rnd = fitted.ctx.mp._prec_rounding
    poked = [
        held if value is None else mpf_pos(smp.mpf(value)._mpf_, prec, rnd)
        for held, value in zip(_held(candidates, i), (mean, variance))
    ]
    if candidates._tiered:
        candidates._solved[i] = tuple(map(pack, poked))
    else:
        candidates._mean[i], candidates._var[i] = map(pack, poked)


def test_clamps_are_counted_and_a_deep_negative_variance_aborts(ctx60):
    fstar = ctx60.mpf(-1)
    raw = [("0.5", "-0.5", "0.3"), ("0.2", "-0.9", "-1e-30"), ("-0.5", "-0.4", "0.3")]
    fitted, candidates = _synced(ctx60, ["0"], [x for x, _, _ in raw])
    for i, (_, mean, variance) in enumerate(raw):
        _poke(fitted, candidates, i, mean, variance)
    screen, clamps = _screen(ctx60, fstar, candidates.working_moments())
    best, evaluation = _select(ctx60, fstar, screen, candidates.moments, candidates.points)
    assert clamps == 1
    moments = [candidates.moments(i) for i in range(len(raw))]
    assert [clamped for _, _, clamped in candidates.working_moments()] == [False, True, False]
    assert moments[1].variance == 0
    assert (best, evaluation.ei) == _exhaustive(ctx60, fstar, moments)
    _poke(fitted, candidates, 1, variance="-1e-10")
    with pytest.raises(eilab.NonPositivePivot, match="negative beyond the cancellation budget"):
        _screen(ctx60, fstar, candidates.working_moments())


def _moments_before_the_raw_screen(fitted, candidates, i):
    """Candidate ``i``'s moments as they were read before the screen went
    raw, and whether they were clamped: mean and variance rounded to working
    precision as mpf values, the variance clamped or refused against
    -10**(-digits + 2 guard)."""
    ctx = fitted.ctx
    mp = ctx.mp
    prec, rnd = mp._prec_rounding
    mean, variance = _held(candidates, i)
    mean, variance = mp.make_mpf(mpf_pos(mean, prec, rnd)), mp.make_mpf(mpf_pos(variance, prec, rnd))
    clamped = False
    if variance < 0:
        if variance < -ctx.tol(-(ctx.digits - 2 * ctx.guard_digits)):
            raise eilab.NonPositivePivot(
                f"posterior variance {mp.nstr(variance, 6)} at "
                f"{mp.nstr(candidates.points[i], 12)} is negative beyond the cancellation "
                "budget: design too degenerate at this precision"
            )
        clamped = True
        variance = mp.mpf(0)
    return PosteriorMoments(point=candidates.points[i], mean=mean, variance=variance), clamped


def _log_ei_before_the_raw_screen(fstar, moments):
    """The float ln EI as computed from ``PosteriorMoments``."""
    var = moments.variance._mpf_
    if not var[1]:
        return None
    fv, ev = _split(var)
    log_sigma = (math.log(fv) + ev * math.log(2)) / 2
    gap = (fstar - moments.mean)._mpf_
    if not gap[1]:
        return log_sigma - 0.5 * math.log(2 * math.pi)
    fd, ed = _split(gap)
    log_u = math.log(fd) - math.log(fv) / 2 + (2 * ed - ev) * math.log(2) / 2
    if log_u > 700:
        return None
    u = math.exp(log_u)
    value = log_sigma + _log_tau(-u if gap[0] else u)
    return value if math.isfinite(value) else None


def _screen_before_the_raw_screen(fitted, candidates):
    clamps = 0
    screen = []
    for i in range(len(candidates)):
        moments, clamped = _moments_before_the_raw_screen(fitted, candidates, i)
        clamps += clamped
        screen.append(_log_ei_before_the_raw_screen(fitted.state.best, moments))
    return screen, clamps


# Designs whose factor solves at the working precision (80 digits) and at a
# raised one (95 digits), and 40 candidates off them.
_DESIGNS = (["0", "0.5"], ["0", "0.05", "-0.05"])
_CANDIDATES = [f"{s}{k / 41}" for k in range(1, 21) for s in ("", "-")]
# Overwrites of one candidate's moments, at the solve precision with full
# mantissas: a variance of exactly zero, one negative within the clamp
# budget (1e-20 at 60 digits) and one beyond it, a mean at f* itself and one
# that rounds to f* at the working precision, and a variance so small
# against the gap that |u| leaves the float range.
_POKES = {
    "zero": lambda mp, fstar: (None, mp.zero),
    "clamp": lambda mp, fstar: (None, -mp.mpf(10) ** -50 / 3),
    "beyond": lambda mp, fstar: (None, -mp.mpf(10) ** -10 / 3),
    "at_fstar": lambda mp, fstar: (fstar, None),
    "near_fstar": lambda mp, fstar: (fstar + mp.mpf(10) ** -90 / 3, None),
    "huge_u": lambda mp, fstar: (None, mp.mpf(10) ** -700 / 3),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(_DESIGNS),
    st.lists(st.tuples(st.integers(min_value=0, max_value=len(_CANDIDATES) - 1), st.sampled_from(sorted(_POKES))), max_size=8),
)
@example(_DESIGNS[1], [(0, "clamp"), (1, "zero"), (2, "huge_u"), (3, "near_fstar"), (4, "at_fstar"), (5, "clamp")])
@example(_DESIGNS[0], [(5, "clamp"), (9, "beyond"), (7, "beyond"), (8, "zero")])
def test_raw_screen_is_the_screen_of_the_moments(ctx60, design, pokes):
    fitted, candidates = _synced(ctx60, design, _CANDIDATES)
    smp = raw_context(fitted.solve_dps)
    fstar = smp.mpf(fitted.state.best)
    for i, kind in pokes:
        _poke(fitted, candidates, i, *_POKES[kind](smp, fstar))
    try:
        expected = _screen_before_the_raw_screen(fitted, candidates)
    except eilab.NonPositivePivot as exc:
        with pytest.raises(eilab.NonPositivePivot) as raised:
            _screen(ctx60, fitted.state.best, candidates.working_moments())
        assert str(raised.value) == str(exc)
        return
    assert _screen(ctx60, fitted.state.best, candidates.working_moments()) == expected


@pytest.mark.parametrize("scale", [0.25, 2])
def test_screen_reads_exactly_each_candidate_its_bounds_cannot_settle(ctx60, monkeypatch, scale):
    # {0, 0.05, -0.05} solves at 95 digits: right after the sync no
    # candidate has been read exactly.  With the fit's own bounds, tiny
    # here, the screen settles every score from the working tier, each
    # within 1e-13 of the score of the exact moments.  With bounds widened
    # to E_var = E_mean = scale times the smallest working variance, none
    # settles: at 0.25 the variances clear E_var but the scores move too
    # much, at 2 the variances do not clear it; every candidate is read
    # exactly, and the screen is the fully read state's.
    state = _synced(ctx60, _DESIGNS[1], [])[0].state
    fstar = state.best
    for widened in (False, True):
        candidates = CandidatePosterior(ctx60.mpf(c) for c in _CANDIDATES)
        candidates.sync(state)
        assert candidates.solve_dps > ctx60.working_dps
        if widened:
            bound = (ctx60.mp.make_mpf(min(map(unpack, candidates._var))) * scale)._mpf_
            monkeypatch.setattr(candidates._fitted, "working_error", lambda: (bound, bound))
        kept, clamps, _ = candidates.screen(fstar._mpf_, ei._scorer(ctx60, fstar))
        assert candidates.raised_solves == (len(_CANDIDATES) if widened else 0)
        expected, expected_clamps = _screen(ctx60, fstar, candidates.working_moments())
        assert clamps == expected_clamps
        if widened:
            assert kept == expected
        else:
            assert all(abs(a - b) <= 1e-13 * max(1.0, abs(b)) for a, b in zip(kept, expected, strict=True))


_CANDIDATE = st.tuples(
    st.sampled_from([-1, 0, 1]),  # sign of f* - m (0: mean == f*)
    st.integers(min_value=-30, max_value=3),  # log10 |f* - m|
    st.one_of(st.none(), st.integers(min_value=-60, max_value=2)),  # log10 variance (None: 0)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_CANDIDATE, min_size=1, max_size=8))
def test_random_candidates_match_the_exhaustive_argmax(ctx60, cands):
    mp = ctx60.mp
    fstar = ctx60.mpf("-0.5")
    moments = []
    for k, (sign, gap_exp, var_exp) in enumerate(cands):
        x = (-1) ** k * mp.mpf(k + 1) / 10
        mean = fstar - sign * mp.mpf(10) ** gap_exp
        variance = 0 if var_exp is None else mp.mpf(10) ** var_exp
        moments.append(PosteriorMoments(point=x, mean=mean, variance=mp.mpf(variance)))
    expected = _exhaustive(ctx60, fstar, moments)
    assert _screened(ctx60, fstar, moments) == expected
    top = expected[1]
    slack = top * ctx60.tol(-(ctx60.digits // 2))
    front = {i for i, m in enumerate(moments) if _ei_value(ctx60, fstar, m.mean, mp.sqrt(m.variance)) + slack >= top}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _adversarial(monkeypatch, front)
        assert _screened(ctx60, fstar, moments) == expected


def test_real_design_rescores_only_the_front_runners(ctx60, gauss_unit, ei_calls, argmax_ei):
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, f(ctx60.mpf(0)))
    grid = eilab.CandidateGrid(l_max=300)
    first = argmax_ei(state, grid)
    state = eilab.add_point(state, first.point, f(first.point))
    del ei_calls[:]
    best = argmax_ei(state, grid)
    # the winner's EI comes from the rescoring; the ~600 others are screened
    assert len(ei_calls) <= 4
    fitted = eilab.FittedPosterior(state)
    design = set(state.points)
    moments = [fitted.moments(c) for c in grid.points(ctx60) if c not in design]
    index, value = _exhaustive(ctx60, state.best, moments)
    assert best.point == moments[index].point and best.ei == value


@pytest.mark.parametrize("x1", ["0", "0.5"])
def test_kept_screen_of_an_ou_run_is_the_screen_of_every_candidate(ctx60, x1):
    # The run's steps replayed on one Markov state: after each argmax the
    # kept screen and clamp count equal a fresh screen of every candidate,
    # None entries included, and the step scored the candidates between the
    # new point's old neighbours only, or every candidate at the first step
    # and when f* moved.  From 0 f* never moves (0 is the optimum of
    # -exp(-x^2)); from 0.5 it moves once.
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    grid = eilab.CandidateGrid(l_max=120)
    run = eilab.run_trajectory(ou, "neg_gauss", x1, 29, grid, ctx60)
    assert not run.aborted
    f = eilab.objective_function("neg_gauss", ou, ctx60)
    state = eilab.TrajectoryState.start(ou, ctx60, ctx60.mpf(x1), f(ctx60.mpf(x1)))
    candidates = ei._grid_candidates(state, grid)
    assert type(candidates) is MarkovPosterior
    fstar = None
    moved = 0
    for timing in run.timings:
        candidates.sync(state)
        new = state.points[-1]
        lower = max((x for x in state.points if x < new), default=-2)
        upper = min((x for x in state.points if x > new), default=2)
        slice_size = sum(lower < c < upper for c in candidates.points)
        best, clamps, index, screened = ei._argmax(state, candidates)
        if fstar is None or state.best != fstar:
            moved += fstar is not None
            assert screened == len(candidates)
        else:
            assert screened == slice_size < len(candidates)
        assert screened == timing.screened
        kept, kept_clamps, rescored = candidates.screen(state.best._mpf_, ei._scorer(ctx60, state.best))
        assert rescored == 0
        assert (kept, kept_clamps) == _screen(ctx60, state.best, candidates.working_moments())
        assert clamps == kept_clamps
        fstar = state.best
        candidates.remove(index)
        state = eilab.add_point(state, best.point, f(best.point))
    assert state.points == run.state.points
    assert moved == (x1 == "0.5")
