"""The float screen of the EI argmax against the exhaustive closed-form argmax.

``ei._select`` ranks candidates by a float ln EI and scores only those
within ``_SCREEN_MARGIN`` of the float maximum with the full-precision
closed form.  The reference here scores every candidate with ``_ei_value``
and applies the same top, tie slack and tie-break; winner and EI must agree
exactly.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import eilab
from eilab import ei
from eilab.ei import _SCREEN_MARGIN, _ei_value, _log_tau, _screen_log_ei, _select, _tie_key
from eilab.posterior import PosteriorMoments, _checked_moments
from eilab.precision import raw_context


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
    best, value, _ = _select(ctx, fstar, moments.__getitem__, [m.point for m in moments])
    return best, value


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
    """Shift the float ln EI by 0.9 margin: down at the points in ``front``,
    up everywhere else.  The screen must absorb any float error below the
    margin."""
    real = ei._screen_log_ei

    def shifted(fstar, moments):
        value = real(fstar, moments)
        if value is None:
            return None
        shift = 0.9 * _SCREEN_MARGIN * max(1.0, abs(value))
        return value - shift if moments.point in front else value + shift

    monkeypatch.setattr(ei, "_screen_log_ei", shifted)


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
    _adversarial(monkeypatch, {ctx60.mpf("0.3"), ctx60.mpf("0.5")})
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
    assert abs(_screen_log_ei(fstar, at_u0) - (math.log(0.2) - 0.5 * math.log(2 * math.pi))) <= 1e-15
    moments = [_moments(ctx60, "0.8", "-0.6", "0.04"), at_u0]
    best, value = _screened(ctx60, fstar, moments)
    assert (best, value) == _exhaustive(ctx60, fstar, moments)
    assert best == 1 and abs(value - mp.mpf("0.2") / mp.sqrt(2 * mp.pi)) <= ctx60.eps(5)


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


def test_clamps_are_counted_and_a_deep_negative_variance_aborts(ctx60):
    mp = ctx60.mp
    threshold = ctx60.tol(-(ctx60.digits - 2 * ctx60.guard_digits))
    fstar = ctx60.mpf(-1)
    raw = [("0.5", "-0.5", "0.3"), ("0.2", "-0.9", "-1e-30"), ("-0.5", "-0.4", "0.3")]

    def moments_at(i):
        x, mean, variance = raw[i]
        return _checked_moments(ctx60, mp.mpf(x), mp.mpf(mean), mp.mpf(variance), threshold)

    points = [mp.mpf(x) for x, _, _ in raw]
    best, value, clamps = _select(ctx60, fstar, moments_at, points)
    assert clamps == 1
    assert (best, value) == _exhaustive(ctx60, fstar, [moments_at(i) for i in range(len(raw))])
    raw[1] = ("0.2", "-0.9", "-1e-10")
    with pytest.raises(eilab.NonPositivePivot):
        _select(ctx60, fstar, moments_at, points)


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
    front = {m.point for m in moments if _ei_value(ctx60, fstar, m.mean, mp.sqrt(m.variance)) + slack >= top}
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

