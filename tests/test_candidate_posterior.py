"""The incremental candidate posterior against the direct single-query path.

``run_trajectory`` scores the grid from a ``CandidatePosterior`` that gains
one covariance and one forward-substitution entry per candidate per step.
These tests replay runs step by step, syncing the candidates to a fit grown
from the previous step's, and hold every candidate's moments against
``FittedPosterior.moments`` of a fresh fit: the variance bit for bit, the
mean to digits/2.  They also count the covariances each sync evaluates.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

import eilab
from eilab import posterior as posterior_module
from eilab.ei import _ei_value, _tie_key
from eilab.posterior import CandidatePosterior, _pack, _unpack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=-(2**1100), max_value=2**1100), st.integers(min_value=-(10**12), max_value=10**12))
def test_packed_column_entry_unpacks_to_the_raw_tuple(man, exp):
    raw = from_man_exp(man, exp, 1066)
    assert _unpack(_pack(raw)) == raw


def _counted_sync(candidates, fitted):
    """Sync, checking the reported covariance count against the calls made."""
    with mock.patch.object(posterior_module, "covariance", wraps=posterior_module.covariance) as cov:
        evaluated, resolved = candidates.sync(fitted)
    assert evaluated == cov.call_count
    return evaluated, resolved


def _assert_matches_direct(candidates, fitted):
    """Every candidate's moments equal the direct query; returns the slow
    argmax under the run's tie rule and the slow EI values by point."""
    ctx = fitted.ctx
    mp = ctx.mp
    tol = ctx.tol(-(ctx.digits // 2))
    fstar = fitted.state.best
    eis = {}
    for i, c in enumerate(candidates.points):
        fast = candidates.moments(i)
        slow = fitted.moments(c)
        assert fast.point == c
        assert fast.variance == slow.variance, f"variance differs at {mp.nstr(c, 12)}"
        assert fast.clamped == slow.clamped
        assert abs(fast.mean - slow.mean) <= tol * max(abs(slow.mean), 1)
        eis[c] = _ei_value(ctx, fstar, slow.mean, mp.sqrt(slow.variance))
    top = max(eis.values())
    slack = top * tol
    tied = [c for c, v in eis.items() if v + slack >= top]
    return min(tied, key=_tie_key), eis


def _replay(kernel, objective, x1, steps, grid, ctx, jitter=False):
    """Run, then re-walk the run's designs through one candidate state,
    checking each step against the direct path and the old argmax."""
    run = eilab.run_trajectory(kernel, objective, x1, steps, grid, ctx, jitter=jitter)
    pts, vals = run.state.points, run.state.values
    candidates = CandidatePosterior(c for c in grid.points(ctx) if c != pts[0])
    tol = ctx.tol(-(ctx.digits // 2))
    grown = None
    for size, record in enumerate(run.records[1:], start=1):
        state = eilab.TrajectoryState(
            kernel=kernel, ctx=ctx, points=pts[:size], values=vals[:size], best=min(vals[:size])
        )
        fitted = eilab.FittedPosterior(state, jitter=jitter)
        grown = eilab.FittedPosterior(state, jitter=jitter, extends=grown)
        # one covariance per remaining candidate, also when the solve
        # precision rises and the kept columns are re-solved
        evaluated, resolved = _counted_sync(candidates, grown)
        assert evaluated == len(candidates)
        assert resolved == (size > 1 and run.records[size - 1].solve_dps != fitted.solve_dps)
        slow_best, eis = _assert_matches_direct(candidates, fitted)
        assert record.point == slow_best == pts[size]
        assert abs(record.ei - eis[slow_best]) <= tol * eis[slow_best]
        assert record.solve_dps == fitted.solve_dps
        candidates.remove(candidates.points.index(pts[size]))
    return run


def test_ou_run_matches_direct_path(ctx60):
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    run = _replay(ou, "neg_gauss", 0, 12, eilab.CandidateGrid(l_max=120), ctx60)
    assert not run.aborted
    assert run.state.size == 13


def test_gaussian_run_resolves_on_raised_solve_precision(ctx300, gauss_unit):
    run = _replay(gauss_unit, "neg_kernel", 0, 6, eilab.CandidateGrid(l_max=600), ctx300)
    assert not run.aborted
    dps = [rec.solve_dps for rec in run.records[1:]]
    # the factor's solve precision rises 320 -> 340 at step 6: the candidate
    # state is re-solved at the new precision from the kept columns
    assert dps[:5] == [320] * 5 and dps[5] == 340
    assert [t.sync_resolved for t in run.timings] == [False] * 5 + [True]


def test_jitter_run_matches_direct_path(ctx60, gauss_unit):
    run = _replay(gauss_unit, "neg_kernel", 0, 6, eilab.CandidateGrid(l_max=300), ctx60, jitter=True)
    assert all(rec.jitter for rec in run.records[1:])


def test_seed_point_on_the_grid_is_not_a_candidate(ctx60, gauss_unit):
    grid = eilab.CandidateGrid(epsilon="0.5", l_max=4, extra_points=("0.3",))
    assert ctx60.mpf("0.3") in grid.points(ctx60)
    run = _replay(gauss_unit, "neg_gauss", "0.3", 4, grid, ctx60)
    assert run.state.size == 5


def test_run_exhausting_the_grid_raises_empty_grid(ctx60, gauss_unit):
    # grid {1, -1}: two steps take both candidates, the third finds none
    with pytest.raises(eilab.EmptyGrid):
        eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 3, eilab.CandidateGrid(l_max=0), ctx60)


def _fit(kernel, ctx, points, values):
    state = eilab.TrajectoryState(kernel=kernel, ctx=ctx, points=tuple(points), values=tuple(values), best=min(values))
    return eilab.FittedPosterior(state)


def test_sync_refuses_a_design_that_does_not_extend(ctx60, gauss_unit):
    mp = ctx60.mp
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    candidates = CandidatePosterior([mp.mpf(k) / 10 for k in range(-9, 10) if k not in (0, 5, -5)])

    def fitted(*xs):
        xs = [mp.mpf(0)] + [mp.mpf(x) for x in xs]
        return _fit(gauss_unit, ctx60, xs, [f(x) for x in xs])

    assert _counted_sync(candidates, fitted("0.5")) == (2 * len(candidates), False)
    # replace the last point, or shrink the design: refused before any
    # covariance is evaluated, and the synced state stays as it was
    for fit in (fitted("-0.5"), fitted()):
        with mock.patch.object(posterior_module, "covariance") as cov:
            with pytest.raises(eilab.EILabError, match="does not extend"):
                candidates.sync(fit)
        assert cov.call_count == 0
    # growing by three points at once evaluates three column entries each
    fit = fitted("0.5", "0.35", "-0.45", "0.25")
    evaluated, _ = _counted_sync(candidates, fit)
    assert evaluated == 3 * len(candidates)
    _assert_matches_direct(candidates, fit)
    # the same design under jitter re-solves the kept columns
    jittered = eilab.FittedPosterior(fit.state, jitter=True)
    assert _counted_sync(candidates, jittered) == (0, True)
    _assert_matches_direct(candidates, jittered)


def test_sync_refuses_changed_values(ctx60, gauss_unit):
    # the same design points with other observed values, alone or grown by
    # a point: the kept means would be stale, so the fit is refused
    mp = ctx60.mp
    candidates = CandidatePosterior([mp.mpf(k) / 10 for k in range(-9, 10) if k not in (0, 5, 3)])
    xs = [mp.mpf(0), mp.mpf("0.5"), mp.mpf("0.3")]
    candidates.sync(_fit(gauss_unit, ctx60, xs[:2], [mp.mpf(1), mp.mpf(2)]))
    for size in (2, 3):
        with pytest.raises(eilab.EILabError, match="does not extend"):
            candidates.sync(_fit(gauss_unit, ctx60, xs[:size], [mp.mpf(1), mp.mpf(-3), mp.mpf(0)][:size]))
    fit = _fit(gauss_unit, ctx60, xs, [mp.mpf(1), mp.mpf(2), mp.mpf(0)])
    assert _counted_sync(candidates, fit) == (len(candidates), False)
    _assert_matches_direct(candidates, fit)
