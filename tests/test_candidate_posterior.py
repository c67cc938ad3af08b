"""The incremental candidate posterior against the direct single-query path.

``run_trajectory`` scores the grid from a ``CandidatePosterior`` that gains
one forward-substitution entry per candidate per step.  These tests replay
runs step by step and hold every candidate's moments against
``FittedPosterior.moments``: the variance bit for bit, the mean to digits/2.
"""

import pytest

import eilab
from eilab.ei import _ei_value, _tie_key
from eilab.posterior import CandidatePosterior


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
    for size, chosen in enumerate(run.chosen, start=1):
        state = eilab.TrajectoryState(
            kernel=kernel, ctx=ctx, points=pts[:size], values=vals[:size], best=min(vals[:size])
        )
        fitted = eilab.FittedPosterior(state, jitter=jitter)
        candidates.sync(fitted)
        slow_best, eis = _assert_matches_direct(candidates, fitted)
        assert chosen.point == slow_best == pts[size]
        assert abs(chosen.ei - eis[slow_best]) <= tol * eis[slow_best]
        assert run.records[size].solve_dps == fitted.solve_dps
        candidates.remove(candidates.points.index(pts[size]))
    return run


def test_ou_run_matches_direct_path(ctx60):
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    run = _replay(ou, "neg_gauss", 0, 12, eilab.CandidateGrid(l_max=120), ctx60)
    assert not run.aborted
    assert run.state.size == 13


def test_gaussian_run_rebuilds_on_raised_solve_precision(ctx300, gauss_unit):
    run = _replay(gauss_unit, "neg_kernel", 0, 6, eilab.CandidateGrid(l_max=600), ctx300)
    assert not run.aborted
    dps = [rec.solve_dps for rec in run.records[1:]]
    # the factor's solve precision rises 320 -> 340 at step 6, which forces
    # a rebuild of the candidate state at the new precision
    assert dps[:5] == [320] * 5 and dps[5] == 340


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


def test_sync_rebuilds_when_the_design_does_not_extend(ctx60, gauss_unit):
    mp = ctx60.mp
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    grid = [mp.mpf(k) / 10 for k in range(-9, 10) if k not in (0, 5, -5)]
    candidates = CandidatePosterior(grid)

    def fitted(*xs):
        state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, f(mp.mpf(0)))
        for x in xs:
            state = eilab.add_point(state, mp.mpf(x), f(mp.mpf(x)))
        return eilab.FittedPosterior(state)

    # extend, replace the last point, shrink, then jump by two points
    for design in [("0.5",), ("-0.5",), ("-0.5", "0.25"), (), ("0.5", "0.35", "-0.45")]:
        fit = fitted(*(x for x in design))
        candidates.sync(fit)
        _assert_matches_direct(candidates, fit)
