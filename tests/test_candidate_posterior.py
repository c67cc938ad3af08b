"""The incremental candidate posterior against the direct single-query path.

``run_trajectory`` scores the grid from a ``CandidatePosterior`` that gains
one covariance and one forward-substitution entry per candidate per step.
These tests replay runs step by step, syncing the candidates to each
step's design (the state extends its own fit), and hold every candidate's
moments bit for bit against ``FittedPosterior.moments`` of a fresh fit, a
one-candidate state synced once.  The mean is also held, to digits/2, against sum_k lambda_k f_k
with the weights lambda = G^-1 g of ``FittedPosterior.weights``, a route
that shares no update with the candidate state.  The tests also count the
covariances each sync evaluates, and the objects one step makes per candidate.

While the fit solves above working precision the state solves a
candidate exactly only when it is read or its score cannot be settled from
the working tier: the working tier is held within its error bound of a
solve at twice the digits, the collapse workload's rise step to solving
only its screen survivors exactly, a clamping run's counts and abort to
those of a fully read state, and the exact reads of a run that solves
above working precision with no rise to the direct query, each solved once
per step.

An unjittered Ornstein-Uhlenbeck run scores from a ``MarkovPosterior``
instead, the closed form from each candidate's two design neighbours.  It is
held to roundoff against the Cholesky moments at twice the working digits,
its run against the same run on the Cholesky state, and a step is held to
recomputing only the candidates between the new point's neighbours.  Its
pivots are held against a fresh Cholesky factor, its aborts against the
fit's, and its run is held to building no fit, factor or covariance.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import from_man_exp

import eilab
from eilab import ei as ei_module
from eilab import kernels as kernels_module
from eilab import posterior as posterior_module
from eilab.ei import _ei_value, _tie_key
from eilab.linalg import CholeskyFactor
from eilab.posterior import CandidatePosterior, MarkovPosterior
from eilab.precision import pack, raw_context, unpack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.one_of(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=-(2**70), max_value=2**70)),
)
def test_packed_column_entry_unpacks_to_the_raw_tuple(man, exp):
    raw = from_man_exp(man, exp, 1066)
    assert unpack(pack(raw)) == raw


def _counted_sync(candidates, state):
    """Sync to ``state``, checking the reported covariance count against the
    entries the column calls evaluated."""
    with mock.patch.object(posterior_module, "covariance_column", wraps=posterior_module.covariance_column) as column:
        evaluated, resolved = candidates.sync(state)
    assert evaluated == sum(len(call.args[2]) for call in column.call_args_list)
    return evaluated, resolved


def _assert_matches_direct(candidates, fitted):
    """Every candidate's moments equal the direct query, and the mean the
    weights' sum; returns the slow argmax under the run's tie rule and the
    slow EI values by point."""
    ctx = fitted.ctx
    mp = ctx.mp
    tol = ctx.tol(-(ctx.digits // 2))
    fstar = fitted.state.best
    values = fitted.state.values
    eis = {}
    for i, c in enumerate(candidates.points):
        fast = candidates.moments(i)
        slow = fitted.moments(c)
        assert fast == slow, f"moments differ at {mp.nstr(c, 12)}"
        weighted = mp.fsum(lk * fk for lk, fk in zip(fitted.weights(c), values))
        assert abs(fast.mean - weighted) <= tol * max(abs(weighted), 1)
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
    candidates = CandidatePosterior((c for c in grid.points(ctx) if c != pts[0]), jitter)
    tol = ctx.tol(-(ctx.digits // 2))
    for size, record in enumerate(run.records[1:], start=1):
        state = _design(kernel, ctx, pts[:size], vals[:size])
        fitted = eilab.FittedPosterior(state, jitter=jitter)
        # one covariance per remaining candidate, also when the solve
        # precision rises
        evaluated, resolved = _counted_sync(candidates, state)
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
    # the factor's solve precision rises 320 -> 340 at step 6; every
    # candidate is read here (``_assert_matches_direct``), so each is solved
    # at the new precision from its kept column, rounded to working
    # precision, and matches the direct query bit for bit
    assert dps[:5] == [320] * 5 and dps[5] == 340
    assert [t.sync_resolved for t in run.timings] == [False] * 5 + [True]


_KERNELS = {
    "gaussian": eilab.GaussianKernel(a="0.25", gamma="sqrt_pi"),
    "ou": eilab.OrnsteinUhlenbeckKernel(theta="1"),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_jitter_run_matches_direct_path(ctx60, name, monkeypatch):
    # the jittered posterior is not the Markov bridge: a jittered run keeps
    # the Cholesky candidate state under the Ornstein-Uhlenbeck kernel too
    def refused(points):
        raise AssertionError("a jittered run built the Markov state")

    monkeypatch.setattr(ei_module, "MarkovPosterior", refused)
    run = _replay(_KERNELS[name], "neg_kernel", 0, 6, eilab.CandidateGrid(l_max=300), ctx60, jitter=True)
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


def _design(kernel, ctx, points, values):
    return eilab.TrajectoryState(kernel=kernel, ctx=ctx, points=tuple(points), values=tuple(values), best=min(values))


def _assert_close_to_direct(candidates, fitted):
    """Every candidate's moments within the run's digits/2 contract of the
    direct query: the variance relative to itself, the mean relative to the
    largest observed value."""
    ctx = fitted.ctx
    tol = ctx.tol(-(ctx.digits // 2))
    scale = max(abs(v) for v in fitted.state.values)
    for i, c in enumerate(candidates.points):
        fast, slow = candidates.moments(i), fitted.moments(c)
        assert abs(fast.variance - slow.variance) <= tol * slow.variance
        assert abs(fast.mean - slow.mean) <= tol * scale


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_sync_refuses_a_design_that_does_not_extend(ctx60, name):
    kernel = _KERNELS[name]
    markov = name == "ou"
    mp = ctx60.mp
    f = eilab.objective_function("neg_kernel", kernel, ctx60)
    points = [mp.mpf(k) / 10 for k in range(-9, 10) if k not in (0, 5, -5)]
    candidates = (MarkovPosterior if markov else CandidatePosterior)(points)
    # covariances a sync evaluates per candidate and new design point
    per_point = 0 if markov else len(candidates)
    matches = _assert_close_to_direct if markov else _assert_matches_direct

    def design(*xs):
        xs = [mp.mpf(0)] + [mp.mpf(x) for x in xs]
        return _design(kernel, ctx60, xs, [f(x) for x in xs])

    assert _counted_sync(candidates, design("0.5")) == (2 * per_point, False)
    # replace the last point, or shrink the design: refused before any
    # covariance is evaluated, and the synced state stays as it was
    for state in (design("-0.5"), design()):
        with mock.patch.object(posterior_module, "covariance_column") as column:
            with pytest.raises(eilab.EILabError, match="does not extend"):
                candidates.sync(state)
        assert column.call_count == 0
    # growing by three points at once evaluates three column entries each
    state = design("0.5", "0.35", "-0.45", "0.25")
    evaluated, _ = _counted_sync(candidates, state)
    assert evaluated == 3 * per_point
    matches(candidates, eilab.FittedPosterior(state))
    # jitter is the state's from its construction: a jittered state synced
    # once matches the jittered fit; the Markov state has no closed form
    # for it and takes no jitter
    if markov:
        with pytest.raises(TypeError):
            MarkovPosterior(points, jitter=True)
    else:
        jittered = CandidatePosterior(points, jitter=True)
        assert _counted_sync(jittered, state) == (5 * per_point, False)
        assert jittered.jitter_used and not candidates.jitter_used
        matches(jittered, eilab.FittedPosterior(state, jitter=True))


def test_sync_refuses_changed_values(ctx60, gauss_unit):
    # the same design points with other observed values, alone or grown by
    # a point: the kept means would be stale, so the fit is refused
    mp = ctx60.mp
    candidates = CandidatePosterior([mp.mpf(k) / 10 for k in range(-9, 10) if k not in (0, 5, 3)])
    xs = [mp.mpf(0), mp.mpf("0.5"), mp.mpf("0.3")]
    candidates.sync(_design(gauss_unit, ctx60, xs[:2], [mp.mpf(1), mp.mpf(2)]))
    for size in (2, 3):
        with pytest.raises(eilab.EILabError, match="does not extend"):
            candidates.sync(_design(gauss_unit, ctx60, xs[:size], [mp.mpf(1), mp.mpf(-3), mp.mpf(0)][:size]))
    state = _design(gauss_unit, ctx60, xs, [mp.mpf(1), mp.mpf(2), mp.mpf(0)])
    assert _counted_sync(candidates, state) == (len(candidates), False)
    _assert_matches_direct(candidates, eilab.FittedPosterior(state))


def test_one_step_makes_no_per_candidate_covariance_call_or_moments(ctx60, gauss_unit):
    # a sync evaluates the covariances of each new design point in one column
    # call, and the argmax builds PosteriorMoments for the screen survivors
    # only: one per closed-form EI.  The Gaussian column at x0 != 0 makes one
    # exp per mirror pair of the 602 grid candidates, and one for its origin.
    # The sync's fit evaluates the new points' Gram rows and G(0) one lag at
    # a time, one exp each, however many candidates there are.
    mp = ctx60.mp
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    xs = [mp.mpf(0), mp.mpf("0.5"), mp.mpf("-0.35")]
    grid = eilab.CandidateGrid(l_max=300)
    candidates = CandidatePosterior(c for c in grid.points(ctx60) if c not in xs)
    for size in (2, 3):
        state = _design(gauss_unit, ctx60, xs[:size], [f(x) for x in xs[:size]])
        with contextlib.ExitStack() as stack:
            spy = lambda module, name: stack.enter_context(
                mock.patch.object(module, name, wraps=getattr(module, name))
            )
            per_lag = [spy(posterior_module, "covariance"), spy(kernels_module, "covariance")]
            column = spy(posterior_module, "covariance_column")
            made = spy(posterior_module, "PosteriorMoments")
            scored = spy(ei_module, "_ei_value")
            exps = spy(kernels_module, "mpf_exp")
            evaluated, _ = candidates.sync(state)
            synced_exps = exps.call_count
            best, clamps, index, _ = ei_module._argmax(state, candidates)
        new_points = size if size == 2 else 1
        gram = sum(k + 1 for k in range(size - new_points, size)) + 1
        assert [cov.call_count for cov in per_lag] == [gram, 0]
        assert column.call_count == new_points
        assert evaluated == new_points * len(candidates)
        if size == 3:
            # plus one for each lag of the fit
            assert len(candidates) == 602 and synced_exps <= 301 + 1 + gram
        assert 1 <= made.call_count == scored.call_count <= 4
        assert best.point == candidates.points[index]


def test_one_markov_step_recomputes_only_the_candidates_between_the_new_points_neighbours(ctx60):
    # 0.2 lands in the gap (0, 0.5) of the design {-0.35, 0, 0.5}: only the
    # candidates strictly inside that gap get new moments, each from one
    # exponential (towards 0.2), plus one for each of the two new gaps, well
    # inside 2 x (recomputed + 1); no covariance is evaluated
    ou = _KERNELS["ou"]
    mp = ctx60.mp
    f = eilab.objective_function("neg_gauss", ou, ctx60)
    xs = [mp.mpf(0), mp.mpf("0.5"), mp.mpf("-0.35"), mp.mpf("0.2")]
    grid = eilab.CandidateGrid(l_max=300)
    candidates = MarkovPosterior(c for c in grid.points(ctx60) if c not in xs)
    assert candidates.points == sorted(candidates.points)
    state = _design(ou, ctx60, xs[:3], [f(x) for x in xs[:3]])
    candidates.sync(state)
    means, variances = list(candidates._mean), list(candidates._var)
    grown = eilab.add_point(state, xs[3], f(xs[3]))
    with contextlib.ExitStack() as stack:
        spy = lambda module, name: stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
        exps = spy(kernels_module, "mpf_exp")
        column = spy(posterior_module, "covariance_column")
        assert candidates.sync(grown) == (0, False)
    between = {i for i, c in enumerate(candidates.points) if 0 < c < mp.mpf("0.5")}
    renewed = {
        i
        for i in range(len(candidates))
        if candidates._mean[i] is not means[i] or candidates._var[i] is not variances[i]
    }
    assert renewed == between and 0 < 2 * len(between) < len(candidates)
    assert exps.call_count <= len(between) + 2
    assert column.call_count == 0
    _assert_close_to_direct(candidates, eilab.FittedPosterior(grown))


_DYADIC = st.integers(min_value=1, max_value=2**11).map(lambda k: str(k / 2**8))


@pytest.mark.parametrize("digits", [60, 300])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_markov_closed_form_matches_the_cholesky_moments_at_twice_the_digits(digits, data):
    # Random theta, gamma in (0, 8], designs of 1-12 points in [-1, 1] at a
    # spacing of at least 2^-20, random values, and candidates inside every
    # gap, beyond both hull ends and 1e-40 from every design point.  All
    # inputs are exact at both precisions.  The closed form rounds a few
    # times at digits + guard; the reference, ``FittedPosterior.moments`` at
    # twice the working digits, loses at most the 40 digits the variance
    # cancels near a design point and the digits of the Gram condition
    # (below 10^10 here).  The bound is relative 10^-digits: on the
    # variance, and on the mean against the largest |f| (the mean's weights
    # are positive and sum to at most 1).  The state's pivots, the bridge
    # variance at each x_K given the points before it, are held to the same
    # bound against a fresh Cholesky factor at twice the digits, and so is
    # ``condition``; ``solve_dps`` is the working-precision fit's.
    ctx = eilab.PrecisionContext(digits=digits, guard_digits=20)
    ref = eilab.PrecisionContext(digits=2 * digits, guard_digits=40)
    mp = ctx.mp
    kernel = eilab.OrnsteinUhlenbeckKernel(theta=data.draw(_DYADIC), gamma=data.draw(_DYADIC))
    xs = data.draw(st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=12, unique=True))
    xs = [mp.mpf(k) / 2**20 for k in xs]
    fs = [mp.mpf(v) / 2**10 for v in data.draw(st.lists(st.integers(-(2**12), 2**12), min_size=len(xs), max_size=len(xs)))]
    ordered = sorted(xs)
    fraction = st.integers(min_value=1, max_value=2**10 - 1).map(lambda j: mp.mpf(j) / 2**10)
    inside = [a + (b - a) * data.draw(fraction) for a, b in zip(ordered, ordered[1:])]
    beyond = [ordered[0] - data.draw(fraction), ordered[-1] + data.draw(fraction)]
    near = [x + s * mp.mpf("1e-40") for x in xs for s in (-1, 1)]
    candidates = MarkovPosterior(sorted(inside + beyond + near))
    candidates.sync(_design(kernel, ctx, xs, fs))
    design = _design(kernel, ref, [ref.mpf(x) for x in xs], [ref.mpf(v) for v in fs])
    reference = eilab.FittedPosterior(design)
    tol = ref.tol(-digits)
    gram = [[eilab.covariance(kernel, a - b, ref) for b in design.points[: i + 1]] for i, a in enumerate(design.points)]
    factor = CholeskyFactor(gram, ref)
    assert len(candidates.pivots) == len(factor.pivots)
    for k, (fast, slow) in enumerate(zip(candidates.pivots, factor.pivots)):
        assert abs(ref.mpf(fast) - slow) <= tol * slow, f"pivot {k}"
    assert abs(ref.mpf(candidates.condition) - factor.pivot_ratio) <= tol * factor.pivot_ratio
    assert candidates.solve_dps == eilab.FittedPosterior(_design(kernel, ctx, xs, fs)).solve_dps
    scale = max(abs(ref.mpf(v)) for v in fs)
    for i, c in enumerate(candidates.points):
        fast, slow = candidates.moments(i), reference.moments(ref.mpf(c))
        assert abs(ref.mpf(fast.variance) - slow.variance) <= tol * slow.variance, f"variance at {mp.nstr(c, 12)}"
        assert abs(ref.mpf(fast.mean) - slow.mean) <= tol * scale, f"mean at {mp.nstr(c, 12)}"


def test_ou_coverage_run_makes_the_cholesky_choices(ou_coverage_run, ctx60, monkeypatch):
    # The 30-point contrast run scores from the Markov state; on the
    # Cholesky state the same run makes the same choices, clamps and solve
    # precisions, and its EIs agree to digits/2.
    grid = eilab.CandidateGrid(l_max=500)
    state = ou_coverage_run.state
    assert type(ei_module._grid_candidates(state, grid)) is MarkovPosterior
    monkeypatch.setattr(ei_module, "MarkovPosterior", CandidatePosterior)
    cholesky = eilab.run_trajectory(state.kernel, "neg_gauss", 0, 29, grid, ctx60)
    assert cholesky.state.points == state.points and cholesky.aborted_at == ou_coverage_run.aborted_at
    tol = ctx60.tol(-(ctx60.digits // 2))
    for fast, slow in zip(ou_coverage_run.records[1:], cholesky.records[1:], strict=True):
        assert (fast.variance_clamps, fast.solve_dps) == (slow.variance_clamps, slow.solve_dps)
        assert abs(fast.ei - slow.ei) <= tol * slow.ei


@pytest.mark.parametrize("d, index", [("1e-90", 2), ("1e-70", None)])
def test_markov_and_cholesky_pivots_abort_alike(ctx60, d, index):
    # The design {0, 0.5, d}: the pivot of d, about 2 theta gamma d, is
    # below the floor (about 6e-79 at 60+20 digits) at 1e-90 and above it
    # at 1e-70.  Near d = 2e-79 the Cholesky pivot is roundoff, so the two
    # routes need not agree there.
    ou = _KERNELS["ou"]
    f = eilab.objective_function("neg_gauss", ou, ctx60)
    xs = [ctx60.mpf(x) for x in ("0", "0.5", d)]
    state = _design(ou, ctx60, xs, [f(x) for x in xs])
    candidates = MarkovPosterior([ctx60.mpf("-0.25"), ctx60.mpf("0.25")])
    if index is None:
        assert candidates.sync(state) == (0, False)
        assert candidates.solve_dps == eilab.FittedPosterior(state).solve_dps
        return
    for sync in (eilab.FittedPosterior, candidates.sync):
        with pytest.raises(eilab.NonPositivePivot) as raised:
            sync(state)
        assert raised.value.index == index


def test_unjittered_ou_run_builds_no_fit_factor_or_covariance(ou_coverage_run, ctx60):
    # The Markov state's pivots give the 29-step run its aborts, conditions
    # and solve precisions: no fit, no Cholesky factor and no covariance.
    # One jittered step under the same spies makes all three.
    grid = eilab.CandidateGrid(l_max=500)
    kernel = ou_coverage_run.state.kernel

    def counted(steps, jitter):
        with contextlib.ExitStack() as stack:
            spies = [
                stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
                for module, name in (
                    (posterior_module, "FittedPosterior"),
                    (ei_module, "FittedPosterior"),
                    (posterior_module, "CholeskyFactor"),
                    (posterior_module, "covariance"),
                    (ei_module, "covariance"),
                    (kernels_module, "covariance"),
                )
            ]
            run = eilab.run_trajectory(kernel, "neg_gauss", 0, steps, grid, ctx60, jitter=jitter)
        return run, [spy.call_count for spy in spies]

    run, calls = counted(29, False)
    assert run == ou_coverage_run
    assert calls == [0] * 6
    _, calls = counted(1, True)
    assert calls[0] == calls[2] == 1 and calls[3] > 0


# The paper's collapse design x_1..x_7 as signed grid indices on e^{-0.02 l}.
_COLLAPSE = [(1, None), (-1, 23), (1, 13), (1, 74), (-1, 115), (1, 281), (-1, 591)]


def _exact_reference(candidates, i, mp2):
    """Candidate ``i``'s variance G(0) - g^T A^-1 g and mean g^T A^-1 f from
    its kept column g, the fit's stored Gram entries A and values f, solved
    under ``mp2``."""
    fitted = candidates._fitted
    triangle = fitted._factor._a
    n = len(triangle)
    gram = mp2.matrix(n, n)
    for r, row in enumerate(triangle):
        for c, entry in enumerate(row):
            gram[r, c] = gram[c, r] = mp2.mpf(entry)
    g = [mp2.make_mpf(unpack(entry)) for entry in candidates._g[i]]
    weights = mp2.lu_solve(gram, mp2.matrix(g))
    g0 = mp2.mpf(fitted._g0_hi)
    variance = g0 - mp2.fdot(g, weights)
    mean = mp2.fdot(weights, [mp2.mpf(v) for v in fitted.state.values])
    return mean, variance


@pytest.mark.parametrize("digits", [60, 300])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_working_tier_is_within_its_bound_of_the_exact_moments(digits, data):
    # Random Gaussian designs of 2-7 points (a in [2^-8, 1], points at a
    # spacing of at least 2^-12, random values) and prefixes of the
    # paper's collapse design with f = -G, candidates inside every gap,
    # beyond both hull ends and 1e-40 from every design point.  The state
    # holds every candidate's working tier, solved against the
    # working-precision factor; ``FittedPosterior.working_error`` bounds
    # its distance to the exact moments of the same kept columns and Gram
    # entries, here solved at twice the working digits, and to the exact
    # read the state solves at its solve precision (``_solve``).
    ctx = eilab.PrecisionContext(digits=digits, guard_digits=20)
    mp = ctx.mp
    mp2 = raw_context(2 * ctx.working_dps)
    if data.draw(st.booleans(), label="collapse"):
        kernel = eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")
        signed = _COLLAPSE[: data.draw(st.integers(min_value=2, max_value=len(_COLLAPSE)))]
        xs = [mp.zero if l is None else s * mp.exp(-l * mp.mpf("0.02")) for s, l in signed]
        fs = [-eilab.covariance(kernel, x, ctx) for x in xs]
    else:
        a = data.draw(st.integers(min_value=1, max_value=2**8)) / 2**8
        kernel = eilab.GaussianKernel(a=str(a), gamma="1")
        ks = data.draw(st.lists(st.integers(min_value=-(2**12), max_value=2**12), min_size=2, max_size=7, unique=True))
        xs = [mp.mpf(k) / 2**12 for k in ks]
        fs = [mp.mpf(v) / 2**10 for v in data.draw(st.lists(st.integers(-(2**12), 2**12), min_size=len(xs), max_size=len(xs)))]
    ordered = sorted(xs)
    fraction = st.integers(min_value=1, max_value=2**10 - 1).map(lambda j: mp.mpf(j) / 2**10)
    inside = [lo + (hi - lo) * data.draw(fraction) for lo, hi in zip(ordered, ordered[1:])]
    beyond = [ordered[0] - data.draw(fraction), ordered[-1] + data.draw(fraction)]
    near = [x + s * mp.mpf("1e-40") for x in xs for s in (-1, 1)]
    state = _design(kernel, ctx, xs, fs)
    candidates = CandidatePosterior(sorted(inside + beyond + near))
    try:
        candidates.sync(state)
    except eilab.NonPositivePivot:
        assume(False)
    e_mean, e_var = (mp2.make_mpf(e) for e in candidates._fitted.working_error())
    # the exact read's own bound: E at the solve precision (with a factor
    # 10 for the bits of a decimal digit), plus its rounding to working
    # precision
    shrink = mp2.mpf(10) ** (ctx.working_dps - candidates.solve_dps + 1)
    unit = mp2.ldexp(1, -mp.prec)
    working = [(mp2.make_mpf(m), mp2.make_mpf(v)) for m, v in zip(candidates._mean, candidates._var)]
    for i, (mean, variance) in enumerate(working):
        ref_mean, ref_variance = _exact_reference(candidates, i, mp2)
        exact_mean, exact_variance = (mp2.make_mpf(v) for v in candidates._solve(i))
        at = mp.nstr(candidates.points[i], 12)
        assert abs(variance - ref_variance) <= e_var and abs(variance - exact_variance) <= e_var, f"variance at {at}"
        assert abs(mean - ref_mean) <= e_mean and abs(mean - exact_mean) <= e_mean, f"mean at {at}"
        assert abs(exact_variance - ref_variance) <= e_var * shrink + unit * abs(ref_variance), f"exact variance at {at}"
        assert abs(exact_mean - ref_mean) <= e_mean * shrink + unit * abs(ref_mean), f"exact mean at {at}"


def test_collapse_rise_step_solves_only_the_screen_survivors(ctx300, gauss_unit):
    # The collapse workload's run: its solve precision rises at the last
    # step only, where the candidates the argmax reads, its screen
    # survivors, are the only ones solved at the raised precision; every
    # other candidate is scored from the working tier.
    grid = eilab.CandidateGrid(l_max=600)
    run = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 6, grid, ctx300)
    assert [t.sync_resolved for t in run.timings] == [False] * 5 + [True]
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx300)
    state = eilab.TrajectoryState.start(gauss_unit, ctx300, 0, f(ctx300.mpf(0)))
    candidates = ei_module._grid_candidates(state, grid)
    for timing, record in zip(run.timings, run.records[1:], strict=True):
        candidates.sync(state)
        with mock.patch.object(candidates, "moments", wraps=candidates.moments) as read:
            best, _, index, _ = ei_module._argmax(state, candidates)
        assert best.point == record.point and candidates.raised_solves == timing.raised_solves
        if timing.sync_resolved:
            assert 1 <= timing.raised_solves == read.call_count <= 4
        else:
            assert timing.raised_solves == 0
        candidates.remove(index)
        state = eilab.add_point(state, best.point, f(best.point))


def test_lazy_screen_clamps_and_aborts_as_a_fully_read_state(ctx60, gauss_unit):
    # A 60-digit collapse run on the grid cut at l_max = 2600: its solve
    # precision rises at design sizes 6, 7 and 8, it clamps 364 variances at
    # the last completed step, and the pivot floor aborts it at 9.  Replayed on
    # the run's lazy state and on a state whose every candidate is read
    # (``working_moments``), each record's clamp count is the fully read
    # state's, each kept float score is the fully read one to within the
    # float error, far inside the screen's margin, and the abort is the same.
    grid = eilab.CandidateGrid(l_max=2600)
    run = eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 9, grid, ctx60)
    assert run.aborted_at == 9 and run.records[-1].variance_clamps > 0
    assert run.records[6].solve_dps > ctx60.working_dps
    f = eilab.objective_function("neg_kernel", gauss_unit, ctx60)
    state = eilab.TrajectoryState.start(gauss_unit, ctx60, 0, f(ctx60.mpf(0)))
    lazy, full = (ei_module._grid_candidates(state, grid) for _ in range(2))
    for record in run.records[1:]:
        lazy.sync(state)
        full.sync(state)
        screen, clamps = ei_module._screen(ctx60, state.best, full.working_moments())
        best, lazy_clamps, index, _ = ei_module._argmax(state, lazy)
        assert record.variance_clamps == lazy_clamps == clamps
        for kept, read in zip(lazy._log_ei, screen, strict=True):
            assert (kept is None) == (read is None)
            assert read is None or abs(kept - read) <= 1e-13 * max(1.0, abs(read))
        lazy.remove(index)
        full.remove(index)
        state = eilab.add_point(state, best.point, f(best.point))
    for candidates in (lazy, full):
        with pytest.raises(eilab.NonPositivePivot) as raised:
            candidates.sync(state)
        assert run.abort_reason == f"NonPositivePivot: {raised.value}"


def test_exact_reads_without_a_rise_are_the_direct_query_once_per_step(ctx60):
    # The 60-digit jittered collapse run of the golden reports: its solve
    # precision rises 80 -> 100 -> 111 and stays at 111 for design sizes
    # 8-12, so those steps read exactly with no rise.  Replayed on one
    # state over every fourth grid point and the run's points (a
    # candidate's moments do not depend on the rest of the set), every
    # candidate's moments at every step equal the direct query bit for bit;
    # a second read of a candidate solves nothing, and after ``remove`` a
    # read is still the direct query's.
    kernel = eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")
    grid = eilab.CandidateGrid(l_max=600)
    run = eilab.run_trajectory(kernel, "neg_kernel", 0, 12, grid, ctx60, jitter=True)
    assert [rec.solve_dps for rec in run.records[7:]] == [111] * 6
    assert not any(t.sync_resolved for t in run.timings[7:])
    pts, vals = run.state.points, run.state.values
    kept = {c for c in grid.points(ctx60)[::4] if c != pts[0]}.union(pts[1:])
    candidates = CandidatePosterior(sorted(kept), jitter=True)
    for size in range(1, len(pts)):
        state = _design(kernel, ctx60, pts[:size], vals[:size])
        fitted = eilab.FittedPosterior(state, jitter=True)
        candidates.sync(state)
        assert candidates.raised_solves == 0
        for i, c in enumerate(candidates.points):
            assert candidates.moments(i) == fitted.moments(c), f"moments differ at {ctx60.mp.nstr(c, 12)}"
        solved = candidates.raised_solves
        assert solved == (len(candidates) if candidates.solve_dps > ctx60.working_dps else 0)
        candidates.moments(0)
        assert candidates.raised_solves == solved
        index = candidates.points.index(pts[size])
        candidates.remove(index)
        # the candidate after the removed one now sits at its index
        if index < len(candidates):
            assert candidates.moments(index) == fitted.moments(candidates.points[index])
