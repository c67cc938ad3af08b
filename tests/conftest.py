import pytest

import eilab
from eilab import ei


def _argmax_ei(state, grid):
    """The EI argmax over ``grid`` for ``state``, scored as one step of
    ``run_trajectory`` scores it: the candidates synced to the design, then
    ``ei._argmax`` (float screen, closed-form rescoring, tie-break)."""
    candidates = ei._grid_candidates(state, grid)
    candidates.sync(state)
    best, _, _, _ = ei._argmax(state, candidates)
    return best


@pytest.fixture(scope="session")
def argmax_ei():
    return _argmax_ei


@pytest.fixture(scope="session")
def ctx60():
    return eilab.PrecisionContext(digits=60, guard_digits=20)


@pytest.fixture(scope="session")
def ctx300():
    return eilab.PrecisionContext(digits=300, guard_digits=20)


@pytest.fixture(scope="session")
def gauss_unit():
    """The headline kernel G(x) = exp(-x^2)."""
    return eilab.GaussianKernel(a="0.25", gamma="sqrt_pi")


def _run_prefix(run, steps):
    """The run ``run`` would have been with ``steps`` requested, for a run
    that completed at least that many: ``run_trajectory`` reads ``steps``
    only as its loop bound, so the shorter run is the first steps + 1
    points, values and records, and the first ``steps`` timings."""
    state = run.state
    points, values = state.points[: steps + 1], state.values[: steps + 1]
    return eilab.TrajectoryRun(
        state=eilab.TrajectoryState(kernel=state.kernel, ctx=state.ctx, points=points, values=values, best=min(values)),
        records=run.records[: steps + 1],
        timings=run.timings[:steps],
    )


@pytest.fixture(scope="session")
def run_prefix():
    return _run_prefix


@pytest.fixture(scope="session")
def default_run(extended_run):
    """The full collapse run with default settings (9 steps): the prefix of
    the extended run, which takes the same first steps."""
    return _run_prefix(extended_run, 9)


@pytest.fixture(scope="session")
def small_run(ctx60, gauss_unit):
    """A cheap 6-step run on a truncated grid for unit-level checks."""
    grid = eilab.CandidateGrid(l_max=600)
    return eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 6, grid, ctx60)


@pytest.fixture(scope="session")
def extended_run(ctx300, gauss_unit):
    """The collapse run pushed past its numerically reliable zone; aborts."""
    grid = eilab.CandidateGrid()
    return eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 29, grid, ctx300)


@pytest.fixture(scope="session")
def ou_coverage_run(ctx60):
    """30 points under the rough contrast kernel (coverage behavior)."""
    ou = eilab.OrnsteinUhlenbeckKernel(theta="1")
    grid = eilab.CandidateGrid(l_max=500)
    return eilab.run_trajectory(ou, "neg_gauss", 0, 29, grid, ctx60)
