import pytest

import eilab
from eilab import ei


def _argmax_ei(state, grid):
    """The EI argmax over ``grid`` for ``state``, scored as one step of
    ``run_trajectory`` scores it: the candidates synced to a fresh fit, then
    ``ei._argmax`` (float screen, closed-form rescoring, tie-break)."""
    fitted = eilab.FittedPosterior(state)
    candidates = ei._grid_candidates(state, grid)
    candidates.sync(fitted)
    best, _, _ = ei._argmax(fitted, candidates)
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


@pytest.fixture(scope="session")
def default_run(ctx300, gauss_unit):
    """The full collapse run with default settings (expensive, built once)."""
    grid = eilab.CandidateGrid()
    return eilab.run_trajectory(gauss_unit, "neg_kernel", 0, 9, grid, ctx300)


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
