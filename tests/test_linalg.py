import random

import pytest
from hypothesis import given, settings, strategies as st

import eilab
from eilab.kernels import covariance
from eilab.linalg import CholeskyFactor


def test_identity_solve(ctx60):
    mp = ctx60.mp
    factor = CholeskyFactor([[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]], ctx60)
    x = factor.solve([mp.mpf(3), mp.mpf(5)])
    assert x[0] == 3 and x[1] == 5


def test_gaussian_interpolation_system(ctx60):
    # Gram matrix of the unit Gaussian at points 0 and 1 with the covariance
    # vector of 0 as right-hand side: the solution is the indicator of 0.
    mp = ctx60.mp
    e1 = mp.exp(-1)
    lam = CholeskyFactor([[mp.mpf(1), e1], [e1, mp.mpf(1)]], ctx60).solve([mp.mpf(1), e1])
    assert abs(lam[0] - 1) < ctx60.tol(-(ctx60.digits - 5))
    assert abs(lam[1]) < ctx60.tol(-(ctx60.digits - 5))


def test_duplicate_rows_fail(ctx60):
    mp = ctx60.mp
    with pytest.raises(eilab.NonPositivePivot):
        CholeskyFactor([[mp.mpf(1), mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]], ctx60)


def test_jitter_rescues_degenerate_matrix(ctx60):
    mp = ctx60.mp
    matrix = [[mp.mpf(1), mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]]
    with pytest.raises(eilab.NonPositivePivot):
        CholeskyFactor(matrix, ctx60)
    factor = CholeskyFactor(matrix, ctx60, jitter=True)
    x = factor.solve([mp.mpf(1), mp.mpf(1)])
    # with the shifted diagonal the solution splits the weight evenly
    assert abs(x[0] - x[1]) < ctx60.tol(-(ctx60.digits // 4))
    assert factor.jitter_used


def test_dimension_mismatch(ctx60):
    mp = ctx60.mp
    with pytest.raises(eilab.DimensionMismatch):
        CholeskyFactor([[mp.mpf(1)]], ctx60).solve([mp.mpf(1), mp.mpf(2)])
    with pytest.raises(eilab.DimensionMismatch):
        CholeskyFactor([[mp.mpf(1), mp.mpf(0)]], ctx60)


def test_pivot_ratio_identity(ctx60):
    mp = ctx60.mp
    assert CholeskyFactor([[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]], ctx60).pivot_ratio == 1


def test_pivot_ratio_diagonal(ctx60):
    mp = ctx60.mp
    ratio = CholeskyFactor([[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf("1e-4")]], ctx60).pivot_ratio
    assert abs(ratio - mp.mpf("1e4")) < mp.mpf("1e-10")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_solve_round_trip_residual(dim, seed):
    ctx = eilab.PrecisionContext(digits=60, guard_digits=20)
    mp = ctx.mp
    rng = random.Random(seed)
    a = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(dim)]
    matrix = [
        [sum(a[i][k] * a[j][k] for k in range(dim)) + (dim if i == j else 0) for j in range(dim)]
        for i in range(dim)
    ]
    rhs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(dim)]
    x = CholeskyFactor(matrix, ctx).solve(rhs)
    residual = [
        sum(matrix[i][j] * x[j] for j in range(dim)) - rhs[i] for i in range(dim)
    ]
    rnorm = mp.sqrt(sum(r * r for r in residual))
    bnorm = mp.sqrt(sum(b * b for b in rhs))
    assert rnorm <= ctx.tol(-(ctx.digits - ctx.guard_digits)) * max(bnorm, mp.mpf(1))


def test_solve_determinism(ctx60):
    mp = ctx60.mp
    matrix = [[mp.mpf(2), mp.mpf("0.5")], [mp.mpf("0.5"), mp.mpf(3)]]
    rhs = [mp.mpf("1.25"), mp.mpf("-0.75")]
    first = CholeskyFactor(matrix, ctx60).solve(rhs)
    second = CholeskyFactor(matrix, ctx60).solve(rhs)
    assert [ctx60.to_str(v) for v in first] == [ctx60.to_str(v) for v in second]


def _bits(factor):
    return (
        [[v._mpf_ for v in row] for row in factor.lower],
        [p._mpf_ for p in factor.pivots],
        factor.pivot_ratio._mpf_,
        factor.solve_dps,
    )


def _grow(matrix, ctx, jitter=False):
    """Factor ``matrix`` by appending one row of its lower triangle at a
    time, each extension given only its new row; returns the factor of
    every leading block."""
    factors, factor = [], None
    for i, row in enumerate(matrix):
        factor = CholeskyFactor([row[: i + 1]], ctx, jitter=jitter, extends=factor)
        factors.append(factor)
    return factors


def _collapse_gram(ctx, kernel, extra_l=()):
    """Gram matrix of the paper's collapse design x_1..x_7 (the first six EI
    steps from x_1 = 0 on the grid -e^{-0.02 l}), plus points at grid
    indices ``extra_l``."""
    mp = ctx.mp
    eps = mp.mpf("0.02")
    pts = [mp.mpf(0)] + [s * mp.exp(-l * eps) for s, l in [(-1, 23), (1, 13), (1, 74), (-1, 115), (1, 281), (-1, 591)]]
    pts += [mp.exp(-l * eps) for l in extra_l]
    return [[covariance(kernel, p - q, ctx) for q in pts] for p in pts]


# Without jitter, a point at l = 8000 fails the floor; with it, the pivots
# stop at the shift 1e-150 and the last two designs share a raised solve
# precision, so the extension also grows the raised solve factor.
@pytest.mark.parametrize("jitter, extra_l", [(False, (1200, 2000, 4000)), (True, (1200, 2000, 4000, 8000, 9000))])
def test_grown_factor_is_the_fresh_factor_through_a_precision_rise(ctx300, gauss_unit, jitter, extra_l):
    matrix = _collapse_gram(ctx300, gauss_unit, extra_l)
    grown = _grow(matrix, ctx300, jitter=jitter)
    for k, factor in enumerate(grown, start=1):
        fresh = CholeskyFactor([row[:k] for row in matrix[:k]], ctx300, jitter=jitter)
        assert _bits(factor) == _bits(fresh), f"block {k}"
        assert factor.jitter_used == jitter
    # the solve precision rises above the working 320 at the 6-point design
    dps = [f.solve_dps for f in grown]
    assert dps[:5] == [320] * 5 and 320 < dps[5] < dps[6]
    if jitter:
        assert dps[-1] == dps[-2] > dps[5]


def test_extension_failing_the_floor_raises_as_the_fresh_factor(ctx60, gauss_unit):
    # x = e^{-60} is numerically a duplicate of x_1 = 0 next to the collapse
    # design at 60 digits: its pivot falls under the roundoff floor.
    matrix = _collapse_gram(ctx60, gauss_unit, extra_l=(3000,))
    with pytest.raises(eilab.NonPositivePivot) as fresh:
        CholeskyFactor(matrix, ctx60)
    leading = _grow(matrix[:-1], ctx60)[-1]
    with pytest.raises(eilab.NonPositivePivot) as grown:
        CholeskyFactor(matrix[-1:], ctx60, extends=leading)
    assert fresh.value.index == grown.value.index == 7
    assert str(fresh.value) == str(grown.value)
    assert fresh.value.pivot == grown.value.pivot


def _near_singular(ctx, tail):
    """[[1, c, 0], [c, 1, 0], [0, 0, tail]] with pivot 1 - c^2 = 1e-78, just
    above the 80-digit floor 2e-79 of pivot 1 at scale 1, and 20 * 1e-80 *
    scale^1.5 at scale ``tail``."""
    mp = ctx.mp
    c = mp.sqrt(1 - mp.mpf("1e-78"))
    return [[mp.mpf(1), c, mp.mpf(0)], [c, mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(0), mp.mpf(tail)]]


@pytest.mark.parametrize("tail, accepted", [("2", True), ("100", False)])
def test_extension_raising_the_scale_reaches_the_fresh_decision(ctx60, tail, accepted):
    matrix = _near_singular(ctx60, tail)
    leading = CholeskyFactor([row[:2] for row in matrix[:2]], ctx60)
    assert leading.pivots[1] > 0
    if accepted:
        grown = CholeskyFactor(matrix[2:], ctx60, extends=leading)
        assert _bits(grown) == _bits(CholeskyFactor(matrix, ctx60))
        return
    # the raised scale lifts the floor of the *earlier* pivot 1 above it
    with pytest.raises(eilab.NonPositivePivot) as fresh:
        CholeskyFactor(matrix, ctx60)
    with pytest.raises(eilab.NonPositivePivot) as grown:
        CholeskyFactor(matrix[2:], ctx60, extends=leading)
    assert fresh.value.index == grown.value.index == 1
    assert str(fresh.value) == str(grown.value)


def test_extends_must_factor_the_leading_block(ctx60):
    # the leading factor must share the context and the jitter, and each
    # new row must continue the leading block
    mp = ctx60.mp
    leading = CholeskyFactor([[mp.mpf(2)]], ctx60)
    row = [mp.mpf(0), mp.mpf(1)]
    with pytest.raises(eilab.DimensionMismatch, match="another context or jitter"):
        CholeskyFactor([row], eilab.PrecisionContext(digits=61), extends=leading)
    with pytest.raises(eilab.DimensionMismatch, match="another context or jitter"):
        CholeskyFactor([row], ctx60, jitter=True, extends=leading)
    with pytest.raises(eilab.DimensionMismatch, match="lower triangular"):
        CholeskyFactor([row[1:]], ctx60, extends=leading)
    assert CholeskyFactor([row], ctx60, extends=leading).pivots == [2, 1]


def test_gram_det_single_unit_vector(ctx60):
    assert eilab.gram_det([[1]], ctx60) == 1


def test_gram_det_orthonormal(ctx60):
    assert eilab.gram_det([[1, 0], [0, 1]], ctx60) == 1


def test_gram_det_hand_case(ctx60):
    # <v,v><w,w> - |<v,w>|^2 = 2*2 - 0
    assert eilab.gram_det([[1, 1], [1, -1]], ctx60) == 4


def test_gram_det_complex_hermitian(ctx60):
    mp = ctx60.mp
    v = [mp.mpc(1, 0), mp.mpc(0, 1)]
    w = [mp.mpc(0, 1), mp.mpc(1, 0)]
    det = eilab.gram_det([v, w], ctx60)
    # <v,v> = <w,w> = 2, <v,w> = 1*(-i) + i*1 = 0
    assert abs(det - 4) < ctx60.tol(-(ctx60.digits - 5))


def test_gram_det_dependent_vectors(ctx60):
    mp = ctx60.mp
    v = [mp.mpf(1), mp.mpf(2)]
    w = [mp.mpf(2), mp.mpf(4)]
    det = eilab.gram_det([v, w], ctx60)
    assert abs(det) <= ctx60.tol(-(ctx60.digits // 2))


def test_gram_det_dimension_mismatch(ctx60):
    with pytest.raises(eilab.DimensionMismatch):
        eilab.gram_det([[1, 0], [1]], ctx60)
