import random

import pytest
from hypothesis import given, settings, strategies as st

import eilab
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
