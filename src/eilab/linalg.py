"""Dense symmetric-positive-definite linear algebra at arbitrary precision.

The lab's kernel Gram matrices become catastrophically ill-conditioned as an
optimization trajectory collapses, and surfacing that moment honestly is part
of the experiment.  The factorization here therefore does two unusual things:

* A pivot is rejected not only when it is non-positive but also when it falls
  below a *roundoff floor* propagated through the earlier columns.  A pivot
  under the floor is numerically indistinguishable from zero at the working
  precision, so the matrix is declared not positive definite rather than
  silently factored into noise.

* When the factorization succeeds but the pivot ratio is large, the actual
  solve is re-run at an elevated internal precision chosen from that ratio.
  The matrix entries are kept bit-identical (raising mpf precision is exact),
  so this only removes solve error; the positive-definiteness decision is
  always made at the context's working precision.

Only the lower triangle of the input matrix is read; the matrix is assumed
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NonPositivePivot
from .precision import PrecisionContext, raw_context


@dataclass
class SpdSystem:
    """A symmetric positive-definite system ``matrix @ x = rhs``."""

    matrix: list
    rhs: list


def _factor(mp, a, wdps=None, floor_check=True):
    """Cholesky factorization on lists of mpf under context ``mp``.

    Returns (L, pivots).  ``pivots`` are the squared diagonal entries, i.e.
    the Schur-complement diagonal.  With ``floor_check`` the pivot floor
    described in the module docstring is enforced and ``NonPositivePivot``
    raised; ``wdps`` is the decimal precision used for the floor.
    """
    n = len(a)
    zero = mp.mpf(0)
    scale = max(a[i][i] for i in range(n))
    if floor_check:
        unit = mp.mpf(10) ** (-wdps)
    pivots = []
    L = [[zero] * n for _ in range(n)]
    for j in range(n):
        s = a[j][j]
        for k in range(j):
            s -= L[j][k] * L[j][k]
        if floor_check:
            # Error in this pivot is at most ~u * scale amplified by the
            # smallest prior pivot: column entries L[:,k] carry absolute
            # error ~u*scale/L[k][k].
            amp = mp.sqrt(scale / min(pivots)) if pivots else mp.mpf(1)
            floor = 10 * (j + 1) * unit * scale * amp
            if s <= floor:
                raise NonPositivePivot(
                    f"pivot {j} = {mp.nstr(s, 8)} at/below the roundoff "
                    f"floor {mp.nstr(floor, 4)}: matrix numerically not "
                    "positive definite at this precision",
                    index=j,
                    pivot=s,
                )
        elif s <= 0:
            raise NonPositivePivot(
                f"pivot {j} = {mp.nstr(s, 8)} is not positive",
                index=j,
                pivot=s,
            )
        pivots.append(s)
        L[j][j] = mp.sqrt(s)
        for i in range(j + 1, n):
            t = a[i][j]
            for k in range(j):
                t -= L[i][k] * L[j][k]
            L[i][j] = t / L[j][j]
    return L, pivots


def _solve_lower(mp, L, b):
    n = len(L)
    y = [mp.mpf(0)] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= L[i][k] * y[k]
        y[i] = s / L[i][i]
    return y


def _solve_upper_t(mp, L, y):
    n = len(L)
    x = [mp.mpf(0)] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x


class CholeskyFactor:
    """A reusable factorization of one SPD matrix under one context.

    The positive-definiteness decision (and the reported pivots) belong to
    the context's working precision; solves may run at a higher internal
    precision when the pivot ratio demands it.

    ``jitter`` adds the exploratory diagonal shift 10**-(digits/2) before
    factoring.  It exists so that a run can push past a genuinely degenerate
    design when that is explicitly wanted; it is never applied silently, and
    callers are expected to record its use in their reports.
    """

    def __init__(self, matrix, ctx: PrecisionContext, jitter: bool = False):
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
        mp = ctx.mp
        a = [[mp.mpf(matrix[i][j]) for j in range(n)] for i in range(n)]
        self.jitter_used = bool(jitter)
        if jitter:
            shift = ctx.tol(-(ctx.digits // 2))
            for i in range(n):
                a[i][i] = a[i][i] + shift
        self.ctx = ctx
        self.n = n
        _, pivots = _factor(mp, a, wdps=ctx.working_dps, floor_check=True)
        self.pivots = pivots
        self.pivot_ratio = max(pivots) / min(pivots)
        # Solve precision: recover ~working_dps correct digits even when the
        # pivot ratio eats log10(ratio) of them.
        extra = int(mp.ceil(mp.log10(self.pivot_ratio)))
        if extra >= 5:
            self.solve_dps = ctx.working_dps + extra + 10
        else:
            self.solve_dps = ctx.working_dps
        smp = raw_context(self.solve_dps)
        if self.solve_dps != ctx.working_dps:
            a = [[smp.mpf(a[i][j]) for j in range(n)] for i in range(n)]
        L, _ = _factor(smp, a, floor_check=False)
        self._L = tuple(tuple(row) for row in L)
        self._smp = smp

    def solve(self, rhs):
        """Solve for one right-hand side; result at working precision."""
        if len(rhs) != self.n:
            raise DimensionMismatch(
                f"rhs has length {len(rhs)}, expected {self.n}"
            )
        smp, mp = self._smp, self.ctx.mp
        b = [smp.mpf(v) for v in rhs]
        y = _solve_lower(smp, self._L, b)
        x = _solve_upper_t(smp, self._L, y)
        return [mp.mpf(v) for v in x]

    @property
    def lower(self):
        """The lower Cholesky factor at the solve precision, as a tuple of
        rows.  Row i depends only on the leading (i+1)x(i+1) block, so the
        factor of a design grown by one point shares all earlier rows."""
        return self._L

    @property
    def solve_mp(self):
        return self._smp


def solve_spd(system: SpdSystem, ctx: PrecisionContext, jitter: bool = False):
    """Solve an SPD system via Cholesky factorization (never by inversion).

    The residual ``||matrix @ x - rhs|| / ||rhs||`` is at most
    10**-(digits - guard_digits) for any matrix that passes the pivot floor.
    Raises ``NonPositivePivot`` for numerically non-positive-definite input
    and ``DimensionMismatch`` for shape errors.
    """
    factor = CholeskyFactor(system.matrix, ctx, jitter=jitter)
    return factor.solve(system.rhs)


def condition_estimate(matrix, ctx: PrecisionContext):
    """Ratio of the largest to smallest factorization pivot.

    A cheap conditioning proxy used only for diagnostics in reports.
    """
    return CholeskyFactor(matrix, ctx).pivot_ratio


def gram_det(vectors, ctx: PrecisionContext):
    """Determinant of the Hermitian Gram matrix of complex vectors.

    Entries are <v_i, v_j> = sum_t v_i[t] * conj(v_j[t]).  The result is
    real and nonnegative up to precision noise; the (tiny) imaginary part
    of the determinant is discarded after a sanity check.
    """
    n = len(vectors)
    if n == 0:
        raise DimensionMismatch("need at least one vector")
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch("vectors have mixed dimensions")
    mp = ctx.mp
    vs = [[mp.mpc(x) for x in v] for v in vectors]
    g = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            acc = mp.mpc(0)
            for t in range(dim):
                acc += vs[i][t] * mp.conj(vs[j][t])
            g[i, j] = acc
    det = mp.det(g)
    re, im = mp.re(det), mp.im(det)
    if abs(im) > ctx.eps(ctx.guard_digits) * max(abs(re), mp.mpf(1)):
        raise DimensionMismatch(
            "Gram determinant has a non-negligible imaginary part; "
            "input vectors are inconsistent"
        )
    return re
