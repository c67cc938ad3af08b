"""Dense symmetric-positive-definite linear algebra at arbitrary precision.

The lab's kernel Gram matrices become catastrophically ill-conditioned as an
optimization trajectory collapses, and surfacing that moment honestly is part
of the experiment.  The factorization here therefore does two unusual things:

* A pivot is rejected not only when it is non-positive but also when it falls
  below a *roundoff floor* propagated through the earlier pivots.  A pivot
  under the floor is numerically indistinguishable from zero at the working
  precision, so the matrix is declared not positive definite rather than
  silently factored into noise.

* When the factorization succeeds but the pivot ratio is large, the actual
  solve is re-run at an elevated internal precision chosen from that ratio.
  The matrix entries are kept bit-identical (raising mpf precision is exact),
  so this only removes solve error; the positive-definiteness decision is
  always made at the context's working precision.

The factor is built row by row (the bordered Cholesky update; Rasmussen &
Williams, GPML 2006, sec. 2.2 and Alg. 2.1): row i of L depends only on the
leading (i+1)x(i+1) block, so the factor of a matrix grown by one row and
column is the old factor plus one new row, and a fresh factor is the
extension of an empty one.  Only the lower triangle of the input is read; the
matrix is assumed symmetric, and may be given as its lower triangle alone.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NonPositivePivot
from .precision import PrecisionContext, raw_context


def _check_floor(mp, j, s, earlier, scale, unit):
    """Raise ``NonPositivePivot`` when pivot ``j`` = s is at or below its
    roundoff floor; ``earlier`` are the pivots before it."""
    # Error in this pivot is at most ~u * scale amplified by the smallest
    # prior pivot: entries L[:,k] carry absolute error ~u*scale/L[k][k].
    amp = mp.sqrt(scale / min(earlier)) if earlier else mp.mpf(1)
    floor = 10 * (j + 1) * unit * scale * amp
    if s <= floor:
        raise NonPositivePivot(
            f"pivot {j} = {mp.nstr(s, 8)} at/below the roundoff "
            f"floor {mp.nstr(floor, 4)}: matrix numerically not "
            "positive definite at this precision",
            index=j,
            pivot=s,
        )


def _border(mp, a, rows, pivots, wdps=None):
    """Extend a lower Cholesky factor, under context ``mp``, by the rows of
    the lower triangle ``a`` that it lacks.

    ``rows`` (tuples of mpf) and ``pivots`` (the squared diagonal, i.e. the
    Schur-complement diagonal) hold the factor of the leading len(rows)
    block of ``a``; both are extended in place.  With ``wdps`` the pivot
    floor of the module docstring is enforced at that decimal precision,
    with the scale taken over the whole diagonal of ``a``: when the new rows
    raise the scale, the earlier pivots are judged again against their
    raised floors, so the decision is that of a fresh factor.  Without it
    only non-positive pivots are refused, and ``pivots`` is not read.
    """
    m, n = len(rows), len(a)
    if wdps is not None:
        unit = mp.mpf(10) ** (-wdps)
        scale = max(a[i][i] for i in range(n))
        if m and scale > max(a[i][i] for i in range(m)):
            for j in range(m):
                _check_floor(mp, j, pivots[j], pivots[:j], scale, unit)
    for i in range(m, n):
        row = []
        for j in range(i):
            t = a[i][j]
            for k in range(j):
                t -= row[k] * rows[j][k]
            row.append(t / rows[j][j])
        s = a[i][i]
        for k in range(i):
            s -= row[k] * row[k]
        if wdps is not None:
            _check_floor(mp, i, s, pivots, scale, unit)
        elif s <= 0:
            raise NonPositivePivot(
                f"pivot {i} = {mp.nstr(s, 8)} is not positive",
                index=i,
                pivot=s,
            )
        pivots.append(s)
        row.append(mp.sqrt(s))
        rows.append(tuple(row))


class CholeskyFactor:
    """A reusable factorization of one SPD matrix under one context.

    The positive-definiteness decision (and the reported pivots) belong to
    the context's working precision; solves may run at a higher internal
    precision when the pivot ratio demands it.

    ``jitter`` adds the exploratory diagonal shift 10**-(digits/2) before
    factoring.  It exists so that a run can push past a genuinely degenerate
    design when that is explicitly wanted; it is never applied silently, and
    callers are expected to record its use in their reports.

    ``extends`` may be the factor of a leading block (same context and
    jitter); ``matrix`` then holds only the rows of the new points, row i
    with ``extends.n + i + 1`` lower-triangle entries.  The leading rows are
    kept and only the new ones are computed, at the working precision and,
    when the solve precision is unchanged, at the solve precision too; the
    result is bit for bit the fresh factor of the whole matrix.
    ``DimensionMismatch`` is raised when ``extends`` was factored under
    another context or jitter.
    """

    def __init__(self, matrix, ctx: PrecisionContext, jitter: bool = False, extends=None):
        self.jitter_used = bool(jitter)
        if extends is not None and (extends.ctx, extends.jitter_used) != (ctx, self.jitter_used):
            raise DimensionMismatch("extends was factored under another context or jitter")
        a = list(extends._a) if extends else []
        n = len(a) + len(matrix)
        mp = ctx.mp
        for i, row in enumerate(matrix, start=len(a)):
            if len(row) not in (i + 1, n):
                raise DimensionMismatch("matrix is neither square nor lower triangular")
            a.append([mp.mpf(row[j]) for j in range(i + 1)])
            if jitter:
                a[i][i] += ctx.tol(-(ctx.digits // 2))
        self.ctx = ctx
        self.n = n
        self._a = a
        rows, pivots = (list(extends._rows), list(extends.pivots)) if extends else ([], [])
        _border(mp, a, rows, pivots, wdps=ctx.working_dps)
        self._rows = rows
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
        if smp is mp:
            # The floor-checked rows are the factor at the solve precision.
            lower = rows
        else:
            lower = list(extends.lower) if extends and extends.solve_dps == self.solve_dps else []
            _border(smp, [[smp.mpf(v) for v in row] for row in a], lower, [])
        # The lower factor at the solve precision, as a tuple of rows.  Row i
        # depends only on the leading (i+1)x(i+1) block, so the factor of a
        # design grown by one point shares all earlier rows.
        self.lower = tuple(lower)
        self.solve_mp = smp

    def solve(self, rhs):
        """Solve for one right-hand side; result at working precision.

        The residual ||matrix @ x - rhs|| / ||rhs|| is at most
        10**-(digits - guard_digits) for any matrix that passes the pivot
        floor.  Raises ``DimensionMismatch`` for a wrong-length ``rhs``.
        """
        mp = self.ctx.mp
        return [mp.mpf(v) for v in self.solve_upper_t(self.solve_lower(rhs))]

    def solve_lower(self, rhs):
        """y = L^-1 rhs at the solve precision, ``rhs`` converted to it.

        Raises ``DimensionMismatch`` for a wrong-length ``rhs``.
        """
        if len(rhs) != self.n:
            raise DimensionMismatch(
                f"rhs has length {len(rhs)}, expected {self.n}"
            )
        L = self.lower
        y = [self.solve_mp.mpf(v) for v in rhs]
        for i in range(self.n):
            s = y[i]
            for k in range(i):
                s -= L[i][k] * y[k]
            y[i] = s / L[i][i]
        return y

    def solve_upper_t(self, y):
        """x = L^-T y at the solve precision, ``y`` converted to it."""
        L = self.lower
        x = [self.solve_mp.mpf(v) for v in y]
        for i in reversed(range(self.n)):
            s = x[i]
            for k in range(i + 1, self.n):
                s -= L[k][i] * x[k]
            x[i] = s / L[i][i]
        return x


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
