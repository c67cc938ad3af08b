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
extension of an empty one.  The matrix is assumed symmetric and is given as
its lower triangle: row i holds its i + 1 entries up to the diagonal.

Each entry of the factor and of both triangular solves is one
``exact_residual`` b - sum_k a_k c_k, formed exactly in integers and rounded
once: divided by the diagonal, or taken as it is for a pivot.  A forward
substitution keeps its solved entries packed (``precision.pack``) and forms
each next one by ``substitution_entry``, the same exact residual read from
the packed ints; every caller that forms such an entry (the candidate
posterior too) uses those kernels, so an entry has the same bits however
its factor or solve was assembled.
"""

from __future__ import annotations

from mpmath.libmp import from_man_exp, fzero, mpf_div, mpf_pos, mpf_sqrt

from .errors import DimensionMismatch, NonPositivePivot
from .precision import PACKED_EXP_BITS, PACKED_EXP_MASK, PACKED_EXP_OFFSET, PrecisionContext, pack, raw_context, unpack


def check_pivot_floor(mp, j, s, earlier, scale, unit):
    """Raise ``NonPositivePivot`` when pivot ``j`` = s is at or below its
    roundoff floor; ``earlier`` are the pivots before it, ``scale`` the
    largest diagonal entry and ``unit`` 10**-working_dps, all as mpf."""
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


def conditioning(pivots, ctx: PrecisionContext):
    """(pivot ratio, solve precision) of a factor with ``pivots`` (mpf).

    The ratio max/min of the pivots is the conditioning diagnostic; the
    solve precision recovers ~working_dps correct digits even when the ratio
    eats log10(ratio) of them.
    """
    ratio = max(pivots) / min(pivots)
    extra = int(ctx.mp.ceil(ctx.mp.log10(ratio)))
    return ratio, ctx.working_dps + extra + 10 if extra >= 5 else ctx.working_dps


def exact_residual(b, a, c):
    """b - sum_k a_k c_k for raw mpf tuples, exactly, with no rounding.

    The sum is formed in Python ints: each nonzero term's signed mantissa
    product is aligned at the smallest exponent met so far, and the total is
    normalized by ``from_man_exp``.  A caller rounds the result once, so a
    triangular-solve entry or a Cholesky pivot built from it is the exact
    inner product rounded once, the most accurate value the precision holds
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002,
    sec. 3.1; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005).  The
    entries must be finite; the sum runs over the pairs of ``zip(a, c)``, and
    its cost grows with the spread of the terms' exponents.
    """
    sign, acc, low, _ = b
    if sign:
        acc = -acc
    for (sa, ma, ea, _), (sc, mc, ec, _) in zip(a, c):
        if ma and mc:
            m = ma * mc
            if sa == sc:
                m = -m
            e = ea + ec
            if not acc:
                acc, low = m, e
            elif e >= low:
                acc += m << (e - low)
            else:
                acc = (acc << (low - e)) + m
                low = e
    return from_man_exp(acc, low)


def substitution_entry(b, row, z, prec, rnd):
    """(b - sum_k row_k z_k) / row[len(z)] rounded once at ``prec``: entry
    len(z) of a forward substitution, for a factor row ``row`` of raw mpf
    tuples (its diagonal at len(z)) and the entries ``z`` before it packed
    (``precision.pack``), as a raw tuple.

    The numerator is ``exact_residual``'s, read from the packed ints without
    unpacking them: each one's signed mantissa is its value above the low
    ``PACKED_EXP_BITS`` bits, and its exponent, offset by
    ``PACKED_EXP_OFFSET``, those bits.  The offset is carried through the
    sum and taken off once.  The sum goes to the division unnormalized,
    which rounds it correctly all the same, except over a power of two,
    which ``mpf_div`` would return unnormalized.  An entry kept as a tuple
    (its exponent outside the packed window) sends the whole sum through
    ``exact_residual``.
    """
    diag, bits, mask, offset = row[len(z)], PACKED_EXP_BITS, PACKED_EXP_MASK, PACKED_EXP_OFFSET
    sign, acc, low, _ = b
    if sign:
        acc = -acc
    low += offset
    try:
        for (sa, ma, ea, _), v in zip(row, z):
            m = ma * (v >> bits)
            if m:
                if not sa:
                    m = -m
                e = ea + (v & mask)
                if not acc:
                    acc, low = m, e
                elif e >= low:
                    acc += m << (e - low)
                else:
                    acc = (acc << (low - e)) + m
                    low = e
    except TypeError:
        return mpf_div(exact_residual(b, row, [unpack(v) for v in z]), diag, prec, rnd)
    if not acc:
        return fzero
    if diag[1] == 1:
        return mpf_div(from_man_exp(acc, low - offset), diag, prec, rnd)
    if acc < 0:
        acc = -acc
        return mpf_div((1, acc, low - offset, acc.bit_length()), diag, prec, rnd)
    return mpf_div((0, acc, low - offset, acc.bit_length()), diag, prec, rnd)


def _border(mp, a, rows, pivots, wdps=None):
    """Extend a lower Cholesky factor, under context ``mp``, by the rows of
    the lower triangle ``a`` that it lacks.

    ``rows`` (tuples of raw mpf) and ``pivots`` (the squared diagonal, i.e.
    the Schur-complement diagonal, as mpf) hold the factor of the leading
    len(rows) block of ``a``; both are extended in place.  Each entry is its
    ``exact_residual`` rounded once: divided by the diagonal off it, taken
    as it is for a pivot.  With ``wdps`` the pivot floor of the module
    docstring is enforced at that decimal precision, with the scale taken
    over the whole diagonal of ``a``: when the new rows raise the scale, the
    earlier pivots are judged again against their raised floors, so the
    decision is that of a fresh factor.  Without it only non-positive pivots
    are refused, and ``pivots`` is not read.
    """
    prec, rnd = mp._prec_rounding
    m, n = len(rows), len(a)
    if wdps is not None:
        unit = mp.mpf(10) ** (-wdps)
        scale = max(a[i][i] for i in range(n))
        if m and scale > max(a[i][i] for i in range(m)):
            for j in range(m):
                check_pivot_floor(mp, j, pivots[j], pivots[:j], scale, unit)
    for i in range(m, n):
        row = []
        for j in range(i):
            lj = rows[j]
            row.append(mpf_div(exact_residual(a[i][j]._mpf_, row, lj[:j]), lj[j], prec, rnd))
        s = mp.make_mpf(mpf_pos(exact_residual(a[i][i]._mpf_, row, row), prec, rnd))
        if wdps is not None:
            check_pivot_floor(mp, i, s, pivots, scale, unit)
        elif s <= 0:
            raise NonPositivePivot(
                f"pivot {i} = {mp.nstr(s, 8)} is not positive",
                index=i,
                pivot=s,
            )
        pivots.append(s)
        row.append(mpf_sqrt(s._mpf_, prec, rnd))
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
    ``DimensionMismatch`` is raised for a row that is not i + 1 entries of
    the lower triangle, and when ``extends`` was factored under another
    context or jitter.
    """

    def __init__(self, matrix, ctx: PrecisionContext, jitter: bool = False, extends=None):
        self.jitter_used = bool(jitter)
        if extends is not None and (extends.ctx, extends.jitter_used) != (ctx, self.jitter_used):
            raise DimensionMismatch("extends was factored under another context or jitter")
        a = list(extends._a) if extends else []
        mp = ctx.mp
        for i, row in enumerate(matrix, start=len(a)):
            if len(row) != i + 1:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, not the {i + 1} of a lower triangle")
            a.append([mp.mpf(v) for v in row])
            if jitter:
                a[i][i] += ctx.tol(-(ctx.digits // 2))
        self.ctx = ctx
        self.n = len(a)
        self._a = a
        rows, pivots = (list(extends.working_lower), list(extends.pivots)) if extends else ([], [])
        _border(mp, a, rows, pivots, wdps=ctx.working_dps)
        # The floor-checked factor at the working precision, rows of raw
        # mpf tuples; it is ``lower`` when the solve precision is the
        # working one.
        self.working_lower = rows
        self.pivots = pivots
        self.pivot_ratio, self.solve_dps = conditioning(pivots, ctx)
        smp = raw_context(self.solve_dps)
        if smp is mp:
            # The floor-checked rows are the factor at the solve precision.
            lower = rows
        else:
            lower = list(extends.lower) if extends and extends.solve_dps == self.solve_dps else []
            _border(smp, a, lower, [])
        # The lower factor at the solve precision, as a tuple of rows of raw
        # mpf tuples.  Row i depends only on the leading (i+1)x(i+1) block,
        # so the factor of a design grown by one point shares all earlier
        # rows.
        self.lower = tuple(lower)
        self.solve_mp = smp

    def solve(self, rhs):
        """Solve for one right-hand side: ``solve_lower``, then x = L^-T y
        at the solve precision by ``exact_residual``; x at working precision.

        The residual ||matrix @ x - rhs|| / ||rhs|| is at most
        10**-(digits - guard_digits) for any matrix that passes the pivot
        floor.  Raises ``DimensionMismatch`` for a wrong-length ``rhs``.
        """
        y = self.solve_lower(rhs)
        L, n, smp = self.lower, self.n, self.solve_mp
        prec, rnd = smp._prec_rounding
        x = [None] * n
        for i in reversed(range(n)):
            column = [L[k][i] for k in range(i + 1, n)]
            x[i] = mpf_div(exact_residual(y[i]._mpf_, column, x[i + 1:]), L[i][i], prec, rnd)
        return [self.ctx.mpf(smp.make_mpf(v)) for v in x]

    def solve_lower(self, rhs, leading=()):
        """y = L^-1 rhs at the solve precision, ``rhs`` converted to it.

        ``leading`` may hold the first entries of y, as solved by a factor
        this one extends at the same solve precision (whose rows are this
        one's leading rows); only the entries after them are computed.
        Raises ``DimensionMismatch`` for a wrong-length ``rhs``.
        """
        if len(rhs) != self.n:
            raise DimensionMismatch(
                f"rhs has length {len(rhs)}, expected {self.n}"
            )
        return forward_substitution(self.solve_mp, self.lower, rhs, leading)

    def working_error(self):
        """First-order bound E on the relative error of a forward
        substitution against ``working_lower`` at the working precision,
        against the exact one of the stored matrix.

        E = 3 K u ||L||_F^2 ||L^-1||_F^2 with u = 2^(1 - prec) of the working
        context.  Every entry of the factor and of a solve is an exact
        residual rounded once, so the factor's backward error is
        |dA_ij| <= 3u |L_ij| |L_jj| and a solve's is diagonal,
        |dL_kk| <= u |L_kk| (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed. 2002, secs. 8.1-8.2 and 10.1).  To first order,
        z = L^-1 g then moves the quadratic form z . z by at most
        (3 kappa + 2 sqrt(kappa)) u |z|^2, with kappa = ||L||^2 ||L^-1||^2
        in the 2-norm, and a product z . w by at most that times
        |z| |w| / |z|^2; rounding the K-term sums adds 2 K u.  The
        Frobenius norms cover all three: their product is at least kappa
        and at least K^2.  O(K^3) at the working precision.
        """
        mp, n = self.ctx.mp, self.n
        rows = [[mp.make_mpf(v) for v in row] for row in self.working_lower]
        inverse = mp.zero
        for j in range(n):
            # column j of L^-1, from its diagonal down
            column = []
            for i in range(j, n):
                column.append(((i == j) - mp.fdot(rows[i][j:i], column)) / rows[i][i])
            inverse += mp.fsum(v * v for v in column)
        norm = mp.fsum(v * v for row in rows for v in row)
        return 3 * n * mp.ldexp(1, 1 - mp.prec) * norm * inverse


def forward_substitution(mp, lower, rhs, leading=()):
    """y = L^-1 rhs under context ``mp`` for the lower factor ``lower``
    (rows of raw mpf tuples), ``rhs`` converted to it, as mpf.

    ``leading`` may hold the first entries of y, as solved against the
    leading rows of ``lower`` under the same context; only the entries
    after them are computed.  Each entry is its ``substitution_entry``.
    """
    prec, rnd = mp._prec_rounding
    y = [pack(v._mpf_) for v in leading]
    for i in range(len(y), len(lower)):
        y.append(pack(substitution_entry(mp.mpf(rhs[i])._mpf_, lower[i], y, prec, rnd)))
    return [mp.make_mpf(unpack(v)) for v in y]


def gram_det(vectors, ctx: PrecisionContext):
    """Determinant of the Hermitian Gram matrix of complex vectors.

    Entries are <v_i, v_j> = sum_t v_i[t] * conj(v_j[t]), built for i <= j
    only: g[j, i] is conj(g[i, j]), which round-to-nearest makes exactly
    the entry a full build would sum.  The result is real and nonnegative
    up to precision noise; the (tiny) imaginary part of the determinant is
    discarded after a sanity check.
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
        for j in range(i, n):
            acc = mp.mpc(0)
            for t in range(dim):
                acc += vs[i][t] * mp.conj(vs[j][t])
            g[i, j] = acc
            g[j, i] = mp.conj(acc)
    det = mp.det(g)
    re, im = mp.re(det), mp.im(det)
    if abs(im) > ctx.tol(-ctx.digits) * max(abs(re), mp.mpf(1)):
        raise DimensionMismatch(
            "Gram determinant has a non-negligible imaginary part; "
            "input vectors are inconsistent"
        )
    return re
