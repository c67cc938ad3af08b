"""Numerical verification of the lab's theoretical claims.

Every check emits ``BoundReport`` records rather than bare booleans, so the
CLI can serialize exactly what was compared.  All bound arithmetic on
quantities that collapse doubly exponentially is done in the log domain:
numbers like exp(2^K F(K)) underflow any fixed exponent budget conceptually,
so the comparisons run on logarithms and nothing ever exponentiates them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ei import ei_integral_oracle, expected_improvement, improvement_tail, improvement_tail_quadrature
from .errors import DimensionMismatch, EILabError, require_distinct
from .kernels import (
    GaussianKernel,
    KernelSpec,
    OrnsteinUhlenbeckKernel,
    SpectralPowerKernel,
    covariance,
    rate_function,
    spectral_power_law,
)
from .linalg import gram_det
from .posterior import FittedPosterior, MarkovPosterior, TrajectoryState, variance_spectral_oracle
from .precision import PrecisionContext
# Not called here: perfbench/tracing.py wraps these two module attributes by name.
from .precision import raw_context
from .quadrature import integrate


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs.

    ``satisfied`` allows the inequality a relative slack of
    10**-(digits/4); ``ratio`` carries the log-domain quantity being
    sandwiched where that is the natural summary, and ``context`` is a
    free-form record of the parameters behind the check.
    """

    label: str
    k: int
    lhs: object
    rhs: object
    ratio: object
    satisfied: bool
    context: dict = field(default_factory=dict)


def _leq_report(ctx: PrecisionContext, label, k, lhs, rhs, ratio, context) -> BoundReport:
    """The report of lhs <= rhs, allowed the relative slack
    10**-(digits/4) of the larger magnitude (at least 1); an infinite side
    decides it outright."""
    mp = ctx.mp
    if lhs == mp.ninf or rhs == mp.inf:
        satisfied = True
    elif lhs == mp.inf or rhs == mp.ninf:
        satisfied = False
    else:
        slack = ctx.tol(-(ctx.digits // 4)) * max(abs(lhs), abs(rhs), mp.mpf(1))
        satisfied = lhs <= rhs + slack
    return BoundReport(
        label=label, k=k, lhs=lhs, rhs=rhs, ratio=ratio,
        satisfied=satisfied, context=context,
    )


def _agreement_report(ctx: PrecisionContext, label, k, value, other, reference, tol, context) -> BoundReport:
    """The report that |value - other| / |reference| is at most ``tol``.

    ``reference`` is one of the two compared values (the oracle, or the
    closed form where that is the trusted side).  The measure is relative
    however small the reference, so a value far below the working roundoff
    is still checked to ``tol``; only an exact zero reference gives the
    ratio 0 when the values are equal and inf otherwise.
    """
    gap = abs(value - other)
    if reference:
        rel = gap / abs(reference)
    else:
        rel = ctx.mp.inf if gap else ctx.mp.zero
    return BoundReport(label=label, k=k, lhs=rel, rhs=tol, ratio=rel, satisfied=rel <= tol, context=context)


def lagrange_weights(x, nodes, ctx: PrecisionContext) -> tuple:
    """Interpolation weights lambda_k = prod_{l != k} (x - x_l)/(x_k - x_l)
    for the target x, in node order.  They reproduce every polynomial of
    degree < K at x; that is checked on the monomial basis."""
    mp = ctx.mp
    x = mp.mpf(x)
    ns = [mp.mpf(v) for v in nodes]
    k = len(ns)
    require_distinct(ns, "nodes")
    weights = []
    for i in range(k):
        w = mp.mpf(1)
        for j in range(k):
            if j != i:
                w *= (x - ns[j]) / (ns[i] - ns[j])
        weights.append(w)
    # Polynomial reproduction is the defining property; check it before
    # handing the weights out.
    tol = ctx.tol(-(ctx.digits // 2))
    wscale = max(mp.mpf(1), sum(abs(w) for w in weights))
    for degree in range(k):
        acc = mp.mpf(0)
        for wi, ni in zip(weights, ns):
            acc += wi * ni**degree
        if abs(acc - x**degree) > tol * wscale:
            raise EILabError(
                f"weights fail to reproduce degree-{degree} monomial "
                f"(defect {mp.nstr(abs(acc - x**degree), 4)})"
            )
    return tuple(weights)


def rkhs_approx_error(kernel: KernelSpec, x, nodes, weights, ctx: PrecisionContext):
    """Squared distance from the kernel feature of x to a weighted combination
    of node features:

        G(0) - 2 sum_k w_k G(x - x_k) + sum_{k,l} w_k w_l G(x_k - x_l).

    Nonnegative by construction; tiny negative cancellation noise is clamped
    to zero.
    """
    mp = ctx.mp
    x = mp.mpf(x)
    ns = [mp.mpf(v) for v in nodes]
    ws = [mp.mpf(w) for w in weights]
    if len(ns) != len(ws):
        raise DimensionMismatch("weights and nodes differ in length")
    total = covariance(kernel, 0, ctx)
    for wk, nk in zip(ws, ns):
        total -= 2 * wk * covariance(kernel, x - nk, ctx)
    for i, (wi, ni) in enumerate(zip(ws, ns)):
        total += wi * wi * covariance(kernel, 0, ctx)
        for j in range(i + 1, len(ns)):
            total += 2 * wi * ws[j] * covariance(kernel, ni - ns[j], ctx)
    if total < 0:
        total = mp.mpf(0)
    return total


def elementary_symmetric(values, mp):
    """Coefficients e_0..e_K of prod_k (1 + z_k y), by incremental products."""
    coeffs = [mp.mpc(1)]
    for z in values:
        coeffs.append(mp.mpc(0))
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] = coeffs[j] + z * coeffs[j - 1]
    return coeffs


def vandermonde_distance(z, zs, ctx: PrecisionContext):
    """Distance from the power vector of z to the span of those of z_1..z_K:

        rho = prod_k |z - z_k| / sqrt(1 + sum_q |e_q(z_1..z_K)|^2),

    with e_q the elementary symmetric polynomials of the z_k.
    """
    mp = ctx.mp
    z = mp.mpc(z)
    pts = [mp.mpc(p) for p in zs]
    require_distinct(pts + [z], "points (z_1..z_K, z)")
    numerator = mp.mpf(1)
    for p in pts:
        numerator *= abs(z - p)
    es = elementary_symmetric(pts, mp)
    denom_sq = mp.mpf(1)
    for e in es[1:]:
        denom_sq += abs(e) ** 2
    return numerator / mp.sqrt(denom_sq)


_GRAM_ORACLE_MAX = 10


def gram_distance_oracle(z, zs, ctx: PrecisionContext):
    """The same distance through Gram determinants of the power vectors
    v = (1, z, ..., z^K): rho^2 = g(v, v_1..v_K) / g(v_1..v_K)."""
    mp = ctx.mp
    k = len(zs)
    if k > _GRAM_ORACLE_MAX:
        raise EILabError(f"Gram oracle supports at most {_GRAM_ORACLE_MAX} points")
    z = mp.mpc(z)
    pts = [mp.mpc(p) for p in zs]
    require_distinct(pts + [z], "points (z_1..z_K, z)")

    def row(w):
        out, cur = [], mp.mpc(1)
        for _ in range(k + 1):
            out.append(cur)
            cur = cur * w
        return out

    base = [row(p) for p in pts]
    g_base = gram_det(base, ctx)
    g_full = gram_det([row(z)] + base, ctx)
    return ctx.mp.sqrt(g_full / g_base)


def _zero_valued_state(kernel, points, ctx: PrecisionContext) -> TrajectoryState:
    """The design ``points`` with every observed value zero: the variance
    does not depend on the values."""
    mp = ctx.mp
    return TrajectoryState(
        kernel=kernel,
        ctx=ctx,
        points=tuple(mp.mpf(p) for p in points),
        values=tuple(mp.mpf(0) for _ in points),
        best=mp.mpf(0),
    )


def variance_sandwich_check(kernel: KernelSpec, x, nodes, ctx: PrecisionContext, fitted: FittedPosterior | None = None):
    """Check e^-K <= sigma^2 / (e^F(K) prod_k |x - x_k|^2) <= e^2K in logs.

    Returns (lower, upper) reports whose ``ratio`` field is
    ln sigma^2 - F(K) - 2 sum ln |x - x_k|.  ``fitted`` may carry the fit
    of the design ``nodes`` (any observed values: the variance does not
    depend on them), for a caller that grows one fit through nested
    designs; otherwise a fresh one is constructed.
    """
    mp = ctx.mp
    k = len(nodes)
    if k < 2:
        raise EILabError("sandwich check needs at least 2 nodes")
    rate = rate_function(kernel, k, ctx)
    x = mp.mpf(x)
    points = tuple(mp.mpf(v) for v in nodes)
    require_distinct(points + (x,), "points (x_1..x_K, x)")
    if fitted is None:
        fitted = FittedPosterior(_zero_valued_state(kernel, points, ctx))
    elif fitted.state.points != points:
        raise EILabError("the fit given to the sandwich check is not of its nodes")
    moments = fitted.moments(x)
    log_sigma2 = mp.log(moments.variance) if moments.variance > 0 else mp.ninf
    log_prod = mp.mpf(0)
    for p in points:
        log_prod += 2 * mp.log(abs(x - p))
    log_ratio = log_sigma2 - rate - log_prod
    context = {
        "x": ctx.to_str(x, 30),
        "nodes": k,
        "rate": ctx.to_str(rate, 30),
        "log_sigma2": ctx.to_str(log_sigma2, 30),
    }
    lower = _leq_report(ctx, "sandwich-lower", k, mp.mpf(-k), log_ratio, log_ratio, context)
    upper = _leq_report(ctx, "sandwich-upper", k, log_ratio, mp.mpf(2 * k), log_ratio, context)
    return lower, upper


def trajectory_envelope_check(points, kernel: KernelSpec, ctx: PrecisionContext):
    """Per-K reports that 2^K F(K) <= ln |x_{K+1}| <= F(K)/3.

    ``points`` is a collapse trajectory (seeded at x_1 = 0).  The lower
    bound 2^K F(K) is astronomically negative and is never exponentiated:
    every comparison happens on logarithms.
    """
    mp = ctx.mp
    # Refuses a kernel without a rate function, however short the trajectory.
    spectral_power_law(kernel, mp)
    pts = [mp.mpf(p) for p in points]
    reports = []
    for k in range(2, len(pts)):
        x_next = pts[k]
        log_x = mp.log(abs(x_next)) if x_next != 0 else mp.ninf
        rate = rate_function(kernel, k, ctx)
        lower_bound = (2**k) * rate
        upper_bound = rate / 3
        context = {
            "x_next": ctx.to_str(x_next, 30),
            "rate": ctx.to_str(rate, 30),
        }
        reports.append(_leq_report(ctx, "envelope-lower", k, lower_bound, log_x, log_x, context))
        reports.append(_leq_report(ctx, "envelope-upper", k, log_x, upper_bound, log_x, context))
    return reports


def tail_integral_check(h_values, ctx: PrecisionContext):
    """Bracket (1/2) e^{-h^2} <= I(h) <= e^{-h^2/2} for the improvement tail
    integral ``improvement_tail``, plus its agreement with
    ``improvement_tail_quadrature``, per h >= 0."""
    mp = ctx.mp
    reports = []
    agree_tol = ctx.tol(-(ctx.digits // 4))
    for raw in h_values:
        h = mp.mpf(raw)
        if h < 0:
            raise EILabError("tail check requires h >= 0")
        closed = improvement_tail(ctx, h)
        quad = improvement_tail_quadrature(ctx, h)
        low = mp.exp(-h * h) / 2
        high = mp.exp(-h * h / 2)
        context = {"h": ctx.to_str(h, 30)}
        reports.append(_leq_report(ctx, "tail-lower", 0, low, closed, closed, context))
        reports.append(_leq_report(ctx, "tail-upper", 0, closed, high, closed, context))
        reports.append(_agreement_report(ctx, "tail-quadrature", 0, closed, quad, closed, agree_tol, context))
    return reports


@dataclass(frozen=True)
class DecayScan:
    """Approximation-error decay against node count.

    ``errors`` maps K to the squared approximation error of the kernel
    feature of 0 using Lagrange weights on K nodes in [0.1, 0.2]; ``slope``
    is the least-squares slope of ln(error) per added node.
    """

    errors: tuple
    slope: object


def decay_scan(kernel: KernelSpec, ctx: PrecisionContext) -> DecayScan:
    """Scan the Lagrange-weight approximation error over K = 6..14 nodes.

    Nodes are K equispaced points in [0.1, 0.2]; the target 0 sits outside,
    so a decaying error exhibits vanishing conditional variance at a point
    the nodes never approach.
    """
    mp = ctx.mp
    lo, hi = mp.mpf("0.1"), mp.mpf("0.2")
    x = mp.zero
    pairs = []
    for k in range(6, 15):
        nodes = [lo + (hi - lo) * i / (k - 1) for i in range(k)]
        weights = lagrange_weights(x, nodes, ctx)
        err = rkhs_approx_error(kernel, x, nodes, weights, ctx)
        pairs.append((k, err))
    xs = [mp.mpf(k) for k, _ in pairs]
    ys = [mp.log(e) for _, e in pairs]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    num = sum((xi - xbar) * (yi - ybar) for xi, yi in zip(xs, ys))
    den = sum((xi - xbar) ** 2 for xi in xs)
    slope = num / den
    return DecayScan(errors=tuple(pairs), slope=slope)


# ---------------------------------------------------------------------------
# Randomized oracle-equivalence trials and the sandwich sweep.  These drive
# both the CLI verification suites and the acceptance tests, with all
# randomness drawn from an explicit seed.
# ---------------------------------------------------------------------------


def _distinct_uniform(rng, count, lo=-1.0, hi=1.0, min_gap=1e-3):
    out = []
    while len(out) < count:
        c = rng.uniform(lo, hi)
        if all(abs(c - v) > min_gap for v in out):
            out.append(c)
    return out


def _random_design(rng, max_k):
    """A random Gaussian kernel, 1..max_k design points and a query point.

    The seeded suites' reports depend on this order of draws: kernel, K,
    then K + 1 distinct points, the last of which is the query.
    """
    kernel = GaussianKernel(a=rng.uniform(0.2, 0.5), gamma=rng.uniform(0.5, 2.0))
    k = rng.randint(1, max_k)
    raw = _distinct_uniform(rng, k + 1, min_gap=2e-2)
    return kernel, raw[:k], raw[k]


def ei_oracle_trials(ctx: PrecisionContext, seed: int, trials: int = 20):
    """Closed-form EI vs the quadrature oracle on random 1..6-point states.

    Returns a list of BoundReports, one per trial, whose ratio is the
    relative disagreement; the hard tolerance is 10**-(digits/4).
    """
    mp = ctx.mp
    rng = random.Random(seed)
    tol = ctx.tol(-(ctx.digits // 4))
    reports = []
    for trial in range(trials):
        kernel, pts, query = _random_design(rng, 6)
        k = len(pts)
        values = [mp.mpf(rng.uniform(-1.2, 0.2)) for _ in range(k)]
        state = TrajectoryState(
            kernel=kernel,
            ctx=ctx,
            points=tuple(mp.mpf(p) for p in pts),
            values=tuple(values),
            best=min(values),
        )
        closed = expected_improvement(state, query).ei
        oracle = ei_integral_oracle(state, query, ctx)
        context = {"trial": trial, "query": ctx.to_str(mp.mpf(query), 20)}
        reports.append(_agreement_report(ctx, "ei-oracle", k, closed, oracle, oracle, tol, context))
    return reports


def posterior_oracle_trials(ctx: PrecisionContext, seed: int, trials: int = 10):
    """Gram-formula variance vs the spectral quadrature oracle on random
    1..5-point designs."""
    mp = ctx.mp
    rng = random.Random(seed)
    tol = ctx.tol(-(ctx.digits // 4))
    reports = []
    for trial in range(trials):
        kernel, pts, query = _random_design(rng, 5)
        state = _zero_valued_state(kernel, pts, ctx)
        direct = FittedPosterior(state).moments(query).variance
        oracle = variance_spectral_oracle(state, query, ctx)
        context = {"trial": trial, "query": ctx.to_str(mp.mpf(query), 20)}
        reports.append(_agreement_report(ctx, "posterior-oracle", len(pts), direct, oracle, oracle, tol, context))
    return reports


def markov_posterior_trials(ctx: PrecisionContext, seed: int):
    """Markov closed form (``MarkovPosterior``) vs the Cholesky moments
    (``FittedPosterior.moments``) on 10 random Ornstein-Uhlenbeck designs of
    1..6 points, queried inside every gap and beyond both ends of the hull.

    Two reports per query: the variance relative to itself, and the mean
    relative to the largest |f|; the hard tolerance is 10**-(digits/4).
    """
    mp = ctx.mp
    rng = random.Random(seed)
    tol = ctx.tol(-(ctx.digits // 4))
    reports = []
    for trial in range(10):
        kernel = OrnsteinUhlenbeckKernel(theta=rng.uniform(0.5, 4.0), gamma=rng.uniform(0.5, 2.0))
        pts = sorted(_distinct_uniform(rng, rng.randint(1, 6), min_gap=2e-2))
        values = [mp.mpf(rng.uniform(-1.2, 0.2)) for _ in pts]
        queries = [a + (b - a) * rng.uniform(0.05, 0.95) for a, b in zip(pts, pts[1:])]
        queries += [pts[0] - rng.uniform(0.05, 1.0), pts[-1] + rng.uniform(0.05, 1.0)]
        state = TrajectoryState(kernel, ctx, tuple(mp.mpf(p) for p in pts), tuple(values), min(values))
        fitted = FittedPosterior(state)
        markov = MarkovPosterior(sorted(mp.mpf(q) for q in queries))
        markov.sync(state)
        scale = max(abs(v) for v in values)
        for i, c in enumerate(markov.points):
            fast, slow = markov.moments(i), fitted.moments(c)
            context = {"trial": trial, "query": ctx.to_str(c, 20)}
            reports.append(_agreement_report(
                ctx, "markov-variance", len(pts), fast.variance, slow.variance, slow.variance, tol, context
            ))
            reports.append(_agreement_report(ctx, "markov-mean", len(pts), fast.mean, slow.mean, scale, tol, context))
    return reports


def vandermonde_trials(ctx: PrecisionContext, seed: int, trials: int = 50):
    """Elementary-symmetric formula vs the Gram-determinant oracle on random
    unit-circle configurations of 1..8 points."""
    mp = ctx.mp
    rng = random.Random(seed)
    tol = ctx.tol(-(ctx.digits // 2))
    reports = []
    for trial in range(trials):
        k = rng.randint(1, 8)
        # Angle range stays clear of the 0/2pi wraparound so the min-gap
        # guarantee carries over to the circle.
        angles = _distinct_uniform(rng, k + 1, lo=0.05, hi=6.2, min_gap=1e-2)
        zs = [mp.expjpi(mp.mpf(a) / mp.pi) for a in angles[:k]]
        z = mp.expjpi(mp.mpf(angles[k]) / mp.pi)
        direct = vandermonde_distance(z, zs, ctx)
        oracle = gram_distance_oracle(z, zs, ctx)
        reports.append(_agreement_report(ctx, "vandermonde-oracle", k, direct, oracle, oracle, tol, {"trial": trial}))
    return reports


@dataclass(frozen=True)
class SandwichSweep:
    """Result of sweeping the variance sandwich over K for random setups.

    ``first_k`` per trial is the smallest K from which both bounds hold for
    every tested K' >= K (k_max + 1 when the last K still fails);
    ``threshold`` is the maximum over trials.
    """

    trials: tuple
    threshold: int
    reports: tuple


def sandwich_sweep(
    ctx: PrecisionContext,
    seed: int,
    trials: int = 20,
    k_min: int = 2,
    k_max: int = 25,
) -> SandwichSweep:
    """Sweep the sandwich bounds over K = k_min..k_max on random spectral
    kernels and designs, recording the empirical threshold K0.

    A trial's designs nodes[:K] are nested, so one posterior fit is grown
    through them (``FittedPosterior(..., extends=)``, one Gram row per K),
    bit for bit the fresh fit of each design; the fit refuses a design that
    does not extend the last.
    """
    rng = random.Random(seed)
    mp = ctx.mp
    trial_rows = []
    all_reports = []
    for trial in range(trials):
        a = rng.uniform(0.15, 0.6)
        c0 = rng.uniform(0.3, 1.2)
        kernel = SpectralPowerKernel(a=a, b=2, c0=c0)
        raw = _distinct_uniform(rng, k_max + 1, min_gap=1e-3)
        x, *nodes = (mp.mpf(v) for v in raw)
        last_fail = k_min - 1
        fitted = None
        for k in range(k_min, k_max + 1):
            fitted = FittedPosterior(_zero_valued_state(kernel, nodes[:k], ctx), extends=fitted)
            lower, upper = variance_sandwich_check(kernel, x, nodes[:k], ctx, fitted=fitted)
            all_reports.extend((lower, upper))
            if not (lower.satisfied and upper.satisfied):
                last_fail = k
        trial_rows.append(
            {
                "trial": trial,
                "a": a,
                "c0": c0,
                "first_k": last_fail + 1,
            }
        )
    threshold = max(row["first_k"] for row in trial_rows)
    return SandwichSweep(
        trials=tuple(trial_rows), threshold=threshold, reports=tuple(all_reports)
    )
