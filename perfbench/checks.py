"""Correctness checks for the benchmark's workloads.

Every check compares against the paper or against an independent
computation, never against a stored copy of an earlier run.  Each returns a
``{operation index: reason}`` map of the operations whose check failed;
operation indices are the step numbers of a run (1-based) or the positions
of verifier trials within a round.
"""

from __future__ import annotations

import mpmath

# The paper's trajectory under G(x) = exp(-x^2), f = -G, x_1 = 0, on the
# grid {+-e^{-0.02 l}}: K -> (x_K, EI at the selection of x_K), two
# significant digits.
PAPER_TABLE = {
    2: ("-0.63", "0.16"),
    3: ("0.77", "0.13"),
    4: ("0.23", "0.025"),
    5: ("-0.10", "0.0013"),
    6: ("0.0036", "3.4e-06"),
    7: ("-7.4e-06", "1.4e-11"),
    8: ("2.9e-11", "2.2e-22"),
    9: ("-4.1e-22", "4.5e-44"),
    10: ("8.0e-44", "1.7e-87"),
}

# The paper states the envelope 2^K F(K) <= ln|x_{K+1}| <= F(K)/3 for these K.
ENVELOPE_K = range(4, 10)


def two_digits(text) -> str:
    """A decimal string rounded to two significant digits, as printed."""
    return "%.1e" % float(text)


def grid_index(mp, x, epsilon):
    """Map a point x = sign * e^{-l eps} of the log grid to (sign, l).

    Returns None for x = 0, which is the seed point and not on the grid.
    """
    x = mp.mpf(x)
    if x == 0:
        return None
    l = int(mp.nint(-mp.log(abs(x)) / mp.mpf(epsilon)))
    return (-1 if x < 0 else 1), l


def grid_point(mp, sign, l, epsilon):
    """The grid point sign * e^{-l eps}, computed exactly as the grid does."""
    v = mp.exp(-l * mp.mpf(epsilon))
    return v if sign > 0 else -v


def paper_rate(K, dps=60):
    """F(K) = T*(2K+1) - (2K+1) ln K for the paper's kernel G(x) = exp(-x^2).

    Its spectral density is c e^{-a t^2} with a = 1/4 and c = 1/(2 sqrt(pi)),
    so with T(s) = a e^{2s} - ln c the conjugate has the closed form
    T*(q) = q/2 (ln(q/(2a)) - 1) + ln c.
    """
    with mpmath.workdps(dps):
        a, c = mpmath.mpf(1) / 4, 1 / (2 * mpmath.sqrt(mpmath.pi))
        q = mpmath.mpf(2 * K + 1)
        return q / 2 * (mpmath.log(q / (2 * a)) - 1) + mpmath.log(c) - q * mpmath.log(K)


def tail_integral(h, dps):
    """I(h) = e^{-h^2/2} - h sqrt(pi/2) erfc(h/sqrt 2) with plain mpmath."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(h)
        return +(mpmath.exp(-h * h / 2) - h * mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(h / mpmath.sqrt(2)))


def _tie_key(x):
    return (abs(x), 0 if x < 0 else 1)


def trajectory_failures(eilab, iterations, *, kernel, objective, ctx, epsilon, l_max, steps, rng, samples):
    """Check every step of a trajectory report against independent EI work.

    Each step's design is rebuilt exactly from the reported points (grid
    points are recomputed from their index).  The selected EI must match a
    fresh single-query EI to digits/2 and the integral oracle to digits/4,
    and no sampled candidate, the winner's grid neighbours included, may
    beat the winner by more than the tie slack or win a tie against it.
    """
    mp = ctx.mp
    failed = {}
    f = eilab.objective_function(objective, kernel, ctx)
    points = []
    for step, row in enumerate(iterations):
        index = grid_index(mp, row["x"], epsilon)
        x = mp.mpf(0) if index is None else grid_point(mp, *index, epsilon)
        reported = mp.mpf(row["x"])
        if abs(reported - x) > abs(x) * ctx.tol(-(ctx.digits - 2)):
            failed[step] = f"reported x_{step + 1} is not a grid point"
        points.append(x)
    values = [f(x) for x in points]
    half, quarter = ctx.tol(-(ctx.digits // 2)), ctx.tol(-(ctx.digits // 4))
    for step in range(1, steps + 1):
        if step >= len(iterations):
            failed[step] = "the run ended before this step"
            continue
        state = eilab.TrajectoryState(
            kernel=kernel, ctx=ctx, points=tuple(points[:step]),
            values=tuple(values[:step]), best=min(values[:step]),
        )
        fitted = eilab.FittedPosterior(state)
        winner = points[step]
        top = eilab.expected_improvement(state, winner, fitted).ei
        if abs(top - mp.mpf(iterations[step]["ei"])) > top * half:
            failed[step] = "reported EI differs from a fresh single-query EI"
            continue
        oracle = eilab.ei_integral_oracle(state, winner, ctx)
        if abs(top - oracle) > top * quarter:
            failed[step] = "selected EI disagrees with the integral oracle"
            continue
        sign, l = grid_index(mp, winner, epsilon)
        picks = {(sign, l - 1), (sign, l + 1), (-sign, l)}
        picks |= {(rng.choice((-1, 1)), rng.randint(0, l_max)) for _ in range(samples)}
        slack = top * half
        for s, k in sorted(picks):
            if not 0 <= k <= l_max:
                continue
            c = grid_point(mp, s, k, epsilon)
            if c in state.points or c == winner:
                continue
            ei = eilab.expected_improvement(state, c, fitted).ei
            if ei > top + slack or (ei + slack >= top and _tie_key(c) < _tie_key(winner)):
                failed[step] = f"candidate {mp.nstr(c, 8)} beats the selected point"
                break
    return failed


def collapse_failures(iterations, steps):
    """The paper's table to two digits and its envelope, per step.

    Step K - 1 selects x_K; the envelope at K bounds ln|x_{K+1}|, which
    step K selects.
    """
    failed = {}
    for step in range(1, min(steps, len(iterations) - 1) + 1):
        K = step + 1
        x_ref, ei_ref = PAPER_TABLE[K]
        row = iterations[step]
        if two_digits(row["x"]) != two_digits(x_ref) or two_digits(row["ei"]) != two_digits(ei_ref):
            failed[step] = f"K={K}: ({row['x'][:10]}, {row['ei'][:10]}) is not the paper's ({x_ref}, {ei_ref})"
            continue
        if step in ENVELOPE_K:
            F = paper_rate(step)
            with mpmath.workdps(60):
                log_x = mpmath.log(abs(mpmath.mpf(row["x"])))
                if not (2**step * F <= log_x <= F / 3):
                    failed[step] = f"K={step}: ln|x_{K}| = {mpmath.nstr(log_x, 6)} leaves the envelope"
    return failed


def max_gap(xs):
    ordered = sorted(xs)
    return max(b - a for a, b in zip(ordered, ordered[1:]))


def verify_failures(results, *, h_values, k_min, k_max, dps, digits):
    """Per-operation failures of one verify round, in round order.

    ``results`` maps suite names to what the suite functions returned.
    """
    failed = {}
    index = 0
    for suite in ("ei", "posterior", "vandermonde"):
        for report in results[suite]:
            if not report.satisfied:
                failed[index] = f"{report.label} trial {report.context.get('trial')} not satisfied"
            index += 1
    tails = results["tails"]
    for i, h in enumerate(h_values):
        lower, upper, quad = tails[3 * i: 3 * i + 3]
        exact = tail_integral(h, dps + 40)
        with mpmath.workdps(dps + 40):
            closed = mpmath.mpf(str(lower.rhs))
            agrees = abs(closed - exact) <= abs(exact) * mpmath.mpf(10) ** (-(digits // 2))
        if not (lower.satisfied and upper.satisfied and quad.satisfied and agrees):
            failed[index] = f"tail integral at h={h} not confirmed"
        index += 1
    sweep = results["sandwich"]
    per_trial = 2 * (k_max - k_min + 1)
    for t, row in enumerate(sweep.trials):
        reports = sweep.reports[t * per_trial:(t + 1) * per_trial]
        first_k = row["first_k"]
        holds = all(r.satisfied for r in reports if r.k >= first_k)
        if first_k > k_max or not holds:
            failed[index] = f"sandwich trial {t}: bounds fail from first_k={first_k} on"
        index += 1
    return failed
