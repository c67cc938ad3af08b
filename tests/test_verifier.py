import dataclasses
from collections import Counter

import pytest

import eilab
from eilab import ei, posterior, verifier


def test_lagrange_midpoint(ctx60):
    lw = eilab.lagrange_weights(0, [-1, 1], ctx60)
    assert lw[0] == ctx60.mpf("0.5")
    assert lw[1] == ctx60.mpf("0.5")


def test_lagrange_indicator_at_node(ctx60):
    lw = eilab.lagrange_weights("0.3", ["-0.2", "0.3", "0.9"], ctx60)
    vals = [abs(w) for w in lw]
    assert vals[1] == 1
    assert vals[0] == 0 and vals[2] == 0


def test_lagrange_reproduces_quadratic(ctx60):
    mp = ctx60.mp
    nodes = ["-0.5", "0.1", "0.8"]
    lw = eilab.lagrange_weights("0.3", nodes, ctx60)
    acc = sum(w * mp.mpf(n) ** 2 for w, n in zip(lw, nodes))
    assert abs(acc - mp.mpf("0.09")) <= ctx60.tol(-(ctx60.digits // 2))


def test_lagrange_duplicate_nodes(ctx60):
    with pytest.raises(eilab.DuplicatePoint):
        eilab.lagrange_weights(0, ["0.5", "0.5"], ctx60)


def test_rkhs_error_zero_with_indicator(ctx60, gauss_unit):
    err = eilab.rkhs_approx_error(gauss_unit, "0.4", ["0.1", "0.4"], ["0", "1"], ctx60)
    assert err == 0


def test_rkhs_error_bounds_posterior_variance(ctx60, gauss_unit):
    # Lagrange weights are suboptimal against the variance-minimizing ones
    mp = ctx60.mp
    nodes = ["0.1", "0.14", "0.18"]
    lw = eilab.lagrange_weights(0, nodes, ctx60)
    err = eilab.rkhs_approx_error(gauss_unit, 0, nodes, lw, ctx60)
    state = eilab.TrajectoryState(
        kernel=gauss_unit,
        ctx=ctx60,
        points=tuple(mp.mpf(n) for n in nodes),
        values=(mp.mpf(0),) * 3,
        best=mp.mpf(0),
    )
    var = eilab.FittedPosterior(state).moments(0).variance
    assert err >= var - ctx60.tol(-(ctx60.digits // 2))


def test_decay_scan_slope(ctx60, gauss_unit):
    scan = eilab.decay_scan(gauss_unit, ctx60)
    mp = ctx60.mp
    assert scan.slope <= -mp.log(4)
    errs = [e for _, e in scan.errors]
    assert errs[-1] < errs[0]


def test_vandermonde_single_point(ctx60):
    mp = ctx60.mp
    z = mp.expjpi(mp.mpf("0.3"))
    z1 = mp.expjpi(mp.mpf("1.2"))
    rho = eilab.vandermonde_distance(z, [z1], ctx60)
    expected = abs(z - z1) / mp.sqrt(2)
    assert abs(rho - expected) <= ctx60.tol(-(ctx60.digits - 5))


def test_vandermonde_hand_case(ctx60):
    mp = ctx60.mp
    rho = eilab.vandermonde_distance(mp.mpc(1), [mp.mpc(0, 1), mp.mpc(0, -1)], ctx60)
    assert abs(rho - mp.sqrt(2)) <= ctx60.tol(-(ctx60.digits - 5))
    oracle = eilab.gram_distance_oracle(mp.mpc(1), [mp.mpc(0, 1), mp.mpc(0, -1)], ctx60)
    assert abs(oracle - rho) <= ctx60.tol(-(ctx60.digits // 2))


def test_vandermonde_duplicates_rejected(ctx60):
    mp = ctx60.mp
    with pytest.raises(eilab.DuplicatePoint):
        eilab.vandermonde_distance(mp.mpc(1), [mp.mpc(0, 1), mp.mpc(0, 1)], ctx60)
    with pytest.raises(eilab.DuplicatePoint):
        eilab.gram_distance_oracle(mp.mpc(0, 1), [mp.mpc(0, 1)], ctx60)


def test_vandermonde_oracle_equivalence(ctx60):
    reports = eilab.vandermonde_trials(ctx60, seed=9, trials=15)
    assert all(r.satisfied for r in reports)


def test_gram_oracle_caps_size(ctx60):
    mp = ctx60.mp
    zs = [mp.expjpi(mp.mpf(k) / 12) for k in range(11)]
    with pytest.raises(eilab.EILabError):
        eilab.gram_distance_oracle(mp.mpc(1, 0), zs, ctx60)


def test_sandwich_check_relabeling_invariance(ctx60, gauss_unit):
    nodes = ["-0.8", "-0.3", "0.2", "0.6", "0.9"]
    low1, up1 = eilab.variance_sandwich_check(gauss_unit, "0.05", nodes, ctx60)
    low2, up2 = eilab.variance_sandwich_check(gauss_unit, "0.05", list(reversed(nodes)), ctx60)
    rel = abs(low1.ratio - low2.ratio) / max(abs(low1.ratio), ctx60.mpf(1))
    assert rel <= ctx60.tol(-(ctx60.digits // 2))
    assert (low1.satisfied, up1.satisfied) == (low2.satisfied, up2.satisfied)


def test_sandwich_check_requires_two_nodes(ctx60, gauss_unit):
    with pytest.raises(eilab.EILabError):
        eilab.variance_sandwich_check(gauss_unit, "0.05", ["0.4"], ctx60)


def test_sandwich_check_rejects_x_at_a_node_before_fitting(ctx60, gauss_unit, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a posterior was fitted")

    monkeypatch.setattr(verifier, "FittedPosterior", no_fit)
    with pytest.raises(eilab.DuplicatePoint):
        eilab.variance_sandwich_check(gauss_unit, "0.2", ["-0.3", "0.2", "0.6"], ctx60)


def test_sandwich_check_refuses_the_fit_of_other_nodes(ctx60, gauss_unit):
    mp = ctx60.mp
    zero = [mp.mpf(0)] * 2
    other = eilab.TrajectoryState(
        kernel=gauss_unit, ctx=ctx60, points=(mp.mpf("-0.3"), mp.mpf("0.4")), values=tuple(zero), best=zero[0]
    )
    with pytest.raises(eilab.EILabError):
        eilab.variance_sandwich_check(gauss_unit, "0.05", ["-0.3", "0.6"], ctx60, fitted=eilab.FittedPosterior(other))


def test_envelope_reports_are_log_domain(ctx60, gauss_unit):
    mp = ctx60.mp
    # synthetic collapsing trajectory: the lower bound 2^K F(K) is a number
    # of modest size in the log domain even though e^(2^K F(K)) is not
    points = [mp.mpf(p) for p in ("0", "-0.63", "0.77", "0.23", "-0.1", "0.0036")]
    reports = eilab.trajectory_envelope_check(points, gauss_unit, ctx60)
    assert {r.label for r in reports} == {"envelope-lower", "envelope-upper"}
    ks = sorted({r.k for r in reports})
    assert ks == [2, 3, 4, 5]
    for r in reports:
        assert mp.isfinite(r.lhs) and mp.isfinite(r.rhs)


def test_envelope_upper_bound_decreases(ctx60, gauss_unit):
    mp = ctx60.mp
    points = [mp.mpf(p) for p in ("0", "-0.63", "0.77", "0.23", "-0.1", "0.0036", "-7.3e-6")]
    reports = [r for r in eilab.trajectory_envelope_check(points, gauss_unit, ctx60) if r.label == "envelope-upper"]
    uppers = [r.rhs for r in sorted(reports, key=lambda r: r.k)]
    assert all(b < a for a, b in zip(uppers, uppers[1:]))


def test_tail_check_bounds_at_zero(ctx60):
    reports = eilab.tail_integral_check(["0"], ctx60)
    by_label = {r.label: r for r in reports}
    # I(0) = 1 with bracket [1/2, 1]; the upper bound is an equality
    assert by_label["tail-lower"].satisfied
    assert by_label["tail-upper"].satisfied
    assert abs(by_label["tail-upper"].lhs - 1) <= ctx60.tol(-(ctx60.digits - 5))


def test_tail_check_closed_vs_quadrature(ctx60):
    reports = eilab.tail_integral_check(["0", "0.5", "1", "2", "5"], ctx60)
    quad = [r for r in reports if r.label == "tail-quadrature"]
    assert len(quad) == 5
    assert all(r.satisfied for r in quad)


def test_tail_check_sees_a_wrong_ei_closed_form(ctx60, monkeypatch):
    # lemma3-tails checks the EI closed form itself: off by 10^-13 relative,
    # it disagrees with the quadrature at every h, in the lifted branch
    # (h = 20) too.
    real = ei._ei_closed
    monkeypatch.setattr(ei, "_ei_closed", lambda mp, *args: real(mp, *args) * (1 + mp.mpf(10) ** -13))
    reports = eilab.tail_integral_check(["0", "2", "20"], ctx60)
    quad = [r for r in reports if r.label == "tail-quadrature"]
    assert len(quad) == 3
    assert not any(r.satisfied for r in quad)


def test_tail_check_rejects_negative_h(ctx60):
    with pytest.raises(eilab.EILabError):
        eilab.tail_integral_check(["-1"], ctx60)


def test_markov_suite_holds_the_closed_form_against_the_cholesky_moments(ctx60, monkeypatch):
    # A design of k points is queried in its k - 1 gaps and beyond both
    # ends of its hull, two reports per query.  Off by 10^-13 relative, the
    # Cholesky variance or the closed form's fails every variance report.
    reports = verifier.markov_posterior_trials(ctx60, seed=3)
    assert all(r.satisfied for r in reports)
    per_trial = Counter(r.context["trial"] for r in reports)
    assert all(per_trial[r.context["trial"]] == 2 * (r.k + 1) for r in reports)
    off = ctx60.mpf(1) + ctx60.mpf(10) ** -13
    real_moments, real_pairs = posterior.FittedPosterior.moments, posterior.ou_correlations

    def cholesky(self, x):
        moments = real_moments(self, x)
        return dataclasses.replace(moments, variance=moments.variance * off)

    def closed_form(*args):
        return [(rho, (ctx60.mpf(q) * off)._mpf_) for rho, q in real_pairs(*args)]

    for owner, name, patched in ((posterior.FittedPosterior, "moments", cholesky), (posterior, "ou_correlations", closed_form)):
        with monkeypatch.context() as m:
            m.setattr(owner, name, patched)
            reports = verifier.markov_posterior_trials(ctx60, seed=3)
        assert not any(r.satisfied for r in reports if r.label == "markov-variance")


def test_sandwich_sweep_structure(ctx60):
    sweep = eilab.sandwich_sweep(ctx60, seed=4, trials=2, k_min=2, k_max=6)
    assert len(sweep.trials) == 2
    assert sweep.threshold == max(t["first_k"] for t in sweep.trials)
    # 2 trials x 5 K values x 2 bounds
    assert len(sweep.reports) == 20
