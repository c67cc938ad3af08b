"""Command-line front end.

Four subcommands drive the lab:

* ``trajectory`` -- run the EI collapse experiment and emit the flat
  (K, x_K, EI) table alongside the structured report.
* ``verify <suite>`` -- run one named verification suite.  The
  oracle-equivalence suites (ei-oracle, posterior-oracle,
  posterior-markov, lemma-vandermonde, lemma3-tails) are hard: the process
  exits nonzero if any trial fails.  The empirical-threshold sweeps
  (thm1-decay, thm2-sandwich, thm3-bounds) always exit zero and report
  what they saw.
* ``spectral`` -- tabulate the Legendre profile and collapse rate over K.
* ``contrast`` -- run the same objective under the configured (typically
  rough) kernel and report the trajectory coverage per K.

Configuration comes from a flat key = value file; ``EILAB_DIGITS`` and
``EILAB_OUT`` override the precision and output directory, and the
``--digits/--out/--seed`` flags override everything.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from bisect import insort
from dataclasses import asdict

from .config import ExperimentConfig, load_config
from .ei import run_trajectory
from .errors import EILabError
from .kernels import legendre_conjugate, profile_rate, spectral_power_law
from .reports import RunReport, bound_to_dict, write_outputs
from .verifier import (
    decay_scan,
    ei_oracle_trials,
    markov_posterior_trials,
    posterior_oracle_trials,
    sandwich_sweep,
    tail_integral_check,
    trajectory_envelope_check,
    vandermonde_trials,
)

SUITES = (
    "thm1-decay",
    "thm2-sandwich",
    "thm3-bounds",
    "lemma-vandermonde",
    "lemma3-tails",
    "ei-oracle",
    "posterior-oracle",
    "posterior-markov",
)
HARD_SUITES = frozenset(
    {"lemma-vandermonde", "lemma3-tails", "ei-oracle", "posterior-oracle", "posterior-markov"}
)

ENV_DIGITS = "EILAB_DIGITS"
ENV_OUT = "EILAB_OUT"


def _trajectory_iterations(run, ctx):
    rows = []
    for rec in run.records:
        rows.append(
            {
                "K": rec.size,
                "x": ctx.to_str(rec.point),
                "value": ctx.to_str(rec.value),
                "ei": None if rec.ei is None else ctx.to_str(rec.ei),
                "condition": ctx.to_str(rec.condition, 20),
                "variance_clamps": rec.variance_clamps,
                "solve_dps": rec.solve_dps,
                "jitter": rec.jitter,
            }
        )
    return rows


def _run_into(report: RunReport, config: ExperimentConfig, ctx):
    """Run the configured trajectory and record its iterations, any abort
    and its per-step timings in ``report``; returns the run."""
    run = run_trajectory(
        config.kernel(), config.objective, config.x1, config.steps, config.grid(), ctx,
        jitter=config.jitter,
    )
    report.iterations = _trajectory_iterations(run, ctx)
    report.step_timings = [asdict(t) for t in run.timings]
    if run.aborted:
        report.status = "aborted"
        report.abort_size = run.aborted_at
        report.abort_reason = run.abort_reason
    return run


def cmd_trajectory(config: ExperimentConfig) -> RunReport:
    """Run the EI loop and mirror the (K, x_K, EI) table."""
    ctx = config.precision()
    report = RunReport(command="trajectory", config=config, digits=ctx.digits)
    _run_into(report, config, ctx)
    report.columns = ["K", "x", "ei"]
    report.rows = [
        {"K": it["K"], "x": it["x"], "ei": it["ei"] or ""} for it in report.iterations
    ]
    return report


def cmd_contrast(config: ExperimentConfig) -> RunReport:
    """Run the configured kernel and report trajectory coverage per K: the
    largest gap between neighbours of x_1..x_K, kept sorted as the design
    grows."""
    ctx = config.precision()
    report = RunReport(command="contrast", config=config, digits=ctx.digits)
    run = _run_into(report, config, ctx)
    report.columns = ["K", "x", "max_gap"]
    ordered = []
    for it, x in zip(report.iterations, run.state.points):
        insort(ordered, x)
        gap = max((b - a for a, b in zip(ordered, ordered[1:])), default=ctx.mp.mpf(0))
        report.rows.append({"K": it["K"], "x": it["x"], "max_gap": ctx.to_str(gap, 30)})
    return report


def cmd_spectral(config: ExperimentConfig) -> RunReport:
    """Tabulate s*, the conjugate value, and the rate F(K) over a K range."""
    ctx = config.precision()
    kernel = config.kernel()
    # Refuses a kernel without a rate function, however short the K range.
    spectral_power_law(kernel, ctx.mp)
    k_min, k_max = config.spectral_range()
    report = RunReport(command="spectral", config=config, digits=ctx.digits)
    report.columns = ["K", "s_star", "conjugate", "conjugate_numeric", "rate", "rate_over_k"]
    for k in range(max(2, k_min), k_max + 1):
        profile = legendre_conjugate(kernel, 2 * k + 1, ctx)
        rate = profile_rate(profile, k, ctx)
        report.rows.append(
            {
                "K": k,
                "s_star": ctx.to_str(profile.s_star, 30),
                "conjugate": ctx.to_str(profile.value, 30),
                "conjugate_numeric": ctx.to_str(profile.numeric_value, 30),
                "rate": ctx.to_str(rate, 30),
                "rate_over_k": ctx.to_str(rate / k, 30),
            }
        )
    return report


def cmd_verify(config: ExperimentConfig, suite: str) -> RunReport:
    """Run one named verification suite."""
    if suite not in SUITES:
        raise EILabError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    ctx = config.precision()
    mp = ctx.mp
    params = config.verify_params()
    report = RunReport(command=f"verify:{suite}", config=config, digits=ctx.digits)
    report.columns = ["label", "K", "lhs", "rhs", "ratio", "satisfied"]

    bounds = []
    if suite == "ei-oracle":
        bounds = ei_oracle_trials(ctx, config.seed)
    elif suite == "posterior-oracle":
        bounds = posterior_oracle_trials(ctx, config.seed)
    elif suite == "posterior-markov":
        bounds = markov_posterior_trials(ctx, config.seed)
    elif suite == "lemma-vandermonde":
        bounds = vandermonde_trials(ctx, config.seed)
    elif suite == "lemma3-tails":
        bounds = tail_integral_check(params["h_values"], ctx)
    elif suite == "thm1-decay":
        scan = decay_scan(config.kernel(), ctx)
        report.columns = ["K", "error_sq"]
        report.rows = [
            {"K": k, "error_sq": ctx.to_str(err, 30)} for k, err in scan.errors
        ]
        report.notes["slope"] = ctx.to_str(scan.slope, 30)
        report.notes["slope_target"] = ctx.to_str(-mp.log(4), 30)
        report.notes["slope_ok"] = bool(scan.slope <= -mp.log(4))
    elif suite == "thm2-sandwich":
        sweep = sandwich_sweep(
            ctx, config.seed, trials=params["trials"], k_max=params["k_max"]
        )
        report.columns = ["trial", "a", "c0", "first_k"]
        report.rows = [dict(row) for row in sweep.trials]
        report.notes["threshold"] = sweep.threshold
        bounds = list(sweep.reports)
    elif suite == "thm3-bounds":
        # Refuse a kernel without a rate function before the run, not after.
        kernel = config.kernel()
        spectral_power_law(kernel, ctx.mp)
        run = _run_into(report, config, ctx)
        bounds = trajectory_envelope_check(run.state.points, kernel, ctx)

    report.bounds = [bound_to_dict(b, ctx) for b in bounds]
    if not report.rows and bounds:
        report.rows = [{c: b[c] for c in report.columns} for b in report.bounds]
    if suite in HARD_SUITES:
        report.hard_failures = sum(1 for b in bounds if not b.satisfied)
        report.notes["hard_suite"] = True
    else:
        report.notes["hard_suite"] = False
    return report


def _build_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig.default()
    env_digits = os.environ.get(ENV_DIGITS)
    if env_digits:
        config = config.replaced(digits=env_digits)
    env_out = os.environ.get(ENV_OUT)
    if env_out:
        config = config.replaced(out=env_out)
    if args.digits is not None:
        config = config.replaced(digits=args.digits)
    if args.out is not None:
        config = config.replaced(out=args.out)
    if args.seed is not None:
        config = config.replaced(seed=args.seed)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eilab",
        description="Arbitrary-precision expected-improvement laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("trajectory", "verify", "spectral", "contrast"):
        sp = sub.add_parser(name)
        if name == "verify":
            sp.add_argument("suite", choices=SUITES)
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--digits", type=int, help="override working digits")
        sp.add_argument("--out", help="override output directory")
        sp.add_argument("--seed", type=int, help="override the suite seed")
    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
        started = time.perf_counter()
        if args.command == "trajectory":
            report = cmd_trajectory(config)
        elif args.command == "contrast":
            report = cmd_contrast(config)
        elif args.command == "spectral":
            report = cmd_spectral(config)
        else:
            report = cmd_verify(config, args.suite)
        report.wall_seconds = time.perf_counter() - started
        paths = write_outputs(report, config.out)
    except EILabError as exc:
        print(f"eilab: error: {exc}", file=sys.stderr)
        return 2

    print(f"eilab {args.command}: status={report.status} report={paths['report']}")
    if report.status == "aborted":
        print(f"  aborted at design size {report.abort_size}: {report.abort_reason}")
    if report.notes.get("hard_suite"):
        print(f"  hard failures: {report.hard_failures}")
        if report.hard_failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
