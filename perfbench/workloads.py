"""The benchmark's three workloads.

A workload runs in rounds.  Every round of a run does the same operations on
the same inputs with a freshly imported eilab, so a round costs what one
``eilab`` command costs a user, and the rounds of a run must produce
identical outputs.

* ``collapse`` -- the paper's experiment through ``eilab trajectory``:
  G(x) = exp(-x^2), f = -G, x_1 = 0, log grid +-e^{-0.02 l}, 300+20 digits.
  Six steps on the grid cut at l_max = 600 select x_2..x_7 exactly as the
  full grid does (x_7 = -7.4e-6 sits at l = 591), including the first step
  whose solve runs at raised precision.  Almost all the time goes to the
  per-candidate posterior query and closed-form EI, plus one grid build per
  step.
* ``rough-contrast`` -- the paper's consistency contrast through ``eilab
  contrast``: Ornstein-Uhlenbeck kernel (theta = 1), f = -exp(-x^2), 29 steps,
  60+20 digits, grid cut at l_max = 120.  The design grows to 30 points, so
  the O(K^2) forward solve per candidate dominates at low precision.
* ``verify`` -- the verifier suites through their public functions at 300+20
  digits.  Quadrature, spectral densities, Gram determinants, many fresh
  Cholesky factors and Legendre conjugates do the work; the trajectory
  layers do almost none.

The seed draws the Vandermonde trials of ``verify`` and the candidate
samples of the argmax checks.  The other timed inputs are fixed: the
trajectories are the paper's experiments, and the cost of an oracle or
sandwich trial depends on the design size its seed draws (2.7 s to 7.4 s
for one posterior-oracle trial), so seed-drawn trials would spread the round
time far beyond the benchmark's bounds.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks

COLLAPSE_CONFIG = """\
digits = 300
guard_digits = 20
steps = 6
x1 = 0
objective = neg_kernel
kernel.variant = gaussian
kernel.a = 0.25
kernel.gamma = sqrt_pi
grid.epsilon = 0.02
grid.l_max = 600
"""

ROUGH_CONFIG = """\
digits = 60
guard_digits = 20
steps = 29
x1 = 0
objective = neg_gauss
kernel.variant = ou
kernel.theta = 1
grid.epsilon = 0.02
grid.l_max = 120
"""


class _Command:
    """A workload that runs one ``eilab`` command on a config file."""

    command = ""
    config_text = ""
    samples = 16  # random candidates per step in the argmax check

    def __init__(self, out_dir, rng):
        self.rng = rng
        self.out = out_dir / "eilab-out"
        self.config_path = out_dir / "config.txt"
        self.config_path.write_text(self.config_text, encoding="utf-8")

    def setup(self, eilab):
        config = eilab.load_config(str(self.config_path))
        return {
            "config": config,
            "ctx": config.precision(),
            "kernel": config.kernel(),
            "grid": config.grid(),
        }

    @property
    def ops_per_round(self):
        return self.steps

    def round(self, eilab, prepared, tracer):
        main = eilab.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([self.command, "--config", str(self.config_path), "--out", str(self.out)])
        return {"status": status, "report": (self.out / "report.json").read_bytes()}

    def fingerprint(self, result):
        return result["status"], result["report"]

    def clamps(self, result):
        report = json.loads(result["report"])
        return sum(it["variance_clamps"] for it in report["iterations"])

    def check(self, eilab, prepared, result):
        """Failed operations and problems outside any operation."""
        if result["status"] != 0:
            return {step: "command failed" for step in range(1, self.steps + 1)}, []
        report = json.loads(result["report"])
        grid = prepared["grid"]
        # A run that aborted has fewer iterations; the steps it never reached
        # fail there.
        failed = checks.trajectory_failures(
            eilab, report["iterations"], kernel=prepared["kernel"], objective=prepared["config"].objective,
            ctx=prepared["ctx"], epsilon=grid.epsilon, l_max=grid.l_max, steps=self.steps,
            rng=self.rng, samples=self.samples,
        )
        more, problems = self.paper_checks(report)
        for step, reason in more.items():
            failed.setdefault(step, reason)
        return failed, problems


class Collapse(_Command):
    command = "trajectory"
    config_text = COLLAPSE_CONFIG
    steps = 6

    def paper_checks(self, report):
        return checks.collapse_failures(report["iterations"], self.steps), []


class RoughContrast(_Command):
    command = "contrast"
    config_text = ROUGH_CONFIG
    steps = 29

    def paper_checks(self, report):
        xs = [float(it["x"]) for it in report["iterations"]]
        if len(xs) != self.steps + 1:
            return {}, [f"the run holds {len(xs)} points, not {self.steps + 1}"]
        gaps = [float(row["max_gap"]) for row in report["rows"]]
        if abs(gaps[-1] - checks.max_gap(xs)) > 1e-12 or abs(gaps[9] - checks.max_gap(xs[:10])) > 1e-12:
            return {}, ["reported max gaps differ from the gaps of the reported points"]
        if not gaps[-1] < gaps[9]:
            return {}, [f"max gap after 30 points ({gaps[-1]:.4g}) is not below that after 10 ({gaps[9]:.4g})"]
        return {}, []


class Verify:
    """One battery of verifier suites per round.

    Seeds of the expensive suites are fixed (see the module docstring); the
    Vandermonde trials take their seed from the benchmark seed.
    """

    digits = 300
    ei_seed, ei_trials = 3, 1  # one trial, design size 3
    posterior_seed, posterior_trials = 8, 1  # one trial, design size 2
    vandermonde_trials = 10
    h_values = ("0", "2", "20")
    sandwich_seed, sandwich_trials, k_min, k_max = 3, 1, 2, 25
    ops_per_round = ei_trials + posterior_trials + vandermonde_trials + len(h_values) + sandwich_trials

    def __init__(self, out_dir, rng):
        self.vandermonde_seed = rng.randrange(2**31)

    def setup(self, eilab):
        return {"ctx": eilab.PrecisionContext(self.digits, 20)}

    def round(self, eilab, prepared, tracer):
        ctx = prepared["ctx"]
        verifier = eilab.verifier

        def call(name, *args, **kwargs):
            fn = getattr(verifier, name)
            if tracer is not None:
                fn = tracer.wrap(f"verifier.{name}", fn)
            return fn(*args, **kwargs)

        return {
            "ei": call("ei_oracle_trials", ctx, self.ei_seed, trials=self.ei_trials),
            "posterior": call("posterior_oracle_trials", ctx, self.posterior_seed, trials=self.posterior_trials),
            "vandermonde": call("vandermonde_trials", ctx, self.vandermonde_seed, trials=self.vandermonde_trials),
            "tails": call("tail_integral_check", list(self.h_values), ctx),
            "sandwich": call(
                "sandwich_sweep", ctx, self.sandwich_seed, trials=self.sandwich_trials,
                k_min=self.k_min, k_max=self.k_max,
            ),
        }

    def fingerprint(self, result):
        reports = [r for key in ("ei", "posterior", "vandermonde", "tails") for r in result[key]]
        reports += result["sandwich"].reports
        return repr([(r.label, r.k, str(r.lhs), str(r.rhs), r.satisfied) for r in reports])

    def clamps(self, result):
        return 0

    def check(self, eilab, prepared, result):
        ctx = prepared["ctx"]
        failed = checks.verify_failures(
            result, h_values=self.h_values, k_min=self.k_min, k_max=self.k_max,
            dps=ctx.working_dps, digits=ctx.digits,
        )
        return failed, []


WORKLOADS = {"collapse": Collapse, "rough-contrast": RoughContrast, "verify": Verify}
