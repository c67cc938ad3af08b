"""The benchmark's span tracer still finds, and can call, every eilab name it wraps.

``perfbench/tracing.install`` looks up functions, methods and imported
names as module attributes of eilab; a refactor that renames or drops one
of them breaks ``perfbench/run.py --trace 1``, and one that changes what a
wrapper's counter reads breaks it at the first call.  The install runs in
a subprocess so that its wrappers do not leak into the other tests; there
a tiny 50-digit ``trajectory``, one ``expected_improvement`` with its
fit, in the raised-precision branch of the closed form, and one trial each
of the posterior-oracle, EI-oracle and Vandermonde suites run under the
tracer, so that every counter's callback runs and the verify layers'
spans, the oracle's quadrature nested in its own, are recorded.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED = """\
import tempfile
from pathlib import Path
tracer = tracing.Tracer()
tracing.install(tracer)
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "cfg.txt"
    cfg.write_text("digits = 50\\nsteps = 3\\ngrid.l_max = 20\\n", encoding="utf-8")
    assert eilab.cli.main(["trajectory", "--config", str(cfg), "--out", str(Path(tmp) / "out")]) == 0
ctx = eilab.PrecisionContext(digits=50, guard_digits=20)
state = eilab.TrajectoryState.start(eilab.GaussianKernel(a="0.25", gamma="sqrt_pi"), ctx, 0, -1)
state = eilab.add_point(state, "0.5", "-0.5")
# next to x_2, far above f*: |u| > 16 takes the raised-precision closed form
eilab.expected_improvement(state, "0.5000001", eilab.FittedPosterior(state))
for suite in ("posterior_oracle_trials", "ei_oracle_trials", "vandermonde_trials"):
    getattr(eilab.verifier, suite)(ctx, 0, trials=1)
counts = tracer.counts
for name in ("ei.grid.points", "posterior.query.kernel_evals", "linalg.factor.max_solve_dps", "reports.bytes", "ei.raised_evals"):
    assert counts[name] > 0, name
assert tracer.dps_seen
names = {span[0] for span in tracer.spans}
for name in (
    "ei.score", "ei.grid", "posterior.fit", "posterior.query", "linalg.factor", "config.load", "reports.write",
    "posterior.oracle", "quadrature.integrate", "kernels.spectral_density", "ei.oracle", "linalg.gram_det",
):
    assert name in names, name
spans = tracer.spans
assert any(s[0] == "quadrature.integrate" and s[3] >= 0 and spans[s[3]][0] == "posterior.oracle" for s in spans)
"""


def test_tracer_installs_on_the_sources():
    code = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import eilab, eilab.cli, tracing\n"
        f"assert eilab.__file__.startswith({str(ROOT / 'src')!r}), eilab.__file__\n"
    ) + _TRACED
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
