"""eilab benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 30 --trace 0

Run from anywhere; the eilab sources are taken from ``src/`` next to this
directory and nothing else is imported from the repository.  The run repeats
identical rounds of the workload, each with a freshly imported eilab, and
starts another round only while it is expected to end within ``--seconds``.
The first round warms mpmath's caches and is not counted in ``wall_s``.
After the rounds it checks the last round's outputs (see checks.py) and that
every round produced the same outputs.

``--trace 0`` reports the end-to-end metrics: the median round time
``wall_s``, the median set-up time ``setup_s`` (import eilab, build config,
context and kernel) and the peak resident memory ``peak_rss_mib`` of the
first two rounds.  ``--trace 1`` alternates traced and untraced rounds
after the first and reports the per-layer metrics of the median traced
round; its spans are written to
``perfbench/out/<workload>/spans.json``.

Human-readable figures go to stderr.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-ups timed before the first round, on top of one per round; the first
# also pays for importing mpmath and compiling eilab's bytecode.
EXTRA_SETUPS = 15


def fresh_eilab():
    """Import eilab from ``src/`` as a process would the first time."""
    for name in list(sys.modules):
        if name == "eilab" or name.startswith("eilab."):
            del sys.modules[name]
    eilab = importlib.import_module("eilab")
    importlib.import_module("eilab.cli")
    if Path(eilab.__file__).resolve().parent != SRC / "eilab":
        raise ImportError(f"eilab was imported from {eilab.__file__}, not from {SRC}")
    return eilab


def timed_setup(workload):
    start = time.perf_counter()
    eilab = fresh_eilab()
    prepared = workload.setup(eilab)
    return eilab, prepared, time.perf_counter() - start


def layer_metrics(summary, tracer, clamps):
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in (
        "ei.grid", "ei.oracle", "posterior.fit", "posterior.query", "posterior.oracle",
        "linalg.factor", "linalg.gram_det", "quadrature.integrate", "kernels.spectral_density",
        "kernels.covariance", "kernels.legendre",
    ):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.s", total[span], "s")
    put("ei.grid.points", counts["ei.grid.points"], "count")
    put("ei.score.self_s", own["ei.score"], "s")
    put("ei.raised_evals", counts["ei.raised_evals"], "count")
    # Computed, not measured: the design size summed over all queries.
    put("posterior.query.kernel_evals", counts["posterior.query.kernel_evals"], "count-computed")
    put("posterior.clamps", clamps, "count")
    put("linalg.factor.raised", counts["linalg.factor.raised"], "count")
    put("linalg.factor.max_solve_dps", counts["linalg.factor.max_solve_dps"], "digits")
    put("reports.write.s", total["reports.write"], "s")
    put("reports.bytes", counts["reports.bytes"], "bytes")
    put("precision.distinct_dps", len(tracer.dps_seen), "count")
    for layer, self_s in summary["layer_self_s"].items():
        put(f"{layer}.self_s", self_s, "s")
    put("trace.untraced_s", summary["untraced_s"], "s")
    put("trace.wall_s", summary["wall_s"], "s")
    return metrics


def run(workload_name, seed, seconds, trace):
    out_dir = OUT / workload_name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rng = random.Random(seed)
    workload = WORKLOADS[workload_name](out_dir, rng)

    setups = [timed_setup(workload)[2] for _ in range(EXTRA_SETUPS)]
    # The first round fills mpmath's own caches for the run's precisions;
    # later rounds, although eilab is imported afresh, find them filled, so
    # the first is timed apart and left out of wall_s.
    kinds = itertools.chain(["warm"], itertools.cycle(["traced", "plain"]) if trace else itertools.repeat("plain"))
    needed = {"warm", "traced", "plain"} if trace else {"warm", "plain"}
    rounds = []  # (kind, wall seconds, result, tracer, start, end)
    began = time.perf_counter()
    for kind in kinds:
        eilab, prepared, setup_s = timed_setup(workload)
        setups.append(setup_s)
        tracer = tracing.Tracer() if kind == "traced" else None
        if tracer is not None:
            tracing.install(tracer)
        start = time.perf_counter()
        result = workload.round(eilab, prepared, tracer)
        end = time.perf_counter()
        rounds.append((kind, end - start, result, tracer, start, end))
        if len(rounds) == 2:
            # The high-water mark of the warm-up and first counted round; read
            # here so that it does not depend on how many rounds fit.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if {r[0] for r in rounds} == needed and end - began + (end - start) > seconds:
            break

    problems = []
    prints = {workload.fingerprint(r[2]) for r in rounds}
    if len(prints) != 1:
        problems.append(f"rounds produced {len(prints)} different outputs")
    # A fresh import keeps the checks out of the traced round's wrappers.
    eilab, prepared, _ = timed_setup(workload)
    failed_ops, more = workload.check(eilab, prepared, rounds[-1][2])
    problems += more

    plain = [r[1] for r in rounds if r[0] == "plain"]
    report = {
        "workload": workload_name,
        "rounds": len(rounds),
        "round_walls_s": [(r[0], round(r[1], 4)) for r in rounds],
        "failed_operations": {str(k): v for k, v in sorted(failed_ops.items())},
        "problems": problems,
    }
    if trace:
        traced_rounds = sorted((r for r in rounds if r[0] == "traced"), key=lambda r: r[1])
        _, wall, result, tracer, start, end = traced_rounds[(len(traced_rounds) - 1) // 2]
        summary = tracing.summarize(tracer.spans, start, end)
        metrics = layer_metrics(summary, tracer, workload.clamps(result))
        metrics["trace.overhead_s"] = {"value": wall - statistics.median(plain), "unit": "s"}
        accounted = sum(summary["layer_self_s"].values()) + summary["untraced_s"]
        if abs(accounted - summary["wall_s"]) > 1e-6 * summary["wall_s"]:
            problems.append("layer self times do not add up to the traced wall time")
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["spans"] = str(out_dir / "spans.json")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    attempted = workload.ops_per_round * len(rounds)
    failed = len(failed_ops) * len(rounds)
    return report, {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eilab" / "__init__.py").is_file():
        print(f"perfbench: no eilab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in report.items():
        print(f"{key}: {value}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
