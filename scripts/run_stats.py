"""Run one trajectory in process and print where its time and memory went.

    python scripts/run_stats.py [config]

The trajectory is the one ``eilab trajectory`` runs for the key = value
config file ``config`` (the defaults when it is omitted).  eilab is imported
from ``src/`` next to this directory.  The run is made twice:

* untraced: its wall time, each step's ``sync_s``, ``select_s`` and
  ``raised_solves`` (see ``eilab.ei.StepTiming``), how the run ended, and
  the process's peak resident memory (``ru_maxrss``) after it;
* under ``tracemalloc``: the peak of the memory Python allocated during
  that run.  Tracing slows the run and adds its own memory, which is why
  the peak RSS and the times come from the untraced run.

The peak RSS covers the whole process up to that point: the interpreter,
mpmath and the run.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import eilab  # noqa: E402


def run(config):
    """The configured trajectory, as ``eilab trajectory`` runs it."""
    return eilab.run_trajectory(
        config.kernel(), config.objective, config.x1, config.steps, config.grid(), config.precision(),
        jitter=config.jitter,
    )


def main(argv):
    config = eilab.load_config(argv[0]) if argv else eilab.ExperimentConfig.default()
    started = time.perf_counter()
    result = run(config)
    wall = time.perf_counter() - started
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    try:
        run(config)
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    print(f"wall_s {wall:.3f}")
    print(f"{'size':>4} {'sync_s':>8} {'select_s':>8} {'raised_solves':>13}")
    for t in result.timings:
        print(f"{t.size:4} {t.sync_s:8.3f} {t.select_s:8.3f} {t.raised_solves:13}")
    ended = f"aborted at design size {result.aborted_at}" if result.aborted else "completed"
    print(f"points {result.state.size}, {ended}")
    print(f"peak_rss_mib {peak_rss:.2f}")
    print(f"tracemalloc_peak_mib {traced_peak / 2**20:.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
