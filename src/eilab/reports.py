"""Run reports: structured JSON plus flat CSV tables.

Every numeric value crosses this boundary as a decimal string rendered with
the context's declared digit count, so nothing is silently truncated to a
binary float.  ``report.json`` and ``table.csv`` are byte-deterministic for
a given (config, seed); wall-clock timings live in a sidecar file that the
deterministic artifacts only reference by name.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .config import ExperimentConfig
from .verifier import BoundReport

TIMINGS_FILE = "timings.json"


@dataclass
class RunReport:
    command: str
    config: ExperimentConfig
    digits: int
    status: str = "ok"
    abort_size: int | None = None
    abort_reason: str | None = None
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    hard_failures: int = 0
    notes: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    step_timings: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "abort_size": self.abort_size,
            "abort_reason": self.abort_reason,
            "digits": self.digits,
            "config": {k: v for k, v in self.config.entries},
            "columns": self.columns,
            "rows": self.rows,
            "iterations": self.iterations,
            "bounds": self.bounds,
            "hard_failures": self.hard_failures,
            "notes": self.notes,
            "timings_file": TIMINGS_FILE,
        }


def bound_to_dict(report: BoundReport, ctx) -> dict:
    def render(v):
        if v is None:
            return None
        return ctx.to_str(v)

    return {
        "label": report.label,
        "K": report.k,
        "lhs": render(report.lhs),
        "rhs": render(report.rhs),
        "ratio": render(report.ratio),
        "satisfied": report.satisfied,
        "context": report.context,
    }


def write_outputs(report: RunReport, out_dir) -> dict:
    """Write report.json, table.csv, and the timings sidecar; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    table_path = out / "table.csv"
    timings_path = out / TIMINGS_FILE

    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_json_obj(), fh, indent=2)
        fh.write("\n")

    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(str(row.get(c, "")) for c in report.columns) + "\n")

    with open(timings_path, "w", encoding="utf-8", newline="\n") as fh:
        timings = {"written_at": time.time(), "wall_seconds": report.wall_seconds, "steps": report.step_timings}
        json.dump(timings, fh, indent=2)
        fh.write("\n")

    return {"report": report_path, "table": table_path, "timings": timings_path}
