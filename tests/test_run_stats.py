"""Smoke test of ``scripts/run_stats.py`` on a tiny run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_stats.py"


def test_run_stats_prints_times_steps_and_memory(tmp_path, capsys):
    # 50 digits, 2 steps on the grid cut at l_max = 20: both runs, the
    # untraced and the traced one, take well under a second.
    spec = importlib.util.spec_from_file_location("run_stats", SCRIPT)
    run_stats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_stats)
    config = tmp_path / "config.txt"
    config.write_text("digits = 50\nsteps = 2\ngrid.l_max = 20\n", encoding="utf-8")
    run_stats.main([str(config)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wall_s ")
    assert lines[1].split() == ["size", "sync_s", "select_s", "raised_solves"]
    assert [line.split()[0] for line in lines[2:4]] == ["1", "2"]
    assert lines[4] == "points 3, completed"
    assert lines[5].startswith("peak_rss_mib ") and float(lines[5].split()[1]) > 0
    assert lines[6].startswith("tracemalloc_peak_mib ") and float(lines[6].split()[1]) > 0
    assert len(lines) == 7
