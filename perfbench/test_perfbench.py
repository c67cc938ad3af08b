"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child
    # [5, 6].
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["ei.score", 1.0, 3.0, 0],
        ["posterior.fit", 4.0, 8.0, 0],
        ["linalg.factor", 5.0, 6.0, 2],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 5.0, 0], ["b.z", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == 4.0


def test_children_are_clipped_to_the_parent():
    assert tracing.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_layer_self_times_and_untraced_add_up_to_wall():
    spans = [
        ["cli.main", 1.0, 9.0, -1],
        ["ei.score", 2.0, 8.0, 0],
        ["posterior.query", 3.0, 4.0, 1],
        ["reports.write", 8.5, 8.75, 0],
    ]
    summary = tracing.summarize(spans, 0.0, 10.0)
    assert summary["untraced_s"] == 2.0
    assert summary["layer_self_s"]["cli"] == 1.75 + 0.25
    assert summary["layer_self_s"]["ei"] == 5.0
    assert sum(summary["layer_self_s"].values()) + summary["untraced_s"] == summary["wall_s"]


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("kernels.covariance", lambda x: x + 1)
    outer = tracer.wrap("posterior.query", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (name0, s0, e0, p0), (name1, s1, e1, p1) = tracer.spans
    assert (name0, p0, name1, p1) == ("posterior.query", -1, "kernels.covariance", 0)
    assert s0 <= s1 <= e1 <= e0


def test_grid_index_round_trips():
    with mpmath.workdps(320):
        for sign in (-1, 1):
            for l in (0, 1, 281, 590, 4962, 10000):
                x = checks.grid_point(mpmath.mp, sign, l, "0.02")
                text = mpmath.nstr(x, 300)
                assert checks.grid_index(mpmath.mp, text, "0.02") == (sign, l)
                assert checks.grid_point(mpmath.mp, sign, l, "0.02") == x
        assert checks.grid_index(mpmath.mp, "0.0", "0.02") is None


def test_grid_index_of_the_papers_points():
    # x_7 = -7.355e-6 as eilab reports it, and x_10 = 8.0e-44 from the
    # paper's table, which needs the grid out to l = 4962.
    with mpmath.workdps(50):
        assert checks.grid_index(mpmath.mp, "-7.355e-6", "0.02") == (-1, 591)
        assert checks.grid_index(mpmath.mp, "8.0e-44", "0.02")[1] in range(4955, 4970)


def test_paper_table_rounding():
    assert checks.two_digits("-0.1000001") == checks.two_digits("-0.10")
    assert checks.two_digits("0.00362") == checks.two_digits("0.0036")
    assert checks.two_digits("0.00366") != checks.two_digits("0.0036")
