"""Span tracing around eilab's layer boundaries, installed from outside.

Nothing under ``src/`` knows about tracing.  ``install`` replaces public
functions and methods of a freshly imported eilab with wrappers that record
one span per call: where a caller imported a name (``from .kernels import
covariance``), the wrapper replaces that name in the calling module; methods
are replaced on their class.  Every round of the benchmark imports eilab
afresh, so the wrappers vanish with the modules they were installed in.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  A span's self time is its duration minus the part of
its interval that its children cover; the self times of all spans plus the
time no top-level span covers add up to the traced round's wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# Layer of a span: the part of its name before the first dot.  The config,
# report and CLI modules form one layer.  The precision layer has no spans of
# its own (its arithmetic runs inside every other layer); it is only counted.
LAYERS = ("kernels", "linalg", "posterior", "ei", "quadrature", "verifier", "cli")
_LAYER_ALIASES = {"config": "cli", "reports": "cli"}


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return _LAYER_ALIASES.get(head, head)


class Tracer:
    """Records spans and counters in memory; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.dps_seen = set()
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, result)`` runs once the span has closed, for counters
        that depend on the call's arguments or result.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def observe(self, fn, after):
        """Return ``fn`` wrapped to call ``after(args, result)``, without a span."""

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return observed


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus its children's union."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(spans, round_start, round_end):
    """Per-name call counts, total and self seconds, per-layer self seconds,
    and the part of the round no top-level span covers."""
    selfs = self_times(spans)
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, parent), self_s in zip(spans, selfs):
        calls[name] += 1
        own[name] += self_s
        layer_self[layer_of(name)] += self_s
        total[name] += end - start
    top = [(start, end) for name, start, end, parent in spans if parent < 0]
    wall = round_end - round_start
    untraced = wall - covered_length(top, round_start, round_end)
    return {
        "calls": calls,
        "total_s": total,
        "self_s": own,
        "layer_self_s": layer_self,
        "untraced_s": untraced,
        "wall_s": wall,
    }


def install(tracer: Tracer):
    """Wrap the layer boundaries of the imported eilab in ``tracer`` spans
    and counters.  The wrappers live in the modules."""
    # Submodules come from import_module: the package attribute ``posterior``
    # is the function of that name, not the module.
    cli, ei, kernels, linalg, posterior, verifier = (
        importlib.import_module(f"eilab.{name}")
        for name in ("cli", "ei", "kernels", "linalg", "posterior", "verifier")
    )
    counts = tracer.counts

    def rebind(owners, attr, name, after=None):
        """Wrap ``attr`` of each module or class in ``owners``."""
        for owner in owners:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    # ei: the run loop, the candidate grid, the EI oracle, single-query EI.
    rebind([cli], "run_trajectory", "ei.score")

    def grid_points(args, result):
        counts["ei.grid.points"] += len(result)

    rebind([ei.CandidateGrid], "points", "ei.grid", grid_points)
    rebind([verifier], "ei_integral_oracle", "ei.oracle")
    rebind([verifier], "expected_improvement", "ei.expected_improvement")

    # posterior: one factorisation per fit, K kernel evaluations per query.
    rebind([posterior.FittedPosterior], "__init__", "posterior.fit")

    def query(args, result):
        counts["posterior.query.kernel_evals"] += args[0].state.size

    rebind([posterior.FittedPosterior], "moments", "posterior.query", query)
    rebind([verifier], "variance_spectral_oracle", "posterior.oracle")

    # linalg: Cholesky factors (and whether their solves ran at raised
    # precision) and Hermitian Gram determinants.
    def factor(args, result):
        self = args[0]
        counts["linalg.factor.max_solve_dps"] = max(counts["linalg.factor.max_solve_dps"], self.solve_dps)
        if self.solve_dps > self.ctx.working_dps:
            counts["linalg.factor.raised"] += 1

    rebind([linalg.CholeskyFactor], "__init__", "linalg.factor", factor)
    rebind([verifier], "gram_det", "linalg.gram_det")

    # kernels and quadrature, at every module that imported them.
    rebind([ei, posterior, verifier], "covariance", "kernels.covariance")
    rebind([posterior], "spectral_density", "kernels.spectral_density")
    rebind([kernels, cli], "legendre_conjugate", "kernels.legendre")
    rebind([ei, kernels, posterior, verifier], "integrate", "quadrature.integrate")

    # precision: count raw contexts requested across layers; the ei binding
    # is reached only by EI evaluations in the raised-precision branch.
    def dps(args, result):
        tracer.dps_seen.add(args[0])

    def raised(args, result):
        counts["ei.raised_evals"] += 1
        dps(args, result)

    ei.raw_context = tracer.observe(ei.raw_context, raised)
    for module in (kernels, linalg, verifier):
        module.raw_context = tracer.observe(module.raw_context, dps)

    # config, reports, cli.
    rebind([cli], "load_config", "config.load")

    def written(args, result):
        counts["reports.bytes"] += sum(path.stat().st_size for path in result.values())

    rebind([cli], "write_outputs", "reports.write", written)
