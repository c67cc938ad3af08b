"""The benchmark's span tracer still finds every eilab name it wraps.

``perfbench/tracing.install`` looks up functions, methods and imported
names as module attributes of eilab; a refactor that renames or drops one
of them breaks ``perfbench/run.py --trace 1``.  The install runs in a
subprocess so that its wrappers do not leak into the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_sources():
    code = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import eilab, tracing\n"
        f"assert eilab.__file__.startswith({str(ROOT / 'src')!r}), eilab.__file__\n"
        "tracing.install(tracing.Tracer())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
