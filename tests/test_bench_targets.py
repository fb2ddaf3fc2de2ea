"""The benchmark's tracer wraps package names that exist.

bench/tracing.py skips a name it cannot find, so a renamed function would
silently drop its per-layer metric from the benchmark's report.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracing_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{span}: {module}.{attr}"
               for span, (module, attr, _) in tracing.TARGETS.items()
               if not hasattr(importlib.import_module(module), attr)]
    assert len(tracing.TARGETS) >= 15
    assert not missing
