"""In-memory spans around calls into ttnmf, recorded from outside the package.

A Tracer replaces module attributes with timing wrappers while it is active
and restores them on exit.  Only names the package looks up at call time can
be wrapped this way (for example `ttnmf.cli.load_matrix_csv`, which the CLI
imported by name).  A name that no longer exists is skipped, so its metric is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field


def _arg_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _train_report(args, kwargs, result):
    return {"report": result[1]}


# span name -> (module, attribute, note).  A note maps (args, kwargs, result)
# of the wrapped call to extra fields of its span.
TARGETS = {
    "fileio.csv_read": ("ttnmf.cli", "load_matrix_csv", _arg_bytes),
    "fileio.csv_write": ("ttnmf.cli", "write_matrix_csv", _arg_bytes),
    "fileio.model_save": ("ttnmf.cli", "save_model", None),
    "fileio.model_load": ("ttnmf.cli", "load_model", None),
    "training.train": ("ttnmf.cli", "train", _train_report),
    "initialization.svd_seed": ("ttnmf.training", "init_factors_svd", None),
    "initialization.lag_weights": ("ttnmf.training", "init_lag_weights", None),
    "training.tune_penalties": ("ttnmf.training", "tune_penalties", None),
    "training.spatial": ("ttnmf.training", "_update_spatial", None),
    "training.latent": ("ttnmf.training", "_update_latent", None),
    "training.ar": ("ttnmf.training", "_update_ar", None),
    "factors.temporal_graph": ("ttnmf.training", "build_temporal_graph", None),
    "estimation.estimate": ("ttnmf.cli", "estimate_od_flows", None),
    "estimation.latent_fit": ("ttnmf.estimation", "estimate_latent", None),
    "estimation.em_refine": ("ttnmf.estimation", "refine_em", None),
}


@dataclass
class Span:
    id: int
    parent: int | None
    round: int
    name: str
    start: float
    end: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the wrapped names while used as a context manager."""

    def __init__(self, modules: dict):
        self.modules = modules      # import name -> module object
        self.spans: list[Span] = []
        self.round = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block; spans opened inside it are its children."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.round, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, original, note):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if note is not None:
                span.extra.update(note(args, kwargs, result))
            return result
        return wrapper

    def __enter__(self):
        for name, (module_name, attr, note) in TARGETS.items():
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, note))
            self.wrapped.add(name)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def round_spans(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.round == index]

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                extra = {k: v for k, v in s.extra.items() if k == "bytes"}
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "round": s.round, "name": s.name,
                                     "start": s.start - t0,
                                     "end": s.end - t0, **extra}) + "\n")

