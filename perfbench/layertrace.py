"""Layer spans and counters for a traced benchmark repetition.

The tracer wraps, from outside the package, the public functions of each
rfcond module at the names under which ``rfcond.experiments``, ``rfcond.cli``
and ``rfcond.targets`` call them. Each such call crosses a layer boundary and
gets one span; calls inside a module are not boundaries and are not wrapped.

numpy factorizations are counted, not spanned: a span around each of the
~60k tiny ``eigvalsh`` calls of the rip workload would add more time than the
calls themselves take.
"""

from __future__ import annotations

import fnmatch
import importlib
import os
import time

# layer -> (modules that define its functions, names to wrap). Names may be
# shell patterns; "Class.method" wraps a method on the class itself.
LAYERS = {
    "sampling": (("rfcond.sampling",), ("gaussian_matrix", "noise_vector")),
    "features": (("rfcond.features",), ("build_features",)),
    "spectral": (("rfcond.spectral",), ("gram_spectrum_via_svd", "singular_values",
                                        "rip_constant_exact", "spectral_density")),
    "solvers": (("rfcond.solvers",), ("least_squares", "min_norm_interpolate", "bpdn")),
    "targets": (("rfcond.targets",), ("evaluate_model", "TargetFunction.evaluate",
                                      "sample_target")),
    "theory": (("rfcond.theory",), ("risk_bound_*", "epsilon_bound", "check_*")),
    "io": (("rfcond.io", "rfcond.svg"), ("write_csv", "write_json", "write_line_chart")),
    "experiments": (("rfcond.experiments",), ("run_*",)),
}
CALLERS = ("rfcond.experiments", "rfcond.cli", "rfcond.targets")


class Tracer:
    """Spans and counters of one process, kept in memory until it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [layer, name, start, end, parent index]
        self._stack: list[int] = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.failed = dict.fromkeys(LAYERS, 0)
        # Factorizations by the innermost open layer; None outside every span.
        self.factorizations = dict.fromkeys([*LAYERS, None], 0)
        self.feature_entries = 0
        self.max_matrix_bytes = 0
        self.io_bytes = 0

    def call(self, layer: str, name: str, fn, args, kwargs):
        span = [layer, name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.calls[layer] += 1
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failed[layer] += 1
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        # Bookkeeping after the span closes, so it is not billed to the layer.
        if layer == "features":
            entries = getattr(result, "entries", result)
            self.feature_entries += entries.size
            self.max_matrix_bytes = max(self.max_matrix_bytes,
                                        entries.size * entries.dtype.itemsize)
        elif layer == "io":
            self.io_bytes += os.path.getsize(args[0] if args else kwargs["path"])
        return result

    def count_factorization(self) -> None:
        self.factorizations[self.spans[self._stack[-1]][0] if self._stack else None] += 1

    def self_seconds(self) -> dict[str, float]:
        """Per layer, the sum over its spans of duration minus the time that
        the span's direct children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for layer, _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total[layer] += (end - start) - covered
        return total

    def summary(self) -> dict:
        self_s = self.self_seconds()
        layers = {layer: {"calls": self.calls[layer], "self_s": self_s[layer],
                          "failed": self.failed[layer],
                          "factorizations": self.factorizations[layer]}
                  for layer in LAYERS}
        return {
            "layers": layers,
            "features.entries": self.feature_entries,
            "features.max_matrix_mb": self.max_matrix_bytes / 1e6,
            "io.bytes": self.io_bytes,
            "factorizations_outside_spans": self.factorizations[None],
            "spans": [{"run_id": self.run_id, "layer": layer, "name": name,
                       "start": start, "end": end, "parent": parent}
                      for layer, name, start, end, parent in self.spans],
        }


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def _counted(tracer: Tracer, fn, is_factorization=None):
    def counted(*args, **kwargs):
        if is_factorization is None or is_factorization(*args, **kwargs):
            tracer.count_factorization()
        return fn(*args, **kwargs)
    return counted


def _is_matrix_two_norm(x, ord=None, *args, **kwargs) -> bool:
    return ord in (2, -2) and getattr(x, "ndim", None) == 2


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed layer function at its call sites and count numpy
    factorizations. Returns the listed names found at no call site."""
    found = set()
    for layer, (modules, patterns) in LAYERS.items():
        for pattern in patterns:
            if "." not in pattern:
                continue
            cls_name, method = pattern.split(".")
            for module in modules:
                cls = getattr(importlib.import_module(module), cls_name, None)
                if cls is not None and method in vars(cls):
                    setattr(cls, method, _wrap(tracer, layer, pattern, vars(cls)[method]))
                    found.add(pattern)
    for caller_name in CALLERS:
        caller = importlib.import_module(caller_name)
        for attr, obj in list(vars(caller).items()):
            module = getattr(obj, "__module__", None)
            if not callable(obj) or isinstance(obj, type) or module == caller_name:
                continue
            for layer, (modules, patterns) in LAYERS.items():
                match = next((p for p in patterns if fnmatch.fnmatchcase(attr, p)), None)
                if module in modules and match is not None:
                    setattr(caller, attr, _wrap(tracer, layer, attr, obj))
                    found.add(match)
    from numpy import linalg

    for attr in ("svd", "lstsq", "eigvalsh"):
        setattr(linalg, attr, _counted(tracer, getattr(linalg, attr)))
    linalg.norm = _counted(tracer, linalg.norm, _is_matrix_two_norm)
    return sorted({p for _, patterns in LAYERS.values() for p in patterns} - found)
