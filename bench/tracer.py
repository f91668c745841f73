"""In-memory layer spans around kreinsl's public functions.

`Tracer.install` replaces each function in LAYERS by a wrapper at every
module binding: `validation` binds `build_accelerant` at import time,
while `cli` imports its layers inside the handlers, so the wrapper has to
sit both in the defining module and in every module that copied the
name.  Each call records a span (name, start, end, parent span, a few
exact counts and, when measuring memory, the traced peak of Python and
numpy allocations inside it above the level at entry), kept in memory
until the runner writes them out.

tracemalloc slows every allocation, which in this package's Python loops
inflates layer times by tens of percent, so a tracer either times spans or
measures their peaks, never both.
"""

import functools
import importlib
import os
import sys
import time
import tracemalloc

# (module, function) pairs whose calls become spans; the span name is
# "<module>.<function>" without the package prefix.
LAYERS = [
    ("cli", "main"),
    ("synthetic", "fourier_tau"),
    ("core", "load_matrix_grid"),
    ("core", "load_spectral_data"),
    ("core", "save_matrix_grid"),
    ("core", "save_spectral_data"),
    ("direct", "find_eigenvalues"),
    ("direct", "norming_constants"),
    ("direct", "propagate"),
    ("accelerant", "build_accelerant"),
    ("accelerant", "build_heo"),
    ("krein", "solve_krein"),
    ("krein", "krein_residual"),
    ("miura", "miura"),
    ("validation", "check_a1"),
    ("validation", "check_a3_a4"),
    ("validation", "completeness_matrices"),
]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts(name: str, args, result) -> dict:
    """Exact work counts read off a layer call's arguments and result."""
    if name.startswith("core.load_"):
        return {"bytes_read": _file_size(args[0])}
    if name.startswith("core.save_"):
        return {"bytes_written": _file_size(args[1])}
    if name == "direct.find_eigenvalues":
        return {"eigen_entries": len(result),
                "rank_total": sum(basis.shape[1] for _, basis in result[1:])}
    return {}


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans = []
        self._stack = []  # open spans: [span, peak seen in closed windows]
        self._originals = []

    def install(self) -> None:
        if self.memory:
            tracemalloc.start()
        for mod, func in LAYERS:
            module = importlib.import_module(f"kreinsl.{mod}")
            original = getattr(module, func)
            wrapper = self._wrap(f"{mod}.{func}", original)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "kreinsl" or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._originals.append((loaded, attr, original))
        missed = [f"{n}.{a}" for n, mod in sys.modules.items()
                  if n.split(".")[0] == "kreinsl" and mod is not None
                  for a, v in vars(mod).items()
                  if any(v is orig for _, _, orig in self._originals)]
        if missed:
            raise RuntimeError(f"unwrapped layer bindings: {missed}")

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        if self.memory:
            tracemalloc.stop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1][0]["id"] if self._stack else None}
            self.spans.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)
                tracemalloc.reset_peak()
                span["mem0"] = current
            self._stack.append([span, span.get("mem0", 0)])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                frame = self._stack.pop()
                if self.memory:
                    peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                    span["peak_b"] = peak - span.pop("mem0")
                    if self._stack:
                        self._stack[-1][1] = max(self._stack[-1][1], peak)
                    tracemalloc.reset_peak()
            span.update(_counts(name, args, result))
            return result
        return wrapper
