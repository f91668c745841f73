import importlib
import importlib.util
import os

import numpy as np


def test_every_traced_layer_exists():
    # bench/tracer.py wraps each (module, function) of LAYERS by name; a
    # name deleted from the package would fail every traced operation
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [f"{mod}.{func}" for mod, func in tracer.LAYERS
               if not callable(getattr(importlib.import_module(f"kreinsl.{mod}"),
                                       func, None))]
    assert missing == []


def test_residual_scored_once_per_row_block(monkeypatch):
    # the per-layer split reads the residual's time off the
    # krein.krein_residual span, so solve_krein scores its rows through
    # that module binding: once per block of 64 rows, 385 / 64 -> 7 calls
    from kreinsl import krein
    from kreinsl.core import GridSpec, MatrixGrid

    starts = []
    score = krein.krein_residual

    def spy(*args):
        starts.append(args[1])
        return score(*args)

    monkeypatch.setattr(krein, "krein_residual", spy)
    m = 384
    H = MatrixGrid(2, GridSpec(m), np.tile(0.3 * np.eye(2), (m + 1, 1, 1)),
                   hermitian=True)
    krein.solve_krein(H)
    assert starts == [0, 64, 128, 192, 256, 320, 384]
