import importlib
import importlib.util
import os


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
