"""The benchmark tracer (``benchmark/layers.py``, standard library only)
patches modules and methods by name; every name it patches must exist, or
``benchmark/run.py --trace 1`` fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

#: Names ``REPORTED`` lists that the library no longer has, so the tracer
#: reports no metric for them; the next benchmark change drops them, and so
#: must shrink this set.
STALE_REPORTED = {("grids", "propagation_order"), ("nets", "edge_connection")}


def _layers_module():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_methods_exist():
    layers = _layers_module()
    modules = {name: importlib.import_module(f"isothermic.{name}") for name in layers.LAYERS}
    for layer, cls_name, method in layers.METHODS + layers.COUNTED:
        assert method in vars(getattr(modules[layer], cls_name)), (layer, cls_name, method)


def test_reported_names_exist_except_the_known_stale_ones():
    layers = _layers_module()
    methods = {(layer, f"{cls_name}.{method}") for layer, cls_name, method in layers.METHODS}
    for layer, name in layers.REPORTED:
        module = importlib.import_module(f"isothermic.{layer}")
        fn = vars(module).get(name)
        timed = inspect.isfunction(fn) and fn.__module__ == module.__name__
        assert (timed or (layer, name) in methods) != ((layer, name) in STALE_REPORTED), name
    assert STALE_REPORTED <= set(layers.REPORTED)
