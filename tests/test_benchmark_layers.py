"""The benchmark tracer (``benchmark/layers.py``, standard library only)
patches modules and methods by name; every name it patches must exist, or
``benchmark/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path


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
