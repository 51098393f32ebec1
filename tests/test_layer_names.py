"""The benchmark's tracer (perfbench/tracing.py) wraps the functions named in
its LAYERS table by name, at the module of each layer.  A function renamed or
moved out of its layer would silently drop out of the traced figures, so each
name must still be defined in `regulus.<layer>`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_is_defined_in_its_layer():
    layers = traced_layers()
    assert {"relations", "digraph", "genus", "emulation"} <= set(layers)
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"regulus.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn) or fn.__module__ != module.__name__:
                missing.append(f"regulus.{layer}.{name}")
    assert missing == []
