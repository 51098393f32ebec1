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


def test_the_tracer_sees_the_calls_a_cli_verb_makes(tmp_path, capsys):
    # a verb table that held a parser or a layer function as an object would
    # call the unwrapped function, and its spans would drop out of the figures
    from regulus import corpus, formats
    from regulus.cli import main

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    auto, graph = tmp_path / "z7.auto.json", tmp_path / "op.graph.json"
    auto.write_text(formats.dumps(corpus.get("z7-123").payload()))
    graph.write_text(formats.dumps(corpus.get("op-example").payload()))
    assert main(["graph", "simplify", str(graph)]) == 0  # the verb table exists before tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = []
        for argv in (["genus", "language", "--n", "0", str(auto)],
                     ["graph", "simplify", str(graph)]):
            tracer.spans.clear()
            assert main(argv) in (0, 1)
            seen.append({span[0] for span in tracer.spans})
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"automaton_from_json", "language_genus_leq", "search_covers"} <= seen[0]
    assert {"digraph_from_json", "simplify"} <= seen[1]
