import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import (
    GraphMorphism,
    RegulusError,
    SemiMorphism,
    UndirectedGraph,
    UndirectedMorphism,
    formats,
    validate_undirected_morphism,
)
from regulus.cli import main
from regulus.corpus import ENTRIES, get, path_4_over_3, z6_automaton, z7_123_automaton
from regulus.digraph import ValidationReport

from conftest import c2, c4, loop2, par2


def semi_morphism_from_json(data: dict) -> SemiMorphism:
    """Read back a semi-automaton morphism as formats.semi_morphism_to_json writes it."""
    source = formats.semi_from_json(data["source"])
    target = formats.semi_from_json(data["target"])
    base = GraphMorphism(source.graph, target.graph, data["p"], data["q"])
    return SemiMorphism(source, target, base, data["alpha"])


def run_cli(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "regulus.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestRoundTrips:
    def test_digraph(self):
        g = c4()
        assert formats.digraph_from_json(formats.digraph_to_json(g)) == g

    def test_undirected(self):
        from regulus import forget

        u = forget(loop2())
        assert formats.undirected_from_json(formats.undirected_to_json(u)) == u

    def test_automaton(self):
        a = z6_automaton()
        assert formats.automaton_from_json(formats.automaton_to_json(a)) == a

    def test_semi_morphism(self):
        from regulus import minimize
        from regulus.corpus import z6_unrolled12

        _, pi = minimize(z6_unrolled12())
        data = formats.loads(formats.dumps(formats.semi_morphism_to_json(pi)))
        back = semi_morphism_from_json(data)
        assert back.base == pi.base and back.alpha == pi.alpha

    def test_relation(self):
        from regulus import AutomaticRelation

        r = AutomaticRelation.from_classes([["a", "c"], ["b", "d"]], [["e1", "e3"], ["e2", "e4"]])
        assert formats.relation_from_json(formats.relation_to_json(r)) == r

    def test_rotation(self):
        from regulus import RotationSystem, genus_exact

        res = genus_exact(par2())
        data = formats.loads(formats.dumps(formats.rotation_to_json(res.witness)))
        assert RotationSystem(data) == res.witness

    def test_corpus_files_parse_ignoring_description(self):
        for name, entry in ENTRIES.items():
            payload = formats.loads(formats.dumps(entry.payload()))
            assert "description" in payload
            if entry.kind == "auto":
                assert formats.automaton_from_json(payload) == entry.build()
            elif entry.kind == "graph":
                assert formats.digraph_from_json(payload) == entry.build()
            elif entry.kind == "mor":
                back = formats.morphism_from_json(payload)
                built = entry.build()
                assert back.p == built.p and back.q == built.q
            elif entry.kind == "umor":
                back = formats.undirected_morphism_from_json(payload)
                built = entry.build()
                assert back.p == built.p and back.q == built.q

    def test_corpus_emission_deterministic(self, tmp_path):
        entry = get("z6")
        a = formats.dumps(entry.payload())
        b = formats.dumps(entry.payload())
        assert a == b


PARSERS = [getattr(formats, name) for name in dir(formats) if name.endswith("_from_json")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _strings_in(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [s for k, v in value.items() for s in (k, *_strings_in(v))]
    if isinstance(value, list):
        return [s for v in value for s in _strings_in(v)]
    return []


def _mutate(data, payload: dict) -> None:
    """Replace, drop or append one value at a random depth of payload."""
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (dict, list))]
        if not inner or data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    # values include the payload's own ids, so mutations can also alias them
    values = JSON_VALUES | st.sampled_from(_strings_in(payload) or [""])
    op = data.draw(st.sampled_from(["replace", "drop", "append"]))
    if op != "append" and keys:
        key = data.draw(st.sampled_from(keys))
        if op == "drop":
            del node[key]
        else:
            node[key] = data.draw(values)
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=8))] = data.draw(values)
    else:
        node.append(data.draw(values))


def _fuzz_seeds() -> dict[str, dict]:
    """The corpus payloads plus one relation, rotation and certificate."""
    from regulus import AutomaticRelation, genus_exact

    graph = formats.digraph_to_json(c2())
    seeds = {name: entry.payload() for name, entry in ENTRIES.items()}
    seeds["relation"] = formats.relation_to_json(
        AutomaticRelation.from_classes([["a", "c"], ["b", "d"]], [["e1", "e3"], ["e2", "e4"]])
    )
    seeds["rotation"] = formats.rotation_to_json(genus_exact(par2()).witness)
    seeds["certificate"] = {
        "base": graph, "total": graph, "genus": 0,
        "p": {"a": "a", "b": "b"}, "q": {"e1": "e1", "e2": "e2"},
        "rotation": {"a": ["e1+", "e2+"], "b": ["e1-", "e2-"]},
    }
    return seeds


FUZZ_SEEDS = _fuzz_seeds()


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_SEEDS)), st.integers(1, 3), st.data())
    def test_mutated_payloads_raise_only_regulus_errors(self, name, count, data):
        payload = json.loads(json.dumps(FUZZ_SEEDS[name]))
        for _ in range(count):
            _mutate(data, payload)
        for parse in PARSERS:
            try:
                parse(json.loads(json.dumps(payload)))
            except RegulusError:
                pass


# each fuzz seed kind a verb reads: the command, with FILE for the seed and
# G for a valid graph, and the parser the verb reads FILE with.  No verb
# reads a rotation system on its own.
CLI_READERS = {
    "graph": (["graph", "excise", "FILE"], formats.digraph_from_json),
    "auto": (["auto", "complete", "FILE"], formats.automaton_from_json),
    "mor": (["emu", "extract", "FILE"], formats.morphism_from_json),
    "umor": (["emu", "lift", "FILE", "G"], formats.undirected_morphism_from_json),
    "relation": (["rel", "check", "G", "FILE"], formats.relation_from_json),
    "certificate": (["emu", "verify-cert", "FILE"], formats.certificate_from_json),
}


def _seed_kind(name: str) -> str:
    return ENTRIES[name].kind if name in ENTRIES else name


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(n for n in FUZZ_SEEDS if _seed_kind(n) in CLI_READERS)),
           st.integers(1, 3), st.data())
    def test_rejected_payloads_exit_3_and_print_nothing(self, name, count, data):
        payload = json.loads(json.dumps(FUZZ_SEEDS[name]))
        for _ in range(count):
            _mutate(data, payload)
        command, parse = CLI_READERS[_seed_kind(name)]
        try:
            parse(json.loads(json.dumps(payload)))
            return
        except RegulusError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            files = {"FILE": Path(tmp, "in.json"), "G": Path(tmp, "g.json")}
            files["FILE"].write_text(json.dumps(payload))
            files["G"].write_text(formats.dumps(formats.digraph_to_json(c2())))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(files[w]) if w in files else w for w in command])
        assert code == 3, (command, payload, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


class TestCliVerbs:
    def test_emit_base_accepts_an_incomplete_dfa(self, tmp_path):
        # the emitted base is the one a certificate is checked against: that
        # of the trash-completed accessible part, not of the raw automaton
        from regulus import Automaton, DiGraph, SemiAutomaton

        g = DiGraph(["0", "1"], [("x", "0", "1"), ("y", "1", "0"), ("z", "1", "1")])
        a = Automaton(SemiAutomaton(g, {"a", "b"}, {"x": "a", "y": "a", "z": "b"}), {"0"}, {"0"})
        f, base, cert, out = (str(tmp_path / n) for n in ("f.json", "b.json", "c.json", "r.json"))
        Path(f).write_text(formats.dumps(formats.automaton_to_json(a)))
        assert main(["genus", "language", "--n", "0", f, "--emit-base", base, "-o", out]) == 0
        assert main(["emu", "search", base, "--max-fiber", "1", "-o", cert]) == 0
        assert main(["genus", "language", "--n", "0", f, "--certificate", cert, "-o", out]) == 0
        assert json.loads(Path(out).read_text())["status"] == "yes"

    def test_witness_genus_is_the_certificate_genus(self, tmp_path, capsys):
        # a rotation of genus 1 on a planar cover proves genus <= 1: the
        # answer reports that proven bound, which bounds the witness's genus
        from itertools import permutations, product

        from regulus import (
            Automaton, DiGraph, RotationSystem, SemiAutomaton, forget, genus_exact, trace_faces,
        )

        # letter a adds 1 and b adds 2 mod 3: the base is a doubled triangle
        edges = [(f"{x}{i}", str(i), str((i + k) % 3))
                 for i in range(3) for x, k in (("a", 1), ("b", 2))]
        labels = {e: e[0] for e, _, _ in edges}
        semi = SemiAutomaton(DiGraph(["0", "1", "2"], edges), {"a", "b"}, labels)
        f, base, cert, out = (str(tmp_path / n) for n in ("f.json", "b.json", "c.json", "r.json"))
        Path(f).write_text(formats.dumps(formats.automaton_to_json(Automaton(semi, {"0"}, {"0"}))))
        args = ["genus", "language", "--n", "1", "--max-fiber", "1", f]
        assert main([*args, "--emit-base", base, "-o", out]) == 0
        assert main(["emu", "search", base, "--max-fiber", "1", "-o", cert]) == 0
        data = json.loads(Path(cert).read_text())
        assert data["genus"] == 0
        total = forget(formats.digraph_from_json(data["total"]))
        cyclic_orders = [[(ts[0], *rest) for rest in permutations(ts[1:])]
                         for ts in data["rotation"].values()]
        rotations = (dict(zip(data["rotation"], c)) for c in product(*cyclic_orders))
        data["rotation"] = next(
            r for r in rotations if trace_faces(total, RotationSystem(r))[1] == 1
        )
        data["genus"] = 1
        Path(cert).write_text(json.dumps(data))
        capsys.readouterr()
        assert main([*args, "--certificate", cert]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["witness_genus"]) == ("yes", 1)
        assert genus_exact(formats.automaton_from_json(payload["witness"]).graph).genus == 0

    def test_invariance_of_an_undirected_graph_is_input_error(self, tmp_path, capsys):
        from regulus import forget

        u = tmp_path / "u.json"
        u.write_text(formats.dumps(formats.undirected_to_json(forget(c2()))))
        assert main(["genus", "invariance", str(u)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: genus invariance needs a directed graph\n"

    def test_graph_pipeline(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(par2())))
        out = tmp_path / "simple.json"
        assert main(["graph", "simplify", str(g), "-o", str(out)]) == 0
        simple = formats.digraph_from_json(formats.loads(out.read_text()))
        assert len(simple.edges) == 1

    def test_dot_export(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        dot = tmp_path / "g.dot"
        assert main(["graph", "op", str(g), "-o", str(tmp_path / "o.json"), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert "digraph" in text and "->" in text

    def test_accept_exit_codes(self, tmp_path):
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        assert main(["auto", "accept", str(a), "1 2 3", "-o", str(tmp_path / "r.json")]) == 0
        assert main(["auto", "accept", str(a), "1", "-o", str(tmp_path / "r.json")]) == 1

    def test_minimize_writes_morphism(self, tmp_path):
        from regulus.corpus import z6_unrolled12

        a = tmp_path / "u.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_unrolled12())))
        out = tmp_path / "min.json"
        mor = tmp_path / "pi.json"
        assert main(["auto", "minimize", str(a), "-o", str(out), "--morphism-out", str(mor)]) == 0
        amin = formats.automaton_from_json(formats.loads(out.read_text()))
        assert len(amin.graph.vertices) == 6
        pi = semi_morphism_from_json(formats.loads(mor.read_text()))
        assert set(pi.base.p.values()) == set(amin.graph.vertices)

    def test_rel_check_exit_codes(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"vertex_classes": [["a", "b"]], "edge_classes": [["e1", "e2"]]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertex_classes": [["a", "b"]], "edge_classes": [["e1"], ["e2"]]}))
        assert main(["rel", "check", str(g), str(good), "-o", str(tmp_path / "r.json")]) == 0
        assert main(["rel", "check", str(g), str(bad), "-o", str(tmp_path / "r.json")]) == 1

    def test_rel_check_refuses_an_empty_class(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        r = tmp_path / "r.json"
        r.write_text(json.dumps({"vertex_classes": [["a", "b"], []],
                                 "edge_classes": [["e1", "e2"]]}))
        assert main(["rel", "check", str(g), str(r)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: classes must be non-empty\n"

    def test_genus_verbs(self, tmp_path):
        g = tmp_path / "k5.json"
        from conftest import k_complete

        g.write_text(formats.dumps(formats.undirected_to_json(k_complete(5))))
        out = tmp_path / "out.json"
        assert main(["genus", "exact", str(g), "-o", str(out)]) == 0
        data = formats.loads(out.read_text())
        assert data["genus"] == 1
        assert main(["genus", "planar", str(g), "-o", str(out)]) == 1
        assert main(["genus", "lower-bound", str(g), "-o", str(out)]) == 0
        assert formats.loads(out.read_text())["lower_bound"] == 1
        assert main(["genus", "formula", "--m", "3", "--face", "3=14", "-o", str(out)]) == 0
        assert formats.loads(out.read_text())["value"] == "1"

    def test_planar_verb_prints_obstruction(self, tmp_path, capsys):
        import networkx as nx
        from conftest import k_complete

        k5 = k_complete(5)
        g = tmp_path / "k5.json"
        g.write_text(formats.dumps(formats.undirected_to_json(k5)))
        assert main(["genus", "planar", str(g)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["planar"] is False
        obstruction = payload["obstruction"]
        assert not nx.check_planarity(nx.Graph(k5.ends(e) for e in obstruction))[0]

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["graph", "excise", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "o.json")]) == 3

    def test_malformed_json_is_input_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert main(["graph", "excise", str(f), "-o", str(tmp_path / "o.json")]) == 3

    def test_wrong_shapes_are_input_errors(self, tmp_path):
        out = str(tmp_path / "o.json")
        cases = [
            {"vertices": ["a"], "edges": {"id": "e"}},
            {"vertices": ["a"], "edges": ["e"]},
            {"vertices": ["a"]},
            {"edges": []},
        ]
        for i, payload in enumerate(cases):
            f = tmp_path / f"bad{i}.json"
            f.write_text(json.dumps(payload))
            assert main(["graph", "excise", str(f), "-o", out]) == 3
        m = tmp_path / "badmor.json"
        m.write_text(json.dumps({"source": [], "target": [], "p": {}, "q": {}}))
        assert main(["emu", "check", str(m), "-o", out]) == 3

    def test_non_string_ids_are_input_errors(self, tmp_path, capsys):
        # vertex lists and relation classes must be lists of strings: no
        # traceback and exit 1, and no string split into one-letter ids
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        r = tmp_path / "r.json"
        r.write_text(json.dumps({"vertex_classes": [["a", 1]], "edge_classes": [["e1", "e2"]]}))
        cases = [["rel", "check", str(g), str(r)]]
        for i, vertices in enumerate([None, "ab", ["a", 2]]):
            f = tmp_path / f"v{i}.json"
            f.write_text(json.dumps({"vertices": vertices, "edges": []}))
            cases.append(["graph", "simplify", str(f)])
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"vertices": "ab", "edges": [{"id": "e", "ends": ["a", "b"]}]}))
        cases.append(["genus", "planar", str(u)])
        for args in cases:
            assert main([*args, "-o", str(tmp_path / "o.json")]) == 3, args
            assert capsys.readouterr().err.startswith("error: "), args

    def test_malformed_maps_lists_and_rotations_are_input_errors(self, tmp_path, capsys):
        # a list where a string belongs, or a string where a list belongs:
        # exit 3 with an error line naming the key, never a traceback and
        # exit 1, and no string split into one-letter items
        auto = formats.automaton_to_json(z6_automaton())
        graph = formats.digraph_to_json(c2())
        identity = {"p": {"a": "a", "b": "b"}, "q": {"e1": "e1", "e2": "e2"}}
        rotation = {"a": ["e1+", "e2+"], "b": ["e1-", "e2-"]}
        cases = [
            ("auto", "minimize", {**auto, "edges": [{**auto["edges"][0], "label": ["0"]},
                                                    *auto["edges"][1:]]}, "label"),
            ("auto", "minimize", {**auto, "alphabet": "012345"}, "alphabet"),
            ("auto", "minimize", {**auto, "initials": auto["initials"][0]}, "initials"),
            ("auto", "minimize", {**auto, "finals": auto["finals"][0]}, "finals"),
            ("emu", "check", {"source": graph, "target": graph, **identity,
                              "p": {"a": ["a"], "b": "b"}}, "p"),
            ("emu", "check", {"source": graph, "target": graph, **identity,
                              "q": {"e1": "e1", "e2": 2}}, "q"),
        ]
        cert = {"base": graph, "total": graph, **identity, "genus": 0}
        for bad in ({**rotation, "a": [["e1+"], "e2+"]}, {**rotation, "a": "e1+e2+"}):
            cases.append(("emu", "verify-cert", {**cert, "rotation": bad}, "rotation"))
        for i, (group, verb, payload, key) in enumerate(cases):
            f = tmp_path / f"in{i}.json"
            f.write_text(json.dumps(payload))
            assert main([group, verb, str(f), "-o", str(tmp_path / "o.json")]) == 3, key
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(key) in err, (key, err)
        good = tmp_path / "cert.json"
        good.write_text(json.dumps({**cert, "rotation": rotation}))
        assert main(["emu", "verify-cert", str(good), "-o", str(tmp_path / "o.json")]) == 0

    def test_undirected_morphism_out_of_an_edgeless_graph(self, tmp_path, capsys):
        # an "ends" edge in the target alone marks the file undirected; read
        # as directed, the loop used to be a missing "src" key and exit 3
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "source": {"vertices": ["a"], "edges": []},
            "target": {"vertices": ["x"], "edges": [{"id": "f", "ends": ["x"]}]},
            "p": {"a": "x"},
            "q": {},
        }))
        for verb in ("check", "check-cover"):
            assert main(["emu", verb, str(f)]) == 1
            assert json.loads(capsys.readouterr().out) == {
                "ok": False, "directed": False, "reason": "not an epimorphism", "witness": []
            }

    def test_undirected_vertex_image_outside_target_is_an_input_error(self, tmp_path, capsys):
        # the isolated vertex "iso" goes to no vertex of the target: exit 3
        # like its directed twin, not a "not an epimorphism" verdict
        m = path_4_over_3()
        source = UndirectedGraph([*m.source.vertices, "iso"], m.source.edges.items())
        bad = UndirectedMorphism(source, m.target, {**m.p, "iso": "zzz"}, m.q)
        assert validate_undirected_morphism(bad) == ValidationReport(
            False, "vertex image outside target", ("iso", "zzz")
        )
        f = tmp_path / "m.json"
        f.write_text(formats.dumps(formats.morphism_to_json(bad)))
        for verb in ("check", "check-cover"):
            assert main(["emu", verb, str(f)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), (out, err)

    def test_undirected_map_missing_a_vertex_names_it(self, tmp_path, capsys):
        m = path_4_over_3()
        source = UndirectedGraph([*m.source.vertices, "iso"], m.source.edges.items())
        f = tmp_path / "m.json"
        f.write_text(formats.dumps(formats.morphism_to_json(
            UndirectedMorphism(source, m.target, m.p, m.q)
        )))
        for verb in ("check", "check-cover"):
            assert main(["emu", verb, str(f)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "missing vertices ['iso'] edges []" in err, (out, err)

    def test_maps_naming_ids_outside_the_source_are_input_errors(self, tmp_path, capsys):
        # an extra edge id used to crash with a KeyError (exit 4), and an
        # extra vertex id came back as the witness of a verdict (exit 1)
        loop = {"vertices": ["x"], "edges": [{"id": "f", "src": "x", "dst": "x"}]}
        arc = {"id": "e", "src": "a", "dst": "b"}
        cases = [
            ({"source": {"vertices": ["a", "b"], "edges": [arc]}, "target": loop,
              "p": {"a": "x", "b": "x"}, "q": {"e": "f", "zz": "f"}}, "edges ['zz']"),
            ({"source": {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"]}]},
              "target": {"vertices": ["x"], "edges": [{"id": "f", "ends": ["x"]}]},
              "p": {"a": "x", "b": "x"}, "q": {"e": "f", "zz": "f"}}, "edges ['zz']"),
            ({"source": {"vertices": ["a", "b"],
                         "edges": [arc, {"id": "g", "src": "b", "dst": "a"}]}, "target": loop,
              "p": {"a": "x", "b": "x", "ghost": "x"}, "q": {"e": "f", "g": "f"}},
             "vertices ['ghost']"),
        ]
        for i, (payload, named) in enumerate(cases):
            f = tmp_path / f"m{i}.json"
            f.write_text(json.dumps(payload))
            verbs = [("emu", "check"), ("emu", "check-cover")]
            if i != 1:  # the directed maps
                verbs += [("emu", "extract"), ("rel", "canonical"), ("rel", "factorize")]
            for verb in verbs:
                assert main([*verb, str(f)]) == 3, (i, verb)
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: ") and named in err, (verb, out, err)

    def test_pullback_refuses_maps_that_are_not_morphisms(self, tmp_path, capsys):
        # swapped ends used to print a "fibre product" (exit 0), and a missing
        # vertex crashed with a KeyError (exit 4)
        source = {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]}
        target = {"vertices": ["x", "y"], "edges": [{"id": "f", "src": "x", "dst": "y"}]}
        cases = [({"a": "x", "b": "y"}, 0, ""), ({"a": "y", "b": "x"}, 3, "endpoint mismatch"),
                 ({"a": "x"}, 3, "missing vertices ['b']")]
        for p, code, named in cases:
            f = tmp_path / "m.json"
            f.write_text(json.dumps({"source": source, "target": target, "p": p, "q": {"e": "f"}}))
            assert main(["graph", "pullback", str(f), str(f)]) == code, p
            out, err = capsys.readouterr()
            assert bool(out) == (code == 0) and named in err, (p, out, err)

    def test_repeated_calls_keep_append_options_apart(self, tmp_path):
        # main reuses one parser; an appended --final must not reach the next call
        semi = tmp_path / "loops.json"
        semi.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "alphabet": ["x"],
            "edges": [{"id": f"l{v}", "src": v, "dst": v, "label": "x"} for v in "abc"],
        }))
        out = tmp_path / "r.json"
        for final, classes in (("a", [["a"], ["b", "c"]]), ("b", [["a", "c"], ["b"]])):
            assert main(["rel", "mn", str(semi), "--final", final, "-o", str(out)]) == 0
            assert formats.loads(out.read_text())["vertex_classes"] == classes

    def test_relation_on_other_ids_names_the_mismatch(self, tmp_path, capsys):
        # the graph is the 6-state minimal automaton's, the Myhill-Nerode
        # relation is on the 12-state automaton: each file's classes
        # partition their own ids, so the fault is the mismatch between them
        assert main(["corpus", "emit", "z6-unrolled12", "--out-dir", str(tmp_path)]) == 0
        auto = capsys.readouterr().out.strip()
        g, mx, mn = (str(tmp_path / n) for n in ("g.json", "max.json", "mn.json"))
        finals = ",".join(formats.loads(Path(auto).read_text())["finals"])
        assert main(["auto", "graph", auto, "-o", g]) == 0
        assert len(formats.loads(Path(g).read_text())["vertices"]) == 6
        assert main(["rel", "max", g, "-o", mx]) == 0
        assert main(["rel", "mn", auto, "--final", finals, "-o", mn]) == 0
        capsys.readouterr()
        assert main(["rel", "join", g, mx, mn]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "relation and graph have different vertex or edge ids" in err, err

    def test_infinite_budget_is_input_error(self, tmp_path, monkeypatch, capsys):
        from conftest import k_complete

        g = tmp_path / "k5.json"
        g.write_text(formats.dumps(formats.undirected_to_json(k_complete(5))))
        for budget in ("inf", "-5"):
            monkeypatch.setenv("REGULUS_BUDGET", budget)
            assert main(["genus", "exact", str(g)]) == 3, budget
            assert capsys.readouterr().err.startswith("error: REGULUS_BUDGET"), budget

    def test_nan_time_budget_is_input_error(self, tmp_path, capsys):
        # NaN compares false with every deadline, so it would never stop a search
        g = tmp_path / "c2.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        a = tmp_path / "z7.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z7_123_automaton())))
        for args in (["emu", "search", str(g)], ["genus", "language", "--n", "0", str(a)]):
            assert main([*args, "--time-budget", "nan"]) == 3, args
            assert capsys.readouterr().err.startswith("error: time budget"), args

    def test_negative_sample_length_is_input_error(self, tmp_path, capsys):
        # no word has a negative length, so there is no sample to print
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        assert main(["auto", "sample", str(a), "--max-length", "-3"]) == 3
        assert capsys.readouterr().err.startswith("error: max_length")
        assert main(["auto", "sample", str(a), "--max-length", "0"]) == 0

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        # a missing directory or a regular file on the way is the user's
        # input, not a bug: exit 3 and no traceback
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        g = tmp_path / "c2.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        ok, missing = str(tmp_path / "ok.json"), tmp_path / "missing"
        regular = tmp_path / "regular"
        regular.write_text("")
        cases = [
            ["auto", "minimize", str(a), "-o", str(missing / "out.json")],
            ["graph", "op", str(g), "-o", ok, "--dot", str(missing / "g.dot")],
            ["auto", "minimize", str(a), "-o", ok, "--morphism-out", str(missing / "pi.json")],
            ["genus", "language", "--n", "0", "--max-fiber", "1", str(a),
             "--emit-base", str(missing / "base.json")],
            ["corpus", "emit", "z6", "--out-dir", str(regular / "sub")],
        ]
        for args in cases:
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write"), (args, err)

    def test_search_stats_are_added_only_when_asked(self, tmp_path, capsys):
        from regulus import CoverSearchSpec, search_covers

        g = tmp_path / "c2.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        assert main(["emu", "search", str(g)]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["emu", "search", str(g), "--stats"]) == 0
        counted = json.loads(capsys.readouterr().out)
        stats = counted.pop("stats")
        assert counted == plain and "stats" not in plain
        assert stats == dataclasses.asdict(search_covers(CoverSearchSpec(c2())).stats)
        assert stats["planarity_tests"] == 1 and stats["candidates"] >= 1
        # a refusal carries its counts too
        z7 = tmp_path / "z7.json"
        z7.write_text(formats.dumps(formats.automaton_to_json(z7_123_automaton())))
        base = tmp_path / "base.json"
        main(["genus", "language", "--n", "0", str(z7), "--emit-base", str(base), "-o", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert main(["emu", "search", str(base), "--max-fiber", "1", "--stats"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "exhausted" and out["stats"]["fibre_vectors"] == 0

    def test_negative_genus_bound_with_certificate_is_input_error(self, tmp_path, capsys):
        # a supplied certificate does not bypass the check of the bounds
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        base, cert = str(tmp_path / "base.json"), str(tmp_path / "cert.json")
        args = ["genus", "language", "--max-fiber", "1", str(a)]
        assert main([*args, "--n", "1", "--emit-base", base, "-o", str(tmp_path / "r.json")]) == 0
        assert main(["emu", "search", base, "--max-fiber", "1", "--genus", "1", "-o", cert]) == 0
        assert main([*args, "--n", "1", "--certificate", cert]) == 0
        capsys.readouterr()
        assert main([*args, "--n", "-1", "--certificate", cert]) == 3
        assert "argument --n: must be an integer >= 0" in capsys.readouterr().err

    def test_malformed_ends_are_input_errors(self, tmp_path, capsys):
        # "ends" must be a list of one or two strings: no traceback, and no
        # string split into one-letter ends
        for i, ends in enumerate([5, "ab", [], ["a", "b", "a"], ["a", 1]]):
            f = tmp_path / f"u{i}.json"
            f.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ends}]}))
            assert main(["genus", "planar", str(f)]) == 3, ends
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "'ends'" in err, (ends, err)

    def test_boolean_certificate_genus_is_input_error(self, tmp_path, capsys):
        # JSON true is not the genus 1
        graph = formats.digraph_to_json(c2())
        f = tmp_path / "cert.json"
        f.write_text(json.dumps({
            "base": graph, "total": graph, "genus": True,
            "p": {"a": "a", "b": "b"}, "q": {"e1": "e1", "e2": "e2"},
            "rotation": {"a": ["e1+", "e2+"], "b": ["e1-", "e2-"]},
        }))
        assert main(["emu", "verify-cert", str(f)]) == 3
        assert capsys.readouterr().err.startswith("error: certificate genus")

    def test_usage_and_option_errors_exit_3_and_help_exits_0(self, capsys):
        assert main(["genus", "language"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err, err
        assert main(["genus", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")
        assert main(["genus", "formula", "--m", "3", "--face", "3=2", "--face", "3=x"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --face") and err.endswith("got '3=x'\n"), err

    def test_a_repeated_face_length_exits_3(self, capsys):
        # a later pair used to replace an earlier one: the value for 4 triangles
        assert main(["genus", "formula", "--m", "3", "--face", "3=2", "--face", "3=4"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --face repeats the key 3 in '3=4'\n"
        assert captured.out == ""

    def test_a_repeated_map_key_exits_3(self, tmp_path, capsys):
        a = tmp_path / "z7.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z7_123_automaton())))
        maps = ["--map", "1=x", "--map", "2=y", "--map", "3=z"]
        assert main(["sa", "relabel", str(a), *maps, "-o", str(tmp_path / "r.json")]) == 0
        assert main(["sa", "relabel", str(a), *maps, "--map", "1=y"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --map repeats the key '1' in '1=y'\n"
        assert captured.out == ""

    def test_bound_option_errors_name_the_option(self, tmp_path, capsys):
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        cases = [
            (["genus", "language", str(a), "--n", "-1"], "--n", 0),
            (["genus", "language", str(a), "--n", "1.5"], "--n", 0),
            (["genus", "language", str(a), "--n", "0", "--max-fiber", "0"], "--max-fiber", 1),
            (["emu", "search", str(a), "--genus", "-1"], "--genus", 0),
            (["emu", "search", str(a), "--max-fiber", "0"], "--max-fiber", 1),
        ]
        for args, option, low in cases:
            assert main(args) == 3, args
            captured = capsys.readouterr()
            assert f"error: argument {option}: must be an integer >= {low}" in captured.err, args
            assert captured.out == ""

    def test_options_are_offered_only_where_they_act(self, tmp_path, capsys):
        # --dot on a verb without a DOT rendering, --morphism-out on a verb
        # without a morphism, and --stats on any verb but the cover search
        # are usage errors before any output
        g = tmp_path / "g.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        a = tmp_path / "z6.json"
        a.write_text(formats.dumps(formats.automaton_to_json(z6_automaton())))
        for args in (["graph", "reach", str(g), "--dot", str(tmp_path / "r.dot")],
                     ["graph", "excise", str(g), "--morphism-out", str(tmp_path / "m.json")],
                     ["genus", "language", "--n", "0", str(a), "--stats"],
                     ["genus", "exact", str(g), "--stats"],
                     ["emu", "check-cover", str(g), "--stats"]):
            assert main(args) == 3, args
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments" in captured.err, args
        assert not list(tmp_path.glob("[rm].*"))

    def test_internal_error_exits_4_with_traceback(self, tmp_path, monkeypatch, capsys):
        import regulus.cli

        def broken(*args, **kwargs):
            raise RuntimeError("planted")

        g = tmp_path / "c2.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        monkeypatch.setattr(regulus.cli, "genus_exact", broken)
        assert main(["genus", "exact", str(g)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: planted" in err, err


class TestCliSubprocess:
    """End-to-end through a real process, exactly as a user would run it."""

    def test_corpus_emit_and_language_pipeline(self, tmp_path):
        code, out, _ = run_cli(["corpus", "emit", "z7-123", "--out-dir", str(tmp_path)])
        assert code == 0
        path = out.strip()
        assert Path(path).name == "z7_123.auto.json"
        code, out, _ = run_cli(
            ["genus", "language", "--n", "0", "--max-fiber", "3", path]
        )
        assert code == 1
        assert json.loads(out)["status"] == "no_within_bounds"

    def test_emu_check_pair(self, tmp_path):
        code, out, _ = run_cli(["corpus", "emit", "loop2-to-loop1", "--out-dir", str(tmp_path)])
        assert code == 0
        path = out.strip()
        code, _, _ = run_cli(["emu", "check", path])
        assert code == 0
        code, _, _ = run_cli(["emu", "check-cover", path])
        assert code == 1

    def test_search_and_verify_certificate(self, tmp_path):
        g = tmp_path / "c2.json"
        g.write_text(formats.dumps(formats.digraph_to_json(c2())))
        cert = tmp_path / "cert.json"
        code, _, _ = run_cli(
            ["emu", "search", str(g), "--max-fiber", "2", "--genus", "0", "-o", str(cert)]
        )
        assert code == 0
        code, out, _ = run_cli(["emu", "verify-cert", str(cert), "--base", str(g)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_no_verb_loads_networkx(self, tmp_path):
        # a fresh interpreter in which networkx cannot be imported loads every
        # regulus module and runs verbs from every group: a yes at n 0, a
        # genus-bound yes at n 1, a refusal printing its obstruction, an exact
        # genus, a cover search and its certificate check, a relation round
        # trip, which reaches the strongly connected components, the
        # automaton verbs that read the transition table, and the morphism
        # verbs on a corpus file
        from conftest import k_complete

        def modk(k, letters):
            edges = [{"id": f"t{i}_{j}", "src": str(i), "dst": str((i + j) % k),
                      "label": str(j)} for i in range(k) for j in letters]
            return {"vertices": [str(i) for i in range(k)], "alphabet": sorted(map(str, letters)),
                    "edges": edges, "initials": ["0"], "finals": ["0"]}

        inputs = {
            "l7-12.json": modk(7, (1, 2)),
            "l9-14.json": modk(9, (1, 4)),
            "k5.json": formats.undirected_to_json(k_complete(5)),
            "k7.json": formats.undirected_to_json(k_complete(7)),
            "c2.json": formats.digraph_to_json(c2()),
        }
        for name, data in inputs.items():
            (tmp_path / name).write_text(formats.dumps(data))
        l7, l9, k5, k7, g, mx, cert = (
            str(tmp_path / n) for n in (*inputs, "max.json", "cert.json")
        )
        mor = str(tmp_path / ENTRIES["loop2-to-loop1"].filename)
        calls = [
            ["genus", "language", "--n", "0", "--max-fiber", "2", l7],
            ["genus", "language", "--n", "1", "--max-fiber", "1", l9],
            ["genus", "planar", k5],
            ["genus", "exact", k7],
            ["genus", "invariance", g],
            ["emu", "search", g, "-o", cert],
            ["emu", "verify-cert", cert],
            ["rel", "max", g, "-o", mx],
            ["rel", "check", "--roundtrip", g, mx],
            ["auto", "accept", l7, "1 2 2 2"],
            ["auto", "sample", l7, "--max-length", "3"],
            ["auto", "equal", l7, l7],
            ["sa", "check", l7],
            ["corpus", "emit", "loop2-to-loop1", "--out-dir", str(tmp_path)],
            ["emu", "check", mor],
            ["graph", "pullback", mor, mor],
        ]
        script = (
            "import importlib, json, pkgutil, sys\n"
            "sys.modules['networkx'] = None  # any import of it now fails\n"
            "import regulus\n"
            "names = [m.name for m in pkgutil.iter_modules(regulus.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module(f'regulus.{name}')\n"
            "from regulus.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, names, sys.modules['networkx'] is None]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        *printed, last = proc.stdout.splitlines()
        codes, names, blocked = json.loads(last)
        assert codes == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], proc.stderr
        assert '"obstruction"' in "\n".join(printed)
        assert json.loads(Path(mx).read_text())["vertex_classes"]
        package = Path(formats.__file__).parent
        assert names == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
        assert blocked

    def test_networkx_is_a_test_dependency_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]

        def names(requirements):
            return {re.match(r"[A-Za-z0-9._-]+", r).group().lower() for r in requirements}

        assert "networkx" not in names(project["dependencies"])
        assert "networkx" in names(project["optional-dependencies"]["test"])

    def test_budget_exit_code(self, tmp_path):
        from conftest import k_complete

        g = tmp_path / "k8.json"
        g.write_text(formats.dumps(formats.undirected_to_json(k_complete(8))))
        proc = subprocess.run(
            [sys.executable, "-m", "regulus.cli", "genus", "exact", str(g)],
            capture_output=True,
            text=True,
            env={**os.environ, "REGULUS_BUDGET": "1000"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("budget:"), proc.stderr


# Each verb: how many FILE arguments it takes, and its options other than
# -h/--help and -o/--out, in the order its --help lists them.
CLI_SURFACE = {
    "graph simplify": (1, ["--dot", "--morphism-out"]),
    "graph excise": (1, ["--dot"]),
    "graph op": (1, ["--dot"]),
    "graph forget": (1, ["--dot"]),
    "graph reach": (1, []),
    "graph bidirect": (1, ["--dot"]),
    "graph contract": (1, ["--dot", "--cycle"]),
    "graph pullback": (2, []),
    "sa tautological": (1, ["--dot"]),
    "sa relabel": (1, ["--dot", "--map", "--morphism-out"]),
    "sa check": (1, []),
    "auto accept": (1, []),
    "auto sample": (1, ["--max-length"]),
    "auto minimize": (1, ["--dot", "--morphism-out"]),
    "auto complete": (1, ["--dot"]),
    "auto graph": (1, ["--dot", "--cover-base"]),
    "auto from-cover": (2, ["--dot", "--morphism-out"]),
    "auto equal": (2, []),
    "rel check": (2, ["--roundtrip"]),
    "rel quotient": (2, ["--dot", "--morphism-out"]),
    "rel canonical": (1, []),
    "rel factorize": (1, []),
    "rel mn": (1, ["--final"]),
    "rel final-systems": (1, []),
    "rel join": (3, []),
    "rel meet": (3, []),
    "rel max": (1, []),
    "emu check": (1, []),
    "emu check-cover": (1, []),
    "emu extract": (1, []),
    "emu extend": (2, []),
    "emu lift": (2, []),
    "emu search": (1, ["--max-fiber", "--genus", "--time-budget", "--disconnected-ok", "--stats"]),
    "emu verify-cert": (1, ["--base"]),
    "genus exact": (1, ["--force"]),
    "genus planar": (1, []),
    "genus lower-bound": (1, ["--girth-floor"]),
    "genus formula": (0, ["--m", "--face"]),
    "genus invariance": (1, []),
    "genus language": (1, ["--n", "--max-fiber", "--time-budget", "--certificate", "--emit-base"]),
    "corpus list": (0, []),
    "corpus emit": (0, ["--out-dir"]),
}


def cli_verbs() -> dict:
    """Each verb's parser, by "group verb"."""
    import argparse

    from regulus.cli import build_parser

    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    return {f"{group} {name}": p
            for group, gp in choices(build_parser()).items() for name, p in choices(gp).items()}


def readme_verbs(start: str, end: str) -> set[str]:
    """The verbs the README's CLI section names between two markers."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = text[text.index(start):]
    text = text[:text.index(end)]
    return {f"{group} {name}" for group, names in re.findall(r"`(\w+)\s+\{?([\w|-]+)\}?`", text)
            for name in names.split("|")}


class TestCliSurface:
    def test_every_verb_keeps_its_files_and_options(self):
        surface = {}
        for verb, p in cli_verbs().items():
            files = sum(a.nargs for a in p._actions if a.metavar == "FILE")
            options = [o for a in p._actions for o in a.option_strings
                       if o not in ("-h", "--help", "-o", "--out")]
            surface[verb] = (files, options)
            outs = [a.option_strings for a in p._actions if a.dest == "out"]
            assert outs == ([] if verb.startswith("corpus") else [["-o", "--out"]]), verb
        assert surface == CLI_SURFACE

    def test_dot_and_morphism_out_are_offered_where_the_readme_says(self):
        verbs = cli_verbs()

        def offering(option):
            return {v for v, p in verbs.items()
                    if any(option in a.option_strings for a in p._actions)}

        dot = readme_verbs("`--dot FILE`", "`--morphism-out FILE`")
        morphism = readme_verbs("`--morphism-out FILE`", "`--n`")
        assert len(dot) == 13 and len(morphism) == 5
        assert offering("--dot") == dot
        assert offering("--morphism-out") == morphism
