"""JSON interchange formats and DOT export.

Digraphs: {"vertices": [...], "edges": [{"id","src","dst"}, ...]}.
Undirected graphs replace src/dst with "ends": ["v","w"] (["v"] for loops).
Semi-automata add "alphabet" and a per-edge "label"; automata add "initials"
and "finals".  Relations: {"vertex_classes": [[...]], "edge_classes": [[...]]}.
Morphism files embed their source and target so they verify standalone.
Unknown keys (such as a "description") are ignored on input.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .automaton import Automaton, LanguageSample
from .digraph import DiGraph, GraphMorphism, UndirectedGraph, UndirectedMorphism
from .emulation import CoverCertificate
from .errors import DomainError
from .genus import RotationSystem
from .relations import AutomaticRelation
from .semiauto import SemiAutomaton, SemiMorphism


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("expected a JSON object at top level")
    return data


def _need(data: dict, key: str) -> Any:
    if not isinstance(data, dict):
        raise DomainError(f"expected an object with key {key!r}")
    if key not in data:
        raise DomainError(f"missing required key {key!r}")
    return data[key]


def _records(data: dict, key: str) -> list[dict]:
    value = _need(data, key)
    if not isinstance(value, list) or any(not isinstance(x, dict) for x in value):
        raise DomainError(f"{key!r} must be a list of objects")
    return value


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _strings(data: dict, key: str) -> list[str]:
    value = _need(data, key)
    if not _is_strings(value):
        raise DomainError(f"{key!r} must be a list of strings")
    return value


def _mapping(data: dict, key: str) -> dict:
    value = _need(data, key)
    if not isinstance(value, dict):
        raise DomainError(f"{key!r} must be an object")
    return value


def _string_map(data: dict, key: str) -> dict[str, str]:
    value = _mapping(data, key)
    if not _is_strings(list(value.values())):
        raise DomainError(f"{key!r} must map strings to strings")
    return value


def _rotations(data: dict, key: str) -> RotationSystem:
    value = _mapping(data, key)
    if not all(map(_is_strings, value.values())):
        raise DomainError(f"{key!r} must map each vertex to a list of strings")
    return RotationSystem(value)


# -- digraphs ---------------------------------------------------------------

def digraph_to_json(g: DiGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "src": s, "dst": t} for e, s, t in g.edge_list()],
    }


def digraph_from_json(data: dict) -> DiGraph:
    edges = [
        (_need(e, "id"), _need(e, "src"), _need(e, "dst"))
        for e in _records(data, "edges")
    ]
    return DiGraph(_strings(data, "vertices"), edges)


def undirected_to_json(g: UndirectedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "ends": list(g.ends(e))} for e in g.edges],
    }


def _ends(edge: dict) -> tuple[str, ...]:
    value = _need(edge, "ends")
    if not _is_strings(value) or not 1 <= len(value) <= 2:
        raise DomainError("'ends' must be a list of one or two strings")
    return tuple(value)


def undirected_from_json(data: dict) -> UndirectedGraph:
    edges = [(_need(e, "id"), _ends(e)) for e in _records(data, "edges")]
    return UndirectedGraph(_strings(data, "vertices"), edges)


def is_undirected_payload(data) -> bool:
    if not isinstance(data, dict):
        return False
    edges = data.get("edges", [])
    return (
        isinstance(edges, list)
        and bool(edges)
        and isinstance(edges[0], dict)
        and "ends" in edges[0]
    )


# -- semi-automata and automata ---------------------------------------------

def semi_to_json(a: SemiAutomaton) -> dict:
    g = a.graph
    return {
        "vertices": list(g.vertices),
        "alphabet": sorted(a.alphabet),
        "edges": [
            {"id": e, "src": s, "dst": t, "label": a.label(e)}
            for e, s, t in g.edge_list()
        ],
    }


def semi_from_json(data: dict) -> SemiAutomaton:
    g = digraph_from_json(data)
    labels = {_need(e, "id"): _need(e, "label") for e in _records(data, "edges")}
    if not _is_strings(list(labels.values())):
        raise DomainError("each edge 'label' must be a string")
    return SemiAutomaton(g, _strings(data, "alphabet"), labels)


def automaton_to_json(a: Automaton) -> dict:
    out = semi_to_json(a.semi)
    out["initials"] = sorted(a.initials)
    out["finals"] = sorted(a.finals)
    return out


def automaton_from_json(data: dict) -> Automaton:
    return Automaton(
        semi_from_json(data), _strings(data, "initials"), _strings(data, "finals")
    )


def sample_to_json(s: LanguageSample) -> dict:
    return {
        "alphabet": sorted(s.alphabet),
        "max_length": s.max_length,
        "words": sorted(" ".join(w) for w in s.words),
    }


# -- morphisms ---------------------------------------------------------------

def morphism_to_json(m: GraphMorphism | UndirectedMorphism) -> dict:
    return {"source": to_json(m.source), "target": to_json(m.target),
            "p": dict(m.p), "q": dict(m.q)}


def _morphism(data: dict, kind: type, read_graph: Callable) -> GraphMorphism | UndirectedMorphism:
    """A morphism of `kind` between the graphs that `read_graph` reads."""
    return kind(read_graph(_mapping(data, "source")), read_graph(_mapping(data, "target")),
                _string_map(data, "p"), _string_map(data, "q"))


def morphism_from_json(data: dict) -> GraphMorphism:
    return _morphism(data, GraphMorphism, digraph_from_json)


def undirected_morphism_from_json(data: dict) -> UndirectedMorphism:
    return _morphism(data, UndirectedMorphism, undirected_from_json)


def is_undirected_morphism_payload(data: dict) -> bool:
    """Whether the source or the target has an edge given by its "ends"."""
    return is_undirected_payload(data.get("source")) or is_undirected_payload(data.get("target"))


def semi_morphism_to_json(m: SemiMorphism) -> dict:
    return {
        "source": semi_to_json(m.source),
        "target": semi_to_json(m.target),
        "p": dict(m.base.p),
        "q": dict(m.base.q),
        "alpha": dict(m.alpha),
    }


# -- relations, rotations, certificates ---------------------------------------

def relation_to_json(r: AutomaticRelation) -> dict:
    return {
        "vertex_classes": [list(c) for c in r.vertex_classes],
        "edge_classes": [list(c) for c in r.edge_classes],
    }


def relation_from_json(data: dict) -> AutomaticRelation:
    for key in ("vertex_classes", "edge_classes"):
        value = _need(data, key)
        if not isinstance(value, list) or not all(map(_is_strings, value)):
            raise DomainError(f"{key!r} must be a list of lists of strings")
    return AutomaticRelation.from_classes(
        data["vertex_classes"], data["edge_classes"]
    )


def rotation_to_json(r: RotationSystem) -> dict:
    return {v: list(ts) for v, ts in sorted(r.rotations.items())}


def certificate_to_json(c: CoverCertificate) -> dict:
    return {
        "base": digraph_to_json(c.base),
        "total": digraph_to_json(c.total),
        "p": dict(c.morphism.p),
        "q": dict(c.morphism.q),
        "rotation": rotation_to_json(c.genus_witness),
        "genus": c.genus,
    }


def certificate_from_json(data: dict) -> CoverCertificate:
    base = digraph_from_json(_mapping(data, "base"))
    total = digraph_from_json(_mapping(data, "total"))
    morphism = GraphMorphism(total, base, _string_map(data, "p"), _string_map(data, "q"))
    rotation = _rotations(data, "rotation")
    genus = _need(data, "genus")
    if type(genus) is not int or genus < 0:  # JSON true and false are not genera
        raise DomainError("certificate genus must be a non-negative integer")
    return CoverCertificate(morphism, rotation, genus)


def to_json(obj) -> dict:
    """The JSON form of a graph, automaton, morphism, relation, sample, rotation
    system or certificate, chosen by its type; a dict passes through."""
    return obj if isinstance(obj, dict) else _TO_JSON[type(obj)](obj)


_TO_JSON = {
    DiGraph: digraph_to_json, UndirectedGraph: undirected_to_json,
    SemiAutomaton: semi_to_json, Automaton: automaton_to_json, LanguageSample: sample_to_json,
    GraphMorphism: morphism_to_json, UndirectedMorphism: morphism_to_json,
    SemiMorphism: semi_morphism_to_json, AutomaticRelation: relation_to_json,
    RotationSystem: rotation_to_json, CoverCertificate: certificate_to_json,
}


# -- DOT export ---------------------------------------------------------------

def _dot_id(x: str) -> str:
    return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'


def digraph_to_dot(g: DiGraph, labels: dict[str, str] | None = None) -> str:
    lines = ["digraph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for e, s, t in g.edge_list():
        text = f"{e}:{labels[e]}" if labels else e
        lines.append(f"  {_dot_id(s)} -> {_dot_id(t)} [label={_dot_id(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def undirected_to_dot(g: UndirectedGraph) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for e, ends in g.edges.items():
        a, b = ends[0], ends[-1]  # a loop has one end
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)} [label={_dot_id(e)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def semi_to_dot(a: SemiAutomaton) -> str:
    return digraph_to_dot(a.graph, {e: a.label(e) for e in a.graph.edges})


def automaton_to_dot(a: Automaton) -> str:
    lines = ["digraph A {"]
    for v in a.graph.vertices:
        attrs = []
        if v in a.finals:
            attrs.append("shape=doublecircle")
        if v in a.initials:
            attrs.append("penwidth=2")
        suffix = f" [{','.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(v)}{suffix};")
    for e, s, t in a.graph.edge_list():
        text = f"{e}:{a.semi.label(e)}"
        lines.append(f"  {_dot_id(s)} -> {_dot_id(t)} [label={_dot_id(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(obj) -> str:
    """The DOT rendering of a graph or an automaton, chosen by its type."""
    return _TO_DOT[type(obj)](obj)


_TO_DOT = {DiGraph: digraph_to_dot, UndirectedGraph: undirected_to_dot,
           SemiAutomaton: semi_to_dot, Automaton: automaton_to_dot}
