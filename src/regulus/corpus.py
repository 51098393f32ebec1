"""Named fixture corpus: the worked examples used throughout the test suite
and available from the CLI for experimentation.

Every entry emits a deterministic, byte-identical JSON file carrying a
"description" field saying what the object is and how it classifies; parsers
ignore that field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import formats
from .automaton import Automaton
from .digraph import DiGraph, GraphMorphism, UndirectedGraph, UndirectedMorphism
from .errors import DomainError
from .semiauto import SemiAutomaton


def _letter_sum_automaton(k: int, letters) -> Automaton:
    """L(k, S): the words over the letters S in Z/k whose letter sum is 0
    mod k, on states 0..k-1 with edge t<i>_<j> from i to i + j labelled j."""
    edges = [(f"t{i}_{j}", str(i), str((i + j) % k)) for i in range(k) for j in letters]
    labels = {f"t{i}_{j}": str(j) for i in range(k) for j in letters}
    semi = SemiAutomaton(DiGraph(map(str, range(k)), edges), set(map(str, letters)), labels)
    return Automaton(semi, {"0"}, {"0"})


def z6_automaton() -> Automaton:
    """Words over Z/6 whose letter sum is 0 mod 6; already minimal, its graph
    is the complete simple digraph on six vertices plus one loop each."""
    return _letter_sum_automaton(6, range(6))


def z6_unrolled12() -> Automaton:
    """Two-fold unrolling of the mod-6 automaton: states (i, parity)."""
    states = [f"{i}.{b}" for i in range(6) for b in range(2)]
    edges, labels = [], {}
    for i in range(6):
        for b in range(2):
            for j in range(6):
                eid = f"u{i}.{b}.{j}"
                edges.append((eid, f"{i}.{b}", f"{(i + j) % 6}.{1 - b}"))
                labels[eid] = str(j)
    semi = SemiAutomaton(DiGraph(states, edges), {str(j) for j in range(6)}, labels)
    return Automaton(semi, {"0.0"}, {"0.0", "0.1"})


def z7_123_automaton() -> Automaton:
    """Words over {1,2,3} in Z/7 summing to 0 mod 7; its graph has outdegree 3
    and no short cycles, so no deterministic automaton for it is planar."""
    return _letter_sum_automaton(7, (1, 2, 3))


def abc_mod7_automaton() -> Automaton:
    """Three-letter words abc over Z/7 with a+b+c = 0 mod 7: a 16-state
    layered automaton (start, two middle layers of seven, accept)."""
    states = ["s", "f"] + [f"{x}.0" for x in range(7)] + [f"{x}.1" for x in range(7)]
    edges, labels = [], {}
    for a in range(7):
        eid = f"a{a}"
        edges.append((eid, "s", f"{a}.0"))
        labels[eid] = str(a)
    for x in range(7):
        for b in range(7):
            eid = f"b{x}_{b}"
            edges.append((eid, f"{x}.0", f"{(x + b) % 7}.1"))
            labels[eid] = str(b)
    for x in range(7):
        c = (-x) % 7
        eid = f"c{x}"
        edges.append((eid, f"{x}.1", "f"))
        labels[eid] = str(c)
    semi = SemiAutomaton(DiGraph(states, edges), {str(i) for i in range(7)}, labels)
    return Automaton(semi, {"s"}, {"f"})


def loop1_graph() -> DiGraph:
    return DiGraph(["v"], [("g", "v", "v")])


def loop2_graph() -> DiGraph:
    return DiGraph(["u"], [("e", "u", "u"), ("f", "u", "u")])


def par2_graph() -> DiGraph:
    return DiGraph(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])


def op_example_graph() -> DiGraph:
    return DiGraph(["v", "w"], [("g", "v", "v"), ("e", "v", "w"), ("f", "w", "v")])


def loop2_to_loop1() -> GraphMorphism:
    return GraphMorphism(
        loop2_graph(), loop1_graph(), {"u": "v"}, {"e": "g", "f": "g"}
    )


def fork_nonemulator() -> GraphMorphism:
    src = DiGraph(
        ["v0", "u0", "v1", "v2"], [("a", "u0", "v1"), ("b", "v0", "v2")]
    )
    tgt = DiGraph(["w0", "w1", "w2"], [("a", "w0", "w1"), ("b", "w0", "w2")])
    return GraphMorphism(
        src, tgt, {"v0": "w0", "u0": "w0", "v1": "w1", "v2": "w2"}, {"a": "a", "b": "b"}
    )


def amalgamation_loop() -> GraphMorphism:
    src = DiGraph(["u", "w"], [("e", "u", "w"), ("f", "w", "u")])
    return GraphMorphism(src, loop1_graph(), {"u": "v", "w": "v"}, {"e": "g", "f": "g"})


def par2_swap() -> GraphMorphism:
    g = par2_graph()
    return GraphMorphism(g, g, {"v": "v", "w": "w"}, {"a": "b", "b": "a"})


def extraction_pair() -> GraphMorphism:
    src = DiGraph(
        ["v1", "v2", "w1", "w2"],
        [("e1", "v1", "w1"), ("e2", "v2", "w2"), ("e3", "v2", "w1")],
    )
    tgt = DiGraph(["v", "w"], [("e", "v", "w")])
    return GraphMorphism(
        src,
        tgt,
        {"v1": "v", "v2": "v", "w1": "w", "w2": "w"},
        {"e1": "e", "e2": "e", "e3": "e"},
    )


def fork_covers_par2() -> GraphMorphism:
    src = DiGraph(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "z")])
    return GraphMorphism(
        src, par2_graph(), {"x": "v", "y": "w", "z": "w"}, {"a": "a", "b": "b"}
    )


def vee_over_path() -> GraphMorphism:
    src = DiGraph(
        ["v0", "v1", "u1", "v2"],
        [("e1", "v0", "v1"), ("e2", "v1", "v2"), ("e3", "u1", "v2")],
    )
    tgt = DiGraph(["w0", "w1", "w2"], [("f1", "w0", "w1"), ("f2", "w1", "w2")])
    return GraphMorphism(
        src,
        tgt,
        {"v0": "w0", "v1": "w1", "u1": "w1", "v2": "w2"},
        {"e1": "f1", "e2": "f2", "e3": "f2"},
    )


def path_4_over_3() -> UndirectedMorphism:
    src = UndirectedGraph(
        ["h1", "h2", "h3", "h4"],
        [
            ("p", ("h1", "h3")),
            ("q", ("h3", "h2")),
            ("r", ("h1", "h4")),
            ("s", ("h4", "h2")),
        ],
    )
    tgt = UndirectedGraph(
        ["g1", "g2", "g3"], [("x", ("g1", "g2")), ("y", ("g2", "g3"))]
    )
    return UndirectedMorphism(
        src,
        tgt,
        {"h1": "g1", "h2": "g3", "h3": "g2", "h4": "g2"},
        {"p": "x", "q": "y", "r": "x", "s": "y"},
    )


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # graph | auto | mor | umor
    description: str
    build: Callable

    @property
    def filename(self) -> str:
        return f"{self.name.replace('-', '_')}.{self.kind}.json"

    def payload(self) -> dict:
        return {**formats.to_json(self.build()), "description": self.description}


ENTRIES: dict[str, CorpusEntry] = {
    e.name: e
    for e in [
        CorpusEntry(
            "z6",
            "auto",
            "mod-6 letter-sum automaton; minimal, complete, deterministic; "
            "its graph is the complete simple digraph on 6 states plus loops",
            z6_automaton,
        ),
        CorpusEntry(
            "z6-unrolled12",
            "auto",
            "two-fold parity unrolling of z6; minimizes back to 6 states",
            z6_unrolled12,
        ),
        CorpusEntry(
            "z7-123",
            "auto",
            "mod-7 letter-sum automaton over letters 1,2,3; outdegree 3 and "
            "girth 3, hence no planar deterministic automaton exists",
            z7_123_automaton,
        ),
        CorpusEntry(
            "abc-mod7",
            "auto",
            "finite language of three-letter words over Z/7 summing to 0; "
            "16-state layered automaton",
            abc_mod7_automaton,
        ),
        CorpusEntry("op-example", "graph", "loop at v plus a 2-cycle between v and w", op_example_graph),
        CorpusEntry(
            "loop2-to-loop1",
            "mor",
            "two loops mapping onto one loop: a directed emulator that is not "
            "a directed cover",
            loop2_to_loop1,
        ),
        CorpusEntry(
            "fork-nonemulator",
            "mor",
            "epimorphism onto a two-pronged fork that is not a directed "
            "emulator: each preimage of the hub has only one outgoing edge",
            fork_nonemulator,
        ),
        CorpusEntry(
            "amalgamation-loop",
            "mor",
            "two-cycle amalgamated onto a loop: amalgamation can create loops",
            amalgamation_loop,
        ),
        CorpusEntry(
            "par2-swap",
            "mor",
            "parallel pair emulating itself by swapping its two edges",
            par2_swap,
        ),
        CorpusEntry(
            "extraction-pair",
            "mor",
            "four vertices with three edges over a single edge: an emulator "
            "admitting two non-isomorphic cover extractions",
            extraction_pair,
        ),
        CorpusEntry(
            "fork-covers-par2",
            "mor",
            "fork covering a parallel pair; simplification downgrades this "
            "cover to a mere emulator",
            fork_covers_par2,
        ),
        CorpusEntry(
            "vee-over-path",
            "mor",
            "directed emulator over a two-edge path whose underlying "
            "undirected morphism is not an undirected emulator",
            vee_over_path,
        ),
        CorpusEntry(
            "path-4-over-3",
            "umor",
            "four-vertex undirected emulator of a path that contains no "
            "four-vertex cover as a subgraph",
            path_4_over_3,
        ),
    ]
}


def normalize_name(name: str) -> str:
    return name.replace("_", "-").removesuffix(".json")


def get(name: str) -> CorpusEntry:
    key = normalize_name(name)
    if key not in ENTRIES:
        raise DomainError(f"unknown corpus entry {name!r}; try: {', '.join(sorted(ENTRIES))}")
    return ENTRIES[key]


def names() -> list[str]:
    return sorted(ENTRIES)
