"""Shared graph builders, seeded random generators, and the acceptance
summary reporting."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations

import networkx as nx
import pytest
from hypothesis import strategies as st

from regulus import (
    Automaton,
    DiGraph,
    GraphMorphism,
    SemiAutomaton,
    UndirectedGraph,
    accessible_part,
)

_ACCEPTANCE: dict[str, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = (report.outcome.upper(), "")
    elif report.when == "setup" and report.outcome == "skipped":
        reason = ""
        if isinstance(report.longrepr, tuple):
            reason = report.longrepr[2]
        _ACCEPTANCE[name] = ("SKIPPED", reason)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE, key=lambda n: n.split("_")[2]):
        outcome, reason = _ACCEPTANCE[name]
        number = name.split("_")[2]
        label = name.split("_", 3)[-1].replace("_", " ")
        line = f"criterion {number}: {outcome:8s} {label}"
        if reason:
            line += f" ({reason})"
        terminalreporter.write_line(line)


def c2():
    return DiGraph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])


def p2():
    return DiGraph(["x", "y"], [("e", "x", "y")])


def par2():
    return DiGraph(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])


def loop1():
    return DiGraph(["v"], [("g", "v", "v")])


def loop2():
    return DiGraph(["u"], [("e", "u", "u"), ("f", "u", "u")])


def c4():
    return DiGraph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "a")],
    )


def fork():
    return DiGraph(["w0", "w1", "w2"], [("a", "w0", "w1"), ("b", "w0", "w2")])


def identity_morphism(g: DiGraph) -> GraphMorphism:
    return GraphMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer after inner; their middle graphs must agree."""
    assert inner.target == outer.source
    return GraphMorphism(
        inner.source,
        outer.target,
        {v: outer.p[w] for v, w in inner.p.items()},
        {e: outer.q[f] for e, f in inner.q.items()},
    )


def undirected_star(g: UndirectedGraph, v: str) -> tuple[str, ...]:
    """The edges incident to v in id order, a loop listed once."""
    return tuple(e for e, ends in g.edges.items() if v in ends)


def reference_components(g: UndirectedGraph) -> list[tuple[list[str], list[str]]]:
    """Connected components as (sorted vertex ids, sorted edge ids), in the
    order of their least vertex: a depth-first walk over the stars."""
    seen: set[str] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        vs = []
        while stack:
            x = stack.pop()
            vs.append(x)
            for e in undirected_star(g, x):
                for y in g.ends(e):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        vset = set(vs)
        es = [e for e in g.edges if g.ends(e)[0] in vset]
        comps.append((sorted(vs), sorted(es)))
    return comps


def k_complete(n):
    vs = [f"v{i}" for i in range(n)]
    return UndirectedGraph(
        vs, [(f"e{i}_{j}", (vs[i], vs[j])) for i, j in combinations(range(n), 2)]
    )


def k_bipartite(a, b):
    vs = [f"a{i}" for i in range(a)] + [f"b{j}" for j in range(b)]
    return UndirectedGraph(
        vs,
        [(f"e{i}_{j}", (f"a{i}", f"b{j}")) for i in range(a) for j in range(b)],
    )


def multidigraph(g: DiGraph) -> nx.MultiDiGraph:
    m = nx.MultiDiGraph()
    m.add_nodes_from(g.vertices)
    m.add_edges_from(g.edges.values())
    return m


def isomorphic(a: DiGraph, b: DiGraph) -> bool:
    """Digraph isomorphism counting parallel edges and loops."""
    return nx.is_isomorphic(multidigraph(a), multidigraph(b))


@st.composite
def multidigraphs(draw, max_vertices=6, max_edges=10):
    """Digraphs with loops and parallel edges.  Half of them are simple and
    loopless even as undirected graphs, so code past the multigraph
    shortcuts runs too."""
    vs = [f"v{i}" for i in range(draw(st.integers(0, max_vertices)))]
    pairs = []
    if vs:
        vertex = st.sampled_from(vs)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    if draw(st.booleans()):
        simple = {}
        for s, t in pairs:
            if s != t:
                simple.setdefault(frozenset((s, t)), (s, t))
        pairs = list(simple.values())
    return DiGraph(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)])


@st.composite
def semi_automata(draw, max_states=4, max_edges=10):
    """Semi-automata over up to three letters, with parallel equal-labelled
    edges, loops, unreachable states and states missing letters."""
    states = [f"q{i}" for i in range(draw(st.integers(1, max_states)))]
    state = st.sampled_from(states)
    arcs = draw(st.lists(st.tuples(state, state, st.sampled_from("abc")), max_size=max_edges))
    labels = {f"e{i}": x for i, (_, _, x) in enumerate(arcs)}
    edges = [(f"e{i}", s, t) for i, (s, t, _) in enumerate(arcs)]
    return SemiAutomaton(DiGraph(states, edges), set(labels.values()), labels)


def canonical_multidigraphs(max_v=4, max_e=6):
    """One multidigraph per isomorphism class with at most max_v vertices and
    max_e edges (4,388 of them for the defaults), loops included."""
    for n in range(1, max_v + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        index = {p: k for k, p in enumerate(pairs)}
        perm_maps = []
        for perm in permutations(range(n)):
            perm_maps.append([index[(perm[i], perm[j])] for (i, j) in pairs])
        for k in range(0, max_e + 1):
            for combo in combinations_with_replacement(range(len(pairs)), k):
                canon = True
                for pm in perm_maps[1:]:
                    if tuple(sorted(pm[c] for c in combo)) < combo:
                        canon = False
                        break
                if canon:
                    vs = [f"v{i}" for i in range(n)]
                    edges = [
                        (f"e{m}", f"v{a}", f"v{b}")
                        for m, (a, b) in enumerate(pairs[c] for c in combo)
                    ]
                    yield DiGraph(vs, edges)


def random_digraph(rng: random.Random, max_vertices=5, max_edges=8) -> DiGraph:
    nv = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, max_edges)
    edges = []
    for i in range(ne):
        edges.append((f"e{i}", rng.choice(vs), rng.choice(vs)))
    return DiGraph(vs, edges)


def random_complete_dfa(rng: random.Random, max_states=6, max_letters=3) -> Automaton:
    """A random accessible complete deterministic automaton."""
    ns = rng.randint(1, max_states)
    nl = rng.randint(1, max_letters)
    states = [f"q{i}" for i in range(ns)]
    letters = [chr(ord("a") + i) for i in range(nl)]
    edges, labels = [], {}
    for i, q in enumerate(states):
        for letter in letters:
            eid = f"{q}.{letter}"
            edges.append((eid, q, rng.choice(states)))
            labels[eid] = letter
    finals = {q for q in states if rng.random() < 0.5}
    semi = SemiAutomaton(DiGraph(states, edges), set(letters), labels)
    return accessible_part(Automaton(semi, {states[0]}, finals))


def random_morphism_into(rng: random.Random, target: DiGraph, max_fiber=3) -> GraphMorphism:
    """A random (not necessarily emulating) morphism into target built from
    fibres over its vertices and compatible edge choices."""
    p = {}
    fibres: dict[str, list[str]] = {v: [] for v in target.vertices}
    for v in target.vertices:
        for i in range(rng.randint(1, max_fiber)):
            name = f"{v}~{i}"
            p[name] = v
            fibres[v].append(name)
    edges = []
    q = {}
    counter = 0
    for e, s, t in target.edge_list():
        for x in fibres[s]:
            if rng.random() < 0.7:
                eid = f"{e}~{counter}"
                counter += 1
                edges.append((eid, x, rng.choice(fibres[t])))
                q[eid] = e
    src = DiGraph(list(p), edges)
    return GraphMorphism(src, target, p, q)


def random_emulator(rng: random.Random, target: DiGraph, max_fiber=3) -> GraphMorphism:
    """A random directed emulator onto target: fibres plus at least one lift
    of every outgoing target edge at every fibre vertex."""
    p = {}
    fibres: dict[str, list[str]] = {v: [] for v in target.vertices}
    for v in target.vertices:
        for i in range(rng.randint(1, max_fiber)):
            name = f"{v}~{i}"
            p[name] = v
            fibres[v].append(name)
    edges = []
    q = {}
    counter = 0
    for e, s, t in target.edge_list():
        for x in fibres[s]:
            lifts = rng.randint(1, 2)
            for _ in range(lifts):
                eid = f"{e}~{counter}"
                counter += 1
                edges.append((eid, x, rng.choice(fibres[t])))
                q[eid] = e
    src = DiGraph(list(p), edges)
    return GraphMorphism(src, target, p, q)


def random_undirected_emulator(rng: random.Random, target: UndirectedGraph, max_fiber=2):
    """A random undirected emulator onto a loopless target: assignment covers
    with occasional extra lifts."""
    from regulus import UndirectedMorphism

    p = {}
    fibres: dict[str, list[str]] = {v: [] for v in target.vertices}
    k = rng.randint(1, max_fiber)
    for v in target.vertices:
        for i in range(k):
            name = f"{v}~{i}"
            p[name] = v
            fibres[v].append(name)
    edges = []
    q = {}
    counter = 0
    for e in target.edges:
        a, b = target.ends(e)
        perm = list(range(k))
        rng.shuffle(perm)
        for i in range(k):
            eid = f"{e}~{counter}"
            counter += 1
            edges.append((eid, (fibres[a][i], fibres[b][perm[i]])))
            q[eid] = e
        if rng.random() < 0.4:
            eid = f"{e}~{counter}"
            counter += 1
            edges.append((eid, (rng.choice(fibres[a]), rng.choice(fibres[b]))))
            q[eid] = e
    src = UndirectedGraph(list(p), edges)
    return UndirectedMorphism(src, target, p, q)


@pytest.fixture
def rng():
    """Seeded generator for randomized property tests; override the fixed
    default with REGULUS_TEST_SEED to explore other instances."""
    import os

    return random.Random(int(os.environ.get("REGULUS_TEST_SEED", "20240817")))
