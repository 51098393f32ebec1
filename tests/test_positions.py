"""The quotient, the factorization and the morphism checks run on integer
positions.  Each is checked here against a reference on string ids: the
lift check and the validations before it written on ids, and a quotient
built through the validating constructors from the relation's classes."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import (
    DiGraph,
    DomainError,
    GraphMorphism,
    UndirectedGraph,
    UndirectedMorphism,
    enumerate_automatic_relations,
    factorize,
    forget,
    is_directed_cover,
    is_directed_emulator,
    is_undirected_cover,
    is_undirected_emulator,
    quotient,
    validate_morphism,
)
from regulus.digraph import ValidationReport, _born, validate_undirected_morphism
from regulus.relations import AutomaticRelation

from conftest import canonical_multidigraphs, random_digraph, random_emulator, random_morphism_into


# -- references on string ids ------------------------------------------------------

def reference_star_lifts(phi, ends: slice, cover: bool, missing: str) -> ValidationReport:
    """The lifting condition on ids: an edge lies in the star of each of its
    `ends`, its source for out-stars and every end for undirected stars."""
    source = phi.source.edges
    lifts = [(f, x) for e, f in phi.q.items() for x in source[e][ends]]
    lifted = set(lifts)
    images = Counter(phi.p.values())
    needed = sum(images[y] for f_ends in phi.target.edges.values() for y in f_ends[ends])
    if len(lifted) < needed:
        unlifted = (
            (f, x) for f, f_ends in phi.target.edges.items() for x, y in phi.p.items()
            if y in f_ends[ends] and (f, x) not in lifted
        )
        return ValidationReport(False, missing, min(unlifted))
    if cover and len(lifts) > len(lifted):
        lifts.sort()
        repeated = next(a for a, b in zip(lifts, lifts[1:]) if a == b)
        return ValidationReport(False, "lift not unique", repeated)
    return ValidationReport(True)


def reference_directed_lifts(phi: GraphMorphism, cover: bool) -> ValidationReport:
    base = validate_morphism(phi)
    if not base.ok:
        raise DomainError(f"invalid morphism: {base.reason} at {base.witness}")
    unhit = set(phi.target.vertices).difference(phi.p.values())
    if unhit:
        return ValidationReport(False, "vertex map not surjective", tuple(sorted(unhit)[:2]))
    return reference_star_lifts(phi, slice(0, 1), cover, "missing outgoing lift")


def reference_undirected_lifts(phi: UndirectedMorphism, cover: bool) -> ValidationReport:
    base = validate_undirected_morphism(phi)
    if not base.ok:
        raise DomainError(f"invalid undirected morphism: {base.reason}")
    if not phi.is_surjective():
        return ValidationReport(False, "not an epimorphism")
    return reference_star_lifts(phi, slice(None), cover, "missing lift")


def reference_isomorphism(phi: GraphMorphism) -> bool:
    p, q = phi.p.values(), phi.q.values()
    bijective = len(set(p)) == len(p) and len(set(q)) == len(q) and phi.is_surjective()
    return validate_morphism(phi).ok and bijective


def reference_quotient(g: DiGraph, r: AutomaticRelation) -> tuple[DiGraph, GraphMorphism]:
    """The quotient by the classes, through the validating constructors."""
    vrep = {v: c[0] for c in r.vertex_classes for v in c}
    erep = {e: c[0] for c in r.edge_classes for e in c}
    q = DiGraph(
        [c[0] for c in r.vertex_classes],
        [(c[0], vrep[g.src(c[0])], vrep[g.dst(c[0])]) for c in r.edge_classes],
    )
    return q, GraphMorphism(g, q, vrep, erep)


def answer(check, m):
    """What a check gives on m: its result, or the message it raises."""
    try:
        return check(m)
    except DomainError as exc:
        return f"DomainError: {exc}"


def fresh_morphism(m: GraphMorphism) -> GraphMorphism:
    return GraphMorphism(DiGraph(m.source.vertices, m.source.edge_list()),
                         DiGraph(m.target.vertices, m.target.edge_list()), dict(m.p), dict(m.q))


# -- the quotient on every relation of the criterion-6 sample ------------------------

def born_disagreements(g: DiGraph, r: AutomaticRelation, q: DiGraph, can: GraphMorphism) -> list:
    """What a quotient and its projection were born with that differs from
    the reference quotient or from a fresh computation."""
    ref_q, ref_can = reference_quotient(g, r)
    fresh_q = DiGraph(q.vertices, q.edge_list())
    copy = fresh_morphism(can)
    checks = {
        "graph": (q, ref_q), "projection": (can, ref_can), "fresh graph": (q, fresh_q),
        "int_view": (q.int_view, fresh_q.int_view), "maps": (can._int_maps, copy._int_maps),
        "factorization": (answer(factorize, can), factorize(copy)),
    }
    return [name for name, (born, computed) in checks.items() if born != computed]


def sample_graphs() -> list[DiGraph]:
    """The graphs of the relations workload: one every 4388/300 places of the
    criterion-6 graphs."""
    graphs = list(canonical_multidigraphs())
    return [graphs[int((k + 0.5) * len(graphs) / 300)] for k in range(300)]


def test_every_quotient_of_the_sample_equals_the_reference():
    relations = 0
    for g in sample_graphs():
        for r in enumerate_automatic_relations(g):
            relations += 1
            q, can = quotient(g, r)
            assert born_disagreements(g, r, q, can) == []
            back, iota = factorize(can)
            assert back is r and iota.source is q and iota.target is q
    assert relations == 3235


def test_a_quotient_from_a_file_relation_equals_the_reference():
    # a relation built by its constructor is checked on entry, then quotiented
    for g in sample_graphs()[::10]:
        for r in enumerate_automatic_relations(g)[:5]:
            copy = AutomaticRelation(r.domain, r.vector)
            assert copy.verified_on is None
            assert born_disagreements(g, copy, *quotient(g, copy)) == []


def shifted(can: GraphMorphism) -> GraphMorphism:
    """can with its born vertex map moved one position along."""
    p, q = can._int_maps
    return _born(GraphMorphism, source=can.source, target=can.target, p=can.p, q=can.q,
                 _int_maps=(p[1:] + p[:1], q), _factorization=can._factorization)


def refactored(can: GraphMorphism, other: AutomaticRelation) -> GraphMorphism:
    """can born with another relation in its factorization."""
    return _born(GraphMorphism, source=can.source, target=can.target, p=can.p, q=can.q,
                 _int_maps=can._int_maps, _factorization=(other, can._factorization[1]))


@pytest.mark.parametrize("plant", [shifted, refactored])
def test_a_planted_fault_in_a_born_value_is_caught(plant):
    # the vertex map must move, and the other relation must differ
    g = DiGraph(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c"), ("g", "c", "a")])
    rels = enumerate_automatic_relations(g)
    identity = next(r for r in rels if len(set(r.vector)) == len(r.vector))
    q, can = quotient(g, identity)
    assert born_disagreements(g, identity, q, can) == []
    faulty = plant(can) if plant is shifted else plant(can, next(r for r in rels if r != identity))
    assert born_disagreements(g, identity, q, faulty) != []


# -- the checks on random morphisms, valid and not -----------------------------------

def _maps(rnd, m: GraphMorphism, kind: str):
    """m's maps, spoilt as kind says."""
    p, q = dict(m.p), dict(m.q)
    if kind == "not total":
        some = rnd.choice([x for x in (p, q) if x])  # a morphism maps at least one vertex
        del some[rnd.choice(sorted(some))]
    elif kind == "outside" and p:
        p[rnd.choice(sorted(p))] = "outside"
    elif kind == "edge outside" and q:
        q[rnd.choice(sorted(q))] = "outside"
    elif kind == "arbitrary":
        tv, te = m.target.vertices, list(m.target.edges)
        p = {v: rnd.choice(tv) for v in p}
        q = {e: rnd.choice(te) for e in q}
    elif kind == "unknown id":
        p["unknown"] = m.target.vertices[0]
    return p, q


KINDS = ["valid", "not total", "outside", "edge outside", "arbitrary", "unknown id"]


def random_morphism(rnd, kind: str, spare_vertex: bool) -> GraphMorphism:
    """A random morphism of the given kind: an emulator (with repeated lifts)
    or any morphism, into a target with an unreached vertex when
    spare_vertex, its maps spoilt as kind says."""
    target = random_digraph(rnd, max_vertices=4, max_edges=6)
    if not target.vertices:
        target = DiGraph(["t"], [])
    make = rnd.choice([random_emulator, random_morphism_into])
    m = make(rnd, target, max_fiber=2)
    if spare_vertex:
        target = DiGraph(target.vertices + ("spare",), target.edge_list())
    return GraphMorphism(m.source, target, *_maps(rnd, m, kind))


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(KINDS), st.booleans())
def test_directed_checks_equal_the_reference(rnd, kind, spare_vertex):
    m = random_morphism(rnd, kind, spare_vertex)
    for check, reference in ((is_directed_emulator, lambda m: reference_directed_lifts(m, False)),
                             (is_directed_cover, lambda m: reference_directed_lifts(m, True)),
                             (GraphMorphism.is_isomorphism, reference_isomorphism)):
        assert answer(check, m) == answer(reference, m)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(KINDS), st.booleans())
def test_undirected_checks_equal_the_reference(rnd, kind, spare_vertex):
    m = random_morphism(rnd, kind, spare_vertex)
    u = UndirectedMorphism(forget(m.source), forget(m.target), m.p, m.q)
    for check, cover in ((is_undirected_emulator, False), (is_undirected_cover, True)):
        assert answer(check, u) == answer(lambda u: reference_undirected_lifts(u, cover), u)


def test_the_random_kinds_meet_every_answer():
    # every verdict, witness kind and error of the checks is met
    def kind(rep):
        if isinstance(rep, (str, bool)):  # an error message, or an isomorphism verdict
            return "DomainError" if isinstance(rep, str) else rep
        return rep.reason or "ok"

    seen = Counter()
    rnd = random.Random(5)
    for _ in range(600):
        m = random_morphism(rnd, rnd.choice(KINDS), rnd.random() < 0.5)
        u = UndirectedMorphism(forget(m.source), forget(m.target), m.p, m.q)
        seen[kind(answer(reference_isomorphism, m))] += 1
        for cover in (False, True):
            seen[kind(answer(lambda m: reference_directed_lifts(m, cover), m))] += 1
            seen[kind(answer(lambda u: reference_undirected_lifts(u, cover), u))] += 1
    assert {True, False, "ok", "DomainError", "missing outgoing lift", "lift not unique",
            "vertex map not surjective", "missing lift", "not an epimorphism"} <= set(seen)


def test_undirected_witnesses_follow_id_order():
    # a path over an edge: the missing lift reported is the least pair of ids
    base = UndirectedGraph(["x", "y"], [("f", ("x", "y"))])
    source = UndirectedGraph(["a", "b", "c"], [("g", ("a", "b"))])
    m = UndirectedMorphism(source, base, {"a": "x", "b": "y", "c": "x"}, {"g": "f"})
    assert is_undirected_emulator(m) == ValidationReport(False, "missing lift", ("f", "c"))
