from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regulus import (
    AutomaticRelation,
    DiGraph,
    DomainError,
    FinalFamily,
    GraphMorphism,
    SemiAutomaton,
    automatic_to_mn_roundtrip,
    canonical_relation,
    complete_final_systems,
    enumerate_automatic_relations,
    factorize,
    is_automatic,
    is_cover_relation,
    is_directed_cover,
    is_directed_emulator,
    join,
    maximum,
    meet,
    mn_refine,
    quotient,
    reachability,
    relation_leq,
    simplify,
)
from regulus import digraph, formats
from regulus.cli import main
from regulus.corpus import amalgamation_loop, loop2_to_loop1, par2_swap
from regulus.digraph import IntView, ancestors
from regulus.formats import relation_from_json, relation_to_json
from regulus.relations import _coarsest_automatic

from conftest import (
    c2,
    c4,
    canonical_multidigraphs,
    compose_morphisms,
    isomorphic,
    loop2,
    p2,
    par2,
    random_digraph,
    random_emulator,
)


def wrap_c4_to_c2():
    return AutomaticRelation.from_classes(
        [["a", "c"], ["b", "d"]], [["e1", "e3"], ["e2", "e4"]]
    )


class TestIsAutomatic:
    def test_identity_always_automatic(self, rng):
        # checked on a copy: the identity itself carries its verdict
        for _ in range(20):
            g = random_digraph(rng)
            assert is_automatic(g, _canonical(AutomaticRelation.identity(g))).ok

    def test_c2_full_merge_is_automatic(self):
        g = c2()
        r = AutomaticRelation.from_classes([["a", "b"]], [["e1", "e2"]])
        assert is_automatic(g, r).ok

    def test_p2_vertex_merge_fails_bisimilarity(self):
        g = p2()
        r = AutomaticRelation.from_classes([["x", "y"]], [["e"]])
        report = is_automatic(g, r)
        assert not report.ok
        assert report.reason == "bisimilarity"
        assert report.witness[0] == "y"

    def test_non_partition_rejected(self):
        g = c2()
        with pytest.raises(DomainError):
            is_automatic(g, AutomaticRelation.from_classes([["a"]], [["e1", "e2"]]))


class TestQuotient:
    def test_identity_gives_isomorphic_graph(self):
        g = c2()
        q, can = quotient(g, AutomaticRelation.identity(g))
        assert q == g
        assert can.is_isomorphism()

    def test_vertex_induced_identity_gives_simplification(self, rng):
        for _ in range(15):
            g = random_digraph(rng)
            groups: dict[tuple, list] = {}
            for e in g.edges:
                groups.setdefault(g.ends(e), []).append(e)
            r = AutomaticRelation.from_classes(
                [[v] for v in g.vertices], groups.values()
            )
            assert is_automatic(g, r).ok
            q, _ = quotient(g, r)
            assert isomorphic(q, simplify(g)[0])

    def test_amalgamation_creates_loop(self):
        g = amalgamation_loop().source
        r = AutomaticRelation.from_classes([["u", "w"]], [["e", "f"]])
        q, can = quotient(g, r)
        assert len(q.vertices) == 1
        assert len(q.edges) == 1
        assert q.is_loop("e")
        assert is_directed_emulator(can).ok

    def test_quotient_maps_are_emulators(self, rng):
        for _ in range(15):
            g = random_digraph(rng)
            for r in enumerate_automatic_relations(g)[:6]:
                _, can = quotient(g, r)
                assert is_directed_emulator(can).ok


class TestCoverRelation:
    def test_identity_is_cover(self):
        g = c2()
        assert is_cover_relation(g, AutomaticRelation.identity(g))

    def test_loop2_merge_is_not_cover(self):
        g = loop2()
        r = AutomaticRelation.from_classes([["u"]], [["e", "f"]])
        assert is_automatic(g, r).ok
        assert not is_cover_relation(g, r)

    def test_c4_wrap_is_cover(self):
        assert is_cover_relation(c4(), wrap_c4_to_c2())

    def test_cover_relation_iff_quotient_map_covers(self, rng):
        for _ in range(12):
            g = random_digraph(rng, max_vertices=4, max_edges=6)
            for r in enumerate_automatic_relations(g):
                _, can = quotient(g, r)
                assert is_cover_relation(g, r) == is_directed_cover(can).ok


class TestCanonicalRelation:
    def test_isomorphism_gives_identity(self):
        m = par2_swap()
        r = canonical_relation(m)
        assert r == AutomaticRelation.identity(m.source)

    def test_simplification_merges_parallel_edges(self):
        g = par2()
        _, rho = simplify(g)
        r = canonical_relation(rho)
        assert r.edge_classes == (("a", "b"),)
        assert all(len(c) == 1 for c in r.vertex_classes)

    def test_rejects_non_emulator(self):
        from regulus.corpus import fork_nonemulator

        with pytest.raises(DomainError):
            canonical_relation(fork_nonemulator())


class TestFactorize:
    def test_isomorphism_splits_trivially(self):
        m = par2_swap()
        r, iota = factorize(m)
        assert r == AutomaticRelation.identity(m.source)
        assert iota.q == m.q

    def test_quotient_map_gives_identity_iso(self):
        g = c4()
        r = wrap_c4_to_c2()
        _, can = quotient(g, r)
        r2, iota = factorize(can)
        assert r2 == r
        assert iota.p == {v: v for v in iota.source.vertices}

    def test_composite_recovers_relation_and_iso(self):
        g = c4()
        r = wrap_c4_to_c2()
        q, can = quotient(g, r)
        # rename the quotient through an isomorphism
        tgt = DiGraph(["x", "y"], [("u", "x", "y"), ("v", "y", "x")])
        iso = GraphMorphism(q, tgt, {"a": "x", "b": "y"}, {"e1": "u", "e2": "v"})
        composite = GraphMorphism(
            g,
            tgt,
            {v: iso.p[can.p[v]] for v in g.vertices},
            {e: iso.q[can.q[e]] for e in g.edges},
        )
        r2, iota2 = factorize(composite)
        assert r2 == r
        assert iota2.p == iso.p and iota2.q == iso.q

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_emulator_factors_through_an_isomorphism(self, rnd):
        # iota's classes are the fibres of a verified emulator, so it is an
        # isomorphism by construction; factorize does not check it again
        m = random_emulator(rnd, random_digraph(rnd, max_vertices=4, max_edges=5))
        r, iota = factorize(m)
        _, can = quotient(m.source, r)
        assert iota.is_isomorphism()
        assert compose_morphisms(iota, can) == m

    def test_uniqueness_by_perturbation(self):
        # every alternative relation fails to split the wrap map: the forced
        # second factor is either ill-defined or fails to be injective
        g = c4()
        r = wrap_c4_to_c2()
        _, can = quotient(g, r)
        got, _ = factorize(can)
        assert got == r
        for other in enumerate_automatic_relations(g):
            if other == r:
                continue
            vclass = class_of(other.vertex_classes)
            forced: dict[tuple, str] = {}
            well_defined = True
            for v in g.vertices:
                key = vclass[v]
                if forced.setdefault(key, can.p[v]) != can.p[v]:
                    well_defined = False
            injective = len(set(forced.values())) == len(forced)
            assert not (well_defined and injective and len(forced) == 2)


class TestMnRefine:
    def test_dfa_myhill_nerode(self):
        # two-state a-cycle, both states final in one block: all equivalent
        g = c2()
        a = SemiAutomaton(g, {"a"}, {"e1": "a", "e2": "a"})
        r = mn_refine(a, FinalFamily.of({"a", "b"}))
        assert r.vertex_classes == (("a", "b"),)

    def test_distinguishing_finals_split(self):
        g = c2()
        a = SemiAutomaton(g, {"a"}, {"e1": "a", "e2": "a"})
        r = mn_refine(a, FinalFamily.of({"a"}))
        assert r.vertex_classes == (("a",), ("b",))

    def test_result_always_automatic(self, rng):
        for _ in range(20):
            g = random_digraph(rng)
            if not g.vertices:
                continue
            taut = SemiAutomaton(g, set(g.edges), {e: e for e in g.edges})
            fam = FinalFamily.of({g.vertices[0]})
            r = mn_refine(taut, fam)
            assert is_automatic(g, _canonical(r)).ok

    def test_finer_family_refines(self, rng):
        for _ in range(20):
            g = random_digraph(rng, max_vertices=4, max_edges=6)
            if len(g.vertices) < 2:
                continue
            labels = {e: "a" for e in g.edges}
            a = SemiAutomaton(g, {"a"} if g.edges else set(), labels)
            coarse = FinalFamily.of(set(g.vertices))
            fine = FinalFamily.of({g.vertices[0]}, set(g.vertices[1:]))
            r_fine = mn_refine(a, fine)
            r_coarse = mn_refine(a, coarse)
            assert relation_leq(r_fine, r_coarse)


class TestCompleteFinalSystems:
    def test_strongly_connected_gives_one(self):
        rep = complete_final_systems(c2())
        assert rep.cardinality == 1

    def test_p2_sink_vertex(self):
        rep = complete_final_systems(p2())
        assert rep.minimal_system == ("y",)

    def test_two_disjoint_cycles(self):
        g = DiGraph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b"), ("e2", "b", "a"), ("f1", "c", "d"), ("f2", "d", "c")],
        )
        rep = complete_final_systems(g)
        assert rep.cardinality == 2
        assert is_complete_final_system(g, rep.minimal_system)

    def test_minimality(self, rng):
        for _ in range(20):
            g = random_digraph(rng)
            if not g.vertices:
                continue
            rep = complete_final_systems(g)
            assert is_complete_final_system(g, rep.minimal_system)
            for v in rep.minimal_system:
                rest = [w for w in rep.minimal_system if w != v]
                assert not is_complete_final_system(g, rest) or not rest


class TestRoundTrip:
    def test_identity_on_c2(self):
        g = c2()
        assert automatic_to_mn_roundtrip(g, AutomaticRelation.identity(g)).ok

    def test_wrap_on_c4(self):
        assert automatic_to_mn_roundtrip(c4(), wrap_c4_to_c2()).ok

    def test_amalgamation_example(self):
        g = amalgamation_loop().source
        r = AutomaticRelation.from_classes([["u", "w"]], [["e", "f"]])
        assert automatic_to_mn_roundtrip(g, r).ok

    def test_canonical_relation_of_emulator(self):
        r = canonical_relation(loop2_to_loop1())
        g = loop2()
        assert automatic_to_mn_roundtrip(g, r).ok

    def test_parallel_edges_keep_their_classes(self):
        # the two parallel edges share their end classes, so only the edge
        # keys tell them apart
        g = par2()
        assert automatic_to_mn_roundtrip(g, AutomaticRelation.identity(g)).ok

    def test_round_trip_builds_no_semi_automaton(self, monkeypatch):
        # the refinements run on the relation's class vector, with no
        # labelled copy of the graph and no final family
        built = []

        def count(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        count(SemiAutomaton)
        count(FinalFamily)
        g = c4()
        relations = enumerate_automatic_relations(g)
        assert len(relations) > 1
        assert all(automatic_to_mn_roundtrip(g, r).ok for r in relations)
        assert built == []
        FinalFamily.of(["a"])  # the count does see a construction
        assert built == ["FinalFamily"]

    def test_round_trips_over_one_graph_find_its_final_system_once(self, monkeypatch):
        # the graph is immutable, so the strong components behind its final
        # system are found once for all of its relations
        import regulus.relations

        calls = []
        scc = regulus.relations.strongly_connected_components
        monkeypatch.setattr(regulus.relations, "strongly_connected_components",
                            lambda g: calls.append(g) or scc(g))
        # ids no other test uses, so no earlier call has this graph's system
        g = DiGraph(["once0", "once1", "once2", "once3"],
                    [(f"once{i}>{j}", f"once{i}", f"once{j}") for i, j in
                     ((0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (3, 3))])
        relations = enumerate_automatic_relations(g)
        assert len(relations) > 1
        assert all(automatic_to_mn_roundtrip(g, r).ok for r in relations)
        assert len(calls) == 1

    def test_one_sink_component_gives_the_least_reachable_vertex(self):
        # the round trip takes its single-class family from the one-vertex
        # minimal final system instead of from reachability
        single = 0
        for g in canonical_multidigraphs():
            system = complete_final_systems(g).minimal_system
            reach = reachability(g).reachable_vertices
            assert (len(system) == 1) == bool(reach)
            if reach:
                assert system[0] == min(reach)
                single += 1
        assert single == 2036


class TestLattice:
    def test_join_meet_with_identity(self, rng):
        for _ in range(10):
            g = random_digraph(rng, max_vertices=4, max_edges=5)
            ident = AutomaticRelation.identity(g)
            for r in enumerate_automatic_relations(g)[:8]:
                assert join(g, r, ident) == r
                assert meet(g, r, ident) == ident

    def test_fork_pair_meet_is_identity_beyond_pairs(self):
        # two fork components with crossing vertex-induced relations whose
        # compatible edge intersection is empty
        g = DiGraph(
            ["v0", "u0", "w0", "v1", "u1", "w1"],
            [
                ("a0", "u0", "v0"),
                ("b0", "u0", "w0"),
                ("a1", "u1", "v1"),
                ("b1", "u1", "w1"),
            ],
        )
        r1 = AutomaticRelation.from_classes(
            [["u0", "u1"], ["v0", "v1"], ["w0", "w1"]],
            [["a0", "a1"], ["b0", "b1"]],
        )
        r2 = AutomaticRelation.from_classes(
            [["u0", "u1"], ["v0", "w1"], ["w0", "v1"]],
            [["a0", "b1"], ["b0", "a1"]],
        )
        assert is_automatic(g, r1).ok and is_automatic(g, r2).ok
        m = meet(g, r1, r2)
        # u0,u1 cannot stay merged: no shared edge classes remain
        assert m == AutomaticRelation.identity(g)

    def test_maximum_on_c4_merges_everything(self):
        m = maximum(c4())
        assert m.vertex_classes == (("a", "b", "c", "d"),)
        assert m.edge_classes == (("e1", "e2", "e3", "e4"),)

    def test_join_meet_against_brute_force(self, rng):
        for _ in range(12):
            g = random_digraph(rng, max_vertices=3, max_edges=4)
            rels = enumerate_automatic_relations(g)
            for r1 in rels:
                for r2 in rels:
                    j = join(g, r1, r2)
                    m = meet(g, r1, r2)
                    uppers = [r for r in rels if relation_leq(r1, r) and relation_leq(r2, r)]
                    lowers = [r for r in rels if relation_leq(r, r1) and relation_leq(r, r2)]
                    assert j in uppers and all(relation_leq(j, u) for u in uppers)
                    assert m in lowers and all(relation_leq(l, m) for l in lowers)

    def test_join_meet_brute_force_five_vertices(self, rng):
        # larger instances, sampled pairs
        for _ in range(4):
            g = random_digraph(rng, max_vertices=5, max_edges=8)
            rels = enumerate_automatic_relations(g)
            if len(rels) < 2:
                continue
            pairs = [(rng.choice(rels), rng.choice(rels)) for _ in range(25)]
            for r1, r2 in pairs:
                j = join(g, r1, r2)
                m = meet(g, r1, r2)
                uppers = [r for r in rels if relation_leq(r1, r) and relation_leq(r2, r)]
                lowers = [r for r in rels if relation_leq(r, r1) and relation_leq(r, r2)]
                assert j in uppers and all(relation_leq(j, u) for u in uppers)
                assert m in lowers and all(relation_leq(l, m) for l in lowers)

    def test_maximum_is_top(self, rng):
        for _ in range(10):
            g = random_digraph(rng, max_vertices=4, max_edges=5)
            top = maximum(g)
            for r in enumerate_automatic_relations(g):
                assert relation_leq(r, top)


# -- brute-force references: every candidate partition, checks on class dicts --


def is_complete_final_system(g, vertices):
    """Every vertex has a walk to one of the given vertices."""
    covered = frozenset().union(*(ancestors(g, v) for v in vertices))
    return len(covered) == len(g.vertices)


def class_of(classes):
    """Each id's class, from a relation's vertex_classes or edge_classes."""
    return {x: c for c in classes for x in c}


def _reference_is_automatic(g, r):
    """Partition check by flattening, then compatibility and bisimilarity on
    class tuples; (ok, clause, witness) or DomainError."""
    for items, classes in ((g.vertices, r.vertex_classes), (list(g.edges), r.edge_classes)):
        flat = [x for c in classes for x in c]
        if len(flat) != len(set(flat)) or set(flat) != set(items):
            raise DomainError("classes do not partition the underlying set")
    vclass = class_of(r.vertex_classes)
    for c in r.edge_classes:
        s0, t0 = vclass[g.src(c[0])], vclass[g.dst(c[0])]
        for e in c[1:]:
            if vclass[g.src(e)] != s0:
                return False, "compatibility", (c[0], e, "src")
            if vclass[g.dst(e)] != t0:
                return False, "compatibility", (c[0], e, "dst")
    for c in r.edge_classes:
        sources = {g.src(e) for e in c}
        for x in vclass[g.src(c[0])]:
            if x not in sources:
                return False, "bisimilarity", (x, c[0])
    return True, "", ()


def _overlaps(classes):
    """Whether some id lies in two of the classes."""
    sets = [set(c) for c in classes]
    return sum(map(len, sets)) != len(set().union(*sets))


def _reference_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _reference_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _reference_enumeration(g):
    """Every vertex partition with every product of partitions of its
    end-class edge groups, filtered by the reference check."""
    out = []
    for vpart in _reference_partitions(list(g.vertices)):
        vclass = {v: i for i, c in enumerate(vpart) for v in c}
        groups = {}
        for e in g.edges:
            groups.setdefault((vclass[g.src(e)], vclass[g.dst(e)]), []).append(e)
        for parts in product(*(list(_reference_partitions(x)) for x in groups.values())):
            r = AutomaticRelation.from_classes(vpart, [c for p in parts for c in p])
            if _reference_is_automatic(g, r)[0]:
                out.append(r)
    return out


def _reference_enumerate(g):
    """The direct enumerator on recursive, untabulated partitions: per vertex
    partition, the partitions of each end-class edge group whose blocks'
    sources cover the source class, each relation renumbered by the
    constructor."""
    view = g.int_view
    sources, targets = view.sources, view.targets
    out = []
    for vpart in _reference_partitions(list(range(len(g.vertices)))):
        vclass = [0] * len(g.vertices)
        for i, c in enumerate(vpart):
            for v in c:
                vclass[v] = i
        groups = {}
        for j, (s, t) in enumerate(zip(sources, targets)):
            groups.setdefault((vclass[s], vclass[t]), []).append(j)
        kept_per_group = []
        for (s, _), group in groups.items():
            need = len(vpart[s])
            kept = [p for p in _reference_partitions(group)
                    if all(len(set(map(sources.__getitem__, block))) == need for block in p)]
            if not kept:
                break
            kept_per_group.append(kept)
        else:
            for parts in product(*kept_per_group):
                eclass = [0] * len(sources)
                for n, block in enumerate(chain.from_iterable(parts)):
                    for j in block:
                        eclass[j] = n
                out.append(AutomaticRelation(view.domain, vclass + eclass))
    return out


def _reference_leq(r1, r2):
    for mine, theirs in (
        (r1.vertex_classes, class_of(r2.vertex_classes)),
        (r1.edge_classes, class_of(r2.edge_classes)),
    ):
        for c in mine:
            if any(theirs[x] != theirs[c[0]] for x in c[1:]):
                return False
    return True


def _reference_group_by(items, key):
    groups = {}
    for x in items:
        groups.setdefault(key(x), []).append(x)
    return list(groups.values())


def _reference_refine_vertices(g, blocks, signature):
    """Split vertex blocks by signature until their count stays."""
    rounds = 0
    while True:
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        groups = {}
        for v in g.vertices:
            groups.setdefault(signature(v, block_of), set()).add(v)
        new_blocks = [frozenset(s) for s in groups.values()]
        if len(new_blocks) == len(blocks):
            return blocks
        blocks = new_blocks
        rounds += 1
        assert rounds <= max(1, len(g.vertices)), "refinement failed to stabilize in |V| rounds"


def _reference_mn_refine(a, family):
    """Vertices split by (block, set of (label, target block)) from the final
    subsets and the rest; edges grouped by label and end blocks."""
    g = a.graph
    blocks = list(family.subsets)
    rest = frozenset(g.vertices) - frozenset().union(*family.subsets)
    if rest:
        blocks.append(rest)

    def signature(v, block_of):
        return block_of[v], frozenset((a.label(e), block_of[g.dst(e)]) for e in g.out_edges(v))

    blocks = _reference_refine_vertices(g, blocks, signature)
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    edges = _reference_group_by(
        g.edges, lambda e: (a.label(e), block_of[g.src(e)], block_of[g.dst(e)])
    )
    return AutomaticRelation.from_classes(blocks, edges)


def _reference_maximum(g):
    """Vertices split by (block, set of target blocks) from one block; edges
    grouped by end blocks."""
    if not g.vertices:
        return AutomaticRelation.from_classes([], [])

    def signature(v, block_of):
        return block_of[v], frozenset(block_of[g.dst(e)] for e in g.out_edges(v))

    blocks = _reference_refine_vertices(g, [frozenset(g.vertices)], signature)
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    edges = _reference_group_by(g.edges, lambda e: (block_of[g.src(e)], block_of[g.dst(e)]))
    return AutomaticRelation.from_classes(blocks, edges)


def _reference_meet(g, r1, r2):
    """Pairwise class intersections, regrouped on string ids until neither
    block count changes."""
    v1, v2 = class_of(r1.vertex_classes), class_of(r2.vertex_classes)
    e1, e2 = class_of(r1.edge_classes), class_of(r2.edge_classes)
    vblocks = _reference_group_by(g.vertices, lambda v: (v1[v], v2[v]))
    eblocks = _reference_group_by(g.edges, lambda e: (e1[e], e2[e]))
    while True:
        vb_of = {v: i for i, b in enumerate(vblocks) for v in b}
        eb_of = {e: i for i, b in enumerate(eblocks) for e in b}
        new_e = _reference_group_by(g.edges, lambda e: (eb_of[e], vb_of[g.src(e)], vb_of[g.dst(e)]))
        new_v = _reference_group_by(
            g.vertices, lambda v: (vb_of[v], frozenset(eb_of[e] for e in g.out_edges(v)))
        )
        if len(new_v) == len(vblocks) and len(new_e) == len(eblocks):
            return AutomaticRelation.from_classes(vblocks, eblocks)
        vblocks, eblocks = new_v, new_e


def _canonical(r):
    """r as it comes back from sorting its classes."""
    return AutomaticRelation.from_classes(r.vertex_classes, r.edge_classes)


@st.composite
def multidigraphs(draw, max_vertices=4, max_edges=6):
    """Digraphs with loops and parallel edges; the edge ids are shuffled, so
    their sorted order is not their order of creation."""
    vs = [f"v{i}" for i in range(draw(st.integers(0, max_vertices)))]
    vertex = st.sampled_from(vs or [""])
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges if vs else 0))
    names = draw(st.permutations([f"e{i}" for i in range(len(pairs))]))
    return DiGraph(vs, [(e, s, t) for e, (s, t) in zip(names, pairs)])


@st.composite
def partitions(draw, items):
    """A partition of items into at most three classes."""
    blocks = draw(st.lists(st.integers(0, 2), min_size=len(items), max_size=len(items)))
    groups = {}
    for x, b in zip(items, blocks):
        groups.setdefault(b, []).append(x)
    return list(groups.values())


@st.composite
def graphs_with_class_lists(draw):
    """A graph with two class lists: partitions half of the time, otherwise
    lists over its ids and one stray id that may overlap or miss ids."""
    g = draw(multidigraphs(max_vertices=3, max_edges=5))
    if draw(st.booleans()):
        return g, draw(partitions(list(g.vertices))), draw(partitions(list(g.edges)))
    ids = st.sampled_from(list(g.vertices) + list(g.edges) + ["stray"])
    classes = st.lists(st.lists(ids, min_size=1, max_size=3), max_size=4)
    return g, draw(classes), draw(classes)


class TestAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(multidigraphs())
    @example(DiGraph([], []))
    @example(DiGraph(["u"], [("a", "u", "u"), ("b", "u", "u"), ("c", "u", "u")]))
    def test_enumeration_matches_filtered_brute_force(self, g):
        # built directly, the relations are the brute-force ones in its order
        assert enumerate_automatic_relations(g) == _reference_enumeration(g)

    @settings(max_examples=300, deadline=None)
    @given(multidigraphs())
    @example(DiGraph([f"v{i}" for i in range(7)], []))
    @example(DiGraph(["u", "w"], [(f"e{i}", "u", "u") for i in range(7)] + [("f", "w", "u")]))
    def test_enumeration_matches_the_direct_reference_in_order(self, g):
        # tabulated partitions give the relations, canonical, in the order
        # of the recursive enumerator; the examples stream partitions of 7
        assert [(r.domain, r.vector) for r in enumerate_automatic_relations(g)] == [
            (r.domain, r.vector) for r in _reference_enumerate(g)]

    @settings(max_examples=200, deadline=None)
    @given(multidigraphs(), st.data())
    def test_leq_matches_class_dicts(self, g, data):
        rels = enumerate_automatic_relations(g)[:6] + [
            AutomaticRelation.from_classes(
                data.draw(partitions(list(g.vertices))), data.draw(partitions(list(g.edges)))
            )
            for _ in range(4)
        ]
        for r1 in rels:
            for r2 in rels:
                assert relation_leq(r1, r2) == _reference_leq(r1, r2)

    def test_leq_refuses_relations_on_different_sets(self):
        with pytest.raises(DomainError):
            relation_leq(AutomaticRelation.identity(c2()), AutomaticRelation.identity(p2()))

    def test_leq_refuses_classes_that_do_not_partition(self):
        # "a" lies in two classes, so they make no relation to order: they
        # are refused where they enter
        with pytest.raises(DomainError, match="do not partition"):
            AutomaticRelation.from_classes([["a", "b"], ["a"]], [])

    def test_a_non_canonical_numbering_is_its_canonical_relation(self):
        # a relation that compared unequal to its own canonical form used to
        # check automatic and then fail its own round trip; any numbering
        # given to the constructor now comes out canonical
        g = c2()
        total = ((("a", "b"),), (("e1", "e2"),))
        identity = ((("a",), ("b",)), (("e1",), ("e2",)))
        for keys, classes in (((7, 7, "x", "x"), total), ((1, 0, 1, 0), identity),
                              ((1, 0, 9, 3), identity)):
            r = AutomaticRelation((("a", "b"), ("e1", "e2")), keys)
            assert (r.vertex_classes, r.edge_classes) == classes
            canonical = AutomaticRelation.from_classes(*classes)
            assert r == canonical and hash(r) == hash(canonical)
            assert r.vector == canonical.vector
            assert is_automatic(g, r).ok and automatic_to_mn_roundtrip(g, r).ok
        with pytest.raises(DomainError, match="differ in length"):
            AutomaticRelation((("a", "b"), ("e1", "e2")), (0, 0, 0))

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_class_lists())
    @example((p2(), [["x", "y"]], [["e"]]))
    @example((c2(), [["a"], ["b"]], [["e1", "e2"]]))
    @example((DiGraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "a")]),
              [["a"], ["b"]], [["e1", "e2"]]))
    @example((c2(), [["a"]], [["e1", "e2"]]))
    @example((c2(), [["a", "b"], ["a"]], [["e1", "e2"]]))
    def test_is_automatic_matches_reference(self, case):
        g, vertex_classes, edge_classes = case
        if _overlaps(vertex_classes) or _overlaps(edge_classes):
            with pytest.raises(DomainError, match="do not partition"):
                AutomaticRelation.from_classes(vertex_classes, edge_classes)
            return
        r = AutomaticRelation.from_classes(vertex_classes, edge_classes)
        try:
            want = _reference_is_automatic(g, r)
        except DomainError:
            with pytest.raises(DomainError):
                is_automatic(g, r)
            return
        for _ in range(2):  # the second answer may be a remembered one
            rep = is_automatic(g, r)
            assert (rep.ok, rep.reason, rep.witness) == want

    def test_is_automatic_on_every_partition_pair(self):
        # every vertex x edge partition pair of a few small graphs, so that
        # both clauses fail somewhere, on both ends for compatibility
        graphs = [c2(), p2(), par2(), loop2(), c4(),
                  DiGraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c"), ("g", "b", "b")])]
        seen = set()
        for g in graphs:
            for vpart in _reference_partitions(list(g.vertices)):
                for epart in _reference_partitions(list(g.edges)):
                    r = AutomaticRelation.from_classes(vpart, epart)
                    want = _reference_is_automatic(g, r)
                    rep = is_automatic(g, r)
                    assert (rep.ok, rep.reason, rep.witness) == want
                    seen.add((want[1], want[2][2:]))
        assert seen == {("", ()), ("bisimilarity", ()),
                        ("compatibility", ("src",)), ("compatibility", ("dst",))}

    def test_verdict_does_not_carry_to_another_graph_object(self, monkeypatch):
        # a check builds the graph's integer view; a remembered verdict does not
        builds = []

        class CountingView(IntView):
            __slots__ = ()

            def __new__(cls, *fields):
                view = super().__new__(cls, *fields)
                builds.append(view)
                return view

        monkeypatch.setattr(digraph, "IntView", CountingView)
        g = c2()
        h = DiGraph(g.vertices, g.edge_list())
        r = AutomaticRelation.from_classes([["a", "b"]], [["e1", "e2"]])
        assert is_automatic(g, r).ok
        assert h == g and h is not g and "int_view" not in vars(h)
        assert is_automatic(h, r).ok  # checked afresh: h's own view was built
        assert any(x is vars(h)["int_view"] for x in builds)
        vars(h).pop("int_view")  # a check now has to build the view again
        count = len(builds)
        assert is_automatic(h, r).ok and len(builds) == count  # remembered
        # same ids, but both edges leave a: b lacks an e1-related edge
        f = DiGraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        rep = is_automatic(f, r)
        assert (rep.ok, rep.reason, rep.witness) == (False, "bisimilarity", ("b", "e1"))
        assert is_automatic(g, r).ok and is_automatic(h, r).ok

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_remembered_verdicts_follow_the_graph(self, data):
        # one relation asked about in turn on graphs with the same ids: the
        # graph, a rewiring of it and an equal copy
        g = data.draw(multidigraphs(max_vertices=3, max_edges=4))
        vs = list(g.vertices)
        vertex = st.sampled_from(vs or [""])
        h = DiGraph(vs, [(e, data.draw(vertex), data.draw(vertex)) for e in g.edges])
        r = AutomaticRelation.from_classes(
            data.draw(partitions(vs)), data.draw(partitions(list(g.edges)))
        )
        for graph in (g, h, g, DiGraph(vs, g.edge_list()), h, g):
            rep = is_automatic(graph, r)
            assert (rep.ok, rep.reason, rep.witness) == _reference_is_automatic(graph, r)

    @settings(max_examples=300, deadline=None)
    @given(multidigraphs(), st.data())
    def test_mn_refine_matches_signature_splitting(self, g, data):
        # random labels and a random family of disjoint final subsets
        labels = {e: data.draw(st.sampled_from("abc")) for e in g.edges}
        chosen = [v for v in g.vertices if data.draw(st.booleans())]
        subsets = data.draw(partitions(chosen))
        a = SemiAutomaton(g, set(labels.values()), labels)
        out = mn_refine(a, FinalFamily.of(*subsets))
        assert out == _reference_mn_refine(a, FinalFamily.of(*subsets))
        assert out == _canonical(out)

    @settings(max_examples=300, deadline=None)
    @given(multidigraphs())
    @example(DiGraph([], []))
    @example(DiGraph(["u"], []))
    def test_maximum_matches_signature_splitting(self, g):
        out = maximum(g)
        assert out == _reference_maximum(g)
        assert out == _canonical(out)

    @settings(max_examples=150, deadline=None)
    @given(multidigraphs(), st.data())
    def test_meet_and_join_on_enumerated_pairs(self, g, data):
        # meet against the string-keyed fixpoint; both outputs already canonical
        rels = enumerate_automatic_relations(g)
        relation = st.sampled_from(rels)
        for _ in range(6):
            r1, r2 = data.draw(relation), data.draw(relation)
            m, j = meet(g, r1, r2), join(g, r1, r2)
            assert m == _reference_meet(g, r1, r2)
            assert m == _canonical(m) and j == _canonical(j)

    @settings(max_examples=150, deadline=None)
    @given(multidigraphs(), st.data())
    def test_layer_relations_index_like_their_classes(self, g, data):
        # every relation the layer builds is a vector on the graph's domain
        # object; each must index as the same classes do when built afresh,
        # whose domain is equal but another object
        rels = enumerate_automatic_relations(g)
        assert all(r.domain is g.int_view.domain for r in rels)
        relation = st.sampled_from(rels)
        labels = {e: data.draw(st.sampled_from("ab")) for e in g.edges}
        a = SemiAutomaton(g, set(labels.values()), labels)
        finals = data.draw(partitions([v for v in g.vertices if data.draw(st.booleans())]))
        r1, r2 = data.draw(relation), data.draw(relation)
        _, can = quotient(g, r1)
        built = [mn_refine(a, FinalFamily.of(*finals)), maximum(g), meet(g, r1, r2),
                 join(g, r1, r2), AutomaticRelation.identity(g), canonical_relation(can)]
        assert all(r.domain is g.int_view.domain for r in built)
        for r in built:
            fresh, unchecked = _canonical(r), _canonical(r)
            assert (r.vector, r.mask) == (fresh.vector, fresh.mask)
            for s in rels + built:
                for x, y in ((r, unchecked), (unchecked, r), (unchecked, s), (s, unchecked)):
                    assert relation_leq(x, y) == _reference_leq(x, y)
            assert unchecked.domain == r.domain
            assert unchecked.domain is not r.domain
            want_report, got_report = is_automatic(g, fresh), is_automatic(g, r)
            assert (got_report.ok, got_report.reason, got_report.witness) == (
                want_report.ok, want_report.reason, want_report.witness)

    @settings(max_examples=200, deadline=None)
    @given(multidigraphs(), st.data())
    def test_layer_relations_carry_their_verdict(self, g, data):
        # what the layer builds is automatic on g by construction and is
        # never checked there, so the reference checks it here
        rels = enumerate_automatic_relations(g)
        relation = st.sampled_from(rels)
        r1, r2 = data.draw(relation), data.draw(relation)
        _, can = quotient(g, r1)
        labels = {e: data.draw(st.sampled_from("ab")) for e in g.edges}
        a = SemiAutomaton(g, set(labels.values()), labels)
        finals = data.draw(partitions([v for v in g.vertices if data.draw(st.booleans())]))
        vertex_keys, edge_keys = (data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
                                  for n in (len(g.vertices), len(g.edges)))
        built = rels + [
            AutomaticRelation.identity(g), canonical_relation(can),
            _coarsest_automatic(g, vertex_keys, edge_keys),
            mn_refine(a, FinalFamily.of(*finals)), maximum(g), meet(g, r1, r2), join(g, r1, r2),
        ]
        for r in built:
            assert r.verified_on is g
            assert r.domain is g.int_view.domain
            assert r.vector == AutomaticRelation(r.domain, r.vector).vector  # born canonical
            assert _reference_is_automatic(g, r)[0]

    def test_entry_checks_refuse_a_relation_that_is_not_automatic(self):
        # p2's vertex merge partitions its ids but fails bisimilarity; no
        # function reads it as automatic
        g = p2()
        bad = AutomaticRelation.from_classes([["x", "y"]], [["e"]])
        ident = AutomaticRelation.identity(g)
        calls = [lambda: quotient(g, bad), lambda: is_cover_relation(g, bad),
                 lambda: automatic_to_mn_roundtrip(g, bad),
                 lambda: join(g, bad, ident), lambda: join(g, ident, bad),
                 lambda: meet(g, bad, ident), lambda: meet(g, ident, bad)]
        for call in calls:
            with pytest.raises(DomainError):
                call()
        assert bad.verified_on is None

    @settings(max_examples=200, deadline=None)
    @given(multidigraphs(), st.data())
    def test_one_relation_three_constructions(self, g, data):
        # built by the layer, from its classes, and from its class numbers
        # relabelled by an injection on an equal but distinct domain object
        rels = enumerate_automatic_relations(g)
        r1, r2 = data.draw(st.sampled_from(rels)), data.draw(st.sampled_from(rels))
        how = data.draw(st.sampled_from(["meet", "join", "mn_refine"]))
        if how == "mn_refine":
            labels = {e: data.draw(st.sampled_from("ab")) for e in g.edges}
            a = SemiAutomaton(g, set(labels.values()), labels)
            finals = data.draw(partitions([v for v in g.vertices if data.draw(st.booleans())]))
            layer = mn_refine(a, FinalFamily.of(*finals))
        else:
            layer = {"meet": meet, "join": join}[how](g, r1, r2)
        by_classes = AutomaticRelation.from_classes(layer.vertex_classes, layer.edge_classes)
        # shifted, the relabelling is never the identity on a non-empty vector
        shift = data.draw(st.integers(1, 50))
        relabel = [k + shift for k in data.draw(st.permutations(range(len(layer.vector))))]
        domain = (tuple(g.vertices), tuple(sorted(g.edges)))
        by_keys = AutomaticRelation(domain, [relabel[k] for k in layer.vector])
        three = (layer, by_classes, by_keys)
        for x in three:
            for y in three:
                assert x == y and hash(x) == hash(y)
            assert relation_from_json(relation_to_json(x)) == x
        assert len(set(three)) == 1


class TestOverlappingIds:
    # a 4-cycle whose edges are named after vertices: vertex a and edge a
    # lie in different classes, so one shared id->class map refuses them
    def graph(self):
        return DiGraph("abcd", [("b", "a", "b"), ("c", "b", "c"), ("d", "c", "d"), ("a", "d", "a")])

    def relation(self):
        return AutomaticRelation.from_classes([["a", "c"], ["b", "d"]], [["b", "d"], ["a", "c"]])

    def test_the_layer_keeps_vertex_and_edge_ids_apart(self):
        g, r = self.graph(), self.relation()
        assert r.vertex_classes == (("a", "c"), ("b", "d"))
        assert r.edge_classes == (("a", "c"), ("b", "d"))
        assert r.vector == (0, 1, 0, 1, 2, 3, 2, 3)
        assert relation_from_json(relation_to_json(r)) == r
        assert is_automatic(g, r).ok and is_cover_relation(g, r)
        q, can = quotient(g, r)
        assert q == DiGraph("ab", [("a", "b", "a"), ("b", "a", "b")])
        assert is_directed_cover(can).ok
        back, iota = factorize(can)
        assert back == r and iota.is_isomorphism()
        assert automatic_to_mn_roundtrip(g, r).ok

    def test_rel_check(self, tmp_path):
        g, rel, out = tmp_path / "g.json", tmp_path / "r.json", tmp_path / "out.json"
        g.write_text(formats.dumps(formats.digraph_to_json(self.graph())))
        rel.write_text(formats.dumps({"vertex_classes": [["a", "c"], ["b", "d"]],
                                      "edge_classes": [["b", "d"], ["a", "c"]]}))
        assert main(["rel", "check", str(g), str(rel), "-o", str(out)]) == 0
        assert formats.loads(out.read_text()) == {"automatic": True, "cover": True}
