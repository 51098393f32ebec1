import ast
import inspect
import math
import sys
from collections import Counter
from dataclasses import fields
from itertools import chain, combinations, permutations, product, repeat
from operator import delitem, setitem
from types import SimpleNamespace
from typing import NamedTuple

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regulus import (
    CoverSearchSpec,
    DiGraph,
    DomainError,
    GraphMorphism,
    UndirectedGraph,
    UndirectedMorphism,
    adjunction_inverse,
    adjunction_transfer,
    bidirect,
    excise,
    extend_over_excision,
    extract_cover,
    forget,
    is_directed_cover,
    is_directed_emulator,
    is_undirected_cover,
    is_undirected_emulator,
    lift_direction,
    opposite,
    pullback,
    relabel,
    search_covers,
    simplify,
    tautological,
)
from regulus.corpus import (
    amalgamation_loop,
    extraction_pair,
    fork_covers_par2,
    fork_nonemulator,
    loop2_to_loop1,
    par2_swap,
    path_4_over_3,
)
from regulus import emulation, genus
from regulus.digraph import _closure, weakly_connected
from regulus.emulation import (
    CoverCertificate,
    SearchOutcome,
    SearchStats,
    _build_total,
    _edge_cap,
    _face_floor,
    _fiber_vectors_within_bound,
    excise_restrict,
    r_image_morphism,
)
from regulus.errors import BudgetError
from regulus.formats import certificate_from_json, certificate_to_json, dumps, loads
from regulus.genus import GenusResult, genus_exact, is_planar

from conftest import (
    c2,
    compose_morphisms,
    identity_morphism,
    loop1,
    multidigraph,
    multidigraphs,
    random_digraph,
    random_emulator,
    random_morphism_into,
    random_undirected_emulator,
    undirected_star,
)


class TestDirectedPredicates:
    def test_loop2_to_loop1_emulator_not_cover(self):
        m = loop2_to_loop1()
        assert is_directed_emulator(m).ok
        rep = is_directed_cover(m)
        assert not rep.ok and rep.reason == "lift not unique"

    def test_fork_epimorphism_not_emulator(self):
        rep = is_directed_emulator(fork_nonemulator())
        assert not rep.ok
        assert rep.reason == "missing outgoing lift"
        assert rep.witness[1] in ("u0", "v0")

    def test_amalgamation_is_emulator(self):
        assert is_directed_emulator(amalgamation_loop()).ok

    def test_swap_is_emulator_and_cover(self):
        m = par2_swap()
        assert is_directed_emulator(m).ok
        assert is_directed_cover(m).ok

    def test_c2_wraps_loop(self):
        m = GraphMorphism(c2(), loop1(), {"a": "v", "b": "v"}, {"e1": "g", "e2": "g"})
        assert is_directed_cover(m).ok

    def test_composition_closure(self, rng):
        for _ in range(15):
            base = random_digraph(rng, max_vertices=3, max_edges=4)
            if not base.vertices:
                continue
            mid = random_emulator(rng, base, max_fiber=2)
            top = random_emulator(rng, mid.source, max_fiber=2)
            comp = compose_morphisms(mid, top)
            assert is_directed_emulator(comp).ok
            midc = extract_cover(mid)
            topc = extract_cover(
                GraphMorphism(top.source, midc.source, top.p, top.q)
                if set(top.q.values()) <= set(midc.source.edges)
                else random_emulator(rng, midc.source, max_fiber=2)
            )
            compc = compose_morphisms(midc, topc)
            assert is_directed_cover(compc).ok


def kept(holder) -> set[str]:
    """The names of the results kept on a holder: what it holds beyond its
    fields."""
    return vars(holder).keys() - {f.name for f in fields(holder)}


class TestKeptVerdicts:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["emulator", "morphism", "identity"]))
    def test_kept_verdicts_match_a_fresh_copy(self, rnd, kind):
        # each predicate answers as on a fresh copy of the maps, whether it
        # is asked first or reads the verdict kept on the object
        base = random_digraph(rnd, max_vertices=4, max_edges=5)
        if kind == "identity":
            m = identity_morphism(base)
        else:
            m = (random_emulator if kind == "emulator" else random_morphism_into)(rnd, base)
        checks = [is_directed_emulator, is_directed_cover, GraphMorphism.is_isomorphism]
        for _ in range(2):
            for check in checks:
                fresh = GraphMorphism(m.source, m.target, dict(m.p), dict(m.q))
                assert check(m) == check(fresh)
        assert kept(m) == {"_emulator", "_cover", "_isomorphism", "_int_maps"}

    def test_each_predicate_keeps_its_own_verdict(self):
        # an emulator that is no cover: its kept emulator verdict does not
        # answer the cover query, nor the other way round
        m = loop2_to_loop1()
        assert is_directed_emulator(m).ok
        assert not is_directed_cover(m).ok and not m.is_isomorphism()
        m = loop2_to_loop1()
        assert not is_directed_cover(m).ok
        assert is_directed_emulator(m).ok

    def test_an_invalid_morphism_raises_on_every_call(self):
        m = GraphMorphism(c2(), c2(), {"a": "a", "b": "b"}, {"e1": "e2", "e2": "e1"})
        assert not m.is_isomorphism()
        for check in (is_directed_emulator, is_directed_cover) * 2:
            with pytest.raises(DomainError):
                check(m)
        assert kept(m) == {"_isomorphism", "_int_maps"}


def exposed_maps() -> dict:
    """Each map a graph, morphism or semi-automaton hands out, by holder."""
    g = c2()
    u = forget(g)
    m = par2_swap()
    um = UndirectedMorphism(u, u, {v: v for v in u.vertices}, {e: e for e in u.edges})
    a = tautological(g)
    _, lam = relabel(a, {x: "x" for x in a.alphabet})
    return {
        "DiGraph.edges": g.edges, "UndirectedGraph.edges": u.edges,
        "GraphMorphism.p": m.p, "GraphMorphism.q": m.q,
        "UndirectedMorphism.p": um.p, "UndirectedMorphism.q": um.q,
        "SemiMorphism.alpha": lam.alpha,
        "SemiAutomaton.table": a.table, "SemiAutomaton.table-row": a.table["a"],
    }


class TestReadOnlyMaps:
    # kept verdicts, stars and tables stay sound only while the maps they
    # were computed from cannot change
    @pytest.mark.parametrize("holder", sorted(exposed_maps()))
    def test_every_mutation_raises(self, holder):
        maps = exposed_maps()[holder]
        key = next(iter(maps))
        before = dict(maps)
        for mutate in (lambda: setitem(maps, key, maps[key]),
                       lambda: setitem(maps, "new", maps[key]),
                       lambda: delitem(maps, key)):
            with pytest.raises(TypeError):
                mutate()
        assert dict(maps) == before

    def test_par2_swap_keeps_a_sound_verdict(self):
        # writing q[a] = q[b] once left the kept cover and isomorphism
        # verdicts at True, where a fresh copy of the maps misses a lift
        m = par2_swap()
        assert is_directed_cover(m).ok and m.is_isomorphism()
        e0, e1 = sorted(m.q)
        with pytest.raises(TypeError):
            m.q[e0] = m.q[e1]
        fresh = GraphMorphism(m.source, m.target, dict(m.p), dict(m.q))
        assert is_directed_cover(fresh).ok and fresh.is_isomorphism()
        g = m.source
        with pytest.raises(TypeError):
            g.edges["zz"] = ("v", "w")
        assert g.out_edges("v") == ("a", "b")


class StarReport(NamedTuple):
    out_map: dict[str, str]
    in_map: dict[str, str]
    out_injective: bool
    out_surjective: bool
    in_injective: bool
    in_surjective: bool


def star_maps(phi: GraphMorphism, x: str) -> StarReport:
    """Restrictions of the edge map to the outgoing and incoming stars at x,
    with their classification: the star definition of emulators and covers
    written out, a reference for the predicates."""
    out_map = {e: phi.q[e] for e in phi.source.out_edges(x)}
    in_map = {e: phi.q[e] for e in phi.source.in_edges(x)}
    img = phi.p[x]
    return StarReport(
        out_map,
        in_map,
        len(set(out_map.values())) == len(out_map),
        set(out_map.values()) == set(phi.target.out_edges(img)),
        len(set(in_map.values())) == len(in_map),
        set(in_map.values()) == set(phi.target.in_edges(img)),
    )


def incoming_emulator(phi: GraphMorphism):
    """The dual notion, every incoming edge of the target lifting through
    every preimage of its target vertex: a directed emulator between the
    opposite graphs."""
    return is_directed_emulator(
        GraphMorphism(opposite(phi.source), opposite(phi.target), phi.p, phi.q))


class TestStarMaps:
    def test_loop2_star_two_to_one(self):
        rep = star_maps(loop2_to_loop1(), "u")
        assert rep.out_surjective and not rep.out_injective
        assert len(rep.out_map) == 2

    def test_isomorphism_bijective_everywhere(self):
        m = par2_swap()
        for v in m.source.vertices:
            rep = star_maps(m, v)
            assert rep.out_injective and rep.out_surjective
            assert rep.in_injective and rep.in_surjective

    def test_incoming_via_opposite(self):
        # the amalgamation map is an incoming emulator too, by symmetry
        assert incoming_emulator(amalgamation_loop()).ok
        # the fork map fails outgoing lifting but every incoming star lifts:
        # incoming and outgoing emulation are genuinely different notions
        assert not is_directed_emulator(fork_nonemulator()).ok
        assert incoming_emulator(fork_nonemulator()).ok


class TestExtractCover:
    def test_loop2_keeps_least_loop(self):
        out = extract_cover(loop2_to_loop1())
        assert set(out.source.edges) == {"e"}
        assert set(out.source.vertices) == {"u"}

    def test_cover_unchanged(self):
        m = GraphMorphism(c2(), loop1(), {"a": "v", "b": "v"}, {"e1": "g", "e2": "g"})
        out = extract_cover(m)
        assert out.source == m.source
        assert out.q == m.q

    def test_extraction_pair_deterministic_choice(self):
        out = extract_cover(extraction_pair())
        assert set(out.source.vertices) == {"v1", "v2", "w1", "w2"}
        # v2 keeps its least lift e2 and drops e3
        assert set(out.source.edges) == {"e1", "e2"}
        assert is_directed_cover(out).ok

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_emulators_extract_to_covers(self, rnd):
        # extract_cover checks its input only; its output is a cover
        base = random_digraph(rnd, max_vertices=4, max_edges=5)
        m = random_emulator(rnd, base)
        out = extract_cover(m)
        assert set(out.source.vertices) == set(m.source.vertices)
        assert is_directed_cover(out).ok


class TestExciseExtension:
    def test_two_fiber_loops_recreated(self):
        base = loop1()
        fibre = DiGraph(["x0", "x1"], [])
        psi = GraphMorphism(fibre, excise(base), {"x0": "v", "x1": "v"}, {})
        out = extend_over_excision(psi, base)
        assert sorted(out.source.edges) == ["g@x0", "g@x1"]
        assert is_directed_cover(out).ok

    def test_loopless_base_unchanged(self):
        base = c2()
        ident = identity_morphism(excise(base))
        out = extend_over_excision(ident, base)
        assert out.source == base
        assert is_directed_cover(out).ok

    def test_target_mismatch_rejected(self):
        with pytest.raises(DomainError):
            extend_over_excision(identity_morphism(c2()), loop1())

    def test_round_trip_with_excision(self, rng):
        for _ in range(10):
            h = random_digraph(rng, max_vertices=4, max_edges=6)
            if not h.vertices:
                continue
            core = excise(h)
            m = random_emulator(rng, core, max_fiber=2)
            cov = extract_cover(m)
            ext = extend_over_excision(cov, h)
            assert is_directed_cover(ext).ok
            assert excise_restrict(ext).source == cov.source


class TestUndirectedPredicates:
    def test_path_4_over_3_emulator_without_cover_subgraph(self):
        m = path_4_over_3()
        assert is_undirected_emulator(m).ok
        assert not is_undirected_cover(m).ok
        # exhaustively: no spanning subgraph is a cover
        src = m.source
        edge_ids = sorted(src.edges)
        found = False
        for k in range(len(edge_ids) + 1):
            for keep in combinations(edge_ids, k):
                sub = UndirectedGraph(
                    src.vertices, [(e, src.ends(e)) for e in keep]
                )
                try:
                    cand = UndirectedMorphism(
                        sub, m.target, dict(m.p), {e: m.q[e] for e in keep}
                    )
                    if is_undirected_cover(cand).ok:
                        found = True
                except DomainError:
                    continue
        assert not found

    def test_identity_is_cover(self):
        g = forget(c2())
        ident = UndirectedMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})
        assert is_undirected_cover(ident).ok

    def test_wrapped_even_cycle_covers(self):
        c4u = UndirectedGraph(
            ["a", "b", "c", "d"],
            [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "d")), ("e4", ("d", "a"))],
        )
        c2u = UndirectedGraph(["x", "y"], [("f1", ("x", "y")), ("f2", ("x", "y"))])
        m = UndirectedMorphism(
            c4u,
            c2u,
            {"a": "x", "b": "y", "c": "x", "d": "y"},
            {"e1": "f1", "e2": "f2", "e3": "f1", "e4": "f2"},
        )
        assert is_undirected_cover(m).ok


@st.composite
def star_morphisms(draw, directed: bool):
    """A valid morphism onto a small multigraph with loops and parallel
    edges, directed or (forgetting directions) undirected.  Each target
    vertex gets a fibre of 1 to 2 vertices, or of 0 to 2 when a drawn flag
    allows a map that is not onto.  On one drawn side of every
    target edge, each fibre vertex gets 0 to 2 lifts of it, each to a drawn
    vertex of the fibre on the other side.  Empty fibres and missing or
    repeated lifts make non-emulators and non-covers."""
    target = draw(multidigraphs(max_vertices=3, max_edges=5))
    least = int(not draw(st.booleans()))
    fibres = {v: [f"{v}.{i}" for i in range(draw(st.integers(least, 2)))] for v in target.vertices}
    side = draw(st.sampled_from((0, 1)))
    edges, q = [], {}
    for f, ends in target.edges.items():
        near, far = fibres[ends[side]], fibres[ends[1 - side]]
        for x in near if far else ():
            for _ in range(draw(st.integers(0, 2))):
                e, y = f"{f}.{len(edges)}", draw(st.sampled_from(far))
                edges.append((e, x, y) if side == 0 else (e, y, x))
                q[e] = f
    # the maps in drawn order, so no predicate can lean on their order
    p = dict(draw(st.permutations([(x, v) for v, xs in fibres.items() for x in xs])))
    q = dict(draw(st.permutations(list(q.items()))))
    if directed:
        return GraphMorphism(DiGraph(p, edges), target, p, q)
    source = UndirectedGraph(p, [(e, (x, y)) for e, x, y in edges])
    return UndirectedMorphism(source, forget(target), p, q)


def _star_reference(phi, star, cover: bool, missing: str):
    """(ok, reason, witness) read off the definition after the predicate's
    surjectivity step: each source vertex's star maps onto the star of its
    image, and for a cover bijectively.  The witness is the least failing
    (target edge, source vertex) pair of the reason."""
    if isinstance(phi, GraphMorphism):
        unhit = sorted(set(phi.target.vertices) - set(phi.p.values()))
        if unhit:
            return False, "vertex map not surjective", tuple(unhit[:2])
    elif not phi.is_surjective():
        return False, "not an epimorphism", ()
    unlifted, repeated = set(), set()
    for x in phi.source.vertices:
        images = Counter(phi.q[e] for e in star(phi.source, x))
        for f in star(phi.target, phi.p[x]):
            if images[f] != 1:
                (unlifted if images[f] == 0 else repeated).add((f, x))
    if unlifted:
        return False, missing, min(unlifted)
    if cover and repeated:
        return False, "lift not unique", min(repeated)
    return True, "", ()


class TestStarPredicatesAgainstDefinition:
    def test_witness_is_the_least_failing_pair(self):
        # neither the order of q nor the end of an undirected edge decides
        # which failing pair is reported
        two_loops = DiGraph(["v"], [("g", "v", "v"), ("h", "v", "v")])
        four_loops = DiGraph(["u"], [(e, "u", "u") for e in "abcd"])
        q = {"a": "h", "b": "h", "c": "g", "d": "g"}
        m = GraphMorphism(four_loops, two_loops, {"u": "v"}, q)
        assert is_directed_cover(m).witness == ("g", "u")
        edge = UndirectedGraph(["x", "y"], [("f", ("x", "y"))])
        source = UndirectedGraph(["a", "b", "w", "z"], [("e", ("w", "b"))])
        um = UndirectedMorphism(source, edge, {"a": "y", "b": "y", "w": "x", "z": "x"}, {"e": "f"})
        assert is_undirected_emulator(um).witness == ("f", "a")

    @pytest.mark.parametrize(
        "check, directed, star, cover, missing",
        [
            (is_directed_emulator, True, DiGraph.out_edges, False, "missing outgoing lift"),
            (is_directed_cover, True, DiGraph.out_edges, True, "missing outgoing lift"),
            (incoming_emulator, True, DiGraph.in_edges, False, "missing outgoing lift"),
            (is_undirected_emulator, False, undirected_star, False, "missing lift"),
            (is_undirected_cover, False, undirected_star, True, "missing lift"),
        ],
        ids=["emulator", "cover", "incoming", "undirected-emulator", "undirected-cover"],
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_verdict_reason_and_witness(self, check, directed, star, cover, missing, data):
        phi = data.draw(star_morphisms(directed))
        rep = check(phi)
        assert (rep.ok, rep.reason, rep.witness) == _star_reference(phi, star, cover, missing)


class TestAdjunction:
    def test_round_trip_identity(self, rng):
        for _ in range(20):
            g = random_digraph(rng, max_vertices=4, max_edges=6)
            h = forget(random_digraph(rng, max_vertices=3, max_edges=4))
            double = bidirect(h)
            if not double.vertices:
                continue
            phi = random_morphism_into(rng, double, max_fiber=2)
            psi = adjunction_transfer(phi, h)
            back = adjunction_inverse(psi, phi.source)
            assert back.p == phi.p and back.q == phi.q
            again = adjunction_transfer(back, h)
            assert again.p == psi.p and again.q == psi.q

    def test_double_preserves_emulators(self, rng):
        for _ in range(15):
            base_any = random_digraph(rng, max_vertices=3, max_edges=4)
            h = forget(base_any)
            if not h.vertices:
                continue
            um = random_undirected_emulator(rng, _strip_loops(h))
            if not um.source.vertices:
                continue
            doubled_src = bidirect(um.source)
            doubled = GraphMorphism(
                doubled_src,
                bidirect(um.target),
                dict(um.p),
                {
                    e: _double_image(um, doubled_src, e)
                    for e in doubled_src.edges
                },
            )
            assert is_undirected_emulator(um).ok
            assert is_directed_emulator(doubled).ok

    def test_cover_counterexample(self):
        # the directed 2-cycle covers the bidirection of a single edge, but
        # its transfer is an emulator that is not an undirected cover
        h = UndirectedGraph(["x", "y"], [("e", ("x", "y"))])
        double = bidirect(h)
        m = GraphMorphism(
            c2(),
            double,
            {"a": "x", "b": "y"},
            {"e1": "e:x>y", "e2": "e:y>x"},
        )
        assert is_directed_cover(m).ok
        psi = adjunction_transfer(m, h)
        assert is_undirected_emulator(psi).ok
        assert not is_undirected_cover(psi).ok


def _strip_loops(h: UndirectedGraph) -> UndirectedGraph:
    return UndirectedGraph(
        h.vertices, [(e, h.ends(e)) for e in h.edges if not h.is_loop(e)]
    )


def _double_image(um, doubled_src, e):
    from regulus.digraph import bidirect_edge_id

    s, t = doubled_src.ends(e)
    undirected_id = e.split(":")[0]
    return bidirect_edge_id(um.q[undirected_id], um.p[s], um.p[t])


class TestLiftDirection:
    def test_identity_emulator_keeps_direction(self):
        g = forget(c2())
        ident = UndirectedMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})
        direction = c2()
        out = lift_direction(ident, direction)
        assert out.source == direction

    def test_path_4_over_3_lifts(self):
        m = path_4_over_3()
        direction = DiGraph(
            ["g1", "g2", "g3"], [("x", "g1", "g2"), ("y", "g2", "g3")]
        )
        out = lift_direction(m, direction)
        assert is_directed_emulator(out).ok
        assert forget(out.source) == m.source

    def test_two_fold_cover_of_edge(self):
        src = UndirectedGraph(
            ["x0", "x1", "y0", "y1"], [("e0", ("x0", "y0")), ("e1", ("x1", "y1"))]
        )
        tgt = UndirectedGraph(["x", "y"], [("e", ("x", "y"))])
        m = UndirectedMorphism(
            src,
            tgt,
            {"x0": "x", "x1": "x", "y0": "y", "y1": "y"},
            {"e0": "e", "e1": "e"},
        )
        direction = DiGraph(["x", "y"], [("e", "x", "y")])
        out = lift_direction(m, direction)
        assert is_directed_emulator(out).ok

    def test_loops_rejected(self):
        g = forget(loop1())
        ident = UndirectedMorphism(g, g, {"v": "v"}, {"g": "g"})
        with pytest.raises(DomainError):
            lift_direction(ident, loop1())

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_emulators_lift_to_directed_emulators(self, rnd):
        # lift_direction checks its input only; its output is a directed
        # emulator onto the direction, on the same vertices and edges
        direction = excise(random_digraph(rnd, max_vertices=4, max_edges=6))
        m = random_undirected_emulator(rnd, forget(direction))
        out = lift_direction(m, direction)
        assert forget(out.source) == m.source
        assert is_directed_emulator(out).ok


class TestFunctorTransport:
    def test_r_preserves_emulators_but_not_covers(self):
        m = fork_covers_par2()
        assert is_directed_cover(m).ok
        rm = r_image_morphism(m)
        assert is_directed_emulator(rm).ok
        assert not is_directed_cover(rm).ok

    def test_r_transport_on_random_emulators(self, rng):
        for _ in range(20):
            base = random_digraph(rng, max_vertices=3, max_edges=5)
            if not base.vertices:
                continue
            m = random_emulator(rng, base, max_fiber=2)
            assert is_directed_emulator(r_image_morphism(m)).ok

    def test_pullback_transports_emulators_and_covers(self, rng):
        for _ in range(50):
            k = random_digraph(rng, max_vertices=3, max_edges=4)
            if not k.vertices:
                continue
            psi = random_emulator(rng, k, max_fiber=2)
            phi = random_morphism_into(rng, k, max_fiber=2)
            _, pi1, _ = pullback(phi, psi)
            assert is_directed_emulator(pi1).ok
            cov = extract_cover(psi)
            _, pi1c, _ = pullback(phi, cov)
            assert is_directed_cover(pi1c).ok


class TestSearchCovers:
    def test_loop_base_identity_found(self):
        out = search_covers(CoverSearchSpec(loop1(), max_fiber=2, genus_bound=0))
        assert out.status == "found"
        assert out.certificate.genus == 0

    def test_planar_base_identity_cover(self, rng):
        from regulus.digraph import weakly_connected
        from regulus.genus import is_planar as planar_check

        for _ in range(5):
            base = random_digraph(rng, max_vertices=4, max_edges=5)
            if not base.vertices:
                continue
            if not weakly_connected(base):
                continue
            if not planar_check(base).planar:
                continue
            out = search_covers(CoverSearchSpec(base, max_fiber=1, genus_bound=0))
            assert out.status == "found"
            assert len(out.certificate.total.vertices) == len(base.vertices)

    def test_z7_base_exhausts_at_fiber_one(self):
        edges = [
            (f"t{i}_{j}", str(i), str((i + j) % 7))
            for i in range(7)
            for j in (1, 2, 3)
        ]
        base = DiGraph([str(i) for i in range(7)], edges)
        out = search_covers(CoverSearchSpec(base, max_fiber=1, genus_bound=0))
        assert out.status == "exhausted"

    def test_certificate_reverifies_from_serialized_form(self):
        out = search_covers(CoverSearchSpec(c2(), max_fiber=2, genus_bound=0))
        assert out.status == "found"
        data = loads(dumps(certificate_to_json(out.certificate)))
        cert = certificate_from_json(data)
        cert.verify()

    @pytest.mark.parametrize(
        "bounds", [{"max_fiber": 1.5}, {"max_fiber": True}, {"genus_bound": 0.5},
                   {"genus_bound": True}, {"max_fiber": 0}, {"genus_bound": -1}])
    def test_bounds_must_be_ints_in_range(self, bounds):
        # a float fibre bound used to fail in range() inside the search, and
        # a float or boolean genus bound used to be searched
        with pytest.raises(DomainError):
            search_covers(CoverSearchSpec(c2(), **bounds))

    def test_disconnected_allowed_when_requested(self):
        out = search_covers(
            CoverSearchSpec(loop1(), max_fiber=2, genus_bound=0, connected_only=False)
        )
        assert out.status == "found"

    def test_a_disconnected_base_tries_no_candidate(self):
        # a triangle with a chord beside an isolated vertex: at fibre 3 every
        # one of its 73,710 candidates would be disconnected
        edges = [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"), ("e3", "a", "c")]
        out = search_covers(CoverSearchSpec(DiGraph(["a", "b", "c", "d"], edges), max_fiber=3))
        assert out == SearchOutcome("exhausted")


def _circulant(n, steps):
    return DiGraph(
        [str(i) for i in range(n)],
        [(f"t{i}_{j}", str(i), str((i + j) % n)) for i in range(n) for j in steps],
    )


def _cover_girth_floor(base: DiGraph) -> int:
    """Girth floor valid for every cover of the base: 3 when the base is
    simple, loopless and free of directed 2-cycles, 4 when its support is
    also bipartite (a cover maps each cycle onto a closed walk of the base,
    so it keeps the 2-colouring), else weaker."""
    if any(base.is_loop(e) for e in base.edges):
        return 1
    if simplify(base)[0] != base:
        return 2
    pairs = {(s, t) for _, s, t in base.edge_list()}
    if any((t, s) in pairs for s, t in pairs):
        return 2
    return 4 if nx.is_bipartite(nx.Graph(list(pairs))) else 3


def _nx_face_floor(graph: nx.Graph) -> int:
    """The face floor from networkx: 3 when the graph has a loop or a
    triangle, else 4."""
    simple = nx.Graph(graph)
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    return 3 if nx.number_of_selfloops(graph) or any(nx.triangles(simple).values()) else 4


def _nx_support_degrees(base: DiGraph) -> list[int]:
    """Each vertex's successors other than itself, in vertex order, from
    networkx; a 2-cycle counts only at its smaller end."""
    g = multidigraph(base)
    return [
        sum(w != v and not (w < v and g.has_edge(w, v)) for w in set(g.successors(v)))
        for v in base.vertices
    ]


def _assignment_canonical(base: DiGraph, sizes: dict[str, int], assignment, root) -> bool:
    """Reject assignments that a fibre permutation (fixing the pinned root
    vertex) maps to something lexicographically smaller."""
    perm_space = 1
    for v, k in sizes.items():
        perm_space *= math.factorial(k - 1 if v == root else k)
        if perm_space > 20000:
            return True  # too many symmetries to reject; accept duplicates
    vlist = list(sizes)
    perms_per_vertex = []
    for v in vlist:
        k = sizes[v]
        if v == root:
            perms_per_vertex.append([(0,) + p for p in permutations(range(1, k))])
        else:
            perms_per_vertex.append(list(permutations(range(k))))
    edge_keys = sorted(assignment)
    current = tuple(assignment[k] for k in edge_keys)
    for combo in product(*perms_per_vertex):
        perm_of = {v: combo[i] for i, v in enumerate(vlist)}
        mapped = {}
        for (eid, i), j in assignment.items():
            u, w = base.ends(eid)
            mapped[(eid, perm_of[u][i])] = perm_of[w][j]
        candidate = tuple(mapped[k] for k in edge_keys)
        if candidate < current:
            return False
    return True


def _reference_search_covers(spec: CoverSearchSpec) -> SearchOutcome:
    """The cover search as first written: the symmetry check rebuilds every
    fibre permutation for each candidate, the fibre vectors go through the
    per-vector Euler check, and genus bound 0 has its own branch.  No time
    budget."""
    spec.validate()
    base = spec.base
    girth_floor = _cover_girth_floor(base)
    root = min(base.vertices)
    undecided = False
    base_out = {v: sorted(base.out_edges(v)) for v in base.vertices}
    vorder = sorted(base.vertices)
    out_degrees = [len(base_out[v]) for v in vorder]
    vectors = _euler_filtered_product(out_degrees, spec.max_fiber, girth_floor, spec.genus_bound)
    for vec in vectors:
        sizes = dict(zip(vorder, vec))
        slots = [(eid, i) for v in vorder for eid in base_out[v] for i in range(sizes[v])]
        choice_sets = [range(sizes[base.dst(eid)]) for eid, _ in slots]
        for combo in product(*choice_sets):
            assignment = {slot: j for slot, j in zip(slots, combo)}
            if not _assignment_canonical(base, sizes, assignment, root):
                continue
            total, morphism = _build_total(base, sizes, assignment.items())
            if spec.connected_only and not weakly_connected(total):
                continue
            planar = is_planar(total)
            if spec.genus_bound == 0:
                if not planar.planar:
                    continue
                genus_res = GenusResult(0, planar.witness)
            else:
                if planar.planar:
                    genus_res = GenusResult(0, planar.witness)
                else:
                    try:
                        genus_res = genus_exact(total)
                    except BudgetError:
                        undecided = True
                        continue
                if genus_res.genus > spec.genus_bound:
                    continue
            cert = CoverCertificate(morphism, genus_res.witness, genus_res.genus)
            cert.verify()
            return SearchOutcome("found", cert)
    return SearchOutcome("budget_exceeded" if undecided else "exhausted")


@st.composite
def search_bases(draw, max_vertices=5, max_edges=6):
    """Digraphs on up to max_vertices vertices with up to max_edges edges;
    loops, 2-cycles and parallel edges allowed."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    vertex = st.sampled_from(vs)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return DiGraph(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(edges)])


def _reference_candidates(spec: CoverSearchSpec) -> list[DiGraph]:
    """The candidates the reference search builds, in order, when each is
    refused as disconnected, so that the search runs through all of them."""
    tried = []

    def refuse(total):
        tried.append(total)
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "weakly_connected", refuse)
        assert _reference_search_covers(spec).status == "exhausted"
    return tried


def _canonical_candidates(spec: CoverSearchSpec) -> list[DiGraph]:
    """The candidates search_covers enumerates, in order, each built as the
    DiGraph its certificate would carry."""
    tried = []
    blocks = emulation._candidates(spec, _face_floor(spec.base))
    for _, sizes, slots, assignments, _ in blocks:
        tried += [_build_total(spec.base, sizes, zip(slots, combo))[0] for combo in assignments]
    return tried


def _relabelling_class(base: DiGraph, sizes, slots, combo, fixed=()) -> frozenset:
    """Every assignment (one copy of its target per slot) that relabelling
    the copies over the base vertices outside `fixed` makes of `combo`: its
    closure under swapping two neighbouring copies of one vertex."""
    index = {slot: k for k, slot in enumerate(slots)}
    swaps = [
        (v, (*range(c), c + 1, c, *range(c + 2, k)))
        for v, k in sizes.items()
        if v not in fixed
        for c in range(k - 1)
    ]

    def swapped(a, v, perm):
        out = [0] * len(a)
        for (eid, i), j in zip(slots, a):
            u, w = base.ends(eid)
            out[index[(eid, perm[i] if u == v else i)]] = perm[j] if w == v else j
        return tuple(out)

    return _closure([tuple(combo)], lambda a: [swapped(a, v, perm) for v, perm in swaps])


def _cover_class(base: DiGraph, total: DiGraph) -> tuple:
    """The relabelling class of a cover that _build_total made: its fibre
    sizes and the class of its assignment, the slots in sorted order."""
    sizes = Counter(v.rsplit("#", 1)[0] for v in total.vertices)
    assignment = sorted(
        ((eid, int(i)), int(w.rsplit("#", 1)[1]))
        for (eid, i), (_, w) in ((e.rsplit("#", 1), ends) for e, ends in total.edges.items())
    )
    slots = [slot for slot, _ in assignment]
    combo = [j for _, j in assignment]
    return tuple(sorted(sizes.items())), _relabelling_class(base, sizes, slots, combo)


def _enumeration_alone(spec: CoverSearchSpec) -> SearchOutcome:
    """search_covers without its double-cover phase: the fibre enumeration
    that the reference search makes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emulation, "_double_covers", lambda *args: ())
        return search_covers(spec)


def _clock(reads: int) -> SimpleNamespace:
    """A stand-in for the time module whose monotonic clock stands still for
    the search's deadline read and `reads` reads more, then passes any
    deadline."""
    ticks = chain(repeat(0.0, 1 + reads), repeat(math.inf))
    return SimpleNamespace(monotonic=ticks.__next__)


def _k33() -> DiGraph:
    return DiGraph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)],
    )


class TestSearchAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(search_bases(), st.integers(1, 2), st.integers(0, 1), st.booleans())
    @example(c2(), 2, 0, True)
    @example(DiGraph(["a", "b"], []), 2, 0, True)  # every cover disconnected: exhausted
    @example(_circulant(5, (1, 2)), 1, 1, True)  # K5: genus 1 through genus_exact
    @example(_circulant(7, (1, 2, 3)), 1, 1, True)  # K7: genus 1 through genus_exact
    @example(_circulant(6, (1, 3)), 2, 0, True)  # bipartite base: the edge cut fires
    @example(_k33(), 2, 1, True)  # K3,3: the bipartite cap, then genus_exact
    def test_same_status_and_certificate(self, base, max_fiber, genus_bound, connected_only):
        spec = CoverSearchSpec(
            base, max_fiber=max_fiber, genus_bound=genus_bound, connected_only=connected_only
        )
        got, want = _enumeration_alone(spec), _reference_search_covers(spec)
        assert got.status == want.status
        if want.certificate is not None:
            fibres = Counter(want.certificate.morphism.p.values())
            if set(fibres.values()) == {1}:
                assert certificate_to_json(got.certificate) == certificate_to_json(want.certificate)
            else:
                # past the all-ones vector the two orders may reach another
                # passing cover of the same vector first
                assert Counter(got.certificate.morphism.p.values()) == fibres
                got.certificate.verify()
                assert got.certificate.genus <= genus_bound
        # a planar double cover the phase finds is one the enumeration reaches
        assert search_covers(spec).status == want.status

    @settings(max_examples=100, deadline=None)
    @given(search_bases(), st.integers(1, 2), st.integers(0, 1))
    @example(DiGraph(["a", "b"], []), 2, 0)
    @example(DiGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "a"), ("l", "c", "c")]), 2, 1)
    def test_a_disconnected_base_is_exhausted_at_once(self, base, max_fiber, genus_bound):
        # a cover maps onto the base, and the image of a connected graph is
        # connected: no candidate is tried, and nothing is counted
        assume(not nx.is_weakly_connected(multidigraph(base)))
        bounds = {"max_fiber": max_fiber, "genus_bound": genus_bound}
        assert search_covers(CoverSearchSpec(base, **bounds)) == SearchOutcome("exhausted")
        loose = CoverSearchSpec(base, connected_only=False, **bounds)
        assert search_covers(loose).status == _reference_search_covers(loose).status

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.tuples(search_bases(4, 5), st.integers(1, 2)),
            st.tuples(search_bases(3, 2), st.just(3)),  # fibres of 3 permute in S3
        )
    )
    @example((c2(), 3))
    @example((DiGraph(["a", "b"], [("e0", "a", "b"), ("e1", "b", "a"), ("l", "b", "b")]), 2))
    def test_tries_the_same_relabelling_classes(self, case):
        base, max_fiber = case
        spec = CoverSearchSpec(base, max_fiber=max_fiber)
        tried, want = _canonical_candidates(spec), _reference_candidates(spec)
        got = [_cover_class(base, t) for t in tried]
        # the support-edge cut may drop a vector the reference's arc count
        # keeps, never the other way; compare the vectors the search keeps
        kept = {sizes for sizes, _ in got}
        assert kept <= {_cover_class(base, t)[0] for t in want}
        want = [c for c in (_cover_class(base, t) for t in want) if c[0] in kept]
        assert set(got) == set(want)
        if max_fiber <= 2 and nx.is_strongly_connected(multidigraph(base)):
            # one walk, from the least vertex, whose copies the reference
            # pins too: one candidate per class on both sides
            assert len(got) == len(want)
        # the search takes every one of them when it finds none, unless the
        # base is disconnected and so is every cover
        out = search_covers(spec)
        if out.status == "exhausted" and nx.is_weakly_connected(multidigraph(base)):
            assert out.stats.candidates == len(tried)


@st.composite
def fibred_bases(draw, loops=False):
    """A base on up to 4 vertices and 5 arcs, loopless unless `loops`, with a
    fibre size of 1 to 3 at each vertex and at most 8 slots in all."""
    base = draw(search_bases(4, 5))
    if not loops:
        base = excise(base)
    vec = tuple(draw(st.integers(1, 3)) for _ in base.vertices)
    sizes = dict(zip(base.vertices, vec))
    assume(sum(sizes[base.src(e)] for e in base.edges) <= 8)
    return base, vec


class TestAssignments:
    @settings(max_examples=200, deadline=None)
    @given(fibred_bases())
    @example((c2(), (2, 2)))
    @example((c2(), (2, 3)))
    @example((c2(), (3, 2)))
    @example((DiGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "c", "b")]), (2, 2, 2)))
    @example((DiGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "b")]),
              (2, 2, 2)))
    def test_one_assignment_per_relabelling_class(self, case):
        # against brute force: every product assignment and its class under
        # relabelling the copies over every vertex
        base, vec = case
        spec = CoverSearchSpec(base, max_fiber=max(vec), genus_bound=10)  # no vector is cut
        blocks = emulation._candidates(spec, 3)
        sizes, slots, assignments = next(b[1:4] for b in blocks if tuple(b[1].values()) == vec)
        listed = list(assignments)
        generated = set(listed)
        assert len(generated) == len(listed)
        every = list(product(*(range(sizes[base.dst(eid)]) for eid, _ in slots)))
        assert generated <= set(every)
        seen = set()
        for combo in every:
            if combo not in seen:
                cls = _relabelling_class(base, sizes, slots, combo)
                seen |= cls
                assert cls & generated
        # exact at fibres up to 2 with one walk: its root's copies are the
        # only relabelling left
        condensed = nx.condensation(multidigraph(base))
        sources = [c for c in condensed if condensed.in_degree(c) == 0]
        if max(vec) <= 2 and len(sources) == 1:
            fixed = {min(condensed.nodes[sources[0]]["members"])}
            seen = set()
            for combo in every:
                if combo not in seen:
                    cls = _relabelling_class(base, sizes, slots, combo, fixed)
                    seen |= cls
                    assert len(cls & generated) == 1


class TestSearchStats:
    @settings(max_examples=150, deadline=None)
    @given(search_bases(), st.integers(1, 2), st.integers(0, 1), st.booleans())
    @example(_circulant(6, (1, 3)), 2, 0, True)
    @example(_circulant(5, (1, 2)), 1, 1, True)
    def test_each_candidate_is_counted_once(self, base, max_fiber, genus_bound, connected_only):
        spec = CoverSearchSpec(
            base, max_fiber=max_fiber, genus_bound=genus_bound, connected_only=connected_only
        )
        s = search_covers(spec).stats
        tried = s.candidates + s.double_covers
        assert tried == s.disconnected + s.edge_cut + s.planarity_tests
        assert s.undecided <= s.genus_exact_calls <= s.planarity_tests
        assert s.fibre_vectors >= (s.candidates > 0)
        if not connected_only:
            assert s.disconnected == 0

    def test_edge_cut_fires_on_a_bipartite_base(self):
        # _circulant(6, (1, 3)) is K3,3 with its three long chords doubled:
        # its covers are bipartite, so more than 2(V - 2) support edges refute
        # planarity before the LR test; the double-cover phase would find a
        # planar cover first
        out = _enumeration_alone(CoverSearchSpec(_circulant(6, (1, 3)), max_fiber=2))
        assert out.status == "found"
        s = out.stats
        assert s.edge_cut > 0 and s.planarity_tests < s.edge_cut
        assert s.genus_exact_calls == 0

    @pytest.mark.parametrize(
        "base, max_fiber, genus_bound, tests",
        # L7-12: the base, then 40 of the double-cover phase's lifts
        [(_circulant(7, (1, 2)), 2, 0, 41), (_k33(), 1, 1, 1)],
        ids=["L7-12", "K3,3"],
    )
    def test_each_planarity_test_is_one_lr_call(
        self, monkeypatch, base, max_fiber, genus_bound, tests
    ):
        lr_calls, witness_calls = [], []
        lr_planar = emulation._lr_planar

        def counted(calls):
            return lambda n, pairs: calls.append(n) or lr_planar(n, pairs)

        monkeypatch.setattr(emulation, "_lr_planar", counted(lr_calls))
        monkeypatch.setattr(genus, "_lr_planar", counted(witness_calls))
        spec = CoverSearchSpec(base, max_fiber=max_fiber, genus_bound=genus_bound)
        out = search_covers(spec)
        assert out.status == "found"
        assert len(lr_calls) == out.stats.planarity_tests == tests
        if genus_bound == 0:
            # the planar hit's is_planar witness is the search's one further test
            assert len(witness_calls) == 1

    @pytest.mark.parametrize("reads", [0, 1, 5, 30])
    @pytest.mark.parametrize("phase", [True, False], ids=["phase", "enumeration"])
    def test_the_clock_is_read_once_per_candidate(self, monkeypatch, reads, phase):
        # L7-12 finds its planar lift at the 41st try, the enumeration later
        monkeypatch.setattr(emulation, "_time", _clock(reads))
        spec = CoverSearchSpec(_circulant(7, (1, 2)), max_fiber=2)
        out = search_covers(spec) if phase else _enumeration_alone(spec)
        assert out.status == "budget_exceeded"
        s = out.stats
        tried = s.candidates + s.double_covers
        assert tried == reads
        assert tried == s.disconnected + s.edge_cut + s.planarity_tests
        # the base comes first, then the phase's lifts
        assert s.candidates == (min(reads, 1) if phase else reads)

    def test_every_kind_and_tally_key_is_a_stats_field(self):
        # the loop counts each try under its block's kind and branches on it,
        # so a misspelt kind or key would count nothing or skip a step
        yielded, compared, keys = set(), set(), set()
        for node in ast.walk(ast.parse(inspect.getsource(emulation))):
            if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
                yielded.add(ast.literal_eval(node.value.elts[0]))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(x, ast.Name) and x.id == "kind" for x in operands):
                    compared |= {x.value for x in operands if isinstance(x, ast.Constant)}
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "tally":
                key = node.slice
                keys.add(key.value if isinstance(key, ast.Constant) else ast.unparse(key))
        assert yielded == {"candidates", "double_covers"}
        assert compared == {"candidates"}
        assert keys - {"kind"} >= {"fibre_vectors", "disconnected", "undecided"}
        assert yielded | compared | (keys - {"kind"}) <= {f.name for f in fields(SearchStats)}

    def test_budget_exceeded_keeps_its_counts(self):
        # L7-12's base: the cut keeps its all-ones vector
        out = search_covers(CoverSearchSpec(_circulant(7, (1, 2)), time_budget=1e-9))
        assert out.status == "budget_exceeded" and out.certificate is None
        assert (out.stats.fibre_vectors, out.stats.candidates) == (1, 0)


@st.composite
def nonplanar_loopless_bases(draw):
    """Connected, non-planar, loopless digraphs on 5 or 6 vertices (fewer
    are planar): each pair joined one way, the other, both or, on 6
    vertices, not at all (the only non-planar support on 5 is K5), plus up
    to 2 parallel arcs."""
    vs = [f"v{i}" for i in range(draw(st.integers(5, 6)))]
    edges = []
    for a, b in combinations(vs, 2):
        way = draw(st.sampled_from(["forward", "back", "both"] + ["none"] * (len(vs) > 5)))
        edges += [(a, b)] * (way in ("forward", "both")) + [(b, a)] * (way in ("back", "both"))
    edges += draw(st.lists(st.sampled_from(edges or [("v0", "v1")]), max_size=2))
    base = DiGraph(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(edges)])
    assume(weakly_connected(base) and not is_planar(base).planar)
    return base


class TestDoubleCoverPhase:
    # every loopless graph on at most 6 vertices is a subgraph of K6, whose
    # antipodal double cover is the icosahedron, so its lift along the same
    # voltages is planar and connected when the graph is not planar
    @settings(max_examples=60, deadline=None)
    @given(nonplanar_loopless_bases())
    @example(_circulant(5, (1, 2)))  # K5
    @example(_circulant(6, (1, 2, 3)))  # K6, its step-3 pairs both ways: 30 lift edges, at the cap
    @example(_k33())
    def test_every_small_nonplanar_base_has_a_planar_double_cover(self, base):
        # the phase takes well under a second; the enumeration can take hours
        out = search_covers(CoverSearchSpec(base, max_fiber=2, time_budget=20))
        assert out.status == "found" and out.stats.double_covers > 0
        cert = out.certificate
        cert.verify()
        assert cert.genus == 0
        assert set(Counter(cert.morphism.p.values()).values()) == {2}

    def test_the_cap_skips_the_phase(self, monkeypatch):
        # K7: every lift has 42 support edges, above 3(14 - 2) = 36; at genus 1
        # the bound keeps every fibre vector, so the tries after the base come
        # from the all-2 vector the phase would precede
        k7 = _circulant(7, (1, 2, 3))
        assert list(emulation._double_covers(k7, 3)) == []
        monkeypatch.setattr(emulation, "_time", _clock(5))

        def refuse(g):  # K7 has genus 1, and the search would stop at the base
            raise BudgetError("refused")

        monkeypatch.setattr(emulation, "genus_exact", refuse)
        out = search_covers(CoverSearchSpec(k7, max_fiber=2, genus_bound=1))
        assert out.status == "budget_exceeded"
        assert (out.stats.candidates, out.stats.double_covers) == (5, 0)

    @settings(max_examples=100, deadline=None)
    @given(search_bases(5, 7))
    @example(c2())
    @example(_circulant(5, (1, 2)))
    def test_every_lift_of_a_connected_base_is_connected(self, base):
        # so the search skips the connectivity check on them
        assume(nx.is_weakly_connected(multidigraph(base)))
        for _, sizes, slots, lifts, _ in emulation._double_covers(base, _face_floor(base)):
            for combo in lifts:
                total, _ = _build_total(base, sizes, zip(slots, combo))
                assert nx.is_weakly_connected(multidigraph(total))

    def test_no_genus_exact_call_at_genus_one(self, monkeypatch):
        # genus_exact refuses the base K3,3, so the search goes on to the
        # phase, whose non-planar lifts must not reach genus_exact
        calls = []

        def refuse(g):
            calls.append(g)
            raise BudgetError("refused")

        monkeypatch.setattr(emulation, "genus_exact", refuse)
        out = search_covers(CoverSearchSpec(_k33(), max_fiber=2, genus_bound=1))
        assert out.status == "found" and out.certificate.genus == 0
        s = out.stats
        assert len(calls) == s.genus_exact_calls == s.undecided == 1
        assert s.planarity_tests == 1 + s.double_covers > 2


@st.composite
def dense_simple_graphs(draw, max_vertices: int, kinds=("complete", "bipartite", "triangle-free")):
    """(vertex count, edge pairs) for a simple graph: the complete graph, the
    complete bipartite graph on random colour classes, or a maximal
    triangle-free graph grown from the pairs in random order, less some
    edges (a few, or any number)."""
    n = draw(st.integers(3, max_vertices))
    kind = draw(st.sampled_from(kinds))
    colour = [draw(st.booleans()) for _ in range(n)]
    pairs = [(a, b) for a, b in combinations(range(n), 2) if kind != "bipartite" or colour[a] != colour[b]]
    if kind == "triangle-free":
        adjacent: list[set[int]] = [set() for _ in range(n)]
        for a, b in draw(st.permutations(pairs)):
            if not adjacent[a] & adjacent[b]:
                adjacent[a].add(b)
                adjacent[b].add(a)
        pairs = [(a, b) for a, b in pairs if b in adjacent[a]]
    most = draw(st.sampled_from([3, len(pairs)]))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=most)) if pairs else set()
    return n, [p for p in pairs if p not in missing]


def _undirected(n: int, pairs) -> UndirectedGraph:
    return UndirectedGraph(
        [f"v{i}" for i in range(n)], [(f"e{k}", (f"v{a}", f"v{b}")) for k, (a, b) in enumerate(pairs)]
    )


def _has_triangle(g: DiGraph) -> bool:
    return any(nx.triangles(nx.Graph(list(g.edges.values()))).values())


class TestEdgeCapSoundness:
    @settings(max_examples=300, deadline=None)
    @given(dense_simple_graphs(12))
    @example((5, list(combinations(range(5), 2))))  # K5: 10 > 9
    @example((6, [(a, b) for a in range(3) for b in range(3, 6)]))  # K3,3: 9 > 8
    def test_a_cut_graph_is_not_planar(self, case):
        n, pairs = case
        graph = nx.Graph(pairs)
        if len(pairs) > _edge_cap(n, 0, _nx_face_floor(graph)):
            assert not nx.check_planarity(graph)[0]

    def test_the_groetzsch_graph_is_over_the_triangle_free_cap(self):
        # triangle-free but not bipartite: its 20 edges are over 2(11 - 2)
        graph = nx.mycielski_graph(4)
        base = DiGraph([str(v) for v in graph], [(f"e{a}_{b}", str(a), str(b)) for a, b in graph.edges])
        assert _face_floor(base) == 4 and not nx.is_bipartite(graph)
        assert graph.number_of_edges() > _edge_cap(11, 0, 4) == 18
        assert not nx.check_planarity(graph)[0]

    @settings(max_examples=100, deadline=None)
    @given(search_bases(4, 5), st.integers(1, 2))
    @example(DiGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "c", "b")]), 2)
    @example(_circulant(5, (1,)), 2)  # a pentagon: triangle-free, not bipartite
    def test_triangle_free_bases_have_triangle_free_covers(self, base, max_fiber):
        # without loops no edge lies inside a fibre, so each triangle of a
        # cover lies over a triangle of the base
        base = excise(base)
        assume(not _has_triangle(base))
        spec = CoverSearchSpec(base, max_fiber=max_fiber, genus_bound=10, connected_only=False)
        for total in _canonical_candidates(spec):  # no vector is cut
            assert not _has_triangle(total)

    @settings(max_examples=200, deadline=None)
    @given(dense_simple_graphs(10), st.sets(st.integers(0, 9), max_size=2))
    @example((4, [(0, 1), (1, 2), (2, 3), (0, 3)]), set())  # a square
    @example((4, [(0, 1), (1, 2), (2, 3), (0, 3)]), {2})  # and a loop
    @example((5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), set())  # a pentagon
    def test_face_floor_matches_networkx(self, case, loops):
        n, pairs = case
        edges = [(f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs)]
        edges += [(f"l{v}", f"v{v}", f"v{v}") for v in loops if v < n]
        base = DiGraph([f"v{i}" for i in range(n)], edges)
        assert _face_floor(base) == _nx_face_floor(nx.Graph(list(base.edges.values())))

    def test_a_loop_rules_out_the_bipartite_cap(self):
        # the support a - b has no triangle, but the loop lifts to a0 -> a1,
        # closing the triangle a0, a1, b0
        base = DiGraph(["a", "b"], [("e0", "a", "b"), ("e1", "b", "a"), ("l", "a", "a")])
        assert _face_floor(base) == 3
        candidates = _canonical_candidates(CoverSearchSpec(base, max_fiber=2))
        assert any(map(_has_triangle, candidates))

    # A graph above the genus-1 cap has average degree above 6, or above 4
    # when triangle-free.  Bipartite ones are decided at once; among the
    # others K8 and K8 - e are, but K8 less two or three edges can take more
    # than 10^6 rotation links, so those two stand for them.
    @settings(max_examples=100, deadline=None)
    @given(dense_simple_graphs(10, kinds=("bipartite",)))
    @example((8, list(combinations(range(8), 2))))  # K8: 28 > 24, genus 2
    @example((8, list(combinations(range(8), 2))[1:]))  # K8 - e: 27 > 24, genus 2
    @example((9, [(a, b) for a in range(4) for b in range(4, 9)]))  # K4,5: 20 > 18
    def test_a_cut_graph_has_genus_above_one(self, case):
        n, pairs = case
        if len(pairs) > _edge_cap(n, 1, _nx_face_floor(nx.Graph(pairs))):
            assert genus_exact(_undirected(n, pairs), budget=10**6).genus > 1


class TestCertificateRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(search_bases(), st.integers(1, 2), st.integers(0, 1), st.booleans(),
           st.integers(1, 3))
    @example(_circulant(5, (1, 2)), 1, 1, True, 1)  # K5: a genus-1 witness
    def test_found_certificates_survive_json_and_pin_their_genus(
        self, base, max_fiber, genus_bound, connected_only, shift
    ):
        spec = CoverSearchSpec(
            base, max_fiber=max_fiber, genus_bound=genus_bound, connected_only=connected_only
        )
        out = search_covers(spec)
        if out.status != "found":
            return
        data = loads(dumps(certificate_to_json(out.certificate)))
        back = certificate_from_json(data)
        assert back == out.certificate
        back.verify()
        data["genus"] += shift
        with pytest.raises(DomainError, match="does not match its witness"):
            certificate_from_json(data).verify()


@st.composite
def small_bases(draw):
    """Digraphs on up to 6 vertices: an oriented simple graph (girth floor 3)
    plus up to 2 more edges, which may add loops, 2-cycles or parallel edges
    (floor 1 or 2)."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    edges = []
    for a, b in combinations(vs, 2):
        way = draw(st.sampled_from(["none", "forward", "back"]))
        if way != "none":
            edges.append((a, b) if way == "forward" else (b, a))
    vertex = st.sampled_from(vs)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    return DiGraph(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(edges)])


def _euler_filtered_product(out_degrees, max_fiber, girth_floor, genus_bound):
    # the enumeration the pruned one replaces: every vector in
    # itertools.product order, dropped when the per-vector Euler/girth
    # check refutes it
    kept = []
    for vec in product(range(1, max_fiber + 1), repeat=len(out_degrees)):
        total_v = sum(vec)
        total_e = sum(d * k for d, k in zip(out_degrees, vec))
        if girth_floor >= 3 and total_e >= 2:
            euler_bound = 1 - total_v / 2 + total_e * (girth_floor - 2) / (2 * girth_floor)
            if math.ceil(euler_bound) > genus_bound:
                continue
        kept.append(vec)
    return kept


@st.composite
def dense_bases(draw):
    """Digraphs on 3 to 6 vertices with most pairs joined one way, the other
    or both, plus up to 2 more arcs, which may be loops or parallel."""
    vs = [f"v{i}" for i in range(draw(st.integers(3, 6)))]
    edges = []
    for a, b in combinations(vs, 2):
        way = draw(st.sampled_from(["forward", "back", "both", "both", "none"]))
        edges += [(a, b)] * (way in ("forward", "both")) + [(b, a)] * (way in ("back", "both"))
    vertex = st.sampled_from(vs)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    return DiGraph(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(edges)])


def _kept_vectors(spec: CoverSearchSpec) -> list[tuple[int, ...]]:
    """The fibre vectors whose blocks _candidates yields, in order."""
    blocks = emulation._candidates(spec, _face_floor(spec.base))
    return [tuple(sizes.values()) for _, sizes, *_ in blocks]


def _every_cover(base: DiGraph, vec):
    """The loopless simple support of the cover of every product assignment
    of the vector, as a networkx graph."""
    sizes = dict(zip(base.vertices, vec))
    slots = [(eid, i) for eid in base.edges for i in range(sizes[base.src(eid)])]
    for combo in product(*(range(sizes[base.dst(eid)]) for eid, _ in slots)):
        total, _ = _build_total(base, sizes, zip(slots, combo))
        support = nx.Graph(list(total.edges.values()))
        support.remove_edges_from(list(nx.selfloop_edges(support)))
        yield support


class TestFiberVectorPruning:
    @settings(max_examples=300, deadline=None)
    @given(small_bases(), st.integers(1, 3), st.integers(0, 2))
    @example(DiGraph(["a", "b"], []), 3, 0)  # no edges: nothing to bound
    @example(DiGraph(["a", "b"], [("e", "a", "b")]), 3, 0)  # E < 2 until a's fibre grows
    @example(_circulant(5, (1, 2)), 2, 0)  # only the all-ones vector is refuted
    @example(_circulant(7, (1, 2, 3)), 3, 0)  # every vector is refuted
    @example(_circulant(9, (1, 2, 3, 4)), 2, 3)  # positive coefficients, some vectors kept
    @example(_circulant(8, (1, 3, 5)), 3, 0)  # 2-cycles: counted at one end
    def test_matches_per_vector_euler_check(self, base, max_fiber, genus_bound):
        # degrees and face floor from networkx, on the support edges
        degrees = _nx_support_degrees(base)
        floor = _nx_face_floor(nx.Graph(list(base.edges.values())))
        want = _euler_filtered_product(degrees, max_fiber, floor, genus_bound)
        assert list(_fiber_vectors_within_bound(degrees, max_fiber, floor, genus_bound)) == want
        spec = CoverSearchSpec(base, max_fiber=max_fiber, genus_bound=genus_bound)
        assert _kept_vectors(spec) == want

    @settings(max_examples=200, deadline=None)
    @given(fibred_bases(loops=True))
    @example((c2(), (2, 3)))  # one 2-cycle: max(2, 3) edges, not 2 + 3
    @example((DiGraph(["a", "b"], [("e0", "a", "b"), ("e1", "a", "b"), ("l", "a", "a")]), (3, 2)))
    def test_every_cover_has_the_support_floor(self, case):
        base, vec = case
        floor = sum(d * k for d, k in zip(_nx_support_degrees(base), vec))
        for support in _every_cover(base, vec):
            assert support.number_of_edges() >= floor

    # networkx checks every cover of each dropped vector with at most 4,096
    # assignments; 7 vertices would take several times as long
    @settings(max_examples=20, deadline=None)
    @given(dense_bases())
    @example(DiGraph(list("abcde"), [(f"e{s}{t}", s, t) for s, t in permutations("abcde", 2)]))
    def test_a_dropped_vector_has_no_planar_cover(self, base):
        kept = set(_kept_vectors(CoverSearchSpec(base, max_fiber=2)))
        for vec in product((1, 2), repeat=len(base.vertices)):
            sizes = dict(zip(base.vertices, vec))
            if vec in kept or math.prod(sizes[base.dst(e)] ** sizes[base.src(e)] for e in base.edges) > 4096:
                continue
            for support in _every_cover(base, vec):
                assert not nx.check_planarity(support)[0]

    @pytest.mark.parametrize("steps", [(1, 3), (1, 5), (3, 7), (5, 7)])
    def test_a_bipartite_base_takes_girth_floor_four(self, steps):
        # the bases of L(8,{1,3}), {1,5}, {3,7} and {5,7}: bipartite, so every
        # cover is triangle-free and its faces have length at least 4, and at
        # that floor the cut of a base with out-degree 2 refutes genus 0 at
        # every fibre size
        out = search_covers(CoverSearchSpec(_circulant(8, steps), max_fiber=2))
        assert out.status == "exhausted" and out.stats.fibre_vectors == 0

    @pytest.mark.parametrize(
        "k, steps, max_fiber",
        [(8, (1, 3, 5), 2), (8, (1, 3, 7), 2), (8, (1, 5, 7), 2), (8, (3, 5, 7), 2),
         (10, (1, 4), 3), (11, (1, 3), 3), (13, (1, 5), 3)],
        ids=["L8-135", "L8-137", "L8-157", "L8-357", "L10-14", "L11-13", "L13-15"],
    )
    def test_a_triangle_free_base_is_cut_at_every_vector(self, k, steps, max_fiber):
        # three letters on L(8, S): each 2-cycle counts at one end, which at
        # fibre 3 leaves some vectors of {1,3,5} and {3,5,7}; two letters on
        # an odd cycle of the step, triangle-free but not bipartite: every
        # coefficient is 0
        out = search_covers(CoverSearchSpec(_circulant(k, steps), max_fiber=max_fiber))
        assert out.status == "exhausted" and out.stats.fibre_vectors == 0
