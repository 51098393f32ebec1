"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line in the terminal summary (see conftest).  Tolerances are exact
unless a runtime bound is stated, in which case wall-clock time is asserted.
"""

import json
import os
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from regulus import (
    Automaton,
    BudgetError,
    DiGraph,
    GraphMorphism,
    RotationSystem,
    SemiAutomaton,
    UndirectedGraph,
    UndirectedMorphism,
    accessible_part,
    adjunction_inverse,
    adjunction_transfer,
    automatic_to_mn_roundtrip,
    automaton_from_cover,
    bidirect,
    complete_with_trash,
    cover_of_minimization,
    enumerate_automatic_relations,
    euler_lower_bound,
    extract_cover,
    factorize,
    forget,
    genus_exact,
    genus_invariance_suite,
    is_directed_cover,
    is_directed_emulator,
    is_undirected_cover,
    is_undirected_emulator,
    join,
    language_genus_leq,
    languages_equal,
    maximum,
    meet,
    minimal_cover_base,
    minimize,
    quotient,
    relation_leq,
    simplify,
    trace_faces,
)
from regulus import formats
from regulus.cli import main as cli_main
from regulus.corpus import (
    ENTRIES,
    amalgamation_loop,
    extraction_pair,
    fork_covers_par2,
    fork_nonemulator,
    loop2_to_loop1,
    par2_swap,
    path_4_over_3,
    vee_over_path,
    z6_automaton,
    z6_unrolled12,
    z7_123_automaton,
)
from regulus.emulation import r_image_morphism

from conftest import (
    canonical_multidigraphs,
    compose_morphisms,
    k_bipartite,
    k_complete,
    random_digraph,
    random_morphism_into,
    random_undirected_emulator,
)

SEED = 20240817


def test_criterion_1_minimal_automaton_facts():
    """criterion 1: minimize(Z6) has 6 states and the complete simple graph
    plus loops; the 12-state unrolling minimizes to 6 states, in under 1s"""
    t0 = time.monotonic()
    amin, _ = minimize(z6_automaton())
    assert len(amin.graph.vertices) == 6
    assert len(amin.graph.edges) == 36
    assert simplify(amin.graph)[0] == amin.graph
    loops = [e for e in amin.graph.edges if amin.graph.is_loop(e)]
    assert len(loops) == 6
    nonloop_pairs = {
        amin.graph.ends(e) for e in amin.graph.edges if not amin.graph.is_loop(e)
    }
    assert len(nonloop_pairs) == 30  # every ordered pair of distinct states
    umin, _ = minimize(z6_unrolled12())
    assert len(umin.graph.vertices) == 6
    assert languages_equal(umin, amin)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_genus_numerics():
    """criterion 2: exact genus 1 for K5, K3,3 and K6 with serialized
    rotation witnesses that re-verify, each under 60s, agreeing with the
    Euler lower bound"""
    cases = [
        ("K5", k_complete(5), 3),
        ("K33", k_bipartite(3, 3), 4),
        ("K6", k_complete(6), 3),
    ]
    for name, graph, girth in cases:
        t0 = time.monotonic()
        res = genus_exact(graph)
        assert res.genus == 1, name
        data = formats.loads(formats.dumps(formats.rotation_to_json(res.witness)))
        witness = RotationSystem(data)
        _, traced = trace_faces(graph, witness)
        assert traced == 1, name
        assert euler_lower_bound(graph, girth) == 1, name
        assert time.monotonic() - t0 < 60.0, name


def test_criterion_3_z7_lower_bound_and_search(tmp_path):
    """criterion 3: the Euler bound proves the mod-7 language nonplanar and
    the bounded cover search over its base exhausts at every fibre size up
    to 3, in under 5 minutes"""
    t0 = time.monotonic()
    base = minimal_cover_base(z7_123_automaton())
    assert euler_lower_bound(forget(base), 3) == 1
    answer = language_genus_leq(z7_123_automaton(), 0, max_fiber=3)
    assert answer.status == "no_within_bounds"

    auto_path = tmp_path / "z7.auto.json"
    auto_path.write_text(
        formats.dumps(formats.automaton_to_json(z7_123_automaton()))
    )
    out = tmp_path / "answer.json"
    code = cli_main(
        ["genus", "language", "--n", "0", "--max-fiber", "3", str(auto_path), "-o", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["status"] == "no_within_bounds"
    assert time.monotonic() - t0 < 300.0


def test_criterion_4_figure_fixtures():
    """criterion 4: the eight structural figure fixtures classify exactly as
    stated, each in under 1s"""

    def timed(check):
        t0 = time.monotonic()
        check()
        assert time.monotonic() - t0 < 1.0

    def loop2_case():
        m = loop2_to_loop1()
        assert is_directed_emulator(m).ok
        assert not is_directed_cover(m).ok

    def fork_case():
        assert not is_directed_emulator(fork_nonemulator()).ok
        assert fork_nonemulator().is_surjective()

    def amalgamation_case():
        assert is_directed_emulator(amalgamation_loop()).ok

    def swap_case():
        m = par2_swap()
        assert is_directed_emulator(m).ok and is_directed_cover(m).ok

    def extraction_case():
        m = extraction_pair()
        assert is_directed_emulator(m).ok
        assert not is_directed_cover(m).ok
        cov = extract_cover(m)
        assert is_directed_cover(cov).ok
        assert set(cov.source.vertices) == set(m.source.vertices)

    def simplification_cover_loss_case():
        m = fork_covers_par2()
        assert is_directed_cover(m).ok
        rm = r_image_morphism(m)
        assert is_directed_emulator(rm).ok
        assert not is_directed_cover(rm).ok

    def vee_case():
        m = vee_over_path()
        assert is_directed_emulator(m).ok
        um = UndirectedMorphism(forget(m.source), forget(m.target), dict(m.p), dict(m.q))
        assert not is_undirected_emulator(um).ok

    def path_case():
        m = path_4_over_3()
        assert is_undirected_emulator(m).ok
        src = m.source
        for k in range(len(src.edges) + 1):
            for keep in combinations(sorted(src.edges), k):
                sub = UndirectedGraph(src.vertices, [(e, src.ends(e)) for e in keep])
                cand = UndirectedMorphism(
                    sub, m.target, dict(m.p), {e: m.q[e] for e in keep}
                )
                assert not is_undirected_cover(cand).ok

    for case in (
        loop2_case,
        fork_case,
        amalgamation_case,
        swap_case,
        extraction_case,
        simplification_cover_loss_case,
        vee_case,
        path_case,
    ):
        timed(case)


def _dense_random_dfa(rng):
    states = [f"q{i}" for i in range(6)]
    letters = ["a", "b", "c"]
    edges, labels = [], {}
    for q in states:
        for letter in letters:
            eid = f"{q}.{letter}"
            choices = [s for s in states if s != q]
            edges.append((eid, q, rng.choice(choices)))
            labels[eid] = letter
    finals = {q for q in states if rng.random() < 0.5}
    semi = SemiAutomaton(DiGraph(states, edges), set(letters), labels)
    return accessible_part(Automaton(semi, {states[0]}, finals))


def _sparse_random_dfa(rng):
    ns = rng.randint(1, 6)
    nl = rng.randint(1, 3)
    states = [f"q{i}" for i in range(ns)]
    letters = [chr(ord("a") + i) for i in range(nl)]
    edges, labels = [], {}
    for q in states:
        for letter in letters:
            eid = f"{q}.{letter}"
            edges.append((eid, q, rng.choice(states)))
            labels[eid] = letter
    finals = {q for q in states if rng.random() < 0.5}
    semi = SemiAutomaton(DiGraph(states, edges), set(letters), labels)
    return accessible_part(Automaton(semi, {states[0]}, finals))


def _z5_123_automaton():
    states = [str(i) for i in range(5)]
    edges, labels = [], {}
    for i in range(5):
        for j in (1, 2, 3):
            eid = f"t{i}_{j}"
            edges.append((eid, str(i), str((i + j) % 5)))
            labels[eid] = str(j)
    semi = SemiAutomaton(DiGraph(states, edges), {"1", "2", "3"}, labels)
    return Automaton(semi, {"0"}, {"0"})


def test_criterion_5_theorem_round_trip():
    """criterion 5: for 30 random complete deterministic automata (plus one
    fixed nonplanar one) the extracted minimization cover feeds back through
    the reconstruction with exact language equality and no genus increase,
    under 5 minutes"""
    t0 = time.monotonic()
    rng = random.Random(SEED)
    cases = (
        [_z5_123_automaton()]
        + [_dense_random_dfa(rng) for _ in range(15)]
        + [_sparse_random_dfa(rng) for _ in range(15)]
    )
    nonplanar_seen = 0
    for a in cases:
        a = complete_with_trash(a)
        cover, amin = cover_of_minimization(a)
        assert is_directed_cover(cover).ok
        witness, strict = automaton_from_cover(a, cover)
        assert languages_equal(witness, a)
        assert languages_equal(witness, amin)
        gw = genus_exact(witness.graph).genus
        ga = genus_exact(a.graph).genus
        assert gw <= ga
        if ga > 0:
            nonplanar_seen += 1
    assert nonplanar_seen >= 3  # the claim is exercised beyond planar cases
    assert time.monotonic() - t0 < 300.0


def test_criterion_6_automatic_relation_theory():
    """criterion 6: on every non-isomorphic multidigraph with at most 4
    vertices and 6 edges, quotients are emulators, factorization is unique,
    the Myhill-Nerode round trip holds, the lattice operations match brute
    force, and the maximum quotient is terminal; under 10 minutes"""
    t0 = time.monotonic()
    rng = random.Random(SEED)
    graph_count = 0
    relation_count = 0
    for g in canonical_multidigraphs():
        graph_count += 1
        rels = enumerate_automatic_relations(g)
        relation_count += len(rels)
        for r in rels:
            _, can = quotient(g, r)
            assert is_directed_emulator(can).ok  # (a)
            r_back, iota = factorize(can)  # (b)
            assert r_back == r
            assert iota.is_isomorphism()
            assert automatic_to_mn_roundtrip(g, r).ok  # (c)
        if len(rels) <= 10:  # (d)
            lattice_pairs = [(x, y) for x in rels for y in rels]
        else:
            lattice_pairs = [
                (rng.choice(rels), rng.choice(rels)) for _ in range(40)
            ]
        for r1, r2 in lattice_pairs:
            j = join(g, r1, r2)
            m = meet(g, r1, r2)
            uppers = [r for r in rels if relation_leq(r1, r) and relation_leq(r2, r)]
            lowers = [r for r in rels if relation_leq(r, r1) and relation_leq(r, r2)]
            assert j in uppers and all(relation_leq(j, u) for u in uppers)
            assert m in lowers and all(relation_leq(low, m) for low in lowers)
    assert graph_count == 4388
    assert relation_count > 50000

    # (e) terminality of the maximum quotient on 30 random emulators
    checked = 0
    while checked < 30:
        g = random_digraph(rng, max_vertices=4, max_edges=6)
        if not g.vertices:
            continue
        rels = enumerate_automatic_relations(g)
        r = rng.choice(rels)
        _, phi = quotient(g, r)
        top = maximum(g)
        _, can_top = quotient(g, top)
        h_p, h_q = {}, {}
        for v in g.vertices:
            h_p.setdefault(phi.p[v], can_top.p[v])
            assert h_p[phi.p[v]] == can_top.p[v]  # well defined, so unique
        for e in g.edges:
            h_q.setdefault(phi.q[e], can_top.q[e])
            assert h_q[phi.q[e]] == can_top.q[e]
        h = GraphMorphism(phi.target, can_top.target, h_p, h_q)
        assert is_directed_emulator(h).ok
        assert compose_morphisms(h, phi).p == can_top.p
        assert compose_morphisms(h, phi).q == can_top.q
        checked += 1
    assert time.monotonic() - t0 < 600.0


def test_criterion_7_genus_invariance():
    """criterion 7: genus is invariant under reversal, simplification,
    excision and direction-forgetting on the fixture corpus and 100 random
    graphs, skipping only inputs over the rotation budget"""
    fixtures = []
    for entry in ENTRIES.values():
        obj = entry.build()
        if entry.kind == "graph":
            fixtures.append(obj)
        elif entry.kind == "auto":
            fixtures.append(obj.graph)
        elif entry.kind == "mor":
            fixtures.extend([obj.source, obj.target])
    ran = 0
    for g in fixtures:
        try:
            report = genus_invariance_suite(g)
        except BudgetError:
            continue
        assert report.ok, g
        ran += 1
    assert ran >= 12

    rng = random.Random(SEED)
    random_ran = 0
    for _ in range(100):
        g = random_digraph(rng, max_vertices=4, max_edges=7)
        try:
            report = genus_invariance_suite(g)
        except BudgetError:
            continue
        assert report.ok, g
        random_ran += 1
    assert random_ran >= 95


def test_criterion_8_adjunction_and_transfer():
    """criterion 8: the bidirection adjunction round-trips on 50 random
    morphisms, doubling preserves emulators both ways on 50 random undirected
    emulators, and the directed-cover counterexample stays a non-cover"""
    rng = random.Random(SEED)

    done = 0
    while done < 50:
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
        done += 1

    done = 0
    while done < 50:
        base = random_digraph(rng, max_vertices=3, max_edges=4)
        h = UndirectedGraph(
            forget(base).vertices,
            [
                (e, forget(base).ends(e))
                for e in forget(base).edges
                if not forget(base).is_loop(e)
            ],
        )
        if not h.vertices:
            continue
        um = random_undirected_emulator(rng, h)
        assert is_undirected_emulator(um).ok
        doubled_src = bidirect(um.source)
        from regulus.digraph import bidirect_edge_id

        q = {}
        for e in doubled_src.edges:
            s, t = doubled_src.ends(e)
            q[e] = bidirect_edge_id(um.q[e.split(":")[0]], um.p[s], um.p[t])
        doubled = GraphMorphism(doubled_src, bidirect(um.target), dict(um.p), q)
        assert is_directed_emulator(doubled).ok
        # and conversely: transferring the doubled morphism back is an emulator
        transferred = adjunction_transfer(doubled, um.target)
        assert is_undirected_emulator(transferred).ok
        done += 1

    h = UndirectedGraph(["x", "y"], [("e", ("x", "y"))])
    c2 = DiGraph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
    m = GraphMorphism(
        c2, bidirect(h), {"a": "x", "b": "y"}, {"e1": "e:x>y", "e2": "e:y>x"}
    )
    assert is_directed_cover(m).ok
    psi = adjunction_transfer(m, h)
    assert is_undirected_emulator(psi).ok
    assert not is_undirected_cover(psi).ok


CERT_ENV = "REGULUS_Z6_CERT"
CERT_DEFAULT = Path(__file__).parent / "fixtures" / "z6_planar_cover.cert.json"


def test_criterion_9_external_z6_certificate():
    """criterion 9: an externally supplied planar cover certificate for the
    mod-6 base graph verifies and settles planarity; skipped with a reason
    when no certificate is available"""
    path = os.environ.get(CERT_ENV) or (
        str(CERT_DEFAULT) if CERT_DEFAULT.exists() else None
    )
    if path is None:
        pytest.skip(
            "no external planar cover certificate for the mod-6 base graph "
            f"(set {CERT_ENV} or add {CERT_DEFAULT}); the construction is "
            "external input and is not synthesized here"
        )
    cert = formats.certificate_from_json(formats.loads(Path(path).read_text()))
    cert.verify()
    assert cert.genus == 0
    answer = language_genus_leq(z6_automaton(), 0, certificate=cert)
    assert answer.status == "yes"
    assert languages_equal(answer.witness, z6_automaton())
