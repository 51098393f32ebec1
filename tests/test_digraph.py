import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regulus import (
    DiGraph,
    DirectedCycle,
    DomainError,
    GraphMorphism,
    UndirectedGraph,
    UndirectedMorphism,
    bidirect,
    contract_cycle,
    excise,
    forget,
    opposite,
    pullback,
    reachability,
    simplify,
    subgraph,
    validate_morphism,
    validate_undirected_morphism,
)
from regulus.corpus import fork_nonemulator, op_example_graph
from regulus.digraph import (
    _component_of,
    ancestors,
    descendants,
    pair_id,
    strongly_connected_components,
    weakly_connected,
)

from conftest import (
    c2,
    identity_morphism,
    isomorphic,
    loop1,
    loop2,
    multidigraph,
    multidigraphs,
    p2,
    par2,
    random_digraph,
    reference_components,
)


class TestDiGraph:
    @pytest.mark.parametrize(
        "vertices, edges, bad",
        [
            ([1], [], "1"),
            (["u", ["v"]], [], "['v']"),
            (["u"], [(2, "u", "u")], "2"),
            (["u"], [("e", b"u", "u")], "b'u'"),
            (["u"], [("e", "u", None)], "None"),
        ],
        ids=["vertex", "unhashable-vertex", "edge", "source", "target"],
    )
    def test_non_string_ids_are_refused(self, vertices, edges, bad):
        with pytest.raises(DomainError) as err:
            DiGraph(vertices, edges)
        assert str(err.value) == f"ids must be strings, got {bad}"

    @settings(max_examples=200, deadline=None)
    @given(multidigraphs())
    def test_stars_match_the_edge_list(self, g):
        # an unknown vertex is refused before and after the stars are built
        for star in (g.out_edges, g.in_edges):
            with pytest.raises(DomainError):
                star("nowhere")
        for v in g.vertices:
            assert g.out_edges(v) == tuple(e for e, s, _ in g.edge_list() if s == v)
            assert g.in_edges(v) == tuple(e for e, _, t in g.edge_list() if t == v)
        for star in (g.out_edges, g.in_edges):
            with pytest.raises(DomainError):
                star("nowhere")


class TestValidateMorphism:
    def test_identity_on_c2(self):
        assert validate_morphism(identity_morphism(c2())).ok

    def test_fork_epimorphism_is_valid(self):
        m = fork_nonemulator()
        assert validate_morphism(m).ok
        assert m.is_surjective()

    def test_constructed_violation_points_at_edge(self):
        src = p2()
        tgt = c2()
        m = GraphMorphism(src, tgt, {"x": "a", "y": "a"}, {"e": "e1"})
        report = validate_morphism(m)
        assert not report.ok
        assert "e" in report.witness

    def test_partial_map_is_domain_error(self):
        with pytest.raises(DomainError):
            validate_morphism(GraphMorphism(p2(), p2(), {"x": "x"}, {"e": "e"}))

    @settings(max_examples=200, deadline=None)
    @given(multidigraphs(max_vertices=4, max_edges=6), st.data())
    def test_one_id_added_or_dropped_is_domain_error(self, g, data):
        # a KeyError here used to crash the CLI (exit 4), and an added vertex
        # passed unnoticed
        simple, rho = simplify(g)
        undirected = UndirectedMorphism(forget(g), forget(simple), rho.p, rho.q)
        for validate, m in ((validate_morphism, rho), (validate_undirected_morphism, undirected)):
            assert validate(m).ok
            maps = {"p": dict(m.p), "q": dict(m.q)}
            ids = maps[data.draw(st.sampled_from("pq"))]
            if ids and data.draw(st.booleans()):
                del ids[data.draw(st.sampled_from(sorted(ids)))]
            else:
                ids["zz"] = next(iter(ids.values()), "zz")
            with pytest.raises(DomainError):
                validate(type(m)(m.source, m.target, **maps))


class TestSimplify:
    def test_par2_merges_parallel_edges(self):
        r, rho = simplify(par2())
        assert len(r.edges) == 1
        assert rho.q == {"a": "a", "b": "a"}
        assert validate_morphism(rho).ok

    def test_simple_graph_unchanged_up_to_identity(self):
        g = c2()
        r, rho = simplify(g)
        assert r == g
        assert rho.is_isomorphism()

    def test_loop2_merges_equal_boundaries(self):
        r, _ = simplify(loop2())
        assert len(r.edges) == 1
        assert r.is_loop("e")

    def test_idempotent(self):
        g = DiGraph(
            ["a", "b"],
            [("z", "a", "b"), ("y", "a", "b"), ("x", "a", "a"), ("w", "a", "a")],
        )
        r1, _ = simplify(g)
        r2, _ = simplify(r1)
        assert r1 == r2

    def test_rho_is_surjection(self, rng):
        for _ in range(20):
            g = random_digraph(rng)
            _, rho = simplify(g)
            assert rho.is_surjective()
            assert validate_morphism(rho).ok


class TestExcise:
    def test_single_loop_leaves_isolated_vertex(self):
        g = excise(loop1())
        assert g.vertices == ("v",)
        assert not g.edges

    def test_c2_unchanged(self):
        assert excise(c2()) == c2()

    def test_complete_with_loops_becomes_loopless(self):
        g = DiGraph(
            [str(i) for i in range(6)],
            [(f"t{i}_{j}", str(i), str(j)) for i in range(6) for j in range(6)],
        )
        e = excise(g)
        assert len(e.edges) == 30
        assert all(not e.is_loop(x) for x in e.edges)


class TestOpposite:
    def test_example_graph(self):
        g = op_example_graph()
        o = opposite(g)
        assert o.is_loop("g")
        assert o.ends("e") == ("w", "v")
        assert o.ends("f") == ("v", "w")

    def test_involutive_and_commutes_with_simplify(self, rng):
        for _ in range(25):
            g = random_digraph(rng)
            assert opposite(opposite(g)) == g
            assert simplify(opposite(g))[0] == opposite(simplify(g)[0])

    def test_loop_fixed(self):
        assert opposite(loop1()) == loop1()

    def test_p2_reverses(self):
        assert opposite(p2()).ends("e") == ("y", "x")


class TestForget:
    def test_p2_single_edge(self):
        u = forget(p2())
        assert u.ends("e") == ("x", "y")

    def test_c2_gives_parallel_pair(self):
        u = forget(c2())
        assert u.ends("e1") == u.ends("e2") == ("a", "b")

    def test_op_invariant(self, rng):
        for _ in range(25):
            g = random_digraph(rng)
            assert forget(opposite(g)) == forget(g)


class TestBidirect:
    def test_single_edge_doubles(self):
        h = UndirectedGraph(["x", "y"], [("e", ("x", "y"))])
        d = bidirect(h)
        assert len(d.edges) == 2
        assert {d.ends(e) for e in d.edges} == {("x", "y"), ("y", "x")}

    def test_loop_stays_single(self):
        h = UndirectedGraph(["x"], [("e", ("x",))])
        d = bidirect(h)
        assert len(d.edges) == 1
        assert d.is_loop("e:x>x")

    def test_empty(self):
        assert bidirect(UndirectedGraph([], [])) == DiGraph([], [])

    def test_forget_doubles_nonloops_and_keeps_loops(self, rng):
        for _ in range(20):
            g = random_digraph(rng)
            h = forget(g)
            fb = forget(bidirect(h))
            nonloops = sum(1 for e in h.edges if not h.is_loop(e))
            loops = sum(1 for e in h.edges if h.is_loop(e))
            assert len(fb.edges) == 2 * nonloops + loops


def _reference_pullback(phi, psi):
    """The fibre product as every vertex pair and every edge pair with equal
    image, in phi's order and then psi's; neither map is checked."""
    vs = [
        (u, v)
        for u in phi.source.vertices
        for v in psi.source.vertices
        if phi.p[u] == psi.p[v]
    ]
    es = [
        (e, f)
        for e in phi.source.edges
        for f in psi.source.edges
        if phi.q[e] == psi.q[f]
    ]
    g = DiGraph(
        [pair_id(u, v) for u, v in vs],
        [
            (
                pair_id(e, f),
                pair_id(phi.source.src(e), psi.source.src(f)),
                pair_id(phi.source.dst(e), psi.source.dst(f)),
            )
            for e, f in es
        ],
    )
    pi1 = GraphMorphism(
        g, phi.source, {pair_id(u, v): u for u, v in vs}, {pair_id(e, f): e for e, f in es}
    )
    pi2 = GraphMorphism(
        g, psi.source, {pair_id(u, v): v for u, v in vs}, {pair_id(e, f): f for e, f in es}
    )
    return g, pi1, pi2


@st.composite
def cospans(draw):
    """Two morphisms into one multidigraph, the second sometimes the first:
    each source vertex picks an image, and each target edge whose ends both
    have preimages lifts once or twice, between vertices of those fibres."""
    target = draw(multidigraphs(max_vertices=3, max_edges=5))

    def morphism():
        vertex = st.sampled_from(target.vertices)
        images = draw(st.lists(vertex, min_size=1, max_size=6)) if target.vertices else []
        p = {f"v{i}": y for i, y in enumerate(images)}
        edges, q = [], {}
        for f, ends in target.edges.items():
            over = [[v for v in p if p[v] == y] for y in ends]
            for _ in range(draw(st.integers(1, 2)) if all(over) else 0):
                e = f"e{len(q)}"
                q[e] = f
                edges.append((e, draw(st.sampled_from(over[0])), draw(st.sampled_from(over[1]))))
        return GraphMorphism(DiGraph(p, edges), target, p, q)

    phi = morphism()
    return phi, phi if draw(st.booleans()) else morphism()


class TestPullback:
    def test_identity_square_is_diagonal(self):
        g = c2()
        ident = identity_morphism(g)
        l, pi1, pi2 = pullback(ident, ident)
        assert len(l.vertices) == 2
        assert len(l.edges) == 2
        assert validate_morphism(pi1).ok and validate_morphism(pi2).ok

    def test_par2_square_has_four_edges(self):
        _, rho = simplify(par2())
        l, _, _ = pullback(rho, rho)
        assert len(l.vertices) == 2
        assert len(l.edges) == 4

    def test_simplification_square_recovers_emulator_source(self):
        # pulling the projection back along an emulator of the simple graph
        # reproduces the emulator up to simplification
        g = par2()
        simple, rho = simplify(g)
        h = DiGraph(["m0", "m1"], [("c", "m0", "m1")])
        phi = GraphMorphism(h, simple, {"m0": "v", "m1": "w"}, {"c": "a"})
        l, _, _ = pullback(rho, phi)
        assert isomorphic(simplify(l)[0], simplify(h)[0])

    def test_mismatched_targets_rejected(self):
        with pytest.raises(DomainError):
            pullback(identity_morphism(c2()), identity_morphism(p2()))

    @settings(max_examples=300, deadline=None)
    @given(cospans())
    def test_matches_the_all_pairs_reference(self, pair):
        phi, psi = pair
        got, want = pullback(phi, psi), _reference_pullback(phi, psi)
        assert got[0] == want[0]
        for mine, theirs in zip(got[1:], want[1:]):
            assert list(mine.p.items()) == list(theirs.p.items())
            assert list(mine.q.items()) == list(theirs.q.items())


class TestReachability:
    def test_c2_strongly_connected(self):
        rep = reachability(c2())
        assert rep.pr["a"] == {"a", "b"}
        assert rep.reachable_vertices == {"a", "b"}
        assert rep.co_reachable_vertices == {"a", "b"}

    def test_p2(self):
        rep = reachability(p2())
        assert rep.pr["y"] == {"x", "y"}
        assert rep.reachable_vertices == {"y"}
        assert rep.co_reachable_vertices == {"x"}

    def test_two_isolated_vertices(self):
        rep = reachability(DiGraph(["a", "b"], []))
        assert not rep.reachable_vertices
        assert not rep.co_reachable_vertices


def _reference_strong_components(g):
    # brute force: a vertex's component is what it reaches that reaches it
    return {ancestors(g, v) & descendants(g, v) for v in g.vertices}


class TestWalksAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(multidigraphs())
    def test_ancestors_descendants_and_weak_connectivity_match_networkx(self, g):
        m = multidigraph(g)
        for v in g.vertices:
            assert ancestors(g, v) == nx.ancestors(m, v) | {v}
            assert descendants(g, v) == nx.descendants(m, v) | {v}
        assert weakly_connected(g) == (not g.vertices or nx.is_weakly_connected(m))

    @settings(max_examples=300, deadline=None)
    @given(multidigraphs())
    @example(DiGraph(  # a loop, parallel edges, a 2-cycle, a tail and an isolated vertex
        ["a", "b", "c", "d"],
        [("l", "a", "a"), ("p", "a", "b"), ("q", "a", "b"), ("r", "b", "a"), ("s", "b", "c")],
    ))
    def test_strong_components_match_reference(self, g):
        got = strongly_connected_components(g)
        assert len(got) == len(set(got))
        assert set(got) == _reference_strong_components(g)

    @settings(max_examples=300, deadline=None)
    @given(multidigraphs())
    def test_components_match_reference(self, g):
        # each vertex is named by the least vertex of its component
        view = g.int_view
        want = [-1] * len(g.vertices)
        for vs, _ in reference_components(forget(g)):
            for v in vs:
                want[g.vertices.index(v)] = g.vertices.index(vs[0])
        assert _component_of(len(g.vertices), zip(view.sources, view.targets)) == want


class TestContractCycle:
    def test_contract_loop_removes_it(self):
        g = DiGraph(["v", "w"], [("l", "v", "v"), ("e", "v", "w")])
        out = contract_cycle(g, DirectedCycle(("l",)))
        assert set(out.vertices) == {"v", "w"}
        assert set(out.edges) == {"e"}

    def test_contract_triangle_to_point(self):
        g = DiGraph(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")],
        )
        out = contract_cycle(g, DirectedCycle(("e1", "e2", "e3")))
        assert out.vertices == ("a+b+c",)
        assert not out.edges

    def test_incident_edges_reattach_with_multiplicity(self):
        g = DiGraph(
            ["a", "b", "x"],
            [
                ("e1", "a", "b"),
                ("e2", "b", "a"),
                ("in1", "x", "a"),
                ("in2", "x", "b"),
                ("chord", "a", "b"),
            ],
        )
        out = contract_cycle(g, DirectedCycle(("e1", "e2")))
        assert set(out.vertices) == {"x", "a+b"}
        assert out.ends("in1") == ("x", "a+b")
        assert out.ends("in2") == ("x", "a+b")
        assert out.is_loop("chord")

    def test_non_cycle_rejected(self):
        g = c2()
        with pytest.raises(DomainError):
            contract_cycle(g, DirectedCycle(("e1",)))
        with pytest.raises(DomainError):
            contract_cycle(g, DirectedCycle(("e1", "e2", "e1", "e2")))


class TestSubgraph:
    def test_restrict_c2_to_one_vertex(self):
        out = subgraph(c2(), ["a"], [])
        assert out.vertices == ("a",)
        assert not out.edges

    def test_full_restriction_is_identity(self, rng):
        for _ in range(10):
            g = random_digraph(rng)
            assert subgraph(g, g.vertices, list(g.edges)) == g

    def test_fork_restriction(self):
        g = fork_nonemulator().target
        out = subgraph(g, ["w0", "w1"], list(g.edges))
        assert set(out.edges) == {"a"}


class TestIntView:
    def test_positions_follow_the_sorted_ids(self, rng):
        for _ in range(25):
            g = random_digraph(rng)
            view = g.int_view
            vertices, edges = view.domain
            assert (vertices, edges) == (g.vertices, tuple(sorted(g.edges)))
            assert [(vertices[s], vertices[t]) for s, t in zip(view.sources, view.targets)] == [
                g.ends(e) for e in edges
            ]
            assert [tuple(edges[j] for j in o) for o in view.outs] == [
                g.out_edges(v) for v in vertices
            ]

    def test_built_once_per_graph_object(self):
        g = c2()
        assert g.int_view is g.int_view
        h = DiGraph(g.vertices, g.edge_list())
        assert h == g and h.int_view is not g.int_view
