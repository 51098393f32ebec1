import math
import time
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regulus import (
    BudgetError,
    DiGraph,
    DomainError,
    FaceVector,
    PreconditionError,
    RotationSystem,
    UndirectedGraph,
    euler_lower_bound,
    forget,
    genus_exact,
    genus_formula,
    genus_invariance_suite,
    is_planar,
    trace_faces,
)
from regulus.genus import (
    GenusResult,
    _lr_planar,
    _rotation,
    _search_min_genus,
    _support,
    dart_tokens,
    undirected_girth,
)

from conftest import (
    c2,
    k_bipartite,
    k_complete,
    loop1,
    loop2,
    multidigraphs,
    par2,
    random_digraph,
    reference_components,
    undirected_star,
)


def triangle():
    return UndirectedGraph(
        ["a", "b", "c"], [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("a", "c"))]
    )


@st.composite
def small_multigraphs(draw):
    """Multigraphs with loops and parallel edges and at most 2000 rotation
    systems: up to 4 vertices and 5 edges, or K3,3 plus up to 2 edges, which
    is non-planar and so makes genus_exact search rotations."""
    if draw(st.booleans()):
        kb = k_bipartite(3, 3)
        vs = list(kb.vertices)
        edges = [(e, kb.ends(e)) for e in kb.edges]
        extra = 2
    else:
        vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
        edges = []
        extra = 5
    vertex = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=extra))
    g = UndirectedGraph(vs, edges + [(f"x{i}", pair) for i, pair in enumerate(pairs)])
    degree = {v: 0 for v in vs}
    for e in g.edges:
        for _, v in dart_tokens(g, e):
            degree[v] += 1
    assume(math.prod(math.factorial(max(0, d - 1)) for d in degree.values()) <= 2000)
    return g


def _brute_force_min_genus(g):
    # independent oracle: enumerate every rotation system outright and
    # take the minimum traced genus, with no pruning or symmetry use
    from itertools import permutations, product

    darts_at = {v: [] for v in g.vertices}
    for e in g.edges:
        for tok, v in dart_tokens(g, e):
            darts_at[v].append(tok)
    options = []
    for v in g.vertices:
        ds = darts_at[v]
        if len(ds) <= 1:
            options.append([tuple(ds)])
        else:
            options.append(
                [(ds[0],) + p for p in permutations(ds[1:])]
            )
    best = None
    for combo in product(*options):
        rot = RotationSystem(dict(zip(g.vertices, combo)))
        _, genus = trace_faces(g, rot)
        best = genus if best is None else min(best, genus)
    return best


# The support path that one networkx graph replaced: an UndirectedGraph
# support, converted for the planarity test with a vertex-pair map.

def _reference_support(g):
    groups = {}
    for e in sorted(g.edges):
        ends = g.ends(e)
        if len(ends) == 1:
            continue
        groups.setdefault(ends, []).append(e)
    support = UndirectedGraph(g.vertices, [(es[0], ends) for ends, es in groups.items()])
    return support, groups


def _reference_nx_support(support):
    nxg = nx.Graph()
    nxg.add_nodes_from(support.vertices)
    edge_of_pair = {}
    for e in support.edges:
        a, b = support.ends(e)
        nxg.add_edge(a, b)
        edge_of_pair[(a, b)] = e
        edge_of_pair[(b, a)] = e
    return nxg, edge_of_pair


def _reference_planar_embedding_support(support):
    nxg, edge_of_pair = _reference_nx_support(support)
    ok, cert = nx.check_planarity(nxg)
    if not ok:
        return None
    rotations = {}
    for v in support.vertices:
        order = []
        for w in cert.neighbors_cw_order(v) if nxg.degree(v) else []:
            e = edge_of_pair[(v, w)]
            a, _ = support.ends(e)
            order.append(f"{e}+" if a == v else f"{e}-")
        rotations[v] = tuple(order)
    return rotations


def _insert_multiedges_and_loops(g, groups, support_rot):
    """Extend a rotation system of the support graph to the full multigraph,
    given the edge groups of _reference_support(g): each extra parallel edge
    is inserted beside the one before it, found by its token, and each loop
    is appended as an adjacent pair of ends."""
    rot = {v: list(support_rot.get(v, ())) for v in g.vertices}
    for (a, b), group in groups.items():
        for prev, e in zip(group, group[1:]):
            rot[a].insert(rot[a].index(f"{prev}+") + 1, f"{e}+")
            rot[b].insert(rot[b].index(f"{prev}-"), f"{e}-")
    for e in g.edges:
        if g.is_loop(e):
            rot[g.ends(e)[0]].extend([f"{e}+", f"{e}-"])
    return RotationSystem(rot)


def _tokens(simple, nbrs):
    """Neighbour lists over a simple graph's vertex positions as its edge-end tokens."""
    token = {}
    for e, (a, b) in simple.edges.items():
        token[a, b], token[b, a] = f"{e}+", f"{e}-"
    vs = simple.vertices
    return {v: tuple(token[v, vs[w]] for w in ws) for v, ws in zip(vs, nbrs)}


def _search_tokens(simple, girth, stop_genus, budget):
    """_search_min_genus on a loopless simple UndirectedGraph, with its
    rotations as that graph's edge-end tokens."""
    index = {v: i for i, v in enumerate(simple.vertices)}
    pairs = [tuple(index[x] for x in ends) for ends in simple.edges.values()]
    genus, nbrs = _search_min_genus(len(index), pairs, girth, stop_genus, budget)
    return genus, _tokens(simple, nbrs)


def _reference_is_planar(g):
    """(witness, obstruction) of is_planar along the reference path."""
    ug = forget(g) if isinstance(g, DiGraph) else g
    support, groups = _reference_support(ug)
    rotations = _reference_planar_embedding_support(support)
    if rotations is None:
        nxg, edge_of_pair = _reference_nx_support(support)
        _, kuratowski = nx.check_planarity(nxg, counterexample=True)
        return None, tuple(sorted({edge_of_pair[(a, b)] for a, b in kuratowski.edges()}))
    return _insert_multiedges_and_loops(ug, groups, rotations), None


def _reference_genus_exact(g, budget):
    """genus_exact along the reference path."""
    ug = forget(g) if isinstance(g, DiGraph) else g
    total, rotations = 0, {}
    for comp_vs, comp_es in reference_components(ug):
        comp = UndirectedGraph(comp_vs, [(e, ug.ends(e)) for e in comp_es])
        support, groups = _reference_support(comp)
        support_rot = _reference_planar_embedding_support(support)
        if support_rot is None:
            comp_genus, support_rot = _search_tokens(
                support, undirected_girth(support), 1, budget
            )
            total += comp_genus
        rotations.update(_insert_multiedges_and_loops(comp, groups, support_rot).rotations)
    return GenusResult(total, RotationSystem(rotations))


@st.composite
def component_multigraphs(draw, directed=st.booleans()):
    """UndirectedGraphs or DiGraphs of one to three components with loops,
    parallel edges and, when directed, 2-cycles.  A component is sometimes
    K5 or K3,3, so the rotation search runs.  Edge ids are a shuffle of the
    drawing order, so id order and drawing order differ."""
    vs, pairs = [], []
    for c in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["small", "small", "K5", "K3,3"]))
        if kind == "small":
            cv, cp = [f"c{c}v{i}" for i in range(draw(st.integers(1, 4)))], []
        elif kind == "K5":
            cv = [f"c{c}v{i}" for i in range(5)]
            cp = list(combinations(cv, 2))
        else:
            cv = [f"c{c}v{i}" for i in range(6)]
            cp = [(a, b) for a in cv[:3] for b in cv[3:]]
        vertex = st.sampled_from(cv)
        cp += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
        vs += cv
        pairs += cp
    ids = [f"e{i}" for i in draw(st.permutations(range(len(pairs))))]
    if draw(directed):
        pairs += [(b, a) for a, b in pairs[: draw(st.integers(0, 3))]]
        ids += [f"r{i}" for i in range(len(pairs) - len(ids))]
        return DiGraph(vs, [(e, a, b) for e, (a, b) in zip(ids, pairs)])
    return UndirectedGraph(vs, list(zip(ids, pairs)))


@st.composite
def crowded_multigraphs(draw):
    """Up to 6 vertices and 14 edges, so most pairs carry a parallel group
    and most vertices a loop; edge ids are a shuffle of the drawing order."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    vertex = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    ids = [f"e{i}" for i in draw(st.permutations(range(len(pairs))))]
    return UndirectedGraph(vs, list(zip(ids, pairs)))


def _outcome(genus_exact_of):
    """(genus, witness rotations in order) or the BudgetError text."""
    try:
        res = genus_exact_of()
    except BudgetError as exc:
        return str(exc)
    return res.genus, list(res.witness.rotations.items())


class TestTraceFaces:
    def test_triangle_two_faces(self):
        g = triangle()
        rot = RotationSystem(
            {"a": ("e1+", "e3+"), "b": ("e1-", "e2+"), "c": ("e2-", "e3-")}
        )
        faces, genus = trace_faces(g, rot)
        assert sum(faces.counts.values()) == 2
        assert genus == 0

    def test_single_loop(self):
        g = forget(loop1())
        rot = RotationSystem({"v": ("g+", "g-")})
        faces, genus = trace_faces(g, rot)
        assert sum(faces.counts.values()) == 2
        assert genus == 0

    def test_k5_genus_one_rotation(self):
        res = genus_exact(k_complete(5))
        faces, genus = trace_faces(k_complete(5), res.witness)
        assert genus == 1
        assert sum(faces.counts.values()) == 5  # 5 - 10 + 5 = 0 = 2 - 2g
        assert sum(i * c for i, c in faces.counts.items()) == 2 * 10

    def test_face_length_sum_invariant(self, rng):
        for _ in range(15):
            g = forget(random_digraph(rng, max_vertices=4, max_edges=6))
            res = genus_exact(g)
            faces, genus = trace_faces(g, res.witness)
            assert sum(i * c for i, c in faces.counts.items()) == 2 * len(g.edges)
            assert genus == res.genus

    def test_bad_rotation_rejected(self):
        g = triangle()
        with pytest.raises(DomainError):
            trace_faces(g, RotationSystem({"a": ("e1+",)}))

    def test_invariants_on_arbitrary_rotations(self, rng):
        # any rotation system at all: face lengths sum to 2E, the Euler
        # characteristic is even, and the genus is a non-negative integer
        from regulus.genus import dart_tokens

        for _ in range(40):
            g = forget(random_digraph(rng, max_vertices=5, max_edges=8))
            rotations = {}
            for v in g.vertices:
                darts = []
                for e in undirected_star(g, v):
                    for tok, at in dart_tokens(g, e):
                        if at == v:
                            darts.append(tok)
                rng.shuffle(darts)
                rotations[v] = tuple(darts)
            faces, genus = trace_faces(g, RotationSystem(rotations))
            assert sum(i * c for i, c in faces.counts.items()) == 2 * len(g.edges)
            assert genus >= 0


def lcf(n: int, shifts: list[int], repeats: int) -> UndirectedGraph:
    nxg = nx.LCF_graph(n, shifts, repeats)
    return UndirectedGraph(
        [str(v) for v in nxg.nodes],
        [(f"e{i}", (str(a), str(b))) for i, (a, b) in enumerate(nxg.edges)],
    )


class TestGenusExact:
    @pytest.mark.parametrize(
        "g, genus",
        [
            # Ringel and Youngs; Ringel; the Heawood graph is the torus dual
            # of K7; the Desargues graph has genus 2
            (k_complete(7), 1),
            (k_complete(8), 2),
            (k_bipartite(3, 6), 1),
            (k_bipartite(4, 5), 2),
            (lcf(14, [5, -5], 7), 1),
            (lcf(20, [5, -5, 9, -9], 5), 2),
        ],
        ids=["K7", "K8", "K3,6", "K4,5", "Heawood", "Desargues"],
    )
    def test_literature_values_under_the_default_budget(self, g, genus):
        t0 = time.perf_counter()
        result = genus_exact(g)
        assert time.perf_counter() - t0 < 1.0
        assert result.genus == genus
        assert trace_faces(g, result.witness)[1] == genus

    def test_classical_values(self):
        assert genus_exact(k_complete(5)).genus == 1
        assert genus_exact(k_bipartite(3, 3)).genus == 1
        assert genus_exact(k_complete(6)).genus == 1
        assert genus_exact(k_complete(4)).genus == 0

    def test_tree_and_small_multigraphs(self):
        tree = UndirectedGraph(
            ["a", "b", "c"], [("e", ("a", "b")), ("f", ("b", "c"))]
        )
        assert genus_exact(tree).genus == 0
        assert genus_exact(c2()).genus == 0
        assert genus_exact(par2()).genus == 0
        assert genus_exact(loop2()).genus == 0

    def test_additivity_over_components(self):
        vs = list(k_complete(5).vertices) + [f"w{i}" for i in range(6)]
        es = [(e, k_complete(5).ends(e)) for e in k_complete(5).edges]
        kb = k_bipartite(3, 3)
        renamed = {v: f"w{i}" for i, v in enumerate(kb.vertices)}
        es += [
            (f"b{e}", tuple(renamed[x] for x in kb.ends(e))) for e in kb.edges
        ]
        assert genus_exact(UndirectedGraph(vs, es)).genus == 2

    def test_budget_refusal(self):
        k8 = k_complete(8)
        with pytest.raises(BudgetError):
            genus_exact(k8, budget=10)

    def test_budget_refusal_says_where_it_stopped(self):
        # K8's Euler bound rules out genus 1, so the search starts at 2
        with pytest.raises(BudgetError, match="after 10 nodes: genus 1 refuted, genus 2 undecided"):
            genus_exact(k_complete(8), budget=10)

    @settings(max_examples=150, deadline=None)
    @given(small_multigraphs())
    @example(UndirectedGraph(["u"], [("e", ("u",)), ("f", ("u",))]))
    @example(UndirectedGraph(["u", "v"], [("e", ("u", "v")), ("f", ("u", "v")), ("g", ("v",))]))
    def test_against_brute_force_rotation_enumeration(self, g):
        # on the loopless simple support of each component, "genus <= n"
        # must be decided yes exactly when enumerating every rotation system
        # of the component itself, loops and parallel edges included,
        # reaches genus n, also for every n below that minimum; and
        # genus_exact must reach the summed minimum
        best = 0
        for vs, es in reference_components(g):
            if not es:
                continue
            comp = UndirectedGraph(vs, [(e, g.ends(e)) for e in es])
            comp_best = _brute_force_min_genus(comp)
            support, _ = _reference_support(comp)
            girth = undirected_girth(support)
            for n in range(comp_best + 2):
                genus, rotations = _search_tokens(support, girth, n, math.inf)
                assert trace_faces(support, RotationSystem(rotations))[1] == genus
                assert (genus <= n) == (comp_best <= n)
                assert genus >= comp_best
                assert genus <= n or genus == comp_best
            best += comp_best
        assert genus_exact(g).genus == best


class TestPlanarity:
    def test_k4_planar_with_witness(self):
        rep = is_planar(k_complete(4))
        assert rep.planar
        _, genus = trace_faces(k_complete(4), rep.witness)
        assert genus == 0

    def test_k5_not_planar_with_obstruction(self):
        rep = is_planar(k_complete(5))
        assert not rep.planar
        assert rep.obstruction

    @pytest.mark.parametrize("g", [k_complete(5), k_bipartite(3, 3)], ids=["K5", "K3,3"])
    def test_obstruction_is_a_non_planar_subgraph(self, g):
        obstruction = is_planar(g).obstruction
        assert set(obstruction) <= set(g.edges)
        assert not nx.check_planarity(nx.Graph(g.ends(e) for e in obstruction))[0]

    def test_obstruction_is_extracted_on_first_read_only(self, monkeypatch):
        import regulus.genus

        calls = []
        monkeypatch.setattr(
            regulus.genus, "_lr_planar", lambda n, pairs: calls.append(n) or _lr_planar(n, pairs)
        )
        rep = is_planar(k_complete(5))
        assert len(calls) == 1
        first = rep.obstruction
        extraction = len(calls)
        assert extraction > 1
        assert rep.obstruction == first
        assert len(calls) == extraction
        assert is_planar(k_complete(4)).obstruction is None

    def test_k7_like_language_graph_not_planar(self):
        edges = [
            (f"t{i}_{j}", str(i), str((i + j) % 7))
            for i in range(7)
            for j in (1, 2, 3)
        ]
        g = DiGraph([str(i) for i in range(7)], edges)
        assert not is_planar(g).planar

    def test_agreement_with_genus_exact(self, rng):
        for _ in range(200):
            g = random_digraph(rng, max_vertices=5, max_edges=8)
            assert is_planar(g).planar == (genus_exact(g).genus == 0)

    def test_agreement_on_fixture_corpus(self):
        from regulus import BudgetError
        from regulus.corpus import ENTRIES

        for entry in ENTRIES.values():
            obj = entry.build()
            graphs = []
            if entry.kind == "graph":
                graphs = [obj]
            elif entry.kind == "auto":
                graphs = [obj.graph]
            elif entry.kind == "mor":
                graphs = [obj.source, obj.target]
            for g in graphs:
                try:
                    exact = genus_exact(g).genus
                except BudgetError:
                    continue
                assert is_planar(g).planar == (exact == 0)

    def test_multigraph_witness_includes_all_edges(self):
        rep = is_planar(loop2())
        assert rep.planar
        toks = [t for rot in rep.witness.rotations.values() for t in rot]
        assert sorted(toks) == ["e+", "e-", "f+", "f-"]


_K5 = list(combinations(range(5), 2))
_K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def _relabelled(draw, n: int, pairs) -> tuple[int, list[tuple[int, int]]]:
    """The graph under a drawn vertex numbering, its sorted pairs in drawn order."""
    perm = draw(st.permutations(range(n)))
    return n, draw(st.permutations([tuple(sorted((perm[a], perm[b]))) for a, b in pairs]))


def _triangulation(draw, n: int) -> set[tuple[int, int]]:
    """Edges of a triangulation of the sphere on n >= 3 vertices: a stacked
    one (each vertex put into a drawn face), then drawn edge flips."""
    faces = [(0, 1, 2), (0, 2, 1)]  # a face (a, b, c) has the darts a->b, b->c, c->a
    for v in range(3, n):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    edges = {tuple(sorted((f[i - 1], f[i]))) for f in faces for i in range(3)}
    for _ in range(draw(st.integers(0, n))):
        i = draw(st.integers(0, len(faces) - 1))
        a, b, c = faces[i]
        # the face across a->b has the dart b->a: rotate it to (b, a, d)
        j, (_, _, d) = next(
            (j, g) for j, f in enumerate(faces) for g in (f, f[1:] + f[:1], f[2:] + f[:2])
            if g[:2] == (b, a)
        )
        if c == d or tuple(sorted((c, d))) in edges:
            continue
        edges.remove(tuple(sorted((a, b))))
        edges.add(tuple(sorted((c, d))))
        faces[i], faces[j] = (a, d, c), (d, b, c)
    return edges


@st.composite
def random_graphs(draw, max_vertices: int = 40):
    """A random graph: sparse, with up to n + 3 edges, or dense, with 2n to
    3n edges where there are that many pairs."""
    n = draw(st.integers(0, max_vertices))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]).map(lambda p: tuple(sorted(p)))
    if draw(st.booleans()):
        least, most = min(2 * n, n * (n - 1) // 2), 3 * n
    else:
        least, most = 0, n + 3
    return n, list(draw(st.sets(pair, min_size=least, max_size=most)))


@st.composite
def near_triangulations(draw, max_vertices: int = 40):
    """A triangulation less a few edges, plus up to three random edges (which
    make most of them non-planar), relabelled."""
    n = draw(st.integers(3, max_vertices))
    edges = _triangulation(draw, n)
    edges -= draw(st.sets(st.sampled_from(sorted(edges)), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.add((min(a, b), max(a, b)))
    return _relabelled(draw, n, edges)


@st.composite
def hung_kuratowski(draw):
    """K5 or K3,3 with each edge subdivided up to twice, and up to two
    planar parts (triangulations less some edges) hung on it at a vertex."""
    n, core = draw(st.sampled_from([(5, _K5), (6, _K33)]))
    pairs = []
    for a, b in core:
        k = draw(st.integers(0, 2))
        path = [a, *range(n, n + k), b]
        n += k
        pairs += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.integers(3, 8))
        part = sorted(_triangulation(draw, size))
        part = draw(st.lists(st.sampled_from(part), unique=True, min_size=1))
        at = draw(st.integers(0, n - 1))
        pairs += [(at if a == 0 else n + a - 1, n + b - 1) for a, b in part]
        n += size - 1
    return _relabelled(draw, n, pairs)


@st.composite
def disjoint_unions(draw):
    """Two graphs side by side with up to three isolated vertices, relabelled."""
    part = st.one_of(random_graphs(12), near_triangulations(12), hung_kuratowski())
    (n, first), (m, second) = draw(part), draw(part)
    pairs = first + [(a + n, b + n) for a, b in second]
    return _relabelled(draw, n + m + draw(st.integers(0, 3)), pairs)


def _nx_graph(n: int, pairs) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(pairs)
    return graph


def _nx_planar(n: int, pairs) -> list[list[int]] | None:
    """networkx's planar embedding as each vertex's clockwise neighbours, or
    None, so that comparing it with _lr_planar pins the witness too."""
    graph = _nx_graph(n, pairs)
    ok, embedding = nx.check_planarity(graph)
    if not ok:
        return None
    return [list(embedding.neighbors_cw_order(v)) if graph.degree(v) else [] for v in range(n)]


class TestLRPlanar:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_graphs(), near_triangulations(), hung_kuratowski(), disjoint_unions()))
    @example((0, []))
    @example((5, _K5))
    @example((6, _K33))
    @example((6, _K5))  # K5 and an isolated vertex
    def test_agrees_with_networkx(self, case):
        n, pairs = case
        assert _lr_planar(n, pairs) == _nx_planar(n, pairs)

    @pytest.mark.parametrize("k, steps", [(6, (1, 3)), (7, (1, 2))], ids=["L6-13", "L7-12"])
    def test_agrees_on_the_supports_a_cover_search_tests(self, monkeypatch, k, steps):
        from regulus import CoverSearchSpec, emulation, search_covers

        tested = []

        def recording(n, pairs):
            tested.append((n, list(pairs)))
            return _lr_planar(n, pairs)

        monkeypatch.setattr(emulation, "_lr_planar", recording)
        base = DiGraph(
            [str(i) for i in range(k)],
            [(f"t{i}_{j}", str(i), str((i + j) % k)) for i in range(k) for j in steps],
        )
        out = search_covers(CoverSearchSpec(base, max_fiber=2))
        assert out.status == "found" and len(tested) == out.stats.planarity_tests
        for n, pairs in tested:
            assert _lr_planar(n, pairs) == _nx_planar(n, pairs)

    def test_long_cycle_and_large_grid_stay_within_the_recursion_limit(self):
        assert _lr_planar(5000, [(i, i + 1) for i in range(4999)] + [(0, 4999)])
        grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(70, 70))
        assert _lr_planar(4900, [tuple(sorted(e)) for e in grid.edges])


def _named(n: int, pairs) -> UndirectedGraph:
    """The graph on the pairs with ids that sort in vertex and pair order,
    so that its support reads the pairs as given."""
    return UndirectedGraph(
        [f"v{i:04d}" for i in range(n)],
        [(f"e{k:05d}", (f"v{a:04d}", f"v{b:04d}")) for k, (a, b) in enumerate(pairs)],
    )


_lr_cases = st.one_of(random_graphs(), near_triangulations(), hung_kuratowski(), disjoint_unions())


class TestAgainstNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(_lr_cases)
    @example((6, [(0, 1), (1, 2), (2, 0), (3, 4)]))  # a triangle, an edge and a lone vertex
    def test_each_embedding_traces_to_genus_zero(self, case):
        # test_agrees_with_networkx holds each embedding to networkx's
        n, pairs = case
        rotations = _lr_planar(n, pairs)
        if rotations is None:
            return
        g = _named(n, pairs)
        eid = {frozenset(p): f"e{k:05d}" for k, p in enumerate(pairs)}
        token = {(e, v): t for e in g.edges for t, v in dart_tokens(g, e)}
        rot = {
            f"v{v:04d}": tuple(token[eid[frozenset((v, w))], f"v{v:04d}"] for w in nbrs)
            for v, nbrs in enumerate(rotations)
        }
        assert trace_faces(g, RotationSystem(rot))[1] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_graphs(12), hung_kuratowski(), disjoint_unions()))
    def test_obstruction_is_networkx_counterexample(self, case):
        n, pairs = case
        rep = is_planar(_named(n, pairs))
        ok, kuratowski = nx.check_planarity(_nx_graph(n, pairs), counterexample=True)
        assert rep.planar == ok
        if not ok:
            got = {frozenset(pairs[int(e[1:])]) for e in rep.obstruction}
            assert got == {frozenset(e) for e in kuratowski.edges()}

    @settings(max_examples=200, deadline=None)
    @given(_lr_cases)
    @example((0, []))
    @example((5, [(0, 1), (1, 2), (1, 3), (3, 4)]))  # a tree
    def test_girth_is_networkx_girth(self, case):
        n, pairs = case
        assert undirected_girth(_named(n, pairs)) == nx.girth(_nx_graph(n, pairs))

    def test_long_cycle_and_large_grid_embed_within_the_recursion_limit(self):
        assert is_planar(_named(5000, [(i, i + 1) for i in range(4999)] + [(0, 4999)])).planar
        grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(70, 70))
        assert is_planar(_named(4900, [tuple(sorted(e)) for e in grid.edges])).planar


class TestSupport:
    @settings(max_examples=150, deadline=None)
    @given(component_multigraphs(), st.sampled_from([10, 1000]))
    def test_matches_reference_path(self, g, budget):
        # witnesses, obstructions and refusals are those of the support
        # path built as an UndirectedGraph and converted for networkx
        rep = is_planar(g)
        witness, obstruction = _reference_is_planar(g)
        assert rep.planar == (witness is not None)
        if witness is not None:
            assert list(rep.witness.rotations.items()) == list(witness.rotations.items())
        assert rep.obstruction == obstruction
        got = _outcome(lambda: genus_exact(g, budget=budget))
        assert got == _outcome(lambda: _reference_genus_exact(g, budget))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(crowded_multigraphs(), component_multigraphs(directed=st.just(False))),
           st.data())
    def test_rotation_is_the_reference_insertion(self, g, data):
        # any cyclic neighbour orders, not only those the LR test or the
        # rotation search give, so a parallel group may be met at its larger
        # end before its smaller one
        support = _support(g)
        nbrs = [[] for _ in support.vertices]
        for a, b in support.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        nbrs = [data.draw(st.permutations(ws)) for ws in nbrs]
        simple, groups = _reference_support(g)
        support_rot = _tokens(simple, nbrs)
        rot = _rotation(g, support, enumerate(nbrs))
        reference = _insert_multiedges_and_loops(g, groups, support_rot)
        assert list(rot.rotations.items()) == list(reference.rotations.items())
        assert trace_faces(g, rot)[1] == trace_faces(simple, RotationSystem(support_rot))[1]

    def test_genus_exact_builds_no_undirected_graph(self, monkeypatch):
        # components are split on the support's integer pairs, so no graph
        # is built per component, nor a simple graph beside one
        import regulus.genus

        built = []

        class Counted(UndirectedGraph):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        three = UndirectedGraph(
            [*k_complete(5).vertices, "x", "y", "z"],
            [*k_complete(5).edges.items(), ("l", ("x",)), ("p", ("x", "y")), ("q", ("x", "y"))],
        )
        monkeypatch.setattr(regulus.genus, "UndirectedGraph", Counted)
        assert genus_exact(k_complete(7)).genus == 1
        assert genus_exact(three).genus == 1
        assert built == []

    def test_non_planar_component_builds_its_support_once(self, monkeypatch):
        # the rotation search takes its girth from the support the planarity
        # test already read, instead of building that support again
        import regulus.genus

        calls = []
        monkeypatch.setattr(regulus.genus, "_support", lambda g: calls.append(g) or _support(g))
        assert genus_exact(k_complete(7)).genus == 1
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(component_multigraphs(directed=st.just(True)))
    def test_digraph_reads_as_its_undirected_graph(self, g):
        rep, undirected = is_planar(g), is_planar(forget(g))
        assert rep.witness == undirected.witness
        assert rep.obstruction == undirected.obstruction
        assert undirected_girth(g) == undirected_girth(forget(g))

    def test_support_edges_carry_their_least_edge(self):
        g = DiGraph(["a", "b"], [("e3", "b", "a"), ("e1", "a", "b"), ("e2", "b", "a"),
                                 ("e0", "a", "a")])
        support = _support(g)
        assert [es[0] for es in support.edges.values()] == ["e1"]
        assert support.edges == {(0, 1): ["e1", "e2", "e3"]}


def _reference_girth(g):
    # the breadth-first search that nx.girth replaced
    if any(g.is_loop(e) for e in g.edges):
        return 1
    pairs: dict[tuple[str, str], int] = {}
    for e in g.edges:
        key = g.ends(e)
        pairs[key] = pairs.get(key, 0) + 1
    if any(c > 1 for c in pairs.values()):
        return 2
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    best = math.inf
    for root in g.vertices:
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y and parent[y] != x:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
    return best


class TestGirth:
    @settings(max_examples=400, deadline=None)
    @given(multidigraphs(max_vertices=8, max_edges=14))
    def test_matches_breadth_first_reference(self, g):
        u = forget(g)
        assert undirected_girth(u) == _reference_girth(u)

    def test_small_cases(self):
        assert undirected_girth(forget(loop1())) == 1
        assert undirected_girth(forget(par2())) == 2
        assert undirected_girth(forget(c2())) == 2
        assert undirected_girth(triangle()) == 3
        assert undirected_girth(k_bipartite(3, 3)) == 4
        assert undirected_girth(UndirectedGraph(["a", "b"], [("e", ("a", "b"))])) == math.inf


class TestEulerLowerBound:
    def test_k7(self):
        assert euler_lower_bound(k_complete(7), 3) == 1

    def test_k5_and_k33(self):
        assert euler_lower_bound(k_complete(5), 3) == 1
        assert euler_lower_bound(k_bipartite(3, 3), 4) == 1

    def test_tree_is_zero(self):
        tree = UndirectedGraph(["a", "b"], [("e", ("a", "b"))])
        assert euler_lower_bound(tree, 3) == 0

    def test_girth_violation_rejected(self):
        with pytest.raises(PreconditionError):
            euler_lower_bound(triangle(), 4)

    def test_sound_against_exact(self, rng):
        for _ in range(20):
            g = forget(random_digraph(rng, max_vertices=5, max_edges=8))
            girth = undirected_girth(g)
            if girth < 3:
                continue
            if len(reference_components(g)) != 1:
                continue
            floor = 3 if girth == math.inf else min(int(girth), 5)
            assert euler_lower_bound(g, floor) <= genus_exact(g).genus


class TestGenusFormula:
    def test_triangulation_of_k7(self):
        # 7 vertices, 21 edges, 14 triangles: torus triangulation
        assert genus_formula(3, FaceVector({3: 14})) == 1

    def test_triangle_coefficient_vanishes_at_m3(self):
        for k in (1, 5, 20):
            assert genus_formula(3, FaceVector({3: k})) == 1

    def test_matches_traced_embeddings(self, rng):
        # uniform-outdegree digraphs: formula equals traced genus
        for m in (1, 2, 3):
            for _ in range(8):
                nv = rng.randint(1, 4)
                vs = [f"v{i}" for i in range(nv)]
                edges = []
                for i, v in enumerate(vs):
                    for j in range(m):
                        edges.append((f"e{i}_{j}", v, rng.choice(vs)))
                g = DiGraph(vs, edges)
                res = genus_exact(g)
                faces, traced = trace_faces(forget(g), res.witness)
                if len(reference_components(forget(g))) != 1:
                    continue
                assert genus_formula(m, faces) == Fraction(traced)

    def test_m_below_one_rejected(self):
        with pytest.raises(DomainError):
            genus_formula(0, FaceVector({}))

    def test_face_length_below_one_rejected(self):
        with pytest.raises(DomainError, match="face length 0 is below 1"):
            genus_formula(3, FaceVector({3: 2, 0: 1}))

    def test_negative_face_count_rejected(self):
        with pytest.raises(DomainError, match="face count -1 for length 3 is negative"):
            genus_formula(3, FaceVector({3: -1}))


class TestInvarianceSuite:
    def test_par2_all_zero(self):
        rep = genus_invariance_suite(par2())
        assert rep.ok and rep.base == 0

    def test_loop2_all_zero(self):
        rep = genus_invariance_suite(loop2())
        assert rep.ok and rep.base == 0

    def test_bidirected_k5_all_one(self):
        from regulus import bidirect

        g = bidirect(k_complete(5))
        rep = genus_invariance_suite(g)
        assert rep.ok and rep.base == 1

    def test_random_graphs(self, rng):
        for _ in range(15):
            g = random_digraph(rng, max_vertices=4, max_edges=7)
            assert genus_invariance_suite(g).ok
