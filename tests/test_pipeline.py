import sys

import pytest

from regulus import (
    Automaton,
    CoverSearchSpec,
    DiGraph,
    DirectedCycle,
    DomainError,
    GraphMorphism,
    SemiAutomaton,
    UndirectedGraph,
    bidirect,
    complete_with_trash,
    contract_cycle,
    genus_exact,
    is_directed_cover,
    language_base,
    language_genus_leq,
    minimal_cover_base,
    minimize,
    pullback,
    search_covers,
)
from regulus import digraph, genus, relations
from regulus.corpus import abc_mod7_automaton, z6_automaton, z7_123_automaton
from regulus.formats import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    loads,
)


def mod3_single_letter():
    states = ["0", "1", "2"]
    edges = [("e0", "0", "1"), ("e1", "1", "2"), ("e2", "2", "0")]
    semi = SemiAutomaton(DiGraph(states, edges), {"a"}, {e: "a" for e, _, _ in edges})
    return Automaton(semi, {"0"}, {"0"})


def modk(k, letters):
    """L(k, letters): the words whose letter sum is 0 mod k."""
    states = [str(i) for i in range(k)]
    edges = [(f"t{i}_{j}", str(i), str((i + j) % k)) for i in range(k) for j in letters]
    labels = {e: e.split("_")[1] for e, _, _ in edges}
    semi = SemiAutomaton(DiGraph(states, edges), {str(j) for j in letters}, labels)
    return Automaton(semi, {"0"}, {"0"})


def count_calls(monkeypatch, fn) -> list:
    """Replace fn at every regulus module that binds it by a wrapper that
    records each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "regulus" or name.startswith("regulus."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def three_state_two_letter():
    states = ["0", "1", "2"]
    edges, labels = [], {}
    for i in range(3):
        edges.append((f"a{i}", str(i), str((i + 1) % 3)))
        labels[f"a{i}"] = "a"
        edges.append((f"b{i}", str(i), str((i + 2) % 3)))
        labels[f"b{i}"] = "b"
    semi = SemiAutomaton(DiGraph(states, edges), {"a", "b"}, labels)
    return Automaton(semi, {"0"}, {"0"})


class TestLanguageGenus:
    def test_planar_language_identity_witness(self):
        a = mod3_single_letter()
        answer = language_genus_leq(a, 0, max_fiber=1)
        assert answer.status == "yes"
        assert answer.certificate.genus == 0
        amin, _ = minimize(complete_with_trash(a))
        assert len(answer.witness.graph.vertices) == len(amin.graph.vertices)

    def test_z7_no_within_bounds(self):
        answer = language_genus_leq(z7_123_automaton(), 0, max_fiber=2)
        assert answer.status == "no_within_bounds"

    def test_z7_genus_one_within_default_budget(self):
        # the fibre-1 candidate is the base itself, with support K7, whose
        # genus is 1 (Ringel and Youngs), the genus its certificate traces to
        answer = language_genus_leq(z7_123_automaton(), 1, max_fiber=1)
        assert answer.status == "yes"
        assert answer.certificate.genus == 1

    @pytest.mark.parametrize(
        "automaton, n, max_fiber, genus_searches",
        [(lambda: modk(7, (1, 2)), 0, 2, 0), (z7_123_automaton, 1, 1, 1)],
        ids=["L7-12-planar", "z7-123-genus-1"],
    )
    def test_yes_path_refines_once_and_searches_genus_only_in_the_search(
        self, monkeypatch, automaton, n, max_fiber, genus_searches
    ):
        # the base and the witness share one Myhill-Nerode refinement, and the
        # certificate's genus bounds the witness's, so no genus search follows
        # the cover search's own
        refinements = count_calls(monkeypatch, relations.mn_refine)
        searches = count_calls(monkeypatch, genus.genus_exact)
        answer = language_genus_leq(automaton(), n, max_fiber=max_fiber)
        assert answer.status == "yes"
        assert len(refinements) == 1
        assert len(searches) == genus_searches

    def test_yes_path_simplifies_the_minimal_graph_once(self, monkeypatch):
        # the base and the witness's reconstruction read one simplification
        # kept on the minimal automaton; the second excision is
        # extend_over_excision's check of its input
        simplifications = count_calls(monkeypatch, digraph.simplify)
        excisions = count_calls(monkeypatch, digraph.excise)
        answer = language_genus_leq(modk(6, (1, 3)), 0, max_fiber=2)
        assert answer.status == "yes"
        assert (len(simplifications), len(excisions)) == (1, 2)

    def test_yes_path_checks_the_search_cover_once(self, monkeypatch):
        # the certificate's verify records the cover verdict on its morphism,
        # and the witness's reconstruction reads it there
        lift_checks = count_calls(monkeypatch, digraph._star_lifts)
        answer = language_genus_leq(modk(7, (1, 2)), 0, max_fiber=2)
        assert answer.status == "yes"
        assert len(lift_checks) == 1

    def test_z7_genus_one_over_a_small_node_budget(self, monkeypatch):
        # a candidate whose genus search runs out of nodes is undecided: the
        # honest answer is budget_exceeded, never a fabricated verdict
        monkeypatch.setenv("REGULUS_BUDGET", "10")
        answer = language_genus_leq(z7_123_automaton(), 1, max_fiber=1)
        assert answer.status == "budget_exceeded"

    def test_finite_language_minimal_graph_is_nonplanar(self):
        # the finite three-letter language is planar, but its minimal
        # automaton graph contains a K7,7 and is not: no fibre-1 cover can
        # witness planarity, so the bounded search reports no_within_bounds
        a = abc_mod7_automaton()
        answer = language_genus_leq(a, 0, max_fiber=1)
        assert answer.status == "no_within_bounds"

    def test_time_budget_exceeded(self):
        # L(8,{1,2,4}) has no planar double cover of the voltage phase, and
        # its fibre enumeration runs far past the budget
        answer = language_genus_leq(modk(8, (1, 2, 4)), 0, max_fiber=2, time_budget=0.2)
        assert answer.status == "budget_exceeded"

    def test_certificate_mode_round_trip(self):
        a = three_state_two_letter()
        base = minimal_cover_base(a)
        outcome = search_covers(CoverSearchSpec(base, max_fiber=1, genus_bound=0))
        assert outcome.status == "found"
        data = loads(dumps(certificate_to_json(outcome.certificate)))
        cert = certificate_from_json(data)
        answer = language_genus_leq(a, 0, certificate=cert)
        assert answer.status == "yes"

    def test_certificate_wrong_base_rejected(self):
        a = three_state_two_letter()
        base = minimal_cover_base(a)
        outcome = search_covers(CoverSearchSpec(base, max_fiber=1, genus_bound=0))
        with pytest.raises(DomainError):
            language_genus_leq(z6_automaton(), 0, certificate=outcome.certificate)

    def test_nondeterministic_rejected(self):
        g = DiGraph(["q", "r"], [("e1", "q", "r"), ("e2", "q", "r")])
        semi = SemiAutomaton(g, {"a"}, {"e1": "a", "e2": "a"})
        from regulus import PreconditionError

        with pytest.raises(PreconditionError):
            language_genus_leq(Automaton(semi, {"q"}, {"r"}), 0)


class TestMonotonicity:
    """A cover of the larger language's base pulls back, along an embedding of
    the smaller language's base, to a cover of that base of no larger genus."""

    @staticmethod
    def check_transport(big, small, cert):
        base_big, base_small = language_base(big), language_base(small)
        assert cert.base == base_big
        p = _reference_monomorphism(base_small, base_big)
        assert p is not None
        pools: dict[tuple[str, str], list[str]] = {}
        for e, s, t in base_big.edge_list():
            pools.setdefault((s, t), []).append(e)
        q = {e: pools[(p[s], p[t])].pop(0) for e, s, t in base_small.edge_list()}
        _, pi1, _ = pullback(GraphMorphism(base_small, base_big, p, q), cert.morphism)
        assert is_directed_cover(pi1).ok
        assert genus_exact(pi1.source).genus <= cert.genus

    def test_subgraph_language_inherits_cover(self):
        big = three_state_two_letter()
        small = mod3_single_letter()
        base_big = minimal_cover_base(big)
        outcome = search_covers(CoverSearchSpec(base_big, max_fiber=1, genus_bound=0))
        assert outcome.status == "found"
        self.check_transport(big, small, outcome.certificate)

    def test_equal_language_trivial_subgraph(self):
        a = mod3_single_letter()
        base = minimal_cover_base(a)
        outcome = search_covers(CoverSearchSpec(base, max_fiber=1, genus_bound=0))
        self.check_transport(a, a, outcome.certificate)

    def test_disjoint_alphabet_union_contains_parts(self):
        # the union automaton's minimal graph contains each part's minimal
        # graph, which is what drives the max lower bound
        states = ["i", "ae", "ao", "b1", "b2"]
        edges = [
            ("sa", "i", "ao"),
            ("aa1", "ao", "ae"),
            ("aa2", "ae", "ao"),
            ("sb", "i", "b1"),
            ("bb1", "b1", "b2"),
            ("bb2", "b2", "i"),
        ]
        labels = {
            "sa": "a",
            "aa1": "a",
            "aa2": "a",
            "sb": "b",
            "bb1": "b",
            "bb2": "b",
        }
        semi = SemiAutomaton(DiGraph(states, edges), {"a", "b"}, labels)
        union = Automaton(semi, {"i"}, {"i", "ae"})
        union = complete_with_trash(union)
        base_union = minimal_cover_base(union)

        even_a = Automaton(
            SemiAutomaton(
                DiGraph(["e", "o"], [("x", "e", "o"), ("y", "o", "e")]),
                {"a"},
                {"x": "a", "y": "a"},
            ),
            {"e"},
            {"e"},
        )
        base_part = minimal_cover_base(even_a)
        assert _reference_monomorphism(base_part, base_union) is not None


def _reference_monomorphism(small, big):
    # an injective vertex map with room for every edge, by backtracking
    small_vs = sorted(small.vertices, key=lambda v: -len(small.out_edges(v)))
    big_pairs: dict[tuple[str, str], list[str]] = {}
    for e, s, t in big.edge_list():
        big_pairs.setdefault((s, t), []).append(e)
    assignment: dict[str, str] = {}

    def needed(s, t):
        return sum(1 for _, a, b in small.edge_list() if (a, b) == (s, t))

    def try_assign(i):
        if i == len(small_vs):
            return True
        v = small_vs[i]
        for w in big.vertices:
            if w in assignment.values() or len(big.out_edges(w)) < len(small.out_edges(v)):
                continue
            assignment[v] = w
            if all(
                len(big_pairs.get((assignment[s], assignment[t]), [])) >= needed(s, t)
                for _, s, t in small.edge_list()
                if s in assignment and t in assignment
            ) and try_assign(i + 1):
                return True
            del assignment[v]
        return False

    return dict(assignment) if try_assign(0) else None


class TestCycleContraction:
    def test_contracting_doubled_cycle_keeps_low_genus_emulator(self):
        # doubled triangle: planar; contracting one of its 2-cycles must
        # leave a graph that still has an emulator of genus 0
        tri = UndirectedGraph(
            ["a", "b", "c"],
            [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("a", "c"))],
        )
        g = bidirect(tri)
        assert genus_exact(g).genus == 0
        cyc = DirectedCycle(("e1:a>b", "e1:b>a"))
        contracted = contract_cycle(g, cyc)
        outcome = search_covers(
            CoverSearchSpec(contracted, max_fiber=1, genus_bound=0)
        )
        assert outcome.status == "found"

    def test_layered_mod3_contraction(self):
        # miniature of the layered finite-language double graph: contract all
        # doubled middle two-cycles; an emulator within the original genus
        # bound must survive
        layers = ["i", "f"] + [f"{x}.0" for x in range(3)] + [f"{x}.1" for x in range(3)]
        edges = []
        for x in range(3):
            edges.append((f"s{x}", ("i", f"{x}.0")))
            edges.append((f"t{x}", (f"{x}.1", "f")))
            for y in range(3):
                edges.append((f"m{x}{y}", (f"{x}.0", f"{y}.1")))
        u = UndirectedGraph(layers, edges)
        g = bidirect(u)
        g_genus = genus_exact(g).genus
        assert g_genus == 1  # the middle layers contain a K3,3
        contracted = g
        for x in range(3):
            cyc = DirectedCycle(
                (f"m{x}{x}:{x}.0>{x}.1", f"m{x}{x}:{x}.1>{x}.0")
            )
            contracted = contract_cycle(contracted, cyc)
        outcome = search_covers(
            CoverSearchSpec(contracted, max_fiber=1, genus_bound=g_genus)
        )
        assert outcome.status == "found"
        assert outcome.certificate.genus <= g_genus
