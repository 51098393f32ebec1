import pytest
from hypothesis import given, settings

from regulus import (
    DiGraph,
    DomainError,
    GraphMorphism,
    SemiAutomaton,
    SemiMorphism,
    is_complete,
    is_deterministic,
    relabel,
    tautological,
    validate_morphism,
)

from conftest import c2, loop2, random_digraph, semi_automata


def reference_is_complete(a: SemiAutomaton) -> bool:
    """Every letter labels an outgoing edge at every state, by walking each
    state's out-edges."""
    for q in a.states():
        if not a.alphabet <= {a.label(e) for e in a.graph.out_edges(q)}:
            return False
    return True


def reference_is_deterministic(a: SemiAutomaton) -> bool:
    """No state carries two outgoing edges with the same label, by walking
    each state's out-edges."""
    for q in a.states():
        labels = [a.label(e) for e in a.graph.out_edges(q)]
        if len(labels) != len(set(labels)):
            return False
    return True


def validate_semi_morphism(m: SemiMorphism) -> None:
    """Raise unless the base is a graph morphism and labels commute with alpha."""
    base_report = validate_morphism(m.base)
    if not base_report.ok:
        raise DomainError(f"base graph morphism invalid: {base_report.reason}")
    missing = m.source.alphabet - set(m.alpha)
    if missing:
        raise DomainError(f"alpha is not total on the alphabet, missing {sorted(missing)[:3]}")
    for e in m.source.graph.edges:
        want = m.target.label(m.base.q[e])
        got = m.alpha[m.source.label(e)]
        if want != got:
            raise DomainError(
                f"label square does not commute at edge {e!r}: {got!r} != {want!r}"
            )


def counit(a: SemiAutomaton) -> SemiMorphism:
    """The relabelling from the tautological semi-automaton of a's graph back to a."""
    base = GraphMorphism(
        a.graph, a.graph, {v: v for v in a.states()}, {e: e for e in a.graph.edges}
    )
    return SemiMorphism(tautological(a.graph), a, base, dict(a.labelling))


def z6_semi():
    states = [str(i) for i in range(6)]
    edges, labels = [], {}
    for i in range(6):
        for j in range(6):
            edges.append((f"t{i}_{j}", str(i), str((i + j) % 6)))
            labels[f"t{i}_{j}"] = str(j)
    return SemiAutomaton(DiGraph(states, edges), {str(j) for j in range(6)}, labels)


class TestConstruction:
    def test_underused_alphabet_rejected(self):
        g = c2()
        with pytest.raises(DomainError):
            SemiAutomaton(g, {"a", "b", "unused"}, {"e1": "a", "e2": "b"})

    def test_partial_labelling_rejected(self):
        with pytest.raises(DomainError):
            SemiAutomaton(c2(), {"a"}, {"e1": "a"})


class TestTautological:
    def test_c2_each_edge_its_own_letter(self):
        a = tautological(c2())
        assert a.alphabet == {"e1", "e2"}
        assert is_deterministic(a)

    def test_loop2_two_letters_one_vertex(self):
        a = tautological(loop2())
        assert a.alphabet == {"e", "f"}
        assert is_deterministic(a)
        assert is_complete(a)

    def test_empty_edge_graph_has_empty_alphabet(self):
        a = tautological(DiGraph(["v"], []))
        assert a.alphabet == frozenset()

    def test_always_deterministic(self, rng):
        for _ in range(20):
            assert is_deterministic(tautological(random_digraph(rng)))

    def test_functorial_on_morphisms(self):
        g = loop2()
        h = DiGraph(["v"], [("g", "v", "v")])
        m = GraphMorphism(g, h, {"u": "v"}, {"e": "g", "f": "g"})
        # a graph morphism lifts to the tautological semi-automata with alpha = q
        validate_semi_morphism(SemiMorphism(tautological(g), tautological(h), m, m.q))


class TestCompletenessDeterminism:
    def test_z6_complete_and_deterministic(self):
        a = z6_semi()
        assert is_complete(a)
        assert is_deterministic(a)

    def test_fork_one_letter(self):
        g = DiGraph(["v0", "v1", "v2"], [("a1", "v0", "v1"), ("a2", "v0", "v2")])
        a = SemiAutomaton(g, {"a"}, {"a1": "a", "a2": "a"})
        assert not is_complete(a)  # v1, v2 have no outgoing edge
        assert not is_deterministic(a)  # two a-edges out of v0

    def test_parallel_equal_labels_not_deterministic(self):
        g = DiGraph(["q", "r"], [("e1", "q", "r"), ("e2", "q", "r")])
        a = SemiAutomaton(g, {"a"}, {"e1": "a", "e2": "a"})
        assert not is_deterministic(a)

    def test_complete_deterministic_outdegree_equals_alphabet(self):
        a = z6_semi()
        for q in a.states():
            assert len(a.graph.out_edges(q)) == len(a.alphabet)

    @settings(max_examples=300, deadline=None)
    @given(semi_automata())
    def test_match_the_out_edge_walks(self, a):
        assert is_deterministic(a) == reference_is_deterministic(a)
        assert is_complete(a) == reference_is_complete(a)

    def test_table_is_built_once(self):
        a = z6_semi()
        table = a.table
        assert is_complete(a) and is_deterministic(a)
        assert a.table is table
        assert table["0"]["2"] == ("2",)


class TestRelabel:
    def test_identity_relabel(self):
        a = z6_semi()
        out, m = relabel(a, {x: x for x in a.alphabet})
        assert out == a
        assert m.alpha == {x: x for x in a.alphabet}
        assert m.base.p == {v: v for v in a.states()}
        assert m.base.q == {e: e for e in a.graph.edges}

    def test_merge_letters(self):
        a = tautological(c2())
        out, _ = relabel(a, {"e1": "a", "e2": "a"})
        assert out.alphabet == {"a"}

    def test_counit_recovers_original(self):
        a = z6_semi()
        eps = counit(a)
        validate_semi_morphism(eps)
        out, _ = relabel(tautological(a.graph), dict(a.labelling))
        assert out == a

    def test_partial_alpha_rejected(self):
        with pytest.raises(DomainError):
            relabel(z6_semi(), {"0": "x"})


class TestFaithfulness:
    def test_equal_base_forces_equal_alpha(self):
        # with no underused letters the alphabet map is determined by the base
        a = z6_semi()
        eps = counit(a)
        forced = {
            letter: a.label(eps.base.q[e])
            for e in a.graph.edges
            for letter in [tautological(a.graph).label(e)]
        }
        assert forced == dict(eps.alpha)
