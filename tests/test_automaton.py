from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import (
    Automaton,
    CoverSearchSpec,
    DiGraph,
    DomainError,
    PreconditionError,
    SemiAutomaton,
    accepts,
    accessible_part,
    automaton_from_cover,
    complete_with_trash,
    cover_of_minimization,
    genus_exact,
    is_complete,
    is_deterministic,
    is_directed_cover,
    language_graph,
    languages_equal,
    minimal_cover_base,
    minimize,
    sample_language,
    search_covers,
    simplify,
)
from regulus import automaton
from regulus.corpus import (
    abc_mod7_automaton,
    z6_automaton,
    z6_unrolled12,
    z7_123_automaton,
)

from conftest import identity_morphism, random_complete_dfa, semi_automata


def reference_accepts(a: Automaton, word) -> bool:
    """Subset simulation by walking each state's out-edges."""
    current = set(a.initials)
    for letter in word:
        current = {
            a.graph.dst(e) for q in current for e in a.graph.out_edges(q)
            if a.semi.label(e) == letter
        }
    return bool(current & a.finals)


def single_letter_cycle(n, finals):
    states = [str(i) for i in range(n)]
    edges = [(f"e{i}", str(i), str((i + 1) % n)) for i in range(n)]
    labels = {f"e{i}": "a" for i in range(n)}
    semi = SemiAutomaton(DiGraph(states, edges), {"a"}, labels)
    return Automaton(semi, {"0"}, finals)


def unrolled(a: Automaton) -> Automaton:
    """The same language on two copies of each state, every transition
    switching copies: minimizing it collapses fibres of size two."""
    edges, labels = [], {}
    for e, s, t in a.graph.edge_list():
        for i in (0, 1):
            edges.append((f"{e}/{i}", f"{s}/{i}", f"{t}/{1 - i}"))
            labels[f"{e}/{i}"] = a.semi.label(e)
    states = [f"{q}/{i}" for q in a.graph.vertices for i in (0, 1)]
    semi = SemiAutomaton(DiGraph(states, edges), a.alphabet, labels)
    finals = {f"{q}/{i}" for q in a.finals for i in (0, 1)}
    return accessible_part(Automaton(semi, {f"{a.single_initial()}/0"}, finals))


class TestAccepts:
    def test_z6_positive(self):
        assert accepts(z6_automaton(), "1 2 3")

    def test_z6_empty_word(self):
        assert accepts(z6_automaton(), "")

    def test_z7_rejects_sum_six(self):
        assert not accepts(z7_123_automaton(), "1 2 3")

    def test_unknown_letter_rejected(self):
        with pytest.raises(DomainError):
            accepts(z6_automaton(), "9")

    def test_abc_mod7(self):
        a = abc_mod7_automaton()
        assert accepts(a, "1 2 4")
        assert accepts(a, "0 0 0")
        assert not accepts(a, "1 2 3")
        assert not accepts(a, "1 6")

    @settings(max_examples=300, deadline=None)
    @given(semi_automata(), st.data())
    def test_matches_the_out_edge_walk(self, semi, data):
        # every word up to length 3, and the sample of the same length
        states = st.sets(st.sampled_from(semi.states()))
        a = Automaton(semi, data.draw(states), data.draw(states))
        words = [w for n in range(4) for w in product(sorted(a.alphabet), repeat=n)]
        accepted = {w for w in words if reference_accepts(a, w)}
        assert {w for w in words if accepts(a, w)} == accepted
        assert sample_language(a, 3).words == accepted


class TestSampleLanguage:
    def test_z7_sums_to_zero_mod_7(self):
        sample = sample_language(z7_123_automaton(), 3)
        brute = set()
        letters = ["1", "2", "3"]
        words = [()]
        for _ in range(3):
            words = [w + (l,) for w in words for l in letters] + []
        all_words = [()]
        frontier = [()]
        for _ in range(3):
            frontier = [w + (l,) for w in frontier for l in letters]
            all_words += frontier
        for w in all_words:
            if sum(int(x) for x in w) % 7 == 0:
                brute.add(w)
        assert sample.words == frozenset(brute)

    def test_no_finals_gives_empty(self):
        a = single_letter_cycle(3, set())
        assert sample_language(a, 4).words == frozenset()

    def test_isolated_accepting_initial(self):
        semi = SemiAutomaton(DiGraph(["q"], []), set(), {})
        a = Automaton(semi, {"q"}, {"q"})
        assert sample_language(a, 3).words == {()}


class TestCompleteWithTrash:
    def test_already_complete_unchanged(self):
        a = z6_automaton()
        assert complete_with_trash(a) is a

    def test_fork_gets_trash_state(self):
        g = DiGraph(["v0", "v1", "v2"], [("ea", "v0", "v1"), ("eb", "v0", "v2")])
        semi = SemiAutomaton(g, {"a", "b"}, {"ea": "a", "eb": "b"})
        a = Automaton(semi, {"v0"}, {"v1"})
        out = complete_with_trash(a)
        assert len(out.graph.vertices) == 4
        assert is_complete(out.semi) and is_deterministic(out.semi)
        trash = next(v for v in out.graph.vertices if v.startswith("⊥"))
        assert len([e for e in out.graph.out_edges(trash)]) == 2
        assert languages_equal(out, complete_with_trash(a))

    def test_empty_alphabet_unchanged(self):
        semi = SemiAutomaton(DiGraph(["q"], []), set(), {})
        a = Automaton(semi, {"q"}, {"q"})
        assert complete_with_trash(a) is a

    def test_language_preserved(self, rng):
        for _ in range(10):
            a = random_complete_dfa(rng)
            # drop some transitions to make it incomplete
            keep = [e for i, e in enumerate(sorted(a.graph.edges)) if i % 3 != 0]
            g = DiGraph(a.graph.vertices, [
                (e, a.graph.src(e), a.graph.dst(e)) for e in keep
            ])
            labels = {e: a.semi.label(e) for e in keep}
            if not labels:
                continue
            if set(labels.values()) != set(a.alphabet):
                continue
            partial = Automaton(
                SemiAutomaton(g, a.alphabet, labels), a.initials, a.finals
            )
            full = complete_with_trash(partial)
            assert sample_language(partial, 4).words == sample_language(full, 4).words


class TestMinimize:
    def test_z6_already_minimal(self):
        amin, pi = minimize(z6_automaton())
        assert len(amin.graph.vertices) == 6
        assert len(amin.graph.edges) == 36
        simple_part = [e for e in amin.graph.edges if not amin.graph.is_loop(e)]
        assert len(simple_part) == 30
        assert simplify(amin.graph)[0] == amin.graph

    def test_unrolled_collapses_to_six(self):
        amin, pi = minimize(z6_unrolled12())
        assert len(amin.graph.vertices) == 6
        assert languages_equal(amin, z6_automaton())

    def test_all_final_single_cycle_collapses(self):
        a = single_letter_cycle(4, {"0", "1", "2", "3"})
        amin, _ = minimize(a)
        assert len(amin.graph.vertices) == 1

    def test_preconditions_named(self):
        g = DiGraph(["q", "r"], [("e1", "q", "r"), ("e2", "q", "r")])
        semi = SemiAutomaton(g, {"a"}, {"e1": "a", "e2": "a"})
        with pytest.raises(PreconditionError, match="deterministic"):
            minimize(Automaton(semi, {"q"}, {"r"}))
        g2 = DiGraph(["q", "r"], [("e1", "q", "r")])
        semi2 = SemiAutomaton(g2, {"a"}, {"e1": "a"})
        with pytest.raises(PreconditionError, match="complete"):
            minimize(Automaton(semi2, {"q"}, {"r"}))
        z7 = z7_123_automaton()
        with pytest.raises(PreconditionError, match="single initial state, found 0"):
            minimize(Automaton(z7.semi, set(), z7.finals))

    def test_projection_is_cover(self, rng):
        for _ in range(15):
            a = complete_with_trash(random_complete_dfa(rng))
            _, pi = minimize(a)
            assert is_directed_cover(pi.base).ok

    def test_idempotent(self, rng):
        for _ in range(10):
            a = complete_with_trash(random_complete_dfa(rng))
            amin, _ = minimize(a)
            again, _ = minimize(amin)
            assert again == amin

    def test_sample_language_preserved(self, rng):
        for _ in range(15):
            a = complete_with_trash(random_complete_dfa(rng, max_states=8))
            amin, _ = minimize(a)
            assert sample_language(a, 6).words == sample_language(amin, 6).words

    def test_strict_projection_preserves_language_exactly(self, rng):
        for _ in range(10):
            a = complete_with_trash(random_complete_dfa(rng))
            amin, _ = minimize(a)
            assert languages_equal(a, amin)


class TestLanguageGraph:
    def test_z6(self):
        g = language_graph(z6_automaton())
        assert len(g.vertices) == 6 and len(g.edges) == 36

    def test_z7(self):
        g = language_graph(z7_123_automaton())
        assert len(g.vertices) == 7 and len(g.edges) == 21

    def test_single_state_all_accepting(self):
        a = single_letter_cycle(1, {"0"})
        g = language_graph(a)
        assert len(g.vertices) == 1 and len(g.edges) == 1
        assert g.is_loop(next(iter(g.edges)))


class TestAutomatonFromCover:
    def test_identity_cover_recovers_minimal(self):
        a = z7_123_automaton()
        base = minimal_cover_base(a)
        witness, strict = automaton_from_cover(a, identity_morphism(base))
        amin, _ = minimize(a)
        assert len(witness.graph.vertices) == len(amin.graph.vertices)
        assert languages_equal(witness, amin)

    def test_two_fold_unrolled_cover_gives_twelve_states(self):
        u = z6_unrolled12()
        cover, _ = cover_of_minimization(u)
        witness, strict = automaton_from_cover(u, cover)
        assert len(witness.graph.vertices) == 12
        assert is_deterministic(witness.semi)
        assert languages_equal(witness, z6_automaton())
        assert is_directed_cover(strict.base).ok

    def test_degenerate_loop_base(self):
        a = single_letter_cycle(1, {"0"})
        base = minimal_cover_base(a)  # single vertex, no edges
        assert not base.edges
        two = DiGraph(["x0", "x1"], [])
        from regulus import GraphMorphism

        cover = GraphMorphism(two, base, {"x0": "0", "x1": "0"}, {})
        witness, _ = automaton_from_cover(a, cover)
        # only the pinned lift is accessible; loops are re-created on it
        assert len(witness.graph.vertices) == 1
        assert languages_equal(witness, a)

    def test_rejects_non_cover(self):
        a = z7_123_automaton()
        base = minimal_cover_base(a)
        from regulus import GraphMorphism

        bad_edges = [e for e in base.edges if e != "t0_1"]
        sub = DiGraph(base.vertices, [(e, base.src(e), base.dst(e)) for e in bad_edges])
        bad = GraphMorphism(sub, base, {v: v for v in base.vertices},
                            {e: e for e in bad_edges})
        with pytest.raises(DomainError):
            automaton_from_cover(a, bad)

    def test_checks_the_language_against_the_input(self, monkeypatch):
        # a minimize that complements the language builds a witness of the
        # complement; compared with the minimal automaton it was built from it
        # would pass, compared with the input it is refused
        a = z7_123_automaton()
        base = minimal_cover_base(a)

        def complementing(b):
            b_min, pi = minimize(b)
            finals = set(b_min.graph.vertices) - b_min.finals
            return Automaton(b_min.semi, b_min.initials, finals), pi

        monkeypatch.setattr(automaton, "minimize", complementing)
        with pytest.raises(DomainError, match="changed the language"):
            automaton_from_cover(a, identity_morphism(base))

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.integers(1, 2), st.integers(0, 1))
    def test_witness_is_a_deterministic_cover_of_no_higher_genus(
        self, rnd, twice, max_fiber, n
    ):
        # what automaton_from_cover builds without checking: on the
        # minimization's cover and on a searched one, the witness is
        # deterministic and covers the minimal automaton, and the searched
        # certificate's genus bounds the witness's
        a = random_complete_dfa(rnd)
        if twice:
            a = unrolled(a)
        cover, a_min = cover_of_minimization(a)
        witnesses = [automaton_from_cover(a, cover)]
        out = search_covers(CoverSearchSpec(minimal_cover_base(a), max_fiber, n, time_budget=5.0))
        if out.status == "found":
            witnesses.append(automaton_from_cover(a, out.certificate.morphism))
        for witness, strict in witnesses:
            assert strict.base.target == a_min.graph
            assert is_directed_cover(strict.base).ok
            assert is_deterministic(witness.semi)
        if out.status == "found":
            assert genus_exact(witnesses[-1][0].graph).genus <= out.certificate.genus


class TestLanguagesEqual:
    def test_unrolled_equals_base(self):
        assert languages_equal(z6_unrolled12(), z6_automaton())

    def test_different_languages_detected(self):
        a = single_letter_cycle(2, {"0"})
        b = single_letter_cycle(3, {"0"})
        assert not languages_equal(a, b)

    def test_agrees_with_sampling(self, rng):
        for _ in range(15):
            a = complete_with_trash(random_complete_dfa(rng, max_states=4, max_letters=2))
            b = complete_with_trash(random_complete_dfa(rng, max_states=4, max_letters=2))
            if a.alphabet != b.alphabet:
                continue
            exact = languages_equal(a, b)
            sampled = sample_language(a, 7).words == sample_language(b, 7).words
            assert exact == sampled


@st.composite
def partial_dfas(draw):
    """Deterministic automata, possibly incomplete and inaccessible, with up
    to 3 states over the letters their edges use, out of three."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    letters = draw(st.sets(st.sampled_from("abc"), min_size=1))
    edges, labels = [], {}
    for q in states:
        for x in sorted(letters):
            t = draw(st.none() | st.sampled_from(states))
            if t is not None:
                edges.append((f"{q}{x}", q, t))
                labels[f"{q}{x}"] = x
    finals = draw(st.sets(st.sampled_from(states)))
    semi = SemiAutomaton(DiGraph(states, edges), set(labels.values()), labels)
    return Automaton(semi, {"q0"}, finals)


class TestLanguagesEqualAgainstWords:
    @settings(max_examples=300, deadline=None)
    @given(partial_dfas(), partial_dfas())
    def test_matches_every_word_up_to_the_distinguishing_length(self, a, b):
        # two automata with n and m states plus a dead state each differ on
        # some word of length at most n + m if they differ at all
        n = len(a.graph.vertices) + len(b.graph.vertices)
        same = sample_language(a, n).words == sample_language(b, n).words
        assert languages_equal(a, b) == same


class TestAccessiblePart:
    def test_unreachable_states_dropped(self):
        g = DiGraph(["a", "b", "c"], [("e", "a", "b"), ("f", "c", "b")])
        semi = SemiAutomaton(g, {"x"}, {"e": "x", "f": "x"})
        a = Automaton(semi, {"a"}, {"b"})
        out = accessible_part(a)
        assert set(out.graph.vertices) == {"a", "b"}


class TestStrictMorphismLanguage:
    def test_subautomaton_inclusion_and_emulator_equality(self, rng):
        # a strict inclusion of a sub-automaton respecting initial/final
        # preimages can only shrink the language; the minimization projection
        # (an emulator underneath) preserves it exactly
        from regulus import subgraph

        for _ in range(10):
            b = complete_with_trash(random_complete_dfa(rng, max_states=5))
            keep = sorted(b.graph.edges)[:: 2] or sorted(b.graph.edges)
            labels = {e: b.semi.label(e) for e in keep}
            if set(labels.values()) != set(b.alphabet):
                continue
            g = subgraph(b.graph, b.graph.vertices, keep)
            sub = Automaton(
                SemiAutomaton(g, b.alphabet, labels), b.initials, b.finals
            )
            assert sample_language(sub, 5).words <= sample_language(b, 5).words
            amin, _ = minimize(b)
            assert sample_language(b, 5).words == sample_language(amin, 5).words
