"""Automata over semi-automata: language semantics at desk scale,
trash-completion, Myhill-Nerode minimization, exact language equality, and
the reconstruction of a low-genus automaton from a directed cover of the
minimal automaton's excised simple graph."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .digraph import (
    DiGraph,
    GraphMorphism,
    _closure,
    descendants,
    excise,
    pullback,
    simplify,
    subgraph,
)
from .emulation import (
    extend_over_excision,
    excise_restrict,
    extract_cover,
    is_directed_cover,
    r_image_morphism,
)
from .errors import DomainError, PreconditionError
from .relations import FinalFamily, mn_refine, quotient
from .semiauto import SemiAutomaton, SemiMorphism, is_complete, is_deterministic

Word = tuple[str, ...]


def parse_word(text: str) -> Word:
    """Words are written as space-separated labels; the empty string is the
    empty word."""
    return tuple(text.split())


@dataclass(frozen=True, init=False)
class Automaton:
    """A semi-automaton with initial and final state sets.  Its minimization
    (`minimize`) and, on a minimal automaton, the cover base are built on
    first use and kept."""

    semi: SemiAutomaton
    initials: frozenset[str]
    finals: frozenset[str]

    def __init__(self, semi: SemiAutomaton, initials: Iterable[str], finals: Iterable[str]):
        ini = frozenset(initials)
        fin = frozenset(finals)
        states = set(semi.states())
        if not ini <= states or not fin <= states:
            raise DomainError("initial/final states must be states of the semi-automaton")
        object.__setattr__(self, "semi", semi)
        object.__setattr__(self, "initials", ini)
        object.__setattr__(self, "finals", fin)

    @property
    def graph(self) -> DiGraph:
        return self.semi.graph

    @property
    def alphabet(self) -> frozenset[str]:
        return self.semi.alphabet

    def is_accessible(self) -> bool:
        return len(_reached(self)) == len(self.graph.vertices)

    def single_initial(self) -> str:
        if len(self.initials) != 1:
            raise PreconditionError(
                f"operation requires a single initial state, found {len(self.initials)}"
            )
        return next(iter(self.initials))

    @cached_property
    def _minimal(self) -> tuple[Automaton, SemiMorphism]:
        _require_minimizable(self)
        family = FinalFamily.of(self.finals) if self.finals else FinalFamily(())
        relation = mn_refine(self.semi, family)
        q_graph, can = quotient(self.graph, relation)
        labels = {ce: self.semi.label(ce) for ce in q_graph.edges}
        semi_min = SemiAutomaton(q_graph, self.alphabet, labels)
        initial = can.p[next(iter(self.initials))]
        a_min = Automaton(semi_min, {initial}, {can.p[f] for f in self.finals})
        return a_min, SemiMorphism(self.semi, semi_min, can, {x: x for x in self.alphabet})

    @cached_property
    def _cover_base(self) -> tuple[DiGraph, GraphMorphism, DiGraph]:
        """The simplification of the graph, its projection and the simple
        graph's excision: on a minimal automaton, the base whose directed
        covers bound the language genus."""
        simple, rho = simplify(self.graph)
        return simple, rho, excise(simple)

    def __repr__(self):
        return (
            f"Automaton({len(self.graph.vertices)} states, "
            f"{len(self.graph.edges)} transitions)"
        )


@dataclass(frozen=True)
class LanguageSample:
    """The accepted words up to a length bound."""

    alphabet: frozenset[str]
    words: frozenset[Word]
    max_length: int


def _step(semi: SemiAutomaton, states: Iterable[str], letter: str) -> frozenset[str]:
    """The subset step: every state one letter leads to from the given ones."""
    table = semi.table
    return frozenset(t for q in states for t in table[q].get(letter, ()))


def accepts(a: Automaton, word: Word | str) -> bool:
    """Nondeterministic acceptance by subset simulation."""
    if isinstance(word, str):
        word = parse_word(word)
    for letter in word:
        if letter not in a.alphabet:
            raise DomainError(f"letter {letter!r} is not in the alphabet")
    current = a.initials
    for letter in word:
        current = _step(a.semi, current, letter)
        if not current:
            return False
    return bool(current & a.finals)


def sample_language(a: Automaton, max_length: int) -> LanguageSample:
    """Exactly the accepted words of length at most max_length."""
    if max_length < 0:
        raise DomainError("max_length must be non-negative")
    words: set[Word] = set()
    letters = sorted(a.alphabet)
    frontier: list[tuple[Word, frozenset[str]]] = [((), frozenset(a.initials))]
    if a.initials & a.finals:
        words.add(())
    for _ in range(max_length):
        nxt: list[tuple[Word, frozenset[str]]] = []
        for word, states in frontier:
            for letter in letters:
                targets = _step(a.semi, states, letter)
                if not targets:
                    continue
                w2 = word + (letter,)
                if targets & a.finals:
                    words.add(w2)
                nxt.append((w2, targets))
        frontier = nxt
    return LanguageSample(a.alphabet, frozenset(words), max_length)


def _reached(a: Automaton) -> frozenset[str]:
    """The states reachable from the initial states."""
    return frozenset().union(*(descendants(a.graph, i) for i in a.initials))


def accessible_part(a: Automaton) -> Automaton:
    """Restrict to the states reachable from the initial states."""
    reached = _reached(a)
    keep_edges = [e for e in a.graph.edges if a.graph.src(e) in reached]
    g = subgraph(a.graph, reached, keep_edges)
    labels = {e: a.semi.label(e) for e in g.edges}
    semi = SemiAutomaton(g, set(labels.values()) or set(), labels)
    return Automaton(semi, a.initials & reached, a.finals & reached)


def complete_with_trash(a: Automaton) -> Automaton:
    """Route every missing (state, letter) transition to a fresh trash state
    carrying one loop per letter.  Complete inputs are returned unchanged."""
    if not is_deterministic(a.semi):
        raise PreconditionError("trash completion requires a deterministic automaton")
    if is_complete(a.semi):
        return a
    trash = "⊥"
    while trash in a.graph.vertices:
        trash += "'"
    edges = a.graph.edge_list()
    labels = dict(a.semi.labelling)
    missing = [(q, x) for q, row in a.semi.table.items()
               for x in sorted(a.alphabet - row.keys())]
    # each missing transition, then each trash loop, takes a fresh edge id
    for q, letter in missing + [(trash, x) for x in sorted(a.alphabet)]:
        nid = f"{q}>{trash}:{letter}"
        while nid in labels:
            nid += "'"
        edges.append((nid, q, trash))
        labels[nid] = letter
    g = DiGraph(list(a.graph.vertices) + [trash], edges)
    semi = SemiAutomaton(g, a.alphabet, labels)
    return Automaton(semi, a.initials, a.finals)


def _require_minimizable(a: Automaton) -> None:
    a.single_initial()
    if not is_deterministic(a.semi):
        raise PreconditionError("minimize requires a deterministic automaton")
    if not is_complete(a.semi):
        raise PreconditionError("minimize requires a complete automaton")
    if not a.is_accessible():
        raise PreconditionError("minimize requires an accessible automaton")


def minimize(a: Automaton) -> tuple[Automaton, SemiMorphism]:
    """Minimal complete deterministic automaton plus the canonical strict
    projection, whose underlying graph morphism is a directed cover.

    States are refined from the finals/non-finals split; the quotient is the
    automatic relation built from the fixpoint.  The result is kept on a, so
    one automaton is refined once.
    """
    return a._minimal


def language_graph(a: Automaton) -> DiGraph:
    """Underlying digraph of the minimized automaton."""
    return minimize(a)[0].graph


def minimal_cover_base(a: Automaton) -> DiGraph:
    """The excised simplification of the minimal automaton's graph: the base
    graph whose directed covers bound the language genus."""
    return minimize(a)[0]._cover_base[2]


def languages_equal(a: Automaton, b: Automaton) -> bool:
    """Exact language equality via the product construction on completed,
    accessible versions over the union alphabet."""
    start = (a.single_initial(), b.single_initial())
    if not is_deterministic(a.semi) or not is_deterministic(b.semi):
        raise PreconditionError("exact equality requires deterministic automata")
    ta, tb = a.semi.table, b.semi.table
    letters = sorted(a.alphabet | b.alphabet)

    def step(pair: tuple) -> list[tuple]:
        # each row holds one target per letter; a missing transition leads to
        # the dead state None, which stays put
        qa, qb = pair
        return [(*ta.get(qa, {}).get(x, [None]), *tb.get(qb, {}).get(x, [None]))
                for x in letters]

    return all((qa in a.finals) == (qb in b.finals) for qa, qb in _closure([start], step))


def automaton_from_cover(a: Automaton, cover: GraphMorphism) -> tuple[Automaton, SemiMorphism]:
    """Rebuild a deterministic automaton from a directed cover of the excised
    simplified minimal graph, recognizing the same language.

    The loops removed by excision are re-created fibrewise, the parallel
    transitions merged by simplification are pulled back along the cover, and
    the result is restricted to the part accessible from one pinned lift of
    the initial state.  Returns the witness automaton and the strict
    label-preserving morphism onto the minimal automaton.  Only the cover and
    the witness's language are checked: the witness is the accessible part of
    a pulled-back cover, so it covers the minimal automaton and is
    deterministic by construction.
    """
    a_min, _ = minimize(a)
    g_min = a_min.graph
    simple, rho, base = a_min._cover_base
    if cover.target != base:
        raise DomainError(
            "cover target is not the excised simplification of the minimal graph"
        )
    rep = is_directed_cover(cover)
    if not rep.ok:
        raise DomainError(f"cover rejected: {rep.reason} at {rep.witness}")

    over_simple = extend_over_excision(cover, simple)
    _, pi1, pi2 = pullback(rho, over_simple)
    lifted = pi1.source

    labels = {}
    initial_min = a_min.single_initial()
    for ce in lifted.edges:
        labels[ce] = a_min.semi.label(pi1.q[ce])
    fiber_initials = sorted(
        v for v in lifted.vertices if pi1.p[v] == initial_min
    )
    pinned = fiber_initials[0]
    finals = {v for v in lifted.vertices if pi1.p[v] in a_min.finals}
    semi_all = SemiAutomaton(lifted, a_min.alphabet, labels)
    witness = accessible_part(Automaton(semi_all, {pinned}, finals))
    proj = GraphMorphism(
        witness.graph,
        g_min,
        {v: pi1.p[v] for v in witness.graph.vertices},
        {e: pi1.q[e] for e in witness.graph.edges},
    )
    strict = SemiMorphism(
        witness.semi, a_min.semi, proj, {x: x for x in a_min.alphabet}
    )
    if not languages_equal(witness, a):
        raise DomainError("reconstruction changed the language")
    return witness, strict


def cover_of_minimization(a: Automaton) -> tuple[GraphMorphism, Automaton]:
    """The directed cover of the excised simplified minimal graph induced by
    the minimization projection: simplify both sides, drop collapsing and
    loop edges, then extract a cover."""
    a_min, pi = minimize(a)
    r_morph = r_image_morphism(pi.base)
    exc_morph = excise_restrict(r_morph)
    return extract_cover(exc_morph), a_min
