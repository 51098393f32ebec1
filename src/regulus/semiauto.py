"""Labelled digraphs (semi-automata), their morphisms, and the
strict/relabelling factorization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .digraph import DiGraph, GraphMorphism, image_subgraph, validate_morphism
from .errors import DomainError


class SemiAutomaton:
    """A digraph with a surjective edge labelling onto a finite alphabet.

    Underused alphabets are rejected: every letter must label some edge.
    `table()` gives each state's targets per letter, in edge-id order; it is
    built on first use and kept, as the graph and labelling are immutable.
    """

    __slots__ = ("_graph", "_alphabet", "_labels", "_table")

    def __init__(self, graph: DiGraph, alphabet: Iterable[str], labelling: Mapping[str, str]):
        letters = frozenset(alphabet)
        labels = dict(labelling)
        missing = set(graph.edges) - set(labels)
        if missing:
            raise DomainError(f"labelling is not total, missing {sorted(missing)[:3]}")
        extra = set(labels) - set(graph.edges)
        if extra:
            raise DomainError(f"labelling mentions unknown edges {sorted(extra)[:3]}")
        used = set(labels.values())
        if not used <= letters:
            raise DomainError(f"labels outside the alphabet: {sorted(used - letters)[:3]}")
        if used != letters:
            raise DomainError(
                f"underused alphabet: letters {sorted(letters - used)[:3]} label no edge"
            )
        self._graph = graph
        self._alphabet = letters
        self._labels = labels
        self._table = None

    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def alphabet(self) -> frozenset[str]:
        return self._alphabet

    def label(self, eid: str) -> str:
        return self._labels[eid]

    @property
    def labelling(self) -> Mapping[str, str]:
        return dict(self._labels)

    def states(self) -> tuple[str, ...]:
        return self._graph.vertices

    def table(self) -> Mapping[str, Mapping[str, tuple[str, ...]]]:
        if self._table is None:
            rows: dict[str, dict[str, list[str]]] = {q: {} for q in self._graph.vertices}
            for e, (s, t) in self._graph.edges.items():
                rows[s].setdefault(self._labels[e], []).append(t)
            self._table = {q: {x: tuple(ts) for x, ts in row.items()} for q, row in rows.items()}
        return self._table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SemiAutomaton)
            and self._graph == other._graph
            and self._alphabet == other._alphabet
            and self._labels == other._labels
        )

    def __repr__(self):
        return (
            f"SemiAutomaton({len(self.states())} states, "
            f"{len(self._graph.edges)} transitions, {len(self._alphabet)} letters)"
        )


@dataclass(frozen=True)
class SemiMorphism:
    """A graph morphism together with a compatible map between alphabets."""

    source: SemiAutomaton
    target: SemiAutomaton
    base: GraphMorphism
    alpha: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "alpha", dict(self.alpha))

    @property
    def is_strict(self) -> bool:
        return self.source.alphabet == self.target.alphabet and all(
            self.alpha[a] == a for a in self.source.alphabet
        )

    @property
    def is_relabelling(self) -> bool:
        p, q = self.base.p, self.base.q
        return all(p[v] == v for v in p) and all(q[e] == e for e in q)


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


def tautological(g: DiGraph) -> SemiAutomaton:
    """The semi-automaton on g whose alphabet is the edge set itself.

    Always deterministic, since distinct edges carry distinct letters.
    """
    return SemiAutomaton(g, set(g.edges), {e: e for e in g.edges})


def tautological_morphism(m: GraphMorphism) -> SemiMorphism:
    """Lift a graph morphism to the tautological semi-automata: alpha = q."""
    return SemiMorphism(
        tautological(m.source), tautological(m.target), m, dict(m.q)
    )


def is_complete(a: SemiAutomaton) -> bool:
    """Every letter labels an outgoing edge at every state."""
    return all(len(row) == len(a.alphabet) for row in a.table().values())


def is_deterministic(a: SemiAutomaton) -> bool:
    """No state carries two outgoing edges with the same label.

    Parallel equal-labelled edges count as violations even when they share
    source and target.
    """
    return all(len(ts) == 1 for row in a.table().values() for ts in row.values())


def relabel(a: SemiAutomaton, alpha: Mapping[str, str]) -> tuple[SemiAutomaton, SemiMorphism]:
    """Push labels through alpha; returns the relabelled semi-automaton and
    the relabelling morphism onto it."""
    missing = a.alphabet - set(alpha)
    if missing:
        raise DomainError(f"alpha is not total on the alphabet, missing {sorted(missing)[:3]}")
    new_labels = {e: alpha[a.label(e)] for e in a.graph.edges}
    out = SemiAutomaton(a.graph, set(new_labels.values()), new_labels)
    base = GraphMorphism(
        a.graph, a.graph, {v: v for v in a.states()}, {e: e for e in a.graph.edges}
    )
    m = SemiMorphism(a, out, base, {x: alpha[x] for x in a.alphabet})
    return out, m


@dataclass(frozen=True)
class MorphismFactorization:
    """Both decompositions of a semi-automaton morphism.

    Each pair is listed in application order: the first component is applied
    first.  relabel_then_strict always exists; strict_then_relabel requires
    the edge map not to merge edges with distinct labels (its intermediate
    object carries the source labels on the image graph).
    """

    relabel_then_strict: tuple[SemiMorphism, SemiMorphism]
    strict_then_relabel: tuple[SemiMorphism, SemiMorphism] | None


def factor_morphism(m: SemiMorphism) -> MorphismFactorization:
    validate_semi_morphism(m)
    a, b = m.source, m.target
    f, g = m.base.p, m.base.q

    # relabel first: A -> A^alpha -> B, second leg keeps letters fixed
    relabelled, lam = relabel(a, m.alpha)
    strict_alpha = {x: x for x in relabelled.alphabet}
    strict_leg = SemiMorphism(
        relabelled, b, GraphMorphism(a.graph, b.graph, dict(f), dict(g)), strict_alpha
    )
    validate_semi_morphism(strict_leg)
    first = (lam, strict_leg)

    # strict first: A -> image-with-source-labels -> B, when well defined
    second = None
    pulled: dict[str, str] = {}
    ok = True
    for e in a.graph.edges:
        img = g[e]
        lab = a.label(e)
        if pulled.setdefault(img, lab) != lab:
            ok = False
            break
    if ok:
        image = image_subgraph(m.base)
        mid = SemiAutomaton(image, set(pulled[e] for e in image.edges), pulled)
        strict_first = SemiMorphism(
            a,
            mid,
            GraphMorphism(a.graph, image, dict(f), dict(g)),
            {x: x for x in a.alphabet},
        )
        relabel_second = SemiMorphism(
            mid,
            b,
            GraphMorphism(
                image, b.graph, {v: v for v in image.vertices}, {e: e for e in image.edges}
            ),
            {x: m.alpha[x] for x in mid.alphabet},
        )
        validate_semi_morphism(strict_first)
        validate_semi_morphism(relabel_second)
        second = (strict_first, relabel_second)

    return MorphismFactorization(first, second)
