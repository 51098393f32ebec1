"""Labelled digraphs (semi-automata), their morphisms, tautological
semi-automata and relabelling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .digraph import DiGraph, GraphMorphism
from .errors import DomainError


@dataclass(frozen=True, init=False)
class SemiAutomaton:
    """A digraph with a surjective edge labelling onto a finite alphabet.

    Underused alphabets are rejected: every letter must label some edge.
    `table` gives each state's targets per letter, in edge-id order, as
    read-only maps; it is built on first use and kept.
    """

    graph: DiGraph
    alphabet: frozenset[str]
    _labels: Mapping[str, str]

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
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "alphabet", letters)
        object.__setattr__(self, "_labels", MappingProxyType(labels))

    def label(self, eid: str) -> str:
        return self._labels[eid]

    @property
    def labelling(self) -> Mapping[str, str]:
        return dict(self._labels)

    def states(self) -> tuple[str, ...]:
        return self.graph.vertices

    @cached_property
    def table(self) -> Mapping[str, Mapping[str, tuple[str, ...]]]:
        rows: dict[str, dict[str, list[str]]] = {q: {} for q in self.graph.vertices}
        for e, (s, t) in self.graph.edges.items():
            rows[s].setdefault(self._labels[e], []).append(t)
        return MappingProxyType({
            q: MappingProxyType({x: tuple(ts) for x, ts in row.items()})
            for q, row in rows.items()
        })

    def __repr__(self):
        return (
            f"SemiAutomaton({len(self.states())} states, "
            f"{len(self.graph.edges)} transitions, {len(self.alphabet)} letters)"
        )


@dataclass(frozen=True)
class SemiMorphism:
    """A graph morphism together with a compatible map between alphabets."""

    source: SemiAutomaton
    target: SemiAutomaton
    base: GraphMorphism
    alpha: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "alpha", MappingProxyType(dict(self.alpha)))


def tautological(g: DiGraph) -> SemiAutomaton:
    """The semi-automaton on g whose alphabet is the edge set itself.

    Always deterministic, since distinct edges carry distinct letters.
    """
    return SemiAutomaton(g, set(g.edges), {e: e for e in g.edges})


def is_complete(a: SemiAutomaton) -> bool:
    """Every letter labels an outgoing edge at every state."""
    return all(len(row) == len(a.alphabet) for row in a.table.values())


def is_deterministic(a: SemiAutomaton) -> bool:
    """No state carries two outgoing edges with the same label.

    Parallel equal-labelled edges count as violations even when they share
    source and target.
    """
    return all(len(ts) == 1 for row in a.table.values() for ts in row.values())


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
