"""End-to-end decision pipeline for language genus bounds.

The genus of a regular language is bounded by n exactly when the excised
simplification of its minimal automaton's graph has a directed cover of genus
at most n; the search below is therefore sound, and exhaustion within the
fibre bound refutes only the bounded instance, not the genus bound itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    Automaton,
    accessible_part,
    automaton_from_cover,
    complete_with_trash,
    languages_equal,
    minimal_cover_base,
)
from .digraph import DiGraph, GraphMorphism, pullback
from .emulation import (
    CoverCertificate,
    CoverSearchSpec,
    SearchOutcome,
    is_directed_cover,
    search_covers,
)
from .errors import DomainError, PreconditionError
from .genus import genus_exact
from .semiauto import is_deterministic


@dataclass(frozen=True)
class LanguageGenusAnswer:
    status: str  # "yes" | "no_within_bounds" | "budget_exceeded"
    witness: Automaton | None = None
    witness_genus: int | None = None
    certificate: CoverCertificate | None = None


def _prepare(a: Automaton) -> tuple[Automaton, DiGraph]:
    """A deterministic automaton's trash-completed accessible part, and its base."""
    if not is_deterministic(a.semi):
        raise PreconditionError("language genus requires a deterministic automaton")
    a.single_initial()
    prepared = complete_with_trash(accessible_part(a))
    return prepared, minimal_cover_base(prepared)


def language_base(a: Automaton) -> DiGraph:
    """The base graph that a cover certificate for the language of a must
    cover; a may be incomplete or have unreachable states."""
    return _prepare(a)[1]


def language_genus_leq(
    a: Automaton,
    n: int,
    max_fiber: int = 2,
    time_budget: float = 300.0,
    certificate: CoverCertificate | None = None,
) -> LanguageGenusAnswer:
    """Decide whether the language of a has genus at most n, searching for a
    directed cover of bounded fibre size (or verifying a supplied one).

    On success the returned witness automaton recognizes the same language
    and its graph has genus at most n, both re-verified.  Exhaustion of the
    bounded search is reported as no_within_bounds: it is not a proof that
    the genus exceeds n.
    """
    prepared, base = _prepare(a)
    spec = CoverSearchSpec(base, max_fiber=max_fiber, genus_bound=n, time_budget=time_budget)

    if certificate is not None:
        spec.validate()  # search_covers validates the spec on the other path
        certificate.verify()
        if certificate.base != base:
            raise DomainError(
                "certificate base does not match the excised simplified minimal graph"
            )
        if certificate.genus > n:
            return LanguageGenusAnswer("no_within_bounds")
        outcome = SearchOutcome("found", certificate)
    else:
        outcome = search_covers(spec)

    if outcome.status != "found":
        status = "no_within_bounds" if outcome.status == "exhausted" else outcome.status
        return LanguageGenusAnswer(status)
    cert = outcome.certificate
    witness, _ = automaton_from_cover(prepared, cert.morphism)
    wg = genus_exact(witness.graph).genus
    if wg > n:
        raise DomainError("witness genus exceeded the bound after reconstruction")
    if not languages_equal(witness, prepared):
        raise DomainError("witness language mismatch")
    return LanguageGenusAnswer("yes", witness, wg, cert)


def find_monomorphism(small: DiGraph, big: DiGraph) -> GraphMorphism | None:
    """An injective morphism from small into big, or None if there is none.

    The VF2 matcher finds the vertex map, counting parallel edges and loops;
    each edge then takes the first free big edge with the same ends.  Its
    graph library is imported here, by the one function that uses it, so
    that importing regulus does not load it.
    """
    import networkx as nx

    def multidigraph(g: DiGraph) -> nx.MultiDiGraph:
        m = nx.MultiDiGraph()
        m.add_nodes_from(g.vertices)
        m.add_edges_from(g.edges.values())
        return m

    matcher = nx.isomorphism.MultiDiGraphMatcher(multidigraph(big), multidigraph(small))
    match = next(matcher.subgraph_monomorphisms_iter(), None)
    if match is None:
        return None
    p = {v: w for w, v in match.items()}
    pools: dict[tuple[str, str], list[str]] = {}
    for e, s, t in big.edge_list():
        pools.setdefault((s, t), []).append(e)
    q = {e: pools[(p[s], p[t])].pop(0) for e, s, t in small.edge_list()}
    return GraphMorphism(small, big, p, q)


@dataclass(frozen=True)
class MonotonicityReport:
    is_subgraph: bool
    transported: CoverCertificate | None
    transported_genus_ok: bool | None


def genus_monotonicity_checks(
    l_big: Automaton, l_small: Automaton, cert: CoverCertificate
) -> MonotonicityReport:
    """Given a genus-n cover certificate for the larger language's base graph,
    transport it by pullback to a cover of the smaller language's base when
    the latter embeds as a subgraph, and verify the genus did not grow."""
    base_big, base_small = language_base(l_big), language_base(l_small)
    cert.verify()
    if cert.base != base_big:
        raise DomainError("certificate does not certify the larger language's base")
    mono = find_monomorphism(base_small, base_big)
    if mono is None:
        return MonotonicityReport(False, None, None)
    _, pi1, _ = pullback(mono, cert.morphism)
    rep = is_directed_cover(pi1)
    if not rep.ok:
        raise DomainError(f"transported morphism is not a cover: {rep.reason}")
    res = genus_exact(pi1.source)
    transported = CoverCertificate(base_small, pi1.source, pi1, res.witness, res.genus)
    transported.verify()
    return MonotonicityReport(True, transported, res.genus <= cert.genus)
