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
    minimal_cover_base,
)
from .digraph import DiGraph
from .emulation import (
    CoverCertificate,
    CoverSearchSpec,
    SearchOutcome,
    search_covers,
)
from .errors import DomainError, PreconditionError
from .semiauto import is_deterministic


@dataclass(frozen=True)
class LanguageGenusAnswer:
    status: str  # "yes" | "no_within_bounds" | "budget_exceeded"
    witness: Automaton | None = None
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

    A yes rests on the verified certificate (a directed cover whose rotation
    traces to its genus <= n) and on the witness's language, checked against
    a's.  The witness's simple support is a subgraph of the cover's, so its
    genus is at most certificate.genus.  Exhaustion of the bounded search is
    reported as no_within_bounds: it is not a proof that the genus exceeds n.
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
    return LanguageGenusAnswer("yes", witness, cert)
