"""Genus bounds for regular languages via directed graph covers and emulators.

The package decides and certifies genus bounds by relating three layers:
finite multidigraphs with their structural operations, automatic relations
(quotients that are exactly directed emulations), and automata whose
minimization projections are directed covers.  Exact genus is computed from
rotation systems; bounded cover search turns the graph-level theory into a
semi-decision procedure for language genus.
"""

from .automaton import (
    Automaton,
    LanguageSample,
    accepts,
    accessible_part,
    automaton_from_cover,
    complete_with_trash,
    cover_of_minimization,
    language_graph,
    languages_equal,
    minimal_cover_base,
    minimize,
    parse_word,
    sample_language,
)
from .digraph import (
    DiGraph,
    DirectedCycle,
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
from .emulation import (
    CoverCertificate,
    CoverSearchSpec,
    adjunction_inverse,
    adjunction_transfer,
    extend_over_excision,
    extract_cover,
    is_directed_cover,
    is_directed_emulator,
    is_undirected_cover,
    is_undirected_emulator,
    lift_direction,
    search_covers,
)
from .errors import BudgetError, DomainError, PreconditionError, RegulusError
from .genus import (
    FaceVector,
    GenusResult,
    RotationSystem,
    euler_lower_bound,
    genus_exact,
    genus_formula,
    genus_invariance_suite,
    is_planar,
    trace_faces,
)
from .pipeline import (
    LanguageGenusAnswer,
    language_base,
    language_genus_leq,
)
from .relations import (
    AutomaticRelation,
    FinalFamily,
    automatic_to_mn_roundtrip,
    canonical_relation,
    complete_final_systems,
    enumerate_automatic_relations,
    factorize,
    is_automatic,
    is_cover_relation,
    join,
    maximum,
    meet,
    mn_refine,
    quotient,
    relation_leq,
)
from .semiauto import (
    SemiAutomaton,
    SemiMorphism,
    is_complete,
    is_deterministic,
    relabel,
    tautological,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
