"""Automatic relations on digraphs: verification, quotients, factorization,
Myhill-Nerode style refinement, complete final systems, and the lattice
structure (join, meet, maximum, terminal quotient).

An automatic relation is a pair of equivalences (on vertices and on edges)
such that related edges have related endpoints (compatibility) and related
vertices emulate each other's outgoing edges (bisimilarity).  Quotienting by
one is exactly a directed emulation onto the quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, count, product
from operator import itemgetter
from typing import Iterable

from .digraph import (
    DiGraph,
    GraphMorphism,
    ancestors,
    strongly_connected_components,
)
from .errors import DomainError
from .semiauto import SemiAutomaton


def _classes(ids: Iterable[str], blocks: Iterable) -> tuple[tuple[str, ...], ...]:
    """The ids grouped by their blocks, in first-seen order."""
    groups: dict = {}
    for x, b in zip(ids, blocks):
        groups.setdefault(b, []).append(x)
    return tuple(map(tuple, groups.values()))


def _canonical_partition(classes: Iterable[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    normed = [tuple(sorted(set(c))) for c in classes]
    return tuple(sorted(filter(None, normed), key=itemgetter(0)))


class _ClassIndex:
    """Derived data of one relation: the class number of each vertex, and one
    class-number vector over the sorted vertex ids followed by the sorted edge
    ids, edge classes numbered after the vertex classes.  `verified_on` is the
    graph object on which the relation last verified automatic; graphs and
    relations are immutable, so that verdict stands."""

    __slots__ = ("vertex_class", "vertex_ids", "edge_ids", "vector", "is_partition",
                 "verified_on")

    def __init__(self, r: "AutomaticRelation"):
        vc, ec = r.vertex_classes, r.edge_classes
        self.vertex_class = {v: i for i, c in enumerate(vc) for v in c}
        edge_class = {e: i for i, c in enumerate(ec, len(vc)) for e in c}
        self.vertex_ids = tuple(sorted(self.vertex_class))
        self.edge_ids = tuple(sorted(edge_class))
        self.vector = tuple(map(self.vertex_class.__getitem__, self.vertex_ids)) + tuple(
            map(edge_class.__getitem__, self.edge_ids)
        )
        self.is_partition = len(self.vector) == sum(map(len, vc)) + sum(map(len, ec))
        self.verified_on = None


@dataclass(frozen=True)
class AutomaticRelation:
    """Paired vertex/edge partitions in canonical form (classes sorted by
    least member), so relation equality is structural equality."""

    vertex_classes: tuple[tuple[str, ...], ...]
    edge_classes: tuple[tuple[str, ...], ...]

    @staticmethod
    def from_classes(vertex_classes, edge_classes) -> "AutomaticRelation":
        return AutomaticRelation(
            _canonical_partition(vertex_classes), _canonical_partition(edge_classes)
        )

    @staticmethod
    def identity(g: DiGraph) -> "AutomaticRelation":
        return AutomaticRelation.from_classes(
            [[v] for v in g.vertices], [[e] for e in g.edges]
        )

    @cached_property
    def _index(self) -> _ClassIndex:
        return _ClassIndex(self)

    def vertex_class_of(self) -> dict[str, tuple[str, ...]]:
        return {v: c for c in self.vertex_classes for v in c}

    def edge_class_of(self) -> dict[str, tuple[str, ...]]:
        return {e: c for c in self.edge_classes for e in c}

    def is_identity(self) -> bool:
        return all(len(c) == 1 for c in self.vertex_classes) and all(
            len(c) == 1 for c in self.edge_classes
        )


def relation_leq(r1: AutomaticRelation, r2: AutomaticRelation) -> bool:
    """r1 <= r2 when every r1 class is contained in an r2 class (both sorts):
    exactly when the pairs of class numbers (r1's, r2's) of the same id are
    as many as r1's classes."""
    a, b = r1._index, r2._index
    if a.vertex_ids != b.vertex_ids or a.edge_ids != b.edge_ids:
        raise DomainError("relations on different vertex or edge sets")
    return len(set(zip(a.vector, b.vector))) == len(r1.vertex_classes) + len(r1.edge_classes)


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    clause: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


_AUTOMATIC = RelationReport(True)


def is_automatic(g: DiGraph, r: AutomaticRelation) -> RelationReport:
    """Check compatibility and bisimilarity; the report names the violated
    clause and a witness.  A relation verified on this graph object before
    is not checked again."""
    idx = r._index
    if idx.verified_on is g:
        return _AUTOMATIC
    if not idx.is_partition or idx.vertex_ids != g.vertices or idx.edge_ids != tuple(g.edges):
        raise DomainError("classes do not partition the underlying set")
    vclass, src, dst = idx.vertex_class, g.src, g.dst
    for c in r.edge_classes:
        s0, t0 = vclass[src(c[0])], vclass[dst(c[0])]
        for e in c[1:]:
            if vclass[src(e)] != s0:
                return RelationReport(False, "compatibility", (c[0], e, "src"))
            if vclass[dst(e)] != t0:
                return RelationReport(False, "compatibility", (c[0], e, "dst"))
    for c in r.edge_classes:
        sources = {src(e) for e in c}
        for x in r.vertex_classes[vclass[src(c[0])]]:
            if x not in sources:
                return RelationReport(False, "bisimilarity", (x, c[0]))
    idx.verified_on = g
    return _AUTOMATIC


def _require_automatic(g: DiGraph, r: AutomaticRelation, what: str) -> None:
    rep = is_automatic(g, r)
    if not rep.ok:
        raise DomainError(f"{what}: {rep.clause}")


def quotient(g: DiGraph, r: AutomaticRelation) -> tuple[DiGraph, GraphMorphism]:
    """Quotient graph with class-representative ids (least member) and the
    canonical projection, which is a directed emulator."""
    report = is_automatic(g, r)
    if not report.ok:
        raise DomainError(f"relation is not automatic: {report.clause} at {report.witness}")
    vrep = {v: c[0] for c in r.vertex_classes for v in c}
    erep = {e: c[0] for c in r.edge_classes for e in c}
    q = DiGraph(
        sorted({vrep[v] for v in g.vertices}),
        [(c[0], vrep[g.src(c[0])], vrep[g.dst(c[0])]) for c in r.edge_classes],
    )
    can = GraphMorphism(g, q, vrep, erep)
    return q, can


def is_cover_relation(g: DiGraph, r: AutomaticRelation) -> bool:
    """True when distinct related edges always have distinct sources."""
    _require_automatic(g, r, "relation is not automatic")
    for c in r.edge_classes:
        sources = [g.src(e) for e in c]
        if len(sources) != len(set(sources)):
            return False
    return True


def canonical_relation(phi: GraphMorphism) -> AutomaticRelation:
    """The relation identifying the fibres of a verified directed emulator."""
    from .emulation import is_directed_emulator

    report = is_directed_emulator(phi)
    if not report.ok:
        raise DomainError(f"not a directed emulator: {report.reason}")
    return AutomaticRelation.from_classes(
        _classes(phi.p, phi.p.values()), _classes(phi.q, phi.q.values())
    )


def factorize(phi: GraphMorphism) -> tuple[AutomaticRelation, GraphMorphism]:
    """Split a directed emulator uniquely as an isomorphism after the
    canonical quotient projection."""
    r = canonical_relation(phi)
    q, can = quotient(phi.source, r)
    iota = GraphMorphism(
        q,
        phi.target,
        {c[0]: phi.p[c[0]] for c in r.vertex_classes},
        {c[0]: phi.q[c[0]] for c in r.edge_classes},
    )
    if not iota.is_isomorphism():
        raise DomainError("factorization produced a non-isomorphism")
    return r, iota


def compose_relations(
    g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation
) -> AutomaticRelation:
    """Compose r1 on g with r2 on the quotient g/r1 into a relation on g."""
    q, can = quotient(g, r1)
    report = is_automatic(q, r2)
    if not report.ok:
        raise DomainError("second relation is not automatic on the quotient")
    v2, e2 = r2.vertex_class_of(), r2.edge_class_of()
    return AutomaticRelation.from_classes(
        _classes(g.vertices, (v2[can.p[v]] for v in g.vertices)),
        _classes(g.edges, (e2[can.q[e]] for e in g.edges)),
    )


@dataclass(frozen=True)
class FinalFamily:
    """Pairwise-disjoint non-empty vertex subsets."""

    subsets: tuple[frozenset[str], ...]

    @staticmethod
    def of(*subsets: Iterable[str]) -> "FinalFamily":
        return FinalFamily(tuple(frozenset(s) for s in subsets))

    def validate(self, g: DiGraph) -> None:
        seen: set[str] = set()
        for s in self.subsets:
            if not s:
                raise DomainError("final family subsets must be non-empty")
            if not s <= set(g.vertices):
                raise DomainError("final family mentions unknown vertices")
            if s & seen:
                raise DomainError("final family subsets must be pairwise disjoint")
            seen |= s


def _blocks(keys) -> tuple[list[int], int]:
    """Each key's block number, blocks numbered in first-seen order, and the
    number of blocks."""
    number: dict = {}
    blocks = [number.setdefault(k, len(number)) for k in keys]
    return blocks, len(number)


def _coarsest_automatic(g: DiGraph, vertex_keys, edge_keys) -> AutomaticRelation:
    """The coarsest automatic relation whose classes lie within those of the
    keys, one hashable per vertex and per edge in id order.  Moore-style
    rounds renumber the edges by (block, source block, target block), then the
    vertices by (block, set of out-edge blocks), until neither count grows.
    The ids are sorted, so first-seen classes are already canonical."""
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[s], index[t]) for s, t in g.edges.values()]
    outs: list[list[int]] = [[] for _ in index]
    for j, (s, _) in enumerate(ends):
        outs[s].append(j)
    (vb, nv), (eb, ne) = _blocks(vertex_keys), _blocks(edge_keys)
    # each round that does not stop adds a vertex or an edge block
    for rounds in count():
        assert rounds <= len(index) + len(ends), "refinement failed to stabilize in |V|+|E| rounds"
        eb, ne_next = _blocks([(b, vb[s], vb[t]) for b, (s, t) in zip(eb, ends)])
        vb, nv_next = _blocks([(b, frozenset(map(eb.__getitem__, o))) for b, o in zip(vb, outs)])
        if (nv_next, ne_next) == (nv, ne):
            return AutomaticRelation(_classes(g.vertices, vb), _classes(g.edges, eb))
        nv, ne = nv_next, ne_next


def mn_refine(a: SemiAutomaton, family: FinalFamily) -> AutomaticRelation:
    """Myhill-Nerode style refinement of states relative to a family of
    disjoint final sets; edges are related when labels match and both
    endpoints are related.  The result is always automatic."""
    g = a.graph
    family.validate(g)
    subset_of = {v: i for i, s in enumerate(family.subsets) for v in s}
    return _coarsest_automatic(g, map(subset_of.get, g.vertices), map(a.label, g.edges))


@dataclass(frozen=True)
class FinalSystemReport:
    minimal_system: tuple[str, ...]
    cardinality: int


@lru_cache(maxsize=1)
def complete_final_systems(g: DiGraph) -> FinalSystemReport:
    """One minimal complete final system: the least vertex of each sink
    strongly-connected component.  Its size is an invariant of the graph.
    Graphs are immutable and equal graphs share the system, so the last one
    is kept: the round trips over one graph's relations compute it once."""
    comps = strongly_connected_components(g)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    has_out = set()
    for e, s, t in g.edge_list():
        if comp_of[s] != comp_of[t]:
            has_out.add(comp_of[s])
    sinks = [c for i, c in enumerate(comps) if i not in has_out]
    reps = tuple(sorted(min(c) for c in sinks))
    if not is_complete_final_system(g, reps):
        raise DomainError("final system construction failed to cover the graph")
    return FinalSystemReport(reps, len(reps))


def is_complete_final_system(g: DiGraph, vertices: Iterable[str]) -> bool:
    """Every vertex has a walk to one of the given vertices."""
    covered = frozenset().union(*(ancestors(g, v) for v in vertices))
    return len(covered) == len(g.vertices)


def canonical_semi_automaton(g: DiGraph, r: AutomaticRelation) -> SemiAutomaton:
    """Label each edge by (the representative of) its edge class."""
    erep = {e: c[0] for c in r.edge_classes for e in c}
    return SemiAutomaton(g, set(erep.values()), erep)


@dataclass(frozen=True)
class RoundTripReport:
    ok: bool
    minimal_system_ok: bool
    class_partition_ok: bool
    reachable_single_ok: bool | None


def automatic_to_mn_roundtrip(g: DiGraph, r: AutomaticRelation) -> RoundTripReport:
    """Recover an automatic relation by refinement over its own canonical
    semi-automaton, from a minimal complete final system, from the full class
    partition, and (when a reachable vertex exists) from that single class."""
    _require_automatic(g, r, "relation is not automatic")
    a_r = canonical_semi_automaton(g, r)
    vclass = r.vertex_class_of()

    system = complete_final_systems(g).minimal_system
    fam_min = FinalFamily(tuple({frozenset(vclass[s]) for s in system}))
    got_min = mn_refine(a_r, fam_min)
    minimal_ok = got_min == r

    fam_all = FinalFamily(tuple(frozenset(c) for c in r.vertex_classes))
    got_all = mn_refine(a_r, fam_all)
    class_ok = got_all == r

    # every vertex reaches v exactly when the graph has one sink component
    # and v lies in it; the minimal system then holds its least vertex
    single_ok: bool | None = None
    if len(system) == 1:
        got_single = mn_refine(a_r, FinalFamily.of(vclass[system[0]]))
        single_ok = got_single == r

    ok = minimal_ok and class_ok and (single_ok is not False)
    return RoundTripReport(ok, minimal_ok, class_ok, single_ok)


def _join_classes(ids: tuple[str, ...], x: tuple[int, ...], y: tuple[int, ...]):
    """Classes of the finest partition of ids coarser than both class-number
    vectors: x's classes, merged whenever y relates two of their members.
    The ids are sorted, so first-seen classes are already canonical."""
    parent = {i: i for i in x}

    def root(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    first: dict[int, int] = {}
    for i, j in zip(x, y):
        a, b = root(i), root(first.setdefault(j, i))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return _classes(ids, map(root, x))


def join(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Least upper bound: transitive closure of the unions, which stays
    automatic."""
    for r in (r1, r2):
        _require_automatic(g, r, "join input is not automatic")
    a, b = r1._index, r2._index
    n = len(a.vertex_ids)
    out = AutomaticRelation(
        _join_classes(a.vertex_ids, a.vector[:n], b.vector[:n]),
        _join_classes(a.edge_ids, a.vector[n:], b.vector[n:]),
    )
    _require_automatic(g, out, "join failed to be automatic")
    return out


def meet(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Greatest lower bound: the coarsest automatic relation below the
    pairwise intersections of the classes."""
    for r in (r1, r2):
        _require_automatic(g, r, "meet input is not automatic")
    a, b = r1._index, r2._index
    n = len(a.vertex_ids)
    out = _coarsest_automatic(g, zip(a.vector[:n], b.vector[:n]), zip(a.vector[n:], b.vector[n:]))
    _require_automatic(g, out, "meet failed to be automatic")
    return out


def maximum(g: DiGraph) -> AutomaticRelation:
    """Top of the lattice: the coarsest bisimulation on vertices with the
    vertex-induced edge relation.  Quotienting by it is terminal among the
    emulators out of g."""
    out = _coarsest_automatic(g, [0] * len(g.vertices), [0] * len(g.edges))
    _require_automatic(g, out, "maximum relation failed to be automatic")
    return out


def _partitions(items: list):
    """All set partitions of a list (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_automatic_relations(g: DiGraph) -> list[AutomaticRelation]:
    """All automatic relations on a small graph, built directly.  Per vertex
    partition, each group of edges with the same end classes is partitioned on
    its own, keeping the partitions whose every block's sources cover the
    source class (bisimilarity; compatibility holds by construction).  A group
    with nothing kept rules out the vertex partition."""
    out = []
    for vpart in _partitions(list(g.vertices)):
        vclass = {v: i for i, c in enumerate(vpart) for v in c}
        groups: dict[tuple[int, int], list[str]] = {}
        for e in g.edges:
            groups.setdefault((vclass[g.src(e)], vclass[g.dst(e)]), []).append(e)
        kept_per_group = []
        for (s, _), group in groups.items():
            need = len(vpart[s])
            kept = [p for p in _partitions(group)
                    if all(len({g.src(e) for e in block}) == need for block in p)]
            if not kept:
                break
            kept_per_group.append(kept)
        else:
            vertex_classes = _canonical_partition(vpart)
            for parts in product(*kept_per_group):
                edge_classes = _canonical_partition(chain.from_iterable(parts))
                out.append(AutomaticRelation(vertex_classes, edge_classes))
    return out
