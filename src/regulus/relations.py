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
    IntView,
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
    """Derived data of one relation on its domain, the pair (sorted vertex
    ids, sorted edge ids): `vector` holds each id's class number in domain
    order, vertex classes numbered first and edge classes after them, both in
    the order of the relation's classes.  A relation that a layer builds on a
    graph shares the graph's domain object (`DiGraph.int_view`), and one that
    `is_automatic` checks on a graph takes that object over, so relations on
    one graph compare domains by identity.  `mask`, the same-class pairs, is
    built on first use.  `verified_on` is the graph object on which the
    relation last verified automatic; graphs and relations are immutable, so
    that verdict stands."""

    def __init__(self, domain: tuple, vector: tuple[int, ...]):
        self.domain = domain
        self.vector = vector
        self.verified_on = None

    @cached_property
    def mask(self) -> int:
        """The same-class pairs: one row per position p of the domain, whose
        bit q is set when the ids at p and q share a class, so r1 <= r2
        exactly when r1's mask lies in r2's.  A row is its class's column
        bits padded to whole bytes, and the rows are joined as bytes, so the
        mask of n ids costs O(n^2 / 8) bytes of work."""
        width = (len(self.vector) + 7) // 8
        cols = [0] * (max(self.vector, default=-1) + 1)
        for p, k in enumerate(self.vector):
            cols[k] |= 1 << p
        rows = [c.to_bytes(width, "little") for c in cols]
        return int.from_bytes(b"".join(map(rows.__getitem__, self.vector)), "little")


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
        vc, ec = self.vertex_classes, self.edge_classes
        if vc != _canonical_partition(vc) or ec != _canonical_partition(ec):
            # equality is structural, so out-of-order classes would compare
            # unequal to the same relation in canonical form
            raise DomainError("classes are not in canonical form; use from_classes")
        vertex_class = {v: i for i, c in enumerate(vc) for v in c}
        edge_class = {e: i for i, c in enumerate(ec, len(vc)) for e in c}
        domain = (tuple(sorted(vertex_class)), tuple(sorted(edge_class)))
        vector = tuple(map(vertex_class.__getitem__, domain[0])) + tuple(
            map(edge_class.__getitem__, domain[1])
        )
        if len(vector) != sum(map(len, vc + ec)):
            raise DomainError("classes do not partition the underlying set")
        return _ClassIndex(domain, vector)

    def vertex_class_of(self) -> dict[str, tuple[str, ...]]:
        return {v: c for c in self.vertex_classes for v in c}

    def edge_class_of(self) -> dict[str, tuple[str, ...]]:
        return {e: c for c in self.edge_classes for e in c}

    def is_identity(self) -> bool:
        return all(len(c) == 1 for c in self.vertex_classes) and all(
            len(c) == 1 for c in self.edge_classes
        )


def _relation(view: IntView, vector: list[int]) -> AutomaticRelation:
    """The relation with the given class numbers over the graph's domain.
    Numbered first-seen over the sorted ids, they are the canonical class
    numbers, so the classes come out canonical and the relation keeps the
    vector as its index."""
    vertices, edges = view.domain
    vertex_classes = max(vector[: len(vertices)], default=-1) + 1
    classes = _classes(vertices + edges, vector)
    r = AutomaticRelation(classes[:vertex_classes], classes[vertex_classes:])
    object.__setattr__(r, "_index", _ClassIndex(view.domain, tuple(vector)))
    return r


def relation_leq(r1: AutomaticRelation, r2: AutomaticRelation) -> bool:
    """r1 <= r2 when every r1 class is contained in an r2 class (both sorts):
    exactly when r1's same-class pairs are r2's too."""
    a, b = r1._index, r2._index
    if a.domain is not b.domain and a.domain != b.domain:
        raise DomainError("relations on different vertex or edge sets")
    m = a.mask
    return m & b.mask == m


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    clause: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


_AUTOMATIC = RelationReport(True)


def is_automatic(g: DiGraph, r: AutomaticRelation) -> RelationReport:
    """Check compatibility and bisimilarity on the class numbers and the
    graph's integer ends.  A failing report names the violated clause and the
    first witness met going through the classes in order, and each class's
    members in order.  A relation verified on this graph object before is not
    checked again."""
    idx = r._index
    if idx.verified_on is g:
        return _AUTOMATIC
    view = g.int_view()
    if idx.domain is not view.domain and idx.domain != view.domain:
        raise DomainError("classes do not partition the underlying set")
    idx.domain = view.domain
    vertices, edges = view.domain
    vclass, eclass = idx.vector[: len(vertices)], idx.vector[len(vertices):]
    sources, targets = view.sources, view.targets
    first: dict[int, int] = {}  # the first edge of each edge class
    bad = None  # (class, edge, end) of the least class's first violation
    for j, k in enumerate(eclass):
        j0 = first.setdefault(k, j)
        if j0 != j and (bad is None or k < bad[0]):
            if vclass[sources[j]] != vclass[sources[j0]]:
                bad = (k, j, "src")
            elif vclass[targets[j]] != vclass[targets[j0]]:
                bad = (k, j, "dst")
    if bad is not None:
        k, j, end = bad
        return RelationReport(False, "compatibility", (edges[first[k]], edges[j], end))
    # each edge class needs an edge out of every vertex of its source class;
    # canonical classes are first seen in class order
    fanout = set(zip(eclass, sources))
    if len(fanout) != sum([vclass.count(vclass[sources[j0]]) for j0 in first.values()]):
        return next(
            RelationReport(False, "bisimilarity", (vertices[x], edges[j0]))
            for k, j0 in first.items() for x, c in enumerate(vclass)
            if c == vclass[sources[j0]] and (k, x) not in fanout
        )
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
        [c[0] for c in r.vertex_classes],
        [(c[0], vrep[g.src(c[0])], vrep[g.dst(c[0])]) for c in r.edge_classes],
    )
    can = GraphMorphism(g, q, vrep, erep)
    return q, can


def is_cover_relation(g: DiGraph, r: AutomaticRelation) -> bool:
    """True when distinct related edges always have distinct sources."""
    _require_automatic(g, r, "relation is not automatic")
    eclass = r._index.vector[len(g.vertices):]
    return len(set(zip(eclass, g.int_view().sources))) == len(eclass)


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
    keys, one hashable per vertex and per edge in id order.  Moore-style steps
    renumber the edges by (block, source block, target block) and the
    vertices by (block, set of out-edge blocks) in turn.  A step that adds no
    block leaves the next one nothing to split, so the first such step ends
    the refinement, except the first edge step, which no vertex step has seen.
    The steps run on the graph's integer view (`DiGraph.int_view`), and its
    ids are sorted, so the first-seen block numbers are the canonical class
    numbers: the result is built from them and keeps them as its index."""
    view = g.int_view()
    sources, targets, outs = view.sources, view.targets, view.outs
    vb, nv = _blocks(vertex_keys)
    eb, ne = _blocks([(key, vb[s], vb[t]) for key, s, t in zip(edge_keys, sources, targets)])
    # each round that does not stop adds a vertex and an edge block
    for rounds in count():
        assert rounds <= len(outs) + len(sources), "refinement failed to stabilize in |V|+|E| rounds"
        vb, nv_next = _blocks([(b, frozenset(map(eb.__getitem__, o))) for b, o in zip(vb, outs)])
        if nv_next == nv:
            break
        eb, ne_next = _blocks([(b, vb[s], vb[t]) for b, s, t in zip(eb, sources, targets)])
        if ne_next == ne:
            break
        nv, ne = nv_next, ne_next
    return _relation(view, vb + [nv_next + b for b in eb])


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


def join(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Least upper bound: transitive closure of the unions, which stays
    automatic.  r1's classes are merged whenever r2 relates two of their
    members; vertex and edge classes never meet, so one pass over the class
    vectors joins both."""
    for r in (r1, r2):
        _require_automatic(g, r, "join input is not automatic")
    x, y = r1._index.vector, r2._index.vector
    parent = list(range(len(r1.vertex_classes) + len(r1.edge_classes)))

    def root(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    first: dict[int, int] = {}
    for i, j in zip(x, y):
        a, b = root(i), root(first.setdefault(j, i))
        if a != b:
            parent[max(a, b)] = min(a, b)
    out = _relation(g.int_view(), _blocks(map(root, x))[0])
    _require_automatic(g, out, "join failed to be automatic")
    return out


def meet(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Greatest lower bound: the coarsest automatic relation below the
    pairwise intersections of the classes."""
    for r in (r1, r2):
        _require_automatic(g, r, "meet input is not automatic")
    x, y = r1._index.vector, r2._index.vector
    n = len(g.vertices)
    out = _coarsest_automatic(g, zip(x[:n], y[:n]), zip(x[n:], y[n:]))
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
    """All automatic relations on a small graph, built directly on the
    graph's integer view.  Per vertex partition, each group of edges with the
    same end classes is partitioned on its own, keeping the partitions whose
    every block's sources cover the source class (bisimilarity; compatibility
    holds by construction).  A group with nothing kept rules out the vertex
    partition."""
    view = g.int_view()
    sources, targets = view.sources, view.targets
    out = []
    for vpart in _partitions(list(range(len(g.vertices)))):
        vclass = [0] * len(g.vertices)
        for i, c in enumerate(vpart):
            for v in c:
                vclass[v] = i
        groups: dict[tuple[int, int], list[int]] = {}
        for j, (s, t) in enumerate(zip(sources, targets)):
            groups.setdefault((vclass[s], vclass[t]), []).append(j)
        kept_per_group = []
        for (s, _), group in groups.items():
            need = len(vpart[s])
            kept = [p for p in _partitions(group)
                    if all(len(set(map(sources.__getitem__, block))) == need for block in p)]
            if not kept:
                break
            kept_per_group.append(kept)
        else:
            for parts in product(*kept_per_group):
                eclass = [0] * len(sources)
                for n, block in enumerate(chain.from_iterable(parts), len(vpart)):
                    for j in block:
                        eclass[j] = n
                out.append(_relation(view, _blocks(vclass + eclass)[0]))
    return out
