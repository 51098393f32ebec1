"""Automatic relations on digraphs: verification, quotients, factorization,
Myhill-Nerode style refinement, complete final systems, and the lattice
structure (join, meet, maximum, terminal quotient).

An automatic relation is a pair of equivalences (on vertices and on edges)
such that related edges have related endpoints (compatibility) and related
vertices emulate each other's outgoing edges (bisimilarity).  Quotienting by
one is exactly a directed emulation onto the quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, product
from types import MappingProxyType
from typing import Iterable

from .digraph import (
    DiGraph,
    GraphMorphism,
    ValidationReport,
    _born,
    _int_view,
    strongly_connected_components,
)
from .emulation import is_directed_emulator
from .errors import DomainError
from .semiauto import SemiAutomaton


def _classes(ids: Iterable[str], blocks: Iterable) -> tuple[tuple[str, ...], ...]:
    """The ids grouped by their blocks, in first-seen order."""
    groups: dict = {}
    for x, b in zip(ids, blocks):
        groups.setdefault(b, []).append(x)
    return tuple(map(tuple, groups.values()))


def _blocks(keys) -> tuple[list[int], int]:
    """Each key's block number, blocks numbered in first-seen order, and the
    number of blocks."""
    number: dict = {}
    blocks = [number.setdefault(k, len(number)) for k in keys]
    return blocks, len(number)


@dataclass(frozen=True, init=False)
class AutomaticRelation:
    """Paired vertex/edge equivalences held as one class-number vector over
    their domain, the pair (sorted vertex ids, sorted edge ids).  `vector`
    numbers the vertex classes first and the edge classes after them, each in
    first-seen order over the sorted ids.  That numbering is canonical, so
    equality and hashing read only the domain and the vector.  The
    constructor takes any hashable key per id and renumbers the vertex part
    and the edge part separately into it.

    `verified_on` is the graph object the relation is known to be automatic
    on; graphs and relations are immutable, so that verdict stands.  A
    relation the layer builds on a graph (`_built`) is automatic there by
    construction, and its builder numbers it canonically: it is born with
    that verdict and that vector, and shares the graph's domain object
    (`DiGraph.int_view`).  One from a file or a caller is renumbered here and
    gets its verdict from `is_automatic`."""

    domain: tuple
    vector: tuple[int, ...]
    verified_on: DiGraph | None = field(default=None, compare=False, repr=False)

    def __init__(self, domain: tuple, vector: Iterable):
        keys = tuple(vector)
        n = len(domain[0])
        if len(keys) != n + len(domain[1]):
            raise DomainError("class vector and domain differ in length")
        vertex_blocks, nv = _blocks(keys[:n])
        vector = tuple(vertex_blocks + [nv + b for b in _blocks(keys[n:])[0]])
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "vector", vector)

    @staticmethod
    def from_classes(vertex_classes, edge_classes) -> "AutomaticRelation":
        """The relation with the given classes.  The vertex classes and the
        edge classes must each partition their ids into non-empty classes;
        the two are kept apart, as a vertex and an edge may share an id."""
        class_maps = []
        for classes in (vertex_classes, edge_classes):
            class_of: dict = {}
            for k, c in enumerate(classes):
                if not c:
                    raise DomainError("classes must be non-empty")
                for x in c:
                    if class_of.setdefault(x, k) != k:
                        raise DomainError("classes do not partition the underlying set")
            class_maps.append(class_of)
        vertex_class, edge_class = class_maps
        domain = (tuple(sorted(vertex_class)), tuple(sorted(edge_class)))
        vector = [*map(vertex_class.get, domain[0]), *map(edge_class.get, domain[1])]
        return AutomaticRelation(domain, vector)

    @staticmethod
    def identity(g: DiGraph) -> "AutomaticRelation":
        return _built(g, range(len(g.vertices) + len(g.edges)))

    @cached_property
    def _partition(self) -> tuple:
        """The vertex classes and the edge classes in canonical form: members
        sorted, classes ordered by least member."""
        vertices, edges = self.domain
        return _classes(vertices, self.vector), _classes(edges, self.vector[len(vertices):])

    @property
    def vertex_classes(self) -> tuple[tuple[str, ...], ...]:
        return self._partition[0]

    @property
    def edge_classes(self) -> tuple[tuple[str, ...], ...]:
        return self._partition[1]

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


def _built(g: DiGraph, vector: Iterable[int]) -> AutomaticRelation:
    """A relation that a layer construction made on g, given by its canonical
    class vector over g's domain.  The construction makes it automatic on g
    and numbers it canonically, so it is neither checked nor renumbered."""
    return _born(AutomaticRelation, domain=g.int_view.domain, vector=tuple(vector), verified_on=g)


def relation_leq(r1: AutomaticRelation, r2: AutomaticRelation) -> bool:
    """r1 <= r2 when every r1 class is contained in an r2 class (both sorts):
    exactly when r1's same-class pairs are r2's too."""
    if r1.domain is not r2.domain and r1.domain != r2.domain:
        raise DomainError("relations on different vertex or edge sets")
    m = r1.mask
    return m & r2.mask == m


_AUTOMATIC = ValidationReport(True)


def is_automatic(g: DiGraph, r: AutomaticRelation) -> ValidationReport:
    """Check compatibility and bisimilarity on the class numbers and the
    graph's integer ends.  A failing report's reason names the violated
    clause, and its witness is the first one met going through the classes
    in order, and each class's members in order.  A relation verified on this graph object before, or
    built on it by the layer, is not checked again; recording a verdict is
    the check's only effect on r."""
    if r.verified_on is g:
        return _AUTOMATIC
    view = g.int_view
    if r.domain is not view.domain and r.domain != view.domain:
        raise DomainError("relation and graph have different vertex or edge ids")
    vertices, edges = view.domain
    vclass, eclass = r.vector[: len(vertices)], r.vector[len(vertices):]
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
        return ValidationReport(False, "compatibility", (edges[first[k]], edges[j], end))
    # each edge class needs an edge out of every vertex of its source class;
    # canonical classes are first seen in class order
    fanout = set(zip(eclass, sources))
    if len(fanout) != sum([vclass.count(vclass[sources[j0]]) for j0 in first.values()]):
        return next(
            ValidationReport(False, "bisimilarity", (vertices[x], edges[j0]))
            for k, j0 in first.items() for x, c in enumerate(vclass)
            if c == vclass[sources[j0]] and (k, x) not in fanout
        )
    object.__setattr__(r, "verified_on", g)
    return _AUTOMATIC


def _require_automatic(g: DiGraph, r: AutomaticRelation, what: str) -> None:
    rep = is_automatic(g, r)
    if not rep.ok:
        raise DomainError(f"{what}: {rep.reason}")


def quotient(g: DiGraph, r: AutomaticRelation) -> tuple[DiGraph, GraphMorphism]:
    """Quotient graph with class-representative ids (least member) and the
    canonical projection, which is a directed emulator.  Both are built from
    r's vector and g's integer view, with no second validation: class k's
    representative is the first position numbered k, so representatives come
    in sorted id order.  The quotient is born with its integer view, vertex k
    being class k; the projection with its maps as positions and with its
    factorization, r and the quotient's identity.  No verdict is born."""
    report = is_automatic(g, r)
    if not report.ok:
        raise DomainError(f"relation is not automatic: {report.reason} at {report.witness}")
    view, n = g.int_view, len(g.vertices)
    vertices, edges = view.domain
    vclass = r.vector[:n]
    nv = max(vclass, default=-1) + 1
    maps = vclass, tuple([k - nv for k in r.vector[n:]])
    # each class's first position; classes are numbered in first-seen order
    vfirst, efirst = ([seen.setdefault(k, i) for i, k in enumerate(m) if k not in seen]
                      for m, seen in zip(maps, ({}, {})))
    vids, eids = tuple(map(vertices.__getitem__, vfirst)), tuple(map(edges.__getitem__, efirst))
    ends = [tuple([vclass[side[j]] for j in efirst]) for side in (view.sources, view.targets)]
    q = _born(DiGraph, vertices=vids, int_view=_int_view(*ends, (vids, eids)),
              edges=MappingProxyType({e: (vids[s], vids[t]) for e, s, t in zip(eids, *ends)}))
    identity = _born(GraphMorphism, source=q, target=q, p=MappingProxyType(dict(zip(vids, vids))),
                     q=MappingProxyType(dict(zip(eids, eids))),
                     _int_maps=(tuple(range(len(vids))), tuple(range(len(eids)))))
    can = _born(GraphMorphism, source=g, target=q, _int_maps=maps, _factorization=(r, identity),
                p=MappingProxyType(dict(zip(vertices, map(vids.__getitem__, maps[0])))),
                q=MappingProxyType(dict(zip(edges, map(eids.__getitem__, maps[1])))))
    return q, can


def is_cover_relation(g: DiGraph, r: AutomaticRelation) -> bool:
    """True when distinct related edges always have distinct sources."""
    _require_automatic(g, r, "relation is not automatic")
    eclass = r.vector[len(g.vertices):]
    return len(set(zip(eclass, g.int_view.sources))) == len(eclass)


def canonical_relation(phi: GraphMorphism) -> AutomaticRelation:
    """The relation identifying the fibres of a verified directed emulator,
    numbered on its integer maps and automatic on its source."""
    report = is_directed_emulator(phi)
    if not report.ok:
        raise DomainError(f"not a directed emulator: {report.reason}")
    r = AutomaticRelation(phi.source.int_view.domain, [*phi._int_maps[0], *phi._int_maps[1]])
    object.__setattr__(r, "verified_on", phi.source)
    return r


def factorize(phi: GraphMorphism) -> tuple[AutomaticRelation, GraphMorphism]:
    """Split a directed emulator uniquely as an isomorphism after the
    canonical quotient projection: once phi is checked, its split is read
    where it is kept (`GraphMorphism._factorization`).  A quotient
    projection is born with it; any other emulator splits on first use."""
    report = is_directed_emulator(phi)
    if not report.ok:
        raise DomainError(f"not a directed emulator: {report.reason}")
    return phi._factorization


@dataclass(frozen=True)
class FinalFamily:
    """Pairwise-disjoint non-empty vertex subsets."""

    subsets: tuple[frozenset[str], ...]

    @staticmethod
    def of(*subsets: Iterable[str]) -> "FinalFamily":
        return FinalFamily(tuple(frozenset(s) for s in subsets))

    def validate(self, g: DiGraph) -> None:
        seen: set[str] = set()
        vertices = set(g.vertices)
        for s in self.subsets:
            if not s:
                raise DomainError("final family subsets must be non-empty")
            if not s <= vertices:
                raise DomainError("final family mentions unknown vertices")
            if s & seen:
                raise DomainError("final family subsets must be pairwise disjoint")
            seen |= s


def _coarsest_automatic(g: DiGraph, vertex_keys, edge_keys) -> AutomaticRelation:
    """The coarsest automatic relation whose classes lie within those of the
    keys, one hashable per vertex and per edge in id order.  Moore-style steps
    renumber the edges by (block, source block, target block) and the
    vertices by (block, set of out-edge blocks) in turn.  A step that adds no
    block leaves the next one nothing to split, so the first such step ends
    the refinement, except the first edge step, which no vertex step has seen.
    The steps run on the graph's integer view (`DiGraph.int_view`), and the
    result is the block numbers over its domain: first-seen, so canonical."""
    view = g.int_view
    sources, targets, outs = view.sources, view.targets, view.outs
    vb, nv = _blocks(vertex_keys)
    eb, ne = _blocks([(key, vb[s], vb[t]) for key, s, t in zip(edge_keys, sources, targets)])
    # each round that does not stop adds a vertex and an edge block
    for rounds in count():
        assert rounds <= len(outs) + len(sources), "refinement failed to stabilize in |V|+|E| rounds"
        vb, nv_next = _blocks([(b, frozenset(map(eb.__getitem__, o))) for b, o in zip(vb, outs)])
        if nv_next == nv:
            break
        nv = nv_next
        eb, ne_next = _blocks([(b, vb[s], vb[t]) for b, s, t in zip(eb, sources, targets)])
        if ne_next == ne:
            break
        ne = ne_next
    return _built(g, vb + [nv + b for b in eb])


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
    strongly-connected component.  Every vertex of a finite digraph has a
    walk into a sink component, and a sink component reaches only itself, so
    the system is complete and minimal, and its size is an invariant of the
    graph.  Graphs are immutable and equal graphs share the system, so the
    last one is kept: the round trips over one graph's relations compute it
    once."""
    comps = strongly_connected_components(g)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    has_out = {comp_of[s] for s, t in g.edges.values() if comp_of[s] != comp_of[t]}
    reps = tuple(sorted(min(c) for i, c in enumerate(comps) if i not in has_out))
    return FinalSystemReport(reps, len(reps))


@dataclass(frozen=True)
class RoundTripReport:
    ok: bool
    minimal_system_ok: bool
    class_partition_ok: bool
    reachable_single_ok: bool | None


def automatic_to_mn_roundtrip(g: DiGraph, r: AutomaticRelation) -> RoundTripReport:
    """Recover an automatic relation by Myhill-Nerode refinement over its own
    canonical semi-automaton, the graph labelled by r's edge classes, from a
    minimal complete final system, from the full class partition, and (when a
    reachable vertex exists) from that single class.  The refinements run on
    r's class vector: each edge is keyed by its class, and each vertex by the
    family member that holds it, one key standing for outside every member."""
    _require_automatic(g, r, "relation is not automatic")
    n = len(g.vertices)
    vclass, eclass = r.vector[:n], r.vector[n:]
    system = complete_final_systems(g).minimal_system
    finals = {k for v, k in zip(g.vertices, vclass) if v in system}
    minimal_keys = [k if k in finals else None for k in vclass]
    minimal_ok = _coarsest_automatic(g, minimal_keys, eclass) == r
    class_ok = _coarsest_automatic(g, vclass, eclass) == r

    # every vertex reaches v exactly when the graph has one sink component
    # and v lies in it; the minimal system then holds its least vertex
    single_ok: bool | None = None
    if len(system) == 1:
        single_ok = _coarsest_automatic(g, [k in finals for k in vclass], eclass) == r

    ok = minimal_ok and class_ok and (single_ok is not False)
    return RoundTripReport(ok, minimal_ok, class_ok, single_ok)


def join(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Least upper bound: transitive closure of the unions, which stays
    automatic.  r1's classes are merged whenever r2 relates two of their
    members; vertex and edge classes never meet, so one pass over the class
    vectors joins both, and one first-seen numbering of the roots over the
    whole vector is canonical."""
    for r in (r1, r2):
        _require_automatic(g, r, "join input is not automatic")
    x, y = r1.vector, r2.vector
    parent = list(range(len(x)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]  # path halving
        return k

    first: dict[int, int] = {}
    for i, j in zip(x, y):
        a, b = root(i), root(first.setdefault(j, i))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return _built(g, _blocks(map(root, x))[0])


def meet(g: DiGraph, r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """Greatest lower bound: the coarsest automatic relation below the
    pairwise intersections of the classes."""
    for r in (r1, r2):
        _require_automatic(g, r, "meet input is not automatic")
    x, y = r1.vector, r2.vector
    n = len(g.vertices)
    return _coarsest_automatic(g, zip(x[:n], y[:n]), zip(x[n:], y[n:]))


def maximum(g: DiGraph) -> AutomaticRelation:
    """Top of the lattice: the coarsest bisimulation on vertices with the
    vertex-induced edge relation.  Quotienting by it is terminal among the
    emulators out of g."""
    return _coarsest_automatic(g, [0] * len(g.vertices), [0] * len(g.edges))


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


def _numbered_partitions(k: int):
    """The Bell(k) set partitions of range(k) in `_partitions` order, each as
    its first-seen block numbers and its block sizes; kept while k <= 6 (203)."""
    return _partition_table(k) if k <= 6 else map(_numbered, _partitions(list(range(k))))


@lru_cache(maxsize=None)
def _partition_table(k: int) -> tuple:
    return tuple(map(_numbered, _partitions(list(range(k)))))


def _numbered(part: list) -> tuple:
    part = sorted(part)
    block_of = {x: b for b, block in enumerate(part) for x in block}
    return tuple(map(block_of.get, range(len(block_of)))), tuple(map(len, part))


def enumerate_automatic_relations(g: DiGraph) -> list[AutomaticRelation]:
    """All automatic relations on a small graph, built directly on the
    graph's integer view.  Per vertex partition, each group of edges with the
    same end classes is partitioned on its own, keeping the partitions whose
    every block's sources cover the source class (bisimilarity, which a
    one-vertex class always meets; compatibility holds by construction).  A
    group with nothing kept rules out the vertex partition.  Each relation
    is built canonical, from first-seen vertex numbers."""
    view = g.int_view
    sources, targets = view.sources, view.targets
    out = []
    for vclass, sizes in _numbered_partitions(len(g.vertices)):
        groups: dict[tuple[int, int], list[int]] = {}
        for j, (s, t) in enumerate(zip(sources, targets)):
            groups.setdefault((vclass[s], vclass[t]), []).append(j)
        kept_per_group = []
        for (s, _), group in groups.items():
            need = sizes[s]
            group_sources = [sources[j] for j in group]
            kept = [labels for labels, blocks in _numbered_partitions(len(group))
                    if need == 1 or len(set(zip(labels, group_sources))) == need * len(blocks)]
            if not kept:
                break
            kept_per_group.append(kept)
        else:
            keys = [None] * len(sources)  # each edge's (group, block)
            for parts in product(*kept_per_group):
                for key, group, labels in zip(groups, groups.values(), parts):
                    for j, b in zip(group, labels):
                        keys[j] = key, b
                out.append(_built(g, vclass + tuple([len(sizes) + b for b in _blocks(keys)[0]])))
    return out
