"""Finite directed and undirected multigraphs and their structural operations.

Vertices and edges carry opaque string ids.  Parallel edges and loops are
permitted everywhere.  All values are frozen after construction and every
operation is a pure function, so everything here is safe to share freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import DomainError


def _freeze_str(x) -> str:
    if not isinstance(x, str):
        raise DomainError(f"ids must be strings, got {x!r}")
    return x


class IntView(NamedTuple):
    """A digraph on integers: vertices and edges numbered by their positions
    in sorted id order.  `sources` and `targets` hold each edge's end
    positions, `outs` each vertex's out-edge positions, and `domain` the pair
    (vertex ids, edge ids) that every class-number vector over the graph
    follows."""

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    outs: tuple[tuple[int, ...], ...]
    domain: tuple[tuple[str, ...], tuple[str, ...]]


def _int_view(sources: tuple[int, ...], targets: tuple[int, ...], domain: tuple) -> IntView:
    """The integer view with these edge ends over (vertex ids, edge ids)."""
    outs: list[list[int]] = [[] for _ in domain[0]]
    for j, s in enumerate(sources):
        outs[s].append(j)
    return IntView(sources, targets, tuple(map(tuple, outs)), domain)


def _born(cls: type, **attrs):
    """A value of cls given its fields and kept results outright, unchecked."""
    x = object.__new__(cls)
    vars(x).update(attrs)
    return x


@dataclass(frozen=True, init=False)
class DiGraph:
    """A finite multidigraph: vertex ids plus edge records (id, src, dst);
    `int_view` and the stars are built on first use and kept."""

    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, str]]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        vs = list(vertices)
        vs = tuple(sorted(set(vs if all(type(v) is str for v in vs) else map(_freeze_str, vs))))
        vset = set(vs)
        emap: dict[str, tuple[str, str]] = {}
        for eid, src, dst in edges:
            if type(eid) is not str or type(src) is not str or type(dst) is not str:
                eid, src, dst = _freeze_str(eid), _freeze_str(src), _freeze_str(dst)
            if eid in emap:
                raise DomainError(f"duplicate edge id {eid!r}")
            if src not in vset or dst not in vset:
                raise DomainError(f"edge {eid!r} touches unknown vertex {src!r} or {dst!r}")
            emap[eid] = (src, dst)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", MappingProxyType(dict(sorted(emap.items()))))

    @cached_property
    def int_view(self) -> IntView:
        """The graph on integers."""
        index = {v: i for i, v in enumerate(self.vertices)}
        sources, targets = (tuple(index[ends[k]] for ends in self.edges.values()) for k in (0, 1))
        return _int_view(sources, targets, (self.vertices, tuple(self.edges)))

    def src(self, eid: str) -> str:
        return self.edges[eid][0]

    def dst(self, eid: str) -> str:
        return self.edges[eid][1]

    def ends(self, eid: str) -> tuple[str, str]:
        return self.edges[eid]

    @cached_property
    def _stars(self) -> tuple[Mapping[str, tuple[str, ...]], ...]:
        """Each vertex's edges in id order, out of it and into it."""
        stars: list[dict[str, list[str]]] = [{v: [] for v in self.vertices} for _ in range(2)]
        for eid, ends in self.edges.items():
            for star, v in zip(stars, ends):
                star[v].append(eid)
        return tuple(MappingProxyType({v: tuple(es) for v, es in star.items()}) for star in stars)

    def out_edges(self, v: str) -> tuple[str, ...]:
        """The edges out of v in id order."""
        try:
            return self._stars[0][v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def in_edges(self, v: str) -> tuple[str, ...]:
        try:
            return self._stars[1][v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def is_loop(self, eid: str) -> bool:
        s, t = self.edges[eid]
        return s == t

    def edge_list(self) -> list[tuple[str, str, str]]:
        return [(e, s, t) for e, (s, t) in self.edges.items()]

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, tuple(self.edges.items())))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DiGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True, init=False)
class UndirectedGraph:
    """A finite undirected multigraph; loops are edges with a single end."""

    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, ...]]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, tuple]]):
        vs = tuple(sorted({_freeze_str(v) for v in vertices}))
        vset = set(vs)
        emap: dict[str, tuple[str, ...]] = {}
        for eid, ends in edges:
            eid = _freeze_str(eid)
            ends = tuple(sorted({_freeze_str(x) for x in ends}))
            if eid in emap:
                raise DomainError(f"duplicate edge id {eid!r}")
            if not 1 <= len(ends) <= 2:
                raise DomainError(f"edge {eid!r} must have one or two ends")
            if any(x not in vset for x in ends):
                raise DomainError(f"edge {eid!r} touches an unknown vertex")
            emap[eid] = ends
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", MappingProxyType(dict(sorted(emap.items()))))

    def ends(self, eid: str) -> tuple[str, ...]:
        return self.edges[eid]

    def is_loop(self, eid: str) -> bool:
        return len(self.edges[eid]) == 1

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, tuple(self.edges.items())))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"UndirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class _Maps:
    """A pair of maps, p on vertices and q on edges, between two graphs; both
    are read-only copies of the maps given."""

    source: DiGraph | UndirectedGraph
    target: DiGraph | UndirectedGraph
    p: Mapping[str, str]
    q: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "p", MappingProxyType(dict(self.p)))
        object.__setattr__(self, "q", MappingProxyType(dict(self.q)))

    def is_surjective(self) -> bool:
        t = self.target
        return set(self.p.values()) == set(t.vertices) and set(self.q.values()) == set(t.edges)

    @cached_property
    def _int_maps(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """p and q as the target position of each source position, ids taken
        in sorted order; None when a map is not total or leaves the target."""
        source, p, q = self.source, self.p, self.q
        vertex_at = dict(zip(self.target.vertices, count()))
        edge_at = dict(zip(self.target.edges, count()))
        try:
            maps = (tuple([vertex_at[p[v]] for v in source.vertices]),
                    tuple([edge_at[q[e]] for e in source.edges]))
        except KeyError:
            return None
        return maps if len(p) + len(q) == len(maps[0]) + len(maps[1]) else None


@dataclass(frozen=True)
class GraphMorphism(_Maps):
    """A pair of total maps (p on vertices, q on edges) between digraphs.
    Its emulator, cover and isomorphism checks run on `_int_maps` and the
    graphs' integer views, and `validate_morphism` only explains a failure.
    Each check's answer is kept on first use; on an invalid morphism the
    emulator and cover checks raise every time.  A quotient projection is
    born with its integer maps and its factorization (`relations.quotient`),
    never with a verdict."""

    def is_isomorphism(self) -> bool:
        return self._isomorphism

    @cached_property
    def _isomorphism(self) -> bool:
        maps = _positions(self)
        if maps is None:
            return validate_morphism(self).ok  # False, or raises on maps that are not total
        (p, q), t = maps, self.target
        return len(set(p)) == len(p) == len(t.vertices) and len(set(q)) == len(q) == len(t.edges)

    @cached_property
    def _emulator(self) -> ValidationReport:
        return _directed_lifts(self, False)

    @cached_property
    def _cover(self) -> ValidationReport:
        return _directed_lifts(self, True)

    @cached_property
    def _factorization(self) -> tuple | None:
        """`relations.factorize`'s split of a directed emulator, else None: its
        fibres' relation r and iota, which sends each representative of the
        quotient by r where this morphism does, an isomorphism by
        construction."""
        from .relations import canonical_relation, quotient

        if not self._emulator.ok:
            return None
        r = canonical_relation(self)
        q, _ = quotient(self.source, r)
        return r, GraphMorphism(q, self.target, {v: self.p[v] for v in q.vertices},
                                {e: self.q[e] for e in q.edges})


@dataclass(frozen=True)
class UndirectedMorphism(_Maps):
    """A pair of total maps between undirected graphs preserving edge ends."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    witness: tuple = field(default=())

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class DirectedCycle:
    """A closed directed walk with pairwise distinct edges."""

    edges: tuple[str, ...]


def _vertex_images(m: _Maps, kind: str) -> ValidationReport:
    """Raise unless m maps exactly the source's ids; report a vertex image outside the target."""
    if m.p.keys() != set(m.source.vertices) or m.q.keys() != m.source.edges.keys():
        missing_v = [v for v in m.source.vertices if v not in m.p]
        missing_e = [e for e in m.source.edges if e not in m.q]
        if missing_v or missing_e:
            raise DomainError(
                f"{kind} maps are not total: missing vertices {missing_v[:3]} edges {missing_e[:3]}"
            )
        extra_v = sorted(m.p.keys() - m.source.vertices)
        extra_e = sorted(m.q.keys() - m.source.edges.keys())
        raise DomainError(f"{kind} maps name unknown vertices {extra_v[:3]} edges {extra_e[:3]}")
    tv = set(m.target.vertices)
    return next((ValidationReport(False, "vertex image outside target", (v, w))
                 for v, w in m.p.items() if w not in tv), ValidationReport(True))


def validate_morphism(m: GraphMorphism) -> ValidationReport:
    """Check that m's maps are total and preserve sources and targets edge-wise."""
    rep = _vertex_images(m, "morphism")
    if not rep.ok:
        return rep
    p, source, target = m.p, m.source.edges, m.target.edges
    for e, f in m.q.items():
        if f not in target:
            return ValidationReport(False, "edge image outside target", (e, f))
        s, t = source[e]
        fs, ft = target[f]
        if p[s] != fs:
            return ValidationReport(False, "source endpoint mismatch", (e,))
        if p[t] != ft:
            return ValidationReport(False, "target endpoint mismatch", (e,))
    return ValidationReport(True)


def _star_lifts(phi: _Maps, incidences: tuple, cover: bool, missing: str) -> ValidationReport:
    """The lifting condition of every emulator and cover predicate, on a valid
    morphism onto the target's vertices, decided on positions: `_int_maps`
    and the (edge, vertex) incidences of the source's stars and then of the
    target's.  An edge lies in the star of its source for out-stars, of each
    end for undirected stars.  Each pair of a target edge f and a source
    vertex x whose image has f in its star needs a lift, a source edge over f
    with x in its star; a cover needs exactly one.  The witness is the least
    failing pair, missing lifts before repeated ones, as (f, x) ids; least
    positions are least ids."""
    p, q = phi._int_maps
    source_stars, target_stars = incidences
    lifts = [(q[e], x) for e, x in source_stars]
    lifted = set(lifts)
    images = [0] * len(phi.target.vertices)  # the preimages of each target vertex
    for y in p:
        images[y] += 1
    # the morphism is valid, so every lifted pair is a needed one, and none is
    # missing when there are as many lifted pairs as needed ones
    if len(lifted) < sum([images[y] for _, y in target_stars]):
        f, x = min((f, x) for f, y in target_stars for x, image in enumerate(p)
                   if image == y and (f, x) not in lifted)
    elif cover and len(lifts) > len(lifted):
        lifts.sort()
        (f, x), missing = next(a for a, b in zip(lifts, lifts[1:]) if a == b), "lift not unique"
    else:
        return ValidationReport(True)
    return ValidationReport(False, missing, (tuple(phi.target.edges)[f], phi.source.vertices[x]))


def _positions(phi: GraphMorphism) -> tuple | None:
    """phi's `_int_maps` when its edge map preserves sources and targets."""
    maps = phi._int_maps
    if maps is None:
        return None
    (p, q), s, t = maps, phi.source.int_view, phi.target.int_view
    for ends, image_ends in ((s.sources, t.sources), (s.targets, t.targets)):
        if [p[x] for x in ends] != [image_ends[f] for f in q]:
            return None
    return maps


def _directed_lifts(phi: GraphMorphism, cover: bool) -> ValidationReport:
    maps = _positions(phi)
    if maps is None:
        base = validate_morphism(phi)  # raises on maps that are not total
        raise DomainError(f"invalid morphism: {base.reason} at {base.witness}")
    vs = phi.target.vertices
    if len(set(maps[0])) < len(vs):
        unhit = sorted(set(range(len(vs))).difference(maps[0]))[:2]
        return ValidationReport(False, "vertex map not surjective", tuple(vs[y] for y in unhit))
    stars = enumerate(phi.source.int_view.sources), list(enumerate(phi.target.int_view.sources))
    return _star_lifts(phi, stars, cover, "missing outgoing lift")


def validate_undirected_morphism(m: UndirectedMorphism) -> ValidationReport:
    """Check that m's maps are total and send each edge's ends onto its image's."""
    rep = _vertex_images(m, "undirected morphism")
    if not rep.ok:
        return rep
    for e, f in m.q.items():
        if f not in m.target.edges:
            return ValidationReport(False, "edge image outside target", (e, f))
        image_ends = tuple(sorted({m.p[x] for x in m.source.ends(e)}))
        if image_ends != m.target.ends(f):
            return ValidationReport(False, "endpoint mismatch", (e,))
    return ValidationReport(True)


def simplify(g: DiGraph) -> tuple[DiGraph, GraphMorphism]:
    """Merge parallel edges with equal ordered boundary.

    Returns the simple graph together with the canonical projection, which is
    the identity on vertices.  The representative id kept for each class of
    parallel edges is the lexicographically least member.
    """
    classes: dict[tuple[str, str], str] = {}
    for eid, ends in g.edges.items():  # in id order
        classes.setdefault(ends, eid)
    simple = DiGraph(g.vertices, [(rep, s, t) for (s, t), rep in classes.items()])
    q = {eid: classes[g.ends(eid)] for eid in g.edges}
    rho = GraphMorphism(g, simple, {v: v for v in g.vertices}, q)
    return simple, rho


def excise(g: DiGraph) -> DiGraph:
    """Remove all loops; the vertex set is unchanged."""
    return DiGraph(g.vertices, [(e, s, t) for e, s, t in g.edge_list() if s != t])


def opposite(g: DiGraph) -> DiGraph:
    """Swap source and target of every edge."""
    return DiGraph(g.vertices, [(e, t, s) for e, s, t in g.edge_list()])


def forget(g: DiGraph) -> UndirectedGraph:
    """Drop edge directions, keeping ids; a directed loop becomes an undirected loop."""
    return UndirectedGraph(g.vertices, [(e, (s, t)) for e, s, t in g.edge_list()])


def bidirect_edge_id(eid: str, x: str, y: str) -> str:
    return f"{eid}:{x}>{y}"


def bidirect(h: UndirectedGraph) -> DiGraph:
    """Orient every non-loop edge both ways; loops stay single directed loops."""
    edges = []
    for eid, ends in h.edges.items():
        x, y = ends[0], ends[-1]  # a loop has one end
        edges.append((bidirect_edge_id(eid, x, y), x, y))
        if x != y:
            edges.append((bidirect_edge_id(eid, y, x), y, x))
    return DiGraph(h.vertices, edges)


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def pullback(
    phi: GraphMorphism, psi: GraphMorphism
) -> tuple[DiGraph, GraphMorphism, GraphMorphism]:
    """Fibre product of phi and psi over their common target.

    Both must be morphisms (DomainError otherwise).  Vertices are pairs with
    equal image, edges are edge pairs with equal image, each in the order of
    phi's id and then psi's; the returned morphisms are the two projections.
    """
    if phi.target != psi.target:
        raise DomainError("pullback requires morphisms with the same target")
    for m in (phi, psi):
        rep = validate_morphism(m)
        if not rep.ok:
            raise DomainError(f"pullback of an invalid morphism: {rep.reason} at {rep.witness}")

    def fibre_pairs(xs, fx: Mapping[str, str], ys, fy: Mapping[str, str]) -> list[tuple[str, str]]:
        fibres: dict[str, list[str]] = {}  # each image's preimages under fy, in the order of ys
        for y in ys:
            fibres.setdefault(fy[y], []).append(y)
        return [(x, y) for x in xs for y in fibres.get(fx[x], ())]

    vs = fibre_pairs(phi.source.vertices, phi.p, psi.source.vertices, psi.p)
    es = fibre_pairs(phi.source.edges, phi.q, psi.source.edges, psi.q)
    vertex_ids = [pair_id(u, v) for u, v in vs]
    if len(set(vertex_ids)) != len(vertex_ids):
        raise DomainError("pullback pair ids collide; rename vertices without ',' or '()'")
    s1, s2 = phi.source, psi.source
    g = DiGraph(vertex_ids, [(pair_id(e, f), pair_id(s1.src(e), s2.src(f)),
                              pair_id(s1.dst(e), s2.dst(f))) for e, f in es])
    pi1, pi2 = (
        GraphMorphism(g, m.source, {pair_id(*v): v[k] for v in vs}, {pair_id(*e): e[k] for e in es})
        for k, m in enumerate((phi, psi))
    )
    return g, pi1, pi2


def _closure(starts: Iterable, step: Callable[[Any], Iterable]) -> frozenset:
    """Everything reached from starts by repeated steps, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _adjacency(n: int, pairs) -> list[list[int]]:
    """Each vertex's neighbours along the pairs of 0..n-1, taken both ways."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    return adjacent


def _component_of(n: int, pairs) -> list[int]:
    """Each vertex of 0..n-1 named by the least vertex of its component
    along the pairs."""
    adjacent, label = _adjacency(n, pairs), [-1] * n
    for v in range(n):
        if label[v] < 0:
            for x in _closure([v], adjacent.__getitem__):
                label[x] = v
    return label


def ancestors(g: DiGraph, w: str) -> frozenset[str]:
    """All vertices with a walk to w, including w itself."""
    return _closure([w], lambda x: map(g.src, g.in_edges(x)))


def descendants(g: DiGraph, v: str) -> frozenset[str]:
    return _closure([v], lambda x: map(g.dst, g.out_edges(x)))


@dataclass(frozen=True)
class ReachabilityReport:
    pr: dict[str, frozenset[str]]
    reachable_vertices: frozenset[str]
    co_reachable_vertices: frozenset[str]


def reachability(g: DiGraph) -> ReachabilityReport:
    """Ancestor sets, plus the vertices reachable from (or co-reachable to) all."""
    allv = set(g.vertices)
    pr = {w: ancestors(g, w) for w in g.vertices}
    reach = frozenset(w for w in g.vertices if pr[w] == allv)
    co = frozenset(v for v in g.vertices if descendants(g, v) == allv)
    return ReachabilityReport(pr, reach, co)


def weakly_connected(g: DiGraph) -> bool:
    view = g.int_view
    return len(set(_component_of(len(g.vertices), zip(view.sources, view.targets)))) <= 1


def strongly_connected_components(g: DiGraph) -> list[frozenset[str]]:
    """Tarjan's algorithm over the integer view with an explicit stack; the
    components come in reverse topological order.  A vertex whose component
    is done takes index n, so that it lowers no other vertex's low link."""
    view = g.int_view
    n = len(g.vertices)
    index, low = [-1] * n, [0] * n
    stack, work, comps = [], [], []  # work: (vertex, iterator over its out-edges)
    clock = count()

    def visit(v: int) -> None:
        index[v] = low[v] = next(clock)
        stack.append(v)
        work.append((v, iter(view.outs[v])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            v, edges = work[-1]
            for e in edges:
                w = view.targets[e]
                if index[w] < 0:
                    visit(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = n
                    comps.append(frozenset(g.vertices[x] for x in comp))
    return comps


def contract_cycle(g: DiGraph, cycle: DirectedCycle) -> DiGraph:
    """Collapse a directed cycle to a fresh vertex.

    Cycle edges are deleted; every other edge incident to a cycle vertex is
    re-attached to the fresh vertex, keeping multiplicity.  The fresh vertex
    id joins the contracted vertex ids with "+".
    """
    es = cycle.edges
    if not es:
        raise DomainError("cycle must contain at least one edge")
    if len(set(es)) != len(es):
        raise DomainError("cycle edges must be pairwise distinct")
    for e in es:
        if e not in g.edges:
            raise DomainError(f"cycle edge {e!r} not in graph")
    for i, e in enumerate(es):
        nxt = es[(i + 1) % len(es)]
        if g.dst(e) != g.src(nxt):
            raise DomainError(f"edges {e!r} and {nxt!r} are not consecutive in a cycle")
    cyc_vertices = {g.src(e) for e in es} | {g.dst(e) for e in es}
    fresh = "+".join(sorted(cyc_vertices))
    others = [v for v in g.vertices if v not in cyc_vertices]
    while fresh in others:
        fresh += "'"
    cyc_edge_set = set(es)
    new_edges = [(e, *(fresh if x in cyc_vertices else x for x in ends))
                 for e, ends in g.edges.items() if e not in cyc_edge_set]
    return DiGraph(others + [fresh], new_edges)


def subgraph(g: DiGraph, vertices: Iterable[str], edges: Iterable[str]) -> DiGraph:
    """Restriction to the given vertices and edges; edges survive only when
    their endpoints are both kept."""
    vs, es = set(vertices), set(edges)
    unknown_v, unknown_e = vs - set(g.vertices), es - g.edges.keys()
    if unknown_v or unknown_e:
        raise DomainError(
            f"subgraph selects unknown items: {sorted(unknown_v)[:3]} {sorted(unknown_e)[:3]}"
        )
    return DiGraph(vs, [(e, s, t) for e, s, t in g.edge_list() if e in es and s in vs and t in vs])

