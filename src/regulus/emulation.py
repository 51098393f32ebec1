"""Directed emulator and cover predicates, cover extraction, excision
extension, undirected (Fellows-style) emulators, bidirection transfers, and a
bounded search for directed covers under a genus bound.

A directed emulator sends outgoing edges at each vertex surjectively onto the
outgoing edges at its image; a directed cover does so bijectively.
"""

from __future__ import annotations

import math
import time as _time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, count
from operator import add

from .digraph import (
    DiGraph,
    GraphMorphism,
    UndirectedGraph,
    UndirectedMorphism,
    ValidationReport,
    _adjacency,
    _closure,
    _star_lifts,
    bidirect,
    bidirect_edge_id,
    excise,
    forget,
    simplify,
    strongly_connected_components,
    subgraph,
    validate_morphism,
    validate_undirected_morphism,
)
from .errors import BudgetError, DomainError, PreconditionError
from .genus import (
    GenusResult,
    RotationSystem,
    _girth,
    _lr_planar,
    _support,
    genus_exact,
    is_planar,
    trace_faces,
)


def is_directed_emulator(phi: GraphMorphism) -> ValidationReport:
    """Surjective on vertices, with every outgoing edge of the target lifting
    through every preimage of its source vertex."""
    return phi._emulator


def is_directed_cover(phi: GraphMorphism) -> ValidationReport:
    """A directed emulator whose lifts are unique: outgoing stars map
    bijectively."""
    return phi._cover


def extract_cover(phi: GraphMorphism) -> GraphMorphism:
    """Drop surplus lifts from a directed emulator to obtain a directed cover
    on the same vertex set.

    At each source vertex, for each outgoing target edge, the lift with the
    least edge id is kept, so exactly one lift per pair: a cover.
    """
    rep = is_directed_emulator(phi)
    if not rep.ok:
        raise DomainError(f"not a directed emulator: {rep.reason} at {rep.witness}")
    keep: dict[tuple[str, str], str] = {}
    for e in phi.source.edges:  # in id order
        keep.setdefault((phi.source.src(e), phi.q[e]), e)
    kept_edges = set(keep.values())
    sub = subgraph(phi.source, phi.source.vertices, kept_edges)
    return GraphMorphism(sub, phi.target, dict(phi.p), {e: phi.q[e] for e in kept_edges})


def extend_over_excision(psi: GraphMorphism, h: DiGraph) -> GraphMorphism:
    """Extend a cover (or emulator) of Exc(h) to one of h by re-creating one
    loop per (loop of h, fibre vertex over its base point)."""
    if psi.target != excise(h):
        raise DomainError("target of the morphism is not the excision of the given graph")
    loops = [e for e in h.edges if h.is_loop(e)]
    new_edges = psi.source.edge_list()
    q = dict(psi.q)
    existing = set(psi.source.edges)
    for e in loops:
        base = h.src(e)
        for x in sorted(v for v, w in psi.p.items() if w == base):
            nid = f"{e}@{x}"
            while nid in existing:
                nid += "'"
            existing.add(nid)
            new_edges.append((nid, x, x))
            q[nid] = e
    total = DiGraph(psi.source.vertices, new_edges)
    return GraphMorphism(total, h, dict(psi.p), q)


def _undirected_lifts(phi: UndirectedMorphism, cover: bool) -> ValidationReport:
    base = validate_undirected_morphism(phi)
    if not base.ok:
        raise DomainError(f"invalid undirected morphism: {base.reason}")
    if not phi.is_surjective():
        return ValidationReport(False, "not an epimorphism")
    stars = []  # each (edge, end) pair of the source and of the target, as positions
    for h in (phi.source, phi.target):
        at = dict(zip(h.vertices, count()))
        stars.append([(j, at[x]) for j, ends in enumerate(h.edges.values()) for x in ends])
    return _star_lifts(phi, stars, cover, "missing lift")


def is_undirected_emulator(phi: UndirectedMorphism) -> ValidationReport:
    """Fellows-style emulator: epimorphism with an incident lift of every
    edge at every preimage of each of its endpoints."""
    return _undirected_lifts(phi, False)


def is_undirected_cover(phi: UndirectedMorphism) -> ValidationReport:
    return _undirected_lifts(phi, True)


def adjunction_transfer(phi: GraphMorphism, h: UndirectedGraph) -> UndirectedMorphism:
    """Turn a directed morphism into the bidirection of h into an undirected
    morphism out of the forgotten source (drop the orientation component of
    each image edge)."""
    double = bidirect(h)
    if phi.target != double:
        raise DomainError("morphism target is not the bidirection of the given graph")
    first_of = {bidirect_edge_id(eid, x, y): eid for eid, ends in h.edges.items()
                for x, y in ((ends[0], ends[-1]), (ends[-1], ends[0]))}  # a loop has one end
    q = {e: first_of[f] for e, f in phi.q.items()}
    out = UndirectedMorphism(forget(phi.source), h, dict(phi.p), q)
    check = validate_undirected_morphism(out)
    if not check.ok:
        raise DomainError(f"transfer produced an invalid morphism: {check.reason}")
    return out


def adjunction_inverse(psi: UndirectedMorphism, g: DiGraph) -> GraphMorphism:
    """Inverse transfer: reconstruct the directed morphism g -> bidirect(target)
    from an undirected morphism out of forget(g)."""
    if psi.source != forget(g):
        raise DomainError("undirected morphism source is not the forgotten graph")
    double = bidirect(psi.target)
    q = {}
    for e in g.edges:
        s, t = g.ends(e)
        q[e] = bidirect_edge_id(psi.q[e], psi.p[s], psi.p[t])
    out = GraphMorphism(g, double, dict(psi.p), q)
    check = validate_morphism(out)
    if not check.ok:
        raise DomainError(f"inverse transfer invalid: {check.reason}")
    return out


def lift_direction(phi: UndirectedMorphism, direction: DiGraph) -> GraphMorphism:
    """Lift an undirected emulator over a loopless graph to a directed
    emulator onto a chosen direction of the base.  Each edge is oriented as
    its image is, so each lift at a vertex over an edge's source leaves it."""
    rep = is_undirected_emulator(phi)
    if not rep.ok:
        raise DomainError(f"not an undirected emulator: {rep.reason}")
    base = phi.target
    if any(len(base.ends(e)) == 1 for e in base.edges):
        raise PreconditionError("direction lifting requires a loopless base graph")
    if forget(direction) != base:
        raise DomainError("the given digraph is not a direction of the base graph")
    chosen = {e: direction.ends(e) for e in direction.edges}
    edges = []
    q = {}
    for e, ends in phi.source.edges.items():
        x, y = ends[0], ends[-1]  # a loop has one end
        img = phi.q[e]
        ix, iy = chosen[img]
        if (phi.p[x], phi.p[y]) == (ix, iy):
            edges.append((e, x, y))
        elif (phi.p[y], phi.p[x]) == (ix, iy):
            edges.append((e, y, x))
        else:
            raise DomainError(f"edge {e!r} cannot be oriented over the direction")
        q[e] = img
    lifted = DiGraph(phi.source.vertices, edges)
    return GraphMorphism(lifted, direction, dict(phi.p), q)


def r_image_morphism(phi: GraphMorphism) -> GraphMorphism:
    """Push a morphism through parallel-edge simplification on both sides."""
    rs, rho_s = simplify(phi.source)
    rt, rho_t = simplify(phi.target)
    return GraphMorphism(rs, rt, dict(phi.p), {e: rho_t.q[phi.q[e]] for e in rs.edges})


def excise_restrict(phi: GraphMorphism) -> GraphMorphism:
    """Restrict a morphism to the loopless part: drop source edges whose
    image (or self) is a loop.  Emulators stay emulators."""
    tgt = excise(phi.target)
    keep = [e for e in phi.source.edges
            if not phi.source.is_loop(e) and not phi.target.is_loop(phi.q[e])]
    src = subgraph(phi.source, phi.source.vertices, keep)
    return GraphMorphism(src, tgt, dict(phi.p), {e: phi.q[e] for e in keep})


@dataclass(frozen=True)
class CoverSearchSpec:
    """Bounded instance of the search for a directed cover of low genus."""

    base: DiGraph
    max_fiber: int = 2
    genus_bound: int = 0
    connected_only: bool = True
    time_budget: float = 300.0

    def validate(self):
        if not self.base.vertices:
            raise DomainError("search base must be non-empty")
        if type(self.max_fiber) is not int or self.max_fiber < 1:
            raise DomainError("max_fiber must be an integer of at least 1")
        if type(self.genus_bound) is not int or self.genus_bound < 0:
            raise DomainError("genus_bound must be a non-negative integer")
        if not self.time_budget > 0:
            raise DomainError("time budget must be positive")


@dataclass(frozen=True)
class CoverCertificate:
    """A verified directed cover together with an embedding witnessing its
    genus; the cover runs from the total graph onto the base graph."""

    morphism: GraphMorphism
    genus_witness: RotationSystem
    genus: int

    @property
    def base(self) -> DiGraph:
        return self.morphism.target

    @property
    def total(self) -> DiGraph:
        return self.morphism.source

    def verify(self) -> None:
        rep = is_directed_cover(self.morphism)
        if not rep.ok:
            raise DomainError(f"certificate morphism is not a cover: {rep.reason}")
        _, traced = trace_faces(forget(self.total), self.genus_witness)
        if traced != self.genus:
            raise DomainError(
                f"certificate genus {self.genus} does not match its witness ({traced})"
            )


@dataclass(frozen=True)
class SearchStats:
    """What one cover search did.  Each candidate tried before the deadline,
    enumerated (candidates) or a double cover (double_covers), is counted in
    exactly one of disconnected (enumerated ones only), edge_cut and
    planarity_tests.  A disconnected base under connected_only counts 0."""

    fibre_vectors: int = 0
    candidates: int = 0
    double_covers: int = 0
    disconnected: int = 0
    edge_cut: int = 0
    planarity_tests: int = 0
    genus_exact_calls: int = 0
    undecided: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted" | "budget_exceeded"
    certificate: CoverCertificate | None = None
    stats: SearchStats = SearchStats()


def _fiber_vectors_within_bound(degrees: list[int], max_fiber: int, faces: int, genus_bound: int):
    """Fibre-size vectors in itertools.product order over 1..max_fiber, less
    those whose covers Euler's formula puts above genus_bound.

    A cover with fibre sizes k has V = sum k_v vertices and at least
    E = sum d_v k_v support edges, d being the support degrees, and faces of
    length at least y = faces (3 or 4).  When E >= 2 its genus is at least
    ceil(1 - V/2 + E(y-2)/(2y)), which exceeds n when
    2y + sum k_v ((y-2) d_v - y) > 2yn.  The left side is linear in k,
    so a prefix is cut as soon as its least completion (k_v = 1 where the
    coefficient is >= 0, else max_fiber) breaks the bound with E >= 2.
    A prefix that is kept has a kept completion, so the caller's time check
    runs at least once every n * max_fiber steps.
    """
    n, y = len(degrees), faces
    coef = [(y - 2) * d - y for d in degrees]
    # least value of sum coef*k and of E over the positions i.. of a completion
    least = [0] * (n + 1)
    least_edges = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        least[i] = least[i + 1] + coef[i] * (1 if coef[i] >= 0 else max_fiber)
        least_edges[i] = least_edges[i + 1] + degrees[i]
    limit = 2 * y * genus_bound - 2 * y
    vec: list[int] = []

    def extend(i: int, value: int, edges: int):
        if edges + least_edges[i] >= 2 and value + least[i] > limit:
            return
        if i == n:
            yield tuple(vec)
            return
        for k in range(1, max_fiber + 1):
            vec.append(k)
            yield from extend(i + 1, value + coef[i] * k, edges + degrees[i] * k)
            vec.pop()

    yield from extend(0, 0, 0)


def _assignments(targets: list[str], free: list[bool], sizes: dict[str, int]):
    """Each assignment of a copy of its target to every slot, in product
    order, in which each vertex's copies first appear over its free slots in
    the order 0, 1, 2, ...: a free slot takes a copy its target has shown so
    far or the next one.  An explicit stack walks the slots."""
    n = len(targets)
    shown = dict.fromkeys(sizes, 0)
    combo = [-1] * n  # the copy at each slot, -1 before its first
    before = [0] * n  # shown[target] when the slot was entered
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(combo)
            i -= 1
            continue
        t, j = targets[i], combo[i] + 1
        if not j:
            before[i] = shown[t]
        if j == (min(sizes[t], before[i] + 1) if free[i] else sizes[t]):
            combo[i] = -1
            shown[t] = before[i]
            i -= 1
        else:
            combo[i] = j
            if free[i]:
                shown[t] = max(before[i], j + 1)
            i += 1


def _build_total(base: DiGraph, sizes: dict[str, int], assignment) -> tuple[DiGraph, GraphMorphism]:
    vids = {(v, i): f"{v}#{i}" for v in sizes for i in range(sizes[v])}
    edges = []
    q = {}
    p = {vids[(v, i)]: v for v, i in vids}
    for (eid, i), j in assignment:
        u, w = base.ends(eid)
        nid = f"{eid}#{i}"
        edges.append((nid, vids[(u, i)], vids[(w, j)]))
        q[nid] = eid
    total = DiGraph(list(vids.values()), edges)
    return total, GraphMorphism(total, base, p, q)


def _candidates(spec: CoverSearchSpec, faces: int, early=()):
    """Each fibre vector within the bound as a block ("candidates", sizes,
    slots, assignments, genus bound): the fibre size of each base vertex, the
    (base edge, source fibre vertex) slots, their _assignments, and
    spec.genus_bound.  The Euler cut takes face length `faces`, and d_v counts
    the out-neighbours w != v of v, a 2-cycle {v, w} only at its smaller end:
    each copy of v has a support edge into each such fibre, so a cover has
    at least sum d_v k_v support edges.  The blocks of `early` come before
    the first vector with a fibre above 1: right after the all-ones vector,
    the base itself, or first when the bound cuts that one.

    The slots go vertex by vertex along breadth-first walks over the arcs,
    one from the least vertex of each source strongly connected component,
    in topological order.  A slot is free when its target comes later in
    the walks than its source.  Relabelling each vertex's copies in walk
    order, so that they first appear over its free slots as 0, 1, 2, ...,
    moves no earlier slot, so every cover is isomorphic to an assignment
    kept.  With fibres of at most 2 a cover matches exactly one, up to
    relabelling the copies of each walk's root, which no free slot enters."""
    base, view = spec.base, spec.base.int_view
    arcs = set(zip(view.sources, view.targets))
    owned = Counter(v for v, w in arcs if v < w or (v > w and (w, v) not in arcs))
    degrees = [owned[v] for v in range(len(view.outs))]
    vectors = _fiber_vectors_within_bound(degrees, spec.max_fiber, faces, spec.genus_bound)
    walk: dict[str, int] = {}  # each vertex's place in the walks
    for root in (min(c) for c in reversed(strongly_connected_components(base))):
        frontier = [] if root in walk else [root]
        walk.setdefault(root, len(walk))
        for x in frontier:
            for y in map(base.dst, base.out_edges(x)):
                if y not in walk:
                    walk[y] = len(walk)
                    frontier.append(y)
    for vec in vectors:
        if max(vec) > 1:
            yield from early
            early = ()
        sizes = dict(zip(base.vertices, vec))
        slots = [(eid, i) for v in walk for eid in base.out_edges(v) for i in range(sizes[v])]
        targets = [base.dst(eid) for eid, _ in slots]
        free = [walk[base.dst(eid)] > walk[base.src(eid)] for eid, _ in slots]
        yield "candidates", sizes, slots, _assignments(targets, free, sizes), spec.genus_bound


def _double_covers(base: DiGraph, faces: int):
    """The base's Z2-voltage double covers as one "double_covers" block of the
    enumeration's shape, every fibre 2 and genus bound 0.
    An arc u -> v at copy i goes to copy i ^ s{u, v}, one voltage per support
    pair (loops keep 0).  A breadth-first spanning forest keeps 0, and the
    co-tree voltages run in Gray-code order past all zeros (two copies of the
    base): one lift per switching class, connected when the base is.  None
    is planar when its 2|support| edges are over the cap at face length
    `faces`, exactly when the Euler cut drops the all-2 vector at genus 0."""
    view = base.int_view
    slots, flips = [], {}  # flips: the slots whose copy each pair's voltage moves
    for e in (e for outs in view.outs for e in outs):
        a, b = sorted((view.sources[e], view.targets[e]))
        for i in (0, 1):
            if a != b:
                flips.setdefault((a, b), []).append(len(slots))
            slots.append((view.domain[1][e], i))
    nv = len(view.outs)
    if 2 * len(flips) > _edge_cap(2 * nv, 0, faces):
        return
    adjacent, seen, tree = _adjacency(nv, flips), set(), set()
    for root in range(nv):
        frontier = [] if root in seen else [root]
        seen.add(root)
        for x in frontier:
            for y in set(adjacent[x]) - seen:
                seen.add(y)
                tree.add((x, y) if x < y else (y, x))
                frontier.append(y)
    cotree = [moved for pair, moved in flips.items() if pair not in tree]

    def lifts():
        combo = [i for _, i in slots]
        for t in range(1, 1 << len(cotree)):
            for k in cotree[(t & -t).bit_length() - 1]:
                combo[k] ^= 1
            yield tuple(combo)

    yield "double_covers", dict.fromkeys(base.vertices, 2), slots, lifts(), 0


def _connected(n: int, pairs) -> bool:
    """Whether the vertex pairs join 0..n-1 into one component."""
    return len(_closure([0], _adjacency(n, pairs).__getitem__)) == n


def _face_floor(base: DiGraph) -> int:
    """Least face length of every cover's loopless simple support: 3 when the
    base has a loop or its support a triangle, else 4.  An edge inside one
    fibre lies over a loop, so a triangle in a cover lies over a loop or a
    triangle of the base."""
    loop = any(map(base.is_loop, base.edges))
    return 3 if loop or _girth(len(base.vertices), _support(base).edges) == 3 else 4


def _edge_cap(v: int, n: int, faces: int) -> float:
    """Most edges a simple graph on v vertices with faces of length at least
    `faces` (3, or 4 when triangle-free) can have at genus <= n.

    On v >= 3 vertices Euler's formula gives E <= faces (v - 2 + 2n) /
    (faces - 2).  Bridges joining the components keep the genus and only
    add edges, so the cap holds for disconnected graphs too.
    """
    if v < 3:
        return math.inf
    return faces * (v - 2 + 2 * n) // (faces - 2)


def search_covers(spec: CoverSearchSpec) -> SearchOutcome:
    """Enumerate directed covers of the base with bounded fibres, pruning by
    Euler's formula at the face floor of _face_floor(base), and return the
    first certificate whose exact genus is within the bound.

    Every assignment of one target fibre vertex per (base edge, source fibre
    vertex) yields a cover, and every cover with fibres within the bound
    arises this way.  The blocks of _candidates bring at least one per class
    of fibre relabellings (one, up to the roots' copies, at fibres up to 2),
    so "exhausted" refutes existence within the bounds.  The _double_covers
    lifts come right after the all-ones vector: all-2 covers that the
    enumeration reaches last, which answer only "found", with no genus_exact
    call.  Only this loop reads the clock, once before each candidate, and
    counts each vector and each candidate; then come the steps, on the integer
    vertex pairs of its loopless simple support:
    1. connected (when connected_only), by a closure walk over the pairs,
       for enumerated candidates only.  A cover maps onto the base, so a
       disconnected base answers "exhausted" before any candidate, and on a
       connected one each lift's nonzero co-tree voltage joins its copies;
    2. the edge cut: a support with more edges than _edge_cap allows at the
       face floor is skipped;
    3. the planarity test, _lr_planar.
    Only a planar candidate, or a non-planar one when n > 0, is built as a
    DiGraph, for its certificate or for genus_exact.  Candidates whose genus
    cannot be decided within the rotation budget downgrade "exhausted" to
    "budget_exceeded".  The outcome's stats count what each step did.
    """
    spec.validate()
    base, view = spec.base, spec.base.int_view
    if spec.connected_only and not _connected(len(view.outs), zip(view.sources, view.targets)):
        return SearchOutcome("exhausted")
    deadline = _time.monotonic() + spec.time_budget
    tally: Counter = Counter()
    faces = _face_floor(base)
    blocks = _candidates(spec, faces, _double_covers(base, faces))
    for kind, sizes, slots, assignments, bound in blocks:
        tally["fibre_vectors"] += kind == "candidates"
        start = dict(zip(base.vertices, accumulate(sizes.values(), initial=0)))
        sources = [start[base.src(eid)] + i for eid, i in slots]
        offsets = [start[base.dst(eid)] for eid, _ in slots]
        nverts = sum(sizes.values())
        max_edges = _edge_cap(nverts, bound, faces)
        for combo in assignments:
            if _time.monotonic() > deadline:
                return SearchOutcome("budget_exceeded", stats=SearchStats(**tally))
            tally[kind] += 1
            pairs = {
                (a, b) if a < b else (b, a)
                for a, b in zip(sources, map(add, offsets, combo))
                if a != b
            }
            if kind == "candidates" and spec.connected_only and not _connected(nverts, pairs):
                tally["disconnected"] += 1
                continue
            if len(pairs) > max_edges:
                tally["edge_cut"] += 1
                continue
            tally["planarity_tests"] += 1
            planar = _lr_planar(nverts, pairs) is not None
            if not planar and not bound:
                continue
            total, morphism = _build_total(base, sizes, zip(slots, combo))
            if planar:
                genus_res = GenusResult(0, is_planar(total).witness)
            else:
                tally["genus_exact_calls"] += 1
                try:
                    genus_res = genus_exact(total)
                except BudgetError:
                    tally["undecided"] += 1
                    continue
                if genus_res.genus > bound:
                    continue
            cert = CoverCertificate(morphism, genus_res.witness, genus_res.genus)
            cert.verify()
            return SearchOutcome("found", cert, SearchStats(**tally))
    status = "budget_exceeded" if tally["undecided"] else "exhausted"
    return SearchOutcome(status, stats=SearchStats(**tally))
