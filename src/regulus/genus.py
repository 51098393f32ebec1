"""Exact graph genus via rotation systems, planarity, and Euler-style bounds.

A rotation system fixes a cyclic order of edge-ends around every vertex and
thereby an embedding into an orientable closed surface; tracing its faces and
applying Euler's relation gives the genus of that embedding.  The minimum over
all rotation systems is the genus of the graph.  Only face tracing handles
loops and parallel edges natively (a loop contributes two ends at its
vertex).  The planarity test and the exact genus search both run on the
integer vertex pairs of the loopless simple support, which has the same
genus, and return each vertex's clockwise neighbours; _rotation adds the
parallel edges and loops to build every witness.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, NamedTuple

from .digraph import (
    DiGraph, UndirectedGraph, _adjacency, _component_of, excise, forget, opposite, simplify
)
from .errors import BudgetError, DomainError, PreconditionError

DEFAULT_ROTATION_BUDGET = 10**5


def rotation_budget() -> int:
    """Search nodes (rotation links tried) that one rotation search may use;
    REGULUS_BUDGET, a finite number >= 0, overrides the default."""
    raw = os.environ.get("REGULUS_BUDGET")
    if raw:
        try:
            if float(raw) >= 0:
                return int(float(raw))
        except (ValueError, OverflowError):
            pass
        raise DomainError(f"REGULUS_BUDGET must be a finite number >= 0, got {raw!r}")
    return DEFAULT_ROTATION_BUDGET


def dart_tokens(g: UndirectedGraph, eid: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """The two edge-end tokens of an edge with the vertices carrying them."""
    ends = g.ends(eid)
    if len(ends) == 1:
        return ((f"{eid}+", ends[0]), (f"{eid}-", ends[0]))
    a, b = ends
    return ((f"{eid}+", a), (f"{eid}-", b))


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of edge-end tokens ("e+"/"e-") at every vertex."""

    rotations: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "rotations", {v: tuple(r) for v, r in dict(self.rotations).items()}
        )

    def validate(self, g: UndirectedGraph) -> None:
        expected: dict[str, str] = {}
        for eid in g.edges:
            for tok, v in dart_tokens(g, eid):
                expected[tok] = v
        seen: set[str] = set()
        vertices = set(g.vertices)
        for v, rot in self.rotations.items():
            if v not in vertices:
                raise DomainError(f"rotation given for unknown vertex {v!r}")
            for tok in rot:
                if tok in seen:
                    raise DomainError(f"edge-end {tok!r} appears twice")
                if expected.get(tok) != v:
                    raise DomainError(f"edge-end {tok!r} does not belong at vertex {v!r}")
                seen.add(tok)
        missing = set(expected) - seen
        if missing:
            raise DomainError(f"rotation misses edge-ends {sorted(missing)[:4]}")


@dataclass(frozen=True)
class FaceVector:
    """Counts of faces by boundary length."""

    counts: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))


def trace_faces(
    g: UndirectedGraph, rot: RotationSystem
) -> tuple[FaceVector, int]:
    """Trace the faces of the embedding given by rot and return its genus.

    Disconnected graphs are traced per component and the genus is summed.
    """
    rot.validate(g)
    # dart 2i and its twin 2i + 1 are the two ends of the i-th edge
    vid = {v: i for i, v in enumerate(g.vertices)}
    token_index: dict[str, int] = {}
    vertex_of: list[int] = []
    for eid in g.edges:
        for tok, v in dart_tokens(g, eid):
            token_index[tok] = len(vertex_of)
            vertex_of.append(vid[v])
    nd = len(vertex_of)
    rot_next = [-1] * nd
    for order in rot.rotations.values():
        idx = [token_index[t] for t in order]
        for i, d in enumerate(idx):
            rot_next[d] = idx[(i + 1) % len(idx)]
    next_dart = [rot_next[d ^ 1] for d in range(nd)]
    comp = _component_of(len(vid), zip(vertex_of[::2], vertex_of[1::2]))
    euler = Counter(comp)  # V - E + F of each component, keyed by its least vertex
    euler.subtract(comp[v] for v in vertex_of[::2])
    # the rotation is total, so next_dart is a permutation: walk each orbit once
    counts: dict[int, int] = {}
    visited = bytearray(nd)
    for d in range(nd):
        if visited[d]:
            continue
        length, cur = 0, d
        while not visited[cur]:
            visited[cur] = 1
            length += 1
            cur = next_dart[cur]
        counts[length] = counts.get(length, 0) + 1
        euler[comp[vertex_of[d]]] += 1

    genus = 0
    for c in sorted({comp[v] for v in vertex_of}):  # the components with an edge
        if euler[c] % 2 != 0:
            raise DomainError("face trace produced an odd Euler characteristic")
        comp_genus = (2 - euler[c]) // 2
        if comp_genus < 0:
            raise DomainError("face trace produced a negative genus")
        genus += comp_genus
    return FaceVector(counts), genus


def undirected_girth(g: DiGraph | UndirectedGraph) -> float:
    """Length of a shortest cycle: loops give 1, parallel edges 2, inf if acyclic."""
    if any(g.is_loop(e) for e in g.edges):
        return 1
    support = _support(g)
    return 2 if len(support.edges) < len(g.edges) else _girth(len(g.vertices), support.edges)


def _girth(n: int, pairs) -> float:
    """Girth of the simple graph on 0..n-1 with these pairs as edges, inf if
    acyclic: a breadth-first search from every vertex, in which each non-tree
    edge closes a walk that holds a cycle, a shortest one from its own vertices."""
    adjacent = _adjacency(n, pairs)
    best = math.inf
    for root in range(n):
        dist, parent = {root: 0}, {root: -1}
        frontier = [root]
        # a level-d search closes no walk shorter than 2d + 1
        while frontier and 2 * dist[frontier[0]] + 1 < best:
            nxt = []
            for x in frontier:
                for y in adjacent[x]:
                    if y not in dist:
                        dist[y], parent[y] = dist[x] + 1, x
                        nxt.append(y)
                    elif parent[x] != y and parent[y] != x:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
    return best


class _Support(NamedTuple):
    """A graph's loopless simple support: its vertex ids, and each pair of
    vertex positions joined by an edge, smaller first, mapped to the edges
    joining it in id order; the pairs come in the order of their least edge."""

    vertices: tuple[str, ...]
    edges: dict[tuple[int, int], list[str]]


def _support(g: DiGraph | UndirectedGraph) -> _Support:
    index = {v: i for i, v in enumerate(g.vertices)}
    edges: dict[tuple[int, int], list[str]] = {}
    for e, ends in g.edges.items():
        a, b = index[min(ends)], index[max(ends)]
        if a != b:
            edges.setdefault((a, b), []).append(e)
    return _Support(g.vertices, edges)


def _rotation(g: UndirectedGraph, support: _Support, nbrs) -> RotationSystem:
    """The rotation system of g given by an embedding of its support: pairs
    (vertex, its support neighbours in clockwise order), in the witness's order.

    Each neighbour stands for its pair's edges, in id order at the pair's
    smaller end and reversed at the other, so that each edge bounds a bigon
    face with the one before it; then each loop is appended as an adjacent
    pair of ends, forming a monogon.  Neither changes the genus.
    """
    rot: dict[str, list[str]] = {}
    for v, ws in nbrs:
        toks = rot[support.vertices[v]] = []
        for w in ws:
            es = support.edges[min(v, w), max(v, w)]
            toks += (f"{e}+" for e in es) if v < w else (f"{e}-" for e in reversed(es))
    for e, ends in g.edges.items():
        if len(ends) == 1:
            rot[ends[0]] += (f"{e}+", f"{e}-")
    return RotationSystem(rot)


def _lr_planar(n: int, pairs) -> list[list[int]] | None:
    """A planar embedding of the simple graph on vertices 0..n-1 with the
    given distinct pairs (a, b), a != b, as edges: each vertex's neighbours
    in clockwise order, or None when the graph is not planar.

    The left-right test of de Fraysseix and Rosenstiehl and its embedding
    phase as Brandes writes them ("The Left-Right Planarity Test", 2009), on
    flat lists and in the orders of nx.check_planarity, so both embed alike:
    edges are read by their smaller end, stably, numbered so, and keep the
    orientation the first DFS gives them; a conflict pair is a list [left
    low, left high, right low, right high] of back edges, -1 for none; an
    edge's stack bottom is the stack height when it was reached.  Every DFS
    keeps an explicit stack, so long paths stay within the recursion limit.
    """
    pairs = sorted(pairs, key=min)
    m = len(pairs)
    if n > 2 and m > 3 * n - 6:
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(pairs):
        adj[a].append((b, e))
        adj[b].append((a, e))

    # orientation: heights, the tree edge into each vertex, each edge's two
    # lowest return heights, and its nesting depth
    height = [-1] * n
    parent = [-1] * n
    tail, head = [0] * m, [0] * m
    lowpt, lowpt2, depth = [0] * m, [0] * m, [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    oriented = bytearray(m)
    nxt = [0] * n
    roots = []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            if nxt[v] < len(adj[v]):
                w, e = adj[v][nxt[v]]
                nxt[v] += 1
                if oriented[e]:
                    continue
                oriented[e] = 1
                tail[e], head[e] = v, w
                out[v].append(e)
                lowpt[e] = lowpt2[e] = height[v]
                if height[w] < 0:
                    parent[w] = e
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[e] = height[w]
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                v = tail[e]
            # e, leaving v, is done: set its depth and pass its return
            # heights to the tree edge into v
            depth[e] = 2 * lowpt[e] + (lowpt2[e] < height[v])
            f = parent[v]
            if f >= 0:
                if lowpt[e] < lowpt[f]:
                    lowpt2[f] = min(lowpt[f], lowpt2[e])
                    lowpt[f] = lowpt[e]
                elif lowpt[e] > lowpt[f]:
                    lowpt2[f] = min(lowpt2[f], lowpt[e])
                else:
                    lowpt2[f] = min(lowpt2[f], lowpt2[e])

    # testing: a DFS over each vertex's edges in nesting order
    ordered = [sorted(es, key=depth.__getitem__) for es in out]
    # one spare slot, so that ref[-1] (an interval with no low end) is a sink;
    # side[e] is -1 where e lies on the other side of ref[e]
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [0] * m
    bottom = [0] * m
    pairs_stack: list[list[int]] = []

    def conflicting(p: list[int], at: int, b: int) -> bool:
        # whether the interval at p[at:at + 2] is non-empty and has a
        # return edge above b's lowest
        return (p[at] >= 0 or p[at + 1] >= 0) and lowpt[p[at + 1]] > lowpt[b]

    def lowest(p: list[int]) -> int:
        if p[0] < 0 and p[1] < 0:
            return lowpt[p[2]]
        if p[2] < 0 and p[3] < 0:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into p's right interval
        while True:
            q = pairs_stack.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] >= 0 or q[1] >= 0:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            if len(pairs_stack) == bottom[ei]:
                break
        # merge the conflicting return edges of ei's earlier siblings into
        # p's left interval
        while True:
            top = pairs_stack[-1]
            if not (conflicting(top, 0, ei) or conflicting(top, 2, ei)):
                break
            q = pairs_stack.pop()
            if conflicting(q, 2, ei):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q, 2, ei):
                return False
            ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[0] >= 0 or p[1] >= 0 or p[2] >= 0 or p[3] >= 0:
            pairs_stack.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        while pairs_stack and lowest(pairs_stack[-1]) == height[u]:
            p = pairs_stack.pop()
            if p[0] >= 0:
                side[p[0]] = -1
        if pairs_stack:
            p = pairs_stack[-1]
            # trim each interval's high end past the back edges into u, the
            # left one first; an emptied interval refers to the other's low
            for low, high, other in ((0, 1, 2), (2, 3, 0)):
                while p[high] >= 0 and head[p[high]] == u:
                    p[high] = ref[p[high]]
                if p[high] < 0 and p[low] >= 0:
                    ref[p[low]] = p[other]
                    side[p[low]] = -1
                    p[low] = -1
        # e takes the side of a highest return edge
        if lowpt[e] < height[u]:
            hl, hr = pairs_stack[-1][1], pairs_stack[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr

    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            es = ordered[v]
            i = nxt[v]
            if i < len(es):
                ei = es[i]
                nxt[v] = i + 1
                bottom[ei] = len(pairs_stack)
                if parent[head[ei]] == ei:
                    stack.append(head[ei])
                    continue
                lowpt_edge[ei] = ei
                pairs_stack.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                remove_back_edges(ei)
                v = tail[ei]
                i = nxt[v] - 1
            # integrate the return edges of ei, the i-th edge out of v
            if lowpt[ei] < height[v]:
                if i == 0:
                    lowpt_edge[parent[v]] = lowpt_edge[ei]
                elif not add_constraints(ei, parent[v]):
                    return None

    # embedding: resolve each side along its ref chain, sign the nesting
    # depths and re-sort each vertex's out-edges by them
    for e in range(m):
        chain = [e]
        while ref[chain[-1]] >= 0:
            chain.append(ref[chain[-1]])
        for f in reversed(chain[:-1]):
            side[f] *= side[ref[f]]
            ref[f] = -1
        depth[e] *= side[e]
    ordered = [sorted(es, key=depth.__getitem__) for es in out]

    # each vertex's neighbours clockwise from its leftmost one: out-edges'
    # heads, then by a DFS each edge's tail at its head; a tail put just
    # before the leftmost neighbour becomes the leftmost
    rotations = [[head[e] for e in es] for es in ordered]
    left_ref, right_ref = [0] * n, [0] * n
    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            es = ordered[v]
            while nxt[v] < len(es):
                e = es[nxt[v]]
                nxt[v] += 1
                w = head[e]
                rot = rotations[w]
                if parent[w] == e:
                    rot.insert(0, v)
                    left_ref[v] = right_ref[v] = w
                    stack += (v, w)
                    break
                if side[e] == 1:
                    rot.insert(rot.index(right_ref[w]) + 1, v)
                else:
                    rot.insert(rot.index(left_ref[w]), v)
                    left_ref[w] = v
    return rotations


@dataclass(frozen=True)
class PlanarityReport:
    """Outcome of is_planar; support is the loopless simple graph tested,
    kept for extracting the obstruction."""

    planar: bool
    witness: RotationSystem | None = None
    support: _Support | None = field(default=None, repr=False, compare=False)

    @cached_property
    def obstruction(self) -> tuple[str, ...] | None:
        """Support edges of a Kuratowski subgraph of a non-planar graph.

        Each support edge in turn, by smaller end and then in support order
        (as nx.get_counterexample goes), is deleted for good when the graph
        stays non-planar without it: one planarity test per edge, so this
        runs on first read only.
        """
        if self.planar:
            return None
        n, edges = len(self.support.vertices), self.support.edges
        pairs = list(edges)
        kept = bytearray([1]) * len(pairs)
        for i in sorted(range(len(pairs)), key=lambda i: pairs[i][0]):
            kept[i] = 0
            kept[i] = _lr_planar(n, [p for p, k in zip(pairs, kept) if k]) is not None
        return tuple(sorted(edges[p][0] for p, k in zip(pairs, kept) if k))


def is_planar(g: DiGraph | UndirectedGraph) -> PlanarityReport:
    """Decide planarity; on success return a genus-0 rotation witness.

    The witness is re-verified by face tracing before being returned.  On
    failure the report's obstruction lists the support edges of a Kuratowski
    subgraph, extracted when first read.
    """
    support = _support(g)
    nbrs = _lr_planar(len(support.vertices), support.edges)
    if nbrs is None:
        return PlanarityReport(False, support=support)
    ug = forget(g) if isinstance(g, DiGraph) else g
    witness = _rotation(ug, support, enumerate(nbrs))
    _, genus = trace_faces(ug, witness)
    if genus != 0:
        raise DomainError("planar witness failed verification")
    return PlanarityReport(True, witness=witness)


def euler_lower_bound(g: UndirectedGraph, girth_floor: int = 3) -> int:
    """Sound genus lower bound ceil(1 - V/2 + E(y-2)/(2y)) for girth >= y >= 3.

    The graph must be connected and contain no cycle shorter than girth_floor
    (verified).  Acyclic graphs return 0.
    """
    if girth_floor < 3:
        raise DomainError("girth_floor must be at least 3")
    if len(set(_component_of(len(g.vertices), _support(g).edges))) > 1:
        raise PreconditionError("euler lower bound requires a connected graph")
    girth = undirected_girth(g)
    if girth < girth_floor:
        raise PreconditionError(
            f"graph has a cycle of length {girth}, below the stated floor {girth_floor}"
        )
    if girth == math.inf:
        return 0
    return _euler_bound(len(g.vertices), len(g.edges), girth_floor)


def _euler_bound(v: int, e: int, girth: int) -> int:
    """ceil(1 - V/2 + E(y-2)/(2y)), at least 0, for girth y >= 3."""
    return max(0, math.ceil(1 - Fraction(v, 2) + Fraction(e * (girth - 2), 2 * girth)))


def genus_formula(m: int, faces: FaceVector | Mapping[int, int]) -> Fraction:
    """Genus of an embedding of a graph with uniform outdegree m from its face counts.

    Evaluates 1 + sum_i f_i * (i(m-1) - 2m) / (4m); for any actual embedding of
    such a graph this equals the traced genus.
    """
    if m < 1:
        raise DomainError("letter count m must be at least 1")
    counts = faces.counts if isinstance(faces, FaceVector) else faces
    total = Fraction(1)
    for i, f in counts.items():
        if i < 1:
            raise DomainError(f"face length {i} is below 1")
        if f < 0:
            raise DomainError(f"face count {f} for length {i} is negative")
        total += Fraction(f) * Fraction(i * (m - 1) - 2 * m, 4 * m)
    return total


@dataclass(frozen=True)
class GenusResult:
    genus: int
    witness: RotationSystem


def _bfs_vertex_order(vertex_of: list[int], darts_at: list[list[int]]) -> list[int]:
    # a vertex of highest degree, then greedily the one with the most
    # neighbours placed and then the highest degree, the first one on ties
    degs = [len(ds) for ds in darts_at]
    order = [max(range(len(degs)), key=degs.__getitem__)]
    placed = set(order)
    while len(order) < len(degs):
        best = max(
            (v for v in range(len(degs)) if v not in placed),
            key=lambda v: (sum(vertex_of[d ^ 1] in placed for d in darts_at[v]), degs[v]),
        )
        order.append(best)
        placed.add(best)
    return order


class _OverBudget(Exception):
    """A decision ran out of search nodes after trying `nodes` links."""

    def __init__(self, nodes: int):
        self.nodes = nodes


def _decide_faces(
    vertex_of: list[int], darts_at: list[list[int]], order: list[int], need: int,
    girth: float, nodes_left: float,
) -> tuple[list[int] | None, int, int]:
    """Search for a rotation system of a connected, loopless, simple graph
    with at least `need` faces; `girth` is the graph's girth.  Dart d lies
    at vertex vertex_of[d], its twin is d ^ 1, and darts_at lists each
    vertex's darts.

    Every face holds a cycle and so is at least `girth` long, unless the
    graph is a tree and has one face.  The search links the darts at each
    vertex into its rotation, one dart at a time, vertex by vertex in
    `order`.

    Setting rot_next[a] = b appends b to the face walk that ends at twin(a).
    Each open walk keeps its two end darts in `end` (each pointing at the
    other) and its length at both ends, so a link and its undo are O(1).
    Every face still to close contains an open walk.  With R darts in open
    walks and `excess` the sum of max(0, L + c - girth) over them, c = 1
    when a walk ends at another vertex than it starts and so needs a further
    walk to close, a branch is cut once

        closed + min(open walks, (R - excess) // girth) < need.

    Returns (rot_next, faces, nodes), rot_next None when no rotation system
    has `need` faces; raises _OverBudget after `nodes_left` links.
    """
    nd = len(vertex_of)
    # on a tree girth 1 makes the length term the count of open walks
    y = 1 if girth == math.inf else int(girth)
    far = 1 if y >= 2 else 0
    rot_next = [-1] * nd
    end = list(range(nd))
    length = [1] * nd
    placed = bytearray(nd)
    closed = used = excess = 0
    walks = nd

    def link(a: int, b: int) -> tuple:
        """Set rot_next[a] = b; returns what unlinking needs."""
        nonlocal closed, used, excess, walks
        before = excess
        rot_next[a] = b
        placed[b] = 1
        walks -= 1
        x = a ^ 1
        s = end[x]
        lx = length[x]
        if s == b:
            closed += 1
            used += lx
            excess -= max(0, lx - y)
            return (a, b, -1, -1, lx, 0, before)
        t = end[b]
        lb = length[b]
        end[s] = t
        end[t] = s
        length[s] = length[t] = lx + lb
        excess += (
            max(0, lx + lb + (far if vertex_of[s] != vertex_of[t ^ 1] else 0) - y)
            - max(0, lx + (far if vertex_of[s] != vertex_of[a] else 0) - y)
            - max(0, lb + (far if vertex_of[b] != vertex_of[t ^ 1] else 0) - y)
        )
        return (a, b, s, t, lx, lb, before)

    def unlink(rec: tuple) -> None:
        nonlocal closed, used, excess, walks
        a, b, s, t, lx, lb, excess = rec
        rot_next[a] = -1
        placed[b] = 0
        walks += 1
        if s < 0:
            closed -= 1
            used -= lx
        else:
            end[s] = a ^ 1
            end[t] = b
            length[s] = lx
            length[t] = lb

    # frame i makes the i-th link: (darts of its vertex, position)
    frames = [(darts_at[v], p) for v in order for p in range(len(darts_at[v]))]
    nframes = len(frames)
    src = [0] * nframes
    options: list[list[int]] = [[] for _ in range(nframes)]
    tried = [0] * nframes
    undo: list[tuple] = [()] * nframes
    nodes = 0

    def candidates(i: int) -> list[int]:
        darts, p = frames[i]
        a = src[i]
        if p == len(darts) - 1:
            # mirror symmetry: reversing every rotation keeps the faces, so
            # at the first vertex keep the order whose second dart is
            # smaller than its last
            if i == p and p >= 2 and a < src[1]:
                return []
            return [darts[0]]
        x = a ^ 1
        s = end[x]
        lx = length[x]
        home = vertex_of[s]
        # links that close a face first, the shortest first; then those
        # that leave the shortest walk, preferring one that can close itself
        keyed = []
        for b in darts:
            if b != darts[0] and not placed[b]:
                if b == s:
                    key = lx
                else:
                    key = nd + lx + length[b] + (vertex_of[end[b] ^ 1] != home)
                keyed.append((key, b))
        keyed.sort()
        return [b for _, b in keyed]

    i = 0
    src[0] = frames[0][0][0]
    options[0] = candidates(0)
    while i >= 0:
        if undo[i]:
            unlink(undo[i])
            undo[i] = ()
        opts = options[i]
        k = tried[i]
        if k == len(opts):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = k + 1
        b = opts[k]
        if nodes >= nodes_left:
            raise _OverBudget(nodes)
        nodes += 1
        undo[i] = link(src[i], b)
        room = (nd - used - excess) // y
        if closed + (walks if walks < room else room) < need:
            continue
        i += 1
        if i == nframes:
            return rot_next, closed, nodes
        darts, p = frames[i]
        src[i] = darts[0] if p == 0 else b
        options[i] = candidates(i)
    return None, closed, nodes


def _search_min_genus(
    nvert: int, pairs, girth: float, stop_genus: int, budget: float
) -> tuple[int, list[list[int]]]:
    """Least genus >= stop_genus of a connected simple graph on 0..nvert-1 with
    the given pairs (a, b), a < b, as edges, and each vertex's clockwise
    neighbours in an embedding of that genus.

    Decides "genus <= n" for n = n0, n0 + 1, ... until a rotation system is
    found, where n0 is the larger of stop_genus and the Euler bound for the
    girth the caller passes in; the caller vouches that no genus below
    stop_genus exists.  budget bounds the search nodes (links tried) over all
    the decisions; past it BudgetError names the nodes explored and the
    highest genus refuted.
    """
    # dart 2e is the e-th pair's end at its smaller vertex, 2e + 1 the other
    # end; each vertex lists its darts in pair order
    vertex_of = [x for pair in pairs for x in pair]
    darts_at: list[list[int]] = [[] for _ in range(nvert)]
    for d, v in enumerate(vertex_of):
        darts_at[v].append(d)
    nd = len(vertex_of)
    if nd == 0:
        return 0, darts_at
    n, spent = stop_genus, 0
    if girth < math.inf:
        n = max(n, _euler_bound(nvert, nd // 2, int(girth)))
    order = _bfs_vertex_order(vertex_of, darts_at)
    while True:
        try:
            rot_next, faces, nodes = _decide_faces(
                vertex_of, darts_at, order, 2 - 2 * n - nvert + nd // 2, girth, budget - spent
            )
        except _OverBudget as over:
            # the caller and the Euler bound vouch for every genus below n0
            refuted = f"genus {n - 1} refuted" if n > 0 else "no genus refuted"
            raise BudgetError(
                f"rotation search over budget after {spent + over.nodes} nodes: "
                f"{refuted}, genus {n} undecided; raise REGULUS_BUDGET"
            ) from None
        spent += nodes
        if rot_next is not None:
            break
        n += 1
    genus = (2 - nvert + nd // 2 - faces) // 2
    nbrs = []
    for ds in darts_at:
        seq = ds[:1]
        while len(seq) < len(ds):
            seq.append(rot_next[seq[-1]])
        nbrs.append([vertex_of[d ^ 1] for d in seq])
    return genus, nbrs


def genus_exact(g: DiGraph | UndirectedGraph, budget: float | None = None) -> GenusResult:
    """Minimum genus over all rotation systems, with a verifying witness.

    Each component is embedded through its loopless simple support, which
    has the same genus; _rotation puts the loops and parallel edges back into
    the witness.  Components are summed.  Each component's search may
    try `budget` rotation links (default rotation_budget(); math.inf never
    refuses) and raises BudgetError past them.
    """
    if budget is None:
        budget = rotation_budget()
    ug = forget(g) if isinstance(g, DiGraph) else g
    support = _support(ug)
    comp = _component_of(len(support.vertices), support.edges)
    members: dict[int, list[int]] = {}  # each component's vertices, by least vertex
    local = []  # each vertex's position in its component
    for v, c in enumerate(comp):
        local.append(len(members.setdefault(c, [])))
        members[c].append(v)
    pairs: dict[int, list[tuple[int, int]]] = {c: [] for c in members}
    for a, b in support.edges:
        pairs[comp[a]].append((local[a], local[b]))
    total = 0
    placed = []  # (vertex, clockwise neighbours), component by component
    for c, vs in members.items():
        n = len(vs)
        nbrs = _lr_planar(n, pairs[c])
        if nbrs is None:
            comp_genus, nbrs = _search_min_genus(n, pairs[c], _girth(n, pairs[c]), 1, budget)
            total += comp_genus
        placed += ((v, [vs[w] for w in ws]) for v, ws in zip(vs, nbrs))

    witness = _rotation(ug, support, placed)
    _, traced = trace_faces(ug, witness)
    if traced != total:
        raise DomainError("genus witness failed re-verification")
    return GenusResult(total, witness)


@dataclass(frozen=True)
class InvarianceReport:
    base: int
    oppo: int
    simplified: int
    excised: int
    undirected: int

    @property
    def ok(self) -> bool:
        vals = {self.base, self.oppo, self.simplified, self.excised, self.undirected}
        return len(vals) == 1


def genus_invariance_suite(g: DiGraph) -> InvarianceReport:
    """Check that reversal, simplification, excision and direction-forgetting
    all preserve the genus of g, each found under the default rotation budget."""

    variants = (g, opposite(g), simplify(g)[0], excise(g), forget(g))
    return InvarianceReport(*(genus_exact(h).genus for h in variants))
