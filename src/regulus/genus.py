"""Exact graph genus via rotation systems, planarity, and Euler-style bounds.

A rotation system fixes a cyclic order of edge-ends around every vertex and
thereby an embedding into an orientable closed surface; tracing its faces and
applying Euler's relation gives the genus of that embedding.  The minimum over
all rotation systems is the genus of the graph.  Loops and parallel edges are
handled natively (a loop contributes two ends at its vertex).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from typing import Mapping

import networkx as nx

from .digraph import DiGraph, UndirectedGraph, components, excise, forget, opposite, simplify
from .errors import BudgetError, DomainError, PreconditionError

DEFAULT_ROTATION_BUDGET = 10**9


def rotation_budget() -> int:
    """Rotation-search budget; the REGULUS_BUDGET env var overrides the default."""
    raw = os.environ.get("REGULUS_BUDGET")
    if raw:
        try:
            return int(float(raw))
        except (ValueError, OverflowError):
            raise DomainError(f"REGULUS_BUDGET must be a finite number, got {raw!r}") from None
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
        for v, rot in self.rotations.items():
            if v not in set(g.vertices):
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

    def total_faces(self) -> int:
        return sum(self.counts.values())

    def total_length(self) -> int:
        return sum(i * c for i, c in self.counts.items())


class _Darts:
    """Integer dart tables for one undirected graph."""

    def __init__(self, g: UndirectedGraph):
        self.g = g
        self.tokens: list[str] = []
        self.vertex_of: list[int] = []
        self.vid = {v: i for i, v in enumerate(g.vertices)}
        self.token_index: dict[str, int] = {}
        self.darts_at: list[list[int]] = [[] for _ in g.vertices]
        for eid in g.edges:
            for tok, v in dart_tokens(g, eid):
                d = len(self.tokens)
                self.tokens.append(tok)
                self.vertex_of.append(self.vid[v])
                self.token_index[tok] = d
                self.darts_at[self.vid[v]].append(d)
        # darts were appended pairwise, so twin(2i) = 2i+1
        self.twin = [d ^ 1 for d in range(len(self.tokens))]


def trace_faces(
    g: UndirectedGraph, rot: RotationSystem
) -> tuple[FaceVector, int]:
    """Trace the faces of the embedding given by rot and return its genus.

    Disconnected graphs are traced per component and the genus is summed.
    """
    rot.validate(g)
    tables = _Darts(g)
    nd = len(tables.tokens)
    rot_next = [-1] * nd
    for v, order in rot.rotations.items():
        idx = [tables.token_index[t] for t in order]
        for i, d in enumerate(idx):
            rot_next[d] = idx[(i + 1) % len(idx)]
    next_dart = [rot_next[tables.twin[d]] for d in range(nd)]
    comps = components(g)
    comp_of = {tables.vid[v]: i for i, (comp_vs, _) in enumerate(comps) for v in comp_vs}
    # the rotation is total, so next_dart is a permutation: walk each orbit once
    counts: dict[int, int] = {}
    faces = [0] * len(comps)
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
        faces[comp_of[tables.vertex_of[d]]] += 1

    genus = 0
    for (comp_vs, comp_es), fcount in zip(comps, faces):
        if not comp_es:
            continue
        euler = len(comp_vs) - len(comp_es) + fcount
        if euler % 2 != 0:
            raise DomainError("face trace produced an odd Euler characteristic")
        comp_genus = (2 - euler) // 2
        if comp_genus < 0:
            raise DomainError("face trace produced a negative genus")
        genus += comp_genus
    return FaceVector(counts), genus


def undirected_girth(g: UndirectedGraph) -> float:
    """Length of a shortest cycle: loops give 1, parallel edges 2, inf if acyclic."""
    if any(g.is_loop(e) for e in g.edges):
        return 1
    pairs = [g.ends(e) for e in g.edges]
    if len(set(pairs)) < len(pairs):
        return 2
    return nx.girth(nx.Graph(pairs))


def _support(g: UndirectedGraph) -> tuple[UndirectedGraph, dict[tuple[str, str], list[str]]]:
    """Loopless simple support graph plus the grouping of original edges."""
    groups: dict[tuple[str, str], list[str]] = {}
    for e in sorted(g.edges):
        ends = g.ends(e)
        if len(ends) == 1:
            continue
        groups.setdefault(ends, []).append(e)
    support = UndirectedGraph(g.vertices, [(es[0], ends) for ends, es in groups.items()])
    return support, groups


def _nx_support(support: UndirectedGraph):
    """The support as a networkx graph, plus the support edge of each vertex pair."""
    nxg = nx.Graph()
    nxg.add_nodes_from(support.vertices)
    edge_of_pair = {}
    for e in support.edges:
        a, b = support.ends(e)
        nxg.add_edge(a, b)
        edge_of_pair[(a, b)] = e
        edge_of_pair[(b, a)] = e
    return nxg, edge_of_pair


def _planar_embedding_support(support: UndirectedGraph):
    """Rotations of a planar embedding of the support, or None if it has none."""
    nxg, edge_of_pair = _nx_support(support)
    ok, cert = nx.check_planarity(nxg)
    if not ok:
        return None
    rotations = {}
    for v in support.vertices:
        order = []
        for w in cert.neighbors_cw_order(v) if nxg.degree(v) else []:
            e = edge_of_pair[(v, w)]
            a, _ = support.ends(e)
            order.append(f"{e}+" if a == v else f"{e}-")
        rotations[v] = tuple(order)
    return rotations


def _insert_multiedges_and_loops(
    g: UndirectedGraph, support_rot: dict[str, tuple[str, ...]]
) -> RotationSystem:
    """Extend a rotation system of the support graph to the full multigraph.

    Each extra parallel edge is inserted beside its representative (forming a
    bigon face) and each loop as an adjacent pair of ends (forming a monogon);
    neither insertion changes the genus.
    """
    rot = {v: list(ts) for v, ts in support_rot.items()}
    for v in g.vertices:
        rot.setdefault(v, [])
    _, groups = _support(g)
    for (a, b), group in groups.items():
        rep, extras = group[0], group[1:]
        prev = rep
        for e in extras:
            pa = rot[a].index(f"{prev}+")
            rot[a].insert(pa + 1, f"{e}+")
            pb = rot[b].index(f"{prev}-")
            rot[b].insert(pb, f"{e}-")
            prev = e
    for e in sorted(g.edges):
        ends = g.ends(e)
        if len(ends) == 1:
            rot[ends[0]].extend([f"{e}+", f"{e}-"])
    return RotationSystem({v: tuple(ts) for v, ts in rot.items()})


@dataclass(frozen=True)
class PlanarityReport:
    """Outcome of is_planar; support is the loopless simple graph tested,
    kept for extracting the obstruction."""

    planar: bool
    witness: RotationSystem | None = None
    support: UndirectedGraph | None = field(default=None, repr=False, compare=False)

    @cached_property
    def obstruction(self) -> tuple[str, ...] | None:
        """Support edges of a Kuratowski subgraph of a non-planar graph.

        Extracting it costs dozens of planarity tests, so it is computed on
        first read only.
        """
        if self.planar:
            return None
        nxg, edge_of_pair = _nx_support(self.support)
        _, kuratowski = nx.check_planarity(nxg, counterexample=True)
        return tuple(sorted({edge_of_pair[(a, b)] for a, b in kuratowski.edges()}))


def is_planar(g: DiGraph | UndirectedGraph) -> PlanarityReport:
    """Decide planarity; on success return a genus-0 rotation witness.

    The witness is re-verified by face tracing before being returned.  On
    failure the report's obstruction lists the support edges of a Kuratowski
    subgraph, extracted when first read.
    """
    ug = forget(g) if isinstance(g, DiGraph) else g
    support, _ = _support(ug)
    rotations = _planar_embedding_support(support)
    if rotations is None:
        return PlanarityReport(False, support=support)
    witness = _insert_multiedges_and_loops(ug, rotations)
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
    if len(components(g)) > 1:
        raise PreconditionError("euler lower bound requires a connected graph")
    girth = undirected_girth(g)
    if girth < girth_floor:
        raise PreconditionError(
            f"graph has a cycle of length {girth}, below the stated floor {girth_floor}"
        )
    if girth == math.inf:
        return 0
    v, e = len(g.vertices), len(g.edges)
    bound = Fraction(1) - Fraction(v, 2) + Fraction(e * (girth_floor - 2), 2 * girth_floor)
    return max(0, math.ceil(bound))


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
        if i < 1 or f < 0:
            raise DomainError("face vector entries must have positive length")
        total += Fraction(f) * Fraction(i * (m - 1) - 2 * m, 4 * m)
    return total


@dataclass(frozen=True)
class GenusResult:
    genus: int
    witness: RotationSystem


def _component_budget(degrees: list[int]) -> int:
    prod = 1
    for d in degrees:
        prod *= max(1, math.factorial(max(0, d - 1)))
        if prod > 10**30:
            break
    return prod


def _bfs_vertex_order(nvert: int, darts_at: list[list[int]], twin, vertex_of) -> list[int]:
    degs = [len(darts_at[v]) for v in range(nvert)]
    start = max(range(nvert), key=lambda v: degs[v])
    order = [start]
    placed = {start}
    while len(order) < nvert:
        best, best_key = None, None
        for v in range(nvert):
            if v in placed:
                continue
            attached = sum(
                1 for d in darts_at[v] if vertex_of[twin[d]] in placed
            )
            key = (attached, degs[v])
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def _search_min_genus(
    g: UndirectedGraph, stop_genus: int, budget: float
) -> tuple[int, dict[str, tuple[str, ...]]]:
    """Branch-and-bound over rotation systems of one connected component.

    Maximizes the face count; stops early once an embedding of genus
    stop_genus is found.  Returns the best genus and its rotations.
    """
    tables = _Darts(g)
    nvert = len(g.vertices)
    nd = len(tables.tokens)
    ne = nd // 2
    degrees = [len(ds) for ds in tables.darts_at]
    if _component_budget(degrees) > budget:
        raise BudgetError(
            "rotation search over budget; use euler_lower_bound / is_planar "
            "or raise REGULUS_BUDGET"
        )
    order = _bfs_vertex_order(nvert, tables.darts_at, tables.twin, tables.vertex_of)
    darts_at = tables.darts_at
    # darts at the vertices placed after depth i: each can still close a face
    later_darts = [0] * nvert
    for i in range(nvert - 2, -1, -1):
        later_darts[i] = later_darts[i + 1] + degrees[order[i + 1]]

    # rot_next[d] >= 0 exactly when the vertex of d has its rotation; the face
    # successor of dart d is rot_next[twin(d)], with twin(d) = d ^ 1
    rot_next = [-1] * nd
    vertex_of = tables.vertex_of
    f_stop = 2 - 2 * stop_genus - nvert + ne
    parity = (2 - nvert + ne) % 2

    def returns(v: int) -> dict[int, int]:
        """For each dart t at v, the dart at v whose twin ends the face walk
        from t back at v, or -1 if the walk meets a vertex without rotation.

        The walks leave v and touch no link that v's rotation sets, so one
        trace serves every candidate rotation of v.
        """
        back = {}
        for t in darts_at[v]:
            cur = t
            while cur >= 0 and vertex_of[cur ^ 1] != v:
                cur = rot_next[cur ^ 1]
            back[t] = cur ^ 1 if cur >= 0 else -1
        return back

    def new_faces(rotation: tuple[int, ...], back: dict[int, int]) -> int:
        """Faces closed by giving v this rotation.

        Each gets a link from v's rotation and so passes through v: a face
        entering at the twin of x leaves by the next dart y and comes back at
        back[y].  The faces are the closed cycles of that map; a face closed
        earlier has no link to gain.
        """
        k = len(rotation)
        step = {x: back[rotation[i + 1 - k]] for i, x in enumerate(rotation)}
        count = 0
        while step:
            start, x = step.popitem()
            while x >= 0:
                if x == start:
                    count += 1
                    break
                x = step.pop(x, -1)
        return count

    def candidate_rotations(v: int, first: bool):
        ds = darts_at[v]
        if len(ds) <= 1:
            yield tuple(ds)
            return
        head, rest = ds[0], ds[1:]
        for perm in permutations(rest):
            if first and len(perm) > 1 and perm > tuple(reversed(perm)):
                continue
            yield (head,) + perm

    best_f = -1
    best_rot: list[int] | None = None

    def dfs(depth: int, closed_before: int):
        nonlocal best_f, best_rot
        if best_f >= f_stop:
            return
        if depth == nvert:
            if closed_before > best_f:
                best_f = closed_before
                best_rot = list(rot_next)
            return
        v = order[depth]
        unassigned_darts = later_darts[depth]
        back = returns(v)
        scored = []
        for rotation in candidate_rotations(v, depth == 0):
            closed = closed_before + new_faces(rotation, back)
            upper = closed + unassigned_darts
            upper -= (upper - parity) % 2
            if upper > best_f:
                scored.append((closed, rotation))
        scored.sort(key=lambda t: -t[0])
        for closed, rotation in scored:
            if best_f >= f_stop:
                return
            upper = closed + unassigned_darts
            upper -= (upper - parity) % 2
            if upper > best_f:
                for i, d in enumerate(rotation):
                    rot_next[d] = rotation[i + 1 - len(rotation)]
                dfs(depth + 1, closed)
                for d in rotation:
                    rot_next[d] = -1

    if nd == 0:
        return 0, {v: () for v in g.vertices}
    dfs(0, 0)
    genus = (2 - nvert + ne - best_f) // 2
    rotations: dict[str, tuple[str, ...]] = {}
    for vi, v in enumerate(g.vertices):
        ds = tables.darts_at[vi]
        if not ds:
            rotations[v] = ()
            continue
        seq = [ds[0]]
        while len(seq) < len(ds):
            seq.append(best_rot[seq[-1]])
        rotations[v] = tuple(tables.tokens[d] for d in seq)
    return genus, rotations


def genus_exact(
    g: DiGraph | UndirectedGraph,
    budget: float | None = None,
    normalize: bool = True,
) -> GenusResult:
    """Minimum genus over all rotation systems, with a verifying witness.

    With normalize=True (the default) the search runs on the loopless simple
    support of each component, which has the same genus; loops and parallel
    edges are re-inserted into the witness afterwards.  With normalize=False
    the branch-and-bound treats the multigraph natively.  Components are
    summed.  Refuses inputs whose rotation space exceeds budget (default
    rotation_budget(); math.inf never refuses).
    """
    if budget is None:
        budget = rotation_budget()
    ug = forget(g) if isinstance(g, DiGraph) else g
    total = 0
    rotations: dict[str, tuple[str, ...]] = {}

    for comp_vs, comp_es in components(ug):
        comp = UndirectedGraph(
            comp_vs, [(e, ug.ends(e)) for e in comp_es]
        )
        if not comp_es:
            rotations.update({v: () for v in comp_vs})
            continue
        search_graph = comp
        if normalize:
            search_graph, _ = _support(comp)
        planar = is_planar(comp)
        if planar.planar:
            rotations.update(planar.witness.rotations)
            continue
        girth = undirected_girth(search_graph)
        floor = int(girth) if girth != math.inf else 3
        lb = 1
        if floor >= 3:
            lb = max(1, euler_lower_bound(search_graph, floor))
        comp_genus, comp_rot = _search_min_genus(search_graph, lb, budget)
        if normalize:
            full = _insert_multiedges_and_loops(comp, comp_rot)
            rotations.update(full.rotations)
        else:
            rotations.update(comp_rot)
        total += comp_genus

    witness = RotationSystem(rotations)
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


def genus_invariance_suite(g: DiGraph, budget: int | None = None) -> InvarianceReport:
    """Check that reversal, simplification, excision and direction-forgetting
    all preserve the genus of g.

    Each variant is searched natively (loops and parallel edges kept) so the
    equalities are informative; variants whose native rotation space is over
    budget fall back to the normalized search, which must still agree.
    """

    def measure(graph) -> int:
        try:
            return genus_exact(graph, budget=budget, normalize=False).genus
        except BudgetError:
            return genus_exact(graph, budget=budget, normalize=True).genus

    base = measure(g)
    oppo = measure(opposite(g))
    simp = measure(simplify(g)[0])
    exc = measure(excise(g))
    und = measure(forget(g))
    return InvarianceReport(base, oppo, simp, exc, und)
