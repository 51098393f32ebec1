"""The benchmark's own reference code for checking answers.

Nothing here imports `regulus`: every check reads the program's output as
plain data (ids, classes, rotations, JSON) and recomputes what it claims.
"""

from __future__ import annotations

import networkx as nx


class WrongAnswer(Exception):
    """The program returned an answer that the reference check refutes."""


# -- face tracing --------------------------------------------------------------

def traced_genus(vertices: list[str], edges: dict[str, tuple[str, str]], rotations) -> int:
    """Genus of the embedding of a loopless undirected graph given by a
    rotation of edge-end tokens: 'e+' at the lesser end of edge e and 'e-'
    at the greater one.  Components are traced separately and summed."""
    home = {}
    for e, (a, b) in edges.items():
        lo, hi = sorted((a, b))
        home[e + "+"], home[e + "-"] = lo, hi
    succ = {}
    for v, order in rotations.items():
        for i, tok in enumerate(order):
            if home.get(tok) != v:
                raise WrongAnswer(f"rotation puts edge-end {tok!r} at vertex {v!r}")
            if tok in succ:
                raise WrongAnswer(f"edge-end {tok!r} appears twice in the rotation")
            succ[tok] = order[(i + 1) % len(order)]
    if set(succ) != set(home):
        raise WrongAnswer("rotation does not list every edge-end exactly once")

    def twin(tok: str) -> str:
        return tok[:-1] + ("-" if tok[-1] == "+" else "+")

    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges.values():
        parent[find(a)] = find(b)
    faces = {}
    seen = set()
    for start in home:
        if start in seen:
            continue
        tok = start
        while tok not in seen:
            seen.add(tok)
            tok = succ[twin(tok)]
        comp = find(home[start])
        faces[comp] = faces.get(comp, 0) + 1
    genus = 0
    for comp, f in faces.items():
        v = sum(1 for x in vertices if find(x) == comp)
        e = sum(1 for a, _ in edges.values() if find(a) == comp)
        euler = v - e + f
        if euler % 2 or euler > 2:
            raise WrongAnswer(f"rotation traces to Euler characteristic {euler}")
        genus += (2 - euler) // 2
    return genus


# -- words ---------------------------------------------------------------------

def _transitions(auto: dict) -> dict[tuple[str, str], set[str]]:
    table: dict[tuple[str, str], set[str]] = {}
    for e in auto["edges"]:
        table.setdefault((e["src"], e["label"]), set()).add(e["dst"])
    return table


def same_words(query: dict, witness: dict, max_words: int = 4096) -> int:
    """Check that two automata in JSON form accept the same words over the
    query's alphabet, for every word up to the longest length whose words
    number at most max_words in total.  Returns the number of words tried."""
    letters = sorted(query["alphabet"])
    if sorted(witness["alphabet"]) != letters:
        raise WrongAnswer("witness alphabet differs from the query's")
    length, total = 0, 1
    while total + len(letters) ** (length + 1) <= max_words:
        length += 1
        total += len(letters) ** length
    (ta, fa), (tb, fb) = ((_transitions(x), set(x["finals"])) for x in (query, witness))
    # depth-first over words, carrying the state sets each side reaches
    stack = [((), frozenset(query["initials"]), frozenset(witness["initials"]))]
    tried = 0
    while stack:
        word, qa, qb = stack.pop()
        tried += 1
        if bool(qa & fa) != bool(qb & fb):
            raise WrongAnswer(f"witness and query disagree on the word {' '.join(word)!r}")
        if len(word) < length:
            for x in letters:
                stack.append((
                    word + (x,),
                    frozenset(t for q in qa for t in ta.get((q, x), ())),
                    frozenset(t for q in qb for t in tb.get((q, x), ())),
                ))
    return tried


def planar(auto: dict) -> bool:
    """networkx's planarity test on the undirected simple graph of an automaton."""
    g = nx.Graph()
    g.add_nodes_from(auto["vertices"])
    g.add_edges_from((e["src"], e["dst"]) for e in auto["edges"] if e["src"] != e["dst"])
    return nx.check_planarity(g)[0]


def minimal_state_count(auto: dict) -> int:
    """States of the minimal complete DFA of a complete DFA in JSON form, by
    Moore's refinement on its accessible part."""
    table = {(e["src"], e["label"]): e["dst"] for e in auto["edges"]}
    letters = sorted(auto["alphabet"])
    (start,) = auto["initials"]
    states = [start]
    seen = {start}
    for q in states:
        for x in letters:
            t = table[(q, x)]
            if t not in seen:
                seen.add(t)
                states.append(t)
    finals = set(auto["finals"])
    block = {q: int(q in finals) for q in states}
    count = len(set(block.values()))
    while True:
        keys = {q: (block[q],) + tuple(block[table[(q, x)]] for x in letters) for q in states}
        ids = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        block = {q: ids[keys[q]] for q in states}
        if len(ids) == count:
            return count
        count = len(ids)


# -- automatic relations -------------------------------------------------------

def class_vector(items: list[str], classes) -> tuple[int, ...]:
    """Class number of every item, in the order of items, with classes
    numbered by their first item; refuses anything that is not a partition
    of items."""
    index = {}
    for i, c in enumerate(classes):
        for x in c:
            if x in index:
                raise WrongAnswer(f"{x!r} lies in two classes")
            index[x] = i
    if set(index) != set(items) or any(not c for c in classes):
        raise WrongAnswer("classes do not partition the underlying set")
    renumber: dict[int, int] = {}
    return tuple(renumber.setdefault(index[x], len(renumber)) for x in items)


class RelationChecker:
    """Compatibility, bisimilarity and the order of automatic relations on
    one digraph, computed on class-index vectors."""

    def __init__(self, vertices: list[str], edges: list[tuple[str, str, str]]):
        self.vertices = list(vertices)
        self.edge_ids = [e for e, _, _ in edges]
        vpos = {v: i for i, v in enumerate(self.vertices)}
        self.src = [vpos[s] for _, s, _ in edges]
        self.dst = [vpos[t] for _, _, t in edges]

    def vectors(self, relation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            class_vector(self.vertices, relation.vertex_classes),
            class_vector(self.edge_ids, relation.edge_classes),
        )

    def is_automatic(self, vv: tuple[int, ...], ev: tuple[int, ...]) -> bool:
        ends = {}
        sources: dict[int, set[int]] = {}
        for k, c in enumerate(ev):
            key = (vv[self.src[k]], vv[self.dst[k]])
            if ends.setdefault(c, key) != key:
                return False  # compatibility: related edges, unrelated ends
            sources.setdefault(c, set()).add(self.src[k])
        for c, srcs in sources.items():
            cls = ends[c][0]
            if any(vv[x] == cls and x not in srcs for x in range(len(vv))):
                return False  # bisimilarity: a related vertex lacks the edge
        return True

    @staticmethod
    def leq(a: tuple, b: tuple) -> bool:
        """a refines b, on both sorts."""
        return all(len(set(zip(x, y))) == len(set(x)) for x, y in zip(a, b))
