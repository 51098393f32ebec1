"""Seeded inputs for the four benchmark workloads.

`manifest.json` lists every instance, its expected answer and why it is in
its workload; this module turns the manifest and a seed into the inputs the
program receives.  Everything here is plain Python and JSON, so the inputs do
not depend on the code under test.

Run as a script, it is the benchmark's set-up step: it imports `regulus`,
generates one workload's inputs and serializes them into a directory.

    python3 perfbench/workloads.py --workload genus --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
from itertools import combinations_with_replacement, permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
WORKLOADS = ("language", "genus", "relations", "automata")
RELATION_PAIRS = 40


def id_prefix(seed: int) -> str:
    """Tag put in front of every id of a renamed instance; empty for seed 0.

    One prefix for all ids keeps every comparison between two ids, so the
    program sees renamed inputs but takes the same path on every seed.
    """
    if seed == 0:
        return ""
    rng = random.Random(f"prefix/{seed}")
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(4)) + "."


# -- language ------------------------------------------------------------------

def modk_automaton(k: int, letters: list[int]) -> dict:
    """L(k, S): words over S in Z/k whose letter sum is 0 mod k."""
    edges = [
        {"id": f"t{i}_{j}", "src": str(i), "dst": str((i + j) % k), "label": str(j)}
        for i in range(k)
        for j in letters
    ]
    return {
        "vertices": [str(i) for i in range(k)],
        "alphabet": sorted(str(j) for j in letters),
        "edges": edges,
        "initials": ["0"],
        "finals": ["0"],
    }


def corpus_automaton(name: str) -> dict:
    from regulus import corpus, formats

    data = corpus.get(name).payload()
    data.pop("description", None)
    return json.loads(formats.dumps(data))


def rename_automaton(data: dict, prefix: str) -> dict:
    p = prefix.__add__
    return {
        "vertices": [p(v) for v in data["vertices"]],
        "alphabet": [p(x) for x in data["alphabet"]],
        "edges": [
            {"id": p(e["id"]), "src": p(e["src"]), "dst": p(e["dst"]), "label": p(e["label"])}
            for e in data["edges"]
        ],
        "initials": [p(v) for v in data["initials"]],
        "finals": [p(v) for v in data["finals"]],
    }


def language_inputs(seed: int, out: Path) -> list[dict]:
    prefix = id_prefix(seed)
    items = []
    for spec in MANIFEST["language"]["instances"]:
        query = spec["query"]
        if "modk" in query:
            k, letters = query["modk"]
            auto = modk_automaton(k, letters)
        else:
            auto = corpus_automaton(query["corpus"])
        auto = rename_automaton(auto, prefix)
        path = out / f"{spec['id']}.auto.json"
        path.write_text(json.dumps(auto, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        items.append({"id": spec["id"], "file": path.name, "automaton": auto})
    return items


# -- genus ---------------------------------------------------------------------

def graph_edges(spec: dict) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertex ids and undirected edges of a manifest graph description."""
    if "complete" in spec:
        n = spec["complete"]
        vs = [f"v{i:02d}" for i in range(n)]
        return vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    if "bipartite" in spec:
        a, b = spec["bipartite"]
        left = [f"a{i:02d}" for i in range(a)]
        right = [f"b{j:02d}" for j in range(b)]
        return left + right, [(x, y) for x in left for y in right]
    if "petersen" in spec:
        vs = [f"v{i:02d}" for i in range(10)]
        pairs = [(i, (i + 1) % 5) for i in range(5)]
        pairs += [(i, i + 5) for i in range(5)]
        pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return vs, [(vs[i], vs[j]) for i, j in pairs]
    if "lcf" in spec:
        n, shifts, repeats = spec["lcf"]
        vs = [f"v{i:02d}" for i in range(n)]
        pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        for i, s in enumerate(shifts * repeats):
            pairs.add(tuple(sorted((i, (i + s) % n))))
        return vs, [(vs[i], vs[j]) for i, j in sorted(pairs)]
    if "grid" in spec:
        rows, cols = spec["grid"]

        def name(r, c):
            return f"r{r:02d}c{c:02d}"

        vs = [name(r, c) for r in range(rows) for c in range(cols)]
        edges = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
        edges += [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
        return vs, edges
    raise ValueError(f"unknown graph description {spec!r}")


def genus_inputs(seed: int) -> list[dict]:
    prefix = id_prefix(seed)
    items = []
    for spec in MANIFEST["genus"]["instances"]:
        vs, edges = graph_edges(spec["graph"])
        payload = {
            "vertices": [prefix + v for v in vs],
            "edges": [
                {"id": f"{prefix}e{i:04d}", "ends": [prefix + a, prefix + b]}
                for i, (a, b) in enumerate(edges)
            ],
        }
        items.append({"id": spec["id"], "graph": payload})
    return items


# -- relations -----------------------------------------------------------------

def canonical_multidigraphs(max_v: int = 4, max_e: int = 6) -> list[tuple[int, tuple]]:
    """Every multidigraph with at most max_v vertices and max_e edges, one per
    isomorphism class, as (vertex count, sorted tuple of (src, dst) pair
    indices); a multiset is kept when no vertex permutation makes it smaller."""
    out = []
    for n in range(1, max_v + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        index = {p: k for k, p in enumerate(pairs)}
        perm_maps = [
            [index[(perm[i], perm[j])] for i, j in pairs] for perm in permutations(range(n))
        ][1:]
        for k in range(max_e + 1):
            for combo in combinations_with_replacement(range(len(pairs)), k):
                if all(tuple(sorted(pm[c] for c in combo)) >= combo for pm in perm_maps):
                    out.append((n, combo))
    return out


def multidigraph_payload(n: int, combo: tuple, prefix: str) -> dict:
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return {
        "vertices": [f"{prefix}v{i}" for i in range(n)],
        "edges": [
            {"id": f"{prefix}e{m}", "src": f"{prefix}v{pairs[c][0]}", "dst": f"{prefix}v{pairs[c][1]}"}
            for m, c in enumerate(combo)
        ],
    }


def relations_inputs(seed: int) -> list[dict]:
    """The same graphs on every seed: one every 4388/300 places in the
    canonical order, which holds every vertex and edge count in proportion.
    A seeded sample would change the heaviest graphs, and with them the
    tail, from seed to seed.  The seed renames the ids and draws the pairs."""
    graphs = canonical_multidigraphs()
    count = MANIFEST["relations"]["count"]
    prefix = id_prefix(seed)
    items = []
    for k in range(count):
        idx = int((k + 0.5) * len(graphs) / count)
        items.append({"id": f"g{idx}", "graph": multidigraph_payload(*graphs[idx], prefix)})
    return items


def relation_pairs(seed: int, graph_id: str, count: int) -> list[tuple[int, int]]:
    """The seeded join/meet pairs of one graph, as indices into its relations
    sorted by their classes."""
    rng = random.Random(f"pairs/{seed}/{graph_id}")
    return [(rng.randrange(count), rng.randrange(count)) for _ in range(RELATION_PAIRS)]


# -- automata ------------------------------------------------------------------

def unrolled_automaton(
    rng: random.Random, table: list[list[int]], finals: set[int], copies: int
) -> dict:
    """Spread each state of a complete DFA over `copies` states, sending every
    transition to a random copy of its target; keep the part reachable from
    copy 0 of state 0 and shuffle the state names."""
    letters = len(table[0])
    wiring = {
        (q, c, x): rng.randrange(copies)
        for q in range(len(table))
        for c in range(copies)
        for x in range(letters)
    }
    start = (0, 0)
    seen = {start}
    order = [start]
    for q, c in order:
        for x in range(letters):
            nxt = (table[q][x], wiring[(q, c, x)])
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    names = list(range(len(order)))
    rng.shuffle(names)
    name = {s: f"q{names[i]:05d}" for i, s in enumerate(order)}
    alphabet = [string.ascii_lowercase[x] for x in range(letters)]
    edges = []
    for q, c in order:
        for x in range(letters):
            src, dst = name[(q, c)], name[(table[q][x], wiring[(q, c, x)])]
            edges.append({"id": f"{src}.{alphabet[x]}", "src": src, "dst": dst, "label": alphabet[x]})
    return {
        "vertices": sorted(name.values()),
        "alphabet": alphabet,
        "edges": sorted(edges, key=lambda e: e["id"]),
        "initials": [name[start]],
        "finals": sorted(name[s] for s in order if s[0] in finals),
    }


def automata_inputs(seed: int) -> list[dict]:
    items = []
    for spec in MANIFEST["automata"]["instances"]:
        rng = random.Random(f"automata/{seed}/{spec['id']}")
        if "counter" in spec:
            m, copies = spec["counter"]["m"], spec["counter"]["copies"]
            # letter a advances the residue, letter b keeps it
            table = [[(q + 1) % m, q] for q in range(m)]
            finals = {0}
        else:
            n = spec["random_dfa"]["states"]
            letters, copies = spec["random_dfa"]["letters"], spec["random_dfa"]["copies"]
            table = [[rng.randrange(n) for _ in range(letters)] for _ in range(n)]
            finals = {q for q in range(n) if rng.random() < 0.5} or {0}
        auto = unrolled_automaton(rng, table, finals, copies)
        items.append({"id": spec["id"], "text": json.dumps(auto, sort_keys=True)})
    return items


# -- set-up step ---------------------------------------------------------------

def prepare(workload: str, seed: int, out: Path) -> None:
    """Generate one workload's inputs and write them to out/inputs.json."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "language":
        items = language_inputs(seed, out)
    elif workload == "genus":
        items = genus_inputs(seed)
    elif workload == "relations":
        items = relations_inputs(seed)
    elif workload == "automata":
        items = automata_inputs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "inputs.json").write_text(json.dumps(items), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import regulus  # noqa: F401  (its import time is part of set-up)

    prepare(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
