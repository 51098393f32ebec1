"""One class per workload: an instance's call into `regulus` (timed) and the
check of its answer (not timed).

`run` goes through the public API by attribute lookup at call time, so the
traced run sees the wrapped functions.  `check` returns True for a verdict
and False for a refusal, and raises `WrongAnswer` for a wrong answer.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import regulus
from regulus import cli, formats

from reference import RelationChecker, WrongAnswer, minimal_state_count, planar, same_words, traced_genus
from workloads import MANIFEST, relation_pairs

BUDGET_EXIT = 2


class LanguageQuery:
    """`regulus genus language` on one automaton file, through `cli.main`."""

    def __init__(self, spec: dict, item: dict, work: Path):
        self.id = spec["id"]
        self.spec = spec
        self.automaton = item["automaton"]
        self.argv = [
            "genus", "language", "--n", str(spec["n"]),
            "--max-fiber", str(spec["max_fiber"]), str(work / item["file"]),
        ]

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> bool:
        code, text = result
        payload = json.loads(text) if text else {}
        if code == BUDGET_EXIT:
            if payload.get("status", "budget_exceeded") != "budget_exceeded":
                raise WrongAnswer(f"{self.id}: exit 2 with status {payload['status']!r}")
            return False
        expect = self.spec["expect"]
        if (code, payload.get("status")) != (expect["exit"], expect["status"]):
            raise WrongAnswer(
                f"{self.id}: exit {code} status {payload.get('status')!r}, "
                f"expected exit {expect['exit']} status {expect['status']!r}"
            )
        if payload["status"] == "yes":
            n = self.spec["n"]
            if payload["witness_genus"] > n:
                raise WrongAnswer(f"{self.id}: witness genus {payload['witness_genus']} > {n}")
            same_words(self.automaton, payload["witness"])
            if n == 0 and not planar(payload["witness"]):
                raise WrongAnswer(f"{self.id}: networkx finds the witness nonplanar")
        return True


class GenusGraph:
    """`genus_exact` on one graph with a genus known from the literature."""

    def __init__(self, spec: dict, item: dict):
        self.id = spec["id"]
        self.expected = spec["expect"]["genus"]
        data = item["graph"]
        self.vertices = data["vertices"]
        self.edges = {e["id"]: tuple(e["ends"]) for e in data["edges"]}
        self.graph = formats.undirected_from_json(data)

    def run(self):
        try:
            return regulus.genus_exact(self.graph)
        except regulus.BudgetError as exc:
            return exc

    def check(self, result) -> bool:
        if isinstance(result, regulus.BudgetError):
            return False
        if result.genus != self.expected:
            raise WrongAnswer(f"{self.id}: genus {result.genus}, literature {self.expected}")
        traced = traced_genus(self.vertices, self.edges, result.witness.rotations)
        if traced != result.genus:
            raise WrongAnswer(f"{self.id}: the returned rotation traces to genus {traced}")
        return True


class RelationGraph:
    """The criterion-6 check of one small multidigraph."""

    def __init__(self, item: dict, seed: int):
        self.id = item["id"]
        self.seed = seed
        data = item["graph"]
        self.graph = formats.digraph_from_json(data)
        self.checker = RelationChecker(
            data["vertices"], [(e["id"], e["src"], e["dst"]) for e in data["edges"]]
        )

    def run(self):
        g = self.graph
        rels = regulus.enumerate_automatic_relations(g)
        round_trips = []
        for r in rels:
            _, can = regulus.quotient(g, r)
            back, iota = regulus.factorize(can)
            round_trips.append(
                regulus.is_directed_emulator(can).ok
                and back == r
                and iota.is_isomorphism()
                and regulus.automatic_to_mn_roundtrip(g, r).ok
            )
        # sorted by classes, so the seeded pairs do not depend on enumeration order
        rels = sorted(rels, key=lambda r: (r.vertex_classes, r.edge_classes))
        leq = regulus.relation_leq
        lattice = []
        for i, j in relation_pairs(self.seed, self.id, len(rels)):
            r1, r2 = rels[i], rels[j]
            uppers = [k for k, r in enumerate(rels) if leq(r1, r) and leq(r2, r)]
            lowers = [k for k, r in enumerate(rels) if leq(r, r1) and leq(r, r2)]
            lattice.append((i, j, regulus.join(g, r1, r2), regulus.meet(g, r1, r2), uppers, lowers))
        return rels, round_trips, lattice, regulus.maximum(g)

    def check(self, result) -> bool:
        rels, round_trips, lattice, top = result
        if not all(round_trips):
            raise WrongAnswer(f"{self.id}: a quotient, factorization or round trip failed")
        c = self.checker
        vecs = [c.vectors(r) for r in rels]
        if len(set(vecs)) != len(vecs):
            raise WrongAnswer(f"{self.id}: a relation is enumerated twice")
        if not all(c.is_automatic(*v) for v in vecs):
            raise WrongAnswer(f"{self.id}: an enumerated relation is not automatic")
        position = {v: k for k, v in enumerate(vecs)}
        for i, j, up, low, uppers, lowers in lattice:
            mine_up = [k for k, v in enumerate(vecs) if c.leq(vecs[i], v) and c.leq(vecs[j], v)]
            mine_low = [k for k, v in enumerate(vecs) if c.leq(v, vecs[i]) and c.leq(v, vecs[j])]
            if uppers != mine_up or lowers != mine_low:
                raise WrongAnswer(f"{self.id}: relation_leq disagrees with the reference order")
            u, m = position.get(c.vectors(up)), position.get(c.vectors(low))
            if u not in mine_up or not all(c.leq(vecs[u], vecs[k]) for k in mine_up):
                raise WrongAnswer(f"{self.id}: join is not the least upper bound")
            if m not in mine_low or not all(c.leq(vecs[k], vecs[m]) for k in mine_low):
                raise WrongAnswer(f"{self.id}: meet is not the greatest lower bound")
        t = position.get(c.vectors(top))
        if t is None or not all(c.leq(v, vecs[t]) for v in vecs):
            raise WrongAnswer(f"{self.id}: maximum is not the top relation")
        return True


class AutomatonText:
    """Parse, minimize, cover, rebuild and compare one unrolled automaton."""

    def __init__(self, spec: dict, item: dict):
        self.id = spec["id"]
        self.text = item["text"]
        expected = spec["expect"]["min_states"]
        if expected == "reference":
            expected = minimal_state_count(json.loads(self.text))
        self.expected = expected

    def run(self):
        a = formats.automaton_from_json(formats.loads(self.text))
        a_min, _ = regulus.minimize(a)
        cover, _ = regulus.cover_of_minimization(a)
        witness, _ = regulus.automaton_from_cover(a, cover)
        return len(a_min.graph.vertices), regulus.languages_equal(witness, a)

    def check(self, result) -> bool:
        states, equal = result
        if states != self.expected:
            raise WrongAnswer(f"{self.id}: {states} minimal states, expected {self.expected}")
        if not equal:
            raise WrongAnswer(f"{self.id}: the rebuilt automaton has another language")
        return True


def load(workload: str, items: list[dict], seed: int, work: Path) -> list:
    """The instances of a workload, from the inputs its set-up step wrote."""
    if workload == "relations":
        return [RelationGraph(item, seed) for item in items]
    specs = MANIFEST[workload]["instances"]
    if [s["id"] for s in specs] != [item["id"] for item in items]:
        raise ValueError(f"{workload} inputs do not match the manifest")
    if workload == "language":
        return [LanguageQuery(s, item, work) for s, item in zip(specs, items)]
    if workload == "genus":
        return [GenusGraph(s, item) for s, item in zip(specs, items)]
    return [AutomatonText(s, item) for s, item in zip(specs, items)]
