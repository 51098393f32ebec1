"""Tests of the benchmark itself: seeded inputs, verdicts across seeds, the
answer checks and the tracer.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import instances  # noqa: E402
import regulus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import WrongAnswer, minimal_state_count, same_words, traced_genus  # noqa: E402
from tracing import Tracer, check_spans, layer_metrics, self_times  # noqa: E402

QUICK = {
    "language": ["L6-35", "z7-123-n0", "z7-123-n1"],
    "genus": ["K5", "K3,3", "Petersen", "grid30", "K7"],
    "automata": ["dfa30x4-a", "dfa30x4-c"],
}


def load(workload, seed, tmp_path, ids=None):
    work = tmp_path / f"{workload}-{seed}"
    workloads.prepare(workload, seed, work)
    items = json.loads((work / "inputs.json").read_text())
    insts = instances.load(workload, items, seed, work)
    keep = QUICK.get(workload) if ids is None else ids
    return [i for i in insts if keep is None or i.id in keep]


def by_id(insts, ident):
    return next(i for i in insts if i.id == ident)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    texts = []
    for n, seed in enumerate((5, 5, 6)):
        out = tmp_path / str(n)
        workloads.prepare(workload, seed, out)
        texts.append((out / "inputs.json").read_text())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_seed_zero_keeps_ids_and_prefix_keeps_order():
    assert workloads.id_prefix(0) == ""
    prefix = workloads.id_prefix(3)
    assert prefix and prefix == workloads.id_prefix(3) != workloads.id_prefix(4)
    ids = ["0", "10", "9", "t1_3", "t10_1", "t1_3#0"]
    assert sorted(prefix + x for x in ids) == [prefix + x for x in sorted(ids)]


def test_relation_sample_is_spread_over_the_whole_list():
    graphs = workloads.canonical_multidigraphs()
    assert len(graphs) == 4388
    idx = [int(item["id"][1:]) for item in workloads.relations_inputs(9)]
    assert len(set(idx)) == 300 and idx == sorted(idx)
    assert idx[0] < 15 and idx[-1] >= 4388 - 15


@pytest.mark.parametrize("workload", ["language", "genus", "automata"])
def test_verdicts_are_identical_across_seeds(workload, tmp_path):
    verdicts = []
    for seed in (0, 11):
        verdicts.append({i.id: i.check(i.run()) for i in load(workload, seed, tmp_path)})
    assert verdicts[0] == verdicts[1]
    if workload == "language":
        assert verdicts[0] == {"L6-35": True, "z7-123-n0": True, "z7-123-n1": False}
    if workload == "genus":
        assert verdicts[0]["K7"] is False and sum(verdicts[0].values()) == 4


def test_verdicts_survive_a_renaming_that_reorders_ids(tmp_path):
    rng = random.Random(5)

    def scramble(ids):
        names = [f"x{k:03d}" for k in range(len(ids))]
        rng.shuffle(names)
        return dict(zip(ids, names))

    for inst in load("language", 0, tmp_path):
        auto = inst.automaton
        vs, es = scramble(auto["vertices"]), scramble([e["id"] for e in auto["edges"]])
        letters = scramble(auto["alphabet"])
        renamed = {
            "vertices": [vs[v] for v in auto["vertices"]],
            "alphabet": [letters[x] for x in auto["alphabet"]],
            "edges": [{"id": es[e["id"]], "src": vs[e["src"]], "dst": vs[e["dst"]],
                       "label": letters[e["label"]]} for e in auto["edges"]],
            "initials": [vs[v] for v in auto["initials"]],
            "finals": [vs[v] for v in auto["finals"]],
        }
        (tmp_path / "scrambled.json").write_text(json.dumps(renamed))
        twin = instances.LanguageQuery(
            inst.spec, {"automaton": renamed, "file": "scrambled.json"}, tmp_path
        )
        assert twin.check(twin.run()) == inst.check(inst.run())
    for inst in load("genus", 0, tmp_path, ["K3,3", "Petersen"]):
        vs = scramble(inst.vertices)
        graph = {"vertices": list(vs.values()),
                 "edges": [{"id": e, "ends": [vs[a], vs[b]]} for e, (a, b) in inst.edges.items()]}
        spec = {"id": inst.id, "expect": {"genus": inst.expected}}
        twin = instances.GenusGraph(spec, {"graph": graph})
        assert twin.check(twin.run())


def test_relation_graphs_get_verdicts_on_two_seeds(tmp_path):
    for seed in (0, 11):
        insts = load("relations", seed, tmp_path)[::30]
        assert all(i.check(i.run()) for i in insts)


@pytest.fixture(scope="module")
def l635(tmp_path_factory):
    inst = by_id(load("language", 2, tmp_path_factory.mktemp("lang"), ["L6-35", "abc-mod7"]), "L6-35")
    return inst, inst.run()


def test_language_check_rejects_a_flipped_verdict(l635):
    inst, (code, text) = l635
    payload = json.loads(text)
    assert inst.check((code, text))
    flipped = {"status": "no_within_bounds", "n": payload["n"]}
    with pytest.raises(WrongAnswer):
        inst.check((1, json.dumps(flipped)))
    with pytest.raises(WrongAnswer):
        inst.check((0, json.dumps(flipped)))


def test_language_check_rejects_a_retargeted_witness_edge(l635):
    inst, (code, text) = l635
    payload = json.loads(text)
    witness = payload["witness"]
    finals = set(witness["finals"])
    (start,) = witness["initials"]
    edge = next(e for e in witness["edges"] if e["src"] == start)
    # a target of the other finality changes whether the one-letter word is accepted
    edge["dst"] = next(v for v in witness["vertices"] if (v in finals) != (edge["dst"] in finals))
    with pytest.raises(WrongAnswer):
        inst.check((code, json.dumps(payload)))


def test_word_check_accepts_the_query_itself(l635):
    inst, _ = l635
    assert same_words(inst.automaton, inst.automaton) == 2**12 - 1


@pytest.fixture(scope="module")
def k33(tmp_path_factory):
    inst = by_id(load("genus", 4, tmp_path_factory.mktemp("genus"), ["K3,3"]), "K3,3")
    return inst, inst.run()


def test_genus_check_rejects_a_wrong_genus(k33):
    inst, result = k33
    assert inst.check(result)
    with pytest.raises(WrongAnswer):
        inst.check(regulus.GenusResult(result.genus + 1, result.witness))


def test_genus_check_retraces_the_rotation(k33):
    inst, result = k33
    rotations = {v: list(r) for v, r in result.witness.rotations.items()}
    assert traced_genus(inst.vertices, inst.edges, rotations) == 1
    swapped = []
    for v, r in rotations.items():
        bad = dict(rotations, **{v: [r[1], r[0]] + r[2:]})
        if traced_genus(inst.vertices, inst.edges, bad) != 1:
            swapped.append(bad)
    assert swapped, "some transposition in a rotation changes the genus"
    with pytest.raises(WrongAnswer):
        inst.check(regulus.GenusResult(1, regulus.RotationSystem(swapped[0])))
    v = next(iter(rotations))
    with pytest.raises(WrongAnswer):
        traced_genus(inst.vertices, inst.edges, dict(rotations, **{v: rotations[v][1:]}))


@pytest.fixture(scope="module")
def rich_relation_graph(tmp_path_factory):
    insts = load("relations", 1, tmp_path_factory.mktemp("rel"))
    inst = max(insts[-40:], key=lambda i: len(i.graph.edges))
    result = inst.run()
    assert len(result[0]) > 3
    return inst, result


def test_relation_check_rejects_a_wrong_join_and_a_wrong_relation(rich_relation_graph):
    inst, result = rich_relation_graph
    rels, round_trips, lattice, top = result
    assert inst.check(result)
    bottom = regulus.AutomaticRelation.identity(inst.graph)
    k = next(k for k, entry in enumerate(lattice) if entry[2] != top)
    bad_lattice = list(lattice)
    bad_lattice[k] = lattice[k][:2] + (top,) + lattice[k][3:]
    with pytest.raises(WrongAnswer):
        inst.check((rels, round_trips, bad_lattice, top))
    with pytest.raises(WrongAnswer):
        inst.check((rels, round_trips, lattice, bottom))
    edge_ids = sorted(inst.graph.edges)
    merged = regulus.AutomaticRelation.from_classes([inst.graph.vertices], [edge_ids])
    if merged not in rels:
        with pytest.raises(WrongAnswer):
            inst.check((rels + [merged], round_trips, lattice, top))
    with pytest.raises(WrongAnswer):
        inst.check((rels, round_trips[:-1] + [False], lattice, top))


def test_automata_check_rejects_a_wrong_state_count(tmp_path):
    inst = load("automata", 3, tmp_path, ["count200x2"])[0]
    result = inst.run()
    assert result == (200, True)
    assert minimal_state_count(json.loads(inst.text)) == 200
    with pytest.raises(WrongAnswer):
        inst.check((199, True))
    with pytest.raises(WrongAnswer):
        inst.check((200, False))


def test_tracer_wraps_every_binding_and_accounts_for_all_time(tmp_path):
    import regulus.emulation
    import regulus.genus

    insts = load("language", 0, tmp_path, ["L6-35", "z7-123-n1"])
    original = regulus.genus.is_planar
    tracer = Tracer()
    tracer.install()
    try:
        assert regulus.emulation.is_planar is regulus.genus.is_planar is not original
        assert regulus.is_planar is regulus.genus.is_planar
        times, decided, failed = run.run_pass(insts, {}, tracer)
    finally:
        tracer.uninstall()
    assert regulus.genus.is_planar is original and regulus.emulation.is_planar is original
    assert (decided, failed) == (1, 0)
    own = self_times(tracer.spans)
    assert check_spans(tracer.spans, own) < 1e-6
    roots = [s for s in tracer.spans if s[0] == "instance"]
    assert len(roots) == 2
    m = layer_metrics(tracer.spans, own)
    assert m["emulation.candidates"][0] > 0
    assert 0 < m["emulation.planar_hit_ratio"][0] <= 1
    assert m["genus.refused"][0] == 1
    assert m["cli.self_s"][0] > 0 and m["digraph.digraphs_built"][0] > 0
    assert m["relations.found"][0] == 0
    layer_sum = sum(v for k, (v, _) in m.items() if k.endswith(".self_s") and k != "emulation.search_self_s")
    assert layer_sum == pytest.approx(sum(s[3] - s[2] for s in roots), rel=1e-9)


def test_tail_has_ten_samples_above_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 45.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_manifest_lists_each_instance_once_with_why_and_source():
    m = workloads.MANIFEST
    for workload in ("language", "genus", "automata"):
        ids = [s["id"] for s in m[workload]["instances"]]
        assert len(ids) == len(set(ids))
        for spec in m[workload]["instances"]:
            assert spec["why"] and spec["expect"]["source"]
    assert m["relations"]["why"] and m["relations"]["expect"]["source"]
