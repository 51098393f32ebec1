"""Command-line interface.

Exit codes: 0 success or positive verdict, 1 negative verdict (violation,
non-planar, exhausted search, unequal languages), 2 budget exceeded,
3 malformed input, usage error or an output path that cannot be written,
4 internal error (a bug; the traceback is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import traceback
from pathlib import Path

from . import corpus as corpus_mod
from . import formats
from .automaton import (
    accepts,
    automaton_from_cover,
    complete_with_trash,
    language_graph,
    languages_equal,
    minimal_cover_base,
    minimize,
    sample_language,
)
from .digraph import (
    DiGraph,
    DirectedCycle,
    bidirect,
    contract_cycle,
    excise,
    forget,
    opposite,
    pullback,
    reachability,
    simplify,
)
from .emulation import (
    CoverSearchSpec,
    extend_over_excision,
    extract_cover,
    is_directed_cover,
    is_directed_emulator,
    is_undirected_cover,
    is_undirected_emulator,
    lift_direction,
    search_covers,
)
from .errors import BudgetError, RegulusError
from .genus import (
    FaceVector,
    euler_lower_bound,
    genus_exact,
    genus_formula,
    genus_invariance_suite,
    is_planar,
)
from .pipeline import language_base, language_genus_leq
from .relations import (
    FinalFamily,
    automatic_to_mn_roundtrip,
    canonical_relation,
    complete_final_systems,
    factorize,
    is_automatic,
    is_cover_relation,
    join,
    maximum,
    meet,
    mn_refine,
    quotient,
)
from .semiauto import is_complete, is_deterministic, relabel, tautological

OK, NEGATIVE, BUDGET, INPUT, INTERNAL = 0, 1, 2, 3, 4


def _read(path: str) -> dict:
    try:
        return formats.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise RegulusError(f"cannot read {path}: {exc}") from None


def _write(path, text: str, parents: bool = False) -> None:
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise RegulusError(f"cannot write {path}: {exc}") from None


def _emit(args, payload: dict, dot: str | None = None) -> None:
    text = formats.dumps(payload)
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if getattr(args, "dot", None):
        _write(args.dot, dot)


def _write_morphism(args, payload: dict) -> None:
    if getattr(args, "morphism_out", None):
        _write(args.morphism_out, formats.dumps(payload))


def _parse_map(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise RegulusError(f"expected key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k] = v
    return out


# -- graph -------------------------------------------------------------------

def cmd_graph(args) -> int:
    if args.verb == "pullback":
        m1 = formats.morphism_from_json(_read(args.inputs[0]))
        m2 = formats.morphism_from_json(_read(args.inputs[1]))
        g, pi1, pi2 = pullback(m1, m2)
        _emit(
            args,
            {
                "graph": formats.digraph_to_json(g),
                "pi1": formats.morphism_to_json(pi1),
                "pi2": formats.morphism_to_json(pi2),
            },
        )
        return OK
    data = _read(args.inputs[0])
    if args.verb == "bidirect":
        g = formats.undirected_from_json(data)
        out = bidirect(g)
        _emit(args, formats.digraph_to_json(out), formats.digraph_to_dot(out))
        return OK
    g = formats.digraph_from_json(data)
    if args.verb == "simplify":
        out, rho = simplify(g)
        _emit(args, formats.digraph_to_json(out), formats.digraph_to_dot(out))
        _write_morphism(args, formats.morphism_to_json(rho))
    elif args.verb == "excise":
        out = excise(g)
        _emit(args, formats.digraph_to_json(out), formats.digraph_to_dot(out))
    elif args.verb == "op":
        out = opposite(g)
        _emit(args, formats.digraph_to_json(out), formats.digraph_to_dot(out))
    elif args.verb == "forget":
        und = forget(g)
        _emit(args, formats.undirected_to_json(und), formats.undirected_to_dot(und))
    elif args.verb == "contract":
        cycle = DirectedCycle(tuple(args.cycle.split(",")))
        out = contract_cycle(g, cycle)
        _emit(args, formats.digraph_to_json(out), formats.digraph_to_dot(out))
    elif args.verb == "reach":
        rep = reachability(g)
        _emit(
            args,
            {
                "pr": {v: sorted(s) for v, s in rep.pr.items()},
                "reachable": sorted(rep.reachable_vertices),
                "co_reachable": sorted(rep.co_reachable_vertices),
            },
        )
    return OK


# -- sa ----------------------------------------------------------------------

def cmd_sa(args) -> int:
    data = _read(args.inputs[0])
    if args.verb == "tautological":
        g = formats.digraph_from_json(data)
        out = tautological(g)
        _emit(args, formats.semi_to_json(out), formats.semi_to_dot(out))
        return OK
    a = formats.semi_from_json(data)
    if args.verb == "relabel":
        out, m = relabel(a, _parse_map(args.map))
        _emit(args, formats.semi_to_json(out), formats.semi_to_dot(out))
        _write_morphism(args, formats.semi_morphism_to_json(m))
        return OK
    if args.verb == "check":
        _emit(args, {"complete": is_complete(a), "deterministic": is_deterministic(a)})
        return OK
    return INPUT


# -- auto ----------------------------------------------------------------------

def cmd_auto(args) -> int:
    a = formats.automaton_from_json(_read(args.inputs[0]))
    if args.verb == "accept":
        verdict = accepts(a, args.word)
        _emit(args, {"word": args.word, "accepted": verdict})
        return OK if verdict else NEGATIVE
    if args.verb == "sample":
        sample = sample_language(a, args.max_length)
        _emit(args, formats.sample_to_json(sample))
        return OK
    if args.verb == "minimize":
        amin, pi = minimize(a)
        _emit(args, formats.automaton_to_json(amin), formats.automaton_to_dot(amin))
        _write_morphism(args, formats.semi_morphism_to_json(pi))
        return OK
    if args.verb == "complete":
        out = complete_with_trash(a)
        _emit(args, formats.automaton_to_json(out), formats.automaton_to_dot(out))
        return OK
    if args.verb == "graph":
        g = minimal_cover_base(a) if args.cover_base else language_graph(a)
        _emit(args, formats.digraph_to_json(g), formats.digraph_to_dot(g))
        return OK
    if args.verb == "from-cover":
        cover = formats.morphism_from_json(_read(args.inputs[1]))
        witness, strict = automaton_from_cover(a, cover)
        _emit(args, formats.automaton_to_json(witness), formats.automaton_to_dot(witness))
        _write_morphism(args, formats.semi_morphism_to_json(strict))
        return OK
    if args.verb == "equal":
        b = formats.automaton_from_json(_read(args.inputs[1]))
        same = languages_equal(a, b)
        _emit(args, {"equal": same})
        return OK if same else NEGATIVE
    return INPUT


# -- rel ----------------------------------------------------------------------

def cmd_rel(args) -> int:
    if args.verb == "canonical":
        m = formats.morphism_from_json(_read(args.inputs[0]))
        _emit(args, formats.relation_to_json(canonical_relation(m)))
        return OK
    if args.verb == "factorize":
        m = formats.morphism_from_json(_read(args.inputs[0]))
        r, iota = factorize(m)
        _emit(
            args,
            {
                "relation": formats.relation_to_json(r),
                "iota": formats.morphism_to_json(iota),
            },
        )
        return OK
    if args.verb == "mn":
        a = formats.semi_from_json(_read(args.inputs[0]))
        family = FinalFamily.of(*[set(f.split(",")) for f in args.final])
        _emit(args, formats.relation_to_json(mn_refine(a, family)))
        return OK
    g = formats.digraph_from_json(_read(args.inputs[0]))
    if args.verb == "final-systems":
        rep = complete_final_systems(g)
        _emit(args, {"minimal_system": list(rep.minimal_system), "cardinality": rep.cardinality})
        return OK
    if args.verb == "max":
        _emit(args, formats.relation_to_json(maximum(g)))
        return OK
    r1 = formats.relation_from_json(_read(args.inputs[1]))
    if args.verb == "check":
        rep = is_automatic(g, r1)
        cover = is_cover_relation(g, r1) if rep.ok else False
        roundtrip = None
        if rep.ok and args.roundtrip:
            roundtrip = automatic_to_mn_roundtrip(g, r1).ok
        payload = {"automatic": rep.ok, "cover": cover}
        if not rep.ok:
            payload["clause"] = rep.clause
            payload["witness"] = list(rep.witness)
        if roundtrip is not None:
            payload["mn_roundtrip"] = roundtrip
        _emit(args, payload)
        return OK if rep.ok else NEGATIVE
    if args.verb == "quotient":
        q, can = quotient(g, r1)
        _emit(args, formats.digraph_to_json(q), formats.digraph_to_dot(q))
        _write_morphism(args, formats.morphism_to_json(can))
        return OK
    r2 = formats.relation_from_json(_read(args.inputs[2]))
    if args.verb == "join":
        _emit(args, formats.relation_to_json(join(g, r1, r2)))
        return OK
    if args.verb == "meet":
        _emit(args, formats.relation_to_json(meet(g, r1, r2)))
        return OK
    return INPUT


# -- emu ----------------------------------------------------------------------

def _load_any_morphism(data: dict):
    if formats.is_undirected_morphism_payload(data):
        return formats.undirected_morphism_from_json(data), False
    return formats.morphism_from_json(data), True


def cmd_emu(args) -> int:
    if args.verb in ("check", "check-cover"):
        m, directed = _load_any_morphism(_read(args.inputs[0]))
        if args.verb == "check":
            rep = is_directed_emulator(m) if directed else is_undirected_emulator(m)
        else:
            rep = is_directed_cover(m) if directed else is_undirected_cover(m)
        payload = {"ok": rep.ok, "directed": directed}
        if not rep.ok:
            payload["reason"] = rep.reason
            payload["witness"] = list(rep.witness)
        _emit(args, payload)
        return OK if rep.ok else NEGATIVE
    if args.verb == "extract":
        m = formats.morphism_from_json(_read(args.inputs[0]))
        _emit(args, formats.morphism_to_json(extract_cover(m)))
        return OK
    if args.verb == "extend":
        m = formats.morphism_from_json(_read(args.inputs[0]))
        h = formats.digraph_from_json(_read(args.inputs[1]))
        _emit(args, formats.morphism_to_json(extend_over_excision(m, h)))
        return OK
    if args.verb == "lift":
        m = formats.undirected_morphism_from_json(_read(args.inputs[0]))
        direction = formats.digraph_from_json(_read(args.inputs[1]))
        _emit(args, formats.morphism_to_json(lift_direction(m, direction)))
        return OK
    if args.verb == "search":
        base = formats.digraph_from_json(_read(args.inputs[0]))
        spec = CoverSearchSpec(
            base,
            max_fiber=args.max_fiber,
            genus_bound=args.genus,
            connected_only=not args.disconnected_ok,
            time_budget=args.time_budget,
        )
        outcome = search_covers(spec)
        if outcome.status == "found":
            payload = formats.certificate_to_json(outcome.certificate)
        else:
            payload = {"status": outcome.status}
        if args.stats:
            payload["stats"] = dataclasses.asdict(outcome.stats)
        _emit(args, payload)
        return {"found": OK, "budget_exceeded": BUDGET}.get(outcome.status, NEGATIVE)
    if args.verb == "verify-cert":
        cert = formats.certificate_from_json(_read(args.inputs[0]))
        if args.base:
            base = formats.digraph_from_json(_read(args.base))
            if cert.base != base:
                _emit(args, {"ok": False, "reason": "certificate base mismatch"})
                return NEGATIVE
        try:
            cert.verify()
        except RegulusError as exc:
            _emit(args, {"ok": False, "reason": str(exc)})
            return NEGATIVE
        _emit(args, {"ok": True, "genus": cert.genus})
        return OK
    return INPUT


# -- genus ----------------------------------------------------------------------

def _load_any_graph(data: dict):
    if formats.is_undirected_payload(data):
        return formats.undirected_from_json(data)
    return formats.digraph_from_json(data)


def cmd_genus(args) -> int:
    if args.verb == "formula":
        try:
            faces = {int(k): int(v) for k, v in _parse_map(args.face).items()}
        except ValueError:
            raise RegulusError(f"--face takes LENGTH=COUNT integers, got {args.face}") from None
        value = genus_formula(args.m, FaceVector(faces))
        _emit(args, {"value": str(value), "integral": value.denominator == 1})
        return OK
    if args.verb == "language":
        a = formats.automaton_from_json(_read(args.inputs[0]))
        if args.emit_base:
            base = language_base(a)
            _write(args.emit_base, formats.dumps(formats.digraph_to_json(base)))
        cert = None
        if args.certificate:
            cert = formats.certificate_from_json(_read(args.certificate))
        answer = language_genus_leq(
            a,
            args.n,
            max_fiber=args.max_fiber,
            time_budget=args.time_budget,
            certificate=cert,
        )
        payload = {"status": answer.status, "n": args.n}
        if answer.status == "yes":
            payload["witness_genus"] = answer.certificate.genus
            payload["witness"] = formats.automaton_to_json(answer.witness)
        _emit(args, payload)
        if answer.status == "yes":
            return OK
        return BUDGET if answer.status == "budget_exceeded" else NEGATIVE
    g = _load_any_graph(_read(args.inputs[0]))
    if args.verb == "exact":
        budget = math.inf if args.force else None
        res = genus_exact(g, budget=budget)
        _emit(
            args,
            {
                "genus": res.genus,
                "rotation": formats.rotation_to_json(res.witness),
            },
        )
        return OK
    if args.verb == "planar":
        rep = is_planar(g)
        payload = {"planar": rep.planar}
        if rep.planar:
            payload["rotation"] = formats.rotation_to_json(rep.witness)
        else:
            payload["obstruction"] = list(rep.obstruction)
        _emit(args, payload)
        return OK if rep.planar else NEGATIVE
    if args.verb == "lower-bound":
        und = forget(g) if isinstance(g, DiGraph) else g
        _emit(args, {"lower_bound": euler_lower_bound(und, args.girth_floor)})
        return OK
    if args.verb == "invariance":
        if not isinstance(g, DiGraph):
            raise RegulusError("genus invariance needs a directed graph")
        rep = genus_invariance_suite(g)
        _emit(
            args,
            {
                "ok": rep.ok,
                "genus": rep.base,
                "opposite": rep.oppo,
                "simplified": rep.simplified,
                "excised": rep.excised,
                "undirected": rep.undirected,
            },
        )
        return OK if rep.ok else NEGATIVE
    return INPUT


# -- corpus ----------------------------------------------------------------------

def cmd_corpus(args) -> int:
    if args.verb == "list":
        for name in corpus_mod.names():
            entry = corpus_mod.ENTRIES[name]
            sys.stdout.write(f"{name}\t{entry.kind}\t{entry.description}\n")
        return OK
    entry = corpus_mod.get(args.name)
    path = Path(args.out_dir) / entry.filename
    _write(path, formats.dumps(entry.payload()), parents=True)
    sys.stdout.write(f"{path}\n")
    return OK


# -- parser ----------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type for integers >= low; argparse names the option in its error."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regulus",
        description="Genus bounds for regular languages via directed covers and emulators",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    # the verbs whose result is a graph or an automaton, which render DOT
    dot_verbs = {"simplify", "excise", "op", "forget", "bidirect", "contract", "tautological",
                 "relabel", "minimize", "complete", "graph", "from-cover", "quotient"}

    def add(group, verb, inputs, func, **extra):
        p = group.add_parser(verb)
        if inputs:
            p.add_argument("inputs", nargs=inputs, metavar="FILE")
        p.add_argument("-o", "--out", help="write JSON output to this file")
        if verb in dot_verbs:
            p.add_argument("--dot", help="also write a DOT rendering to this file")
        p.set_defaults(func=func, verb=verb, inputs=[])
        for name, kwargs in extra.items():
            p.add_argument(f"--{name.replace('_', '-')}", **kwargs)
        return p

    g = sub.add_parser("graph").add_subparsers(dest="verb", required=True)
    add(g, "simplify", 1, cmd_graph, morphism_out={"help": "write the projection morphism here"})
    for verb in ("excise", "op", "forget", "reach", "bidirect"):
        add(g, verb, 1, cmd_graph)
    add(g, "contract", 1, cmd_graph, cycle={"required": True, "help": "comma-separated edge ids"})
    add(g, "pullback", 2, cmd_graph)

    s = sub.add_parser("sa").add_subparsers(dest="verb", required=True)
    add(s, "tautological", 1, cmd_sa)
    add(s, "relabel", 1, cmd_sa, map={"action": "append", "default": [], "help": "letter=letter"},
        morphism_out={"help": "write the relabelling morphism here"})
    add(s, "check", 1, cmd_sa)

    a = sub.add_parser("auto").add_subparsers(dest="verb", required=True)
    p = add(a, "accept", 1, cmd_auto)
    p.add_argument("word", help="space-separated labels")
    add(a, "sample", 1, cmd_auto, max_length={"type": int, "required": True})
    add(a, "minimize", 1, cmd_auto, morphism_out={"help": "write the projection here"})
    add(a, "complete", 1, cmd_auto)
    add(a, "graph", 1, cmd_auto, cover_base={"action": "store_true",
        "help": "emit the excised simplified minimal graph instead"})
    add(a, "from-cover", 2, cmd_auto, morphism_out={"help": "write the strict morphism here"})
    add(a, "equal", 2, cmd_auto)

    r = sub.add_parser("rel").add_subparsers(dest="verb", required=True)
    add(r, "check", 2, cmd_rel, roundtrip={"action": "store_true",
        "help": "also verify the Myhill-Nerode round trip"})
    add(r, "quotient", 2, cmd_rel, morphism_out={"help": "write the canonical morphism here"})
    add(r, "canonical", 1, cmd_rel)
    add(r, "factorize", 1, cmd_rel)
    add(r, "mn", 1, cmd_rel, final={"action": "append", "default": [], "required": True,
        "help": "comma-separated vertex subset; repeatable"})
    add(r, "final-systems", 1, cmd_rel)
    add(r, "join", 3, cmd_rel)
    add(r, "meet", 3, cmd_rel)
    add(r, "max", 1, cmd_rel)

    e = sub.add_parser("emu").add_subparsers(dest="verb", required=True)
    add(e, "check", 1, cmd_emu)
    add(e, "check-cover", 1, cmd_emu)
    add(e, "extract", 1, cmd_emu)
    add(e, "extend", 2, cmd_emu)
    add(e, "lift", 2, cmd_emu)
    add(e, "search", 1, cmd_emu,
        max_fiber={"type": _int_at_least(1), "default": 2},
        genus={"type": _int_at_least(0), "default": 0},
        time_budget={"type": float, "default": 300.0},
        disconnected_ok={"action": "store_true"},
        stats={"action": "store_true", "help": "add what the search did to the JSON"})
    add(e, "verify-cert", 1, cmd_emu, base={"help": "cross-check the certificate base graph"})

    n = sub.add_parser("genus").add_subparsers(dest="verb", required=True)
    add(n, "exact", 1, cmd_genus,
        force={"action": "store_true", "help": "search without a node budget"})
    add(n, "planar", 1, cmd_genus)
    add(n, "lower-bound", 1, cmd_genus, girth_floor={"type": int, "default": 3})
    p = add(n, "formula", 0, cmd_genus,
            m={"type": int, "required": True},
            face={"action": "append", "default": [], "help": "LENGTH=COUNT; repeatable"})
    add(n, "invariance", 1, cmd_genus)
    add(n, "language", 1, cmd_genus,
        n={"type": _int_at_least(0), "required": True},
        max_fiber={"type": _int_at_least(1), "default": 2},
        time_budget={"type": float, "default": 300.0},
        certificate={"help": "use this cover certificate instead of searching"},
        emit_base={"help": "write the base graph certificates must cover"})

    c = sub.add_parser("corpus").add_subparsers(dest="verb", required=True)
    lst = c.add_parser("list")
    lst.set_defaults(func=cmd_corpus, verb="list")
    emit = c.add_parser("emit")
    emit.add_argument("name")
    emit.add_argument("--out-dir", default=".")
    emit.set_defaults(func=cmd_corpus, verb="emit")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls; argparse
    copies `append` defaults, so no parsed value outlives its call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; only --help exits cleanly
        return INPUT if exc.code else OK
    try:
        return args.func(args)
    except BudgetError as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return BUDGET
    except RegulusError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT
    except Exception:
        traceback.print_exc()
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
