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
    GraphMorphism,
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


def _parse_map(flag: str, pairs: list[str], form: str = "KEY=VALUE", convert=str) -> dict:
    """The pairs of a repeatable option, each side through convert; a pair
    that does not parse, or repeats a key, is refused by name."""
    out = {}
    for pair in pairs:
        try:
            k, v = map(convert, pair.split("=", 1))
        except ValueError:
            raise RegulusError(f"{flag} takes {form}, got {pair!r}") from None
        if k in out:
            raise RegulusError(f"{flag} repeats the key {k!r} in {pair!r}")
        out[k] = v
    return out


def _verdict(payload: dict, key: str) -> tuple[dict, int]:
    """The payload, with exit code 0 when payload[key] holds and 1 if not."""
    return payload, OK if payload[key] else NEGATIVE


# -- readers: each parses one input file.  It names its parser in its body, so
# the parser is looked up when the call runs and a wrapped binding (such as
# the benchmark tracer's) is the one called.

def _digraph(data: dict):
    return formats.digraph_from_json(data)


def _undirected(data: dict):
    return formats.undirected_from_json(data)


def _semi(data: dict):
    return formats.semi_from_json(data)


def _automaton(data: dict):
    return formats.automaton_from_json(data)


def _morphism(data: dict):
    return formats.morphism_from_json(data)


def _undirected_morphism(data: dict):
    return formats.undirected_morphism_from_json(data)


def _relation(data: dict):
    return formats.relation_from_json(data)


def _certificate(data: dict):
    return formats.certificate_from_json(data)


def _any_graph(data: dict):
    if formats.is_undirected_payload(data):
        return formats.undirected_from_json(data)
    return formats.digraph_from_json(data)


def _any_morphism(data: dict):
    if formats.is_undirected_morphism_payload(data):
        return formats.undirected_morphism_from_json(data)
    return formats.morphism_from_json(data)


# -- verbs whose result takes more than one expression -------------------------

def _reach(args, g) -> dict:
    rep = reachability(g)
    return {"pr": {v: sorted(s) for v, s in rep.pr.items()},
            "reachable": sorted(rep.reachable_vertices),
            "co_reachable": sorted(rep.co_reachable_vertices)}


def _relation_check(args, g, r):
    rep = is_automatic(g, r)
    payload = {"automatic": rep.ok, "cover": is_cover_relation(g, r) if rep.ok else False}
    if not rep.ok:
        payload["clause"] = rep.reason
        payload["witness"] = list(rep.witness)
    elif args.roundtrip:
        payload["mn_roundtrip"] = automatic_to_mn_roundtrip(g, r).ok
    return _verdict(payload, "automatic")


def _final_systems(args, g) -> dict:
    rep = complete_final_systems(g)
    return {"minimal_system": list(rep.minimal_system), "cardinality": rep.cardinality}


def _emulation_check(m, rep):
    payload = {"ok": rep.ok, "directed": isinstance(m, GraphMorphism)}
    if not rep.ok:
        payload["reason"] = rep.reason
        payload["witness"] = list(rep.witness)
    return _verdict(payload, "ok")


def _search(args, base):
    outcome = search_covers(CoverSearchSpec(
        base, max_fiber=args.max_fiber, genus_bound=args.genus,
        connected_only=not args.disconnected_ok, time_budget=args.time_budget))
    if outcome.status == "found":
        payload = formats.to_json(outcome.certificate)
    else:
        payload = {"status": outcome.status}
    if args.stats:
        payload["stats"] = dataclasses.asdict(outcome.stats)
    return payload, {"found": OK, "budget_exceeded": BUDGET}.get(outcome.status, NEGATIVE)


def _verify_certificate(args, cert):
    if args.base and cert.base != _digraph(_read(args.base)):
        return {"ok": False, "reason": "certificate base mismatch"}, NEGATIVE
    try:
        cert.verify()
    except RegulusError as exc:
        return {"ok": False, "reason": str(exc)}, NEGATIVE
    return {"ok": True, "genus": cert.genus}


def _genus_exact(args, g) -> dict:
    res = genus_exact(g, budget=math.inf if args.force else None)
    return {"genus": res.genus, "rotation": formats.to_json(res.witness)}


def _planar(args, g):
    rep = is_planar(g)
    if rep.planar:
        return {"planar": True, "rotation": formats.to_json(rep.witness)}
    return {"planar": False, "obstruction": list(rep.obstruction)}, NEGATIVE


def _formula(args) -> dict:
    faces = _parse_map("--face", args.face, "LENGTH=COUNT integers", int)
    value = genus_formula(args.m, FaceVector(faces))
    return {"value": str(value), "integral": value.denominator == 1}


def _invariance(args, g):
    if not isinstance(g, DiGraph):
        raise RegulusError("genus invariance needs a directed graph")
    rep = genus_invariance_suite(g)
    return _verdict({"ok": rep.ok, "genus": rep.base, "opposite": rep.oppo,
                     "simplified": rep.simplified, "excised": rep.excised,
                     "undirected": rep.undirected}, "ok")


def _language(args, a):
    if args.emit_base:
        _write(args.emit_base, formats.dumps(formats.to_json(language_base(a))))
    cert = _certificate(_read(args.certificate)) if args.certificate else None
    answer = language_genus_leq(
        a, args.n, max_fiber=args.max_fiber, time_budget=args.time_budget, certificate=cert
    )
    payload = {"status": answer.status, "n": args.n}
    if answer.status == "yes":
        payload["witness_genus"] = answer.certificate.genus
        payload["witness"] = formats.to_json(answer.witness)
    return payload, {"yes": OK, "budget_exceeded": BUDGET}.get(answer.status, NEGATIVE)


def _corpus_list(args) -> int:
    for name in corpus_mod.names():
        entry = corpus_mod.ENTRIES[name]
        sys.stdout.write(f"{name}\t{entry.kind}\t{entry.description}\n")
    return OK


def _corpus_emit(args) -> int:
    entry = corpus_mod.get(args.name)
    path = Path(args.out_dir) / entry.filename
    _write(path, formats.dumps(entry.payload()), parents=True)
    sys.stdout.write(f"{path}\n")
    return OK


# -- parser ----------------------------------------------------------------------

def _run(readers, run, morphism, args) -> int:
    """Parse the input files, run the verb and write what it gives: the JSON
    to stdout or -o, then the DOT rendering, then the morphism."""
    out = run(args, *[read(_read(path)) for read, path in zip(readers, args.inputs)])
    code, extra = OK, None
    if morphism:
        out, extra = out
    elif isinstance(out, tuple):
        out, code = out
    text = formats.dumps(formats.to_json(out))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if getattr(args, "dot", None):
        _write(args.dot, formats.to_dot(out))
    if getattr(args, "morphism_out", None):
        _write(args.morphism_out, formats.dumps(formats.to_json(extra)))
    return code


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
    groups = {}

    def verb(group, name, readers, run, dot=False, morphism=None, **options):
        """Declare a verb once: `readers` parse its input files in order, and
        `run(args, *inputs)` gives its result, `(result, exit code)` for a
        verdict, or `(result, morphism)` when `morphism` names what
        --morphism-out writes.  `dot` offers --dot, for a graph or an
        automaton result; `formats` renders each by its type."""
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="verb", required=True)
        p = groups[group].add_parser(name)
        if readers:
            p.add_argument("inputs", nargs=len(readers), metavar="FILE")
        p.add_argument("-o", "--out", help="write JSON output to this file")
        if dot:
            p.add_argument("--dot", help="also write a DOT rendering to this file")
        for option, kwargs in options.items():
            p.add_argument(f"--{option.replace('_', '-')}", **kwargs)
        if morphism:
            p.add_argument("--morphism-out", help=f"write the {morphism} here")
        p.set_defaults(func=functools.partial(_run, readers, run, morphism), inputs=[])
        return p

    verb("graph", "simplify", [_digraph], lambda args, g: simplify(g), dot=True,
         morphism="projection morphism")
    verb("graph", "excise", [_digraph], lambda args, g: excise(g), dot=True)
    verb("graph", "op", [_digraph], lambda args, g: opposite(g), dot=True)
    verb("graph", "forget", [_digraph], lambda args, g: forget(g), dot=True)
    verb("graph", "reach", [_digraph], _reach)
    verb("graph", "bidirect", [_undirected], lambda args, g: bidirect(g), dot=True)
    verb("graph", "contract", [_digraph],
         lambda args, g: contract_cycle(g, DirectedCycle(tuple(args.cycle.split(",")))),
         dot=True, cycle={"required": True, "help": "comma-separated edge ids"})
    verb("graph", "pullback", [_morphism, _morphism], lambda args, m1, m2: dict(
        zip(("graph", "pi1", "pi2"), map(formats.to_json, pullback(m1, m2)))))

    verb("sa", "tautological", [_digraph], lambda args, g: tautological(g), dot=True)
    verb("sa", "relabel", [_semi], lambda args, a: relabel(a, _parse_map("--map", args.map)), dot=True,
         morphism="relabelling morphism",
         map={"action": "append", "default": [], "help": "letter=letter"})
    verb("sa", "check", [_semi], lambda args, a: {
        "complete": is_complete(a), "deterministic": is_deterministic(a)})

    accept = verb("auto", "accept", [_automaton], lambda args, a: _verdict(
        {"word": args.word, "accepted": accepts(a, args.word)}, "accepted"))
    accept.add_argument("word", help="space-separated labels")
    verb("auto", "sample", [_automaton], lambda args, a: sample_language(a, args.max_length),
         max_length={"type": int, "required": True})
    verb("auto", "minimize", [_automaton], lambda args, a: minimize(a), dot=True,
         morphism="projection")
    verb("auto", "complete", [_automaton], lambda args, a: complete_with_trash(a), dot=True)
    verb("auto", "graph", [_automaton],
         lambda args, a: minimal_cover_base(a) if args.cover_base else language_graph(a),
         dot=True, cover_base={"action": "store_true",
                               "help": "emit the excised simplified minimal graph instead"})
    verb("auto", "from-cover", [_automaton, _morphism],
         lambda args, a, cover: automaton_from_cover(a, cover), dot=True,
         morphism="strict morphism")
    verb("auto", "equal", [_automaton, _automaton],
         lambda args, a, b: _verdict({"equal": languages_equal(a, b)}, "equal"))

    verb("rel", "check", [_digraph, _relation], _relation_check,
         roundtrip={"action": "store_true", "help": "also verify the Myhill-Nerode round trip"})
    verb("rel", "quotient", [_digraph, _relation], lambda args, g, r: quotient(g, r), dot=True,
         morphism="canonical morphism")
    verb("rel", "canonical", [_morphism], lambda args, m: canonical_relation(m))
    verb("rel", "factorize", [_morphism], lambda args, m: dict(
        zip(("relation", "iota"), map(formats.to_json, factorize(m)))))
    verb("rel", "mn", [_semi],
         lambda args, a: mn_refine(a, FinalFamily.of(*[set(f.split(",")) for f in args.final])),
         final={"action": "append", "default": [], "required": True,
                "help": "comma-separated vertex subset; repeatable"})
    verb("rel", "final-systems", [_digraph], _final_systems)
    verb("rel", "join", [_digraph, _relation, _relation], lambda args, g, r1, r2: join(g, r1, r2))
    verb("rel", "meet", [_digraph, _relation, _relation], lambda args, g, r1, r2: meet(g, r1, r2))
    verb("rel", "max", [_digraph], lambda args, g: maximum(g))

    verb("emu", "check", [_any_morphism], lambda args, m: _emulation_check(
        m, is_directed_emulator(m) if isinstance(m, GraphMorphism) else is_undirected_emulator(m)))
    verb("emu", "check-cover", [_any_morphism], lambda args, m: _emulation_check(
        m, is_directed_cover(m) if isinstance(m, GraphMorphism) else is_undirected_cover(m)))
    verb("emu", "extract", [_morphism], lambda args, m: extract_cover(m))
    verb("emu", "extend", [_morphism, _digraph], lambda args, m, h: extend_over_excision(m, h))
    verb("emu", "lift", [_undirected_morphism, _digraph], lambda args, m, d: lift_direction(m, d))
    verb("emu", "search", [_digraph], _search,
         max_fiber={"type": _int_at_least(1), "default": 2},
         genus={"type": _int_at_least(0), "default": 0},
         time_budget={"type": float, "default": 300.0},
         disconnected_ok={"action": "store_true"},
         stats={"action": "store_true", "help": "add what the search did to the JSON"})
    verb("emu", "verify-cert", [_certificate], _verify_certificate,
         base={"help": "cross-check the certificate base graph"})

    verb("genus", "exact", [_any_graph], _genus_exact,
         force={"action": "store_true", "help": "search without a node budget"})
    verb("genus", "planar", [_any_graph], _planar)
    verb("genus", "lower-bound", [_any_graph], lambda args, g: {"lower_bound": euler_lower_bound(
        forget(g) if isinstance(g, DiGraph) else g, args.girth_floor)},
         girth_floor={"type": int, "default": 3})
    verb("genus", "formula", [], _formula, m={"type": int, "required": True},
         face={"action": "append", "default": [], "help": "LENGTH=COUNT; repeatable"})
    verb("genus", "invariance", [_any_graph], _invariance)
    verb("genus", "language", [_automaton], _language,
         n={"type": _int_at_least(0), "required": True},
         max_fiber={"type": _int_at_least(1), "default": 2},
         time_budget={"type": float, "default": 300.0},
         certificate={"help": "use this cover certificate instead of searching"},
         emit_base={"help": "write the base graph certificates must cover"})

    corpus = sub.add_parser("corpus").add_subparsers(dest="verb", required=True)
    corpus.add_parser("list").set_defaults(func=_corpus_list)
    emit = corpus.add_parser("emit")
    emit.add_argument("name")
    emit.add_argument("--out-dir", default=".")
    emit.set_defaults(func=_corpus_emit)

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
