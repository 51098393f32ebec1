"""Spans around the calls into each layer of `regulus`, recorded from outside.

`Tracer.install` wraps each public function in LAYERS at every `regulus`
module that binds it: `from .genus import is_planar` gives `emulation` and
`cli` their own binding, and each is replaced.  A span is (name, layer,
start, end, parent, instance, note, outermost-of-its-name,
outermost-of-its-layer); `note` carries the little a metric needs from the
result (a length, a flag, the exception's name).  Spans stay in memory until
`write` saves them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# layer -> {function name: note taken from its result, or None}
LAYERS = {
    "formats": {"loads": None, "automaton_from_json": None, "digraph_from_json": None,
                "undirected_from_json": None},
    "cli": {"main": None},
    "pipeline": {"language_genus_leq": None},
    "automaton": {"minimize": None, "cover_of_minimization": None,
                  "automaton_from_cover": None, "languages_equal": None},
    "relations": {"enumerate_automatic_relations": len, "is_automatic": None, "join": None,
                  "meet": None, "relation_leq": None, "quotient": None, "factorize": None,
                  "automatic_to_mn_roundtrip": None, "maximum": None, "mn_refine": None},
    "emulation": {"search_covers": None, "is_directed_cover": None, "is_directed_emulator": None},
    "genus": {"is_planar": lambda rep: rep.planar, "genus_exact": None, "trace_faces": None},
    "digraph": {"DiGraph": None, "weakly_connected": None, "simplify": None, "excise": None,
                "forget": None, "opposite": None, "pullback": None, "subgraph": None,
                "descendants": None, "ancestors": None, "reachability": None,
                "strongly_connected_components": None},
}
INSTANCE_SPAN = "instance"  # the benchmark's own span around one instance


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [-1]
        self.instance = None
        self.active_name: dict[str, int] = {}
        self.active_layer: dict[str, int] = {}
        self._restore: list[tuple] = []

    def begin(self, name: str, layer: str) -> tuple:
        names, layers = self.active_name, self.active_layer
        idx = len(self.spans)
        self.spans.append(None)
        outer = (not names.get(name), not layers.get(layer))
        names[name] = names.get(name, 0) + 1
        layers[layer] = layers.get(layer, 0) + 1
        parent = self.stack[-1]
        self.stack.append(idx)
        return idx, parent, outer, time.perf_counter()

    def end(self, token: tuple, name: str, layer: str, note=None) -> None:
        t1 = time.perf_counter()
        idx, parent, outer, t0 = token
        self.stack.pop()
        self.active_name[name] -= 1
        self.active_layer[layer] -= 1
        self.spans[idx] = (name, layer, t0, t1, parent, self.instance, note) + outer

    def wrap(self, name: str, layer: str, fn, note_of):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end(token, name, layer, type(exc).__name__)
                raise
            end(token, name, layer, note_of(result) if note_of else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS at every regulus binding of it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "regulus" or n.startswith("regulus.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"regulus.{layer}"]
            for name, note_of in functions.items():
                if name == "DiGraph":
                    # a class stays itself, so isinstance checks hold; wrap its constructor
                    cls = home.DiGraph
                    self._restore.append((cls, "__init__", cls.__init__))
                    cls.__init__ = self.wrap(name, layer, cls.__init__, None)
                    continue
                fn = getattr(home, name)
                traced = self.wrap(name, layer, fn, note_of)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, attr, fn))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tname\tlayer\tstart\tend\tparent\tinstance\tnote\n")
            for i, (name, layer, t0, t1, parent, inst, note, _, _) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{layer}\t{t0!r}\t{t1!r}\t{parent}\t{inst}\t{note}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def check_spans(spans: list[tuple], own: list[float]) -> float:
    """Check that every span lies inside its parent and belongs to its
    parent's instance, and that each instance's self times sum to its root
    span; returns the largest deviation of such a sum."""
    total: dict = {}
    for s, t in zip(spans, own):
        if s[4] >= 0:
            p = spans[s[4]]
            if not (p[2] <= s[2] <= s[3] <= p[3]) or p[5] != s[5]:
                raise AssertionError(f"span {s[0]} escapes its parent {p[0]}")
        elif s[0] != INSTANCE_SPAN:
            raise AssertionError(f"span {s[0]} has no instance span around it")
        total[s[5]] = total.get(s[5], 0.0) + t
    worst = 0.0
    for s in spans:
        if s[0] == INSTANCE_SPAN:
            worst = max(worst, abs(total[s[5]] - (s[3] - s[2])))
    if worst > 1e-6:
        raise AssertionError(f"self times miss their instance's traced time by {worst} s")
    return worst


def layer_metrics(spans: list[tuple], own: list[float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name: (value, unit)."""
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}  # outermost spans of each function
    layer_self: dict[str, float] = {}
    layer_outer: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    under_search: dict[str, list] = {}
    found = auto_calls_in_enum = refused = 0
    search_self = 0.0
    for s, t in zip(spans, own):
        name, layer, t0, t1, parent, _, note, outer_name, outer_layer = s
        calls[name] = calls.get(name, 0) + 1
        if outer_name:
            inclusive[name] = inclusive.get(name, 0.0) + t1 - t0
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        if outer_layer:
            layer_outer[layer] = layer_outer.get(layer, 0.0) + t1 - t0
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name == "search_covers":
            under_search.setdefault(name, []).append(note)
        if name == "enumerate_automatic_relations" and isinstance(note, int):
            found += note
        elif name == "is_automatic" and parent_name == "enumerate_automatic_relations":
            auto_calls_in_enum += 1
        elif name == "genus_exact" and note == "BudgetError":
            refused += 1
        elif name == "search_covers":
            search_self += t

    def ratio(a, b):
        return a / b if b else 0.0

    planar_tests = under_search.get("is_planar", [])
    candidates = len(under_search.get("weakly_connected", []))
    s, n, r = "s", "count", "ratio"
    m = {
        "formats.parse_s": (layer_outer.get("formats", 0.0), s),
        "formats.parse_calls": (layer_calls.get("formats", 0), n),
        "automaton.minimize_s": (inclusive.get("minimize", 0.0), s),
        "automaton.minimize_calls": (calls.get("minimize", 0), n),
        "automaton.cover_of_minimization_s": (inclusive.get("cover_of_minimization", 0.0), s),
        "automaton.from_cover_s": (inclusive.get("automaton_from_cover", 0.0), s),
        "automaton.languages_equal_s": (inclusive.get("languages_equal", 0.0), s),
        "relations.enumerate_s": (inclusive.get("enumerate_automatic_relations", 0.0), s),
        "relations.found": (found, n),
        "relations.is_automatic_calls": (calls.get("is_automatic", 0), n),
        "relations.automatic_hit_ratio": (ratio(found, auto_calls_in_enum), r),
        "relations.join_s": (inclusive.get("join", 0.0), s),
        "relations.meet_s": (inclusive.get("meet", 0.0), s),
        "relations.leq_s": (inclusive.get("relation_leq", 0.0), s),
        "relations.leq_calls": (calls.get("relation_leq", 0), n),
        "relations.quotient_s": (inclusive.get("quotient", 0.0), s),
        "relations.factorize_s": (inclusive.get("factorize", 0.0), s),
        "relations.roundtrip_s": (inclusive.get("automatic_to_mn_roundtrip", 0.0), s),
        "relations.maximum_s": (inclusive.get("maximum", 0.0), s),
        "relations.mn_refine_s": (inclusive.get("mn_refine", 0.0), s),
        "relations.mn_refine_calls": (calls.get("mn_refine", 0), n),
        "emulation.search_s": (inclusive.get("search_covers", 0.0), s),
        "emulation.search_self_s": (search_self, s),
        "emulation.candidates": (candidates, n),
        "emulation.candidates_per_s": (ratio(candidates, inclusive.get("search_covers", 0.0)), "1/s"),
        "emulation.planar_hit_ratio": (ratio(sum(1 for x in planar_tests if x is True), len(planar_tests)), r),
        "emulation.cover_checks": (calls.get("is_directed_cover", 0), n),
        "emulation.cover_check_s": (inclusive.get("is_directed_cover", 0.0), s),
        "genus.is_planar_s": (inclusive.get("is_planar", 0.0), s),
        "genus.is_planar_calls": (calls.get("is_planar", 0), n),
        "genus.genus_exact_s": (inclusive.get("genus_exact", 0.0), s),
        "genus.genus_exact_calls": (calls.get("genus_exact", 0), n),
        "genus.refused": (refused, n),
        "genus.trace_faces_s": (inclusive.get("trace_faces", 0.0), s),
        "genus.trace_faces_calls": (calls.get("trace_faces", 0), n),
        "digraph.digraphs_built": (calls.get("DiGraph", 0), n),
        "digraph.ops_s": (layer_outer.get("digraph", 0.0), s),
    }
    for layer in list(LAYERS) + ["bench"]:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), s)
    return m
