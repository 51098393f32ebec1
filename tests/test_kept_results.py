"""A result kept on a value is a `cached_property` of a frozen dataclass:
neither the fields it was derived from nor the kept result itself can be
assigned, and each kept result equals the one computed on a fresh equal
value."""

import ast
import importlib
from dataclasses import FrozenInstanceError, fields
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import (
    AutomaticRelation,
    Automaton,
    DiGraph,
    GraphMorphism,
    SemiAutomaton,
    UndirectedGraph,
    enumerate_automatic_relations,
    factorize,
    forget,
    is_automatic,
    is_directed_cover,
    minimize,
    quotient,
    tautological,
)
from regulus.corpus import fork_nonemulator, z6_automaton
from regulus.digraph import IntView, ValidationReport

from conftest import (
    c2,
    random_complete_dfa,
    random_digraph,
    random_emulator,
    random_morphism_into,
    semi_automata,
)

ROOT = Path(__file__).resolve().parents[1]


def kept_names(cls: type) -> list[str]:
    """The names of the results a class keeps."""
    return sorted(
        name for k in cls.__mro__ for name, v in vars(k).items() if isinstance(v, cached_property)
    )


def keep_all(h):
    for name in kept_names(type(h)):
        getattr(h, name)
    return h


def holders() -> dict:
    """One value of each class that keeps results, and each value a quotient
    is born with (the quotient, its projection and the identity its
    factorization holds), with every result kept."""
    g = c2()
    r = AutomaticRelation.from_classes([["a", "b"]], [["e1", "e2"]])
    assert is_automatic(g, r).ok
    values = [g, forget(g), tautological(g), z6_automaton(), fork_nonemulator(), r]
    named = {type(h).__name__: h for h in values}
    q, can = quotient(g, r)
    named.update(quotient=q, projection=can, iota=factorize(can)[1])
    return {name: keep_all(h) for name, h in named.items()}


@pytest.mark.parametrize("holder", sorted(holders()))
def test_no_field_or_kept_result_can_be_assigned(holder):
    h = holders()[holder]
    assert set(kept_names(type(h))) <= vars(h).keys()
    for f in fields(h):  # nor can what a result is kept from be written to
        assert not isinstance(getattr(h, f.name), (dict, list, set))
    for name in [f.name for f in fields(h)] + kept_names(type(h)):
        before = getattr(h, name)
        with pytest.raises(FrozenInstanceError):
            setattr(h, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(h, name)
        assert getattr(h, name) is before


def test_a_kept_cover_verdict_cannot_be_forged():
    # writing the verdict kept on a morphism once made a non-cover a cover
    m = fork_nonemulator()
    assert not is_directed_cover(m).ok
    with pytest.raises(FrozenInstanceError):
        m._cover = ValidationReport(True)
    assert not is_directed_cover(m).ok


def test_the_contents_of_a_kept_result_cannot_be_written():
    # a star map or an integer view written through a private name once
    # changed what the graph answered while it still equalled a fresh copy
    g = DiGraph(["a", "b"], [("e", "a", "b")])
    with pytest.raises(TypeError):
        g._stars[0]["a"] = ()
    with pytest.raises(AttributeError):
        g.int_view.outs = ((), ())
    assert isinstance(g.int_view, IntView)
    assert g.out_edges("a") == ("e",) and g.int_view.outs == ((0,), ())


def fresh(h):
    """A value equal to h, built afresh from its constructor's inputs."""
    if isinstance(h, DiGraph):
        return DiGraph(h.vertices, h.edge_list())
    if isinstance(h, UndirectedGraph):
        return UndirectedGraph(h.vertices, h.edges.items())
    if isinstance(h, SemiAutomaton):
        return SemiAutomaton(fresh(h.graph), h.alphabet, h.labelling)
    if isinstance(h, Automaton):
        return Automaton(fresh(h.semi), h.initials, h.finals)
    if isinstance(h, GraphMorphism):
        return GraphMorphism(fresh(h.source), fresh(h.target), dict(h.p), dict(h.q))
    return AutomaticRelation(h.domain, h.vector)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), semi_automata(), st.data())
def test_each_kept_result_equals_a_fresh_one(rnd, semi, data):
    g = random_digraph(rnd, max_vertices=4, max_edges=6)
    a = random_complete_dfa(rnd, max_states=4)
    m = data.draw(st.sampled_from([random_emulator, random_morphism_into]))(rnd, g, max_fiber=2)
    keys = [rnd.randrange(3) for _ in range(len(g.vertices) + len(g.edges))]
    q, can = quotient(g, data.draw(st.sampled_from(enumerate_automatic_relations(g))))
    values = [g, forget(g), semi, a, minimize(a)[0], m, AutomaticRelation(g.int_view.domain, keys),
              q, can, can._factorization[1]]
    for h in values:
        names = kept_names(type(h))
        for name in data.draw(st.permutations(names)):
            getattr(h, name)
        other = fresh(h)
        assert other == h and other is not h
        for name in names:
            assert getattr(h, name) == getattr(other, name)


def test_every_class_that_keeps_a_result_is_a_frozen_dataclass():
    # a kept result stays sound only while nothing can assign to its holder
    holding, loose = set(), []
    for path in sorted((ROOT / "src" / "regulus").glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"regulus.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and kept_names(cls):
                holding.add(cls.__name__)
                params = vars(cls).get("__dataclass_params__")
                if not (params and params.frozen):
                    loose.append(cls.__name__)
    assert {"DiGraph", "UndirectedGraph", "GraphMorphism", "SemiAutomaton", "Automaton",
            "AutomaticRelation", "PlanarityReport"} <= holding
    assert loose == []


BUILDERS = {"relations._built", "relations.quotient"}  # the only callers of digraph._born


def born_calls() -> list[tuple[str, ast.Call]]:
    """Each call in src/regulus that builds a value bypassing its
    constructor, by `digraph._born` or by `object.__new__` and
    `vars(x).update`, with the function it is in."""
    calls = []
    for path in sorted((ROOT / "src" / "regulus").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                raw = isinstance(f, ast.Attribute) and (
                    (f.attr == "__new__" and getattr(f.value, "id", None) == "object")
                    or (f.attr == "update" and getattr(getattr(f.value, "func", None), "id", None)
                        == "vars"))
                if raw or getattr(f, "id", None) == "_born":
                    calls.append((f"{path.stem}.{getattr(top, 'name', '')}", node))
    return calls


def test_only_the_named_builders_bypass_a_constructor():
    # a value built without its constructor is sound only while its builder
    # makes what it is born with agree; so few places may do it
    calls = born_calls()
    raw = {where for where, call in calls if getattr(call.func, "id", None) != "_born"}
    assert raw == {"digraph._born"}
    assert {where for where, call in calls if where != "digraph._born"} == BUILDERS


def test_every_born_name_is_a_field_or_a_kept_result():
    # what a builder hands a value is one of its fields, or a result the
    # value would compute and keep itself, so a fresh copy can recompute it
    import regulus

    born = [call for where, call in born_calls() if where in BUILDERS]
    assert len(born) == 4
    for call in born:
        cls = getattr(regulus, call.args[0].id)
        names = {k.arg for k in call.keywords}
        allowed = {f.name for f in fields(cls)} | set(kept_names(cls))
        assert None not in names and names <= allowed, (cls.__name__, names - allowed)
        assert {f.name for f in fields(cls)} <= names, cls.__name__
