"""How the value types set their fields.

``errors.Value.__init__`` takes one value per field and sets each through
``cls._setters``, the ``__set__`` of each field's slot in field order; a
value type's own ``__init__`` only does its defaults, conversions and
checks before it calls that one. The per-record builders (the manifest
readers and ``decorate_from_flow``) set the same setters themselves and call
no constructor. A subclass of a value type keeps the fields of its bases,
base classes first.
"""

import gc
import random
from collections import Counter

import pytest

from spirality import (Crossing, Edge, ParsedManifest, PieceBoundary, Torus,
                       TwistFamilyParams, Vertex, decorate_from_flow, dumps_manifest,
                       gen_twist_family, parse_manifest)
from spirality.errors import Value
from spirality.flow import validate_itinerary

from test_golden import _long_loop
from test_values import IDS, SAMPLES
from util import random_path_graph


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_one_setter_per_field(cls, values):
    assert len(cls._setters) == len(cls._fields)
    built = object.__new__(cls)
    for setter, value in zip(cls._setters, values):
        setter(built, value)
    assert built == cls(*values)
    assert repr(built) == repr(cls(*values))


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_one_value_too_many_is_refused(cls, values):
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls.__init__ is Value.__init__:
        with pytest.raises(TypeError, match=r"^%s takes %d values, got %d$"
                           % (cls.__qualname__, len(values), len(values) - 1)):
            cls(*values[:-1])


def _constructor_calls(monkeypatch, function, *args):
    """The number of values of each class that ``function(*args)`` builds
    through ``Value.__init__``, and what it returns."""
    calls, init = Counter(), Value.__init__

    def counted(self, *values):
        calls[type(self)] += 1
        init(self, *values)

    with monkeypatch.context() as patch:
        patch.setattr(Value, "__init__", counted)
        return calls, function(*args)


def _twist_calls(monkeypatch, d):
    """Constructor calls of the parse of a d-fold twist elevation, and of
    the decoration of its loop."""
    twist = gen_twist_family(TwistFamilyParams(k=3, p=5, q=7, r_minus=4, r_plus=1, d=d))
    text = dumps_manifest(flow_manifest=twist.manifest, loop=twist.loop)
    parse, parsed = _constructor_calls(monkeypatch, parse_manifest, text)
    diagnostics, factors = validate_itinerary(parsed.loop, parsed.flow)
    assert diagnostics == []
    decorate, _ = _constructor_calls(monkeypatch, decorate_from_flow, factors, parsed.flow)
    return parse, decorate


def test_no_per_record_path_calls_a_constructor(monkeypatch):
    loop = _long_loop()
    graph = dumps_manifest(graph=random_path_graph(random.Random(18), n_vertices=40,
                                                   n_extra=81))
    counts = [*_twist_calls(monkeypatch, 350),
              _constructor_calls(monkeypatch, parse_manifest, loop)[0],
              _constructor_calls(monkeypatch, parse_manifest, graph)[0]]
    for calls in counts:
        for cls in (Crossing, PieceBoundary, Torus, Vertex, Edge):
            assert calls[cls] == 0
    # the counter sees the values the parse builds through a constructor
    assert counts[-1] == Counter({ParsedManifest: 1})
    total = [sum(calls.values()) for calls in (*_twist_calls(monkeypatch, 35), *counts[:2])]
    assert total[:2] == total[2:]


def _check_subclasses():
    class Sub(Edge):
        __slots__ = ()

    class Tagged(Edge):
        __slots__ = ("tag",)

    assert Sub._fields == Edge._fields
    assert Tagged._fields == Edge._fields + ("tag",)
    assert len(Tagged._setters) == len(Tagged._fields)
    one, other = Sub("e", "u", "v", 1, 2), Sub("f", "x", "y", 3, 4)
    assert one != other and hash(one) != hash(other)
    assert one == Sub("e", "u", "v", 1, 2) and hash(one) == hash(Sub("e", "u", "v", 1, 2))
    assert one != Edge("e", "u", "v", 1, 2)
    assert repr(one) == ("_check_subclasses.<locals>.Sub(id='e', from_vertex='u', "
                         "to_vertex='v', h_ini=1, h_ter=2, omega=1)")
    for name in Edge._fields:
        with pytest.raises(AttributeError):
            setattr(one, name, None)
    assert one._astuple() == ("e", "u", "v", 1, 2, 1)


def test_a_subclass_keeps_the_fields_of_its_base():
    _check_subclasses()
    # test_values requires its samples to cover every subclass of Value, so
    # the classes made here are collected before it runs
    gc.collect()
