"""The slot setters of the value types, and subclasses of a value type.

Every value type's ``__init__`` sets its fields through ``cls._setters``,
the ``__set__`` of each field's slot in field order. A subclass of a value
type keeps the fields of its bases, base classes first.
"""

import gc

import pytest

from spirality import Edge

from test_values import IDS, SAMPLES


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_one_setter_per_field(cls, values):
    assert len(cls._setters) == len(cls._fields)
    built = object.__new__(cls)
    for setter, value in zip(cls._setters, values):
        setter(built, value)
    assert built == cls(*values)
    assert repr(built) == repr(cls(*values))


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
