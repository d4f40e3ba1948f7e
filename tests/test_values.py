"""The contract of the package's value types.

Each value is immutable, equal to and hashing like another value of its
class with equal fields, never equal to a tuple of its fields or to a value
of another class with the same fields, and has the repr of a dataclass with
those fields. The checks compare against a dataclass built here with the
same name and fields, so they describe the behaviour the types had when
they were dataclasses.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from spirality import (Crossing, Diagnostic, DirectedCycle, Edge, FlowManifest,
                       LoopItinerary, ParsedManifest, Piece, PieceBoundary, PieceType,
                       Side, Slope, SpiralityCharacter, Torus, TwistFamilyInstance,
                       TwistFamilyParams, Vertex, VertexKind)
from spirality.cli import Report
from spirality.errors import Value
from spirality.flow import FlowFactors
from spirality.manifest import FdtcInput

SLOPE = Slope((1, 2))
BOUNDARY = PieceBoundary("b", "T", SLOPE, Fraction(3, 2))
CROSSING = Crossing("T", Slope((0, 1), 2), Side.MINUS)
CYCLE = DirectedCycle((("e1", 1), ("e2", -1)))

# One instance of every value type, with its fields in order.
SAMPLES = [
    (Diagnostic, ("error", "DanglingEdge", "edge 'e' references missing vertex 'x'")),
    (Slope, ((3, -1), 2)),
    (Vertex, ("v", VertexKind.ELEMENTARY_BAND, False, 2)),
    (Edge, ("e", "u", "v", 2, 3, -1)),
    (DirectedCycle, ((("e1", 1), ("e2", -1)),)),
    (SpiralityCharacter, (frozenset({"e2"}), (Fraction(2, 3),), ("e1",), (("v", -1),),
                          CYCLE)),
    (PieceBoundary, ("b", "T", SLOPE, Fraction(3, 2))),
    (Piece, ("P", PieceType.SEIFERT, (BOUNDARY,))),
    (Torus, ("T", ("P", "b"), ("Q", "c"), "(l, e)")),
    (Crossing, ("T", SLOPE, Side.PLUS)),
    (LoopItinerary, ((CROSSING,),)),
    (FlowFactors, (((1, 2),), ((3, 4),), ("P",))),
    (FdtcInput, (Slope((1, 1)), Slope((1, 0)), Slope((0, 1)), 2)),
    (ParsedManifest, (None, None, LoopItinerary((CROSSING,)), None, Fraction(1, 2),
                      ("unknown field",),
                      (Diagnostic("error", "NonPositiveH", "edge 'e' has non-positive h (0, 1)"),))),
    (TwistFamilyParams, (1, 2, 3, 4, 3, 5)),
    (TwistFamilyInstance, (FlowManifest([], []), LoopItinerary((CROSSING,)),
                           Fraction(5, 7), Slope((1, 1)), Slope((1, 0)), Slope((0, 1)))),
    (Report, ("rw", "sha256:00", [("spirality", "3/2", None)], ["a warning"])),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def test_samples_cover_every_value_type():
    # spirality.cli, imported above, loads every module of the package
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    assert found == {cls for cls, _ in SAMPLES}


def _twin(cls, values):
    """A value of the dataclass with the class's name and fields."""
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=cls is not Report)
    twin.__qualname__ = cls.__qualname__
    return twin(*values)


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
class TestContract:
    def test_fields_are_the_constructor_arguments(self, cls, values):
        value = cls(*values)
        assert tuple(getattr(value, name) for name in cls._fields) == values

    def test_assignment_raises(self, cls, values):
        value = cls(*values)
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in cls._fields) == values

    def test_equal_fields_make_equal_values(self, cls, values):
        value, same = cls(*values), cls(*values)
        assert value == same and not value != same
        if cls is Report:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(same) == hash(_twin(cls, values))

    def test_never_equal_to_a_tuple_or_another_class(self, cls, values):
        value = cls(*values)
        assert value != values and values != value
        assert value != _twin(cls, values) and _twin(cls, values) != value
        assert value != object()

    def test_repr_is_the_dataclass_repr(self, cls, values):
        assert repr(cls(*values)) == repr(_twin(cls, values))

    def test_copies_are_equal(self, cls, values):
        value = cls(*values)
        assert copy.copy(value) == value
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            # deep copies hold new FlowManifests, which compare by identity
            assert type(copied) is cls and repr(copied) == repr(value)


def test_reprs():
    assert repr(Slope((1, 2))) == "Slope(vector=(1, 2), multiplicity=1)"
    assert (repr(Crossing("T", Slope((0, 1)), "minus"))
            == "Crossing(torus='T', curve=Slope(vector=(0, 1), multiplicity=1), "
               "from_side=<Side.MINUS: 'minus'>)")
    assert repr(Piece("P", "seifert", [])) == (
        "Piece(id='P', type=<PieceType.SEIFERT: 'seifert'>, boundaries=())")


def test_one_field_changes_equality():
    assert Edge("e", "u", "v", 2, 3) != Edge("e", "u", "v", 2, 3, -1)
    assert Slope((1, 2)) != Slope((1, 2), 2)


def test_defaults():
    assert Vertex("v") == Vertex("v", VertexKind.HORIZONTAL, True, 0)
    assert Edge("e", "u", "v", 1, 1).omega == 1
    assert Torus("T", ("P", "b"), ("Q", "c")).frame == ""
    assert Slope((1, 0)).multiplicity == 1
    assert TwistFamilyParams(1, 1, 1, 2, 1).d == 1
    assert ParsedManifest() == ParsedManifest(None, None, None, None, None, (), ())
    first, second = Report("rw", ""), Report("rw", "")
    first.add("row", "1")
    first.warn("careful")
    assert second.results == [] and second.warnings == []


def test_keyword_arguments():
    assert (Torus("T", plus=("P", "b"), minus=("Q", "c"), frame="f")
            == Torus("T", ("P", "b"), ("Q", "c"), "f"))
    assert (TwistFamilyParams(k=1, p=2, q=3, r_minus=4, r_plus=3, d=2)
            == TwistFamilyParams(1, 2, 3, 4, 3, 2))


def test_parsed_manifest_replace():
    parsed = ParsedManifest(loop=LoopItinerary((CROSSING,)), expected=Fraction(2))
    other = LoopItinerary((Crossing("T", SLOPE, Side.PLUS),))
    changed = parsed.replace(loop=other)
    assert changed.loop is other
    assert changed.expected == Fraction(2) and changed.warnings == ()
    assert parsed.loop == LoopItinerary((CROSSING,))
    with pytest.raises(TypeError):
        parsed.replace(graph_section=None)


class TestValidation:
    def test_slope(self):
        for vector in ((0, 0), (2, 4), (-3, 0)):
            with pytest.raises(ValueError):
                Slope(vector)
        with pytest.raises(ValueError):
            Slope((1, 0), 0)
        with pytest.raises(ValueError):
            Slope((1, 2, 3))
        with pytest.raises(ValueError):
            Slope.of(0, 0)
        with pytest.raises(ValueError):
            Slope.of(1, 1, 0)
        assert Slope.of(4, -6, 2) == Slope((2, -3), 4)
        assert Slope.of(0, -3) == Slope((0, -1), 3)

    def test_vertex(self):
        assert Vertex("v", "elementary_band").kind is VertexKind.ELEMENTARY_BAND
        with pytest.raises(ValueError):
            Vertex("v", "vertical")

    def test_piece(self):
        piece = Piece("P", "pseudo_anosov", [BOUNDARY])
        assert piece.type is PieceType.PSEUDO_ANOSOV
        assert piece.boundaries == (BOUNDARY,)
        with pytest.raises(ValueError):
            Piece("P", "hyperbolic", [])
        with pytest.raises(TypeError):
            Piece("P", PieceType.SEIFERT, None)

    def test_crossing(self):
        assert Crossing("T", SLOPE, "plus").from_side is Side.PLUS
        with pytest.raises(ValueError):
            Crossing("T", SLOPE, "up")

    def test_loop_itinerary(self):
        assert LoopItinerary([CROSSING]).crossings == (CROSSING,)
        assert LoopItinerary(c for c in [CROSSING]).crossings == (CROSSING,)
        with pytest.raises(ValueError):
            LoopItinerary([])
        with pytest.raises(TypeError):
            LoopItinerary(None)

    def test_directed_cycle(self):
        assert DirectedCycle([["e", 1], ("f", -1)]).steps == (("e", 1), ("f", -1))
        assert DirectedCycle([]).steps == ()
        with pytest.raises(TypeError):
            DirectedCycle(5)
        with pytest.raises(TypeError):
            DirectedCycle([5])
