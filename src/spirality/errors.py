"""Exception hierarchy, the base of the value types and the diagnostic value
type, shared across modules."""


class SpiralityError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(SpiralityError):
    """A manifest file could not be parsed or violates the schema.

    ``line`` and ``column`` are set for syntax errors; schema errors carry
    the offending field path in the message instead.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "%s (line %d, column %d)" % (base, self.line, self.column)
        return base


class InvalidData(SpiralityError):
    """Data refused where it is built, for structural errors: ``diagnostics``
    holds them, then the data's warnings; the message joins the errors."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics if d.is_error))


class Value:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__``: no value has a cache
    slot, and this class's ``__weakref__`` is the only slot that is not a
    field. Its fields are those of every class in its MRO, base classes
    first, and ``_setters`` holds the ``__set__`` of each field's slot, in
    the same order. ``__init__`` takes one value per field, in field
    order, and sets each through its setter, past the ``__setattr__`` that
    refuses assignment; any other count is a TypeError. A subclass's own
    ``__init__`` only applies its defaults, conversions and checks, then
    calls this one. Where that work is already done, the package may build
    a value with ``object.__new__`` and set every field through
    ``_setters`` itself, from fields it has checked (as ``Slope.of``, the
    manifest readers and ``decorate_from_flow`` do); such a value is the
    one its constructor would build.
    Values are equal, and hash alike, when they are of one class and their
    fields are equal; the repr lists the fields. Values can be weakly
    referenced, copied and pickled.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ())
                            if name[0] != "_")
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError("%s takes %d values, got %d"
                            % (type(self).__qualname__, len(setters), len(values)))
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        # copy and pickle rebuild the value through __init__, not setattr
        return type(self), self._astuple()


ERROR = "error"
WARNING = "warning"


class Diagnostic(Value):
    """One validation finding. Diagnostics are values, not exceptions."""

    __slots__ = ("severity", "code", "message")

    @property
    def is_error(self):
        return self.severity == ERROR

    def __str__(self):
        return "%s: %s: %s" % (self.severity, self.code, self.message)


def error(code, message):
    return Diagnostic(ERROR, code, message)


def warning(code, message):
    return Diagnostic(WARNING, code, message)


UNHASHABLE_ID = "UnhashableId"


def unhashable_ids(fields):
    """An error for each (record, field, value) whose value cannot key an
    index, such as a list given for an id."""
    out = []
    for record, field, value in fields:
        try:
            hash(value)
        except TypeError:
            out.append(error(UNHASHABLE_ID, "%s has unhashable %s %r" % (record, field, value)))
    return out
