"""Knot concordance invariants from cyclic branched covers.

Exact Levine-Tristram signatures at prime-order roots of unity, branched
cover Betti-number arithmetic, the delta -> xi -> theta invariant pipeline
over ingested equivariant d-invariant data, a bound-propagation inference
engine, and genus lower bounds for surfaces in definite 4-manifolds.
"""

__version__ = "0.1.0"


class DataError(Exception):
    """Mixin of the errors that bad data, not bad usage, raises: a ledger,
    Seifert matrix, cover or genus-bound hypothesis that cannot hold, or a
    query the inference engine refuses.  The command line reports each one
    on a single line with exit code 2."""


class Record:
    """Base of the package's records: plain classes with ``__slots__``.

    A record's fields are the names in the ``__slots__`` of its classes,
    base first, apart from names starting with ``_``: such a slot holds what
    is derived from the fields, and takes no part in printing, equality or
    hashing.  A record prints as ``Name(field=value, ...)`` and equals a
    record of the same class whose fields are equal.  A class declared with
    ``frozen=True`` sets its fields once, through ``_assign``; after that an
    assignment or deletion raises AttributeError, and the record hashes its
    fields.  Any other record is unhashable.  (``dataclasses`` would give
    the same, but importing it loads ``inspect`` and ``ast``: about 1 MiB
    and 7-11 ms in every process, on CPython 3.11 on a 2-CPU x86-64 VM.)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ())
                            if not name.startswith("_"))
        if frozen:
            cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
            cls.__hash__ = lambda self: hash(self._values())

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
