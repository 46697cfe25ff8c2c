"""Degree sequences: parsing, validation, and tree realizability."""


class _Value:
    """Immutable record of the fields that a subclass names, in order, as
    ``__slots__`` and ``__match_args__`` and sets with ``object.__setattr__``
    in its ``__init__``. Equality, hash, copies and pickles all go through
    ``__reduce__``, the class and its field values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


class DegreeSequenceError(ValueError):
    """Malformed degree sequence text or an invalid sequence."""


class NotTreeRealizableError(ValueError):
    """The degree sequence admits no tree."""


class DegreeSequence(_Value):
    """Non-increasing sequence of non-negative vertex degrees.

    Entry ``degrees[i]`` is the degree prescribed for vertex label ``i + 1``.
    """

    __slots__ = __match_args__ = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]):
        degrees = tuple(degrees)
        object.__setattr__(self, "degrees", degrees)
        if not degrees:
            raise DegreeSequenceError("degree sequence must be non-empty")
        for d in degrees:
            if not isinstance(d, int) or isinstance(d, bool):
                raise DegreeSequenceError(f"degree {d!r} is not an integer")
            if d < 0:
                raise DegreeSequenceError(f"degree {d} is negative")
        if any(a < b for a, b in zip(degrees, degrees[1:])):
            raise DegreeSequenceError(
                f"degrees must be non-increasing, got {degrees}"
            )

    @property
    def n(self) -> int:
        return len(self.degrees)

    def render(self) -> str:
        """Canonical text form: comma-separated, no spaces."""
        return ",".join(str(d) for d in self.degrees)


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse a comma- or whitespace-separated list of degrees.

    Surrounding brackets or parentheses are tolerated. The result is sorted
    into non-increasing order.
    """
    stripped = text.strip()
    if len(stripped) >= 2 and stripped[0] + stripped[-1] in ("[]", "()"):
        stripped = stripped[1:-1]
    tokens = stripped.replace(",", " ").split()
    if not tokens:
        raise DegreeSequenceError("empty degree sequence")
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise DegreeSequenceError(f"non-integer token {token!r}") from None
    return DegreeSequence(tuple(sorted(values, reverse=True)))


def is_tree_realizable(seq: DegreeSequence) -> bool:
    """True when at least one tree has exactly these vertex degrees.

    A single vertex of degree 0 is realizable (the one-vertex tree); for
    n >= 2 every degree must be at least 1 and the degrees must sum to
    2(n - 1).
    """
    if seq.n == 1:
        return seq.degrees[0] == 0
    return seq.degrees[-1] >= 1 and sum(seq.degrees) == 2 * (seq.n - 1)


def require_tree_realizable(seq: DegreeSequence) -> None:
    if not is_tree_realizable(seq):
        raise NotTreeRealizableError(
            f"no tree has degree sequence {seq.render()}"
        )
