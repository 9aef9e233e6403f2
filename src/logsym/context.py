"""Shared coordinate context for polynomials, forms and vector fields.

Every algebraic object in the package carries a :class:`VarContext` naming the
coordinates, marking which of them cut out the divisor at hand, and fixing the
*arena*: ``"poly"`` for honest polynomial exponents, ``"torus"`` when the
divisor coordinates may also appear with negative exponents (functions on the
complement of a normal-crossing divisor in a torus chart).  Mixing objects
from different contexts is always a bug, so operations check compatibility
eagerly.
"""

from __future__ import annotations

from typing import Tuple

POLY = "poly"
TORUS = "torus"


class ContextError(ValueError):
    pass


class VarContext:
    """Coordinate names, the sorted indices of the divisor coordinates and
    the arena; equal and hashed by those three, and never changed after it
    is built."""

    __slots__ = ("names", "divisor", "arena", "_index")

    def __init__(self, names: Tuple[str, ...], divisor: Tuple[int, ...] = (),
                 arena: str = POLY):
        if len(set(names)) != len(names):
            raise ContextError("duplicate variable names: %r" % (names,))
        for name in names:
            if not name.isidentifier():
                raise ContextError("bad variable name %r" % name)
        if arena not in (POLY, TORUS):
            raise ContextError("unknown arena %r" % arena)
        div = tuple(sorted(set(divisor)))
        for i in div:
            if not 0 <= i < len(names):
                raise ContextError("divisor index %d out of range" % i)
        self.names = names
        self.divisor = div
        self.arena = arena
        self._index = {n: i for i, n in enumerate(names)}

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and (
            (self.names, self.divisor, self.arena)
            == (other.names, other.divisor, other.arena)
        )

    def __hash__(self):
        return hash((self.names, self.divisor, self.arena))

    def __repr__(self):
        return "VarContext(names=%r, divisor=%r, arena=%r)" % (
            self.names, self.divisor, self.arena)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError("unknown variable %r" % name) from None

    def is_divisor_index(self, i: int) -> bool:
        return i in self.divisor

    def laurent_ok(self, i: int) -> bool:
        """Whether coordinate i may carry negative exponents."""
        return self.arena == TORUS and i in self.divisor

    def check_same(self, other: "VarContext"):
        if self is not other and self != other:
            raise ContextError(
                "mixed contexts: %r vs %r" % (self.describe(), other.describe())
            )

    def describe(self) -> str:
        return "vars=(%s) divisor={%s} arena=%s" % (
            ", ".join(self.names),
            ", ".join(self.names[i] for i in self.divisor),
            self.arena,
        )


def make_context(names, divisor_names=(), arena: str = POLY) -> VarContext:
    names = tuple(names)
    idx = {n: i for i, n in enumerate(names)}
    div = []
    for d in divisor_names:
        if d not in idx:
            raise ContextError("divisor variable %r not among %r" % (d, names))
        div.append(idx[d])
    return VarContext(names, tuple(div), arena)
