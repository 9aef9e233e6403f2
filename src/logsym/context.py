"""Shared coordinate context for polynomials, forms and vector fields.

Every algebraic object in the package carries a :class:`VarContext` naming the
coordinates and marking which of them cut out the divisor at hand.  The
chart's ring inverts exactly the divisor coordinates, so on a coordinate
divisor it is the ring of functions on the complement U; a question about
a polynomial is asked in the chart's polynomial ring (:meth:`VarContext.polynomial`).
Mixing objects from different contexts is always a bug, so operations check
compatibility eagerly.
"""

from __future__ import annotations

from typing import Tuple


class ContextError(ValueError):
    pass


class VarContext:
    """Coordinate names and the sorted indices of the divisor coordinates;
    equal and hashed by those two, and never changed after it is built."""

    __slots__ = ("names", "divisor", "_index")

    def __init__(self, names: Tuple[str, ...], divisor: Tuple[int, ...] = ()):
        if len(set(names)) != len(names):
            raise ContextError("duplicate variable names: %r" % (names,))
        for name in names:
            if not name.isidentifier():
                raise ContextError("bad variable name %r" % name)
        div = tuple(sorted(set(divisor)))
        for i in div:
            if not 0 <= i < len(names):
                raise ContextError("divisor index %d out of range" % i)
        self.names = names
        self.divisor = div
        self._index = {n: i for i, n in enumerate(names)}

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and (
            (self.names, self.divisor) == (other.names, other.divisor)
        )

    def __hash__(self):
        return hash((self.names, self.divisor))

    def __repr__(self):
        return "VarContext(names=%r, divisor=%r)" % (self.names, self.divisor)

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

    laurent_ok = is_divisor_index  # a divisor coordinate is inverted

    def polynomial(self) -> "VarContext":
        """The chart's polynomial ring: none inverted (self if none is)."""
        return VarContext(self.names) if self.divisor else self

    def check_same(self, other: "VarContext"):
        if self is not other and self != other:
            raise ContextError(
                "mixed contexts: %r vs %r" % (self.describe(), other.describe())
            )

    def describe(self) -> str:
        return "vars=(%s) divisor={%s}" % (
            ", ".join(self.names),
            ", ".join(self.names[i] for i in self.divisor),
        )


def make_context(names, divisor_names=(), arena=None) -> VarContext:
    """arena is only for perfbench/workloads.py, which passes "torus" with
    divisor coordinates and "poly" without, until that file changes."""
    names = tuple(names)
    idx = {n: i for i, n in enumerate(names)}
    div = []
    for d in divisor_names:
        if d not in idx:
            raise ContextError("divisor variable %r not among %r" % (d, names))
        div.append(idx[d])
    if arena not in (None, "poly", "torus") or arena == "poly" and div:
        raise ContextError("a chart inverts its divisor coordinates: arena %r "
                           "with divisor %r" % (arena, tuple(divisor_names)))
    return VarContext(names, tuple(div))
