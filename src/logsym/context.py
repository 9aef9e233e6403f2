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

from dataclasses import dataclass, field
from typing import Tuple

POLY = "poly"
TORUS = "torus"


class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class VarContext:
    names: Tuple[str, ...]
    divisor: Tuple[int, ...] = ()  # sorted indices of divisor coordinates
    arena: str = POLY
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ContextError("duplicate variable names: %r" % (self.names,))
        for name in self.names:
            if not name.isidentifier():
                raise ContextError("bad variable name %r" % name)
        if self.arena not in (POLY, TORUS):
            raise ContextError("unknown arena %r" % self.arena)
        div = tuple(sorted(set(self.divisor)))
        for i in div:
            if not 0 <= i < len(self.names):
                raise ContextError("divisor index %d out of range" % i)
        object.__setattr__(self, "divisor", div)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

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
