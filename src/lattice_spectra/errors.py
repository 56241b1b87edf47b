"""Exception types shared across the toolkit."""

from __future__ import annotations


class LatticeToolError(Exception):
    """Base class for every structured error raised by this package."""


class CyclicCovers(LatticeToolError):
    """The declared cover relation contains a cycle."""


class NotALattice(LatticeToolError):
    """Some pair of elements lacks a greatest lower or least upper bound."""

    def __init__(self, x, y, which: str):
        self.x = x
        self.y = y
        self.which = which
        super().__init__(f"no {which} for elements {x!r} and {y!r}")


class NotAHom(LatticeToolError):
    """A map between lattices fails to preserve meet or join."""

    def __init__(self, x, y, op: str):
        self.x = x
        self.y = y
        self.op = op
        super().__init__(f"map does not preserve {op} of {x!r} and {y!r}")


class CarrierTooLarge(LatticeToolError):
    """Exhaustive machinery refused to run beyond its size bound."""


class NotPairwiseBD(LatticeToolError):
    """Operation requires a pairwise Balbes-Dwinger space."""


class NotBDSpace(LatticeToolError):
    """Operation requires a Balbes-Dwinger topological space."""


class NotDoublyBD(LatticeToolError):
    """Operation requires a doubly Balbes-Dwinger space."""


class NotDisjoint(LatticeToolError):
    """Comaximal extension needs a disjoint ideal/filter pair."""


class EmptyInput(LatticeToolError):
    """A witness search was handed an empty generator set."""


class ParseError(LatticeToolError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownElement(LatticeToolError):
    def __init__(self, line: int, name: str):
        self.line = line
        self.name = name
        super().__init__(f"line {line}: unknown element {name!r}")


class MissingMapping(LatticeToolError):
    """A homomorphism file leaves some source element unmapped."""


class SizeBoundExceeded(LatticeToolError):
    """Exhaustive enumeration is only supported up to its documented bound."""
