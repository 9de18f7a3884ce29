"""Gapsets and m-extensions: classification plus the four basic invariants.

A *gapset* is a finite set G of positive integers such that whenever
z in G is written as z = x + y with positive x, y, at least one of x, y
lies in G.  An *m-extension* (m > 1) is a finite set that contains
1 .. m-1, contains no multiple of m, and where every element above m also
has its predecessor a - m in the set.  Every gapset whose smallest missing
positive integer is m is an m-extension; the converse fails.

Classification returns either the classified object or a small rejection
record carrying a deterministic witness, so negative verdicts are as
informative (and as testable) as positive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "GapSet",
    "GapsetRejection",
    "MExtension",
    "MExtensionRejection",
    "as_elements",
    "classify_gapset",
    "classify_m_extension",
    "invariants",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def as_elements(values: Iterable[int]) -> tuple[int, ...]:
    """Canonical strictly increasing tuple of positive integers.

    Rejects non-positive entries and duplicates.
    """
    elems = sorted(values)
    for i, v in enumerate(elems):
        if v < 1:
            raise ValueError(f"set elements must be positive integers, got {v}")
        if i and elems[i - 1] == v:
            raise ValueError(f"repeated element {v}")
    return tuple(elems)


def invariants(elements: Sequence[int]) -> tuple[int, int, int, int]:
    """(genus, multiplicity, conductor, depth) of an ascending set.

    genus: number of elements; multiplicity: least positive integer not in
    the set; conductor: largest element + 1 (0 when empty); depth:
    ceil(conductor / multiplicity).
    """
    members = set(elements)
    mult = 1
    while mult in members:
        mult += 1
    conductor = elements[-1] + 1 if elements else 0
    return len(elements), mult, conductor, _ceil_div(conductor, mult)


@dataclass(frozen=True)
class GapSet:
    """A classified gapset with its `invariants`."""

    elements: tuple[int, ...]
    genus: int
    multiplicity: int
    conductor: int
    depth: int


@dataclass(frozen=True)
class GapsetRejection:
    """Witness z = x + y with neither summand in the set.

    z is the smallest violating element and x the smallest summand for
    that z, so the witness is deterministic.
    """

    z: int
    x: int
    y: int

    def __str__(self) -> str:
        return f"not a gapset: {self.z} = {self.x} + {self.y} with neither summand in the set"


@dataclass(frozen=True)
class MExtension:
    elements: tuple[int, ...]
    modulus: int
    genus: int
    conductor: int
    depth: int


@dataclass(frozen=True)
class MExtensionRejection:
    """Names the violated m-extension condition and the smallest witness element."""

    reason: str  # "missing-base" | "multiple-of-modulus" | "missing-predecessor"
    witness: int

    def __str__(self) -> str:
        msg = {
            "missing-base": f"element {self.witness} of the base interval is missing",
            "multiple-of-modulus": f"element {self.witness} is a multiple of the modulus",
            "missing-predecessor": f"element {self.witness} lacks its predecessor one modulus below",
        }
        return f"not an m-extension: {msg[self.reason]}"


def classify_gapset(values: Iterable[int]) -> Union[GapSet, GapsetRejection]:
    """Run the definitional sum-split check and compute the invariants.

    The check is performed pairwise on the elements themselves (never via
    Kunz coordinates), which keeps it usable as an independent oracle for
    the coordinate-based predicate.
    """
    elems = as_elements(values)
    members = frozenset(elems)
    for z in elems:  # ascending, so the first hit is the smallest z
        for x in range(1, z // 2 + 1):
            if x not in members and (z - x) not in members:
                return GapsetRejection(z, x, z - x)
    return GapSet(elems, *invariants(elems))


def classify_m_extension(values: Iterable[int], m: int) -> Union[MExtension, MExtensionRejection]:
    """Check the three m-extension conditions, in a fixed order.

    Conditions (each reported with its smallest witness): the base interval
    1 .. m-1 must be contained in the set; no element may be divisible by
    m; every element above m must have its predecessor a - m present.
    """
    if m < 2:
        raise ValueError(f"modulus must be > 1, got {m}")
    elems = as_elements(values)
    members = frozenset(elems)
    for i in range(1, m):
        if i not in members:
            return MExtensionRejection("missing-base", i)
    for a in elems:
        if a % m == 0:
            return MExtensionRejection("multiple-of-modulus", a)
    for a in elems:
        if a > m and (a - m) not in members:
            return MExtensionRejection("missing-predecessor", a)
    genus = len(elems)
    conductor = elems[-1] + 1
    return MExtension(elems, m, genus, conductor, _ceil_div(conductor, m))
