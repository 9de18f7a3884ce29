"""Apery sets and Kunz coordinates for m-extensions, and the inequality system.

Each residue class i in 1 .. m-1 of an m-extension is a run i, i+m, ...,
so the extension is pinned down by how many elements each class holds.
Those per-class counts are the (pseudo) Kunz coordinates; the map between
extensions and positive coordinate vectors is a bijection, realized here
by `pseudo_kunz` and `from_kunz`.

A positive vector is the coordinate vector of a *gapset* exactly when it
satisfies, for all 1 <= i <= j <= m-1:

    k_i + k_j     >= k_(i+j)      when i + j < m
    k_i + k_j + 1 >= k_(i+j-m)    when i + j > m

Pairs with i + j == m generate no constraint (there is no coordinate at
residue 0); including one is a classic off-by-one and changes counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import MExtension

__all__ = [
    "AperySet",
    "KunzVector",
    "coords_violation",
    "from_kunz",
    "kunz_elements",
    "kunz_system_violation",
    "pseudo_apery",
    "pseudo_kunz",
    "satisfies_kunz_system",
]


@dataclass(frozen=True)
class AperySet:
    """Per-residue values w, with w[0] = 0 and w[i] = modulus + (largest
    element congruent to i)."""

    modulus: int
    w: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be > 1")
        if len(self.w) != self.modulus or self.w[0] != 0:
            raise ValueError("w must have one entry per residue, starting with 0")


@dataclass(frozen=True)
class KunzVector:
    """Positive coordinates (k_1, ..., k_(m-1)) with modulus m."""

    modulus: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be > 1")
        if len(self.coords) != self.modulus - 1:
            raise ValueError(
                f"expected {self.modulus - 1} coordinates for modulus {self.modulus}, "
                f"got {len(self.coords)}"
            )
        if min(self.coords) < 1:
            raise ValueError("all coordinates must be positive")

    @property
    def genus(self) -> int:
        return sum(self.coords)

    @property
    def depth(self) -> int:
        return max(self.coords)


def pseudo_apery(ext: MExtension) -> AperySet:
    """Apery-style values of an m-extension: residue-class maxima shifted by m."""
    m = ext.modulus
    best = [0] * m
    for a in ext.elements:
        r = a % m
        if a > best[r]:
            best[r] = a
    return AperySet(m, (0,) + tuple(m + best[i] for i in range(1, m)))


def pseudo_kunz(ext: MExtension) -> KunzVector:
    """Kunz coordinates of an m-extension: element count per residue class.

    Equivalently k_i = (w_i - i) / m for the `pseudo_apery` values w.
    """
    m = ext.modulus
    counts = [0] * m
    for a in ext.elements:
        counts[a % m] += 1
    return KunzVector(m, tuple(counts[1:]))


def kunz_elements(coords: Sequence[int]) -> tuple[int, ...]:
    """The elements, ascending, of the m-extension with coordinates (k_1, ..., k_(m-1)),
    m = len(coords) + 1: residue class i is the run i, i+m, ..., i+(k_i - 1)m."""
    if coords and min(coords) < 1:
        raise ValueError("all coordinates must be positive")
    m, elements = len(coords) + 1, []
    for i, k in enumerate(coords, start=1):
        elements += range(i, i + k * m, m)  # the whole run at C speed
    return tuple(sorted(elements))


def from_kunz(v: KunzVector) -> MExtension:
    """The unique m-extension with the given coordinates; genus sum(coords), depth max(coords)."""
    elements = kunz_elements(v.coords)
    return MExtension(elements, v.modulus, len(elements), elements[-1] + 1, max(v.coords))


def coords_violation(coords: Sequence[int]) -> Optional[tuple[int, int]]:
    """First (lexicographically least) pair (i, j) violating the system, or None.

    Operates on a raw coordinate sequence so enumeration loops can call it
    without wrapping every candidate in a KunzVector.
    """
    m = len(coords) + 1
    for i in range(1, m):
        ki = coords[i - 1]
        for j in range(i, m):
            s = i + j
            if s < m:
                if ki + coords[j - 1] < coords[s - 1]:
                    return (i, j)
            elif s > m:
                if ki + coords[j - 1] + 1 < coords[s - m - 1]:
                    return (i, j)
            # s == m: no residue-0 coordinate, no constraint
    return None


def kunz_system_violation(v: KunzVector) -> Optional[tuple[int, int]]:
    return coords_violation(v.coords)


def satisfies_kunz_system(v: KunzVector) -> bool:
    """Whether the coordinates come from a gapset."""
    return coords_violation(v.coords) is None
