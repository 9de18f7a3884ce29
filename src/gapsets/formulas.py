"""Closed-form counts and bounds for gapsets by genus, depth, multiplicity.

Three piecewise formulas (multiplicity 3, multiplicity 4, and the
depth-only cases that are known in closed form), a Padovan-Fibonacci lower
bound for the depth-<=3 census, a family of upper bounds on the full
census, and the depth window implied by genus and multiplicity.

Every boundary test between piecewise cases is an exact rational
comparison done with integer cross-multiplication; no floating point is
involved anywhere, so branch selection at boundaries like q = 2g/5 is
bit-exact.  Outside a formula's validated domain the answer is a
`not-covered` marker, never an extrapolation: small-genus values that the
formulas do not reach are the census's job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .sequences import fibonacci, fibonacci_k, padovan

__all__ = [
    "DepthWindow",
    "FormulaAnswer",
    "depth_window",
    "f_gq",
    "f_gq3",
    "f_gq4",
    "lower_bound_depth3",
    "upper_bound_ng",
    "upper_bound_ng_closedN",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class FormulaAnswer:
    """A count plus the piecewise branch that produced it.

    value is None when the arguments fall outside the formula's validated
    domain; branch then says why.
    """

    value: Optional[int]
    branch: str

    @property
    def covered(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class DepthWindow:
    """Depths a gapset of given genus and multiplicity can have: [lo, hi]."""

    lo: int
    hi: int


def f_gq3(g: int, q: int) -> FormulaAnswer:
    """Gapsets of genus g, depth q, multiplicity 3 (valid for g >= 2)."""
    if g < 2 or q < 1:
        return FormulaAnswer(None, "outside-domain")
    if 2 * q < g:
        return FormulaAnswer(0, "q<g/2")
    if 2 * q == g:
        return FormulaAnswer(1, "q=g/2")
    if 3 * q <= 2 * g:
        return FormulaAnswer(2, "(g+1)/2<=q<=2g/3")
    if 3 * q == 2 * g + 1:
        return FormulaAnswer(1, "q=(2g+1)/3")
    return FormulaAnswer(0, "q>(2g+1)/3")


def f_gq4(g: int, q: int) -> FormulaAnswer:
    """Gapsets of genus g, depth q, multiplicity 4 (valid for g >= 7).

    Cases are tried in their stated order.  At g = 8, q = 4 the boundaries
    q = (2g+4)/5 and q = g/2 coincide; that point belongs to the q = g/2
    case (value 6), so the (2g+4)/5 case is gated on g != 8.
    """
    if g < 7 or q < 1:
        return FormulaAnswer(None, "outside-domain")
    if 3 * q < g:
        return FormulaAnswer(0, "q<g/3")
    if 3 * q == g:
        return FormulaAnswer(1, "q=g/3")
    if 5 * q <= 2 * g:
        return FormulaAnswer(3 * (3 * q - g), "g/3<q<=2g/5")
    if 5 * q == 2 * g + 1:
        return FormulaAnswer((3 * g + 4) // 5, "q=(2g+1)/5")
    if 5 * q == 2 * g + 2:
        return FormulaAnswer((3 * g + 8) // 5, "q=(2g+2)/5")
    if 5 * q == 2 * g + 3:
        return FormulaAnswer((3 * g + 12) // 5, "q=(2g+3)/5")
    if 5 * q == 2 * g + 4 and g != 8:
        return FormulaAnswer((3 * g + 11) // 5, "q=(2g+4)/5")
    if 5 * q > 2 * g + 4 and 2 * q <= g - 1:
        return FormulaAnswer((g + 2 * q) // 3 + 2, "(2g+4)/5<q<=(g-1)/2")
    if 2 * q == g:
        return FormulaAnswer((2 * g + 3) // 3, "q=g/2")
    if 2 * q == g + 1:
        return FormulaAnswer(g // 3, "q=(g+1)/2")
    return FormulaAnswer(0, "q>(g+1)/2")


def f_gq(g: int, q: int) -> FormulaAnswer:
    """Gapsets of genus g and depth q, where a closed form is known.

    Eleven items, each with its own side conditions; their validated
    domains are disjoint (the few overlaps agree), so the dispatch order
    is immaterial.  Item 10 (depth equal to genus) extends to g = 0, where
    the empty set is the unique such gapset.
    """
    if g < 0 or q < 0:
        return FormulaAnswer(None, "outside-domain")
    if q == 1 and g >= 1:
        return FormulaAnswer(1, "item-1")
    if q == 2 and g >= 1:
        return FormulaAnswer(fibonacci(g + 1) - 1, "item-2")
    if g >= 23 and 5 * q > 2 * g + 4 and 2 * q <= g - 1:
        return FormulaAnswer((g + 2 * q) // 3 + 2, "item-3")
    if g >= 8 and 2 * q == g:
        return FormulaAnswer((2 * g) // 3 + 2, "item-4")
    if g >= 5 and 2 * q == g + 1:
        return FormulaAnswer(g // 3 + 2, "item-5")
    if 2 * q >= g + 2 and 3 * q <= 2 * g:
        return FormulaAnswer(2, "item-6")
    if g >= 4 and 3 * q == 2 * g + 1:
        return FormulaAnswer(1, "item-7")
    if g >= 5 and 3 * q == 2 * g + 2:
        return FormulaAnswer(0, "item-8")
    if _ceil_div(2 * g, 3) + 1 <= q <= g - 1:
        return FormulaAnswer(0, "item-9")
    if q == g:
        return FormulaAnswer(1, "item-10")
    if q > g:
        return FormulaAnswer(0, "item-11")
    return FormulaAnswer(None, "not-covered")


def lower_bound_depth3(g: int) -> int:
    """Lower bound for the number of gapsets of genus g and depth <= 3:
    F(g+2) - P(g+1)."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    return fibonacci(g + 2) - padovan(g + 1)


def _kfib(k: int, n: int) -> int:
    # order 1 degenerates to the single all-ones tiling of any board
    return 1 if k == 1 else fibonacci_k(k, n)


def upper_bound_ng(g: int, M: int, hist: Counter) -> int:
    """Upper bound for the number of gapsets of genus g, parametrized by M.

    Depths up to c = ceil(2g/(M+1)) are bounded by the order-c Fibonacci
    number at g+1; deeper gapsets force multiplicity <= M and are counted
    exactly by `hist`, the genus-g (depth, multiplicity) histogram that
    `census_histograms` returns.  For M in {2, 3, 4} the specialized
    single/double-sum shapes are used (the exactly-one-deep-gapset-of-
    multiplicity-2 term appears as a trailing +1); larger M uses the
    general double sum.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")

    c = _ceil_div(2 * g, M + 1)
    head = _kfib(c, g + 1)
    if M == 2:
        return head + 1
    if M == 3:
        tail3 = sum(hist[q, 3] for q in range(_ceil_div(g, 2) + 1, _ceil_div(2 * g, 3) + 1))
        return head + tail3 + 1
    if M == 4:
        tail4 = sum(hist[q, 4] for q in range(_ceil_div(2 * g, 5) + 1, _ceil_div(g, 2) + 1))
        tail3 = sum(hist[q, 3] for q in range(_ceil_div(g, 2), _ceil_div(2 * g, 3) + 1))
        return head + tail4 + tail3 + 1
    total = head
    for m in range(2, min(M, g + 1) + 1):  # a genus-g gapset has multiplicity at most g + 1
        for q in range(c + 1, _ceil_div(2 * g, m) + 1):
            total += hist[q, m]
    return total


def upper_bound_ng_closedN(g: int) -> int:
    """Upper bound built from the closed multiplicity counts for m <= 4:

        F(g+1) of order ceil(2g/5)  +  floor((g^2+6g)/12)  +  floor(g/3)  +  2

    for g >= 4 (the quadratic term needs g >= 4, the linear one g >= 2).
    """
    if g < 4:
        raise ValueError(f"genus must be >= 4, got {g}")
    head = _kfib(_ceil_div(2 * g, 5), g + 1)
    return head + (g * g + 6 * g) // 12 + g // 3 + 2


def depth_window(g: int, m: int) -> DepthWindow:
    """Possible depths of a genus-g gapset of multiplicity m:
    ceil(g/(m-1)) .. ceil(2g/m)."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if m < 2:
        raise ValueError(f"multiplicity must be >= 2, got {m}")
    return DepthWindow(_ceil_div(g, m - 1), _ceil_div(2 * g, m))
