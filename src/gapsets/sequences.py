"""Exact integer sequences: Fibonacci, k-step Fibonacci, Padovan.

All generators iterate the defining recurrence forward and return exact
integers.  Results are kept inside a signed 128-bit window; a value that
would leave the window raises :class:`OverflowError` instead of being
returned, so callers never see a silently wrong count.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "MAX_VALUE",
    "fibonacci",
    "fibonacci_k",
    "padovan",
    "padovan_fibonacci_convolution",
]

# Largest representable value: 2**127 - 1.  Every check in the test suite
# fits comfortably (the Fibonacci number at index 150 has 103 bits).
MAX_VALUE = (1 << 127) - 1


def _checked(value: int, what: str) -> int:
    if value > MAX_VALUE:
        raise OverflowError(f"{what} exceeds the 128-bit window; use a smaller index")
    return value


def fibonacci(n: int) -> int:
    """Fibonacci number F(n), with F(0) = 0 and F(1) = 1."""
    if n < 0:
        raise ValueError(f"fibonacci index must be >= 0, got {n}")
    if n == 0:
        return 0
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, _checked(a + b, "fibonacci value")
    return b


def fibonacci_k(k: int, n: int) -> int:
    """Order-k Fibonacci number: each term is the sum of the previous k.

    Initial values: 1 at index 1 and 0 at indices -k+2 .. 0.  Indices below
    -k+2 are undefined and rejected; k must be at least 2 (k = 2 is the
    ordinary Fibonacci sequence).
    """
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if n < -k + 2:
        raise ValueError(f"index must be >= {-k + 2} for k={k}, got {n}")
    if n <= 1:
        return 1 if n == 1 else 0
    # window holds the last min(k, n) values from index 1 on; while it
    # holds fewer than k, the value k steps back is one of the initial 0s.
    # A running sum of the last k values avoids re-summing them.
    window = deque([1], maxlen=min(k, n))
    total = 1
    for _ in range(n - 1):
        nxt = _checked(total, "k-step fibonacci value")
        total += nxt - (window[0] if len(window) == k else 0)
        window.append(nxt)
    return window[-1]


def padovan(n: int) -> int:
    """Padovan number P(n) = P(n-2) + P(n-3), seeded P(-3) = 1, P(-2) = P(-1) = 0.

    For positive n this counts the ways to split n into an ordered sum of
    2s and 3s.  Indices below -3 are rejected.
    """
    if n < -3:
        raise ValueError(f"padovan index must be >= -3, got {n}")
    a, b, c = 1, 0, 0  # values at n-3, n-2, n-1 while walking up from -3
    if n < 0:
        return (a, b, c)[n + 3]
    for _ in range(n + 1):
        a, b, c = b, c, _checked(a + b, "padovan value")
    return c


def padovan_fibonacci_convolution(g: int) -> int:
    """Term-by-term sum of P(n) * F(g-2-n) for n from -3 to g-3.

    Equals F(g+2) - P(g+1) for every g >= 0; the separate closed form makes
    that identity testable rather than assumed.
    """
    if g < 0:
        raise ValueError(f"argument must be >= 0, got {g}")
    total = 0
    for n in range(-3, g - 2):
        term = _checked(padovan(n) * fibonacci(g - 2 - n), "convolution term")
        total = _checked(total + term, "convolution sum")
    return total
