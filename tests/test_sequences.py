import tracemalloc

import pytest

from gapsets.sequences import (
    MAX_VALUE,
    fibonacci,
    fibonacci_k,
    padovan,
    padovan_fibonacci_convolution,
)

FIB_PREFIX = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]

# value computed by unrolling the recurrence independently (103 bits)
FIB_150 = 9969216677189303386214405760200

PADOVAN_FROM_MINUS3 = [1, 0, 0, 1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16]


def test_fibonacci_prefix():
    assert [fibonacci(n) for n in range(len(FIB_PREFIX))] == FIB_PREFIX


def test_fibonacci_examples():
    assert fibonacci(0) == 0
    assert fibonacci(10) == 55
    assert fibonacci(12) == 144
    assert fibonacci(150) == FIB_150


def test_fibonacci_rejects_negative():
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_fibonacci_overflow_window():
    assert fibonacci(184) <= MAX_VALUE
    with pytest.raises(OverflowError):
        fibonacci(185)


def test_fibonacci_k_examples():
    assert fibonacci_k(5, 6) == 16
    assert fibonacci_k(2, 10) == 55
    assert fibonacci_k(4, 11) == 401


def test_fibonacci_k_initial_values():
    for k in range(2, 8):
        assert fibonacci_k(k, 1) == 1
        for n in range(-k + 2, 1):
            assert fibonacci_k(k, n) == 0
        with pytest.raises(ValueError):
            fibonacci_k(k, -k + 1)


def test_fibonacci_k_rejects_low_order():
    with pytest.raises(ValueError):
        fibonacci_k(1, 5)
    with pytest.raises(ValueError):
        fibonacci_k(0, 5)


def test_power_of_two_head():
    # each order-k sequence starts out doubling: 2**(n-2) up to index k+1
    for k in range(2, 61):
        for n in range(2, k + 2):
            assert fibonacci_k(k, n) == 1 << (n - 2)


def test_fibonacci_k_order_2_is_fibonacci():
    for n in range(0, 151):
        assert fibonacci_k(2, n) == fibonacci(n)


def test_fibonacci_k_memory_does_not_grow_with_the_order():
    # below index k + 2 the sequence doubles, so a large order needs no k-entry window
    tracemalloc.start()
    try:
        assert fibonacci_k(10**6, 30) == 1 << 28
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_padovan_prefix():
    assert [padovan(n) for n in range(-3, 14)] == PADOVAN_FROM_MINUS3


def test_padovan_examples():
    assert padovan(-3) == 1
    assert padovan(7) == 3
    assert padovan(0) == 1


def test_padovan_rejects_below_domain():
    with pytest.raises(ValueError):
        padovan(-4)


def test_padovan_overflow_window():
    assert padovan(316) <= MAX_VALUE
    with pytest.raises(OverflowError):
        padovan(317)


def test_convolution_examples():
    assert padovan_fibonacci_convolution(0) == 1
    assert padovan_fibonacci_convolution(6) == 18
    assert padovan_fibonacci_convolution(10) == 135
    with pytest.raises(ValueError, match="^argument must be >= 0, got -1$"):
        padovan_fibonacci_convolution(-1)


def test_convolution_identity_up_to_150():
    for g in range(0, 151):
        assert padovan_fibonacci_convolution(g) == fibonacci(g + 2) - padovan(g + 1)


def test_generators_are_pure():
    assert fibonacci(90) == fibonacci(90)
    assert fibonacci_k(7, 40) == fibonacci_k(7, 40)
    assert padovan(90) == padovan(90)
