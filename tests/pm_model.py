"""The plus-minus iteration one step at a time, as the integer GCD
pipeline's cells take it, for the tests alone and sharing no code with
``systolic.intgcd``.

A step is one halving of b or one reduction, and each cell of the pipeline
takes one: cell k's output frame holds (|a|, |b|) after k+1 steps, and
(|g|, 0) once b is 0.  ``tests/figures.py`` prints, for each word size
n <= 10, the worst-case steps against the pipeline's cells.
"""

from __future__ import annotations


def pm_states(a: int, b: int) -> list[tuple[int, int]]:
    """(a, b) after each step on positive a and b, from the pair the host
    streams (the common power of two stripped, the odd operand first) until
    b is 0."""
    while a % 2 == 0 and b % 2 == 0:
        a, b = a // 2, b // 2
    if a % 2 == 0:
        a, b = b, a
    delta = 0  # the bound exponent of a minus that of b
    states = []
    while b:
        if b % 2 == 0:
            b //= 2
            delta += 1
        else:
            if delta >= 0:
                a, b, delta = b, a, -delta
            b = (a + b) // 2 if (a + b) % 4 == 0 else (a - b) // 2
        states.append((a, b))
    return states


def worst_steps(n: int) -> int:
    """The most steps of any pair of positive integers below 2**n.  The
    host streams an odd a, and every such pair it streams as it is, so only
    those are counted."""
    return max(len(pm_states(a, b)) for a in range(1, 2**n, 2) for b in range(1, 2**n))

