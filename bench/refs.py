"""Reference values for the benchmark, computed with the standard library only.

Nothing here imports thetagw: every expected value the benchmark compares
against is derived from the closed formulas below, so a wrong library value
cannot also make its own reference wrong.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from fractions import Fraction


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int<->str digit limit (Python 3.11+) for the enclosed
    statements only, so the process that runs the program keeps the
    interpreter's default limit everywhere else."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def exact_str(q) -> str:
    """Canonical "num/den" (or "num") form of an exact rational."""
    with unlimited_digits():
        return str(Fraction(q))


def short(q, limit: int = 60) -> str:
    """Display form of a possibly huge rational, for failure messages."""
    text = exact_str(q)
    return text if len(text) <= limit else f"{text[:limit]}...({len(text)} chars)"


def _weight(a: int) -> Fraction:
    return Fraction(math.factorial(a), math.factorial(2 * a + 1))


def block(a: int) -> Fraction:
    """Degree-one descendant block a!/(2a+1)! * (-2)^(-a)."""
    return _weight(a) / Fraction(-2) ** a


def block2(a: int) -> Fraction:
    """Degree-two descendant block a!/(2a+1)! * (-2)^(+a)."""
    return _weight(a) * Fraction(-2) ** a


def invariant(degree: int, h: int, parity: int, alphas) -> Fraction:
    """The degree-1 and degree-2 closed formulas with point-class
    descendants: (-1)^parity * prod block(a), and
    (-1)^parity * 2^(h+n-1) * prod block2(a)."""
    value = Fraction((-1) ** parity)
    if degree == 1:
        for a in alphas:
            value *= block(a)
        return value
    value *= Fraction(2) ** (h + len(alphas) - 1)
    for a in alphas:
        value *= block2(a)
    return value


def chi(degree: int, h: int, alphas) -> int:
    return -(degree * (h - 1) + sum(alphas))


def multisets(budget: int):
    """Weakly increasing exponent tuples of length <= budget and sum <= budget,
    by length and then lexicographically (the table row order)."""
    for n in range(budget + 1):
        for combo in itertools.combinations_with_replacement(range(budget + 1), n):
            if sum(combo) <= budget:
                yield combo


def bubble_11(alphas) -> Fraction:
    """(1,1)-contact bubble value: the disconnected factorisation 2^n * prod block."""
    value = Fraction(2) ** len(alphas)
    for a in alphas:
        value *= block(a)
    return value


def max_solvable_order(k: int) -> int:
    return 2 * k + 1


def hankel_det(k: int, shift: int) -> tuple[Fraction, int]:
    """(coefficient, z-exponent) of det(G_shift .. G_{shift+k-1})."""
    if shift == 1:
        return Fraction((-1) ** k, 2 ** (2 * k * k - k)), k * k
    return Fraction((-1) ** k, 2 ** (2 * k * k + k)), k * k + k


def sqrt_coeff(j: int) -> Fraction:
    """Numeric part D_j of the w^(-j) coefficient of sqrt(1 - z/w):
    (-1)^j * binom(1/2, j), from the falling product of 1/2."""
    binom = Fraction(1)
    for i in range(j):
        binom *= (Fraction(1, 2) - i) / (i + 1)
    return (-1) ** j * binom


def branch_leading(k: int) -> Fraction:
    return Fraction(-1, 4) ** k


def branch_residuals_vanish(k: int, betas: dict[int, Fraction]) -> bool:
    """Substitute B_1..B_k back into (G_1 .. G_k) B = -G_(k+1):
    row i reads sum_j D_(1+i+j) B_(k-j) = -D_(k+1+i)."""
    d = [sqrt_coeff(j) for j in range(2 * k + 2)]
    return all(
        sum(d[1 + i + j] * betas[k - j] for j in range(k)) == -d[k + 1 + i]
        for i in range(k)
    )
