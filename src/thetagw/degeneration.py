"""Degeneration side of the degree-2 invariants.

Degenerating the theta-characteristic total space into its spin side and a
trivial bubble over the projective line expresses every degree-2 invariant
as a weighted sum over the partitions of 2:

    value = 1/2 * (spin (1,1) factor) * (bubble (1,1) factor)
          +   2 * (full-contact channel product)

The (1,1) bubble factor is built from degree-one blocks by summing over
all assignments of the insertions to the two map components
(:func:`bubble_channel_11`).  Each of the 2^n assignments gives the same
product prod_i w(a_i) (-2)^{-a_i}, with w(a) = a!/(2a+1)!, since every
insertion lands on exactly one component; so the sum is
2^n * degree1(h = 0, even parity).  The enumeration stays in the library
only until the bench self-test (bench/test_bench.py) stops pinning the
2^n * n block calls it makes.  It keeps those calls but multiplies in
integers: each assignment's block numerators and denominators go into two
ints, and the assignment adds one `Fraction` to the sum.

The full-contact (2) channel is not computed: no route to it that avoids
back-solving it from the genus-0 base case is implemented, and a
back-solved channel makes the sum above equal (spin factor) * (base
value) for every bubble.  So the channel split is not verified.
:func:`gluing_consistent` checks only what the sum reduces to, the genus
scaling

    degree2(h, parity, alphas) == spin_11(h, parity) * degree2(0, even, alphas)

with spin_11 the signed unweighted double-cover sum of :mod:`thetagw.spin`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import op
from .invariants import InvariantQuery, degree2, descendant_block
from .spin import signed_double_cover_sum


@op
def bubble_channel_11(alphas) -> Fraction:
    """(1,1)-contact bubble invariant with the given point-class
    descendants: sum over all functions from the insertion set to the two
    map components of the product of per-component degree-one blocks (an
    empty component contributes the unit relative invariant 1).

    Each assignment reads one :func:`descendant_block` per insertion, 2^n * n
    calls in all, which the bench self-test counts; it multiplies their
    numerators and denominators as ints and adds one `Fraction` to the sum."""
    alphas = tuple(alphas)
    total = Fraction(0)
    for assignment in itertools.product((0, 1), repeat=len(alphas)):
        num = den = 1
        for component in (0, 1):
            for a, where in zip(alphas, assignment):
                if where == component:
                    block = descendant_block(a)
                    num *= block.numerator
                    den *= block.denominator
        total += Fraction(num, den)
    return total


@op
def gluing_consistent(h: int, parity: int, alphas) -> bool:
    """Exact equality of the closed degree-2 formula with the spin-side
    (1,1) factor times the genus-0 base case: the genus scaling the gluing
    sum reduces to.  The bubble and the full-contact channel cancel out of
    that reduction, so neither is computed here."""
    lhs = degree2(InvariantQuery(2, h, parity, alphas))
    base = degree2(InvariantQuery(2, 0, 0, alphas))
    return lhs == signed_double_cover_sum(h, parity, "unweighted") * base
