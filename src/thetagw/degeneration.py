"""Partition-indexed gluing engine for the degree-2 invariants.

Degenerating the theta-characteristic total space into its spin side and a
trivial bubble over the projective line expresses every degree-2 invariant
as a weighted sum over the partitions of 2:

    value = 1/2 * (spin (1,1) factor) * (bubble (1,1) factor)
          +   2 * (full-contact channel product)

The (1,1) bubble factor is built from degree-one blocks by summing over
all assignments of the insertions to the two map components.  The
full-contact channel is only ever determined as a product; it is
back-solved from the genus-0 base case and scaled by the spin-side rule
(sign times 2^h).  :func:`gluing_consistent` then checks the assembled
right side against the closed degree-2 formula, exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import Partition, op, partitions_of
from .invariants import (
    InvariantQuery,
    degree2,
    degree2_base,
    descendant_block,
    relative_invariant_table,
)


@dataclass(frozen=True)
class Channel:
    """One partition channel of the degree-2 gluing sum.

    coefficient is weight/aut of the partition.  For the (1,1) channel,
    y1_value and y2_value are the genuine spin-side and bubble-side
    factors.  The (2) channel is never split: y1_value carries the
    genus-scaling of the spin side and y2_value the back-solved genus-0
    product, so only their product is meaningful.  y2_value is None while
    a channel is still undetermined.
    """

    eta: Partition
    coefficient: Fraction
    y1_value: Fraction
    y2_value: Fraction | None

    @property
    def contribution(self) -> Fraction | None:
        if self.y2_value is None:
            return None
        return self.coefficient * self.y1_value * self.y2_value


@op
def bubble_channel_11(alphas) -> Fraction:
    """(1,1)-contact bubble invariant with the given point-class
    descendants: sum over all functions from the insertion set to the two
    map components of the product of per-component degree-one blocks (an
    empty component contributes the unit relative invariant 1)."""
    alphas = tuple(alphas)
    total = Fraction(0)
    for assignment in itertools.product((0, 1), repeat=len(alphas)):
        product = Fraction(1)
        for component in (0, 1):
            for a, where in zip(alphas, assignment):
                if where == component:
                    product *= descendant_block(a)
        total += product
    return total


@op
def solve_channel2(alphas) -> Fraction:
    """The full-contact channel product, back-solved from the genus-0 base
    case where the spin-side (1,1) factor is 1:
    [base value - 1/2 * bubble_channel_11] / 2."""
    alphas = tuple(alphas)
    return (degree2_base(alphas) - Fraction(1, 2) * bubble_channel_11(alphas)) / 2


@op
def degree2_channels(h: int, parity: int, alphas) -> list[Channel]:
    """Both gluing channels with their values filled in."""
    alphas = tuple(alphas)
    scale = relative_invariant_table(h, parity)["spin_11"]
    out = []
    for eta in partitions_of(2):
        coefficient = Fraction(eta.weight, eta.aut)
        if eta.parts == (1, 1):
            out.append(Channel(eta, coefficient, scale, bubble_channel_11(alphas)))
        else:
            out.append(Channel(eta, coefficient, scale, solve_channel2(alphas)))
    return out


@op
def gluing_consistent(h: int, parity: int, alphas) -> bool:
    """Exact equality of the closed degree-2 formula with the assembled
    gluing sum."""
    alphas = tuple(alphas)
    lhs = degree2(InvariantQuery(2, h, parity, alphas))
    rhs = sum(ch.contribution for ch in degree2_channels(h, parity, alphas))
    return lhs == rhs


@op
def chi_constraint(chi1: int, chi2: int, eta: Partition) -> int:
    """Euler characteristic glued from the two sides meeting along the
    contact divisor: chi1 + chi2 - l(eta)."""
    return chi1 + chi2 - eta.length
