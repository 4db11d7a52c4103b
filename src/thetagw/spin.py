"""Theta-characteristic parity counting and signed double-cover sums.

The arguments here only ever use the distribution of parities h^0 mod 2
over the 2^{2h} theta characteristics of a genus-h curve, together with the
bijection xi -> L (x) xi from 2-torsion bundles onto theta characteristics,
so the census is modeled combinatorially; no curve geometry is needed.

The census holds for every h by Arf additivity.  The parities are the
Arf invariants of the quadratic refinements of the intersection pairing on
the 2h-dimensional binary symplectic space H^1(C, Z/2).  An orthogonal
splitting V = V_1 + V_2 restricts a refinement q to a pair (q_1, q_2),
every pair arises exactly once, and Arf(q) = Arf(q_1) + Arf(q_2) mod 2.  So
the even and odd counts of genus h_1 + h_2 are

    (e_1 e_2 + o_1 o_2,  e_1 o_2 + o_1 e_2).

A hyperbolic plane (h = 1) has four refinements, and only q(a) = q(b) = 1
has Arf invariant q(a) q(b) = 1, so (e, o) = (3, 1) and splitting off one
plane at a time gives (e, o)_{h+1} = (3e + o, e + 3o).  Then
e + o = 4^h and e - o = 2 (e - o)_{h-1} = 2^h, hence e = 2^{h-1}(2^h + 1).
The verify suite checks the splitting rule on the closed form and the
closed form against a brute-force Arf count for small h.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import op

VARIANTS = ("unweighted", "weighted")


class ParityCensus(namedtuple("ParityCensus", "h total even_count")):
    """Counts of even and odd quadratic refinements / theta parities; the
    odd count is total - even by construction."""

    __slots__ = ()

    @property
    def odd_count(self) -> int:
        return self.total - self.even_count

    @property
    def gap(self) -> int:
        """even - odd, the value of the signed sum over all parities."""
        return self.even_count - self.odd_count


@op
def parity_census(h: int) -> ParityCensus:
    """Closed-form census: 2^h(2^h + 1)/2 even parities out of 2^{2h}."""
    if h < 0:
        raise ValueError("genus must be >= 0")
    total = 2 ** (2 * h)
    even = 2**h * (2**h + 1) // 2
    return ParityCensus(h=h, total=total, even_count=even)


@op
def arf_census_bruteforce(h: int) -> ParityCensus:
    """Independent oracle for :func:`parity_census`.

    Enumerates all 2^{2h} quadratic refinements of the standard symplectic
    pairing on a 2h-dimensional binary symplectic space (a refinement is
    determined by its values on a symplectic basis a_1, b_1, ..., a_h, b_h)
    and tallies the Arf invariant sum_i q(a_i) q(b_i) mod 2.
    """
    if not 1 <= h <= 6:
        raise ValueError("brute-force census is limited to 1 <= h <= 6")
    even = 0
    for mask in range(1 << (2 * h)):
        arf = 0
        for i in range(h):
            arf ^= (mask >> (2 * i)) & (mask >> (2 * i + 1)) & 1
        even += 1 - arf
    total = 1 << (2 * h)
    return ParityCensus(h=h, total=total, even_count=even)


@op
def signed_double_cover_sum(h: int, parity: int, variant: str) -> Fraction:
    """Sum of (-1)^{h^0(u^* L)} over etale double covers u of a genus-h
    curve carrying a theta characteristic L of the given parity.

    The cover attached to a 2-torsion bundle xi satisfies
    h^0(u^* L) = h^0(L) + h^0(L (x) xi) mod 2, and xi -> L (x) xi is a
    bijection onto all theta characteristics, so the sum is the census gap
    with the overall sign (-1)^{h^0(L)}.

    variants:
      unweighted  every cover counts with weight 1
      weighted    weight 1/|Aut(u)| = 1/2

    A negative genus is rejected by :func:`parity_census`, after the parity
    and the variant are checked.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    signed_gap = (-1) ** parity * parity_census(h).gap
    if variant == "unweighted":
        return Fraction(signed_gap)
    return Fraction(signed_gap, 2)
