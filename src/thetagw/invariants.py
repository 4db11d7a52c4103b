"""Closed-formula evaluators for the low-degree localized invariants.

All invariants are of the total space of a theta characteristic L over a
smooth genus-h curve, with descendant insertions of the point class only.
With s = (-1)^{h^0(L)} and blocks w(a) = a!/(2a+1)!:

    degree 1:  s * prod_i w(a_i) * (-2)^{-a_i}
    degree 2:  s * 2^{h+n-1} * prod_i w(a_i) * (-2)^{+a_i}

Since a!/(2a+1)! = 1/((a+1)(a+2)...(2a+1)) = 1/perm(2a+1, a+1), both are
s * (-1)^{sum a} * 2^e / prod_i perm(2a_i+1, a_i+1) with an integer e
(-sum a in degree 1, h+n-1+sum a in degree 2), so :func:`degree1` and
:func:`degree2` share one kernel: a signed power of 2 over one
`math.perm` product, built as a single `Fraction`.  The
per-insertion block :func:`descendant_block` is the longer route, one
`Fraction` (-1)^a a! / ((2a+1)! 2^a) per insertion built from factorials:
the bubble's assignment sum multiplies its numerators and denominators,
and verify and the tests hold it, with its degree-2 twin in verify, as
the oracle of the kernel.

Degree 1 does not depend on the genus and degree 2 depends on it only
through 2^h, so :func:`value_table` evaluates each insertion multiset once,
at h = 0, and yields one block of rows per genus, each value an integer
pair (num, den) in lowest terms.  A degree-1 table yields the same block
object for every genus, and a degree-2 table doubles each pair per genus
in integers.

At h = 0 and even parity, :func:`degree2` is the rational base case (the
total space of O(-1) over the projective line); the degeneration module
checks the genus-h values against it scaled by the spin-side factor.

Where (h, parity) come from.  In the paper's application S is a minimal
surface of general type with p_g > 0 and C in |K_S| a smooth canonical
curve; the invariants of S localize to C, with L = K_S|_C the normal
bundle.  Two classical facts fix the inputs:

- h = K^2 + 1, and L is a theta characteristic.  Adjunction gives
  2h - 2 = K_S.C + C^2 = 2 K^2, since C ~ K_S, and
  K_C = (K_S + C)|_C = L^2.
- parity = chi(O_S) mod 2.  Multiplying by the section s that cuts out C
  gives 0 -> O_S -> K_S -> L -> 0, whose cohomology sequence
  0 -> H^0(O_S) -> H^0(K_S) -> H^0(L) -> H^1(O_S) -> H^1(K_S) gives
  h^0(L) = p_g - 1 + q - rank(s.), where s. : H^1(O_S) -> H^1(K_S) is
  multiplication by s.  Under Serre duality H^1(K_S) = H^1(O_S)^*, s. is
  the bilinear form (a, b) -> integral of s.a u b, which is skew because
  1-classes anticommute, so its rank is even and
  h^0(L) = p_g + 1 - q = chi(O_S) mod 2.

So the degree-1 value with no insertions, (-1)^parity, is Lee-Parker's
GW_K = (-1)^{chi(O_S)} (Lee-Parker, "A structure theorem for the
Gromov-Witten invariants of Kahler surfaces").  Verify pins it on the
quintic surface in P^3: K^2 = 5, p_g = 4 and q = 0, so h = 6 and
chi(O_S) = 5 is odd (C is a plane quintic with h^0(O_C(1)) = 3), and the
value is -1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .core import descendant_multisets, op


def descendant_block(a: int) -> Fraction:
    """Degree-one weight of a single point-class descendant insertion:
    a!/(2a+1)! * (-2)^{-a}, built as the one `Fraction`
    (-1)^a a! / ((2a+1)! 2^a)."""
    if a < 0:
        raise ValueError("descendant exponent must be >= 0")
    num = math.factorial(a)
    return Fraction(-num if a % 2 else num, math.factorial(2 * a + 1) << a)


def _weight(a: int) -> int:
    """(2a+1)!/a! = (a+1)(a+2)...(2a+1), the reciprocal of one insertion's
    weight a!/(2a+1)!."""
    return math.perm(2 * a + 1, a + 1)


def _kernel(sign: int, alphas, two_power: int) -> Fraction:
    """sign * 2^two_power * prod_i (-1)^{a_i} a_i!/(2a_i+1)!, as the one
    `Fraction` of a signed power of 2 over prod_i (2a_i+1)!/a_i!."""
    if sum(alphas) % 2:
        sign = -sign
    den = math.prod(map(_weight, alphas))
    if two_power >= 0:
        return Fraction(sign << two_power, den)
    return Fraction(sign, den << -two_power)


class InvariantQuery(namedtuple("InvariantQuery", "d h parity alphas")):
    """A request for one invariant value.

    parity is h^0(L) mod 2; alphas are the descendant exponents at point
    insertions (may be empty), stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, d: int, h: int, parity: int, alphas=()):
        alphas = tuple(alphas)
        if d not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if h < 0:
            raise ValueError("genus must be >= 0")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if any(a < 0 for a in alphas):
            raise ValueError("descendant exponents must be >= 0")
        return super().__new__(cls, d, h, parity, alphas)

    @property
    def sign(self) -> int:
        return (-1) ** self.parity


@op
def degree1(q: InvariantQuery) -> Fraction:
    if q.d != 1:
        raise ValueError("degree1 requires d = 1")
    return _kernel(q.sign, q.alphas, -sum(q.alphas))


@op
def degree2(q: InvariantQuery) -> Fraction:
    if q.d != 2:
        raise ValueError("degree2 requires d = 2")
    return _kernel(q.sign, q.alphas, q.h + len(q.alphas) - 1 + sum(q.alphas))


def evaluate(q: InvariantQuery) -> Fraction:
    return degree1(q) if q.d == 1 else degree2(q)


@op
def value_table(d: int, parity: int, hmax: int, alpha_budget: int):
    """Yield (h, rows) for h = 0, ..., hmax, where rows is a tuple of
    (alphas, num, den), one for each multiset of
    :func:`thetagw.core.descendant_multisets` (alpha_budget, alpha_budget)
    in its order, and num/den is the invariant in lowest terms, den > 0.

    Each multiset is evaluated once, at h = 0: the degree-1 value does not
    depend on h, so degree 1 yields the same rows tuple for every h, and the
    degree-2 value is 2^h times it, so degree 2 doubles the previous rows
    before it yields each genus past 0, each pair in integers (an even den
    gives up a factor of 2, otherwise num is shifted left)."""
    if hmax < 0:
        raise ValueError("hmax must be >= 0")
    rows = []
    for alphas in descendant_multisets(alpha_budget, alpha_budget):
        value = evaluate(InvariantQuery(d, 0, parity, alphas))
        rows.append((alphas, value.numerator, value.denominator))
    rows = tuple(rows)
    for h in range(hmax + 1):
        if d == 2 and h:
            rows = tuple([
                (alphas, num, den >> 1) if den & 1 == 0 else (alphas, num << 1, den)
                for alphas, num, den in rows
            ])
        yield h, rows


class TwistedBreakdown(namedtuple("TwistedBreakdown", "h per_etale etale_count branched_part")):
    """Decomposition of the degree-2 tau_1 twisted invariant of the base
    curve into its etale-cover components (the int etale_count, each with
    the Fraction per_etale) and the branched-cover remainder (a Fraction);
    the total is etale_count * per_etale + branched_part by construction."""

    __slots__ = ()

    @property
    def total(self) -> Fraction:
        return self.etale_count * self.per_etale + self.branched_part


@op
def twisted_breakdown(h: int) -> TwistedBreakdown:
    """Twisted-invariant arithmetic at genus h >= 2: one etale component
    per theta characteristic (the census total of :mod:`thetagw.spin`),
    each carrying the degree-1 tau_1 value, and the branched part
    (h-2) 2^{2h-3}.  Verify compares the total with (h - 8/3) 2^{2h-3}."""
    if h < 2:
        raise ValueError("twisted breakdown needs h >= 2")
    from .spin import parity_census

    return TwistedBreakdown(
        h=h,
        per_etale=degree1(InvariantQuery(1, h, 0, (1,))),
        etale_count=parity_census(h).total,
        branched_part=Fraction((h - 2) * 2 ** (2 * h - 3)),
    )


@op
def degree2_tau1_decomposition(h: int, parity: int) -> dict[str, Fraction]:
    """Split the degree-2 single-tau_1 invariant over the 2^{2h} + 1
    connected components of its moduli, each term from its own module: the
    etale-cover components contribute the signed unweighted cover sum of
    :mod:`thetagw.spin` times the degree-1 tau_1 value, and the
    branched-cover component contributes :func:`thetagw.torsion.branched_cover_total`.
    The grand total reproduces the closed formula (-1)^parity * 2^h * (-1/3)."""
    from .spin import signed_double_cover_sum
    from .torsion import branched_cover_total

    etale_total = signed_double_cover_sum(h, parity, "unweighted") * degree1(
        InvariantQuery(1, h, 0, (1,))
    )
    branched_total = branched_cover_total(h, parity)
    return {
        "etale_total": etale_total,
        "branched_total": branched_total,
        "grand_total": etale_total + branched_total,
    }
