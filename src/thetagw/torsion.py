"""Combinatorics of the branched-double-cover component.

The contribution of the branched-cover component splits into a dominant
part, (h-2) 2^{2h-3} minus half-weighted torsion degrees, and exceptional
cone components.  The cone components at ramification level r carry
multiplicities 2i+1 (prime family) or 2i+2 (dblprime family) with rank
defect r+1-i, i = 0..r (:func:`cone_multiplicity_table`); their unsigned
and signed sums are the a- and b-ledgers:

    a_{2r}   = 1 + 3 + ... + (2r+1)                 = (r+1)^2
    a_{2r+1} = 2 + 4 + ... + (2r+2)                 = (r+1)(r+2)
    b_{2r}   = sum_i (-1)^{r+1-i} (2i+1)            = -(r+1)
    b_{2r+1} = sum_i (-1)^{r+1-i} (2i+2)            = -2 (floor(r/2) + 1)

The a-forms are arithmetic series.  For b, the top term (i = r) is
negative and each adjacent pair from the top sums to -2; when r is even a
lone bottom term -1 (prime) or -2 (dblprime) is left over, which gives
-(r+1) and -2 (floor(r/2) + 1).  The library evaluates the closed forms; the
verify suite compares them with the cone sums.  The whole component equals
(-1)^{h^0} (-2^{h-2}) through the identity

    (h-2) 2^{2h-3} - sum_j C(2h+2, h-2-j) (a_j - b_j)/2 = -2^{h-2}.

Note the dominant-part torsion sums carry the factor 1/2 from the trivial
Z/2 action; the combined (a_j - b_j)/2 form is the one that closes, and it
is the form implemented and verified here.

Proof for all h >= 2.  Write c_j = a_j - b_j, n = h - 2 and
S(h) = sum_{j<=n} C(2n+6, n-j) c_j; the identity says
S(h) = n 4^{n+1} + 2^{n+1}.

(i) With a_{-1} = a_{-2} = b_{-1} = b_{-2} = 0 (which the closed forms
    give at j = -1, -2), the second differences of the closed forms are,
    residue by residue:
        a_{2r} - 2a_{2r-1} + a_{2r-2} = (r+1)^2 - 2r(r+1) + r^2 = 1,
        a_{2r+1} - 2a_{2r} + a_{2r-1} = (r+1)(r+2 - 2(r+1) + r) = 0,
        b_{2r} - 2b_{2r-1} + b_{2r-2} = 4(floor((r-1)/2) + 1) - (2r+1)
                                      = -1 (r even), +1 (r odd),
        b_{2r+1} - 2b_{2r} + b_{2r-1} = 2(r - floor(r/2) - floor((r-1)/2) - 1) = 0.
    So c_j - 2c_{j-1} + c_{j-2} = 2 [4 | j], that is
    C(w) = sum_j c_j w^j = 2/((1-w)^2 (1-w^4)).
(ii) S(h) = [x^n] F(x) phi(x)^n with F = (1+x)^6 C(x) and phi = (1+x)^2.
    Lagrange inversion in its second form (Stanley, Enumerative
    Combinatorics 2, Section 5.4) gives sum_n S t^n = F(w)/(1 - t phi'(w))
    where w = t phi(w), i.e. t = w/(1+w)^2 and 1 - t phi'(w) = (1-w)/(1+w).
    With 1 - w^4 = (1-w)(1+w)(1+w^2) the left side is
    2 (1+w)^6 / ((1-w)^4 (1+w^2)).
(iii) On the right, 1 - 4t = (1-w)^2/(1+w)^2 and 1 - 2t = (1+w^2)/(1+w)^2,
    so sum_n (n 4^{n+1} + 2^{n+1}) t^n = 16t/(1-4t)^2 + 2/(1-2t)
    = 2 (1+w)^2 (8w(1+w^2) + (1-w)^4) / ((1-w)^4 (1+w^2)).
    The two sides agree because (1+w)^4 - (1-w)^4 = 8w(1+w^2).

Halving, (h-2) 2^{2h-3} - S(h)/2 = -2^{h-2}, the closed total that
:func:`branched_cover_total` returns.  :func:`branched_cover_identity` keeps
the ledger sum, which verify sweeps as a regression check, and the tests
check steps (i) and (iii) on the closed forms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import binomial, op

FAMILIES = ("prime", "dblprime")


def _a(j: int) -> int:
    r, odd = divmod(j, 2)
    return (r + 1) * (r + 1 + odd)


def _b(j: int) -> int:
    r, odd = divmod(j, 2)
    return -2 * (r // 2 + 1) if odd else -(r + 1)


class TorsionLedger(namedtuple("TorsionLedger", "h a b lambda_prime lambda_dblprime")):
    """The a/b sequences for j = 0..h-2 plus the counts of exceptional
    points at each ramification level (prime: conjugate branch pair,
    dblprime: coincident branch pair), each a tuple of ints."""

    __slots__ = ()


@op
def build_ledger(h: int) -> TorsionLedger:
    """Populate the ledger for j = 0..h-2 from the closed forms of a and b."""
    if h < 2:
        raise ValueError("ledger needs h >= 2")
    a = tuple(_a(j) for j in range(h - 1))
    b = tuple(_b(j) for j in range(h - 1))
    lam_p = tuple(
        binomial(2 * h + 2, h - 2 - 2 * r) for r in range((h - 2) // 2 + 1)
    )
    lam_pp = tuple(
        binomial(2 * h + 2, h - 3 - 2 * r) for r in range((h - 3) // 2 + 1)
    )
    return TorsionLedger(h=h, a=a, b=b, lambda_prime=lam_p, lambda_dblprime=lam_pp)


@op
def torsion_degrees(h: int) -> dict[str, Fraction]:
    """Half-weighted total torsion degrees over the two exceptional loci:
    sum_r 1/2 * a_{2r} * C(2h+2, h-2-2r) over the prime locus and the
    odd-index analogue over the dblprime locus."""
    ledger = build_ledger(h)
    over_prime = sum(a * lam for a, lam in zip(ledger.a[::2], ledger.lambda_prime, strict=True))
    over_dblprime = sum(
        a * lam for a, lam in zip(ledger.a[1::2], ledger.lambda_dblprime, strict=True)
    )
    return {
        "over_lambda_prime": Fraction(over_prime, 2),
        "over_lambda_dblprime": Fraction(over_dblprime, 2),
    }


@op
def cone_multiplicity_table(r: int, family: str) -> list[tuple[int, int]]:
    """(rank defect, multiplicity) of the r+1 exceptional cone components
    at ramification level r: multiplicities 2i+1 in the prime family and
    2i+2 in the dblprime family, with rank defect r+1-i."""
    if r < 0:
        raise ValueError("level must be >= 0")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    step = 1 if family == "prime" else 2
    return [(r + 1 - i, 2 * i + step) for i in range(r + 1)]


@op
def b_from_cones(j: int) -> int:
    """Second route to b_j: alternating sum of cone multiplicities signed
    by their rank defects."""
    r, odd = divmod(j, 2)
    table = cone_multiplicity_table(r, "dblprime" if odd else "prime")
    return sum((-1) ** defect * mult for defect, mult in table)


@op
def branched_cover_identity(h: int) -> bool:
    """The closing identity with the ledger sum on the left, in integers:
    4 sum_j C(2h+2, h-2-j) (a_j - b_j) == (h-2) 4^h + 2^{h+1}.  The ledger
    is empty for h < 2, where both sides are 0."""
    if h < 0:
        raise ValueError("genus must be >= 0")
    n, m = 2 * h + 2, h - 2
    row, ledger_sum = binomial(n, m), 0
    for j in range(h - 1):
        ledger_sum += row * (_a(j) - _b(j))
        row = row * (m - j) // (n - m + j + 1)  # C(n, m-j) -> C(n, m-j-1)
    return 4 * ledger_sum == (h - 2) * 4**h + 2 ** (h + 1)


@op
def branched_cover_total(h: int, parity: int) -> Fraction:
    """Signed branched-cover contribution
    (-1)^parity [(h-2) 2^{2h-3} - sum_j C(2h+2, h-2-j) (a_j - b_j)/2],
    which the proof above closes to (-1)^{parity+1} 2^{h-2} for every h >= 0
    (for h < 2 the ledger is empty and the bracket is already -2^{h-2})."""
    if h < 0:
        raise ValueError("genus must be >= 0")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return Fraction((-1) ** (parity + 1) * 2**h, 4)
