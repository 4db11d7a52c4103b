"""Truncated power series over exact rationals, and the square-root
coefficients of the branch-point analysis.

A :class:`TruncatedSeries` stores dense coefficients for z^0 .. z^(N-1) and
is exact modulo z^N.  Binary operations truncate to the smaller operand
order, so a result never claims more precision than its inputs support.
Nothing on the library path uses it: it stays for acceptance criterion 10
(the ring-axiom property suite) and for the verify oracle that builds the
branch-point residual as a polynomial in t = z/w, sized so that nothing is
truncated away.

The square root sqrt(1 - z/w) enters only through the coefficient
extractor :func:`sqrt_coeff`, which returns the w^{-j} coefficient as the
z-graded monomial it is.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import binomial


class ZMonomial(namedtuple("ZMonomial", "coeff exp")):
    """A single term coeff * z^exp, with a Fraction coeff."""

    __slots__ = ()

    def __new__(cls, coeff: Fraction, exp: int):
        if exp < 0:
            raise ValueError("z-exponent must be >= 0")
        return super().__new__(cls, coeff, exp)


class TruncatedSeries:
    """Dense univariate series modulo z^order, coefficients exact rationals:
    an int coefficient stays an int, anything else becomes a Fraction, so a
    series of integers multiplies in integers."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs][:order]
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.coeffs = tuple(cs) + (0,) * (order - len(cs))
        self.order = order

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [0] * n
        for i in range(n):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    # -- queries --------------------------------------------------------

    def z_order(self) -> int | None:
        """Index of the first nonzero coefficient, None when everything
        stored vanishes (order >= truncation)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(z^{self.order})"


def sqrt_coeff(j: int) -> ZMonomial:
    """Coefficient of w^{-j} in sqrt(1 - z/w), as a monomial in z.

    For j >= 1 this is -2^(1-2j) * (1/j) * C(2j-2, j-1) * z^j, which equals
    the generalized binomial value (-1)^j * C(1/2, j) * z^j.
    """
    if j < 0:
        raise ValueError("sqrt_coeff requires j >= 0")
    if j == 0:
        return ZMonomial(Fraction(1), 0)
    return ZMonomial(Fraction(-binomial(2 * j - 2, j - 1), j * 2 ** (2 * j - 1)), j)
