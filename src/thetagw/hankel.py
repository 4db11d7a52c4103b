"""Graded Hankel systems assembled from the square-root coefficients, and
the branch-point divisor identity they govern.

Writing D_j for the w^{-j} coefficient of sqrt(1 - z/w), the column vector
G_j stacks D_j .. D_{j+k-1}.  Every entry of the matrix (G_s .. G_{s+k-1})
is a z-monomial whose exponent is fixed by its position: entry (i, j) is
D_{s+i+j} at z^{s+i+j}, so every permutation product of the determinant
sits at z^{ks + k(k-1)}, and the unknown B_j of the system
(G_1 .. G_k) B = -G_{k+1} carries z^j.  The numeric parts are plain
rationals, and both the determinants and the solve have closed forms, which
are what the library evaluates.

The end product is :func:`branch_identity_holds`, which decides whether the
degree-2 branch-point divisor identity is satisfiable modulo z^n by the
unique graded candidate: it is exactly when n <= 2k+1.  Every coefficient
of w^{-m} in the candidate carries z^m, so the analysis runs in the single
variable t = z/w, where the obstruction is the t^{2k+1} coefficient b_k^2
of the residual r(t) = f^2 - (1 - t) g^2 (the constant-in-w term z * B_k^2
of the bivariate residual).  The proof below covers every k, so the
library returns the proved boundary 2k+1; :mod:`thetagw.verify` computes
16^k times the residual from the solve and checks that it equals t^{2k+1}.

Why 2k+1 for every k.  Put s = sqrt(1 - t) and expand
(1 + s)^{2k+1} = P + s Q with P, Q of degree <= k in t.  Then
(1 - s)^{2k+1} = P - s Q = O(t^{2k+1}), so Q(0) = 4^k and g = Q/4^k solves
the graded system (s g has no t^{k+1} .. t^{2k} terms; the solution is
unique because the Hankel determinant below is nonzero), f = P/4^k, and
f/g is the [k/k] Pade approximant of s.  Hence

    (P + s Q)(P - s Q) = (1 - s^2)^{2k+1} = t^{2k+1},
    r = (P^2 - (1 - t) Q^2) / 16^k = t^{2k+1} / 16^k,

whose t-adic valuation is 2k+1.  With x = 1 + s and y = 1 - s, x + y = 2,
xy = t and Q = (x^{2k+1} - y^{2k+1})/(x - y); the classical expansion of
(x^{m+1} - y^{m+1})/(x - y) as sum_j (-1)^j C(m-j, j) (x + y)^{m-2j} (xy)^j
gives Q = sum_j (-1)^j C(2k-j, j) 4^{k-j} t^j at m = 2k, so

    b_j = (-1)^j C(2k-j, j) / 4^j,   b_k = (-1/4)^k,

which is what :func:`solve_branch_system` returns.  The determinant closed
forms follow from D_j = -2 Cat_{j-1} / 4^j (j >= 1) and the classical
evaluations det[Cat_{i+j}] = det[Cat_{i+j+1}] = 1 for 0 <= i, j < k
(Aigner, "Catalan-like numbers and determinants"; Krattenthaler,
"Advanced determinant calculus").  Pulling 4^{-i} out of row i and 4^{-j}
out of column j gives det = (-2)^k / 4^{k^2} z^{k^2} for shift 1 and
(-2)^k / 4^{k^2+k} z^{k^2+k} for shift 2, which is what :func:`hankel_det`
returns.  The library uses only these closed forms; :mod:`thetagw.verify`
checks the determinants against exact elimination on the numeric matrices
and the solve by substituting it back into the system.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import binomial, op
from .series import ZMonomial


@op
def hankel_det(k: int, shift: int) -> ZMonomial:
    """Exact determinant of (G_shift .. G_{shift+k-1}) as a z-monomial:
    (-2)^k / 4^e z^e with e = k^2 (shift 1) or k^2 + k (shift 2)."""
    if k < 1:
        raise ValueError("Hankel size must be >= 1")
    if shift not in (1, 2):
        raise ValueError("column shift must be 1 or 2")
    exp = k * k + (shift - 1) * k
    return ZMonomial(Fraction((-2) ** k, 4**exp), exp)


class BranchCoefficients(namedtuple("BranchCoefficients", "k coeffs")):
    """Graded solution of (G_1 .. G_k) B = -G_{k+1}.

    ``coeffs`` is a tuple of the monomials B_k, B_{k-1}, ..., B_1 in that
    order (the unknown vector of the matrix equation); B_j has z-exponent j
    and B_k always equals (-4)^{-k} z^k.
    """

    __slots__ = ()

    def b(self, j: int) -> ZMonomial:
        if not 1 <= j <= self.k:
            raise ValueError("index out of range")
        return self.coeffs[self.k - j]


@op
def solve_branch_system(k: int) -> BranchCoefficients:
    """Solve (G_1 .. G_k) B = -G_{k+1} in closed form:
    B_j = (-1)^j C(2k-j, j) / 4^j z^j (module docstring)."""
    if k < 1:
        raise ValueError("solve_branch_system requires k >= 1")
    return BranchCoefficients(k, tuple(
        ZMonomial(Fraction((-1) ** j * binomial(2 * k - j, j), 4**j), j) for j in range(k, 0, -1)
    ))


@op
def branch_identity_holds(k: int, n: int) -> bool:
    """Decide solvability modulo z^n of the branch-point divisor identity
    at flag level k.

    The candidate is g = 1 + B_1 w^{-1} + ... + B_k w^{-k} from the graded
    solve, and f keeps the w-degree <= k part of sqrt(1 - z/w) g (its
    coefficients are the defining relations A_j = C_j).  In t = z/w the
    residual w^{2k+1} (f^2 - (1 - z/w) g^2) becomes r(t) = f^2 - (1 - t) g^2,
    whose t^m coefficient sits at z^m; the identity holds modulo z^n iff r
    vanishes modulo t^n, that is iff n <= 2k+1, the order that
    :func:`max_solvable_order` returns (module docstring).

    k = 0 is allowed (empty system, g = 1); the flag-level sweep that reads
    off torsion exponents needs it.
    """
    if n < 1:
        raise ValueError("congruence order must be >= 1")
    return n <= max_solvable_order(k)


@op
def max_solvable_order(k: int) -> int:
    """Largest n for which :func:`branch_identity_holds` is true, i.e. the
    t-adic valuation 2k+1 of the residual; this is the torsion exponent
    attached to flag level k."""
    if k < 0:
        raise ValueError("flag level must be >= 0")
    return 2 * k + 1
