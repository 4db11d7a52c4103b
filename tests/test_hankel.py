import random
from fractions import Fraction

import pytest

from thetagw import hankel, verify
from thetagw.core import binomial, recording_ops
from thetagw.hankel import (
    BranchCoefficients,
    branch_identity_holds,
    hankel_det,
    max_solvable_order,
    solve_branch_system,
)
from thetagw.series import TruncatedSeries, ZMonomial, sqrt_coeff
from thetagw.verify import _branch_residual, _leading_minors, run_suite


def test_det_size_one():
    assert hankel_det(1, 1) == ZMonomial(Fraction(-1, 2), 1)
    assert hankel_det(1, 2) == ZMonomial(Fraction(-1, 8), 2)


@pytest.mark.parametrize("k", range(1, 9))
def test_det_closed_forms(k):
    det1 = hankel_det(k, 1)
    assert det1.coeff == Fraction((-1) ** k, 2 ** (2 * k * k - k))
    assert det1.exp == k * k
    det2 = hankel_det(k, 2)
    assert det2.coeff == Fraction((-1) ** k, 2 ** (2 * k * k + k))
    assert det2.exp == k * k + k
    # the closed forms against elimination on the sqrt_coeff matrices
    for det, shift in ((det1, 1), (det2, 2)):
        rows = [[sqrt_coeff(shift + i + j).coeff for j in range(k)] for i in range(k)]
        assert det.coeff == _leading_minors(rows)[-1]


def test_bareiss_pivots_and_singular_matrices():
    # without pivoting a zero minor is returned as it is, while no later
    # step divides by it
    assert _leading_minors([[0, 1], [1, 0]]) == [0, -1]
    assert _leading_minors([[1, 2], [2, 4]]) == [1, 0]
    assert _leading_minors([[0, 1], [0, 2]]) == [0, 0]
    # a zero 1-minor of a 3x3 matrix is the divisor of its last step
    with pytest.raises(ZeroDivisionError):
        _leading_minors([[0, 1, 2], [0, 3, 4], [5, 6, 7]])


def _fraction_bareiss(rows: list[list[Fraction]]) -> Fraction:
    """Bareiss elimination in `Fraction`s throughout, with row swaps: the
    oracle for the row-scaled, pivot-free integer elimination of
    `verify._leading_minors`."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) / prev
            m[r][i] = Fraction(0)
        prev = m[i][i]
    return sign * m[-1][-1]


def test_integer_bareiss_matches_fraction_elimination():
    rng = random.Random(33)
    matrices = []
    for n in range(1, 7):
        for _ in range(15):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                    for _ in range(n)]
            matrices.append(rows)
            # a zero leading pivot
            matrices.append([[Fraction(0)] + rows[0][1:], *rows[1:]])
            if n >= 2:
                # a zero second pivot: the leading 2x2 minor vanishes
                second = [3 * x for x in rows[0][:2]] + rows[1][2:]
                matrices.append([rows[0], second, *rows[2:]])
                # singular: the last row a multiple of the first
                matrices.append([*rows[:-1], [Fraction(-5, 7) * x for x in rows[0]]])
    matrices.append([[2, 3], [4, 5]])  # plain ints
    raised = 0
    for rows in matrices:
        n = len(rows)
        want = [_fraction_bareiss([row[:i] for row in rows[:i]]) for i in range(1, n + 1)]
        # a zero minor of size <= n-2 is a divisor of a later step
        if 0 in want[: n - 2]:
            with pytest.raises(ZeroDivisionError):
                _leading_minors(rows)
            raised += 1
            continue
        minors = _leading_minors(rows)
        assert all(type(m) is Fraction for m in minors)
        assert minors == want, rows
    # both outcomes are exercised
    assert 0 < raised < len(matrices)


@pytest.mark.parametrize("shift", (1, 2))
def test_leading_minors_of_the_hankel_matrices_match_fraction_elimination(shift):
    rows = [[sqrt_coeff(shift + i + j).coeff for j in range(12)] for i in range(12)]
    want = [_fraction_bareiss([row[:k] for row in rows[:k]]) for k in range(1, 13)]
    assert _leading_minors(rows) == want


def test_a_zero_hankel_minor_fails_its_check_and_not_the_run(monkeypatch):
    # D_1 = 0 makes the 1-minor of the shift-1 matrix zero, and so a divisor
    def zero_d1(j):
        return ZMonomial(Fraction(0), 1) if j == 1 else sqrt_coeff(j)

    monkeypatch.setattr(verify, "sqrt_coeff", zero_d1)
    checks = {c.name: c for c in run_suite("hankel", kmax=4).checks}
    check = checks["hankel/det_closed_form[k<=4]"]
    assert not check.passed
    assert check.lhs.startswith("ZeroDivisionError: ")
    assert check.rhs == "no exception"


def test_hankel_det_validation():
    with pytest.raises(ValueError):
        hankel_det(0, 1)
    with pytest.raises(ValueError):
        hankel_det(2, 3)


def test_solve_small():
    sol1 = solve_branch_system(1)
    assert sol1.b(1) == ZMonomial(Fraction(-1, 4), 1)
    sol2 = solve_branch_system(2)
    assert sol2.b(2) == ZMonomial(Fraction(1, 16), 2)


def test_one_binomial_solve_matches_the_double_sum():
    # the oracle: collecting the odd powers of s in (1 + s)^{2k+1} = P + s Q
    # gives Q = sum_i C(2k+1, 2i+1) (1 - t)^i, whose t^j coefficient is a sum
    for k in range(1, 61):
        sol = solve_branch_system(k)
        for j in range(1, k + 1):
            q_j = sum(binomial(2 * k + 1, 2 * i + 1) * binomial(i, j) for i in range(j, k + 1))
            assert sol.b(j) == ZMonomial(Fraction((-1) ** j * q_j, 4**k), j)


@pytest.mark.parametrize("k", range(1, 7))
def test_solution_satisfies_matrix_equation(k):
    sol = solve_branch_system(k)
    assert sol.b(k).coeff == Fraction(-1, 4) ** k
    for j in range(1, k + 1):
        assert sol.b(j).exp == j
    for i in range(k):
        acc = Fraction(0)
        for j in range(k):
            acc += sqrt_coeff(1 + i + j).coeff * sol.b(k - j).coeff
        assert acc == -sqrt_coeff(k + 1 + i).coeff
        # monomial grading of each row: every product sits at z^{k+1+i}
        assert all(
            sqrt_coeff(1 + i + j).exp + sol.b(k - j).exp == k + 1 + i
            for j in range(k)
        )


def test_leading_coefficient_check_catches_a_wrong_b_k(monkeypatch):
    # a doubled B_k disagrees with Cramer's rule on the sqrt_coeff system
    def doubled_leading(k):
        sol = solve_branch_system(k)
        lead = sol.coeffs[0]
        return BranchCoefficients(k, (ZMonomial(2 * lead.coeff, lead.exp),) + sol.coeffs[1:])

    with monkeypatch.context() as patch:
        patch.setattr(hankel, "solve_branch_system", doubled_leading)
        checks = {c.name: c for c in run_suite("hankel", kmax=3).checks}
    check = checks["hankel/leading_coefficient[k<=3]"]
    assert check.lhs == "3 of 3 cases differ, first at k=1: (-1/2, 1)"
    assert check.rhs == "(-1/4, 1)"
    # the right side is read off the system: D_m scaled by 2^m scales the
    # Cramer value of B_k by 2^k, while the library solve is untouched
    def scaled(m):
        d = sqrt_coeff(m)
        return ZMonomial(2**m * d.coeff, d.exp)

    monkeypatch.setattr(verify, "sqrt_coeff", scaled)
    checks = {c.name: c for c in run_suite("hankel", kmax=3).checks}
    check = checks["hankel/leading_coefficient[k<=3]"]
    assert check.lhs == "3 of 3 cases differ, first at k=1: (-1/4, 1)"
    assert check.rhs == "(-1/2, 1)"


def test_solve_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_branch_system(0)


@pytest.mark.parametrize("k", range(6))
def test_solvability_boundary(k):
    assert branch_identity_holds(k, 2 * k + 1)
    assert not branch_identity_holds(k, 2 * k + 2)


def test_weaker_congruence_is_solvable():
    assert branch_identity_holds(1, 1)


@pytest.mark.parametrize("k", range(4))
def test_monotone_in_congruence_order(k):
    results = [branch_identity_holds(k, n) for n in range(1, 2 * k + 4)]
    assert results == sorted(results, reverse=True)


def test_torsion_exponents_from_boundary():
    # flag level k supports the identity exactly up to order 2k+1, so the
    # exponents read off per level are 1, 3, 5, ...
    assert [max_solvable_order(k) for k in range(12)] == [2 * k + 1 for k in range(12)]


def test_branch_identity_validates_input():
    with pytest.raises(ValueError):
        branch_identity_holds(-1, 1)
    with pytest.raises(ValueError):
        branch_identity_holds(1, 0)
    with pytest.raises(ValueError):
        max_solvable_order(-1)
    for j in (0, 3):
        with pytest.raises(ValueError):
            solve_branch_system(2).b(j)


def test_boundary_is_returned_without_the_residual():
    with recording_ops() as ran:
        assert max_solvable_order(9) == 19
    assert ran == {"hankel.max_solvable_order"}


def test_shifted_max_solvable_order_fails_verify(monkeypatch):
    closed = hankel.max_solvable_order
    monkeypatch.setattr(hankel, "max_solvable_order", lambda k: closed(k) + 1)
    failed = {c.name: c.lhs for c in run_suite("hankel", kmax=3).failures}
    # the decision reads the boundary, so both of its checks fail
    assert failed == {
        "hankel/torsion_exponent[i<=5]": "5 of 5 cases differ, first at i=1: 2",
        "hankel/decisions_vs_residual[k<=5]": "6 of 48 cases differ, first at k=0,n=2: True",
    }


def test_boundary_past_2k_plus_1_fails_verify(monkeypatch):
    def late_boundary(k, n):
        return n <= 2 * k + 2

    monkeypatch.setattr(hankel, "branch_identity_holds", late_boundary)
    failed = {c.name: c.lhs for c in run_suite("hankel", kmax=3).failures}
    # one decision per flag level k = 0..5 is wrong: n = 2k + 2
    assert failed == {
        "hankel/decisions_vs_residual[k<=5]": "6 of 48 cases differ, first at k=0,n=2: True",
    }


def test_boundary_wrong_only_past_kmax_fails_verify(monkeypatch):
    # the decisions are swept to k = 5 whatever kmax is
    holds = hankel.branch_identity_holds

    def late_from_k4(k, n):
        return n <= 2 * k + 2 if k >= 4 else holds(k, n)

    monkeypatch.setattr(hankel, "branch_identity_holds", late_from_k4)
    failed = {c.name: c.lhs for c in run_suite("hankel", kmax=2).failures}
    assert failed == {
        "hankel/decisions_vs_residual[k<=5]": "2 of 48 cases differ, first at k=4,n=10: True",
    }


def test_residual_of_solved_k1_system_by_direct_expansion():
    # k = 1: g = 1 + b_1 t and f = 1 + (b_1 + D_1) t; expand f^2 - (1-t) g^2
    # by hand and compare with the verify oracle's residual, which is taken
    # times 16^k
    b1 = solve_branch_system(1).b(1).coeff
    d1 = sqrt_coeff(1).coeff
    assert (b1, d1) == (Fraction(-1, 4), Fraction(-1, 2))
    f1 = b1 + d1
    by_hand = [0, 2 * f1 - 2 * b1 + 1, f1**2 - b1**2 + 2 * b1, b1**2]
    assert by_hand == [0, 0, 0, Fraction(1, 16)]
    scaled = TruncatedSeries([16 * c for c in by_hand], 4)
    assert _branch_residual(1, [sqrt_coeff(0), sqrt_coeff(1)]) == scaled


def _pade_pair(k):
    """(P, Q) with (1 + s)^{2k+1} = P + s Q, s^2 = 1 - t, as t-coefficient
    lists built from binomials alone."""
    p, q = [0] * (k + 1), [0] * (k + 1)
    for i in range(2 * k + 2):
        # C(2k+1, i) s^i with s^i = s^{i mod 2} (1 - t)^m, m = i // 2
        target, m = (q if i % 2 else p), i // 2
        for e in range(m + 1):
            target[e] += binomial(2 * k + 1, i) * binomial(m, e) * (-1) ** e
    return p, q


@pytest.mark.parametrize("k", range(1, 12))
def test_branch_candidate_is_the_pade_approximant(k):
    p, q = _pade_pair(k)
    sol = solve_branch_system(k)
    g = [Fraction(1)] + [sol.b(j).coeff for j in range(1, k + 1)]
    assert g == [Fraction(c, 4**k) for c in q]
    f = [
        sum(sqrt_coeff(m - j).coeff * g[j] for j in range(m + 1))
        for m in range(k + 1)
    ]
    assert f == [Fraction(c, 4**k) for c in p]
    # the oracle returns 16^k r, and r = t^{2k+1}/16^k
    expected = [0] * (2 * k + 1) + [1]
    root = [sqrt_coeff(j) for j in range(k + 1)]
    assert _branch_residual(k, root) == TruncatedSeries(expected, 2 * k + 2)


@pytest.mark.parametrize("k", range(9))
def test_the_residual_is_built_in_integers(k):
    root = [sqrt_coeff(j) for j in range(k + 1)]
    assert all(type(c) is int for c in _branch_residual(k, root).coeffs)


def test_a_solve_off_by_half_a_scaled_unit_fails_the_residual(monkeypatch):
    # B_1 + 1/(2 4^k) times 4^k is not an integer: the residual says so
    # rather than truncating it, and the other checks still run
    def nudged(k):
        sol = solve_branch_system(k)
        b1 = sol.coeffs[-1]
        return BranchCoefficients(k, sol.coeffs[:-1] + (ZMonomial(b1.coeff + Fraction(1, 2 * 4**k), 1),))

    monkeypatch.setattr(hankel, "solve_branch_system", nudged)
    report = run_suite("hankel", kmax=3)
    assert len(report.checks) == 6
    check = {c.name: c for c in report.checks}["hankel/residual[k<=3]"]
    assert (check.lhs, check.rhs) == ("ValueError: -1/2 is not an integer after 0 cases", "no exception")
