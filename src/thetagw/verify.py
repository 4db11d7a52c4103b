"""Verification suites: every identity the library asserts, run as exact
checks with a uniform pass/fail report.

Suites are generator functions that yield :class:`Check`s.  A suite's
keyword-only parameters, with their defaults, are the sweep bounds it takes;
they are read once, when this module is imported.  The CLI renders the
checks and turns failures into exit codes.  Each identity is one check,
whatever the bounds: a single typed-in value is compared on its own, and a
sweep is one check over all of its cases.  A sweep passes when every case
agrees and then reads "<n> cases equal"; on failure its lhs reads "<k> of <n>
cases differ, first at <case>: <its lhs>" and its rhs is that case's rhs.
Only the first failing case is kept and formatted, so a sweep takes memory
independent of its case count, and a sweep with no case fails.  A check
computes its values from callables inside its own ``try``, and a table that
several checks read is a cached callable they each call, so what raises
fails exactly its readers, with lhs "<ExcType>: <message>[ after <n> cases]".
Coverage is measured, not declared: :func:`run_suite` records which
operations registered with :func:`thetagw.core.op` ran while the suites
did, and the combined run fails unless every registered operation ran.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from . import degeneration, hankel, invariants, spin, torsion
from .core import (
    OPS,
    SUITE_NAMES,
    binomial,
    descendant_multisets,
    partitions_of,
    rational_str,
    recording_ops,
    required_chi,
    unlimited_digits,
)
from .invariants import InvariantQuery
from .series import TruncatedSeries, ZMonomial, sqrt_coeff

# insertions per multiset in the degeneration grids
_NMAX = 4


Check = namedtuple("Check", "name passed lhs rhs")


class Report(namedtuple("Report", "suite checks coverage")):
    """The checks of one run, and the registered ops it ran by module."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _text(value) -> str:
    """Exact text of a check value: a rational as num/den (see
    :func:`thetagw.core.rational_str`), through tuples, records among them,
    lists and dicts."""
    if isinstance(value, Fraction):
        return rational_str(value.numerator, value.denominator)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_text, value)) + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_text(k)}: {_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def _eq(name: str, lhs: Callable[[], object], rhs) -> Check:
    """One check of lhs() against rhs, or against rhs() when rhs is callable;
    both values are formatted, whether the check passes or not."""
    try:
        with unlimited_digits():
            value, want = lhs(), rhs() if callable(rhs) else rhs
            return Check(name, value == want, _text(value), _text(want))
    except Exception as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}", "no exception")


def _cases(name: str, fields: str, cases: Callable[[], Iterable[tuple]]) -> Check:
    """One check over the cases ``cases()`` yields, each a (key, lhs, rhs)
    triple; it passes when every lhs equals its rhs, and fails when there is
    no case or when producing, comparing or formatting a case raises.  Only
    the first failing case is kept and formatted: its key reads
    "field=value,..." with the space-separated names in ``fields`` and a
    tuple value printed as a list, so a key of another length fails the
    check."""
    count = wrong = 0
    try:
        with unlimited_digits():
            for key, lhs, rhs in cases():
                if lhs != rhs:
                    wrong += 1
                    if wrong == 1:
                        first = key, lhs, rhs
                count += 1
            if wrong:
                key, lhs, rhs = first
                at = ",".join(f"{field}={list(v) if isinstance(v, tuple) else v}"
                              for field, v in zip(fields.split(), key, strict=True))
                lhs = f"{wrong} of {count} cases differ, first at {at}: {_text(lhs)}"
                return Check(name, False, lhs, _text(rhs))
    except Exception as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc} after {count} cases", "no exception")
    if not count:
        return Check(name, False, "no cases", "at least one case")
    agree = f"{count} cases equal"
    return Check(name, True, agree, agree)


def _leading_minors(rows: list[list[Fraction]]) -> list[Fraction]:
    """Every leading minor, of sizes 1..n, by one fraction-free Bareiss
    elimination without pivoting; the oracle for the closed-form Hankel
    determinants.  Each row is scaled to integers by the lcm of its
    denominators, so every division is exact in integers, and by Sylvester's
    identity the pivot after step i is the scaled leading (i+1)-minor.  A
    zero minor of size <= n-2 is a later divisor: ZeroDivisionError."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    n = len(m)
    prev = 1
    for i in range(n - 1):
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return [Fraction(m[i][i], s) for i, s in enumerate(itertools.accumulate(scales, operator.mul))]


def _beta_weight(a: int) -> Fraction:
    """a!/(2a+1)! from Euler's Beta integral, without the factorial
    quotient: B(a+1, a+1) = a! a!/(2a+1)! = sum_k (-1)^k C(a, k)/(a+k+1),
    divided by a! = 1 * 2 * ... * a."""
    beta = sum(Fraction((-1) ** k * binomial(a, k), a + k + 1) for k in range(a + 1))
    return beta / math.prod(range(1, a + 1))


def _descendant_block_deg2(a: int) -> Fraction:
    """Degree-two weight of a single point-class descendant insertion,
    a!/(2a+1)! * (-2)^{+a}: the per-insertion `Fraction` block that the
    integer kernel of :mod:`thetagw.invariants` is checked against."""
    return Fraction(math.factorial(a), math.factorial(2 * a + 1)) * Fraction(-2) ** a


def suite_parity(*, hmax: int = 12) -> Iterator[Check]:
    top = max(hmax, 2)  # the splits start at h = 2
    census = functools.cache(lambda: [spin.parity_census(h) for h in range(top + 1)])

    def counts(c: spin.ParityCensus) -> tuple[int, int]:
        return c.even_count, c.odd_count

    yield _cases("parity/census[h<=1]", "h", lambda: (
        ((h,), (census()[h].total, *counts(census()[h])), want)
        for h, want in ((0, (1, 1, 0)), (1, (4, 3, 1)))
    ))
    yield _cases(f"parity/census_gap[h<={hmax}]", "h", lambda: (
        ((h,), census()[h].gap, 2**h) for h in range(hmax + 1)
    ))

    def splits():
        # Arf additivity over an orthogonal splitting of the base curve
        for h1 in range(1, top // 2 + 1):
            for h2 in range(h1, top - h1 + 1):
                (e1, o1), (e2, o2) = counts(census()[h1]), counts(census()[h2])
                yield (h1, h2), counts(census()[h1 + h2]), (e1 * e2 + o1 * o2, e1 * o2 + o1 * e2)

    yield _cases(f"parity/census_splits[h1+h2<={top}]", "h1 h2", splits)
    brute_top = min(hmax, 5)
    yield _cases(f"parity/arf_oracle[h<={brute_top}]", "h", lambda: (
        ((h,), counts(spin.arf_census_bruteforce(h)), counts(census()[h]))
        for h in range(1, brute_top + 1)
    ))
    # the quintic surface in P^3 and its canonical curve: h = K^2 + 1 and
    # parity = chi(O_S) = p_g + 1 - q mod 2 (invariants docstring), and the
    # degree-1 value with no insertions is Lee-Parker's (-1)^chi(O_S) = -1
    k2, p_g, q = 5, 4, 0
    h, parity = k2 + 1, (p_g + 1 - q) % 2
    yield _eq(
        f"parity/quintic_lee_parker[h={h}]",
        lambda: invariants.degree1(InvariantQuery(1, h, parity)),
        Fraction(-1),
    )


def suite_etale(*, hmax: int = 12) -> Iterator[Check]:
    grid = list(itertools.product(range(hmax + 1), (0, 1)))
    yield _cases(f"etale/unweighted_closed_form[h<={hmax}]", "h parity", lambda: (
        ((h, p), spin.signed_double_cover_sum(h, p, "unweighted"), (-1) ** p * 2**h)
        for h, p in grid
    ))
    yield _cases(f"etale/weighted_vs_degree2[h<={hmax}]", "h parity", lambda: (
        ((h, p), spin.signed_double_cover_sum(h, p, "weighted"),
         invariants.degree2(InvariantQuery(2, h, p, ())))
        for h, p in grid
    ))
    # one value past the int->str digit limit, 2^14999 with 4516 digits: a
    # run that does not lift the limit fails here, though every value agrees
    yield _eq(
        "etale/weighted_vs_degree2[h=15000]",
        lambda: spin.signed_double_cover_sum(15000, 0, "weighted"),
        lambda: invariants.degree2(InvariantQuery(2, 15000, 0, ())),
    )
    # an etale double cover of a genus-h curve has genus 2h - 1 by
    # Riemann-Hurwitz, 2g - 2 = 2(2h - 2), so chi(O) = 1 - g = 2(1 - h)
    yield _cases(f"etale/double_cover_chi[h<={hmax}]", "h", lambda: (
        ((h,), required_chi(2, h, ()), 2 * (1 - h)) for h in range(hmax + 1)
    ))


def _integer(value: Fraction) -> int:
    """value as an int, or a ValueError when it is not an integer; never a
    truncation, which could make a wrong solve look right."""
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return value.numerator


def _branch_residual(k: int, coeffs: list[ZMonomial]) -> TruncatedSeries:
    """16^k times the residual r(t) = f^2 - (1 - t) g^2 of the flag-level-k
    candidate; the oracle for the solvability boundary the library returns.

    g = 1 + b_1 t + ... + b_k t^k comes from the graded solve (g = 1 at
    k = 0) and f is the degree <= k part of sqrt(1 - t) g, read from
    ``coeffs``, the values of ``sqrt_coeff`` from j = 0 on.  Times 4^k, g
    and sqrt(1 - t) have integer coefficients, and so has 4^k f; each is
    taken as an int exactly, so the series multiply in integers, and a
    coefficient that is not an integer raises ValueError.  r has degree
    <= 2k+1, so order 2k+2 holds it exactly.
    """
    g_coeffs = [Fraction(1)]
    if k >= 1:
        sol = hankel.solve_branch_system(k)
        g_coeffs += [sol.b(j).coeff for j in range(1, k + 1)]
    scale, order = 4**k, 2 * k + 2
    g = TruncatedSeries([_integer(scale * c) for c in g_coeffs], order)
    root = TruncatedSeries([_integer(scale * c.coeff) for c in coeffs[: k + 1]], order)
    f = TruncatedSeries([_integer(Fraction(c, scale)) for c in (root * g).coeffs[: k + 1]], order)
    return f * f - TruncatedSeries((1, -1), order) * g * g


def suite_hankel(*, kmax: int = 8) -> Iterator[Check]:
    # D_j = sqrt_coeff(j) up to the largest index any check below reads
    d = functools.cache(lambda: [sqrt_coeff(j) for j in range(2 * max(kmax, 5) + 1)])

    # one elimination per shift, whose minor k is the size-k determinant
    minors = functools.cache(lambda shift: _leading_minors(
        [[d()[shift + i + j].coeff for j in range(kmax)] for i in range(kmax)]))

    def determinants():
        for k, shift in itertools.product(range(1, kmax + 1), (1, 2)):
            det = hankel.hankel_det(k, shift)
            # every permutation product carries the diagonal's z-exponent
            exp = sum(d()[shift + 2 * i].exp for i in range(k))
            yield (k, shift), (det.coeff, det.exp), (minors(shift)[k - 1], exp)

    yield _cases(f"hankel/det_closed_form[k<={kmax}]", "k shift", determinants)
    top = min(kmax, 6)
    sols = functools.cache(lambda: {k: hankel.solve_branch_system(k) for k in range(1, top + 1)})

    def cramer():
        for k, sol in sols().items():
            # Cramer's rule for B_k: column 0 of the sqrt_coeff system replaced
            # by the right-hand side -D_{k+1+i}
            replaced = [[-d()[k + 1 + i].coeff] + [d()[1 + i + j].coeff for j in range(1, k)] for i in range(k)]
            cramer_b = _leading_minors(replaced)[-1] / minors(1)[k - 1]
            yield (k,), (sol.b(k).coeff, sol.b(k).exp), (cramer_b, k)

    yield _cases(f"hankel/leading_coefficient[k<={top}]", "k", cramer)
    # substitute back: row i reads sum_j D_{1+i+j} B_{k-j} = -D_{k+1+i}
    yield _cases(f"hankel/substitution[k<={top}]", "k row", lambda: (
        ((k, i), sum(d()[1 + i + j].coeff * sol.b(k - j).coeff for j in range(k)),
         -d()[k + 1 + i].coeff)
        for k, sol in sols().items()
        for i in range(k)
    ))
    # the oracle residual once per flag level, and its valuation v_k
    residuals = functools.cache(lambda: [_branch_residual(k, d()) for k in range(max(kmax, 5) + 1)])
    valuation = functools.cache(lambda: [r.z_order() for r in residuals()])
    yield _cases(f"hankel/residual[k<={kmax}]", "k", lambda: (
        ((k,), residuals()[k], TruncatedSeries([0] * (2 * k + 1) + [1], 2 * k + 2))
        for k in range(kmax + 1)
    ))
    # every decision up to two orders past the boundary, whatever kmax
    yield _cases("hankel/decisions_vs_residual[k<=5]", "k n", lambda: (
        ((k, n), hankel.branch_identity_holds(k, n), n <= valuation()[k])
        for k in range(6)
        for n in range(1, 2 * k + 4)
    ))
    yield _cases("hankel/torsion_exponent[i<=5]", "i", lambda: (
        ((i,), hankel.max_solvable_order(i - 1), valuation()[i - 1]) for i in range(1, 6)
    ))


def _table_cases(d: int, parity: int, hmax: int, alpha_budget: int) -> Iterator[tuple]:
    """Every integer row of the single-pass table against one evaluation per
    row, as (key, lhs, rhs) cases keyed by (d, parity, h, alphas); the
    evaluated `Fraction` is normalized, so a row that is not in lowest terms
    or has a negative denominator differs too."""
    multisets = list(descendant_multisets(alpha_budget, alpha_budget))

    def evaluated(h: int, alphas: tuple[int, ...]) -> tuple:
        v = invariants.evaluate(InvariantQuery(d, h, parity, alphas))
        return h, alphas, v.numerator, v.denominator

    expected = itertools.starmap(evaluated, itertools.product(range(hmax + 1), multisets))
    blocks = invariants.value_table(d, parity, hmax, alpha_budget)
    rows = ((h, *row) for h, block in blocks for row in block)
    # a missing or an extra row pairs with None, and is keyed by its other side
    for row, want in itertools.zip_longest(rows, expected):
        yield (d, parity, *(row or want)[:2]), row, want


def _kernel_case(parity: int, alphas: tuple[int, ...]) -> tuple:
    """The integer kernel's degree 1 and 2 at h = 0 against the products of
    the per-insertion Fraction blocks, as one (key, lhs, rhs) case."""
    sign = (-1) ** parity
    deg1 = math.prod(map(invariants.descendant_block, alphas), start=Fraction(sign))
    deg2 = math.prod(
        map(_descendant_block_deg2, alphas),
        start=sign * Fraction(2) ** (len(alphas) - 1),
    )
    kernel = (
        invariants.degree1(InvariantQuery(1, 0, parity, alphas)),
        invariants.degree2(InvariantQuery(2, 0, parity, alphas)),
    )
    return (parity, alphas), kernel, (deg1, deg2)


def _row_set_cases(alpha_budget: int) -> Iterator[tuple]:
    """The multisets a table lists, from :func:`thetagw.core.descendant_multisets`,
    paired by position with a route of their own: the weakly increasing
    tuples of each length 0..alpha_budget in lexicographic order, which
    `itertools.combinations_with_replacement` yields, filtered by sum."""
    own = (
        alphas
        for n in range(alpha_budget + 1)
        for alphas in itertools.combinations_with_replacement(range(alpha_budget + 1), n)
        if sum(alphas) <= alpha_budget
    )
    listed = descendant_multisets(alpha_budget, alpha_budget)
    for i, (row, want) in enumerate(itertools.zip_longest(listed, own)):
        yield (i,), row, want


def _chi_case(d: int, h: int, alphas: tuple[int, ...]) -> tuple:
    """`required_chi` against 1 - g solved from the dimension count, as one
    (key, lhs, rhs) case: vdim M_{g,n}(Y, d[C]) = g - 1 + d(1 - h) + n must
    equal the total degree of the insertions, a + 1 for each tau_a."""
    g = sum(a + 1 for a in alphas) + 1 - d * (1 - h) - len(alphas)
    return (d, h, alphas), required_chi(d, h, alphas), 1 - g


def suite_degeneration(*, hmax: int = 10, alpha_budget: int = 6) -> Iterator[Check]:
    yield _eq(
        "degeneration/bubble_tau1_pair_vs_table",
        lambda: degeneration.bubble_channel_11((1,)),
        Fraction(-1, 6),
    )
    yield _eq(
        "degeneration/degree1_tau1_vs_table",
        lambda: invariants.degree1(InvariantQuery(1, 3, 0, (1,))),
        Fraction(-1, 12),
    )
    yield _eq("degeneration/bubble_unit", lambda: degeneration.bubble_channel_11(()), Fraction(1))
    # the rational base case: degree 2 at genus 0, even parity
    yield _eq("degeneration/base_tau1", lambda: invariants.degree2(InvariantQuery(2, 0, 0, (1,))), Fraction(-1, 3))
    yield _eq("degeneration/base_empty", lambda: invariants.degree2(InvariantQuery(2, 0, 0)), Fraction(1, 2))
    yield _eq(
        "degeneration/channel_coefficients",
        lambda: {eta.parts: Fraction(eta.weight, eta.aut) for eta in partitions_of(2)},
        {(1, 1): Fraction(1, 2), (2,): Fraction(2)},
    )

    multisets = functools.cache(lambda: list(descendant_multisets(_NMAX, alpha_budget)))
    yield _cases(
        f"degeneration/genus_scaling_grid[hmax={hmax},n<={_NMAX},sum<={alpha_budget}]", "h parity alphas",
        lambda: ((key, degeneration.gluing_consistent(*key), True)
                 for key in itertools.product(range(hmax + 1), (0, 1), multisets())),
    )
    yield _cases(
        f"degeneration/bubble_factorizes[n<={_NMAX},sum<={alpha_budget}]", "alphas",
        lambda: (((alphas,), degeneration.bubble_channel_11(alphas),
                  2 ** len(alphas) * invariants.degree1(InvariantQuery(1, 0, 0, alphas)))
                 for alphas in multisets()),
    )
    yield _cases(
        "degeneration/bubble_symmetric", "alphas order",
        lambda: (((alphas, p), degeneration.bubble_channel_11(p), base)
                 for alphas in ((1, 2), (0, 1, 3), (2, 2, 1))
                 for base in [degeneration.bubble_channel_11(tuple(sorted(alphas)))]
                 for p in itertools.permutations(alphas)),
    )
    yield _cases(
        "degeneration/bubble_unit_insertion[n<=3,sum<=4]", "alphas",
        lambda: (((alphas,), degeneration.bubble_channel_11(alphas + (0,)),
                  2 * degeneration.bubble_channel_11(alphas))
                 for alphas in descendant_multisets(3, 4)),
    )
    # degree 2 over degree 1 is 2^{h+n-1} prod_i 4^{a_i}
    yield _cases(
        "degeneration/degree_ratio[h=0,1,5,n<=3,sum<=6]", "h alphas",
        lambda: (((h, alphas), invariants.degree2(InvariantQuery(2, h, 0, alphas)),
                  invariants.degree1(InvariantQuery(1, h, 0, alphas))
                  * Fraction(2) ** (h + len(alphas) - 1 + 2 * sum(alphas)))
                 for h, alphas in itertools.product((0, 1, 5), descendant_multisets(3, 6))),
    )
    # the integer kernel against the per-insertion Fraction blocks at h = 0;
    # the genus enters through 2^h alone, which genus_scaling_grid checks
    yield _cases(
        f"degeneration/kernel_vs_blocks[n<={_NMAX},sum<={alpha_budget}]", "parity alphas",
        lambda: itertools.starmap(_kernel_case, itertools.product((0, 1), multisets())),
    )
    yield _cases(
        f"degeneration/value_table[hmax={hmax},sum<={alpha_budget}]", "d parity h alphas",
        lambda: itertools.chain.from_iterable(
            _table_cases(d, parity, hmax, alpha_budget)
            for d, parity in itertools.product((1, 2), (0, 1))
        ),
    )
    # the own route draws C(2b+1, b) tuples to keep a few thousand: 0.06 s at
    # b = 10, 1.4 s at 12, so the row set is checked up to 10
    top = min(alpha_budget, 10)
    yield _cases(f"degeneration/row_set[sum<={top}]", "row", lambda: _row_set_cases(top))
    yield _cases(
        f"degeneration/chi_from_vdim[hmax={hmax},n<={_NMAX},sum<={alpha_budget}]", "d h alphas",
        lambda: itertools.starmap(_chi_case, itertools.product((1, 2), range(hmax + 1), multisets())),
    )
    yield _cases(
        f"degeneration/weight_beta_oracle[a<={2 * alpha_budget}]", "a",
        lambda: (((a,), (invariants.degree1(InvariantQuery(1, 0, 0, (a,))),
                         invariants.degree2(InvariantQuery(2, 0, 0, (a,)))),
                  (weight * Fraction(-2) ** -a, weight * Fraction(-2) ** a))
                 for a, weight in enumerate(map(_beta_weight, range(2 * alpha_budget + 1)))),
    )


def _cone_sums(h: int) -> list[int]:
    """sum_j C(2h+2, h-2-j) x_j for j = 0..h-2, with x_j = a_j over even j,
    a_j over odd j and b_j over all j, where a_j and b_j are the unsigned and
    signed sums of the level-j//2 cone multiplicities."""
    sums = [0, 0, 0]
    for j in range(h - 1):
        table = torsion.cone_multiplicity_table(j // 2, torsion.FAMILIES[j % 2])
        row = binomial(2 * h + 2, h - 2 - j)
        sums[j % 2] += row * sum(mult for _, mult in table)
        sums[2] += row * torsion.b_from_cones(j)
    return sums


def suite_torsion(*, hmax: int = 50) -> Iterator[Check]:
    hmax = max(hmax, 2)  # the h >= 2 sweeps need h = 2 in range
    ab = operator.attrgetter("a", "b")
    yield _eq("torsion/ledger[h=2]", lambda: ab(torsion.build_ledger(2)), ((1,), (-1,)))
    yield _eq("torsion/ledger[h=3]", lambda: ab(torsion.build_ledger(3)), ((1, 2), (-1, -2)))
    yield _eq("torsion/ledger[h=4]", lambda: tuple(seq[2] for seq in ab(torsion.build_ledger(4))), (4, -2))

    # the closed-form ledger against the cone tables, for j <= 60 (r <= 30):
    # a_j is the unsigned sum of the level-r multiplicities, b_j the signed one
    big = functools.cache(lambda: torsion.build_ledger(62))
    yield _cases("torsion/a_closed_forms[r<=30]", "j", lambda: (
        ((j,), big().a[j], sum(m for _, m in torsion.cone_multiplicity_table(j // 2, torsion.FAMILIES[j % 2])))
        for j in range(61)
    ))
    yield _cases("torsion/b_two_routes[j<=60]", "j", lambda: (
        ((j,), torsion.b_from_cones(j), big().b[j]) for j in range(61)
    ))

    yield _eq("torsion/cone_table[r=0,prime]", lambda: torsion.cone_multiplicity_table(0, "prime"), [(1, 1)])
    yield _eq(
        "torsion/cone_table[r=1,prime]",
        lambda: torsion.cone_multiplicity_table(1, "prime"),
        [(2, 1), (1, 3)],
    )
    yield _eq("torsion/cone_table[r=0,dblprime]", lambda: torsion.cone_multiplicity_table(0, "dblprime"), [(1, 2)])

    yield _cases(f"torsion/identity[h<={hmax}]", "h", lambda: (
        ((h,), torsion.branched_cover_identity(h), True) for h in range(2, hmax + 1)
    ))

    loci = operator.itemgetter("over_lambda_prime", "over_lambda_dblprime")
    yield _eq("torsion/degrees[h=2]", lambda: loci(torsion.torsion_degrees(2)), (Fraction(1, 2), Fraction(0)))
    yield _eq("torsion/degrees[h=3]", lambda: loci(torsion.torsion_degrees(3)), (Fraction(4), Fraction(1)))
    yield _eq("torsion/degrees[h=4,prime]", lambda: torsion.torsion_degrees(4)["over_lambda_prime"], Fraction(49, 2))

    top = min(hmax, 30)
    cones = functools.cache(lambda: [_cone_sums(h) for h in range(top + 1)])
    splits = functools.cache(lambda: {
        (h, p): invariants.degree2_tau1_decomposition(h, p) for h in range(top + 1) for p in (0, 1)
    })
    yield _cases(f"torsion/grand_total[h<={top}]", "h parity", lambda: (
        ((h, p), splits()[h, p]["grand_total"], invariants.degree2(InvariantQuery(2, h, p, (1,))))
        for h, p in itertools.product(range(2, top + 1), (0, 1))
    ))
    # the tau_1 split part by part: the census gap's closed form 2^h times the
    # (1)-contact bubble value -1/12, and the dominant term less half the
    # cone-table ledger sum
    yield _cases(f"torsion/etale_total[h<={top}]", "h parity", lambda: (
        ((h, p), d["etale_total"], (-1) ** p * 2**h * Fraction(-1, 12))
        for (h, p), d in splits().items()
    ))
    yield _cases(f"torsion/branched_total[h<={top}]", "h parity", lambda: (
        ((h, p), d["branched_total"],
         (-1) ** p * ((h - 2) * Fraction(2) ** (2 * h - 3) - Fraction(a_even + a_odd - b, 2)))
        for (h, p), d in splits().items()
        for a_even, a_odd, b in [cones()[h]]
    ))
    # the total assembled from spin, degree1 and the dominant term
    yield _cases(f"torsion/twisted_total[h<={top}]", "h", lambda: (
        ((h,), invariants.twisted_breakdown(h).total, (h - Fraction(8, 3)) * 2 ** (2 * h - 3))
        for h in range(2, top + 1)
    ))
    # each locus against its half of the ledger's a-part, from the cone tables
    yield _cases(f"torsion/degrees_vs_cones[h<={top}]", "h locus", lambda: (
        ((h, locus), degrees[locus], Fraction(cones()[h][j], 2))
        for h in range(2, top + 1)
        for degrees in [torsion.torsion_degrees(h)]
        for j, locus in enumerate(("over_lambda_prime", "over_lambda_dblprime"))
    ))
    yield _cases("torsion/exponent_from_boundary[i<=5]", "i", lambda: (
        ((i,), hankel.max_solvable_order(i - 1),
         max(mult for _, mult in torsion.cone_multiplicity_table(i - 1, "prime")))
        for i in range(1, 6)
    ))


# every suite, in the order "all" runs them, by the name the CLI offers
_SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES if name != "all"}
# the bounds each suite takes, read here once: a traced run may rebind the
# suite table with wrappers that keep no keyword defaults
_BOUNDS = {name: frozenset(func.__kwdefaults__) for name, func in _SUITE_FUNCS.items()}
_BOUNDS["all"] = frozenset().union(*_BOUNDS.values())


def suite_bounds(suite: str) -> frozenset[str]:
    """Names of the sweep bounds ``suite`` takes, its keyword-only
    parameters; for "all", every bound some suite takes."""
    return _BOUNDS[suite]


def run_suite(suite: str, **bounds: int | None) -> Report:
    """Run one suite (or all of them) over the given sweep bounds.  Each
    suite gets the bounds it takes, and a bound left as None takes the
    suite's own default; a bound that no suite takes is a ValueError.

    A check that raises fails alone (see :func:`_cases`); each check lifts
    the int->str digit limit inside its own ``try``, so a fault in lifting it
    fails the check too.  Coverage is the set of registered ops that ran.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    unknown = bounds.keys() - _BOUNDS["all"]
    if unknown:
        raise ValueError(f"no suite takes the bound {', '.join(sorted(unknown))}")
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    checks: list[Check] = []
    with recording_ops() as exercised:
        for name in names:
            given = {k: v for k, v in bounds.items() if k in _BOUNDS[name] and v is not None}
            checks.extend(_SUITE_FUNCS[name](**given))
    if suite == "all":
        missing = ", ".join(sorted(OPS - exercised))
        lhs = f"missing: {missing}" if missing else "complete"
        checks.append(Check("coverage/all-operations-exercised", not missing, lhs, "complete"))
    coverage: dict[str, set[str]] = {}
    for name in exercised:
        module, _, func_name = name.partition(".")
        coverage.setdefault(module, set()).add(func_name)
    return Report(suite, checks, {m: frozenset(ops) for m, ops in coverage.items()})
