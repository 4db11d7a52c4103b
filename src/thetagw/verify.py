"""Verification suites: every identity the library asserts, run as exact
checks with a uniform pass/fail report.

Suites are generator functions that yield :class:`Check`s, and a suite's
parameters, with their defaults, are the sweep bounds it takes; the CLI
renders the checks and turns failures into exit codes.  A check over many
cases passes when every case agrees and then reads "<n> cases equal"; on
failure its lhs reads "<k> of <n> cases differ, first at <case>".
Coverage is measured, not declared: :func:`run_suite` records which
operations registered with :func:`thetagw.core.op` ran while the suites
did, and the combined run fails unless every registered operation ran.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import degeneration, hankel, invariants, spin, torsion
from .core import OPS, binomial, descendant_multisets, partitions_of, recording_ops
from .invariants import InvariantQuery
from .series import TruncatedSeries, sqrt_coeff

# insertions per multiset in the degeneration grids
_NMAX = 4


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    lhs: str
    rhs: str


@dataclass
class Report:
    suite: str
    checks: list[Check]
    coverage: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _eq(name: str, lhs, rhs) -> Check:
    return Check(name, lhs == rhs, str(lhs), str(rhs))


def _cases(name: str, label: Callable[..., str], cases: Iterable[tuple]) -> Check:
    """One check over many cases, each a (key, lhs, rhs) triple; it passes
    when every lhs equals its rhs.  Only the first failing key is labelled,
    as ``label(*key)``."""
    count = wrong = 0
    first = ()
    for key, lhs, rhs in cases:
        count += 1
        if lhs != rhs:
            wrong += 1
            if wrong == 1:
                first = key
    agree = f"{count} cases equal"
    if wrong:
        lhs = f"{wrong} of {count} cases differ, first at {label(*first)}"
        return Check(name, False, lhs, agree)
    return Check(name, True, agree, agree)


def _bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination, exact throughout;
    the oracle for the closed-form Hankel determinants."""
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


def _beta_weight(a: int) -> Fraction:
    """a!/(2a+1)! from Euler's Beta integral, without the factorial
    quotient: B(a+1, a+1) = a! a!/(2a+1)! = sum_k (-1)^k C(a, k)/(a+k+1),
    divided by a! = 1 * 2 * ... * a."""
    beta = sum(Fraction((-1) ** k * binomial(a, k), a + k + 1) for k in range(a + 1))
    return beta / math.prod(range(1, a + 1))


def suite_parity(hmax: int = 12) -> Iterator[Check]:
    c0 = spin.parity_census(0)
    yield _eq("parity/census[h=0]", (c0.total, c0.even_count, c0.odd_count), (1, 1, 0))
    c1 = spin.parity_census(1)
    yield _eq("parity/census[h=1]", (c1.total, c1.even_count, c1.odd_count), (4, 3, 1))
    for h in range(hmax + 1):
        c = spin.parity_census(h)
        yield _eq(f"parity/census_gap[h={h}]", c.gap, 2**h)
    # Arf additivity over an orthogonal splitting of the base curve
    for h1 in range(1, hmax // 2 + 1):
        for h2 in range(h1, hmax - h1 + 1):
            c1, c2 = spin.parity_census(h1), spin.parity_census(h2)
            c = spin.parity_census(h1 + h2)
            yield _eq(
                f"parity/census_splits[h1={h1},h2={h2}]",
                (c.even_count, c.odd_count),
                (
                    c1.even_count * c2.even_count + c1.odd_count * c2.odd_count,
                    c1.even_count * c2.odd_count + c1.odd_count * c2.even_count,
                ),
            )
    for h in range(1, min(hmax, 5) + 1):
        brute = spin.arf_census_bruteforce(h)
        closed = spin.parity_census(h)
        yield _eq(
            f"parity/arf_oracle[h={h}]",
            (brute.even_count, brute.odd_count),
            (closed.even_count, closed.odd_count),
        )


def suite_etale(hmax: int = 12) -> Iterator[Check]:
    for h in range(hmax + 1):
        for parity in (0, 1):
            sign = (-1) ** parity
            tag = f"h={h},parity={parity}"
            yield _eq(
                f"etale/unweighted_closed_form[{tag}]",
                spin.signed_double_cover_sum(h, parity, "unweighted"),
                sign * 2**h,
            )
            yield _eq(
                f"etale/weighted_vs_degree2[{tag}]",
                spin.signed_double_cover_sum(h, parity, "weighted"),
                invariants.degree2(InvariantQuery(2, h, parity, ())),
            )


def _branch_residual(k: int) -> TruncatedSeries:
    """The residual r(t) = f^2 - (1 - t) g^2 of the flag-level-k candidate;
    the oracle for the solvability boundary the library returns.

    g = 1 + b_1 t + ... + b_k t^k comes from the graded solve (g = 1 at
    k = 0) and f is the degree <= k part of sqrt(1 - t) g.  r has degree
    <= 2k+1, so order 2k+2 holds it exactly.
    """
    if k < 0:
        raise ValueError("flag level must be >= 0")
    g_coeffs = [Fraction(1)]
    if k >= 1:
        sol = hankel.solve_branch_system(k)
        g_coeffs += [sol.b(j).coeff for j in range(1, k + 1)]
    order = 2 * k + 2
    g = TruncatedSeries(g_coeffs, order)
    root = TruncatedSeries([sqrt_coeff(j).coeff for j in range(k + 1)], order)
    f = TruncatedSeries((root * g).coeffs[: k + 1], order)
    return f * f - TruncatedSeries((1, -1), order) * g * g


def suite_hankel(kmax: int = 8) -> Iterator[Check]:
    for k in range(1, kmax + 1):
        for shift in (1, 2):
            det = hankel.hankel_det(k, shift)
            entries = [[sqrt_coeff(shift + i + j) for j in range(k)] for i in range(k)]
            # every permutation product carries the diagonal's z-exponent
            exp = sum(entries[i][i].exp for i in range(k))
            yield _eq(
                f"hankel/det_closed_form[k={k},shift={shift}]",
                (det.coeff, det.exp),
                (_bareiss_det([[e.coeff for e in row] for row in entries]), exp),
            )
    for k in range(1, min(kmax, 6) + 1):
        sol = hankel.solve_branch_system(k)
        # Cramer's rule for B_k: column 0 of the sqrt_coeff system replaced
        # by the right-hand side -D_{k+1+i}
        system = [[sqrt_coeff(1 + i + j).coeff for j in range(k)] for i in range(k)]
        replaced = [[-sqrt_coeff(k + 1 + i).coeff] + row[1:] for i, row in enumerate(system)]
        yield _eq(
            f"hankel/leading_coefficient[k={k}]",
            (sol.b(k).coeff, sol.b(k).exp),
            (_bareiss_det(replaced) / _bareiss_det(system), k),
        )
        # substitute back: row i reads sum_j D_{1+i+j} B_{k-j} = -D_{k+1+i}
        yield _cases(f"hankel/substitution[k={k}]", lambda i: f"row={i}", (
            ((i,), sum(sqrt_coeff(1 + i + j).coeff * sol.b(k - j).coeff for j in range(k)),
             -sqrt_coeff(k + 1 + i).coeff)
            for i in range(k)
        ))
    # the oracle residual once per flag level, and its valuation v_k
    residuals = {k: _branch_residual(k) for k in range(max(kmax, 4) + 1)}
    valuation = {k: r.z_order() for k, r in residuals.items()}
    for k in range(kmax + 1):
        yield _eq(
            f"hankel/residual[k={k}]",
            residuals[k],
            TruncatedSeries([0] * (2 * k + 1) + [Fraction(1, 16**k)], 2 * k + 2),
        )
    for k in range(1, min(kmax, 5) + 1):
        for n, name in ((2 * k + 1, "solvable_at_boundary"),
                        (2 * k + 2, "insolvable_past_boundary")):
            yield _eq(f"hankel/{name}[k={k}]", hankel.branch_identity_holds(k, n), n <= valuation[k])
    for k in range(4):
        yield _cases(f"hankel/decisions_vs_residual[k={k}]", lambda n: f"n={n}", (
            ((n,), hankel.branch_identity_holds(k, n), n <= valuation[k])
            for n in range(1, 2 * k + 4)
        ))
    for i in range(1, 6):
        yield _eq(f"hankel/torsion_exponent[i={i}]", hankel.max_solvable_order(i - 1), valuation[i - 1])


def _table_check(d: int, parity: int, hmax: int, alpha_budget: int) -> Check:
    """Every integer row of the single-pass table against one evaluation per
    row; the evaluated `Fraction` is normalized, so a row that is not in
    lowest terms or has a negative denominator differs too."""
    multisets = list(descendant_multisets(alpha_budget, alpha_budget))

    def evaluated(h: int, alphas: tuple[int, ...]) -> tuple:
        v = invariants.evaluate(InvariantQuery(d, h, parity, alphas))
        return h, alphas, v.numerator, v.denominator

    expected = itertools.starmap(evaluated, itertools.product(range(hmax + 1), multisets))
    rows = invariants.value_table(d, parity, hmax, alpha_budget)
    # a missing or an extra row pairs with None, and is labelled by its other side
    return _cases(
        f"degeneration/value_table[d={d},parity={parity}]",
        lambda h, alphas, *_: f"h={h},alphas={list(alphas)}",
        ((row or want, row, want) for row, want in itertools.zip_longest(rows, expected)),
    )


def _kernel_case(parity: int, alphas: tuple[int, ...]) -> tuple:
    """The integer kernel's degree 1 and 2 at h = 0 against the products of
    the per-insertion Fraction blocks, as one (key, lhs, rhs) case."""
    sign = (-1) ** parity
    deg1 = math.prod(map(invariants.descendant_block, alphas), start=Fraction(sign))
    deg2 = math.prod(
        map(invariants._descendant_block_deg2, alphas),
        start=sign * Fraction(2) ** (len(alphas) - 1),
    )
    kernel = (
        invariants.degree1(InvariantQuery(1, 0, parity, alphas)),
        invariants.degree2(InvariantQuery(2, 0, parity, alphas)),
    )
    return (parity, alphas), kernel, (deg1, deg2)


def suite_degeneration(hmax: int = 10, alpha_budget: int = 6) -> Iterator[Check]:
    yield _eq(
        "degeneration/bubble_tau1_pair_vs_table",
        degeneration.bubble_channel_11((1,)),
        Fraction(-1, 6),
    )
    yield _eq(
        "degeneration/degree1_tau1_vs_table",
        invariants.degree1(InvariantQuery(1, 3, 0, (1,))),
        Fraction(-1, 12),
    )
    yield _eq("degeneration/bubble_unit", degeneration.bubble_channel_11(()), Fraction(1))
    yield _eq("degeneration/base_tau1", invariants.degree2_base((1,)), Fraction(-1, 3))
    yield _eq("degeneration/base_empty", invariants.degree2_base(()), Fraction(1, 2))

    coeffs = {
        eta.parts: Fraction(eta.weight, eta.aut) for eta in partitions_of(2)
    }
    yield _eq(
        "degeneration/channel_coefficients",
        coeffs,
        {(1, 1): Fraction(1, 2), (2,): Fraction(2)},
    )

    multisets = list(descendant_multisets(_NMAX, alpha_budget))
    yield _cases(
        f"degeneration/genus_scaling_grid[hmax={hmax},n<={_NMAX},sum<={alpha_budget}]",
        lambda h, parity, alphas: f"h={h},parity={parity},alphas={list(alphas)}",
        ((key, degeneration.gluing_consistent(*key), True)
         for key in itertools.product(range(hmax + 1), (0, 1), multisets)),
    )
    for alphas in multisets:
        yield _eq(
            f"degeneration/bubble_factorizes[alphas={list(alphas)}]",
            degeneration.bubble_channel_11(alphas),
            2 ** len(alphas) * invariants.degree1(InvariantQuery(1, 0, 0, alphas)),
        )
    for alphas in ((1, 2), (0, 1, 3), (2, 2, 1)):
        base = degeneration.bubble_channel_11(tuple(sorted(alphas)))
        yield _cases(
            f"degeneration/bubble_symmetric[alphas={list(alphas)}]",
            lambda p: f"order={list(p)}",
            (((p,), degeneration.bubble_channel_11(p), base) for p in itertools.permutations(alphas)),
        )
    for alphas in descendant_multisets(3, 4):
        yield _eq(
            f"degeneration/bubble_unit_insertion[alphas={list(alphas)}]",
            degeneration.bubble_channel_11(alphas + (0,)),
            2 * degeneration.bubble_channel_11(alphas),
        )
    for h in (0, 1, 5):
        for alphas in descendant_multisets(3, 6):
            n = len(alphas)
            ratio = Fraction(2) ** (h + n - 1)
            for a in alphas:
                ratio *= 4**a
            yield _eq(
                f"degeneration/degree_ratio[h={h},alphas={list(alphas)}]",
                invariants.degree2(InvariantQuery(2, h, 0, alphas)),
                invariants.degree1(InvariantQuery(1, h, 0, alphas)) * ratio,
            )
    # the integer kernel against the per-insertion Fraction blocks at h = 0;
    # the genus enters through 2^h alone, which genus_scaling_grid checks
    yield _cases(
        f"degeneration/kernel_vs_blocks[n<={_NMAX},sum<={alpha_budget}]",
        lambda parity, alphas: f"parity={parity},alphas={list(alphas)}",
        itertools.starmap(_kernel_case, itertools.product((0, 1), multisets)),
    )
    for d, parity in itertools.product((1, 2), (0, 1)):
        yield _table_check(d, parity, hmax, alpha_budget)
    for a in range(2 * alpha_budget + 1):
        weight = _beta_weight(a)
        yield _eq(
            f"degeneration/weight_beta_oracle[a={a}]",
            (
                invariants.degree1(InvariantQuery(1, 0, 0, (a,))),
                invariants.degree2(InvariantQuery(2, 0, 0, (a,))),
            ),
            (weight * Fraction(-2) ** -a, weight * Fraction(-2) ** a),
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


def suite_torsion(hmax: int = 50) -> Iterator[Check]:
    yield _eq("torsion/ledger[h=2]", (torsion.build_ledger(2).a, torsion.build_ledger(2).b), ((1,), (-1,)))
    yield _eq("torsion/ledger[h=3]", (torsion.build_ledger(3).a, torsion.build_ledger(3).b), ((1, 2), (-1, -2)))
    ledger4 = torsion.build_ledger(4)
    yield _eq("torsion/ledger[h=4]", (ledger4.a[2], ledger4.b[2]), (4, -2))

    # the closed-form ledger against the cone tables, for j <= 60 (r <= 30):
    # a_j is the unsigned sum of the level-r multiplicities, b_j the signed one
    big = torsion.build_ledger(62)
    yield _cases("torsion/a_closed_forms[r<=30]", lambda j: f"j={j}", (
        ((j,), big.a[j], sum(m for _, m in torsion.cone_multiplicity_table(j // 2, torsion.FAMILIES[j % 2])))
        for j in range(61)
    ))
    yield _cases("torsion/b_two_routes[j<=60]", lambda j: f"j={j}", (
        ((j,), torsion.b_from_cones(j), big.b[j]) for j in range(61)
    ))

    yield _eq("torsion/cone_table[r=0,prime]", torsion.cone_multiplicity_table(0, "prime"), [(1, 1)])
    yield _eq(
        "torsion/cone_table[r=1,prime]",
        torsion.cone_multiplicity_table(1, "prime"),
        [(2, 1), (1, 3)],
    )
    yield _eq("torsion/cone_table[r=0,dblprime]", torsion.cone_multiplicity_table(0, "dblprime"), [(1, 2)])

    for h in range(2, hmax + 1):
        yield _eq(f"torsion/identity[h={h}]", torsion.branched_cover_identity(h), True)

    degrees2 = torsion.torsion_degrees(2)
    yield _eq("torsion/degrees[h=2]", (degrees2["over_lambda_prime"], degrees2["over_lambda_dblprime"]), (Fraction(1, 2), Fraction(0)))
    degrees3 = torsion.torsion_degrees(3)
    yield _eq("torsion/degrees[h=3]", (degrees3["over_lambda_prime"], degrees3["over_lambda_dblprime"]), (Fraction(4), Fraction(1)))
    yield _eq("torsion/degrees[h=4,prime]", torsion.torsion_degrees(4)["over_lambda_prime"], Fraction(49, 2))

    top = min(hmax, 30)
    cones = [_cone_sums(h) for h in range(top + 1)]
    ledger = [a_even + a_odd - b for a_even, a_odd, b in cones]
    splits = {
        (h, p): invariants.degree2_tau1_decomposition(h, p) for h in range(top + 1) for p in (0, 1)
    }
    for h in range(2, top + 1):
        for parity in (0, 1):
            yield _eq(
                f"torsion/grand_total[h={h},parity={parity}]",
                splits[h, parity]["grand_total"],
                invariants.degree2(InvariantQuery(2, h, parity, (1,))),
            )
    # the tau_1 split part by part: the census gap times the (1)-contact bubble
    # value -1/12, and the dominant term less half the cone-table ledger sum
    yield _cases(f"torsion/etale_total[h<={top}]", lambda h, p: f"h={h},parity={p}", (
        ((h, p), d["etale_total"], (-1) ** p * spin.parity_census(h).gap * Fraction(-1, 12))
        for (h, p), d in splits.items()
    ))
    yield _cases(f"torsion/branched_total[h<={top}]", lambda h, p: f"h={h},parity={p}", (
        ((h, p), d["branched_total"],
         (-1) ** p * ((h - 2) * Fraction(2) ** (2 * h - 3) - Fraction(ledger[h], 2)))
        for (h, p), d in splits.items()
    ))
    if top >= 2:  # the twisted breakdown and the torsion degrees start at h = 2
        # the total assembled from spin, degree1 and the dominant term
        yield _cases(f"torsion/twisted_total[h<={top}]", lambda h: f"h={h}", (
            ((h,), invariants.twisted_breakdown(h).total, (h - Fraction(8, 3)) * 2 ** (2 * h - 3))
            for h in range(2, top + 1)
        ))
        # each locus against its half of the ledger's a-part, from the cone tables
        degrees = {h: torsion.torsion_degrees(h) for h in range(2, top + 1)}
        yield _cases(f"torsion/degrees_vs_cones[h<={top}]", lambda h, locus: f"h={h},{locus}", (
            ((h, locus), degrees[h][locus], Fraction(cones[h][j], 2))
            for h in degrees
            for j, locus in enumerate(("over_lambda_prime", "over_lambda_dblprime"))
        ))
    for i in range(1, 6):
        yield _eq(
            f"torsion/exponent_from_boundary[i={i}]",
            hankel.max_solvable_order(i - 1),
            max(mult for _, mult in torsion.cone_multiplicity_table(i - 1, "prime")),
        )


# every suite, in the order "all" runs them
_SUITE_FUNCS = {
    "degeneration": suite_degeneration,
    "hankel": suite_hankel,
    "torsion": suite_torsion,
    "parity": suite_parity,
    "etale": suite_etale,
}
SUITE_NAMES = (*_SUITE_FUNCS, "all")


def suite_bounds(suite: str) -> frozenset[str]:
    """Names of the sweep bounds ``suite`` takes, read from its parameters;
    for "all", every bound some suite takes."""
    funcs = _SUITE_FUNCS.values() if suite == "all" else [_SUITE_FUNCS[suite]]
    return frozenset(key for func in funcs for key in inspect.signature(func).parameters)


def run_suite(
    suite: str,
    hmax: int | None = None,
    kmax: int | None = None,
    alpha_budget: int | None = None,
) -> Report:
    """Run one suite (or all of them) over the given sweep bounds; a bound
    left as None takes the suite's own default.

    A suite that raises keeps the checks it made before the exception and
    gains one failing ``<suite>/raised`` check; the remaining suites still
    run.  Coverage is the set of registered ops that ran.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    given = {"hmax": hmax, "kmax": kmax, "alpha_budget": alpha_budget}
    names = [s for s in SUITE_NAMES if s != "all"] if suite == "all" else [suite]
    checks: list[Check] = []
    with recording_ops() as exercised:
        for name in names:
            bounds = {key: given[key] for key in suite_bounds(name) if given[key] is not None}
            try:
                for check in _SUITE_FUNCS[name](**bounds):
                    checks.append(check)
            except Exception as exc:
                checks.append(
                    Check(f"{name}/raised", False, f"{type(exc).__name__}: {exc}", "no exception")
                )
    if suite == "all":
        missing = sorted(OPS - exercised)
        checks.append(
            Check(
                "coverage/all-operations-exercised",
                not missing,
                "missing: " + ", ".join(missing) if missing else "complete",
                "complete",
            )
        )
    coverage: dict[str, set[str]] = {}
    for name in exercised:
        module, _, func_name = name.partition(".")
        coverage.setdefault(module, set()).add(func_name)
    return Report(
        suite=suite,
        checks=checks,
        coverage={m: frozenset(ops) for m, ops in coverage.items()},
    )
