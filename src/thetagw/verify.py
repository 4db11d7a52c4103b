"""Verification suites: every identity the library asserts, run as exact
checks with a uniform pass/fail report.

Suites are pure functions over their sweep bounds and return lists of
:class:`Check`; the CLI renders them and turns failures into exit codes.
Each suite declares which operations it exercises so that the combined run
can assert coverage of the whole computational surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import degeneration, hankel, invariants, spin, torsion
from .core import descendant_multisets, partitions_of, required_chi
from .invariants import InvariantQuery
from .series import sqrt_coeff

SUITE_NAMES = ("degeneration", "hankel", "torsion", "parity", "etale", "all")

REQUIRED_OPS: dict[str, frozenset[str]] = {
    "hankel": frozenset(
        ["hankel_det", "solve_branch_system", "branch_identity_holds", "max_solvable_order"]
    ),
    "spin": frozenset(
        ["parity_census", "arf_census_bruteforce", "signed_double_cover_sum"]
    ),
    "invariants": frozenset(
        [
            "degree1",
            "degree2",
            "degree2_base",
            "relative_invariant_table",
            "twisted_breakdown",
            "degree2_tau1_decomposition",
        ]
    ),
    "degeneration": frozenset(
        [
            "bubble_channel_11",
            "solve_channel2",
            "gluing_consistent",
            "degree2_channels",
            "chi_constraint",
        ]
    ),
    "torsion": frozenset(
        [
            "build_ledger",
            "branched_cover_identity",
            "torsion_degrees",
            "cone_multiplicity_table",
            "b_from_cones",
            "branched_cover_total",
        ]
    ),
}


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


def _eq(checks: list[Check], name: str, lhs, rhs) -> None:
    checks.append(Check(name, lhs == rhs, str(lhs), str(rhs)))


def _is(checks: list[Check], name: str, value: bool, expect: bool = True) -> None:
    checks.append(Check(name, value == expect, str(value), str(expect)))


def suite_parity(hmax: int = 12) -> list[Check]:
    checks: list[Check] = []
    c0 = spin.parity_census(0)
    _eq(checks, "parity/census[h=0]", (c0.total, c0.even_count, c0.odd_count), (1, 1, 0))
    c1 = spin.parity_census(1)
    _eq(checks, "parity/census[h=1]", (c1.total, c1.even_count, c1.odd_count), (4, 3, 1))
    for h in range(hmax + 1):
        c = spin.parity_census(h)
        _eq(checks, f"parity/census_sum[h={h}]", c.even_count + c.odd_count, 2 ** (2 * h))
        _eq(checks, f"parity/census_gap[h={h}]", c.gap, 2**h)
    for h in range(1, min(hmax, 5) + 1):
        brute = spin.arf_census_bruteforce(h)
        closed = spin.parity_census(h)
        _eq(
            checks,
            f"parity/arf_oracle[h={h}]",
            (brute.even_count, brute.odd_count),
            (closed.even_count, closed.odd_count),
        )
    return checks


def suite_etale(hmax: int = 12) -> list[Check]:
    checks: list[Check] = []
    for h in range(hmax + 1):
        for parity in (0, 1):
            sign = (-1) ** parity
            unweighted = spin.signed_double_cover_sum(h, parity, "unweighted")
            weighted = spin.signed_double_cover_sum(h, parity, "weighted")
            connected = spin.signed_double_cover_sum(h, parity, "connected_weighted")
            tag = f"h={h},parity={parity}"
            _eq(checks, f"etale/unweighted_closed_form[{tag}]", unweighted, sign * 2**h)
            _eq(
                checks,
                f"etale/unweighted_vs_relative_table[{tag}]",
                unweighted,
                invariants.relative_invariant_table(h, parity)["spin_11"],
            )
            _eq(
                checks,
                f"etale/weighted_vs_degree2[{tag}]",
                weighted,
                invariants.degree2(InvariantQuery(2, h, parity, ())),
            )
            _eq(checks, f"etale/double_weight[{tag}]", unweighted, 2 * weighted)
            _eq(
                checks,
                f"etale/connected_offset[{tag}]",
                connected,
                weighted - Fraction(1, 2),
            )
    return checks


def suite_hankel(kmax: int = 8) -> list[Check]:
    checks: list[Check] = []
    for k in range(1, kmax + 1):
        det1 = hankel.hankel_det(k, 1)
        det2 = hankel.hankel_det(k, 2)
        _eq(
            checks,
            f"hankel/det_closed_form[k={k},shift=1]",
            (det1.coeff, det1.exp),
            (Fraction((-1) ** k, 2 ** (2 * k * k - k)), k * k),
        )
        _eq(
            checks,
            f"hankel/det_closed_form[k={k},shift=2]",
            (det2.coeff, det2.exp),
            (Fraction((-1) ** k, 2 ** (2 * k * k + k)), k * k + k),
        )
    for k in range(1, min(kmax, 6) + 1):
        sol = hankel.solve_branch_system(k)
        _eq(
            checks,
            f"hankel/leading_coefficient[k={k}]",
            (sol.b(k).coeff, sol.b(k).exp),
            (Fraction(-1, 4) ** k, k),
        )
        # substitute back: row i reads sum_j D_{1+i+j} B_{k-j} = -D_{k+1+i}
        ok = True
        for i in range(k):
            acc = Fraction(0)
            for j in range(k):
                acc += sqrt_coeff(1 + i + j).coeff * sol.b(k - j).coeff
            if acc != -sqrt_coeff(k + 1 + i).coeff:
                ok = False
        _is(checks, f"hankel/substitution[k={k}]", ok)
    for k in range(1, min(kmax, 5) + 1):
        _is(checks, f"hankel/solvable_at_boundary[k={k}]", hankel.branch_identity_holds(k, 2 * k + 1))
        _is(
            checks,
            f"hankel/insolvable_past_boundary[k={k}]",
            hankel.branch_identity_holds(k, 2 * k + 2),
            expect=False,
        )
    for k in range(4):
        results = [hankel.branch_identity_holds(k, n) for n in range(1, 2 * k + 4)]
        _is(
            checks,
            f"hankel/monotone_in_n[k={k}]",
            results == sorted(results, reverse=True),
        )
    for i in range(1, 6):
        _eq(checks, f"hankel/torsion_exponent[i={i}]", hankel.max_solvable_order(i - 1), 2 * i - 1)
    return checks


def suite_degeneration(hmax: int = 10, alpha_budget: int = 6, nmax: int = 4) -> list[Check]:
    checks: list[Check] = []
    table = invariants.relative_invariant_table(3, 0)
    _eq(
        checks,
        "degeneration/bubble_tau1_pair_vs_table",
        degeneration.bubble_channel_11((1,)),
        table["bubble_11_tau1"],
    )
    _eq(
        checks,
        "degeneration/degree1_tau1_vs_table",
        invariants.degree1(InvariantQuery(1, 3, 0, (1,))),
        table["bubble_1_tau1"],
    )
    _eq(checks, "degeneration/bubble_unit", degeneration.bubble_channel_11(()), Fraction(1))
    _eq(checks, "degeneration/base_tau1", invariants.degree2_base((1,)), Fraction(-1, 3))
    _eq(checks, "degeneration/base_empty", invariants.degree2_base(()), Fraction(1, 2))

    coeffs = {
        eta.parts: Fraction(eta.weight, eta.aut) for eta in partitions_of(2)
    }
    _eq(
        checks,
        "degeneration/channel_coefficients",
        coeffs,
        {(1, 1): Fraction(1, 2), (2,): Fraction(2)},
    )

    multisets = list(descendant_multisets(nmax, alpha_budget))
    for alphas in multisets:
        if sum(alphas) <= 8:
            _eq(
                checks,
                f"degeneration/base_is_genus0[alphas={list(alphas)}]",
                invariants.degree2(InvariantQuery(2, 0, 0, alphas)),
                invariants.degree2_base(alphas),
            )
    grid_ok = True
    witness = ""
    for h, parity, alphas in itertools.product(range(hmax + 1), (0, 1), multisets):
        if not degeneration.gluing_consistent(h, parity, alphas):
            grid_ok = False
            witness = f"h={h},parity={parity},alphas={list(alphas)}"
            break
    checks.append(
        Check(
            f"degeneration/gluing_grid[hmax={hmax},n<={nmax},sum<={alpha_budget}]",
            grid_ok,
            "all equal" if grid_ok else f"mismatch at {witness}",
            "all equal",
        )
    )
    for alphas in ((1, 2), (0, 1, 3), (2, 2, 1)):
        base = degeneration.bubble_channel_11(tuple(sorted(alphas)))
        ok = all(
            degeneration.bubble_channel_11(p) == base
            for p in itertools.permutations(alphas)
        )
        _is(checks, f"degeneration/bubble_symmetric[alphas={list(alphas)}]", ok)
    for alphas in descendant_multisets(3, 4):
        _eq(
            checks,
            f"degeneration/bubble_unit_insertion[alphas={list(alphas)}]",
            degeneration.bubble_channel_11(alphas + (0,)),
            2 * degeneration.bubble_channel_11(alphas),
        )
    for h in range(4):
        chi = required_chi(2, h, (1,))
        chi_spin = -2 * (h - 1)
        for eta in partitions_of(2):
            chi_bubble = chi - chi_spin + eta.length
            _eq(
                checks,
                f"degeneration/chi_bookkeeping[h={h},eta={eta}]",
                degeneration.chi_constraint(chi_spin, chi_bubble, eta),
                chi,
            )
    for h in (0, 1, 5):
        for alphas in descendant_multisets(3, 6):
            n = len(alphas)
            ratio = Fraction(2) ** (h + n - 1)
            for a in alphas:
                ratio *= 4**a
            _eq(
                checks,
                f"degeneration/degree_ratio[h={h},alphas={list(alphas)}]",
                invariants.degree2(InvariantQuery(2, h, 0, alphas)),
                invariants.degree1(InvariantQuery(1, h, 0, alphas)) * ratio,
            )
    return checks


def suite_torsion(hmax: int = 50) -> list[Check]:
    checks: list[Check] = []
    _eq(checks, "torsion/ledger[h=2]", (torsion.build_ledger(2).a, torsion.build_ledger(2).b), ((1,), (-1,)))
    _eq(checks, "torsion/ledger[h=3]", (torsion.build_ledger(3).a, torsion.build_ledger(3).b), ((1, 2), (-1, -2)))
    ledger4 = torsion.build_ledger(4)
    _eq(checks, "torsion/ledger[h=4]", (ledger4.a[2], ledger4.b[2]), (4, -2))

    big = torsion.build_ledger(62)  # carries j <= 60, i.e. r <= 30
    closed_ok = all(
        big.a[2 * r] == (r + 1) ** 2 and big.a[2 * r + 1] == (r + 1) * (r + 2)
        for r in range(30)
    )
    _is(checks, "torsion/a_closed_forms[r<=30]", closed_ok)
    two_routes_ok = all(torsion.b_from_cones(j) == big.b[j] for j in range(31))
    _is(checks, "torsion/b_two_routes[j<=30]", two_routes_ok)

    _eq(checks, "torsion/cone_table[r=0,prime]", torsion.cone_multiplicity_table(0, "prime"), [(1, 1)])
    _eq(
        checks,
        "torsion/cone_table[r=1,prime]",
        torsion.cone_multiplicity_table(1, "prime"),
        [(2, 1), (1, 3)],
    )
    _eq(checks, "torsion/cone_table[r=0,dblprime]", torsion.cone_multiplicity_table(0, "dblprime"), [(1, 2)])

    for h in range(2, hmax + 1):
        _is(checks, f"torsion/identity[h={h}]", torsion.branched_cover_identity(h))

    degrees2 = torsion.torsion_degrees(2)
    _eq(checks, "torsion/degrees[h=2]", (degrees2["over_lambda_prime"], degrees2["over_lambda_dblprime"]), (Fraction(1, 2), Fraction(0)))
    degrees3 = torsion.torsion_degrees(3)
    _eq(checks, "torsion/degrees[h=3]", (degrees3["over_lambda_prime"], degrees3["over_lambda_dblprime"]), (Fraction(4), Fraction(1)))
    _eq(checks, "torsion/degrees[h=4,prime]", torsion.torsion_degrees(4)["over_lambda_prime"], Fraction(49, 2))

    for h in range(2, min(hmax, 30) + 1):
        breakdown = invariants.twisted_breakdown(h)
        _eq(
            checks,
            f"torsion/twisted_balance[h={h}]",
            breakdown.total - breakdown.etale_count * breakdown.per_etale,
            Fraction((h - 2) * 2 ** (2 * h - 3)),
        )
        for parity in (0, 1):
            decomposition = invariants.degree2_tau1_decomposition(h, parity)
            _eq(
                checks,
                f"torsion/assembly[h={h},parity={parity}]",
                torsion.branched_cover_total(h, parity),
                decomposition["branched_total"],
            )
            _eq(
                checks,
                f"torsion/grand_total[h={h},parity={parity}]",
                decomposition["grand_total"],
                invariants.degree2(InvariantQuery(2, h, parity, (1,))),
            )
    for i in range(1, 6):
        _eq(
            checks,
            f"torsion/exponent_from_boundary[i={i}]",
            hankel.max_solvable_order(i - 1),
            2 * i - 1,
        )
    return checks


_SUITE_FUNCS = {
    "parity": (suite_parity, ("hmax",)),
    "etale": (suite_etale, ("hmax",)),
    "hankel": (suite_hankel, ("kmax",)),
    "degeneration": (suite_degeneration, ("hmax", "alpha_budget")),
    "torsion": (suite_torsion, ("hmax",)),
}

_SUITE_COVERAGE: dict[str, dict[str, frozenset[str]]] = {
    "parity": {"spin": frozenset(["parity_census", "arf_census_bruteforce"])},
    "etale": {
        "spin": frozenset(["parity_census", "signed_double_cover_sum"]),
        "invariants": frozenset(["degree2", "relative_invariant_table"]),
    },
    "hankel": {
        "hankel": frozenset(
            ["hankel_det", "solve_branch_system", "branch_identity_holds", "max_solvable_order"]
        )
    },
    "degeneration": {
        "degeneration": frozenset(
            [
                "bubble_channel_11",
                "solve_channel2",
                "gluing_consistent",
                "degree2_channels",
                "chi_constraint",
            ]
        ),
        "invariants": frozenset(
            ["degree1", "degree2", "degree2_base", "relative_invariant_table"]
        ),
    },
    "torsion": {
        "torsion": frozenset(
            [
                "build_ledger",
                "branched_cover_identity",
                "torsion_degrees",
                "cone_multiplicity_table",
                "b_from_cones",
                "branched_cover_total",
            ]
        ),
        "invariants": frozenset(
            ["twisted_breakdown", "degree2_tau1_decomposition", "degree2"]
        ),
        "hankel": frozenset(["max_solvable_order", "branch_identity_holds"]),
    },
}

_DEFAULT_BOUNDS = {
    "parity": {"hmax": 12},
    "etale": {"hmax": 12},
    "hankel": {"kmax": 8},
    "degeneration": {"hmax": 10, "alpha_budget": 6},
    "torsion": {"hmax": 50},
}


def suite_bounds(suite: str) -> frozenset[str]:
    """Names of the sweep bounds ``suite`` takes; for "all", every bound
    some suite takes."""
    funcs = _SUITE_FUNCS.values() if suite == "all" else [_SUITE_FUNCS[suite]]
    return frozenset(key for _, accepted in funcs for key in accepted)


def _merge_coverage(into: dict[str, set[str]], add: dict[str, frozenset[str]]) -> None:
    for module, ops in add.items():
        into.setdefault(module, set()).update(ops)


def run_suite(
    suite: str,
    hmax: int | None = None,
    kmax: int | None = None,
    alpha_budget: int | None = None,
) -> Report:
    """Run one suite (or all of them) over the given sweep bounds; bounds
    left as None fall back to per-suite defaults."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    overrides = {"hmax": hmax, "kmax": kmax, "alpha_budget": alpha_budget}
    names = [s for s in SUITE_NAMES if s != "all"] if suite == "all" else [suite]
    checks: list[Check] = []
    coverage: dict[str, set[str]] = {}
    for name in names:
        func, accepted = _SUITE_FUNCS[name]
        bounds = dict(_DEFAULT_BOUNDS[name])
        for key in accepted:
            if overrides.get(key) is not None:
                bounds[key] = overrides[key]
        checks.extend(func(**bounds))
        _merge_coverage(coverage, _SUITE_COVERAGE[name])
    if suite == "all":
        missing = []
        for module, ops in REQUIRED_OPS.items():
            missed = ops - coverage.get(module, set())
            missing.extend(f"{module}.{op}" for op in sorted(missed))
        checks.append(
            Check(
                "coverage/all-operations-exercised",
                not missing,
                "missing: " + ", ".join(missing) if missing else "complete",
                "complete",
            )
        )
    return Report(
        suite=suite,
        checks=checks,
        coverage={m: frozenset(ops) for m, ops in coverage.items()},
    )
