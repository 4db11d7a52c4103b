"""The verify report: one check per identity, whatever the sweep bounds."""

import functools
import json
import re
import sys
from fractions import Fraction

import pytest

from thetagw import core, spin, verify
from thetagw.cli import main
from thetagw.core import descendant_multisets
from thetagw.invariants import InvariantQuery
from thetagw.series import ZMonomial
from thetagw.verify import run_suite

SUITES = [s for s in verify.SUITE_NAMES if s != "all"]


def _case_counts(report) -> dict[str, int]:
    """{family: n} over the multi-case checks, a family being the check name
    without its bracketed bounds; every check must pass."""
    counts = {}
    for check in report.checks:
        assert check.passed, check
        match = re.fullmatch(r"(\d+) cases equal", check.lhs)
        if match:
            counts[check.name.partition("[")[0]] = int(match[1])
    return counts


@pytest.mark.parametrize("suite", SUITES)
def test_report_size_does_not_depend_on_the_bounds(suite):
    defaults = verify._SUITE_FUNCS[suite].__kwdefaults__
    larger = {key: value + 2 for key, value in defaults.items()}
    reports = [run_suite(suite, **bounds) for bounds in (defaults, larger)]
    assert len(reports[0].checks) == len(reports[1].checks)
    counts = [_case_counts(report) for report in reports]
    assert counts[0].keys() == counts[1].keys()
    assert all(n >= 1 for n in counts[0].values())


def test_a_bound_no_suite_takes_is_a_value_error():
    with pytest.raises(ValueError, match="hmaxx"):
        run_suite("parity", hmaxx=3)


def test_a_bound_of_none_is_the_suite_default():
    assert run_suite("all", hmax=None) == run_suite("all")


def test_bounds_are_read_once_from_the_keyword_defaults(monkeypatch):
    # a tracer rebinds the suite table with wrappers that keep no keyword
    # defaults; the bounds were read before, so runs still get them
    parity = verify._SUITE_FUNCS["parity"]
    traced = functools.wraps(parity)(lambda **bounds: parity(**bounds))
    monkeypatch.setitem(verify._SUITE_FUNCS, "parity", traced)
    assert traced.__kwdefaults__ is None
    assert verify.suite_bounds("parity") == {"hmax"}
    checks = run_suite("parity", hmax=2).checks
    assert "parity/census_gap[h<=2]" in [c.name for c in checks]


@pytest.mark.parametrize("hmax, kmax, alpha_budget", [(12, 8, 6), (17, 10, 5)])
def test_each_sweep_counts_its_cases(hmax, kmax, alpha_budget):
    counts = _case_counts(run_suite("all", hmax=hmax, kmax=kmax, alpha_budget=alpha_budget))
    grid = len(list(descendant_multisets(4, alpha_budget)))
    table = len(list(descendant_multisets(alpha_budget, alpha_budget)))
    top = min(hmax, 30)
    expected = {
        "parity/census_gap": hmax + 1,
        # h1 <= h2 with h1 >= 1 and h1 + h2 <= hmax
        "parity/census_splits": (hmax // 2) * (hmax - hmax // 2),
        "etale/unweighted_closed_form": 2 * (hmax + 1),
        "etale/weighted_vs_degree2": 2 * (hmax + 1),
        "hankel/det_closed_form": 2 * kmax,
        "hankel/residual": kmax + 1,
        "degeneration/genus_scaling_grid": 2 * (hmax + 1) * grid,
        "degeneration/bubble_factorizes": grid,
        "degeneration/value_table": 4 * (hmax + 1) * table,
        "degeneration/row_set": table,
        "degeneration/chi_from_vdim": 2 * (hmax + 1) * grid,
        "etale/double_cover_chi": hmax + 1,
        "degeneration/weight_beta_oracle": 2 * alpha_budget + 1,
        "torsion/identity": hmax - 1,
        "torsion/grand_total": 2 * (top - 1),
        "torsion/twisted_total": top - 1,
    }
    assert {family: counts[family] for family in expected} == expected


def test_a_sweep_with_no_case_fails():
    check = verify._cases("empty", str, lambda: ())
    assert (check.passed, check.lhs) == (False, "no cases")


def test_a_failing_sweep_formats_its_first_failing_case_alone():
    formatted = []

    class Value:
        """An int that records each time it is formatted."""

        def __init__(self, n: int):
            self.n = n

        def __eq__(self, other):
            return self.n == other.n

        def __str__(self):
            formatted.append(self.n)
            return str(self.n)

    check = verify._cases("signs", lambda i: f"i={i}", lambda: (
        ((i,), Value(i), Value(-i if i % 3 == 1 else i)) for i in range(10)
    ))
    assert not check.passed
    assert (check.lhs, check.rhs) == ("3 of 10 cases differ, first at i=1: 1", "-1")
    assert formatted == [1, -1]


def test_a_failing_value_past_the_int_str_digit_limit_names_its_case(monkeypatch):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    huge = Fraction(2**20000 + 1, 3)
    monkeypatch.setattr(spin, "signed_double_cover_sum", lambda h, parity, variant: huge)
    checks = {c.name: c for c in run_suite("etale").checks}
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert [c.name for c in checks.values() if c.passed] == ["etale/double_cover_chi[h<=12]"]
    with core.unlimited_digits():
        text = f"{huge.numerator}/3"
    assert len(text) > 6000
    check = checks["etale/unweighted_closed_form[h<=12]"]
    assert (check.lhs, check.rhs) == (f"26 of 26 cases differ, first at h=0,parity=0: {text}", "1")


def test_a_fault_in_lifting_the_digit_limit_fails_the_checks(monkeypatch):
    def stuck():
        raise RuntimeError("digit limit stuck")

    monkeypatch.setattr(verify, "unlimited_digits", stuck)
    *checks, coverage = run_suite("all").checks
    assert len(checks) == 49
    assert all(not c.passed and c.lhs.startswith("RuntimeError: digit limit stuck") for c in checks)
    assert coverage == ("coverage/all-operations-exercised", False,
                        "missing: " + ", ".join(sorted(core.OPS)), "complete")


def test_values_are_formatted_exactly():
    check = verify._eq("pair", lambda: (Fraction(1, 80), Fraction(1, 5)), (Fraction(1, 80), 0))
    assert (check.passed, check.lhs, check.rhs) == (False, "(1/80, 1/5)", "(1/80, 0)")
    nested = {(1, 1): [Fraction(-1, 2)], "z": ZMonomial(Fraction(3, 4), 2)}
    # a record is a tuple, and prints as one
    assert verify._text(nested) == "{(1, 1): [-1/2], z: (3/4, 2)}"
    assert verify._text((Fraction(2),)) == "(2,)"


def test_degrees_json_lhs_is_exact(capsys):
    assert main(["verify", "--suite", "torsion", "--format", "json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["torsion/degrees[h=2]"]["lhs"] == "(1/2, 0)"


def test_quintic_check_fails_under_a_flipped_parity_sign(monkeypatch):
    # h = K^2 + 1 = 6 and parity = chi(O_S) mod 2 = 1 on the quintic surface
    monkeypatch.setattr(InvariantQuery, "sign", property(lambda q: (-1) ** (q.parity + 1)))
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("parity").failures}
    assert failed == {"parity/quintic_lee_parker[h=6]": ("1", "-1")}


def test_chi_checks_fail_under_a_wrong_genus_term(monkeypatch):
    # d*(h+1) for d*(h-1) in the formula of required_chi
    def wrong_chi(d, h, alphas):
        return -(d * (h + 1) + sum(alphas))

    for module in (core, verify):
        monkeypatch.setattr(module, "required_chi", wrong_chi)
    failed = {c.name for c in run_suite("all").failures}
    assert failed == {
        "degeneration/chi_from_vdim[hmax=10,n<=4,sum<=6]",
        "etale/double_cover_chi[h<=12]",
    }
