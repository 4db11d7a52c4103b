import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from thetagw import core, degeneration, invariants, verify
from thetagw.core import descendant_multisets, recording_ops
from thetagw.degeneration import bubble_channel_11, gluing_consistent
from thetagw.verify import run_suite


def test_bubble_channel_values():
    assert bubble_channel_11((1,)) == Fraction(-1, 6)
    assert bubble_channel_11(()) == 1
    # four assignments of two tau_1 insertions to two components
    assert bubble_channel_11((1, 1)) == Fraction(1, 36)
    assert bubble_channel_11((0,)) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=4))
def test_bubble_channel_symmetric(alphas):
    values = {
        bubble_channel_11(p) for p in itertools.permutations(alphas)
    }
    assert len(values) == 1


def _bubble_by_fraction_products(alphas) -> Fraction:
    """The assignment sum with every block multiplied into a `Fraction`: the
    longer route, kept as the oracle of the integer enumeration."""
    total = Fraction(0)
    for assignment in itertools.product((0, 1), repeat=len(alphas)):
        product = Fraction(1)
        for component in (0, 1):
            for a, where in zip(alphas, assignment):
                if where == component:
                    product *= invariants.descendant_block(a)
        total += product
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=8))
def test_bubble_channel_matches_the_fraction_products_and_the_closed_form(alphas):
    bubble = bubble_channel_11(alphas)
    assert bubble == _bubble_by_fraction_products(alphas)
    assert bubble == 2 ** len(alphas) * invariants.degree1(
        invariants.InvariantQuery(1, 0, 0, alphas)
    )


def test_bubble_unit_insertion_doubles():
    for alphas in descendant_multisets(3, 5):
        assert bubble_channel_11(alphas + (0,)) == 2 * bubble_channel_11(alphas)


def test_gluing_fails_on_a_wrong_genus_factor(monkeypatch):
    # degree 2 scaled by 3^h instead of 2^h: genus 0 is untouched, every
    # higher genus breaks the comparison with the scaled base case
    monkeypatch.setattr(
        degeneration,
        "degree2",
        lambda q: invariants.degree2(q) * Fraction(3, 2) ** q.h,
    )
    assert gluing_consistent(0, 0, (1, 2))
    assert not gluing_consistent(3, 0, (1, 2))
    assert not gluing_consistent(1, 1, ())


def test_gluing_does_not_compute_the_bubble():
    with recording_ops() as ran:
        assert gluing_consistent(3, 0, (1, 2))
    assert "degeneration.gluing_consistent" in ran
    assert "degeneration.bubble_channel_11" not in ran


def test_bubble_factorizes_check_catches_a_skipped_assignment(monkeypatch):
    def product_missing_last(*args, **kwargs):
        return list(itertools.product(*args, **kwargs))[:-1]

    monkeypatch.setattr(
        degeneration, "itertools", SimpleNamespace(product=product_missing_last)
    )
    checks = {c.name: c for c in run_suite("degeneration").checks}
    check = checks["degeneration/bubble_factorizes[n<=4,sum<=6]"]
    # the empty multiset's one assignment is the one skipped
    assert (check.lhs, check.rhs) == ("74 of 74 cases differ, first at alphas=[]: 0", "1")


def test_tripled_weights_past_tau1_fail_verify(monkeypatch):
    # the same edit to a!/(2a+1)! for a >= 2 in the integer kernel and in
    # both Fraction blocks leaves every ratio between them intact; only the
    # Beta-integral oracle sees it.  The kernel holds the reciprocal
    # (a+1)...(2a+1), which three consecutive integers divide once a >= 2
    weight = invariants._weight
    monkeypatch.setattr(
        invariants, "_weight", lambda a: weight(a) // 3 if a >= 2 else weight(a)
    )
    for module, name in (
        (invariants, "descendant_block"),
        (verify, "_descendant_block_deg2"),
        (degeneration, "descendant_block"),
    ):
        kernel = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda a, kernel=kernel: kernel(a) * (3 if a >= 2 else 1)
        )
    failed = {c.name: c for c in run_suite("all").failures}
    assert list(failed) == ["degeneration/weight_beta_oracle[a<=12]"]
    oracle = failed["degeneration/weight_beta_oracle[a<=12]"]
    # at a = 2 the weight 2!/5! = 1/60, over and times 4, is tripled on the left
    assert oracle.lhs == "11 of 13 cases differ, first at a=2: (1/80, 1/5)"
    assert oracle.rhs == "(1/240, 1/15)"


def _doubled(num, den):
    """The pair of 2 * num/den, in lowest terms."""
    q = 2 * Fraction(num, den)
    return q.numerator, q.denominator


@pytest.mark.parametrize(
    "edit, lhs, rhs",
    [
        # the last genus scaled by 2^{h+1} instead of 2^h, reduced: h = 3 is wrong throughout
        (
            lambda rows: [(h, alphas, *_doubled(num, den)) if h == 3 else (h, alphas, num, den)
                          for h, alphas, num, den in rows],
            "32 of 128 cases differ, first at d=1,parity=0,h=3,alphas=[]: (3, (), 2, 1)",
            "(3, (), 1, 1)",
        ),
        # the right values at h = 3, but not in lowest terms
        (
            lambda rows: [(h, alphas, 2 * num, 2 * den) if h == 3 else (h, alphas, num, den)
                          for h, alphas, num, den in rows],
            "32 of 128 cases differ, first at d=1,parity=0,h=3,alphas=[]: (3, (), 2, 2)",
            "(3, (), 1, 1)",
        ),
        # the right values at h = 3, with a negative denominator
        (
            lambda rows: [(h, alphas, -num, -den) if h == 3 else (h, alphas, num, den)
                          for h, alphas, num, den in rows],
            "32 of 128 cases differ, first at d=1,parity=0,h=3,alphas=[]: (3, (), -1, -1)",
            "(3, (), 1, 1)",
        ),
        # each table stops one row early, inside the last genus
        (
            lambda rows: rows[:-1],
            "4 of 128 cases differ, first at d=1,parity=0,h=3,alphas=[1, 1]: None",
            "(3, (1, 1), 1, 144)",
        ),
        # each table runs one row long, into h = 4
        (
            lambda rows: rows + [(4, (), *rows[0][2:])],
            "4 of 132 cases differ, first at d=1,parity=0,h=4,alphas=[]: (4, (), 1, 1)",
            "None",
        ),
    ],
    ids=["doubled", "not_reduced", "negated", "missing_row", "extra_row"],
)
def test_value_table_check_catches_a_wrong_last_genus(monkeypatch, edit, lhs, rhs):
    value_table = invariants.value_table

    def edited(*bounds):
        # the edit sees the flattened (h, alphas, num, den) rows, regrouped by h
        rows = edit([(h, *row) for h, block in value_table(*bounds) for row in block])
        for h, group in itertools.groupby(rows, key=lambda row: row[0]):
            yield h, tuple(row[1:] for row in group)

    monkeypatch.setattr(invariants, "value_table", edited)
    checks = {c.name: c for c in run_suite("degeneration", hmax=3, alpha_budget=2).checks}
    # 8 multisets of budget 2 at each of h = 0..3, in each of the four tables
    check = checks["degeneration/value_table[hmax=3,sum<=2]"]
    assert (check.lhs, check.rhs) == (lhs, rhs)


def test_row_set_check_catches_multisets_one_short_of_the_budget(monkeypatch):
    def short(max_len, max_total):
        return descendant_multisets(max_len, max_total - 1)

    for module in (core, invariants, verify):
        monkeypatch.setattr(module, "descendant_multisets", short)
    # every other check enumerates with the same function, so it still agrees
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("all").failures}
    # rows 0..6 are (), (0,), ..., (5,); row 7 is (0, 0) where (6,) belongs
    assert failed == {
        "degeneration/row_set[sum<=6]":
            ("126 of 133 cases differ, first at row=7: (0, 0)", "(6,)"),
    }
