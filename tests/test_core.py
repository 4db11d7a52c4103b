from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thetagw.core import (
    OPS,
    Partition,
    binomial,
    descendant_multisets,
    partitions_of,
    rational_str,
    recording_ops,
    required_chi,
)
import thetagw
from thetagw import invariants, spin, torsion


def test_binomial_boundaries():
    assert binomial(6, 0) == 1
    assert binomial(8, 1) == 8
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    # the count of level-0 conjugate-pair exceptional points at h = 3
    h, r = 3, 0
    assert binomial(2 * h + 2, h - 2 - 2 * r) == 8


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_recurrence():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(2)] == [(1, 1), (2,)]
    assert [p.parts for p in partitions_of(3)] == [(1, 1, 1), (1, 2), (3,)]


def test_partition_weights_and_aut():
    table = {
        p.parts: Fraction(p.weight, p.aut) for p in partitions_of(2)
    }
    assert table == {(1, 1): Fraction(1, 2), (2,): Fraction(2)}
    p = Partition((1, 1, 2, 2, 2))
    assert p.weight == 8
    assert p.aut == 2 * 6


def test_partitions_sorted_and_complete():
    for d in range(1, 9):
        parts_list = [p.parts for p in partitions_of(d)]
        assert parts_list == sorted(parts_list)
        assert len(set(parts_list)) == len(parts_list)
        assert all(sum(parts) == d for parts in parts_list)


def _compositions(d):
    """Brute-force enumeration of compositions of d (ordered part lists)."""
    if d == 0:
        return [()]
    out = []
    for first in range(1, d + 1):
        for rest in _compositions(d - first):
            out.append((first,) + rest)
    return out


def test_partition_composition_identity():
    # sum over partitions of m * l! / (aut * prod(parts)) counts compositions
    for d in range(1, 9):
        total = sum(
            Fraction(p.weight * _factorial(len(p.parts)), p.aut * p.weight)
            for p in partitions_of(d)
        )
        assert total == len(_compositions(d))


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_partitions_of_rejects_nonpositive():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            partitions_of(bad)


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))


def test_required_chi():
    assert required_chi(1, 1, []) == 0
    assert required_chi(2, 3, [1]) == -5
    for h in range(6):
        assert required_chi(2, h, []) == -2 * (h - 1)
    with pytest.raises(ValueError):
        required_chi(0, 1, ())
    with pytest.raises(ValueError):
        required_chi(1, -1, ())


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12).filter(lambda d: d != 0))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    text = rational_str(q.numerator, q.denominator)
    assert Fraction(text) == q
    if q.denominator == 1:
        assert "/" not in text


@pytest.mark.parametrize(
    "q, text",
    [(0, "0"), (7, "7"), (-7, "-7"), (Fraction(8, 4), "2"), (Fraction(-6, 3), "-2"),
     (Fraction(-3, 6), "-1/2"), (Fraction(5, -15), "-1/3"), (10**40, str(10**40))],
)
def test_rational_str_ints_signs_and_unit_denominators(q, text):
    q = Fraction(q)
    assert rational_str(q.numerator, q.denominator) == text
    assert Fraction(text) == q


def test_descendant_multisets_order_and_bounds():
    sets = list(descendant_multisets(4, 6))
    assert sets[0] == ()
    assert all(len(s) <= 4 and sum(s) <= 6 for s in sets)
    assert all(tuple(sorted(s)) == s for s in sets)
    assert len(sets) == len(set(sets))
    # 1 empty + 7 singles + 16 pairs + 23 triples + 27 quadruples
    assert len(sets) == 74
    assert list(descendant_multisets(0, 3)) == list(descendant_multisets(0, 0)) == [()]


def test_op_registry_holds_exactly_the_verified_operations():
    assert OPS == {
        "hankel.hankel_det",
        "hankel.solve_branch_system",
        "hankel.branch_identity_holds",
        "hankel.max_solvable_order",
        "spin.parity_census",
        "spin.arf_census_bruteforce",
        "spin.signed_double_cover_sum",
        "invariants.degree1",
        "invariants.degree2",
        "invariants.twisted_breakdown",
        "invariants.degree2_tau1_decomposition",
        "invariants.value_table",
        "degeneration.bubble_channel_11",
        "degeneration.gluing_consistent",
        "torsion.build_ledger",
        "torsion.branched_cover_identity",
        "torsion.torsion_degrees",
        "torsion.cone_multiplicity_table",
        "torsion.b_from_cones",
        "torsion.branched_cover_total",
    }
    # scalar kernels and the CLI dispatcher are not operations of their own
    for name in (
        "invariants.descendant_block",
        "series.sqrt_coeff",
        "core.binomial",
        "invariants.evaluate",
    ):
        assert name not in OPS


def test_every_export_resolves():
    assert len(set(thetagw.__all__)) == len(thetagw.__all__)
    missing = [name for name in thetagw.__all__ if not hasattr(thetagw, name)]
    assert missing == []
    namespace: dict = {}
    exec("from thetagw import *", namespace)
    assert set(thetagw.__all__) <= set(namespace)


def test_recording_ops_sees_nested_calls_and_only_inside_the_block():
    spin.parity_census(2)
    with recording_ops() as ran:
        torsion.torsion_degrees(2)  # calls build_ledger itself
        invariants.descendant_block(2)
    spin.parity_census(1)
    assert ran == {"torsion.torsion_degrees", "torsion.build_ledger"}
    # a nested block records into its own set; the outer one misses its ops
    # and records again after it
    with recording_ops() as outer:
        spin.parity_census(1)
        with recording_ops() as inner:
            torsion.build_ledger(2)
        invariants.degree1(invariants.InvariantQuery(1, 0, 0))
    assert inner == {"torsion.build_ledger"}
    assert outer == {"spin.parity_census", "invariants.degree1"}


def test_records_are_tuples_that_check_their_fields_when_built():
    q = invariants.InvariantQuery(1, 2, 0, [1, 2])
    assert q == (1, 2, 0, (1, 2))
    assert not hasattr(q, "__dict__")
    with pytest.raises(ValueError, match="genus must be >= 0"):
        invariants.InvariantQuery(1, -1, 0, ())
    with pytest.raises(ValueError, match="weakly increasing"):
        Partition((2, 1))
    with pytest.raises(ValueError, match="z-exponent"):
        thetagw.ZMonomial(Fraction(1), -1)
    census = spin.parity_census(1)
    assert (census, census.odd_count) == ((1, 4, 3), 1)
