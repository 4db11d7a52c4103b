import itertools
import math
import random
from fractions import Fraction

import pytest

from thetagw.core import descendant_multisets
from thetagw.invariants import (
    InvariantQuery,
    degree1,
    degree2,
    degree2_tau1_decomposition,
    descendant_block,
    evaluate,
    twisted_breakdown,
    value_table,
)
from thetagw.spin import signed_double_cover_sum
from thetagw.verify import _descendant_block_deg2


def test_query_validation():
    with pytest.raises(ValueError):
        InvariantQuery(3, 1, 0, ())
    with pytest.raises(ValueError):
        InvariantQuery(1, -1, 0, ())
    with pytest.raises(ValueError):
        InvariantQuery(1, 1, 2, ())
    with pytest.raises(ValueError, match="descendant exponents must be >= 0"):
        InvariantQuery(1, 1, 0, (-1,))


def test_a_negative_exponent_past_the_query_raises_in_math_perm():
    # _weight has no guard of its own: the query rejects a negative exponent,
    # and one slipped past it by _replace raises in math.perm
    for d in (1, 2):
        query = InvariantQuery(d, 1, 0, (1,))._replace(alphas=(1, -1))
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            evaluate(query)


def test_degree1_values():
    assert degree1(InvariantQuery(1, 2, 0, (0,))) == 1
    assert degree1(InvariantQuery(1, 2, 0, (1,))) == Fraction(-1, 12)
    assert degree1(InvariantQuery(1, 2, 1, (1, 1))) == Fraction(-1, 144)
    with pytest.raises(ValueError):
        degree1(InvariantQuery(2, 2, 0, ()))


def test_degree2_values():
    for h in range(6):
        for parity in (0, 1):
            sign = (-1) ** parity
            assert degree2(InvariantQuery(2, h, parity, (1,))) == sign * 2**h * Fraction(-1, 3)
            assert degree2(InvariantQuery(2, h, parity, ())) == sign * Fraction(2) ** (h - 1)
    with pytest.raises(ValueError):
        degree2(InvariantQuery(1, 2, 0, ()))


def test_degree2_base_values():
    # the rational base case: genus 0, even parity
    assert degree2(InvariantQuery(2, 0, 0, (1,))) == Fraction(-1, 3)
    assert degree2(InvariantQuery(2, 0, 0, ())) == Fraction(1, 2)
    assert degree2(InvariantQuery(2, 0, 0, (0, 0))) == 2


def test_degree2_matches_weighted_cover_sum():
    for h in range(13):
        for parity in (0, 1):
            assert degree2(InvariantQuery(2, h, parity, ())) == signed_double_cover_sum(
                h, parity, "weighted"
            )


def test_integer_kernel_matches_the_fraction_blocks():
    # every small multiset, and seeded ones with exponents far past verify's
    rng = random.Random(30)
    drawn = [
        tuple(sorted(rng.randint(0, 300) for _ in range(rng.randint(1, 5)))) for _ in range(40)
    ]
    assert {sum(alphas) % 2 for alphas in drawn} == {0, 1}
    multisets = [*descendant_multisets(4, 8), *drawn]
    for h, parity, alphas in itertools.product((0, 3), (0, 1), multisets):
        sign = Fraction((-1) ** parity)
        assert degree1(InvariantQuery(1, h, parity, alphas)) == math.prod(
            map(descendant_block, alphas), start=sign
        )
        assert degree2(InvariantQuery(2, h, parity, alphas)) == math.prod(
            map(_descendant_block_deg2, alphas), start=sign * Fraction(2) ** (h + len(alphas) - 1)
        )
    with pytest.raises(ValueError):
        descendant_block(-1)


def test_descendant_block_matches_the_fraction_power_route():
    # the longer route: three Fractions, a negative power, two products
    for a in range(301):
        assert descendant_block(a) == Fraction(
            math.factorial(a), math.factorial(2 * a + 1)
        ) * Fraction(-2) ** -a


def test_value_table_rows_in_genus_major_order():
    for d, parity in itertools.product((1, 2), (0, 1)):
        blocks = list(value_table(d, parity, 4, 3))
        assert [h for h, _ in blocks] == list(range(5))
        # degree 1 yields one rows object for every genus, degree 2 a new one each
        assert len({id(block) for _, block in blocks}) == (1 if d == 1 else 5)
        rows = [(h, *row) for h, block in blocks for row in block]
        assert [(h, alphas, Fraction(num, den)) for h, alphas, num, den in rows] == [
            (h, alphas, evaluate(InvariantQuery(d, h, parity, alphas)))
            for h, alphas in itertools.product(range(5), descendant_multisets(3, 3))
        ]
        # each pair in lowest terms with a positive denominator
        assert all(den > 0 and math.gcd(num, den) == 1 for _, _, num, den in rows)
    # at hmax = 0 degree 2 yields the h = 0 block alone, undoubled
    for parity in (0, 1):
        (block,) = value_table(2, parity, 0, 2)
        assert block == (0, tuple(
            (alphas, v.numerator, v.denominator)
            for alphas in descendant_multisets(2, 2)
            for v in [evaluate(InvariantQuery(2, 0, parity, alphas))]
        ))
    with pytest.raises(ValueError):
        list(value_table(1, 0, -1, 2))
    with pytest.raises(ValueError):
        list(value_table(3, 0, 2, 2))


def test_evaluate_dispatch():
    assert evaluate(InvariantQuery(1, 0, 0, (1,))) == Fraction(-1, 12)
    assert evaluate(InvariantQuery(2, 0, 0, (1,))) == Fraction(-1, 3)


def test_twisted_breakdown_values():
    b2 = twisted_breakdown(2)
    assert b2.total == Fraction(-4, 3)
    assert b2.branched_part == 0
    b3 = twisted_breakdown(3)
    assert b3.total == Fraction(8, 3)
    assert b3.branched_part == 8
    assert b3.etale_count == 64


def test_twisted_breakdown_identity_range():
    for h in range(2, 31):
        b = twisted_breakdown(h)
        assert b.total == (h - Fraction(8, 3)) * 2 ** (2 * h - 3)
        assert (b.per_etale, b.etale_count) == (Fraction(-1, 12), 4**h)


def test_twisted_breakdown_guards():
    with pytest.raises(ValueError):
        twisted_breakdown(1)


def test_tau1_decomposition():
    for parity in (0, 1):
        sign = (-1) ** parity
        d3 = degree2_tau1_decomposition(3, parity)
        assert d3["etale_total"] == sign * Fraction(-8, 12)
        assert d3["branched_total"] == sign * -2
        assert d3["grand_total"] == sign * Fraction(-8, 3)
    for h in range(31):
        for parity in (0, 1):
            d = degree2_tau1_decomposition(h, parity)
            assert d["etale_total"] == (-1) ** parity * 2**h * Fraction(-1, 12)
            assert d["branched_total"] == (-1) ** parity * -(Fraction(2) ** (h - 2))
            assert d["grand_total"] == degree2(InvariantQuery(2, h, parity, (1,)))


def test_degree_ratio_relation():
    # per-insertion factors differ by (-2)^{2a}; globally by 2^{h+n-1}
    from thetagw.core import descendant_multisets

    for h in (0, 2, 7):
        for parity in (0, 1):
            for alphas in descendant_multisets(3, 6):
                n = len(alphas)
                ratio = Fraction(2) ** (h + n - 1)
                for a in alphas:
                    ratio *= Fraction(-2) ** (2 * a)
                assert degree2(InvariantQuery(2, h, parity, alphas)) == (
                    degree1(InvariantQuery(1, h, parity, alphas)) * ratio
                )
