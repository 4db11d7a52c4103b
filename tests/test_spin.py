from fractions import Fraction

import pytest

from thetagw import spin
from thetagw.spin import (
    ParityCensus,
    arf_census_bruteforce,
    parity_census,
    signed_double_cover_sum,
)
from thetagw.verify import run_suite


def test_census_small_genus():
    assert parity_census(0) == ParityCensus(0, 1, 1)
    assert parity_census(1) == ParityCensus(1, 4, 3)
    c3 = parity_census(3)
    assert c3.gap == 8


def test_census_invariants():
    for h in range(13):
        c = parity_census(h)
        assert c.even_count + c.odd_count == 2 ** (2 * h)
        assert c.gap == 2**h


def test_census_follows_the_arf_recurrence():
    # splitting off one hyperbolic plane: (e, o) -> (3e + o, e + 3o)
    even, odd = 3, 1
    for h in range(1, 41):
        c = parity_census(h)
        assert (c.even_count, c.odd_count) == (even, odd)
        even, odd = 3 * even + odd, even + 3 * odd


def test_census_splits_check_catches_a_wrong_census(monkeypatch):
    closed = spin.parity_census

    def shifted(h):
        c = closed(h)
        if h != 7:
            return c
        return ParityCensus(h, c.total, c.even_count + 2)

    monkeypatch.setattr(spin, "parity_census", shifted)
    failed = {c.name: c for c in run_suite("parity").failures}
    # three splits of h = 7 on the left, five with h2 = 7 on the right
    splits = failed["parity/census_splits[h1+h2<=12]"]
    assert splits.lhs == "8 of 36 cases differ, first at h1=1,h2=6: (8258, 8126)"
    assert splits.rhs == "(8256, 8128)"


def test_census_gap_check_alone_catches_a_wrong_gap(monkeypatch):
    # the counts stay right, so every other parity check still passes
    gap = ParityCensus.gap
    monkeypatch.setattr(ParityCensus, "gap", property(lambda c: gap.fget(c) + (c.h == 5)))
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("parity").failures}
    assert failed == {"parity/census_gap[h<=12]": ("1 of 13 cases differ, first at h=5: 33", "32")}


def test_census_rejects_negative_genus():
    with pytest.raises(ValueError):
        parity_census(-1)


def test_arf_bruteforce_small():
    c1 = arf_census_bruteforce(1)
    assert (c1.even_count, c1.odd_count) == (3, 1)
    c2 = arf_census_bruteforce(2)
    assert (c2.even_count, c2.odd_count) == (10, 6)


@pytest.mark.parametrize("h", range(1, 6))
def test_arf_oracle_matches_census(h):
    assert arf_census_bruteforce(h) == parity_census(h)


def test_arf_cost_guard():
    for bad in (0, 7):
        with pytest.raises(ValueError):
            arf_census_bruteforce(bad)


@pytest.mark.parametrize("h", range(13))
@pytest.mark.parametrize("parity", (0, 1))
def test_signed_sums(h, parity):
    sign = (-1) ** parity
    unweighted = signed_double_cover_sum(h, parity, "unweighted")
    weighted = signed_double_cover_sum(h, parity, "weighted")
    assert unweighted == sign * 2**h
    assert weighted == sign * Fraction(2) ** (h - 1)
    assert unweighted == 2 * weighted


def test_signed_sum_validation():
    # a negative genus is left to parity_census
    with pytest.raises(ValueError, match="genus must be >= 0"):
        signed_double_cover_sum(-1, 0, "weighted")
    with pytest.raises(ValueError):
        signed_double_cover_sum(2, 2, "weighted")
    for variant in ("bogus", "connected_weighted"):
        with pytest.raises(ValueError, match="variant must be one of"):
            signed_double_cover_sum(2, 0, variant)


def test_parity_flip_sum_is_gap():
    # summing (-1)^{h^0} over all theta characteristics gives the even-odd gap
    for h in range(1, 8):
        c = parity_census(h)
        assert c.even_count * 1 + c.odd_count * -1 == 2**h
