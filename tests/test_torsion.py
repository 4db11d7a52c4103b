from fractions import Fraction

import pytest

from thetagw import invariants, torsion
from thetagw.hankel import max_solvable_order
from thetagw.invariants import TwistedBreakdown
from thetagw.spin import ParityCensus
from thetagw.torsion import (
    b_from_cones,
    branched_cover_identity,
    branched_cover_total,
    build_ledger,
    cone_multiplicity_table,
    torsion_degrees,
)
from thetagw.verify import run_suite


def test_ledger_small():
    l2 = build_ledger(2)
    assert l2.a == (1,)
    assert l2.b == (-1,)
    l3 = build_ledger(3)
    assert l3.a == (1, 2)
    assert l3.b == (-1, -2)
    l4 = build_ledger(4)
    assert l4.a == (1, 2, 4)
    assert l4.b == (-1, -2, -2)


def test_ledger_counts():
    l4 = build_ledger(4)
    # conjugate-pair locus: C(10, 2 - 2r) for r = 0, 1
    assert l4.lambda_prime == (45, 1)
    # coincident-pair locus: C(10, 1 - 2r) for r = 0
    assert l4.lambda_dblprime == (10,)
    l2 = build_ledger(2)
    assert l2.lambda_prime == (1,)
    assert l2.lambda_dblprime == ()


def test_ledger_rejects_small_genus():
    with pytest.raises(ValueError):
        build_ledger(1)


def test_a_closed_forms():
    big = build_ledger(64)
    for r in range(31):
        assert big.a[2 * r] == (r + 1) ** 2
        assert big.a[2 * r + 1] == (r + 1) * (r + 2)
        # a_j is the unsigned sum of the level-r cone multiplicities
        assert big.a[2 * r] == sum(m for _, m in cone_multiplicity_table(r, "prime"))
        assert big.a[2 * r + 1] == sum(m for _, m in cone_multiplicity_table(r, "dblprime"))


def test_b_two_routes_agree():
    big = build_ledger(33)
    for j in range(31):
        assert b_from_cones(j) == big.b[j]


def test_cone_tables():
    assert cone_multiplicity_table(0, "prime") == [(1, 1)]
    assert cone_multiplicity_table(1, "prime") == [(2, 1), (1, 3)]
    assert cone_multiplicity_table(0, "dblprime") == [(1, 2)]
    with pytest.raises(ValueError):
        cone_multiplicity_table(-1, "prime")
    with pytest.raises(ValueError):
        cone_multiplicity_table(0, "other")


def test_identity_hand_instances():
    # h = 2: 0 - C(6,0) * (1 - (-1))/2 = -1 = -2^0
    assert branched_cover_identity(2)
    # h = 3: 8 - [C(8,1) * 1 + C(8,0) * 2] = -2 = -2^1
    assert branched_cover_identity(3)


def test_identity_sweep():
    for h in range(2, 51):
        assert branched_cover_identity(h), h


def test_total_below_the_ledger():
    # the ledger is empty for h < 2 and the total is still -2^{h-2}
    assert [branched_cover_total(h, 0) for h in (0, 1)] == [Fraction(-1, 4), Fraction(-1, 2)]
    assert branched_cover_total(1, 1) == Fraction(1, 2)
    assert branched_cover_identity(0) and branched_cover_identity(1)
    with pytest.raises(ValueError):
        branched_cover_total(-1, 0)
    with pytest.raises(ValueError):
        branched_cover_total(3, 2)
    with pytest.raises(ValueError):
        branched_cover_identity(-1)


def test_total_sums_no_ledger(monkeypatch):
    def unused(*args):
        raise AssertionError("the closed total needs no ledger")

    for name in ("_a", "_b", "binomial"):
        monkeypatch.setattr(torsion, name, unused)
    assert branched_cover_total(300, 1) == 2**298


def test_shifted_total_fails_verify(monkeypatch):
    closed = torsion.branched_cover_total

    def shifted(h, parity):
        return closed(h, parity) + 1

    # the tau_1 decomposition in invariants imports the name from torsion when it runs
    monkeypatch.setattr(torsion, "branched_cover_total", shifted)
    failed = {c.name: c.lhs for c in run_suite("torsion", hmax=3).failures}
    assert failed == {
        "torsion/grand_total[h<=3]": "4 of 4 cases differ, first at h=2,parity=0: -1/3",
        "torsion/branched_total[h<=3]": "8 of 8 cases differ, first at h=0,parity=0: 3/4",
    }


@pytest.mark.parametrize("name", ["_a", "_b"])
@pytest.mark.parametrize("j", [0, 33, 60])
def test_off_by_one_closed_form_fails_verify(monkeypatch, name, j):
    closed = getattr(torsion, name)
    monkeypatch.setattr(torsion, name, lambda i: closed(i) + (i == j))
    check = {"_a": "torsion/a_closed_forms[r<=30]", "_b": "torsion/b_two_routes[j<=60]"}[name]
    # the closed form is the lhs of the a check and the rhs of the b check
    lhs, rhs = (closed(j) + 1, closed(j)) if name == "_a" else (closed(j), closed(j) + 1)
    failed = {c.name: c for c in run_suite("torsion", hmax=2).failures}
    assert failed[check].lhs == f"1 of 61 cases differ, first at j={j}: {lhs}"
    assert failed[check].rhs == str(rhs)


def test_torsion_degrees_values():
    d2 = torsion_degrees(2)
    assert d2 == {
        "over_lambda_prime": Fraction(1, 2),
        "over_lambda_dblprime": Fraction(0),
    }
    d3 = torsion_degrees(3)
    assert d3 == {
        "over_lambda_prime": Fraction(4),
        "over_lambda_dblprime": Fraction(1),
    }
    d4 = torsion_degrees(4)
    assert d4["over_lambda_prime"] == Fraction(49, 2)
    assert d4["over_lambda_dblprime"] == Fraction(10)


def test_exponents_match_solvability_boundary():
    # local-model torsion exponents over the conjugate-pair locus are
    # 1, 3, 5, ...; flag level k supports the branch identity to order 2k+1
    for i in range(1, 6):
        assert max_solvable_order(i - 1) == 2 * i - 1


def test_second_difference_of_the_ledger():
    # step (i) of the all-h proof: c_j - 2c_{j-1} + c_{j-2} = 2 [4 | j]
    def c(j):
        return torsion._a(j) - torsion._b(j) if j >= 0 else 0

    for j in range(61):
        assert c(j) - 2 * c(j - 1) + c(j - 2) == 2 * (j % 4 == 0), j


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for k, y in enumerate(q):
            out[i + k] += x * y
    return out


def _poly_pow(p, n):
    out = [1]
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def test_w_identity_of_the_proof():
    # step (iii) of the all-h proof: (1+w)^4 - (1-w)^4 = 8w(1+w^2)
    lhs = [x - y for x, y in zip(_poly_pow([1, 1], 4), _poly_pow([1, -1], 4))]
    assert lhs == _poly_mul([0, 8], [1, 0, 1]) + [0]  # the w^4 terms cancel


def test_balanced_twisted_breakdown_mutant_fails_verify(monkeypatch):
    original = invariants.twisted_breakdown

    def mutant(h):
        b = original(h)
        # still balances: the total follows the branched part
        return TwistedBreakdown(b.h, b.per_etale, b.etale_count, b.branched_part + 1)

    monkeypatch.setattr(invariants, "twisted_breakdown", mutant)
    failed = {c.name for c in run_suite("torsion", hmax=5).failures}
    assert failed == {"torsion/twisted_total[h<=5]"}


def test_extra_etale_component_fails_the_twisted_total(monkeypatch):
    original = invariants.twisted_breakdown

    def mutant(h):
        b = original(h)
        return b._replace(etale_count=b.etale_count + 1)

    monkeypatch.setattr(invariants, "twisted_breakdown", mutant)
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("torsion", hmax=5).failures}
    # at h = 2 the total is (2 - 8/3) * 2 = -4/3, and one more etale component adds -1/12
    assert failed == {
        "torsion/twisted_total[h<=5]": ("4 of 4 cases differ, first at h=2: -17/12", "-4/3")
    }


def test_a_wrong_census_gap_fails_the_etale_total(monkeypatch):
    # the etale total reaches the gap through signed_double_cover_sum; its
    # rhs takes the gap's closed form 2^h, not the census again
    gap = ParityCensus.gap
    monkeypatch.setattr(ParityCensus, "gap", property(lambda c: gap.fget(c) + (c.h == 5)))
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("torsion").failures}
    assert failed == {
        "torsion/grand_total[h<=30]": ("2 of 58 cases differ, first at h=5,parity=0: -43/4", "-32/3"),
        "torsion/etale_total[h<=30]": ("2 of 62 cases differ, first at h=5,parity=0: -11/4", "-8/3"),
    }


def test_torsion_degrees_wrong_past_h4_fails_verify(monkeypatch):
    # the typed-in checks stop at h = 4; the cone-table route covers the rest
    original = torsion.torsion_degrees

    def mutant(h):
        degrees = original(h)
        if h >= 5:
            degrees["over_lambda_dblprime"] += Fraction(1, 2)
        return degrees

    monkeypatch.setattr(torsion, "torsion_degrees", mutant)
    failed = {c.name: (c.lhs, c.rhs) for c in run_suite("torsion", hmax=6).failures}
    assert failed == {
        "torsion/degrees_vs_cones[h<=6]": (
            "2 of 10 cases differ, first at h=5,over_lambda_dblprime: 139/2", "69"
        )
    }
