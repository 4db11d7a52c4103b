"""Mutants that a restating or an aggregate check would let through: a
perturbed return value, patched into every module that binds the op, must
turn some check of each suite that runs the op into a FAIL."""

import sys
from fractions import Fraction

import pytest

from thetagw import verify
from thetagw.core import OPS
from thetagw.hankel import BranchCoefficients
from thetagw.series import ZMonomial
from thetagw.spin import ParityCensus
from thetagw.torsion import TorsionLedger

BOUNDS = {"hmax": 3, "kmax": 2, "alpha_budget": 2}


def _shifted_census(c: ParityCensus) -> ParityCensus:
    return ParityCensus(c.h, c.total, c.even_count + 1)


def _shifted_b1(sol: BranchCoefficients) -> BranchCoefficients:
    # coeffs runs B_k, ..., B_1, so B_1 is the last entry
    b1 = sol.coeffs[-1]
    return BranchCoefficients(sol.k, sol.coeffs[:-1] + (ZMonomial(b1.coeff + 1, b1.exp),))


def _shifted_last_multiplicity(table: list) -> list:
    *rest, (defect, mult) = table
    return [*rest, (defect, mult + 1)]


def _moved_tau1_split(d: dict) -> dict:
    # the grand total is unchanged; only the split between the parts moves
    return {**d, "etale_total": d["etale_total"] + 1, "branched_total": d["branched_total"] - 1}


def _shifted_last_a(ledger: TorsionLedger) -> TorsionLedger:
    return ledger._replace(a=ledger.a[:-1] + (ledger.a[-1] + 1,))


def _shifted_prime_degree(degrees: dict) -> dict:
    return {**degrees, "over_lambda_prime": degrees["over_lambda_prime"] + 1}


def _shifted_last_genus(rows) -> list:
    rows = list(rows)
    last = rows[-1][0]
    return [(h, alphas, num << 1 if h == last else num, den) for h, alphas, num, den in rows]


MUTANTS = {
    "degeneration.bubble_channel_11": lambda value: value + 1,
    "degeneration.gluing_consistent": lambda holds: not holds,
    "hankel.branch_identity_holds": lambda holds: not holds,
    "hankel.hankel_det": lambda det: ZMonomial(det.coeff + 1, det.exp),
    "hankel.max_solvable_order": lambda order: order + 1,
    "hankel.solve_branch_system": _shifted_b1,
    "invariants.degree1": lambda value: value + 1,
    "invariants.degree2_tau1_decomposition": _moved_tau1_split,
    "invariants.degree2": lambda value: value + 1,
    "invariants.degree2_base": lambda value: value + 1,
    "invariants.twisted_breakdown": lambda b: b._replace(branched_part=b.branched_part + 1),
    "invariants.value_table": _shifted_last_genus,
    "spin.arf_census_bruteforce": _shifted_census,
    "spin.parity_census": _shifted_census,
    "spin.signed_double_cover_sum": lambda value: value + Fraction(1, 2),
    "torsion.b_from_cones": lambda b: b + 1,
    "torsion.branched_cover_identity": lambda holds: not holds,
    "torsion.branched_cover_total": lambda value: value + 1,
    "torsion.build_ledger": _shifted_last_a,
    "torsion.cone_multiplicity_table": _shifted_last_multiplicity,
    "torsion.torsion_degrees": _shifted_prime_degree,
}


@pytest.mark.parametrize("op, perturb", MUTANTS.items(), ids=MUTANTS)
def test_perturbed_op_fails_every_suite_that_runs_it(monkeypatch, op, perturb):
    module_name, _, func_name = op.partition(".")
    original = getattr(sys.modules[f"thetagw.{module_name}"], func_name)

    def mutant(*args, **kwargs):
        return perturb(original(*args, **kwargs))

    bound = [
        module
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "thetagw" and vars(module).get(func_name) is original
    ]
    for module in bound:
        monkeypatch.setattr(module, func_name, mutant)
    ran = []
    for suite in (s for s in verify.SUITE_NAMES if s != "all"):
        bounds = {key: BOUNDS[key] for key in verify.suite_bounds(suite)}
        report = verify.run_suite(suite, **bounds)
        if func_name in report.coverage.get(module_name, ()):
            ran.append(suite)
            assert report.failures, f"{suite} passes with {op} perturbed"
    assert ran


def test_every_registered_op_has_a_mutant():
    assert set(MUTANTS) == OPS
