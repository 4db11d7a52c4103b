"""Mutants that a restating or an aggregate check would let through: a
perturbed return value, patched into every module that binds the op, must
turn some check of each suite that runs the op into a FAIL; and so must a
coherent edit of each unregistered kernel, in the suite that checks it."""

import math
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


def _shifted_last_genus(blocks) -> list:
    *rest, (last, rows) = blocks
    return [*rest, (last, tuple((alphas, num << 1, den) for alphas, num, den in rows))]


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


def _patch_everywhere(monkeypatch, name: str, replace) -> None:
    """Bind ``replace(original)`` in place of the function ``name``
    ("module.func") in every thetagw module that binds the original."""
    module_name, _, func_name = name.partition(".")
    original = getattr(sys.modules[f"thetagw.{module_name}"], func_name)
    replacement = replace(original)
    for module_key, module in list(sys.modules.items()):
        if module_key.partition(".")[0] == "thetagw" and vars(module).get(func_name) is original:
            monkeypatch.setattr(module, func_name, replacement)


@pytest.mark.parametrize("op, perturb", MUTANTS.items(), ids=MUTANTS)
def test_perturbed_op_fails_every_suite_that_runs_it(monkeypatch, op, perturb):
    module_name, _, func_name = op.partition(".")
    _patch_everywhere(
        monkeypatch, op, lambda original: lambda *args, **kwargs: perturb(original(*args, **kwargs))
    )
    ran = []
    for suite in (s for s in verify.SUITE_NAMES if s != "all"):
        report = verify.run_suite(suite, **BOUNDS)
        if func_name in report.coverage.get(module_name, ()):
            ran.append(suite)
            assert report.failures, f"{suite} passes with {op} perturbed"
    assert ran


def test_the_value_table_mutant_fails_by_value_not_by_shape(monkeypatch):
    # the mutant keeps the block form, so the check compares its rows
    _patch_everywhere(
        monkeypatch, "invariants.value_table",
        lambda original: lambda *args: _shifted_last_genus(original(*args)),
    )
    checks = {c.name: c for c in verify.run_suite("degeneration", **BOUNDS).checks}
    check = checks["degeneration/value_table[hmax=3,sum<=2]"]
    assert not check.passed
    # 8 multisets at h = 3 in each of the four tables
    assert check.lhs.startswith("32 of 128 cases differ, first at d=1,parity=0,h=3,alphas=[]: ")


def test_every_registered_op_has_a_mutant():
    assert set(MUTANTS) == OPS


# Coherent edits of the unregistered kernels, and of degree2 at its base
# case alone: each edited kernel replaces the original in every module that
# binds it, oracles in verify included, and must still fail some check of
# the family named, run at the bounds given.
KERNEL_EDITS = {
    # one too high at genus 0 only, the rational base case typed in by
    # base_tau1
    "invariants.degree2": (
        lambda degree2: lambda q: degree2(q) + (q.h == 0),
        "degeneration/base_tau1", BOUNDS,
    ),
    # the denominator (2a)! for (2a+1)!: (2a)!/a! for (2a+1)!/a!
    "invariants._weight": (
        lambda weight: lambda a: math.perm(2 * a, a),
        "degeneration/", BOUNDS,
    ),
    # the sign (-1)^a of each insertion dropped
    "invariants._kernel": (
        lambda kernel: lambda sign, alphas, two_power: kernel(
            sign * (-1) ** sum(alphas), alphas, two_power
        ),
        "degeneration/", BOUNDS,
    ),
    # the sign (-1)^a of each degree-one block dropped
    "invariants.descendant_block": (
        lambda block: lambda a: abs(block(a)), "degeneration/", BOUNDS,
    ),
    # doubled from j = 9 on, past every entry that kmax = 2 reaches, so the
    # edit fails only at hankel's default kmax
    "series.sqrt_coeff": (
        lambda coeff: lambda j: coeff(j)._replace(coeff=2 * coeff(j).coeff) if j >= 9 else coeff(j),
        "hankel/", {},
    ),
    "core.binomial": (
        lambda binomial: lambda n, k: binomial(n, k) + (k == 3), "hankel/", BOUNDS,
    ),
    "torsion._a": (
        lambda a: lambda j: a(j) + (j >= 40), "torsion/a_closed_forms", BOUNDS,
    ),
    "torsion._b": (
        lambda b: lambda j: b(j) - (j == 7), "torsion/b_two_routes", BOUNDS,
    ),
}


@pytest.mark.parametrize("kernel, edit, family, bounds", [
    (kernel, *entry) for kernel, entry in KERNEL_EDITS.items()
], ids=KERNEL_EDITS)
def test_edited_kernel_fails_verify(monkeypatch, kernel, edit, family, bounds):
    suite = family.partition("/")[0]
    assert verify.run_suite(suite, **bounds).passed
    _patch_everywhere(monkeypatch, kernel, edit)
    failures = verify.run_suite(suite, **bounds).failures
    assert any(c.name.startswith(family) for c in failures), f"{family} passes with {kernel} edited"
