"""Exact-arithmetic evaluation and verification of low-degree localized
Gromov-Witten invariants of theta-characteristic total spaces.

The exports below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used:
``thetagw invariant`` and ``thetagw table`` never load ``verify``,
``series``, ``hankel`` or ``degeneration``.
"""

import importlib

__version__ = "0.1.0"

# defining module of every export
_EXPORTS = {
    "core": (
        "Partition",
        "binomial",
        "descendant_multisets",
        "partitions_of",
        "rational_str",
        "required_chi",
    ),
    "series": ("TruncatedSeries", "ZMonomial", "sqrt_coeff"),
    "hankel": (
        "BranchCoefficients",
        "branch_identity_holds",
        "hankel_det",
        "max_solvable_order",
        "solve_branch_system",
    ),
    "spin": (
        "ParityCensus",
        "arf_census_bruteforce",
        "parity_census",
        "signed_double_cover_sum",
    ),
    "invariants": (
        "InvariantQuery",
        "TwistedBreakdown",
        "degree1",
        "degree2",
        "degree2_tau1_decomposition",
        "descendant_block",
        "evaluate",
        "twisted_breakdown",
        "value_table",
    ),
    "degeneration": ("bubble_channel_11", "gluing_consistent"),
    "torsion": (
        "TorsionLedger",
        "b_from_cones",
        "branched_cover_identity",
        "branched_cover_total",
        "build_ledger",
        "cone_multiplicity_table",
        "torsion_degrees",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
