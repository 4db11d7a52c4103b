"""Exact-arithmetic evaluation and verification of low-degree localized
Gromov-Witten invariants of theta-characteristic total spaces."""

from .core import (
    Partition,
    Rational,
    binomial,
    descendant_multisets,
    parse_rational,
    partitions_of,
    rational_str,
    required_chi,
)
from .series import TruncatedSeries, ZMonomial, sqrt_coeff
from .hankel import (
    BranchCoefficients,
    branch_identity_holds,
    hankel_det,
    max_solvable_order,
    solve_branch_system,
)
from .spin import (
    ParityCensus,
    arf_census_bruteforce,
    parity_census,
    signed_double_cover_sum,
)
from .invariants import (
    InvariantQuery,
    TwistedBreakdown,
    degree1,
    degree2,
    degree2_base,
    degree2_tau1_decomposition,
    descendant_block,
    evaluate,
    twisted_breakdown,
    value_table,
)
from .degeneration import (
    bubble_channel_11,
    gluing_consistent,
)
from .torsion import (
    TorsionLedger,
    b_from_cones,
    branched_cover_identity,
    branched_cover_total,
    build_ledger,
    cone_multiplicity_table,
    torsion_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCoefficients",
    "InvariantQuery",
    "ParityCensus",
    "Partition",
    "Rational",
    "TorsionLedger",
    "TruncatedSeries",
    "TwistedBreakdown",
    "ZMonomial",
    "arf_census_bruteforce",
    "b_from_cones",
    "binomial",
    "branch_identity_holds",
    "branched_cover_identity",
    "branched_cover_total",
    "bubble_channel_11",
    "build_ledger",
    "cone_multiplicity_table",
    "degree1",
    "degree2",
    "degree2_base",
    "degree2_tau1_decomposition",
    "descendant_block",
    "descendant_multisets",
    "evaluate",
    "gluing_consistent",
    "hankel_det",
    "max_solvable_order",
    "parity_census",
    "parse_rational",
    "partitions_of",
    "rational_str",
    "required_chi",
    "signed_double_cover_sum",
    "solve_branch_system",
    "sqrt_coeff",
    "torsion_degrees",
    "twisted_breakdown",
    "value_table",
]
