"""Exact-rational computation of tree-indexed Banach space norms.

Everything is computed over finite prefix-closed trees of natural-number
sequences, with coefficients in Q.  Norm values are exact rationals
whenever the underlying base norm permits it, and certified rational
intervals otherwise.
"""

from baire_lab.trees import (
    FiniteTree,
    Segment,
    chain_tree,
    comb_tree,
    completely_incomparable,
    enumeration_index,
    make_tree,
    random_tree,
    rank,
    star_tree,
)
from baire_lab.vectors import (
    BaseNorm,
    NormValue,
    TreeVector,
    linear_combination,
)
from baire_lab.baire import BaireParams, ZERO, baire_norm, baire_norm_oracle
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    tsirelson_iterate,
    tsirelson_norm,
)
from baire_lab.hi import (
    dg_lower_bound,
    dg_upper_bound,
    ground_norm,
    schedule,
    strict_singularity_witness,
)
from baire_lab.sequences import FiniteBlockSequence
from baire_lab.verify import (
    ExperimentReport,
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)

__all__ = [
    "FiniteTree", "Segment", "make_tree", "enumeration_index",
    "completely_incomparable", "rank",
    "chain_tree", "star_tree", "comb_tree", "random_tree",
    "TreeVector", "BaseNorm", "NormValue", "linear_combination",
    "BaireParams", "ZERO", "baire_norm", "baire_norm_oracle",
    "INCOMPARABLE", "STANDARD", "tsirelson_norm", "tsirelson_iterate",
    "ground_norm", "schedule", "dg_lower_bound", "dg_upper_bound",
    "strict_singularity_witness",
    "FiniteBlockSequence",
    "ExperimentReport", "run_branch_isometry", "run_tsirelson_suite",
    "run_hi_suite",
]
