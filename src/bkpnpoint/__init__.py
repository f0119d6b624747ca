"""Connected n-point functions of BKP tau-functions from affine coordinates.

Exact rational arithmetic throughout; two independent closed formulas plus a
truncated free-fermion evaluation that cross-check each other.
"""

from .affine import AffineB, AffineKP, bkp_to_kp, check_gs_relation, validate_b
from .fock import (
    FockVector,
    TruncationOverflow,
    check_square_relation,
    check_state_equality,
    oracle_npoint_table,
)
from .lemma import SeriesPairSpec, check_lemma
from .npoint import (
    FormulaComparison,
    WindowError,
    compare_formulas,
    embedded_npoint_series,
    kp_npoint,
    npoint_table,
    wangyang_npoint_series,
)
from .sampling import random_affine_b, random_series_pair_spec

__all__ = [
    "AffineB",
    "AffineKP",
    "FockVector",
    "FormulaComparison",
    "SeriesPairSpec",
    "TruncationOverflow",
    "WindowError",
    "bkp_to_kp",
    "check_gs_relation",
    "check_lemma",
    "check_square_relation",
    "check_state_equality",
    "compare_formulas",
    "embedded_npoint_series",
    "kp_npoint",
    "npoint_table",
    "oracle_npoint_table",
    "random_affine_b",
    "random_series_pair_spec",
    "validate_b",
    "wangyang_npoint_series",
]

__version__ = "0.1.0"
