"""Connected n-point functions of BKP tau-functions from affine coordinates.

Exact rational arithmetic throughout; two independent closed formulas plus a
truncated free-fermion evaluation that cross-check each other.
"""

from .affine import (
    AffineB,
    AffineKP,
    bkp_to_kp,
    check_gs_relation,
    dump_affine_b,
    dump_affine_kp,
    load_affine_b,
    parse_affine_b,
    validate_b,
)
from .fock import (
    FockVector,
    TruncationOverflow,
    check_square_relation,
    check_state_equality,
    exp_bilinear_vacuum,
    oracle_npoint_table,
    phi_phi_generator,
    psi_generator_embedded,
    psi_generator_kp,
    tau_coefficients_bkp,
    tau_coefficients_kp,
    tau_table,
)
from .lemma import (
    SeriesPairSpec,
    VarRef,
    check_lemma,
    first_lemma_difference,
    instantiate_from_affine,
    validate_pair_spec,
)
from .npoint import (
    FormulaComparison,
    WindowError,
    compare_formulas,
    embedded_npoint_series,
    kp_npoint,
    npoint_table,
    standard_window,
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
    "VarRef",
    "WindowError",
    "bkp_to_kp",
    "check_gs_relation",
    "check_lemma",
    "check_square_relation",
    "check_state_equality",
    "compare_formulas",
    "dump_affine_b",
    "dump_affine_kp",
    "embedded_npoint_series",
    "exp_bilinear_vacuum",
    "first_lemma_difference",
    "instantiate_from_affine",
    "kp_npoint",
    "load_affine_b",
    "npoint_table",
    "oracle_npoint_table",
    "parse_affine_b",
    "phi_phi_generator",
    "psi_generator_embedded",
    "psi_generator_kp",
    "random_affine_b",
    "random_series_pair_spec",
    "standard_window",
    "tau_coefficients_bkp",
    "tau_coefficients_kp",
    "tau_table",
    "validate_b",
    "validate_pair_spec",
    "wangyang_npoint_series",
]

__version__ = "0.1.0"
