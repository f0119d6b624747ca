"""The package root exports the library API the README documents."""

import bkpnpoint

# the README's Library functions, plus the types they return or raise
README_API = [
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


def test_root_exports_the_readme_api():
    assert bkpnpoint.__all__ == README_API
    for name in README_API:
        assert hasattr(bkpnpoint, name), name
