"""Connected n-point functions of BKP tau-functions from affine coordinates.

Exact rational arithmetic throughout; two independent closed formulas plus a
truncated free-fermion evaluation that cross-check each other.

The names of ``__all__`` resolve on first use (PEP 562): importing the
package loads none of its modules, and ``bkpnpoint.X`` imports X's module
when it is read.
"""

from importlib import import_module

_SOURCES = {
    "affine": ("AffineB", "AffineKP", "bkp_to_kp", "check_gs_relation",
               "validate_b"),
    "fock": ("FockVector", "TruncationOverflow", "check_square_relation",
             "check_state_equality", "oracle_npoint_table"),
    "lemma": ("SeriesPairSpec", "check_lemma"),
    "npoint": ("FormulaComparison", "WindowError", "compare_formulas",
               "embedded_npoint_series", "kp_npoint", "npoint_table",
               "wangyang_npoint_series"),
    "sampling": ("random_affine_b", "random_series_pair_spec"),
}
_MODULE = {name: module for module, names in _SOURCES.items()
           for name in names}

__all__ = sorted(_MODULE)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached here, so that the defining module's binding, patched or
    # not, is what every lookup returns
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
