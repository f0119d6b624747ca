"""Spans and counters recorded from outside the program.

`Tracer.install` replaces every binding of the functions in `SPANS` inside
the loaded ``bkpnpoint`` modules (modules import functions by name, so one
function can be bound in several modules) with a wrapper that records a
span: name, start, end, parent and the trace id of the current job.
Counters are taken at the same boundaries from the call's arguments and
result.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children (calls run on one thread, so children never overlap).  For the
inclusive time and the counters of a name, only the outermost span of that
name counts, so a wrapped function calling another one of the same name
(``series_a_hat_kp`` calls ``series_a_kp``) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from time import perf_counter_ns


def _series_pairs(args, result):
    a, b = args[0], args[1]
    return (("series.mul_pairs", len(a.coeffs) * len(b.coeffs)),
            ("series.mul_terms", len(result.coeffs)))


def _clip_terms(args, result):
    return (("series.clip_terms_in", len(args[0].coeffs)),
            ("series.clip_terms_kept", len(result.coeffs)))


def _factor_terms(args, result):
    return (("affine.factor_terms", len(result.coeffs)),)


def _h_states(args, result):
    return (("fock.h_states_in", len(args[1])),)


def _exp_states(args, result):
    return (("fock.states", len(result.coeffs)),)


def _log_terms(args, result):
    return (("fock.log_terms", len(result)),)


def _side_terms(args, result):
    return (("lemma.side_terms", len(result.coeffs)),)


# (module, attribute path, span name, counter).  The layer of a span is the
# part of its name before the dot.  Loading the coordinate file is charged
# to ``cli``: it is part of every call's set-up.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_npoint", "cli.npoint", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_convert", "cli.convert", None),
    ("affine", "load_affine_b", "cli.load", None),
    ("npoint", "wangyang_npoint_series", "npoint.wangyang", None),
    ("npoint", "embedded_npoint_series", "npoint.embedded", None),
    ("npoint", "kp_npoint", "npoint.kp", None),
    ("npoint", "npoint_table", "npoint.table", None),
    ("npoint", "compare_formulas", "npoint.compare", None),
    ("series", "Series.mul", "series.mul", _series_pairs),
    ("series", "Series.add", "series.add", None),
    ("series", "Series.clip", "series.clip", _clip_terms),
    ("series", "expand_kernel", "series.kernel", None),
    ("affine", "series_a_kp", "affine.factor", _factor_terms),
    ("affine", "series_a_bkp", "affine.factor", _factor_terms),
    ("affine", "series_a_hat_kp", "affine.factor", _factor_terms),
    ("affine", "series_a_hat_bkp", "affine.factor", _factor_terms),
    ("affine", "bkp_to_kp", "affine.bkp_to_kp", None),
    ("affine", "check_gs_relation", "affine.gs", None),
    ("fock", "exp_bilinear_vacuum", "fock.exp", _exp_states),
    ("fock", "tau_table", "fock.tau_table", None),
    ("fock", "apply_h_b", "fock.h", _h_states),
    ("fock", "apply_h_kp", "fock.h", _h_states),
    ("fock", "poly_log", "fock.poly_log", _log_terms),
    ("fock", "oracle_npoint_table", "fock.oracle", None),
    ("fock", "check_square_relation", "fock.square", None),
    ("fock", "check_state_equality", "fock.state", None),
    ("lemma", "lemma_side", "lemma.side", _side_terms),
    ("lemma", "eval_f", "lemma.factor", None),
    ("lemma", "eval_g", "lemma.factor", None),
    ("lemma", "first_lemma_difference", "lemma.diff", None),
)

class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.trace_id = 0
        # (trace id, name, start ns, end ns, parent index, self ns, outermost)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._open: Counter = Counter()
        self._patched: list = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _call(self, name, fn, counter, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        outermost = self._open[name] == 0
        frame = [len(self.spans), 0]
        self.spans.append(None)
        stack.append(frame)
        self._open[name] += 1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self._open[name] -= 1
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans[frame[0]] = (
                self.trace_id, name, start, end,
                parent[0] if parent is not None else -1,
                duration - frame[1], outermost,
            )
        if outermost:
            self.counts[name + "_calls"] += 1
            if counter is not None:
                for key, value in counter(args, result):
                    self.counts[key] += value
        return result

    def _wrapper(self, fn, name, counter):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, counter, args, kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> list:
        """Wrap every binding; returns the places still holding an original."""
        wrapped = {}
        for module_name, path, name, counter in SPANS:
            module = importlib.import_module("bkpnpoint." + module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"bkpnpoint.{module_name}.{path}")
                continue
            wrapped[fn] = self._wrapper(fn, name, counter)
        leftovers = []
        for where, owner, key, value in _references():
            if not callable(value) or value not in wrapped:
                continue
            if owner is None:
                leftovers.append(where)
                continue
            _assign(owner, key, wrapped[value])
            self._patched.append((owner, key, value))
        return leftovers

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            _assign(owner, key, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------

    def summary(self, first: int = 0) -> dict:
        """Per-name inclusive and self time and per-layer self time, in
        seconds, over the spans recorded from index ``first``."""
        total: Counter = Counter()
        self_by_name: Counter = Counter()
        layer_self: Counter = Counter()
        for span in self.spans[first:]:
            _, name, start, end, _, own, outermost = span
            if outermost:
                total[name] += end - start
            self_by_name[name] += own
            layer_self[name.split(".")[0]] += own
        return {
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in self_by_name.items()},
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
        }


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "bkpnpoint" or name.startswith("bkpnpoint."))
            and isinstance(m, types.ModuleType)]


def _assign(owner, key, value) -> None:
    if isinstance(owner, (dict, list)):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _references():
    """``(where, owner, key, value)`` for every place a loaded module keeps
    an object: globals, class attributes and the items of module-level
    containers.  ``owner`` is None where the item cannot be replaced."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            where = f"{module.__name__}.{attr}"
            yield where, module, attr, value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    yield f"{where}.{cattr}", value, cattr, cvalue
            elif isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for key, item in list(items):
                    yield f"{where}[{key!r}]", value, key, item
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    yield f"{where}[{i}]", None, i, item
