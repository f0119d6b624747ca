"""References for the tests.

* Series-built: the generating series of `affine` and the lemma's factors
  and sides as `bkpnpoint.series.Series`.  The program builds no `Series`;
  these place its term tables in one, so the tests can compare the integer
  engines with plain Series arithmetic.
* Mode actions one at a time: `apply_mode_ops`, which `fock.two_mode` and
  the Hamiltonian images are held to.
"""

from bisect import insort
from fractions import Fraction

from bkpnpoint import lemma
from bkpnpoint.affine import bkp_terms, kp_terms
from bkpnpoint.fock import _count_below
from bkpnpoint.series import KernelKind, Series, expand_kernel, uniform_window


def place(terms, nvars, window, first, second, sign_first=1, sign_second=1):
    """``sum c (s1 z_first)^x (s2 z_second)^y`` over ``(x, y, c)`` terms,
    cut to ``window``; ``first`` and ``second`` may be one variable."""
    coeffs = {}
    for x, y, c in terms:
        exps = [0] * nvars
        exps[first] += x
        exps[second] += y
        exps = tuple(exps)
        # the signs are +-1, so only the parity of an exponent matters
        c *= sign_first ** (x % 2) * sign_second ** (y % 2)
        coeffs[exps] = coeffs.get(exps, 0) + c
    return Series.zero(nvars, window).add(Series(nvars, window, coeffs))


def hat_kp(kp, nvars, window, first, second, sign_first=1, sign_second=1):
    """``hat A^KP``: ``A^KP`` plus the expanded ``1/(arg1 - arg2)`` off the
    diagonal."""
    slots = (first, second, sign_first, sign_second)
    base = place(kp_terms(kp), nvars, window, *slots)
    if first == second:
        return base
    return base.add(expand_kernel(KernelKind.INV_DIFF, nvars, window, *slots))


def hat_bkp(b, nvars, window, first, second, sign_first=1, sign_second=1):
    """``hat A^BKP``: ``A^BKP`` minus ``1/4`` and the geometric tail off the
    diagonal, where the first variable must dominate."""
    slots = (first, second, sign_first, sign_second)
    base = place(bkp_terms(b), nvars, window, *slots)
    if first == second:
        return base
    tail = expand_kernel(KernelKind.GEOM_TAIL, nvars, window, *slots)
    quarter = Series.constant(nvars, window, Fraction(-1, 4))
    return base.add(quarter).add(tail.scale(Fraction(-1, 2)))


def position(var):
    """Position of the variable ``(index, flavor)``, x_i or y_i with i >= 1,
    among x_1, y_1, x_2, y_2, ..."""
    index, flavor = var
    return 2 * (index - 1) + (1 if flavor == "y" else 0)


def factor(which, spec, a, b, window):
    """f(a, b) for "LHS", g(a, b) for "RHS": `lemma._factor`'s table for the
    direction of the variables ``(index, flavor)`` ``a`` and ``b``, placed at
    their positions."""
    bound = max(max(-lo, hi) for lo, hi in window)
    d = 0 if a[0] == b[0] else 1 if a[0] < b[0] else -1
    table = lemma._factor(which, spec, d, bound)
    return place(((p, q, c) for (p, q), c in table.items()), len(window),
                 window, position(a), position(b))


def tables(which, k, spec, window):
    """One side's ``{direction: table}``, as `first_lemma_difference`
    builds it."""
    return {d: lemma._factor(which, spec, d, window)
            for d in ((0,) if k == 1 else (1, -1))}


def lemma_side(which, k, spec, window):
    """One side of the lemma identity on the box |exponent| <= window, from
    the program's engine in one unsliced pass; "RHS" includes the 2^k."""
    table = tables(which, k, spec, window)
    common = lemma._denominator(table)
    acc = {}
    lemma._contract(lemma._walks(table, k, window, common), k,
                    2 ** k if which == "RHS" else 1, acc)
    coeffs = {lemma._decode(key, k, window): Fraction(v, common ** k)
              for key, v in acc.items() if v}
    return Series(2 * k, uniform_window(2 * k, -window, window), coeffs)


def _insert(state, m2: int):
    """Wedge mode ``m2`` in; ``None`` if occupied, else ``(state, sign)``."""
    bubbles, holes = state
    if m2 < 0:
        if m2 in bubbles:
            return None
        new = list(bubbles)
        insort(new, m2)
        out = (tuple(new), holes)
    else:
        if m2 not in holes:
            return None  # sea mode already occupied
        out = (bubbles, tuple(h for h in holes if h != m2))
    sign = -1 if _count_below(bubbles, holes, m2) & 1 else 1
    return out, sign


def _remove(state, m2: int):
    """Contract mode ``m2`` out; ``None`` if unoccupied."""
    bubbles, holes = state
    if m2 < 0:
        if m2 not in bubbles:
            return None
        out = (tuple(b for b in bubbles if b != m2), holes)
    else:
        if m2 in holes:
            return None
        new = list(holes)
        insort(new, m2)
        out = (bubbles, tuple(new))
    sign = -1 if _count_below(bubbles, holes, m2) & 1 else 1
    return out, sign


def apply_mode_ops(state, ops):
    """Apply ``(kind, m2)`` pairs right to left; kinds ``+`` insert, ``-`` remove."""
    sign = 1
    for kind, m2 in reversed(ops):
        res = _insert(state, m2) if kind == "+" else _remove(state, m2)
        if res is None:
            return None
        state, s = res
        sign *= s
    return state, sign
