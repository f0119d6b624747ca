r"""Affine coordinates of tau-functions and their generating series.

A BKP tau-function is determined by antisymmetric affine coordinates
``a_{n,m}`` (``n, m >= 0``, ``a_{n,m} = -a_{m,n}``, zero diagonal).  A KP
tau-function by coordinates ``a_{m,n}`` (``m, n >= 0``), no symmetry.

Both kinds are stored sparsely as ``dict[(row, col)] -> Fraction``; the BKP
store keeps both triangles so lookups never need sign fixups.

Generating series conventions (variables ordered ``z_0, z_1, ...``; the
smaller position always dominates kernel expansions):

* ``A^KP(x, y)  = sum a_{m,n} x^{-m-1} y^{-n-1}``
* ``A^BKP(w, z) = (1/2) [sum_{n>=1,m>=0} + sum_{n>=0,m>=1}]
  (-1)^{m+n+1} a_{n,m} w^{-n} z^{-m}``
* ``hat A^KP(x, y)  = A^KP(x, y) + expansion of 1/(x - y)``
* ``hat A^BKP(w, z) = A^BKP(w, z) - 1/4 - (1/2) sum_{k>=1} (-1)^k w^{-k} z^k``

The two hierarchies are linked by

* coordinates: ``a^KP_{m,n} = 2 (-1)^{m+1} (a_{m+1,n} + a_{m+1,0} a_{0,n})``
* series: ``A^BKP(w, z) = (1/4) (z A^KP(w, -z) - w A^KP(z, -w))``

The coefficient rules of ``A^KP`` and ``A^BKP`` live only in `kp_terms` and
`bkp_terms`; `npoint` builds its factor tables from them, and
`check_gs_relation` verifies the series form coefficientwise on two term
tables ``{(x, y): c}``.

`odd_tuples` lists the keys of an n-point table, for the closed formulas
and the Fock-space oracle alike.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction


class Frozen:
    """A value type with the fields named in ``__slots__``: set once by the
    constructor, by position or keyword, equal when the type and every field
    are, and shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = [*names[:len(args)], *kwargs]
        if len(args) > len(names) or sorted(given) != sorted(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        for name, value in zip(given, (*args, *kwargs.values())):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)


class AffineB(Frozen):
    """Antisymmetric BKP affine coordinates, both triangles stored."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        super().__init__({} if entries is None else entries)

    @property
    def max_index(self) -> int:
        return max((max(k) for k in self.entries), default=0)


class AffineKP(Frozen):
    """KP affine coordinates ``a_{m,n}``."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        super().__init__({} if entries is None else entries)


def validate_b(items) -> AffineB:
    """Build :class:`AffineB` from ``{(n, m): value}`` or ``(n, m, value)`` rows.

    Either triangle (or both, if consistent) may be given; the other is
    completed by antisymmetry.  Raises ``ValueError`` on a nonzero diagonal
    entry, an antisymmetry conflict, or a negative index.
    """
    if isinstance(items, dict):
        rows = [(n, m, v) for (n, m), v in items.items()]
    else:
        rows = [(n, m, v) for n, m, v in items]
    entries: dict = {}
    for n, m, v in rows:
        if (isinstance(n, bool) or isinstance(m, bool)
                or not (isinstance(n, int) and isinstance(m, int))):
            raise ValueError(f"indices must be integers, got ({n!r}, {m!r})")
        if n < 0 or m < 0:
            raise ValueError(f"negative index in ({n}, {m})")
        v = Fraction(v)
        if n == m:
            if v != 0:
                raise ValueError(f"nonzero diagonal entry ({n}, {m}) = {v}")
            continue
        for key, val in (((n, m), v), ((m, n), -v)):
            if key in entries and entries[key] != val:
                raise ValueError(
                    f"antisymmetry conflict at {key}: {entries[key]} vs {val}"
                )
            entries[key] = val
    return AffineB({k: v for k, v in entries.items() if v != 0})


def bkp_to_kp(b: AffineB) -> AffineKP:
    """KP affine coordinates of the square embedding of a BKP point.

    Only stored entries contribute to ``a^KP_{m,n}``: the entry ``(m+1, n)``
    and the products of an entry ``(m+1, 0)`` with an entry ``(0, n)``.
    """
    sums: dict = {}
    for (row, col), a in b.entries.items():
        if row >= 1:
            sums[row - 1, col] = sums.get((row - 1, col), 0) + a
    firsts = [(row, a) for (row, col), a in b.entries.items() if col == 0]
    zeros = [(col, c) for (row, col), c in b.entries.items() if row == 0]
    for row, a in firsts:
        for col, c in zeros:
            sums[row - 1, col] = sums.get((row - 1, col), 0) + a * c
    return AffineKP({(m, n): 2 * (-1) ** (m + 1) * s
                     for (m, n), s in sorted(sums.items()) if s != 0})


# -- generating series ----------------------------------------------------


def kp_terms(kp: AffineKP):
    """``(x, y, c)`` terms of ``A^KP(u, v) = sum c u^x v^y``."""
    for (m, n), a in kp.entries.items():
        yield -m - 1, -n - 1, a


def bkp_terms(b: AffineB):
    """``(x, y, c)`` terms of ``A^BKP(u, v) = sum c u^x v^y``."""
    for (n, m), a in b.entries.items():
        weight = (n >= 1) + (m >= 1)
        if weight:
            yield -n, -m, Fraction(weight * (-1) ** (m + n + 1), 2) * a


def check_gs_relation(b: AffineB, depth: int) -> bool:
    """``A^BKP(w,z) == (1/4)(z A^KP(w,-z) - w A^KP(z,-w))`` on the depth box.

    Both sides are term tables ``{(x, y): c}`` of ``w^x z^y``, compared for
    all exponent pairs in ``[-depth, 0]^2``.
    """
    lhs, rhs = Counter(), Counter()
    for x, y, c in bkp_terms(b):
        lhs[x, y] += c
    for x, y, c in kp_terms(bkp_to_kp(b)):
        # z A^KP(w, -z) has c (-1)^y w^x z^(y+1); -w A^KP(z, -w) the mirror.
        c = c * (-1) ** -y / 4  # y < 0, and (-1) ** y would be a float
        rhs[x, y + 1] += c
        rhs[y + 1, x] -= c
    return all(lhs[e] == rhs[e] for e in lhs.keys() | rhs.keys()
               if -depth <= min(e) and max(e) <= 0)


# -- table keys -----------------------------------------------------------


def odd_tuples(n: int, max_weight: int, step: int = 2):
    """Ascending tuples of ``n`` positive indices with sum ``<= max_weight``.

    ``step=2`` (default) walks odd indices only, ``step=1`` all indices.
    """

    def rec(prefix, lo, rem):
        if len(prefix) == n:
            yield prefix
            return
        needed_after = n - len(prefix) - 1
        idx = lo
        while idx + needed_after * idx <= rem:
            yield from rec(prefix + (idx,), idx, rem - idx)
            idx += step

    if n >= 1:
        yield from rec((), 1, max_weight)


# -- coordinate files ------------------------------------------------------


def load_affine_b(path) -> AffineB:
    """Read BKP coordinates from a JSON list of ``[n, m, value]`` records."""
    with open(path) as fh:
        data = json.load(fh)
    return parse_affine_b(data)


def parse_affine_b(data) -> AffineB:
    if not isinstance(data, list):
        raise ValueError("coordinate file must be a JSON list of records")
    rows = []
    for rec in data:
        if not (isinstance(rec, list) and len(rec) == 3):
            raise ValueError(f"bad coordinate record {rec!r}")
        n, m, v = rec
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise ValueError(f"bad coordinate value {v!r}")
        try:
            value = Fraction(str(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coordinate value {v!r}") from exc
        rows.append((n, m, value))
    return validate_b(rows)


def dump_affine_kp(kp: AffineKP) -> str:
    recs = [[m, n, str(v)] for (m, n), v in sorted(kp.entries.items())]
    return json.dumps(recs, separators=(", ", ": ")) + "\n"
