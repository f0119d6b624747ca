r"""Connected n-point functions as closed cycle sums over affine coordinates.

Three routes to the same numbers:

* `kp_npoint`: the KP n-point generating series

  ``(-1)^{n-1} sum_{n-cycles} prod_{a->b} hat A^KP(z_a, z_b)
  - [n=2] (expansion of 1/(z_1-z_2)^2)``

  (for n = 1 the one factor is the diagonal ``A^KP(z, z)``), whose
  coefficient of ``prod z_k^{-i_k-1}`` is the connected correlator
  ``d^n log tau / dt_{i_1} ... dt_{i_n}`` at ``t = 0``.

* `embedded_npoint_series`: the same cycle sum evaluated for the KP image of
  a BKP point, averaged over sign flips of every variable,

  ``(-1)^{n-1}/2^{n+1} sum_{cycles} sum_{eps in {+-1}^n}
  prod hat A^KP(eps_a z_a, eps_b z_b) - [n=2] (KP delta kernel)``,

  coefficient of ``prod z_k^{-i_k-1}``, odd ``i_k``.

* `wangyang_npoint_series`: the intrinsic BKP cycle sum

  ``-[n=2] (BKP delta kernel) + sum_{cycles} sum_{eps, eps_1 = 1}
  (-eps_2 ... eps_n) prod xi(a, b, eps)``,

  coefficient of ``prod z_k^{-i_k}``, odd ``i_k``, where the factor for the
  cycle step ``a -> b`` keeps the smaller variable index dominant:

  ``xi = hat A^BKP(eps_a z_a, -eps_b z_b)``        for ``a < b``,
  ``xi = A^BKP(eps_a z_a, -eps_a z_a)``            for ``a == b`` (n = 1),
  ``xi = -hat A^BKP(-eps_b z_b, eps_a z_a)``       for ``a > b``.

The two BKP routes are related by ``wangyang = (z_1 ... z_n) * embedded`` as
raw series on the all-negative-exponent box.

Each route returns a `CycleSum`, the series on the all-negative box
``[lo, -1]^n``.  `CycleSum.region(cap)` computes, in one pass and with
nothing kept, every nonzero coefficient of total weight
``sum_v (-e_v) <= cap`` (of the whole box for ``cap=None``): `npoint_table`
reads the simplex of its table, `compare_formulas` the box of each route.

Truncation policy: one exponent range ``(lo, hi)`` for every variable
(`standard_window`), floor ``lo = -(max_weight + 2)`` and cap ``hi = -lo``;
every factor keeps only the terms whose exponents (both of them) lie in
``[lo, hi]``.  No larger cap would change a factor table: the coordinate
terms and the constant ``-1/4`` have both exponents ``<= 0``, and a kernel
term ``(-1-k, k)`` (KP) or ``(-k, k)`` (hat BKP), either way round, passes
the floor only when ``k <= -lo``.  So the window follows from the weight
alone, and `standard_window` is the one place it is stated.

Factors.  A factor touches two variables, and for every route it depends
only on whether its step goes up (``a < b``) or down (``a > b``), because
the smaller variable dominates every kernel expansion.  So a call builds
two bivariate tables ``{p: ((q, c), ...)}``, ``p`` the exponent of ``z_a``
and ``q`` that of ``z_b``, straight from the coordinates and the closed
forms ``1/(u - v) = sum_{k>=0} u^{-1-k} v^k`` (u dominant), the constant
``-1/4`` and the geometric tail of ``hat A^BKP`` (coordinate terms from
`affine.kp_terms`/`bkp_terms`).  For n = 1 the diagonal ``A^KP(z, z)`` or
``A^BKP(z, -z)`` is one such table, passed as both step tables: the DP
below has no growth step and its closing step sums ``p + q``; exact, since
both exponents of a diagonal term are ``<= 0``.  All coefficients are
integers over the lcm of the factor denominators.  The n = 2 delta
kernels are not built: every term of them has a nonnegative exponent of
``z_1``, so they vanish on the reported box.

Sign sums as parity projections.  Every factor depends on ``eps`` only
through the substitution ``z_v -> eps_v z_v``, which multiplies the
monomial ``z^e`` by ``prod_v eps_v^{e_v}`` and does not move it.  So the sum
over signs keeps a monomial, with weight ``2^n`` or ``2^{n-1}``, when its
exponents have the right parities, and removes it otherwise:

* embedded ``= (-1)^{n-1}/2 *`` (the cycle sum at ``eps = 1``, keeping only
  terms whose exponents are all even);
* wangyang ``= -2^{n-1} *`` (the cycle sum at ``eps = 1``, keeping only terms
  whose exponent is odd in every variable ``v >= 1``).

This is exact for every truncation window, since clipping acts per monomial
and the substitution never moves one.  A table key already has the kept
parities, so the projection costs nothing: a coefficient of another parity
is 0 without any work, and one of the kept parity is the scaled cycle sum
at ``eps = 1``.  A route keeps the same parity in every variable (even,
odd, or both for the KP series), so a `CycleSum` takes one ``parity`` value.

Contraction (the Held-Karp subset DP of `chain`, Held & Karp 1962).  The
coefficient of ``z^e`` in the cycle sum at ``eps = 1`` sums, over the cycles
``0 -> v_1 -> ... -> v_{n-1} -> 0`` and over one term ``(p, q)`` of each
step's factor with ``p_v + q_v = e_v`` at every vertex ``v``, the product of
the term coefficients.  One pass gives every key of a region at once:

* Labels.  A vertex ``j >= 1`` is labelled by the exponent ``q`` by which
  it was entered.  Leaving it by a factor term ``(p, q')`` finishes it at
  ``e_j = q + p`` (kept only in ``[lo, -1]`` and of the kept parity) and
  labels the next vertex ``q'``.  So the steps still to come depend only on
  the state (visited set, ``j``, ``q``), and the items of a step, grouped
  by ``q'`` and running over ``p``, depend only on ``j``, ``q`` and the
  vertex stepped to, not on any tail: each group is built once per pass.
* Key layout.  With ``W = -lo``, vertex ``j >= 1`` holds the digit
  ``e_j - lo`` at weight ``W^(n-1-j)``.  Above the digits a field holds
  vertex 0, offset to be nonnegative: ``p_0`` after the first step, and
  ``e_0 = p_0 + q_0`` after the closing one.  Above everything a field
  holds the weight: the parts ``-e_j`` of the finished vertices and
  ``-p_0``, ``-q_0``, which sum to ``sum_v (-e_v)`` at the end.  An item's
  key offset adds its parts to every field, the fields never carry into
  each other, and the final key decodes to the exponents.
* Limits.  The weight field is the most significant, so ``key < limit``
  bounds the weight.  Each step keeps only the products whose weight
  leaves room for the parts still to come: every unfinished vertex
  ``j >= 1`` adds at least ``-max e`` over its kept exponents (``>= 1``),
  and ``q_0`` at least ``-max q_0`` over the closing table.  Those bounds
  come from the tables' actual maxima, so no dropped product reaches a key
  of the region, whatever the tables hold; every kernel and coordinate term
  has its dominant exponent ``<= 0``, so in practice no part is negative.
  Partial keys are taken in increasing order, so `chain.extend` stops at
  the limit; keys above the region's weight are dropped at the end.
* n = 1 is the same pass with no growth step: the closing step leaves
  vertex 0 through the diagonal table and adds ``p + q``.

By distributivity this is the sum over cycles term for term, and each
vertex sees exactly one outgoing and one incoming factor exponent, so it is
exact for every window.

Checks.  wangyang does not project variable 0: every key of the region a
pass computes is checked, and a nonzero entry at an even ``e_0`` raises
`TableCheckError` (a truncation window that is too small shows up this
way).  Every table read (`npoint_table`, and both tables of
`compare_formulas`) asserts the permutation symmetry of the table, reading
every ordering of each key (they lie in the same region), and raises the
same error.  `first_difference` finds the smallest key where the tables of
two or more routes differ, for `compare_formulas` and for the ``npoint``
command.

Cost limit.  A pass visits at most ``2^{n-1} (n-1) (hi - lo + 1)`` states
and extends each by at most one factor's terms, ``hi - lo + 2`` plus the
number of coordinate entries, for each of its partial keys; a partial key
holds ``p_0`` and the finished exponents, so there are at most about as
many as the tails ``(e_1, ..., e_{n-1})`` of the region.  The product of
the three is the work estimate (0 for n = 1, which is never refused).  A
route estimates the simplex of the table that `npoint_table` reads from
it, and `compare_formulas` the box of each route; each refuses, with
``ValueError``, an estimate above `MAX_CYCLE_WORK`, before any factor table
is built.  `region` itself makes no estimate.  The Fock-space oracle has no
such limit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, lcm

from .affine import AffineB, AffineKP, Frozen, bkp_terms, bkp_to_kp, kp_terms
from .chain import contract
from .fock import odd_tuples

ZERO = Fraction(0)

# Largest work estimate a closed-formula pass takes on (see the module
# docstring).  On a loaded 2-core x86 machine under Python 3.11 the pass
# gets through 1.5e7 to 3.4e7 estimated steps per second at large n (wangyang
# at n = 15, max weight 15 on a one-entry instance: 3.05e8 in 9.0 s; at
# n = 14, max weight 15 on tests/golden/coords.json: 1.71e8 in 10.7 s), and
# through 1e9 to 5e9 at n <= 6.  So those instances' passes take about ten
# seconds at most, and one at the limit at the slowest rate about 23 s.
MAX_CYCLE_WORK = 35 * 10**7


def standard_window(max_weight: int) -> tuple[int, int]:
    lo = -(max_weight + 2)
    # no term passes the floor with a subordinate exponent above -lo
    return lo, -lo


# -- cost limit ----------------------------------------------------------------


def _check_work(n: int, lo: int, hi: int, entries: int, parity: int | None,
                cap: int | None) -> None:
    """Refuse a pass over the region of keys of total weight ``<= cap``
    (the box for ``None``) whose work estimate exceeds `MAX_CYCLE_WORK`."""
    width = hi - lo + 1
    states = 2 ** (n - 1) * (n - 1) * width
    terms = width + 1 + entries
    # the tails (e_1, ..., e_{n-1}) of the region, each e of the kept
    # parity in [lo + 1, -1] (-e = least + step x, x >= 0), as no table
    # key reaches the floor lo
    step = 1 if parity is None else 2
    least = 2 if parity == 0 else 1
    tails = ((-lo - 1 - least) // step + 1) ** (n - 1)
    if cap is not None:
        free = (cap - n * least) // step
        tails = min(tails, comb(free + n - 1, n - 1) if free >= 0 else 0)
    work = states * terms * tails
    if work > MAX_CYCLE_WORK:
        raise ValueError(
            f"the cycle formulas at n = {n} (window [{lo}, {hi}]) would take "
            f"about {work} steps ({states} states x {terms} factor terms x "
            f"{tails} tails), above the limit of {MAX_CYCLE_WORK}"
        )


# -- factors -------------------------------------------------------------------


def _factor_table(terms, lo: int, hi: int) -> dict:
    """Sum ``(exponents, coefficient)`` terms, keeping those whose exponents
    all lie in ``[lo, hi]``."""
    table: dict = {}
    for exps, c in terms:
        if all(lo <= x <= hi for x in exps):
            table[exps] = table.get(exps, 0) + c
    return {exps: c for exps, c in table.items() if c}


def _kp_factors(kp: AffineKP, n: int, lo: int, hi: int) -> tuple:
    """Up and down factor tables of ``hat A^KP(z_a, z_b)``; for n = 1 the
    diagonal ``A^KP(z, z)`` is both."""
    terms = [((x, y), c) for x, y, c in kp_terms(kp)]
    if n == 1:
        diagonal = _factor_table(terms, lo, hi)
        return diagonal, diagonal
    kernel = range(hi + 1)  # 1/(z_a - z_b), the smaller variable dominant
    up = terms + [((-1 - k, k), 1) for k in kernel]
    down = terms + [((k, -1 - k), -1) for k in kernel]
    return _factor_table(up, lo, hi), _factor_table(down, lo, hi)


def _bkp_factors(b: AffineB, n: int, lo: int, hi: int) -> tuple:
    """Up and down factor tables of the wangyang steps; for n = 1 the
    diagonal ``A^BKP(z, -z)`` is both."""
    if n == 1:
        terms = (((x, y), -c if y & 1 else c) for x, y, c in bkp_terms(b))
        diagonal = _factor_table(terms, lo, hi)
        return diagonal, diagonal
    # hat A^BKP(u, v) = A^BKP(u, v) - 1/4 - (1/2) sum_{k>=1} (-1)^k u^-k v^k
    hat = list(bkp_terms(b))
    hat.append((0, 0, Fraction(-1, 4)))
    hat += [(-k, k, Fraction((-1) ** (k + 1), 2)) for k in range(1, hi + 1)]
    # up: hat A^BKP(z_a, -z_b); down: -hat A^BKP(-z_b, z_a)
    up = [((x, y), -c if y & 1 else c) for x, y, c in hat]
    down = [((y, x), c if x & 1 else -c) for x, y, c in hat]
    return _factor_table(up, lo, hi), _factor_table(down, lo, hi)


def _rows(table: dict, den: int) -> dict:
    """``{p: ((q, integer), ...)}`` of a bivariate table over ``den``."""
    rows: dict = {}
    for (p, q), c in table.items():
        rows.setdefault(p, []).append((q, c.numerator * (den // c.denominator)))
    return {p: tuple(row) for p, row in rows.items()}


# -- the cycle sums ------------------------------------------------------------


class TableCheckError(ArithmeticError):
    """A table failed its own check (head parity or permutation symmetry):
    the truncation window is too small."""


class CycleSum:
    """Coefficients of one closed cycle formula on the all-negative box.

    ``factors`` are the up and down tables (for n = 1 the diagonal table,
    twice), ``scale`` multiplies the cycle sum at ``eps = 1``, and
    ``parity`` is the kept exponent parity of every variable (``None``
    keeps both).  With ``head_checked`` the parity of ``z_0`` is asserted on
    every key of the region rather than projected.  See the module
    docstring.
    """

    def __init__(self, nvars: int, lo: int, factors: tuple, scale,
                 parity: int | None, head_checked: bool = False):
        self.nvars = nvars
        self._lo = lo
        den = lcm(1, *(c.denominator for t in factors for c in t.values()))
        self._up, self._down = (_rows(t, den) for t in factors)
        self._scale = Fraction(scale) / den ** nvars
        self._parity = parity
        self._head_checked = head_checked

    def region(self, cap: int | None = None) -> dict:
        """``{exps: coefficient}`` of every nonzero coefficient of total
        weight ``<= cap`` (of the whole box for ``None``), in one engine
        pass: see the module docstring."""
        n, lo, want = self.nvars, self._lo, self._parity
        up, down = self._up, self._down
        ends = {e for e in range(lo, 0) if want is None or e % 2 == want}
        # vertex j >= 1 is digit j of base -lo, vertex 0 the field above
        # them (offset by lo0, unit[0] each), the weight the field above
        # that (top each)
        unit = [(-lo) ** (n - 1 - j) for j in range(n)]
        q0s = [q for row in down.values() for q, _ in row] or [0]
        p0s = list(up if n > 1 else down) or [0]  # the first step's p
        lo0 = min(p0s) + min(0, *q0s)
        top = unit[0] * (max(p0s) + max(0, *q0s) - lo0 + 1)
        at0 = unit[0] - top  # vertex 0 takes x: its field +x, weight -x

        @cache
        def step(j, q, k):
            """The factors of the step from vertex j, entered by ``q``, to
            k (see `chain`), grouped by the next label ``q'``: vertex 0
            takes ``p`` (and ``q'`` on closing, k = 0), and vertex j >= 1
            is finished at ``q + p``."""
            terms = []
            for p, row in (up if j < k else down).items():
                if j and q + p not in ends:
                    continue
                off = (q + p - lo) * unit[j] - (q + p) * top if j else p * at0
                terms += [(off, q2, c) for q2, c in row]
            if not k:
                return [[(off + q0 * at0, c) for off, q0, c in terms]]
            # in increasing key order, so the groups are too
            groups: dict = {}
            for off, q2, c in sorted(terms):
                groups.setdefault(q2, []).append((off, c))
            return groups

        # after step t + 1 (t = n - 1 closes), n - 1 - t vertices j >= 1
        # are unfinished and add at least -max(ends) each to the weight, and
        # q_0 adds at least -max(q0s) on closing
        limits = None if cap is None else [
            (cap + (n - 1 - t) * max(ends, default=-1)
             + (t < n - 1) * max(q0s) + 1) * top for t in range(n)]
        acc: dict = {}
        contract(n, {(1, 0, None, None): {-lo0 * unit[0]: 1}},
                 [(None, None, step)], acc, limits)
        values, broken = {}, []
        for key, v in acc.items():
            weight, rest = divmod(key, top)
            exps = []
            for u in unit:
                digit, rest = divmod(rest, u)
                exps.append(digit + (lo if exps else lo0))
            exps = tuple(exps)
            if not v or exps[0] > -1 or exps[0] < lo or \
                    cap is not None and weight > cap:
                continue
            if want is not None and exps[0] % 2 != want:
                if self._head_checked:
                    broken.append(exps)
                continue
            values[exps] = v * self._scale
        if broken:
            # the smallest tail's first, then the smallest head index's
            first = max(broken, key=lambda exps: (exps[1:], exps[0]))
            raise TableCheckError(f"parity violation at {first}: "
                                  "truncation window too small")
        return values


def kp_npoint(kp: AffineKP, n: int, max_weight: int) -> CycleSum:
    """KP connected n-point series, ``n >= 1``, on the all-negative box."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = standard_window(max_weight)
    _check_work(n, lo, hi, len(kp.entries), None, max_weight + n)
    factors = _kp_factors(kp, n, lo, hi)
    return CycleSum(n, lo, factors, (-1) ** (n - 1), None)


def embedded_npoint_series(b: AffineB, n: int, max_weight: int) -> CycleSum:
    """BKP n-point series through the KP embedding (sign-flip average)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kp = bkp_to_kp(b)
    lo, hi = standard_window(max_weight)
    _check_work(n, lo, hi, len(kp.entries), 0, max_weight + n)
    factors = _kp_factors(kp, n, lo, hi)
    return CycleSum(n, lo, factors, Fraction((-1) ** (n - 1), 2), 0)


def wangyang_npoint_series(b: AffineB, n: int, max_weight: int) -> CycleSum:
    """BKP n-point series from the intrinsic neutral-fermion cycle sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = standard_window(max_weight)
    _check_work(n, lo, hi, len(b.entries), 1, max_weight)
    factors = _bkp_factors(b, n, lo, hi)
    return CycleSum(n, lo, factors, -(2 ** (n - 1)), 1, head_checked=True)


# -- tables ------------------------------------------------------------------


def npoint_table(series: CycleSum, n: int, max_weight: int, *,
                 index_shift: int, odd_only: bool = True) -> dict:
    """Read the n-point values off a series: ``key -> coeff`` at ``exps =
    (-i_1 - shift, ...)``; asserts permutation symmetry."""
    step = 2 if odd_only else 1
    # the simplex the table reads: up to its largest key
    cap = max_weight - (max_weight - n) % step + n * index_shift
    return _table(series.region(cap), n, max_weight, index_shift, step)


def _table(values: dict, n: int, max_weight: int, shift: int,
           step: int) -> dict:
    """The table of `npoint_table` read off ``{exps: coefficient}``."""
    out: dict = {}
    for key in odd_tuples(n, max_weight, step):
        exps = tuple(-i - shift for i in key)
        value = values.get(exps, ZERO)
        for perm in _orderings(exps):
            if values.get(perm, ZERO) != value:
                raise TableCheckError(
                    f"table not symmetric at {key}: {perm} differs"
                )
        out[key] = value
    return out


def _orderings(exps):
    """Each distinct ordering of ``exps`` once, in lexicographic order: each
    distinct value in turn as the head, then the orderings of the rest."""
    if not exps:
        yield ()
    for head in sorted(set(exps)):
        rest = list(exps)
        rest.remove(head)
        for tail in _orderings(rest):
            yield (head, *tail)


def first_difference(tables: dict) -> tuple | None:
    """``(key, value, ...)`` at the smallest key where ``{route: table}``
    differ, values in sorted route order; ``None`` when they all agree."""
    routes = sorted(tables)
    for key in sorted(set().union(*tables.values())):
        values = tuple(tables[route].get(key) for route in routes)
        if len(set(values)) > 1:
            return (key, *values)
    return None


class FormulaComparison(Frozen):
    """What `compare_formulas` found at ``(n, max_weight)``: both routes'
    tables, whether they agree, whether the raw series relation holds, and
    the first differing entry ``(key, embedded, wangyang)`` or None."""

    __slots__ = ("n", "max_weight", "table_embedded", "table_wangyang",
                 "tables_agree", "raw_relation_holds", "first_difference")


def compare_formulas(b: AffineB, n: int, max_weight: int) -> FormulaComparison:
    """Compute both BKP routes, their tables, and the raw series relation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # wangyang == (z_1 ... z_n) * embedded is compared on [-(w+1), -1]^n.
    # Off its all-odd points both sides vanish by parity, so only those are
    # read.  They reach outside the tables' regions, so each route computes
    # its whole box, and the tables are read from it too.
    lo, hi = standard_window(max_weight)
    for entries, parity in ((len(bkp_to_kp(b).entries), 0),
                            (len(b.entries), 1)):
        _check_work(n, lo, hi, entries, parity, None)
    emb = embedded_npoint_series(b, n, max_weight).region()
    wy = wangyang_npoint_series(b, n, max_weight).region()
    odd = range(-1, -(max_weight + 2), -2)
    raw = all(
        wy.get(exps, ZERO) == emb.get(tuple(e - 1 for e in exps), ZERO)
        for exps in product(odd, repeat=n)
    )
    t_emb = _table(emb, n, max_weight, 1, 2)
    t_wy = _table(wy, n, max_weight, 0, 2)
    first = first_difference({"embedded": t_emb, "wangyang": t_wy})
    return FormulaComparison(n, max_weight, t_emb, t_wy, first is None, raw,
                             first)
