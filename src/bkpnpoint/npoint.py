r"""Connected n-point functions as closed cycle sums over affine coordinates.

Three routes to the same numbers:

* `kp_npoint`: the KP n-point generating series

  ``(-1)^{n-1} sum_{n-cycles} prod_{a->b} hat A^KP(z_a, z_b)
  - [n=2] (expansion of 1/(z_1-z_2)^2)``,

  whose coefficient of ``prod z_k^{-i_k-1}`` is the connected correlator
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

Truncation policy: exponent floor ``-(max_weight + 2)``; positive cap
``max_weight + nvars * (max_degree + 2)`` where ``max_degree`` bounds the
deepest coordinate exponent; `cap_scale` rescales the cap to certify that
reported coefficients are truncation-stable.  Once both factors touching a
variable are multiplied in, that variable's exponents are final and are
clipped to the reported region (``<= -1``), which keeps intermediate products
small without affecting any reported coefficient.  Returned series are
restricted to the all-negative box.

Sign sums as parity projections.  All three routes go through one loop,
`_cycle_sum`, which multiplies the factors at ``eps = 1`` only.  Every factor
depends on ``eps`` only through the substitution ``z_v -> eps_v z_v``, which
multiplies the monomial ``z^e`` by ``prod_v eps_v^{e_v}`` and does not move
it.  So the sum over signs keeps a monomial, with weight ``2^n`` or
``2^{n-1}``, when its exponents have the right parities, and removes it
otherwise:

* embedded ``= (-1)^{n-1}/2 *`` (the cycle sum at ``eps = 1``, keeping only
  terms whose exponents are all even);
* wangyang ``= -2^{n-1} *`` (the cycle sum at ``eps = 1``, keeping only terms
  whose exponent is odd in every variable ``v >= 1``).  Variable 0 is not
  projected, so the parity assertion below still checks it.

This is exact for every truncation window: clipping acts per monomial and per
variable, and the substitution never moves a monomial, so clipping and sign
flips commute.  The wrong-parity terms of a variable are dropped when it is
clipped.  That early drop is exact too, because no later factor touches the
variable, and it is what keeps n = 5 cheap.

Cost limit: the loop visits ``(n-1)!`` cycles (720 at n = 7, 5040 at n = 8),
so the cycle routes accept only ``n <= 7`` (`MAX_CYCLE_N`) and raise
``ValueError`` above it, before any cycle is enumerated.  The Fock-space
oracle has no such limit.

Per-variable parity (even exponents for the embedded route, odd for the direct
one) is asserted on every kept monomial, as is permutation symmetry of the
extracted tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations

from .affine import (
    AffineB,
    AffineKP,
    bkp_to_kp,
    series_a_bkp,
    series_a_hat_bkp,
    series_a_hat_kp,
)
from .fock import odd_tuples
from .series import KernelKind, Series, _box_iter, expand_kernel

Window = tuple[tuple[int, int], ...]

# Largest n the cycle routes accept (see the module docstring).
MAX_CYCLE_N = 7


def cycle_orders(n: int):
    """Visiting orders of the ``(n-1)!`` cycles on ``{0, .., n-1}``."""
    if n == 1:
        return ((0,),)
    return tuple((0,) + rest for rest in permutations(range(1, n)))


def cycle_pairs(order):
    n = len(order)
    return tuple((order[i], order[(i + 1) % n]) for i in range(n))


def standard_window(
    nvars: int, max_weight: int, max_degree: int, cap_scale: int = 1,
    pos_cap: int | None = None,
) -> Window:
    lo = -(max_weight + 2)
    hi = pos_cap if pos_cap is not None else cap_scale * (
        max_weight + nvars * (max_degree + 2)
    )
    return ((lo, hi),) * nvars


def _kp_degree(kp: AffineKP) -> int:
    return max((max(m, n) + 1 for m, n in kp.entries), default=1)


def _b_degree(b: AffineB) -> int:
    return max(b.max_index, 1)


def _negative_box(nvars: int, window: Window) -> dict:
    return {v: (window[v][0], -1) for v in range(nvars)}


def _keep_parity(series: Series, var: int, want: int | None) -> Series:
    """Drop the terms whose exponent of ``z_var`` does not have parity
    ``want`` (``None`` keeps every term)."""
    if want is None:
        return series
    coeffs = {e: c for e, c in series.coeffs.items() if e[var] % 2 == want}
    return Series(
        series.nvars, series.window, coeffs, dict(series.markers), series.clipped
    )


def _cycle_sum(factor, n: int, window: Window, parity: tuple) -> Series:
    """Sum over the ``(n-1)!`` cycles of the product of ``factor(a, b)`` over
    the cycle steps ``a -> b``, on the all-negative box.

    ``parity[v]`` (0, 1 or ``None``) is the exponent parity of ``z_v`` that is
    kept.  A variable is clipped to ``<= -1`` and projected as soon as both
    factors touching it are multiplied in.
    """
    if n > MAX_CYCLE_N:
        raise ValueError(
            f"n = {n} exceeds the cycle-formula limit n <= {MAX_CYCLE_N} "
            "(the cost grows like (n-1)!)"
        )
    factor = cache(factor)  # each ordered pair recurs in many cycles
    lo = window[0][0]
    total = Series.zero(n, window)
    for order in cycle_orders(n):
        pairs = cycle_pairs(order)
        term = factor(*pairs[0])
        for i in range(1, n):
            term = term.mul(factor(*pairs[i]))
            done = order[i]  # both incident factors are now included
            term = _keep_parity(term.clip({done: (lo, -1)}), done, parity[done])
        term = term.clip(_negative_box(n, window))
        total = total.add(_keep_parity(term, 0, parity[0]))
    return total


def kp_npoint(
    kp: AffineKP,
    n: int,
    max_weight: int,
    *,
    cap_scale: int = 1,
    pos_cap: int | None = None,
) -> Series:
    """KP connected n-point series, ``n >= 2``, on the all-negative box."""
    if n < 2:
        raise ValueError("the KP cycle formula needs n >= 2")
    window = standard_window(n, max_weight, _kp_degree(kp), cap_scale, pos_cap)

    def factor(a, b):
        return series_a_hat_kp(kp, n, window, a, b)

    total = _cycle_sum(factor, n, window, (None,) * n)
    if (n - 1) % 2 == 1:
        total = total.neg()
    if n == 2:
        delta = expand_kernel(KernelKind.INV_DIFF_SQ, n, window, 0, 1)
        total = total.sub(delta.clip(_negative_box(n, window)))
    return total.clip(_negative_box(n, window))


def embedded_npoint_series(
    b: AffineB,
    n: int,
    max_weight: int,
    *,
    cap_scale: int = 1,
    pos_cap: int | None = None,
) -> Series:
    """BKP n-point series through the KP embedding (sign-flip average)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kp = bkp_to_kp(b)
    window = standard_window(n, max_weight, _kp_degree(kp), cap_scale, pos_cap)

    def factor(a, bb):
        return series_a_hat_kp(kp, n, window, a, bb)

    total = _cycle_sum(factor, n, window, (0,) * n)
    total = total.scale(Fraction((-1) ** (n - 1), 2))
    if n == 2:
        delta = expand_kernel(KernelKind.KP_DELTA, n, window, 0, 1)
        total = total.sub(delta.clip(_negative_box(n, window)))
    total = total.clip(_negative_box(n, window))
    _assert_parity(total, even=True)
    return total


def wangyang_npoint_series(
    b: AffineB,
    n: int,
    max_weight: int,
    *,
    cap_scale: int = 1,
    pos_cap: int | None = None,
) -> Series:
    """BKP n-point series from the intrinsic neutral-fermion cycle sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    window = standard_window(n, max_weight, _b_degree(b), cap_scale, pos_cap)

    def factor(a, bb):
        if a == bb:
            return series_a_bkp(b, n, window, a, a, 1, -1)
        if a < bb:
            return series_a_hat_bkp(b, n, window, a, bb, 1, -1)
        return series_a_hat_bkp(b, n, window, bb, a, -1, 1).neg()

    total = _cycle_sum(factor, n, window, (None,) + (1,) * (n - 1))
    total = total.scale(-(2 ** (n - 1)))
    if n == 2:
        delta = expand_kernel(KernelKind.BKP_DELTA, n, window, 0, 1)
        total = total.sub(delta.clip(_negative_box(n, window)))
    total = total.clip(_negative_box(n, window))
    _assert_parity(total, even=False)
    return total


def _assert_parity(series: Series, even: bool) -> None:
    want = 0 if even else 1
    for exps in series.coeffs:
        if any(e % 2 != want for e in exps):
            raise ArithmeticError(
                f"parity violation at {exps}: truncation window too small"
            )


# -- tables ------------------------------------------------------------------


def npoint_table(series: Series, n: int, max_weight: int, *, index_shift: int,
                 odd_only: bool = True) -> dict:
    """Read the n-point values off a series: ``key -> coeff`` at
    ``exps = (-i_1 - shift, ...)``; asserts permutation symmetry."""
    out: dict = {}
    step = 2 if odd_only else 1
    for key in odd_tuples(n, max_weight, step):
        exps = tuple(-i - index_shift for i in key)
        value = series.coefficient(exps)
        for perm in set(permutations(exps)):
            if series.coefficient(perm) != value:
                raise ArithmeticError(
                    f"table not symmetric at {key}: {perm} differs"
                )
        out[key] = value
    return out


@dataclass(frozen=True)
class FormulaComparison:
    n: int
    max_weight: int
    table_embedded: dict
    table_wangyang: dict
    tables_agree: bool
    raw_relation_holds: bool
    first_difference: tuple | None


def compare_formulas(
    b: AffineB, n: int, max_weight: int, *, cap_scale: int = 1
) -> FormulaComparison:
    """Compute both BKP routes, their tables, and the raw series relation."""
    emb = embedded_npoint_series(b, n, max_weight, cap_scale=cap_scale)
    wy = wangyang_npoint_series(b, n, max_weight, cap_scale=cap_scale)
    t_emb = npoint_table(emb, n, max_weight, index_shift=1)
    t_wy = npoint_table(wy, n, max_weight, index_shift=0)
    agree = t_emb == t_wy
    first = None
    if not agree:
        for key in sorted(t_emb):
            if t_emb[key] != t_wy.get(key):
                first = (key, t_emb[key], t_wy.get(key))
                break
    # wangyang == (z_1 ... z_n) * embedded, compared where both are reliable
    shifted = emb.shift((1,) * n)
    lo = -(max_weight + 1)
    raw = True
    for exps in _box_iter(((lo, -1),) * n):
        if shifted.coefficient(exps) != wy.coefficient(exps):
            raw = False
            break
    return FormulaComparison(n, max_weight, t_emb, t_wy, agree, raw, first)
