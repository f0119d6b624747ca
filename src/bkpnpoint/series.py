r"""Truncated multivariate Laurent series over exact rationals.

A :class:`Series` stores finitely many monomials ``z_0^{e_0} ... z_{k-1}^{e_{k-1}}``
with ``Fraction`` coefficients inside a per-variable exponent window
``lo_v <= e_v <= hi_v``.  Everything outside the window is discarded and the
``clipped`` flag records that a discard happened; arithmetic never raises on
truncation, only on *inconsistent expansion directions* (see below).

Rational kernels such as ``1/(z_i - z_j)`` have no Laurent expansion per se;
they have one expansion per variable ordering.  Throughout this package the
variable with the smaller index dominates, i.e. appears with unboundedly
negative exponents, matching the region ``|z_0| >> |z_1| >> ...``.  Each
expanded kernel records, for the unordered pair of variables involved, which
variable dominated.  Multiplying (or adding) two series whose recorded
directions for the same pair disagree would assemble a divergent product, so
:class:`DivergentPairingError` is raised instead.

All kernels are expanded by closed coefficient formulas, exactly on the
requested window (no approximation inside the window).
"""

from __future__ import annotations

import enum
from fractions import Fraction

ZERO = Fraction(0)

Window = tuple[tuple[int, int], ...]


class WindowError(KeyError):
    """A coefficient was requested outside the truncation window."""


class DivergentPairingError(ValueError):
    """Two series expanded the same variable pair in opposite directions."""


def uniform_window(nvars: int, lo: int, hi: int) -> Window:
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    return ((lo, hi),) * nvars


def _intersect(wa: Window, wb: Window) -> Window:
    if len(wa) != len(wb):
        raise ValueError("variable count mismatch")
    return tuple((max(a[0], b[0]), min(a[1], b[1])) for a, b in zip(wa, wb))


def _merge_markers(ma: dict, mb: dict, what: str) -> dict:
    out = dict(ma)
    for pair, dom in mb.items():
        if out.setdefault(pair, dom) != dom:
            raise DivergentPairingError(
                f"variable pair {pair} expanded in opposite directions in {what}"
            )
    return out


class Series:
    """Sparse truncated Laurent series; treat instances as immutable."""

    __slots__ = ("nvars", "window", "coeffs", "markers", "clipped")

    def __init__(self, nvars, window, coeffs, markers=None, clipped=False):
        self.nvars = nvars
        self.window = window
        self.coeffs = coeffs
        self.markers = markers or {}
        self.clipped = clipped

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int, window: Window) -> "Series":
        return Series(nvars, window, {})

    @staticmethod
    def constant(nvars: int, window: Window, value) -> "Series":
        return Series.monomial(nvars, window, (0,) * nvars, value)

    @staticmethod
    def monomial(nvars: int, window: Window, exps, value) -> "Series":
        value = Fraction(value)
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError("exponent arity mismatch")
        if value == 0:
            return Series.zero(nvars, window)
        for e, (lo, hi) in zip(exps, window):
            if not lo <= e <= hi:
                return Series(nvars, window, {}, clipped=True)
        return Series(nvars, window, {exps: value})

    # -- ring operations ----------------------------------------------

    def add(self, other: "Series") -> "Series":
        window = _intersect(self.window, other.window)
        markers = _merge_markers(self.markers, other.markers, "sum")
        coeffs: dict = {}
        clipped = self.clipped or other.clipped
        for src in (self.coeffs, other.coeffs):
            for e, c in src.items():
                if _inside(e, window):
                    coeffs[e] = coeffs.get(e, ZERO) + c
                else:
                    clipped = True
        coeffs = {e: c for e, c in coeffs.items() if c != 0}
        return Series(self.nvars, window, coeffs, markers, clipped)

    def neg(self) -> "Series":
        return Series(
            self.nvars,
            self.window,
            {e: -c for e, c in self.coeffs.items()},
            dict(self.markers),
            self.clipped,
        )

    def sub(self, other: "Series") -> "Series":
        return self.add(other.neg())

    def scale(self, value) -> "Series":
        value = Fraction(value)
        if value == 0:
            return Series(self.nvars, self.window, {}, dict(self.markers), self.clipped)
        return Series(
            self.nvars,
            self.window,
            {e: c * value for e, c in self.coeffs.items()},
            dict(self.markers),
            self.clipped,
        )

    def mul(self, other: "Series") -> "Series":
        window = _intersect(self.window, other.window)
        markers = _merge_markers(self.markers, other.markers, "product")
        lows = tuple(w[0] for w in window)
        highs = tuple(w[1] for w in window)
        coeffs: dict = {}
        clipped = self.clipped or other.clipped
        bitems = list(other.coeffs.items())
        for ea, ca in self.coeffs.items():
            for eb, cb in bitems:
                e = tuple(map(int.__add__, ea, eb))
                ok = True
                for x, lo, hi in zip(e, lows, highs):
                    if x < lo or x > hi:
                        ok = False
                        break
                if not ok:
                    clipped = True
                    continue
                prev = coeffs.get(e)
                coeffs[e] = ca * cb if prev is None else prev + ca * cb
        coeffs = {e: c for e, c in coeffs.items() if c != 0}
        return Series(self.nvars, window, coeffs, markers, clipped)

    # -- structural operations ----------------------------------------

    def shift(self, exps) -> "Series":
        """Multiply by the monomial ``prod z_v^{exps[v]}`` (window kept)."""
        exps = tuple(exps)
        coeffs: dict = {}
        clipped = self.clipped
        for e, c in self.coeffs.items():
            e2 = tuple(map(int.__add__, e, exps))
            if _inside(e2, self.window):
                coeffs[e2] = c
            else:
                clipped = True
        return Series(self.nvars, self.window, coeffs, dict(self.markers), clipped)

    def clip(self, caps: dict) -> "Series":
        """Tighten the window per variable: ``caps[var] = (lo, hi)``."""
        window = list(self.window)
        for v, (lo, hi) in caps.items():
            window[v] = (max(window[v][0], lo), min(window[v][1], hi))
        window = tuple(window)
        coeffs: dict = {}
        clipped = self.clipped
        for e, c in self.coeffs.items():
            if _inside(e, window):
                coeffs[e] = c
            else:
                clipped = True
        return Series(self.nvars, window, coeffs, dict(self.markers), clipped)

    # -- inspection ----------------------------------------------------

    def coefficient(self, exps) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent arity mismatch")
        if not _inside(exps, self.window):
            raise WindowError(f"exponent {exps} outside window {self.window}")
        return self.coeffs.get(exps, ZERO)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        head = ", ".join(f"{e}: {c}" for e, c in terms[:8])
        more = "" if len(terms) <= 8 else f", ... ({len(terms)} terms)"
        flag = ", clipped" if self.clipped else ""
        return f"Series({head}{more}{flag})"


def _inside(exps, window) -> bool:
    for e, (lo, hi) in zip(exps, window):
        if e < lo or e > hi:
            return False
    return True


class KernelKind(enum.Enum):
    """Closed-form kernels with one expansion rule per variable ordering."""

    INV_DIFF = "inv_diff"          # 1/(u - v)
    GEOM_TAIL = "geom_tail"        # sum_{k>=1} (-1)^k u^{-k} v^k
    KP_DELTA = "kp_delta"          # (1/2) sum_{n>=0} (2n+1) u^{-2n-2} v^{2n}
    BKP_DELTA = "bkp_delta"        # (1/2) sum_{n>=0} (2n+1) u^{-2n-1} v^{2n+1}
    LEMMA_RATIO = "lemma_ratio"    # u/(v + u), ordering decided by idx


def expand_kernel(
    kind: KernelKind,
    nvars: int,
    window: Window,
    i: int,
    j: int,
    sign_i: int = 1,
    sign_j: int = 1,
    *,
    idx_i: int | None = None,
    idx_j: int | None = None,
) -> Series:
    """Expand a kernel in ``u = sign_i * z_i`` and ``v = sign_j * z_j``.

    ``idx_i``/``idx_j`` override the dominance comparison (default: the
    variable positions themselves); the smaller index dominates.  The
    returned series is exact on the window and carries a direction marker
    for the pair ``{i, j}``.
    """
    if i == j:
        raise ValueError("kernel variables must differ")
    ia = idx_i if idx_i is not None else i
    ja = idx_j if idx_j is not None else j
    if ia == ja and kind is not KernelKind.LEMMA_RATIO:
        raise ValueError("ambiguous dominance: equal indices")
    if sign_i not in (1, -1) or sign_j not in (1, -1):
        raise ValueError("signs must be +1 or -1")

    def build(terms):
        # terms: iterable of (exp_i, exp_j, coeff); clip to window.
        coeffs = {}
        base = [0] * nvars
        (lo_i, hi_i), (lo_j, hi_j) = window[i], window[j]
        for ei, ej, c in terms:
            if lo_i <= ei <= hi_i and lo_j <= ej <= hi_j and c != 0:
                e = list(base)
                e[i], e[j] = ei, ej
                coeffs[tuple(e)] = Fraction(c)
        return coeffs

    def krange(dlo, shift_dom, shift_sub, sub_hi):
        # k >= 0 with dominant exponent -shift_dom - k >= dlo and
        # subordinate exponent shift_sub + k <= sub_hi
        kmax = min(-dlo - shift_dom, sub_hi - shift_sub)
        return range(0, kmax + 1)

    marker_pair = (min(i, j), max(i, j))

    if kind is KernelKind.INV_DIFF:
        if ia < ja:
            terms = [
                (-1 - k, k, sign_i ** (k + 1) * sign_j**k)
                for k in krange(window[i][0], 1, 0, window[j][1])
            ]
            dom = i
        else:
            terms = [
                (k, -1 - k, -(sign_j ** (k + 1)) * sign_i**k)
                for k in krange(window[j][0], 1, 0, window[i][1])
            ]
            dom = j
    elif kind is KernelKind.GEOM_TAIL:
        if ia > ja:
            raise ValueError("geometric tail requires the first variable dominant")
        terms = [
            (-k, k, (-1) ** k * (sign_i * sign_j) ** k)
            for k in range(1, min(-window[i][0], window[j][1]) + 1)
        ]
        dom = i
    elif kind is KernelKind.KP_DELTA:
        if ia < ja:
            terms = [
                (-2 * n - 2, 2 * n, Fraction(2 * n + 1, 2))
                for n in range(0, _delta_range(window, i, j, 2, 0))
            ]
            dom = i
        else:
            terms = [
                (2 * n, -2 * n - 2, Fraction(2 * n + 1, 2))
                for n in range(0, _delta_range(window, j, i, 2, 0))
            ]
            dom = j
    elif kind is KernelKind.BKP_DELTA:
        s = sign_i * sign_j
        if ia < ja:
            terms = [
                (-2 * n - 1, 2 * n + 1, Fraction((2 * n + 1) * s ** (2 * n + 1), 2))
                for n in range(0, _delta_range(window, i, j, 1, 1))
            ]
            dom = i
        else:
            terms = [
                (2 * n + 1, -2 * n - 1, Fraction((2 * n + 1) * s ** (2 * n + 1), 2))
                for n in range(0, _delta_range(window, j, i, 1, 1))
            ]
            dom = j
    elif kind is KernelKind.LEMMA_RATIO:
        # u/(v + u): zero when the indices coincide.
        if ia == ja:
            return Series.zero(nvars, window)
        if ja < ia:
            # v dominant: sum_p (-1)^p v^{-p-1} u^{p+1}
            terms = [
                (p + 1, -p - 1, (-1) ** p * (sign_i * sign_j) ** (p + 1))
                for p in krange(window[j][0], 1, 1, window[i][1])
            ]
            dom = j
        else:
            # u dominant: sum_p (-1)^p u^{-p} v^p, leading term 1
            terms = [
                (-p, p, (-1) ** p * (sign_i * sign_j) ** p)
                for p in krange(window[i][0], 0, 0, window[j][1])
            ]
            dom = i
    else:  # pragma: no cover
        raise ValueError(f"unknown kernel {kind}")

    coeffs = build(terms)
    return Series(nvars, window, coeffs, {marker_pair: dom})


def _delta_range(window, dom, sub, dom_shift, sub_shift):
    # n >= 0 with -2n - dom_shift >= lo_dom and 2n + sub_shift <= hi_sub
    nmax = min(
        (-window[dom][0] - dom_shift) // 2,
        (window[sub][1] - sub_shift) // 2,
    )
    return max(0, nmax + 1)
