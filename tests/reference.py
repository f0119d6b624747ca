"""References for the tests.

* Series-built: the generating series of `affine` and the lemma's factors
  and sides as `bkpnpoint.series.Series`.  The program builds no `Series`;
  these place its term tables in one, so the tests can compare the integer
  engines with plain Series arithmetic.
* The lemma contraction over all 2^k sign vectors: `contract_all_signs` on
  the walks of `walks_all_signs`, which the program's pass, folded by the
  flavor swaps, is held to through `expand_signs` (and its x_1 slices
  through `expand_first_swap` too).
* The lemma walks built in full: `walks_eager` builds every folded step
  for every digit, and `leads_eager` reads its slices off those steps;
  the program builds a step only when a state first reads it, and is held
  to these step for step.
* The cycle sums one tail at a time: `cycle_column`, the per-tail subset DP
  that the all-keys pass of `npoint.CycleSum` is held to, column by column.
* Mode actions one at a time: `apply_mode_ops`, which `fock.two_mode` and
  the Hamiltonian images are held to.
* The KP oracle: `tau_coefficients_kp`, the KP tau-function's coefficients
  from the Fock space, which the KP route and the log are held to.
* The log on `Fraction`s: `fraction_log`, every power of ``tau - 1`` a
  `Fraction` dict, which the integer powers of `fock.poly_log` are held to.
* The BKP oracle on charged fermions: `tau_coefficients_bkp_charged`, the
  BKP tau-function built from `phi_phi_generator` (each ``phi`` a ``psi``
  plus a ``psi*``) under an energy cutoff with a margin, and read with the
  charged ``H^B_k``.  The program's neutral-fermion tau is held to it.
"""

from bisect import insort
from fractions import Fraction
from itertools import product

from bkpnpoint import chain, lemma
from bkpnpoint.affine import bkp_terms, kp_terms
from bkpnpoint.fock import (
    VACUUM,
    _charged_need,
    _count_below,
    _h_kp_image,
    exp_bilinear_vacuum,
    poly_mul,
    psi_generator_kp,
    tau_table,
    two_mode,
)
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


def sides(k, spec, window, walks=None):
    """``(common, [f, h, 2g])``: the walks of the three tables of
    `lemma._tables`, 2g's at k = 1 too, built by ``walks``
    (`lemma._walks` unless given)."""
    common, tables = lemma._tables(k, spec, window)
    walks = walks or lemma._walks
    return common, [walks(table, k, window, common) for table in tables]


def expand_signs(acc, k, window):
    """A table of `lemma._contract`, on canonical keys (x_j < y_j for
    j >= 2), as the whole table: each nonzero entry, and its images under
    every set of the flavor swaps x_j <-> y_j (j >= 2), each swap negating."""
    base = 2 * window + 1
    out = {}
    for key, v in acc.items():
        if not v:
            continue
        exps = lemma._decode(key, k, window)
        for swaps in product((False, True), repeat=k - 1):
            digits, value = list(exps), v
            for j, swap in enumerate(swaps, 1):
                if swap:
                    x, y = 2 * j, 2 * j + 1
                    digits[x], digits[y] = exps[y], exps[x]
                    value = -value
            image = 0
            for e in digits:
                image = image * base + e + window
            out[image] = value
    return out


def expand_first_swap(acc, k, window):
    """The union of the x_1 slices of `lemma._contract`, which keep y_1 > x_1
    only, as the whole table: each nonzero entry, and its image under the
    flavor swap x_1 <-> y_1, negated."""
    out = {}
    for key, v in acc.items():
        if not v:
            continue
        exps = lemma._decode(key, k, window)
        image = 0
        for e in (exps[1], exps[0], *exps[2:]):
            image = image * (2 * window + 1) + e + window
        out[key], out[image] = v, -v
    return out


def lemma_side(which, k, spec, window):
    """One side of the lemma identity on the box |exponent| <= window, from
    the program's engine in one unsliced pass, f alone for "LHS" and 2g
    alone for "RHS" (so it includes the 2^k), expanded from its canonical
    keys."""
    common, (lhs, _, rhs) = sides(k, spec, window)
    acc = {}
    lemma._contract(((0, 0, lhs if which == "LHS" else rhs),), k, window, acc)
    coeffs = {lemma._decode(key, k, window): Fraction(v, common ** k)
              for key, v in expand_signs(acc, k, window).items()}
    return Series(2 * k, uniform_window(2 * k, -window, window), coeffs)


# -- the cycle sums one tail at a time -----------------------------------------


def cycle_column(series, tail) -> dict:
    """The integer column ``{e_0: value}``, every ``e_0`` in ``[lo, -1]``,
    of the cycle sum at ``eps = 1`` of a `npoint.CycleSum` over one tail
    ``(e_1, ..., e_{n-1})``, before any scale or parity projection.

    This is the subset DP `npoint.CycleSum` ran once per tail before it
    computed whole regions in one pass.  A path ``0 -> ... -> j`` that
    entered ``j`` with exponent ``q`` leaves ``j``'s outgoing factor owing
    ``r = e_j - q``, and the steps still to come depend only on the state
    (visited set, ``j``, ``r``).  Each state keeps the sum over every path
    reaching it, split by vertex 0's outgoing exponent ``p_0``, and the
    closing step ``j -> 0`` with a term ``(r, q_0)`` adds into the entry
    ``e_0 = p_0 + q_0``."""
    n, lo = series.nvars, series._lo
    up, down = series._up, series._down
    exps = (0, *tail)
    owed = up.keys() | down.keys()
    layer = {(1, 0, p0): {p0: 1} for p0 in up}
    for _ in range(n - 1):
        grown = {}
        for (seen, j, r), part in layer.items():
            for k in range(1, n):
                if seen >> k & 1:
                    continue
                for q, c in (up if j < k else down).get(r, ()):
                    owe = exps[k] - q
                    if owe in owed:
                        out = grown.setdefault((seen | 1 << k, k, owe), {})
                        for p0, v in part.items():
                            out[p0] = out.get(p0, 0) + v * c
        layer = grown
    column = {}
    for (_, _, r), part in layer.items():
        for q0, c in down.get(r, ()):
            for p0, v in part.items():
                e0 = p0 + q0
                if lo <= e0 <= -1:
                    column[e0] = column.get(e0, 0) + v * c
    return column


# -- the lemma contraction over all 2^k sign vectors ---------------------------


def walks_all_signs(tables, k: int, window: int, common: int):
    """The factors of one table set ``{direction: table}`` (see
    `lemma._factor`) as lists of (box key, integer) items over ``common``,
    arranged as the two walks of `contract_all_signs`: ``{-1: steps,
    1: transposed steps}``, keyed by eps_1."""
    nvars = 2 * k
    weight = [(2 * window + 1) ** (nvars - 1 - p) for p in range(nvars)]
    # Cycle step j1 -> j2 under signs (e1, e2), indices 0-based: the first
    # slot takes y_{j1} for e1 = +1 (x_{j1} otherwise), the second x_{j2}
    # for e2 = +1 (y_{j2} otherwise), and the factor carries the sign of the
    # index its step enters.  Only steps a chain takes are listed.
    steps = {}
    for j1, j2, e1, e2 in product(range(k), range(k), (1, -1), (1, -1)):
        if j1 == j2 and (k > 1 or e1 != e2):
            continue  # k = 1 closes on index 0 with its own sign
        wa = weight[2 * j1 + (1 if e1 == 1 else 0)]
        wb = weight[2 * j2 + (0 if e2 == 1 else 1)]
        d = 0 if j1 == j2 else 1 if j1 < j2 else -1
        steps[j1, j2, e1, e2] = [
            ((p + window) * wa + (q + window) * wb,
             e2 * c.numerator * (common // c.denominator))
            for (p, q), c in tables[d].items()
        ]
    back = {(j2, j1, e2, e1): items
            for (j1, j2, e1, e2), items in steps.items()}
    return {-1: steps, 1: back}


def contract_all_signs(moves, k: int, window: int, acc, lead=None) -> None:
    """The lemma contraction over all 2^k sign vectors, as `lemma._contract`
    was before it folded the flavor swaps: add ``common^k`` times the chains
    of ``moves`` (walks from `walks_all_signs`) into ``acc``, keyed by box
    keys, the chains that end at the last stage only, and with ``lead``
    only those whose x_1 digit is ``lead``.  A state carries the sign of
    its last index."""
    last = max(dst for _, dst, _ in moves)
    top = (2 * window + 1) ** (2 * k - 1)  # the weight of x_1's digit

    def factor(steps, step):
        if lead is None or step[0]:
            return steps[step]
        return [(key, c) for key, c in steps[step] if key // top == lead]

    for e0 in (-1, 1):
        layer = {(1, 0, e0, 0): {0: 1}}
        for _ in range(k - 1):
            grown = {}
            for (seen, j, ej, stage), partial in layer.items():
                for src, dst, walks in moves:
                    if src != stage:
                        continue
                    for j2 in range(1, k):
                        if seen >> j2 & 1:
                            continue
                        for e2 in (1, -1):
                            state = (seen | 1 << j2, j2, e2, dst)
                            chain.extend(grown.setdefault(state, {}), partial,
                                         factor(walks[e0], (j, j2, ej, e2)))
            layer = grown
        for (_, j, ej, stage), partial in layer.items():
            for src, dst, walks in moves:
                if src == stage and dst == last:
                    chain.extend(acc, partial,
                                 factor(walks[e0], (j, 0, ej, e0)))


# -- the lemma walks built in full --------------------------------------------


def walks_eager(tables, k: int, window: int, common: int):
    """`lemma._walks` with every folded step ``(j, a, j2)`` built up front,
    for all 2W + 1 digits ``a``, as plain dicts."""
    base = 2 * window + 1
    weight = [base ** (2 * k - 1 - p) for p in range(2 * k)]
    ints = {d: [(p + window, q + window,
                 c.numerator * (common // c.denominator))
                for (p, q), c in table.items()]
            for d, table in tables.items()}
    walks = {}
    for e0 in (-1, 1):
        enter = [1] + [2 * j + (e0 > 0) for j in range(1, k)]
        leave = [0] + [2 * j + (e0 < 0) for j in range(1, k)]
        steps = {}
        for j, j2 in product(range(k), repeat=2):
            if j == j2 and k > 1:
                continue
            d = 0 if j == j2 else 1 if j < j2 else -1
            if e0 < 0:
                uvc = [(p, q, -c if j2 == 0 else c) for p, q, c in ints[d]]
            else:
                uvc = [(q, p, c) for p, q, c in ints[-d]]
            wl, we, wn = weight[leave[j]], weight[enter[j]], weight[enter[j2]]
            terms = [(u, v, u * wl + v * wn, u * we + v * wn, c)
                     for u, v, c in uvc]
            by_y = leave[j] % 2 == 1
            for a in (None,) if j == 0 else range(base):
                shift = a * (wl - we) if j else 0
                groups = {}
                for u, b, kept, swapped, c in terms:
                    if u == a:
                        continue
                    if j == 0 or (a < u) == by_y:
                        groups.setdefault(b, []).append((kept, c))
                    else:
                        groups.setdefault(b, []).append((swapped + shift, -c))
                steps[j, a, j2] = groups
        walks[e0] = steps
    return walks


def leads_eager(moves, k: int, window: int) -> list:
    """`lemma._leads` read off the built steps of `walks_eager`: the x_1
    digits of the factors that open a kept chain, below the largest y_1
    digit of a closing factor's groups."""
    last = max(dst for _, dst, _ in moves)
    top = (2 * window + 1) ** (2 * k - 1)
    y1 = max((b for _, dst, walks in moves if dst == last
              for steps in walks.values()
              for (_, _, j2), groups in steps.items() if j2 == 0
              for b in groups), default=0)
    leads = {key // top for src, dst, walks in moves
             if src == 0 and (k > 1 or dst == last)
             for steps in walks.values()
             for (j, _, _), groups in steps.items() if j == 0
             for items in groups.values()
             for key, _ in items}
    return sorted(lead for lead in leads if lead < y1)


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


def tau_coefficients_kp(kp, max_weight: int) -> dict:
    """KP tau coefficients for monomial weights ``<= max_weight``, even
    indices included."""
    vec = exp_bilinear_vacuum(psi_generator_kp(kp), 2 * max_weight)
    return tau_table(vec.coeffs, VACUUM, _h_kp_image, 1, _charged_need,
                     max_weight, odd_only=False)


def fraction_log(tau: dict, max_weight: int,
                 max_len: int | None = None) -> dict:
    """``log tau = sum_j (-1)^(j+1) u^j / j``, ``u = tau - 1``, cut at
    ``max_weight``, with every power a ``Fraction`` dict; with ``max_len``,
    only the monomials of at most ``max_len`` indices."""
    if tau.get((), Fraction(0)) != 1:
        raise ValueError("tau must have constant term 1")
    top = max_weight if max_len is None else min(max_weight, max_len)
    u = {
        k: v for k, v in tau.items()
        if k and sum(k) <= max_weight and (max_len is None or len(k) <= max_len)
    }
    out: dict = {}
    power = {(): Fraction(1)}
    sign = 1
    for j in range(1, top + 1):
        power = poly_mul(power, u, max_weight, max_len)
        if not power:
            break
        for k, v in power.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(sign, j) * v
        sign = -sign
    return {k: v for k, v in out.items() if v != 0}


# -- the BKP oracle on charged fermions ----------------------------------------
#
# ``phi_m = (psi_{-m-1/2} + (-1)^m psi*_{-m+1/2}) / sqrt(2)``; only products of
# two ``phi`` occur, so the ``1/sqrt(2)`` factors combine to ``1/2``.
# ``H^B_k = (1/2) sum_{i in Z} (-1)^{i-1} phi_i phi_{-i-k}`` mixes the charge
# sectors ``+-2``; its components lower E by ``k`` or ``k -+ 1``.


def phi_phi_terms(m: int, n: int, c):
    """Mode terms of ``c phi_m phi_n``: each ``phi`` inserts or removes, and
    the two ``1/sqrt(2)`` make ``1/2``."""
    half = c / 2
    sm, sn = -1 if m % 2 else 1, -1 if n % 2 else 1
    return (
        ((True, -2 * m - 1, True, -2 * n - 1), half),
        ((True, -2 * m - 1, False, 2 * n - 1), half * sn),
        ((False, 2 * m - 1, True, -2 * n - 1), half * sm),
        ((False, 2 * m - 1, False, 2 * n - 1), half * sm * sn),
    )


def phi_phi_generator(b):
    """``sum_{n,m} a_{n,m} phi_m phi_n`` as mode terms, each ``phi_m phi_n``
    once with coefficient ``2a`` (the two triangles anticommute)."""
    return [t for (n, m), a in sorted(b.entries.items()) if n > m
            for t in phi_phi_terms(m, n, 2 * a)]


def needed_cutoff2(max_weight: int) -> int:
    """The doubled-energy cutoff for weight-``W`` tau coefficients.

    Contributing intermediate states satisfy ``E = W_remaining + charge/2``
    with ``E >= charge^2/2``, so ``cutoff2 = 2W + margin2`` with ``margin2``
    the largest even ``c`` such that ``c(c-1) <= 2W``.
    """
    margin2 = 0
    c = 2
    while c * (c - 1) <= 2 * max_weight:
        margin2 = c
        c += 2
    return 2 * max_weight + margin2


def h_b_image_charged(state, k: int) -> dict:
    """``H^B_k |state>`` on charged states, for ``k >= 1``, as
    ``new state -> coefficient * 4``.

    Only the families ``(i, lo_ins, hi_ins)`` of ``phi_i phi_{-i-k}`` whose
    low mode (``-2i-1`` inserted, ``2i-1`` removed) or high mode
    (``2(i+k)-1`` inserted, ``-2(i+k)-1`` removed) is a hole or a bubble of
    the state act: each family needs a positive mode inserted or a negative
    one removed, and an insert never creates a hole nor a remove a bubble.
    """
    bubbles, holes = state
    families = set()
    for h in holes:
        i = -(h + 1) // 2  # low insert fills h
        families.add((i, True, True))
        families.add((i, True, False))
        i = (h + 1) // 2 - k  # high insert fills h
        families.add((i, True, True))
        families.add((i, False, True))
    for b in bubbles:
        i = (b + 1) // 2  # low remove empties b
        families.add((i, False, True))
        families.add((i, False, False))
        i = -(b + 1) // 2 - k  # high remove empties b
        families.add((i, True, False))
        families.add((i, False, False))
    quarters: dict = {}
    for i, lo_ins, hi_ins in families:
        res = two_mode(
            state,
            lo_ins, -2 * i - 1 if lo_ins else 2 * i - 1,
            hi_ins, 2 * (i + k) - 1 if hi_ins else -2 * (i + k) - 1,
        )
        if res is None:
            continue
        new, sign = res
        # (-1)^(i-1) times the family's (-1)^(i+k) per remove-high and
        # (-1)^i per remove-low
        if (i - 1 + (0 if hi_ins else i + k) + (0 if lo_ins else i)) & 1:
            sign = -sign
        quarters[new] = quarters.get(new, 0) + sign
    return {s: q for s, q in quarters.items() if q}


def tau_coefficients_bkp_charged(b, max_weight: int, cutoff_bump: int = 0):
    """BKP tau in odd times on charged fermions, exact for monomial weights
    ``<= max_weight``; ``cutoff_bump`` raises the energy cutoff."""
    cutoff2 = needed_cutoff2(max_weight) + 2 * cutoff_bump
    vec = exp_bilinear_vacuum(phi_phi_generator(b), cutoff2)
    return tau_table(vec.coeffs, VACUUM, h_b_image_charged, 4, _charged_need,
                     max_weight, odd_only=True)
