r"""Truncated charged free-fermion Fock space over exact rationals.

Basis states are semi-infinite wedges over half-integer modes ``z^{r}``.  The
vacuum occupies every positive mode ``z^{1/2} wedge z^{3/2} wedge ...``; an
excited state is encoded by the finite deviation from it:

* ``bubbles``: occupied negative modes,
* ``holes``: vacated positive modes,

both stored as ascending tuples of doubled (odd) integers, so ``-3`` means
``z^{-3/2}``.  Energy is half-integral and is tracked doubled as well:
``E2 = sum(holes) - sum(bubbles)``; ``charge = len(bubbles) - len(holes)``.

Operator conventions (``r`` half-integer, ``m2 = 2r``):

* ``psi_r`` wedges ``z^r`` in front; moving it to sorted position gives the
  sign ``(-1)^{#occupied modes < r}``.
* ``psi*_r`` contracts against ``z^{-r}`` (removes mode ``-r``) with the same
  position sign.  Both raise the energy by ``-r``.
* ``phi_m = (psi_{-m-1/2} + (-1)^m psi*_{-m+1/2}) / sqrt(2)``; only products
  of two ``phi`` occur, so the ``1/sqrt(2)`` factors always combine to the
  rational ``1/2``.
* ``H_k   = sum_r psi_{-r} psi*_{r+k}`` (charge preserving, lowers E by k),
* ``H^B_k = (1/2) sum_{i in Z} (-1)^{i-1} phi_i phi_{-i-k}`` (mixes charge
  sectors ``+-2``, components lower E by ``k`` or ``k -+ 1``).

Vectors are sparse ``dict[state] -> Fraction``.  ``exp_bilinear_vacuum``
builds ``exp(sum of mode terms)|0>`` truncated to ``E2 <= cutoff2``.  It
admits a term only when its ``E2`` rise is at least 2 per insert it makes,
``rise >= 2 * (a_ins + b_ins)``; the generators' terms all pass (``phi_m
phi_n`` with ``m + n >= 1``, ``psi_r psi*_s`` with ``-(r2 + s2) >= 2``).  No
admitted term lowers the energy, so no dropped state feeds a kept one and
the truncated vector is exact on the kept subspace.  The one truncation is
to skip a term on a state whose ``E2`` it would raise above the cutoff.
The raise rule is also the iteration bound: ``j`` terms with ``I`` inserts
reach charge ``c = 2I - 2j`` and ``E2 >= 2I = 2j + c``, and
``c^2 <= E2 <= cutoff2`` (``exp_iteration_limit``; the full argument is in
``exp_bilinear_vacuum``).

The loop runs on integers: with ``L`` the lcm of the denominators of the
generator's mode terms, ``A = L * generator`` is integral, the integer
vectors ``u_j = A u_{j-1}`` are ``L^j j!`` times the ``j``-th term of the
exponential, and the sum is kept as numerators over the running
denominator ``L^j j!``.  Truncation commutes with the scaling, so one
``Fraction`` per state at the end gives the same vector as the term-by-term
``Fraction`` sum.

Every mode action of the oracle goes through one kernel, ``two_mode``: a
product of two primitive actions on a basis state, with both occupancies
checked before any tuple is built.  The generators are lists of mode terms
``((a_ins, a, b_ins, b), coeff)``, one ``two_mode`` call each: ``c psi_r
psi*_s`` is the one term ``((True, r2, False, -s2), c)``, and ``c phi_m
phi_n`` the four insert/remove families of its two ``phi``.

The energy cutoff needed for weight-``W`` tau coefficients exceeds ``W``:
contributing intermediate states satisfy ``E = W_remaining + charge/2`` with
``E >= charge^2/2``, so ``cutoff2 = 2W + margin2`` with ``margin2`` the
largest even ``c`` such that ``c(c-1) <= 2W``.

``H^B_k`` on a basis state visits only the families ``(i, low action, high
action)`` whose acting mode is a hole ``h`` or a bubble ``b`` of it: low
insert at ``h`` (``i = -(h+1)/2``), high insert at ``h`` (``i = (h+1)/2 - k``),
low remove at ``b`` (``i = (b+1)/2``) or high remove at ``b``
(``i = -(b+1)/2 - k``).  No other family acts, because each of the four
mode families of ``phi_i phi_{-i-k}`` needs a hole (a positive mode
inserted) or a bubble (a negative mode removed), for every ``i`` and
``k >= 1``, at the mode named below.  The two modes of a family are
``-2i-1`` or ``2i-1`` (low) and ``2(i+k)-1`` or ``-2(i+k)-1`` (high),
applied high first:

* insert low, insert high: the doubled indices sum to ``2k-2 >= 0``, so one
  of them is positive and must hit a hole;
* insert low, remove high: a negative high must be a bubble; a positive
  high means ``i <= -k-1``, so low is positive and must be a hole;
* remove low, insert high: a positive high must be a hole; a negative high
  means ``i <= -k``, so low is negative and must be a bubble;
* remove low, remove high: the indices sum to ``-2k-2 < 0``; a negative high
  must be a bubble, otherwise low is negative and must be one.

The hole or bubble is always one of the starting state: an insert never
creates a hole, a remove never creates a bubble, and in the two mixed
families low and high differ by ``2k``.

``tau_table`` walks the monomials depth first on integers.  The start
vector is scaled by the common denominator ``den`` of its coefficients, and
``H_k |state>`` (``H^B_k |state>``) is computed once per ``(state, k)`` by
the kernel as integer coefficients in units of 1 (of 1/4).  After ``d``
applications the integers carry the factor ``den * unit^d`` (``unit`` 1 or
4), so a vacuum coefficient ``v`` reached by an index multiset with
multiplicities ``m_j`` is the monomial coefficient
``v / (den * unit^d * prod m_j!)``.

``poly_log(tau, W, max_len=n)`` forms only the monomials of ``log tau`` with
at most ``n`` indices, which is all an n-point table reads.  The cut is
exact: ``log tau = sum_j (-1)^(j+1) u^j / j`` with ``u = tau - 1``, the
number of indices adds under multiplication, and ``u`` has no term without
indices.  So a monomial of at most ``n`` indices in ``u^j`` needs ``j <= n``
and is a product of ``u``-terms of at most ``n`` indices each, and the
powers can drop every longer monomial as they are formed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt, lcm

from .affine import AffineB, AffineKP, bkp_to_kp

ZERO = Fraction(0)
ONE = Fraction(1)

VACUUM = ((), ())


def energy2(state) -> int:
    bubbles, holes = state
    return sum(holes) - sum(bubbles)


def charge(state) -> int:
    bubbles, holes = state
    return len(bubbles) - len(holes)


def _count_below(bubbles, holes, m2: int) -> int:
    """Occupied modes strictly below ``m2`` (doubled odd integer)."""
    if m2 < 0:
        return bisect_left(bubbles, m2)
    return len(bubbles) + (m2 - 1) // 2 - bisect_left(holes, m2)


def _toggled(seq: tuple, m2: int, present: bool) -> tuple:
    """``seq`` with ``m2`` dropped (``present``) or inserted in order."""
    i = bisect_left(seq, m2)
    if present:
        return seq[:i] + seq[i + 1:]
    return seq[:i] + (m2,) + seq[i:]


def two_mode(state, a_ins: bool, a: int, b_ins: bool, b: int):
    """``op_a op_b |state>`` for two mode actions (insert when ``*_ins``).

    ``None`` when it vanishes, else ``(new state, sign)``: the action on
    ``b`` first, then the one on ``a``.  Both occupancies are
    checked before any tuple is built; for ``a != b`` the sign is
    ``(-1)^(below(a) + below(b) + [b < a])``, counted on ``state``, since
    acting on ``b`` first moves the count below ``a`` by one when ``b < a``.
    """
    bubbles, holes = state
    b_occ = b in bubbles if b < 0 else b not in holes
    if b_occ == b_ins:
        return None
    if a == b:  # the second action undoes the first, or repeats it
        return None if a_ins == b_ins else (state, 1)
    a_occ = a in bubbles if a < 0 else a not in holes
    if a_occ == a_ins:
        return None
    parity = _count_below(bubbles, holes, a) + _count_below(bubbles, holes, b)
    if b < a:
        parity += 1
    # a bubble is an occupied negative mode, a hole a vacated positive one
    if b < 0:
        bubbles = _toggled(bubbles, b, b_occ)
    else:
        holes = _toggled(holes, b, not b_occ)
    if a < 0:
        bubbles = _toggled(bubbles, a, a_occ)
    else:
        holes = _toggled(holes, a, not a_occ)
    return (bubbles, holes), -1 if parity & 1 else 1


def _rise(modes) -> int:
    """The ``E2`` change of a mode term: an insert of ``m2`` raises ``E2`` by
    ``-m2``, a remove by ``m2``."""
    a_ins, a, b_ins, b = modes
    return (-a if a_ins else a) + (-b if b_ins else b)


def _apply_terms(terms, vec: dict, cutoff2: int) -> dict:
    """``sum k * two_mode(...)`` over ``(modes, k)`` terms, cut at ``cutoff2``.

    Works on ``Fraction`` or ``int`` coefficients alike; returns the dict
    without zeros.  A term's rise is known from its modes, so a term that
    would take a state above the cutoff is skipped without being applied.
    """
    raised = [(modes, k, _rise(modes)) for modes, k in terms]
    out: dict = {}
    for state, c in vec.items():
        room = cutoff2 - energy2(state)
        for modes, k, rise in raised:
            if rise > room:
                continue
            res = two_mode(state, *modes)
            if res is None:
                continue
            new, sign = res
            val = c * k if sign > 0 else -c * k
            prev = out.get(new)
            out[new] = val if prev is None else prev + val
    return {s: c for s, c in out.items() if c != 0}


def _h_kp_image(state, k: int) -> dict:
    """``H_k |state>`` for ``k >= 1`` as ``new state -> +-1``.

    ``H_k`` moves one occupied mode up by ``k``; distinct moves give
    distinct states.
    """
    k2 = 2 * k
    bubbles, holes = state
    out: dict = {}
    for mu in [nu - k2 for nu in holes] + [mu for mu in bubbles if mu + k2 < 0]:
        res = two_mode(state, True, mu + k2, False, mu)
        if res is not None:
            out[res[0]] = res[1]
    return out


def _h_b_image(state, k: int) -> dict:
    """``H^B_k |state>`` for ``k >= 1`` as ``new state -> coefficient * 4``.

    Only the families ``(i, lo_ins, hi_ins)`` whose low or high mode is a
    hole or a bubble of the state are visited (see the module docstring for
    why no other family acts).
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


class TruncationOverflow(RuntimeError):
    """exp() iteration failed to terminate within the energy budget."""


@dataclass
class FockVector:
    coeffs: dict


def exp_bilinear_vacuum(terms, cutoff2: int) -> FockVector:
    """``exp(sum terms)|0>`` truncated to ``E2 <= cutoff2``.

    ``terms`` are mode terms ``((a_ins, a, b_ins, b), coeff)``; each must
    raise ``E2`` by at least 2 per insert, ``rise >= 2 * (a_ins + b_ins)``.
    The loop runs on the integer vectors ``u_j = A u_{j-1}`` (see the module
    docstring), each cut at ``cutoff2``.

    **Iteration bound.**  A nonzero ``u_j`` needs ``j <= (C + isqrt(C)) / 2``
    with ``C = cutoff2``, so the loop stops at most one step later, on an
    empty term.  Each of the ``j`` factors applies one mode term, which
    moves ``E2`` by its rise and the charge by ``+1`` per insert and ``-1``
    per remove.  With ``I`` inserts among the ``2j`` actions the final state
    has charge ``c = 2I - 2j`` and ``E2 >= 2I = 2j + c``, so
    ``j <= (E2 - c)/2 <= E2/2 + |c|/2``.  A state of charge ``c`` has
    ``E2 >= c^2``, so ``|c| <= isqrt(E2)``, and ``E2 <= C``.
    """
    for modes, _ in terms:
        if _rise(modes) < 2 * (modes[0] + modes[2]):
            raise ValueError(
                f"mode term {modes} does not raise E2 by 2 per insert")
    scale = lcm(*(k.denominator for _, k in terms))
    terms = [(modes, k.numerator * (scale // k.denominator))
             for modes, k in terms]
    total = {VACUUM: 1}  # numerators over den = L^j j!
    den = 1
    term = {VACUUM: 1}
    for j in range(1, exp_iteration_limit(cutoff2) + 1):
        term = _apply_terms(terms, term, cutoff2)
        if not term:
            coeffs = {s: Fraction(c, den) for s, c in total.items() if c != 0}
            return FockVector(coeffs)
        step = scale * j
        den *= step
        total = {s: c * step for s, c in total.items()}
        for s, c in term.items():
            total[s] = total.get(s, 0) + c
    raise TruncationOverflow("exp() did not terminate; generator not raising?")


def exp_iteration_limit(cutoff2: int) -> int:
    """Steps ``exp_bilinear_vacuum`` may take: the proven bound plus the
    empty last term."""
    c = max(0, cutoff2)
    return (c + isqrt(c)) // 2 + 1


# -- generators from affine coordinates ------------------------------------


def _phi_phi_terms(m: int, n: int, c):
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


def phi_phi_generator(b: AffineB):
    """``sum_{n,m} a_{n,m} phi_m phi_n`` as mode terms.  For ``n != m >= 0``,
    ``m + n != 0`` and the two ``phi`` anticommute, so with ``a_{m,n} =
    -a_{n,m}`` the triangles add up to ``sum_{n>m} 2 a_{n,m} phi_m phi_n``."""
    return [t for (n, m), a in sorted(b.entries.items()) if n > m
            for t in _phi_phi_terms(m, n, 2 * a)]


def psi_generator_kp(kp: AffineKP):
    """``sum a_{p,q} psi_{-q-1/2} psi*_{-p-1/2}``, one mode term each."""
    return [((True, -2 * q - 1, False, 2 * p + 1), a)
            for (p, q), a in sorted(kp.entries.items())]


def psi_generator_embedded(b: AffineB):
    """The psi-bilinear form of the BKP generator plus its reflection.

    ``sum_{n,m} 2 (-1)^n a_{n,m} psi_{-m-1/2} psi*_{-n+1/2}``, one mode term
    each; exponentiating it from the vacuum gives the same state as the KP
    generator built from the converted coordinates.
    """
    return [((True, -2 * m - 1, False, 2 * n - 1), 2 * (-1) ** n * a)
            for (n, m), a in sorted(b.entries.items())]


# -- tau coefficients -------------------------------------------------------


def needed_cutoff2(max_weight: int) -> int:
    margin2 = 0
    c = 2
    while c * (c - 1) <= 2 * max_weight:
        margin2 = c
        c += 2
    return 2 * max_weight + margin2


def tau_table(vec: FockVector, hamiltonian: str, max_weight: int, odd_only: bool):
    """Coefficients of ``<0| exp(sum t_k H_k) |vec>`` by time monomial.

    Returns ``dict[ascending index tuple] -> Fraction`` for all monomials of
    weight ``<= max_weight`` (odd indices only when ``odd_only``).  The
    Hamiltonians commute, so each monomial is read off one descending
    application chain; charged states that can no longer reach the vacuum
    within the remaining weight are pruned.  The chain runs on integers:
    each ``(state, k)`` image is computed once, from the two-mode kernel in
    units of 1/4 (``H^B``) or 1 (``H``), and kept as
    ``(new state, need2, integer coefficient)``, where
    ``need2 = E2 - charge`` is twice the weight the new state still needs to
    reach the vacuum.
    """
    image_of = _h_b_image if hamiltonian == "b" else _h_kp_image
    unit = 4 if hamiltonian == "b" else 1
    start = {
        s: c
        for s, c in vec.coeffs.items()
        if energy2(s) - charge(s) <= 2 * max_weight
        and (hamiltonian == "b" or charge(s) == 0)
    }
    den = lcm(*(c.denominator for c in start.values()))
    interned: dict = {}
    moves: dict = {}

    def step(state, idx: int):
        """``H_idx |state>`` as ``((new, need2, int), ...)``, computed once."""
        image = moves.get((state, idx))
        if image is None:
            image = []
            for new, c in image_of(state, idx).items():
                new = interned.setdefault(new, new)
                image.append((new, energy2(new) - charge(new), c))
            image = moves[(state, idx)] = tuple(image)
        return image

    out: dict = {}

    def visit(v: dict, prefix: tuple, scale: int):
        value = v.get(VACUUM, 0)
        if value != 0:
            key = tuple(sorted(prefix))
            mult = 1
            for idx in set(prefix):
                mult *= factorial(prefix.count(idx))
            out[key] = Fraction(value, scale * mult)
        rem = max_weight - sum(prefix)
        top = min(prefix[-1] if prefix else max_weight, rem)
        for idx in range(top, 0, -1):
            if odd_only and idx % 2 == 0:
                continue
            budget = 2 * (rem - idx)
            nxt: dict = {}
            for state, c in v.items():
                for new, need2, k in step(state, idx):
                    if need2 <= budget:
                        nxt[new] = nxt.get(new, 0) + c * k
            nxt = {s: c for s, c in nxt.items() if c != 0}
            if nxt:
                visit(nxt, prefix + (idx,), scale * unit)

    visit({s: c.numerator * (den // c.denominator) for s, c in start.items()}, (), den)
    return out


def tau_coefficients_bkp(b: AffineB, max_weight: int, cutoff_bump: int = 0):
    """BKP tau in odd times, exact for monomial weights ``<= max_weight``."""
    cutoff2 = needed_cutoff2(max_weight) + 2 * cutoff_bump
    vec = exp_bilinear_vacuum(phi_phi_generator(b), cutoff2)
    return tau_table(vec, "b", max_weight, odd_only=True)


# -- log and connected functions --------------------------------------------


def poly_mul(p: dict, q: dict, max_weight: int,
             max_len: int | None = None) -> dict:
    """``p * q`` without the monomials of weight above ``max_weight`` or
    with more than ``max_len`` indices."""
    out: dict = {}
    for k1, v1 in p.items():
        w1 = sum(k1)
        for k2, v2 in q.items():
            if w1 + sum(k2) > max_weight:
                continue
            if max_len is not None and len(k1) + len(k2) > max_len:
                continue
            key = tuple(sorted(k1 + k2))
            prev = out.get(key)
            out[key] = v1 * v2 if prev is None else prev + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def poly_log(tau: dict, max_weight: int, max_len: int | None = None) -> dict:
    """``log tau`` as a polynomial in the times, weight-truncated.

    With ``max_len`` only the monomials of at most ``max_len`` indices are
    formed; they equal those of the full log (see the module docstring).
    """
    if tau.get((), ZERO) != 1:
        raise ValueError("tau must have constant term 1")
    top = max_weight if max_len is None else min(max_weight, max_len)
    u = {
        k: v for k, v in tau.items()
        if k and sum(k) <= max_weight and (max_len is None or len(k) <= max_len)
    }
    out: dict = {}
    power = {(): ONE}
    sign = 1
    for j in range(1, top + 1):
        power = poly_mul(power, u, max_weight, max_len)
        if not power:
            break
        for k, v in power.items():
            prev = out.get(k, ZERO)
            out[k] = prev + Fraction(sign, j) * v
        sign = -sign
    return {k: v for k, v in out.items() if v != 0}


def connected_table_from_log(
    logf: dict, n: int, max_weight: int, odd_only: bool = True
) -> dict:
    """Connected n-point values: mixed partials of ``log tau`` at ``t = 0``.

    ``d^n F / dt_{i_1} .. dt_{i_n} = coeff * prod_i multiplicity_i!`` for the
    sorted index tuples of length ``n`` with total weight ``<= max_weight``
    (odd indices by default; all indices with ``odd_only=False``).
    """
    out: dict = {}
    for key in odd_tuples(n, max_weight, step=2 if odd_only else 1):
        coeff = logf.get(key, ZERO)
        mult = ONE
        for idx in set(key):
            mult *= factorial(key.count(idx))
        out[key] = coeff * mult
    return out


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


def oracle_npoint_table(b: AffineB, n: int, max_weight: int, cutoff_bump: int = 0):
    """Connected n-point table straight from the Fock-space evaluation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tau = tau_coefficients_bkp(b, max_weight, cutoff_bump)
    logf = poly_log(tau, max_weight, n)
    return connected_table_from_log(logf, n, max_weight)


# -- identity checks ---------------------------------------------------------


def check_square_relation(b: AffineB, max_weight: int) -> bool:
    """KP tau of the embedded point equals the BKP tau squared (odd times)."""
    tau_b = tau_coefficients_bkp(b, max_weight)
    vec = exp_bilinear_vacuum(psi_generator_embedded(b), 2 * max_weight)
    tau_kp = tau_table(vec, "kp", max_weight, odd_only=True)
    return poly_mul(tau_b, tau_b, max_weight) == tau_kp


def check_state_equality(b: AffineB, cutoff: int) -> bool:
    """The two generator forms build the same state below the cutoff.

    ``exp`` of the psi-bilinear form of the BKP generator agrees with ``exp``
    of the KP generator made from the converted coordinates; this is the
    normal-ordering identity behind the coordinate conversion.
    """
    cutoff2 = 2 * cutoff
    v1 = exp_bilinear_vacuum(psi_generator_kp(bkp_to_kp(b)), cutoff2)
    v2 = exp_bilinear_vacuum(psi_generator_embedded(b), cutoff2)
    return v1.coeffs == v2.coeffs
