r"""Free-fermion Fock spaces over exact rationals.

The BKP tau-function is built on neutral fermions, the KP tau-function on
charged fermions.  Both vectors come from one integer ``exp`` loop, and
both are read by one ``tau_table`` walk.

**Neutral fermions (BKP).**  The ``phi_n`` (``n`` in Z) obey
``{phi_m, phi_n} = (-1)^m delta_{m+n,0}`` and ``phi_n|0> = 0`` for ``n < 0``,
so ``phi_0^2 = 1/2`` and ``phi_n^2 = 0`` for ``n != 0``.  A basis state
``phi_S|0> = phi_{s_1} ... phi_{s_r}|0>`` is stored as the strictly
decreasing tuple ``S`` of indices ``>= 0`` (``phi_0`` last); the vacuum is
``()``.  Every neutral action goes through one kernel, ``_phi``:
``phi_x phi_S|0>`` moves ``phi_x`` to the right past the ``j`` entries
above ``|x|`` (sign ``(-1)^j``) and then

* inserts ``x >= 0`` when ``x`` is not in ``S``;
* leaves ``phi_0 phi_0 = 1/2`` when ``x = 0`` is in ``S``;
* for ``x < 0``, contracts with ``phi_{-x}`` (factor ``(-1)^x``) when ``-x``
  is in ``S``, since the rest of ``phi_x``'s way ends on the vacuum;
* and vanishes otherwise.

Its coefficients are integers in units of 1/2.  For odd ``k``,
``[H^B_k, phi_m] = phi_{m-k}`` and ``H^B_k|0> = 0``, so ``H^B_k phi_S|0>`` is
the sum over ``i`` of ``phi_{s_1} .. phi_{s_i - k} .. phi_{s_r}|0>``: one
``_phi`` on the entries after ``s_i``, behind the entries before it, which
all lie above anything the tail can hold.  So ``H^B_k`` replaces one ``s``
by ``s - k``: that ``phi`` is inserted, or it contracts with ``phi_{k-s}``,
or the term vanishes.  The generator
``sum_{n,m} a_{n,m} phi_m phi_n = sum_{n>m>=0} 2 a_{n,m} phi_m phi_n``
acts by two ``_phi``.

The energy of ``phi_S|0>`` is ``sum(S)``.  ``H^B_k`` lowers it by exactly
``k`` (an entry ``s`` becomes ``s - k``, or ``s`` and ``k - s`` both go),
so a state reaches the vacuum only by chains of weight exactly ``sum(S)``.
The tau coefficients of weight ``<= W`` therefore read only the states of
energy ``<= W``, and the vector is cut there with no margin.  Each
generator term raises the energy by at least 1 (``neutral_generator``),
so ``exp`` ends by itself after at most ``W`` nonzero terms.

**Charged fermions (KP).**  Basis states are semi-infinite wedges over
half-integer modes ``z^{r}``.  The vacuum occupies every positive mode
``z^{1/2} wedge z^{3/2} wedge ...``; an excited state is encoded by the
finite deviation from it:

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
* ``H_k = sum_r psi_{-r} psi*_{r+k}`` (charge preserving, lowers E by k).

Every charged action goes through one kernel, ``two_mode``: a product of
two primitive actions on a basis state, with both occupancies checked
before any tuple is built.  The generators are lists of mode terms
``((a_ins, a, b_ins, b), coeff)``, one ``two_mode`` call each: ``c psi_r
psi*_s`` is the one term ``((True, r2, False, -s2), c)``.
``exp_bilinear_vacuum`` builds ``exp(sum of mode terms)|0>`` truncated to
``E2 <= cutoff2``.  It admits a term only when its ``E2`` rise is at
least 2 per insert it makes; every ``psi_r psi*_s`` with
``-(r2 + s2) >= 2`` passes.  No admitted term lowers the energy, so the
truncated vector is exact on the kept subspace, and the same rule bounds
the iterations (``exp_bilinear_vacuum``).

**The exp loop** runs on integers: with ``L`` the lcm of the denominators
of the generator's coefficients, counted in the kernel's unit, ``A = L *
generator`` is integral, the integer vectors ``u_j = A u_{j-1}`` are
``L^j j!`` times the ``j``-th term of the exponential, and the sum is
kept as numerators over the running denominator ``L^j j!``.  Truncation
commutes with the scaling, so one ``Fraction`` per state at the end gives
the same vector as the term-by-term ``Fraction`` sum.

``tau_table`` walks the monomials depth first on integers.  The start
vector is scaled by the common denominator ``den`` of its coefficients,
and ``H^B_k |state>`` (``H_k |state>``) is computed once per
``(state, k)`` by the kernel as integer coefficients in units of 1/2
(of 1).  After ``d`` applications the integers carry the factor
``den * unit^d``, so a vacuum coefficient ``v`` reached by an index
multiset with multiplicities ``m_j`` is the monomial coefficient
``v / (den * unit^d * prod m_j!)``.  The indices of a chain never
increase, so the reversed chain is the monomial's ascending key.

The walk prunes by one rule.  A state's ``need``, the weight of ``H`` it
takes to the vacuum, falls by exactly ``k`` under every ``H_k`` (by the
energy rule above; on charged states ``H_k`` keeps the charge), and no
state has a need below 0 (a charged state has ``E2 >= charge^2``).  So the
walk calls ``need`` on the start states only, gives every state of an
image its source's need less the index, and keeps no other table of
states.  It skips a ``(state, idx)`` pair, before forming its image,
unless the new need lies in ``[0, budget]``: ``budget`` is the weight left
after ``idx`` and, with ``max_len``, at most ``r * idx``, as the ``r =
max_len - len(prefix) - 1`` indices still to come are each ``<= idx`` (the
walk stops at ``max_len`` indices).  A skipped image is empty or reaches
no kept monomial, so each kept monomial has its full value.  `poly_log`
with ``max_len = n`` reads no longer monomial (below), so an n-point table
is exact.

``poly_log(tau, W, max_len=n)`` forms only the monomials of ``log tau`` with
at most ``n`` indices, which is all an n-point table reads.  The cut is
exact: ``log tau = sum_j (-1)^(j+1) u^j / j`` with ``u = tau - 1``, the
number of indices adds under multiplication, and ``u`` has no term without
indices.  So a monomial of at most ``n`` indices in ``u^j`` needs ``j <= n``
and is a product of ``u``-terms of at most ``n`` indices each, and the
powers can drop every longer monomial as they are formed.  Like ``exp``,
the log runs on integers: the powers ``den^j u^j`` (``den`` the common
denominator of ``u``) are integral and summed over one denominator, with
one ``Fraction`` per monomial at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial, inf, isqrt, lcm

from .affine import AffineB, AffineKP, Frozen, bkp_to_kp, odd_tuples

ZERO = Fraction(0)
ONE = Fraction(1)

VACUUM = ((), ())


# -- neutral fermions ---------------------------------------------------------


def _phi(state: tuple, x: int):
    """``phi_x phi_S|0>`` as ``(new state, coefficient * 2)``, or ``None``
    when it vanishes (see the module docstring)."""
    a = -x if x < 0 else x
    j = 0
    while j < len(state) and state[j] > a:
        j += 1
    sign = -1 if j & 1 else 1
    if j == len(state) or state[j] != a:
        return None if x < 0 else (state[:j] + (x,) + state[j:], 2 * sign)
    if x > 0:
        return None
    # phi_x meets phi_{-x}: {phi_x, phi_{-x}} = (-1)^x, phi_0 phi_0 = 1/2
    if x & 1:
        sign = -sign
    return state[:j] + state[j + 1:], 2 * sign if x else sign


def _phi_pair(state: tuple, m: int, n: int):
    """``phi_m phi_n phi_S|0>`` for ``n > m >= 0``, as ``_phi`` gives it;
    ``phi_n`` with ``n >= 1`` only inserts, with coefficient ``+-1``."""
    res = _phi(state, n)
    if res is None:
        return None
    res2 = _phi(res[0], m)
    if res2 is None or res[1] > 0:
        return res2
    return res2[0], -res2[1]


def _h_phi_image(state: tuple, k: int) -> dict:
    """``H^B_k phi_S|0>`` for odd ``k >= 1`` as ``new state -> coefficient *
    2``.  Distinct entries give distinct states: an entry is replaced, or it
    goes with its smaller partner ``k - s``."""
    out: dict = {}
    for i, s in enumerate(state):
        res = _phi(state[i + 1:], s - k)
        if res is not None:
            out[state[:i] + res[0]] = res[1]
    return out


# -- charged fermions ---------------------------------------------------------


def energy2(state) -> int:
    bubbles, holes = state
    return sum(holes) - sum(bubbles)


def charge(state) -> int:
    bubbles, holes = state
    return len(bubbles) - len(holes)


def _charged_need(state) -> int:
    """The weight of ``H`` a charged state needs to reach the vacuum."""
    return (energy2(state) - charge(state)) // 2


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


# -- the exp loop -------------------------------------------------------------


class TruncationOverflow(RuntimeError):
    """exp() iteration failed to terminate within the energy budget."""


class FockVector(Frozen):
    """An energy-truncated Fock vector ``{state: coefficient}``."""

    __slots__ = ("coeffs",)


def _apply_terms(terms, vec: dict, cutoff: int, kernel, energy) -> dict:
    """``sum k * kernel(state, *args)`` over ``(args, k, rise)`` terms, cut at
    ``energy <= cutoff``.

    Works on ``Fraction`` or ``int`` coefficients alike; returns the dict
    without zeros.  A term's rise is known in advance, so a term that would
    take a state above the cutoff is skipped without being applied.
    """
    out: dict = {}
    for state, c in vec.items():
        room = cutoff - energy(state)
        for args, k, rise in terms:
            if rise > room:
                continue
            res = kernel(state, *args)
            if res is None:
                continue
            new, v = res
            val = c * (k * v)
            prev = out.get(new)
            out[new] = val if prev is None else prev + val
    return {s: c for s, c in out.items() if c != 0}


def _integer_exp(terms, unit: int, kernel, energy, vacuum, cutoff: int,
                 steps: int) -> dict:
    """``exp(sum terms)|vacuum>`` cut at ``energy <= cutoff``, as
    ``state -> Fraction``.

    ``terms`` are ``(args, coeff, rise)``: ``coeff * kernel(state, *args)``,
    where the kernel gives ``(new state, integer in units of 1/unit)`` or
    ``None`` and raises the energy by ``rise``.  The loop runs on the
    integer vectors ``u_j = A u_{j-1}`` (see the module docstring) and
    raises ``TruncationOverflow`` when ``u_steps`` is not yet empty.
    """
    scale = lcm(*(Fraction(k, unit).denominator for _, k, _ in terms))
    terms = [(args, (Fraction(k, unit) * scale).numerator, rise)
             for args, k, rise in terms]
    total = {vacuum: 1}  # numerators over den = L^j j!
    den = 1
    term = {vacuum: 1}
    for j in range(1, steps + 1):
        term = _apply_terms(terms, term, cutoff, kernel, energy)
        if not term:
            return {s: Fraction(c, den) for s, c in total.items() if c != 0}
        step = scale * j
        den *= step
        total = {s: c * step for s, c in total.items()}
        for s, c in term.items():
            total[s] = total.get(s, 0) + c
    raise TruncationOverflow("exp() did not terminate; generator not raising?")


def exp_bilinear_vacuum(terms, cutoff2: int) -> FockVector:
    """``exp(sum terms)|0>`` on charged states, truncated to ``E2 <= cutoff2``.

    ``terms`` are mode terms ``((a_ins, a, b_ins, b), coeff)``; each must
    raise ``E2`` by at least 2 per insert, ``rise >= 2 * (a_ins + b_ins)``.

    **Iteration bound.**  A nonzero ``u_j`` needs ``j <= (C + isqrt(C)) / 2``
    with ``C = cutoff2``, so the loop stops at most one step later, on an
    empty term.  Each of the ``j`` factors applies one mode term, which
    moves ``E2`` by its rise and the charge by ``+1`` per insert and ``-1``
    per remove.  With ``I`` inserts among the ``2j`` actions the final state
    has charge ``c = 2I - 2j`` and ``E2 >= 2I = 2j + c``, so
    ``j <= (E2 - c)/2 <= E2/2 + |c|/2``.  A state of charge ``c`` has
    ``E2 >= c^2``, so ``|c| <= isqrt(E2)``, and ``E2 <= C``.
    """
    raised = []
    for modes, k in terms:
        rise = _rise(modes)
        if rise < 2 * (modes[0] + modes[2]):
            raise ValueError(
                f"mode term {modes} does not raise E2 by 2 per insert")
        raised.append((modes, k, rise))
    return FockVector(_integer_exp(raised, 1, two_mode, energy2, VACUUM,
                                   cutoff2, exp_iteration_limit(cutoff2)))


def exp_iteration_limit(cutoff2: int) -> int:
    """Steps ``exp_bilinear_vacuum`` may take: the proven bound plus the
    empty last term."""
    c = max(0, cutoff2)
    return (c + isqrt(c)) // 2 + 1


def exp_neutral_vacuum(b: AffineB, max_weight: int) -> dict:
    """``exp(sum a_{n,m} phi_m phi_n)|0>`` on the neutral states of energy
    ``<= max_weight``, as ``state -> Fraction``; ``u_j`` is empty for
    ``j > max_weight``, as every term raises the energy."""
    return _integer_exp(neutral_generator(b, max_weight), 2, _phi_pair, sum,
                        (), max_weight, max_weight + 1)


# -- generators from affine coordinates ------------------------------------


def neutral_generator(b: AffineB, max_weight: int):
    """``sum_{n,m} a_{n,m} phi_m phi_n`` as terms ``((m, n), 2 a_{n,m},
    n + m)`` for ``_phi_pair``, without the coordinates of ``n + m >
    max_weight``.

    For ``n != m >= 0``, ``m + n != 0`` and the two ``phi`` anticommute, so
    with ``a_{m,n} = -a_{n,m}`` the triangles add up to ``sum_{n>m} 2 a_{n,m}
    phi_m phi_n``.  The ``(n, m)`` term raises the energy by exactly
    ``n + m`` and no term lowers it, so with ``n + m > max_weight`` it makes
    only states that no chain of ``H^B`` of weight ``<= max_weight`` brings
    back to the vacuum: dropping it leaves every tau coefficient of weight
    ``<= max_weight`` as it is.
    """
    return [((m, n), 2 * a, n + m) for (n, m), a in sorted(b.entries.items())
            if n > m and n + m <= max_weight]


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


def tau_table(start: dict, vacuum, image_of, unit: int, need,
              max_weight: int, odd_only: bool, max_len: int | None = None):
    """Coefficients of ``<0| exp(sum t_k H_k) |start>`` by time monomial.

    ``start`` maps states to ``Fraction``; ``image_of(state, k)`` gives
    ``H_k |state>`` as ``new state -> integer`` in units of ``1/unit``, and
    ``need(state)`` is the weight of ``H`` the state needs to reach
    ``vacuum`` (``sum(S)`` on neutral states, ``(E2 - charge)/2`` on charged
    ones).  Returns ``dict[ascending index tuple] -> Fraction`` for all
    monomials of weight ``<= max_weight`` (odd indices only when
    ``odd_only``).  The Hamiltonians commute, so each monomial is read off
    one descending application chain.  ``need`` is called on the start
    states only, and a ``(state, k)`` pair is skipped unless its image can
    reach a kept monomial (see the module docstring).  The chain runs on
    integers, and each ``(state, k)`` image is computed once.
    """
    needs = {s: need(s) for s in start}
    start = {s: c for s, c in start.items() if needs[s] <= max_weight}
    den = lcm(*(c.denominator for c in start.values()))
    moves: dict = {}

    def step(state, idx: int):
        """``H_idx |state>`` as ``((new, int), ...)``, computed once."""
        image = moves.get((state, idx))
        if image is None:
            image = moves[(state, idx)] = tuple(image_of(state, idx).items())
            left = needs[state] - idx
            for new, _ in image:
                needs[new] = left
        return image

    out: dict = {}

    def visit(v: dict, prefix: tuple, scale: int):
        value = v.get(vacuum, 0)
        if value != 0:
            mult = 1
            for idx in set(prefix):
                mult *= factorial(prefix.count(idx))
            out[prefix[::-1]] = Fraction(value, scale * mult)
        if len(prefix) == max_len:
            return
        rem = max_weight - sum(prefix)
        top = min(prefix[-1] if prefix else max_weight, rem)
        for idx in range(top, 0, -1):
            if odd_only and idx % 2 == 0:
                continue
            budget = rem - idx
            if max_len is not None:
                # the indices still to come after idx are each <= idx
                budget = min(budget, (max_len - len(prefix) - 1) * idx)
            nxt: dict = {}
            for state, c in v.items():
                if 0 <= needs[state] - idx <= budget:
                    for new, k in step(state, idx):
                        nxt[new] = nxt.get(new, 0) + c * k
            nxt = {s: c for s, c in nxt.items() if c != 0}
            if nxt:
                visit(nxt, prefix + (idx,), scale * unit)

    visit({s: c.numerator * (den // c.denominator) for s, c in start.items()}, (), den)
    return out


def tau_coefficients_bkp(b: AffineB, max_weight: int,
                         max_len: int | None = None):
    """BKP tau in odd times, exact for monomial weights ``<= max_weight``,
    on neutral states; with ``max_len``, only the monomials of at most
    ``max_len`` indices."""
    vec = exp_neutral_vacuum(b, max_weight)
    return tau_table(vec, (), _h_phi_image, 2, sum, max_weight, odd_only=True,
                     max_len=max_len)


# -- log and connected functions --------------------------------------------


def poly_mul(p: dict, q: dict, max_weight: int,
             max_len: int | None = None) -> dict:
    """``p * q`` without the monomials of weight above ``max_weight`` or
    with more than ``max_len`` indices."""
    len_cap = inf if max_len is None else max_len
    q = [(k, sum(k), len(k), v) for k, v in q.items()]
    out: dict = {}
    for k1, v1 in p.items():
        room = max_weight - sum(k1)
        len_room = len_cap - len(k1)
        for k2, w2, n2, v2 in q:
            if w2 > room or n2 > len_room:
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
    den = lcm(*(v.denominator for v in u.values()))
    u = {k: v.numerator * (den // v.denominator) for k, v in u.items()}
    total = lcm(*range(1, top + 1)) * den ** top
    out: dict = {}  # numerators over total
    power = {(): 1}  # den^j u^j
    for j in range(1, top + 1):
        power = poly_mul(power, u, max_weight, max_len)
        if not power:
            break
        f = (-1) ** (j + 1) * (total // (j * den ** j))
        for k, v in power.items():
            out[k] = out.get(k, 0) + f * v
    return {k: Fraction(v, total) for k, v in out.items() if v != 0}


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


def oracle_npoint_table(b: AffineB, n: int, max_weight: int):
    """Connected n-point table straight from the Fock-space evaluation.

    The walk and the log form only the monomials of at most ``n`` indices,
    the only ones the table reads (see the module docstring)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tau = tau_coefficients_bkp(b, max_weight, n)
    logf = poly_log(tau, max_weight, n)
    return connected_table_from_log(logf, n, max_weight)


# -- identity checks ---------------------------------------------------------


def check_square_relation(b: AffineB, max_weight: int) -> bool:
    """KP tau of the embedded point, on charged fermions, equals the BKP
    tau squared, on neutral fermions (odd times)."""
    tau_b = tau_coefficients_bkp(b, max_weight)
    vec = exp_bilinear_vacuum(psi_generator_embedded(b), 2 * max_weight)
    tau_kp = tau_table(vec.coeffs, VACUUM, _h_kp_image, 1, _charged_need,
                       max_weight, odd_only=True)
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
