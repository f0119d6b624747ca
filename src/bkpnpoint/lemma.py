"""Sign-sum identity relating the f-product and g-product cycle sums.

For an antisymmetric series s(x, y) = -s(y, x) and a series t(x) in
negative powers, define

    f(y, x) = 2 s(y, x) + 2 t(y) - 2 t(x) + (y - x)/(y + x)
    g(y, x) = s(y, x) + 2 t(y) (1 - t(x)) - x/(y + x)

where each rational piece is the directional expansion keyed on the pair
of lemma indices carried by the arguments (equal indices make the piece
vanish; otherwise the variable with the smaller index dominates).  Over
the 2k variables x_1, y_1, ..., x_k, y_k the identity states

    sum_{eps in {+-1}^k} sum_{sigma(1)=1} prod_i eps_{sigma(i)} *
        f(sel(sigma(i)), sel'(sigma(i+1)))
    = 2^k * (the same sum with g in place of f)

with sigma(k+1) wrapping to sigma(1).  Here sel(j) is y_j when eps_j = +1
and x_j when eps_j = -1, while sel'(j) picks the opposite flavor, so each
of the 2k variables occurs in exactly one factor of every product.  That
disjointness is what makes truncation easy: restricting every factor to
the box |exponent| <= window already gives the exact product coefficients
on that box, with no coupling between factors.

Factors.  Every factor is bivariate, and it sees the lemma indices of its
arguments only through the kernel direction d: +1 when a carries the
smaller index, -1 when b does, and 0 when they are equal (only the k = 1
wrap-around step).  So `_factor` builds f(a, b) or g(a, b) once per side and
direction, as a table {(p, q): coefficient} of the monomials a^p b^q on the
box |p|, |q| <= W (W the window), straight from s, t and the kernels'
closed forms, and `_walks` places that table at the two variables of every
step it serves:

* s: an entry c at (m, n) gives f the terms 2c at (-m, -n) and -2c at
  (-n, -m), and g the terms c and -c there;
* t: an entry t_m gives f the terms 2 t_m at (-m, 0) and -2 t_m at
  (0, -m), and g the term 2 t_m at (-m, 0) and -2 t_m t_n at (-m, -n) for
  every entry t_n;
* kernels, only when d != 0 (sums over p = 1..W unless marked):

      f, d = +1:   1 + sum 2 (-1)^p a^-p b^p
      f, d = -1:  -1 - sum 2 (-1)^p a^p b^-p
      g, d = +1:       sum (-1)^p a^-p b^p
      g, d = -1:      -sum_{p=0..W} (-1)^p a^p b^-p

The kernel terms lie on the anti-diagonal p + q = 0 and run to |p| = W;
cutting the infinite expansions there is the truncation itself.  The s
and t terms have p, q <= 0 and leave the box exactly when an index of the
spec exceeds W; `_factor` drops them there.

Contraction.  The check contracts the difference LHS - 2^k RHS in one
exact engine, `_contract`.

* Box keys.  With W the window and B = 2W + 1, the monomial with exponents
  e_0, ..., e_{2k-1} (all in [-W, W]) has the integer key
  sum_p (e_p + W) B^(2k-1-p): its digits in base B are the shifted exponents,
  position 0 most significant.  Each digit lies in [0, 2W], below B, so the
  key determines the tuple, and comparing two keys compares their digits
  from the most significant down: the numeric order of keys is the
  lexicographic order of the tuples.  A factor term keys its two positions
  only.  The factors of one chain occupy pairwise disjoint positions that
  together cover all 2k, so the key of a product is the sum of its factors'
  keys and each digit of that sum is one factor's shifted exponent (no
  carry).  Coefficients are integers over the lcm of every factor
  denominator, so a k-factor product is an integer over its k-th power.
* Flavor swap.  Let S_j exchange x_j and y_j.  Flipping eps_j puts the
  other flavor at sel(j) and sel'(j) in the two factors of every chain that
  meet index j, and flips the sign; a factor's table depends only on its
  direction, never on eps.  So the terms of a sign vector and of that
  vector with eps_j flipped are each other's images under -S_j, and each
  side, and the difference D = LHS - 2^k RHS, is odd under every S_j,
  S_1 included:

      D = sum_{eps_1} (1 - S_2) ... (1 - S_k) D_+,

  where D_+ keeps eps_j = +1 for j >= 2.  Like the telescoping below, this
  holds for whatever tables `_factor` returns.  D vanishes where x_j = y_j
  and is fixed elsewhere by its canonical keys, those with x_j < y_j for
  every j, so the engine contracts D on those alone: the fold below keeps
  x_j < y_j for j >= 2, and the slices keep x_1 < y_1 (see Slices), since
  eps_1 keeps both its signs.  In D_+ the step
  entering j places one digit a of j's pair and the step leaving j the
  other, u; `_walks` folds the leaving step's items once for each a that
  a state reaches it with, when that state first reads them: an item
  with u = a is dropped (S_j fixes it, so 1 - S_j cancels it), one
  that leaves x_j < y_j is kept, and any other has both digits moved to
  the swapped slots and is negated.  Such an item's key holds negative
  digit offsets (it moves the a that the partial key holds), so a digit is
  never read from a folded key; the partial keys are box keys after every
  step.  Within an orbit of the swaps the canonical key is the smallest,
  since x_j is the more significant digit of its pair, so the smallest
  nonzero canonical key of D is the smallest nonzero key of D.
* Subset DP.  The sum over sigma and eps is a sum over closed chains
  1 -> j_2 -> ... -> j_k -> 1 that visit every index once, each index j with
  its sign eps_j.  The step entering j carries eps_j, and every index is
  entered exactly once (index 1 by the closing step), so the sign
  prod eps_j is folded into the factors.  With eps_j = +1 for j >= 2, the
  factors still to come depend only on the visited set, the last index j,
  eps_1 and, through the fold, the digit a that the step entering j put in
  j's slot.  So for each eps_1 the cycle-sum engine that `npoint` shares,
  `chain.contract`, keeps one dict from partial key to integer per state
  (visited set, j, stage, a; the stage is below, and a is the state's
  label), and extends the sum of all chains reaching a state once, by the
  next factor; closing multiplies by the factor back to index 1.  By
  distributivity this equals the folded sum of the chain products, term
  for term.  The lemma sets no key limits.
* Telescoping.  Put h = f - 2g.  For the k factors of one chain,

      prod_i f_i - prod_i 2 g_i
          = sum_i (prod_{j<i} f_j) h_i (prod_{j>i} 2 g_j),

  and summing this over the chains gives LHS - 2^k RHS.  The stage is the
  bit "switched yet": a step takes f from stage 0 to 0, h from 0 to 1, or
  2g from 1 to 1, and only chains that end at stage 1 are kept, which are
  exactly the k terms of the sum above.  h is the difference of the two
  truncated tables of `_factor`, so the pass equals LHS - 2^k RHS by this
  algebra alone, whatever the tables hold.  It is cheap because h is
  sparse: the s terms cancel in f - 2g, and so do the kernel terms of
  both directions, which leaves h(a, b) = (1 - 2t(a))(1 - 2t(b)) on the
  box at d = +-1 and that minus 1 at d = 0, (1 + #t)^2 terms at most.
  The stage-0 sums are the partial f-products of the LHS alone, but they
  close with the few terms of h instead of f's, and each stage-1 sum holds
  an h factor, so it spans fewer keys than the partial g-product of the
  RHS alone.  One side alone is the same engine with one move (f or 2g,
  stage 0 to 0).
* Two walks.  Index 1 keeps both signs: S_1 is applied by the slices'
  filter (see Slices), not folded into the items.  x_1 sits in the first
  step's first slot when eps_1 = -1 and in the closing step's second slot
  when eps_1 = +1.  So the eps_1 = +1 chains are walked backwards,
  1 -> j_k -> ... -> j_2 -> 1, each step taking the transposed factor of
  the forward step it reverses.  Reversal maps the chains one to one onto
  themselves, and a reversed chain takes the same keyed integer items as
  the chain itself; a product does not depend on the order its factors are
  taken in, and neither does the telescoped sum, which is
  prod f - prod 2g for any order of the k factors.  In both walks the
  first factor fills x_1 and the closing one y_1, and index 1 is left by
  the first factor only; an index j >= 2 is entered by x_j in the forward
  walk and by y_j in the backward one.  `_walks` groups the closing
  factor's items by the y_1 digit they place.
* Slices.  Position 0 (x_1) is the most significant digit of a key, and a
  chain's x_1 digit is its first factor's, the one that leaves index 1.
  Keeping only that factor's terms of one digit (its lead) splits the
  chains into disjoint sets, one per lead, which `_contract` contracts with
  the same DP.  A chain's y_1 digit is its closing factor's, so a slice
  also keeps only the closing groups whose y_1 digit exceeds its lead: it
  holds exactly the keys with x_1 the lead and y_1 > x_1, the canonical
  half of its keys under S_1, and together the slices are the unsliced
  pass on the keys with y_1 > x_1.  Only f and h leave index 1, at stage 0
  (2g follows an h step), so the leads come from their first factors; at
  k = 1 that factor also closes the chain, which must end at stage 1, so
  only h's count.  A lead that no closing y_1 digit exceeds would give an
  empty slice and is left out; the tables of `_factor` put y_1 at
  exponents <= 0 on closing, so that is the x_1 exponent 0.  The smallest
  nonzero key of D has x_1 < y_1, since S_1 maps any other nonzero key to
  a smaller one, so when the slices are visited in increasing lead, the
  first slice with a nonzero value holds the smallest nonzero key of the
  whole difference: key order is tuple order.

`first_lemma_difference` builds the tables of f, h and 2g once per kernel
direction and the folded walks of those its moves read (f and h at k = 1,
where h ends every kept chain), each step of a walk when a state first
reads it (a state reaches only some of the digits a).  It contracts
LHS - 2^k RHS one slice at a time in the telescoped pass and stops at the
first slice that is not all zero; so it never holds the whole difference.
It decodes that slice's smallest nonzero key and contracts the slice once
more with f alone, to read LHS there; LHS is odd under the swaps too, so
the folded pass gives it at a canonical key, and the y_1 filter only drops
keys.  2^k RHS is LHS minus the difference, exactly, since the pass equals
LHS - 2^k RHS by the telescoping algebra alone.

Cost limit.  Before any factor is built, one factor's terms are bounded from
the spec: the kernel pieces lie on the anti-diagonal e_a + e_b = 0 (at most
W + 1 terms), the s and t(a) t(b) pieces in the block [-m, -1]^2 with
m = min(max index, W), and the lone t pieces on the two axes.  The check is
refused with ``ValueError`` when (k-1)! 2^k F^k, the number of chain
products of the plain enumeration with F terms per factor, exceeds
`MAX_LEMMA_PRODUCTS`; that estimate alone bounds k.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from . import chain
from .affine import AffineB, Frozen

ZERO = Fraction(0)


class SeriesPairSpec(Frozen):
    """Finite-support pair (s, t) with s stored on the m < n triangle.

    ``s_entries[(m, n)]`` (1 <= m < n) is the coefficient of
    x^{-m} y^{-n} - x^{-n} y^{-m} in s(x, y); ``t_entries[m]`` (m >= 1)
    is the coefficient of x^{-m} in t(x).
    """

    __slots__ = ("s_entries", "t_entries")

    @property
    def max_index(self) -> int:
        idx = [k for pair in self.s_entries for k in pair]
        idx.extend(self.t_entries)
        return max(idx, default=0)


def validate_pair_spec(s_entries, t_entries) -> SeriesPairSpec:
    """Build a SeriesPairSpec, folding s onto the m < n triangle.

    Either triangle may be given; (n, m) entries fold in with a sign flip.
    Nonzero diagonal entries, indices < 1 and conflicting duplicates are
    rejected.
    """
    folded: dict[tuple[int, int], Fraction] = {}
    for key, raw in dict(s_entries or {}).items():
        m, n = key
        if isinstance(m, bool) or isinstance(n, bool):
            raise ValueError(f"bad s index {key!r}")
        if not (isinstance(m, int) and isinstance(n, int)) or m < 1 or n < 1:
            raise ValueError(f"bad s index {key!r}")
        value = Fraction(raw)
        if m == n:
            if value != 0:
                raise ValueError(f"nonzero diagonal s entry at {key!r}")
            continue
        slot, signed = ((m, n), value) if m < n else ((n, m), -value)
        if slot in folded and folded[slot] != signed:
            raise ValueError(f"conflicting s entries for pair {slot!r}")
        folded[slot] = signed
    t_clean: dict[int, Fraction] = {}
    for m, raw in dict(t_entries or {}).items():
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"bad t index {m!r}")
        value = Fraction(raw)
        if value != 0:
            t_clean[m] = value
    folded = {k: v for k, v in sorted(folded.items()) if v != 0}
    return SeriesPairSpec(folded, dict(sorted(t_clean.items())))


def _factor(which: str, spec: SeriesPairSpec, d: int,
            window: int) -> dict[tuple[int, int], Fraction]:
    """f(a, b) for "LHS", g(a, b) for "RHS", as ``{(p, q): coefficient}``
    with p the exponent of ``a`` and q that of ``b``, on the box
    |p|, |q| <= window, for the kernel direction ``d`` (see the module
    docstring)."""
    is_f = which == "LHS"
    terms: dict[tuple[int, int], Fraction] = {}

    def put(p, q, c):
        if p >= -window and q >= -window:
            terms[p, q] = terms.get((p, q), ZERO) + c

    for (m, n), c in spec.s_entries.items():
        put(-m, -n, 2 * c if is_f else c)
        put(-n, -m, -2 * c if is_f else -c)
    for m, c in spec.t_entries.items():
        put(-m, 0, 2 * c)
        if is_f:
            put(0, -m, -2 * c)
        else:
            for n, c_n in spec.t_entries.items():
                put(-m, -n, -2 * c * c_n)
    if d:
        # the kernel terms sit at (-d p, d p)
        if is_f:
            terms[0, 0] = Fraction(d)
        for p in range(0 if d < 0 and not is_f else 1, window + 1):
            terms[-d * p, d * p] = Fraction((2 if is_f else 1) * d * (-1) ** p)
    return {pq: c for pq, c in terms.items() if c}


# Largest estimate of chain products a lemma check takes on (see the module
# docstring).  The largest among random_series_pair_spec seeds 0-39 at
# k = 4, window 6 is 1.25e7 (F = 19).
MAX_LEMMA_PRODUCTS = 2 * 10**7


def _factor_terms(spec: SeriesPairSpec, window: int) -> int:
    """Upper bound on the terms of one f or g factor (module docstring)."""
    m = min(spec.max_index, window)
    s, t = len(spec.s_entries), len(spec.t_entries)
    f_terms = window + 1 + min(m * m, 2 * s) + 2 * t
    g_terms = window + 1 + min(m * m, 2 * s + t * t) + t
    return max(f_terms, g_terms)


def _validate(k: int, spec: SeriesPairSpec, window: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if window < 0:
        raise ValueError("window must be nonnegative")
    terms = _factor_terms(spec, window)
    # (k-1)! 2^k F^k, one factor at a time, so that a huge k stops early
    products = 1
    for j in range(k):
        products *= max(j, 1) * 2 * terms
        if products > MAX_LEMMA_PRODUCTS:
            about = "about" if j == k - 1 else "more than"
            raise ValueError(
                f"lemma check at k = {k}, window {window} would form {about} "
                f"{products} chain products ({terms} terms per factor), above "
                f"the limit of {MAX_LEMMA_PRODUCTS}"
            )


def _denominator(table) -> int:
    return lcm(1, *(c.denominator for fac in table.values()
                    for c in fac.values()))


def _tables(k: int, spec: SeriesPairSpec, window: int):
    """``(common, [f, h, 2g])``: the tables ``{direction: table}`` (see
    `_factor`) of f, of h = f - 2g and of 2g, and ``common``, the lcm of
    their denominators."""
    # one table per kernel direction: every step of k = 1 joins index 1 to
    # itself, and at k >= 2 no step does
    directions = (0,) if k == 1 else (1, -1)
    f = {d: _factor("LHS", spec, d, window) for d in directions}
    g2 = {d: {pq: 2 * c for pq, c in _factor("RHS", spec, d, window).items()}
          for d in directions}
    # h from the tables themselves, so that the telescoped pass is
    # LHS - 2^k RHS whatever `_factor` returns
    h = {d: {pq: v for pq in {**f[d], **g2[d]}
             if (v := f[d].get(pq, ZERO) - g2[d].get(pq, ZERO))}
         for d in directions}
    tables = [f, h, g2]
    return lcm(*map(_denominator, tables)), tables


class _Steps(dict):
    """The folded steps of one walk, ``{(j, a, j2): {b: items}}`` (see
    `_walks`), each built when a state first reads it.  ``terms[j, j2]``
    are the step's terms before the fold: ``(u, b, the key with u in j's
    leaving slot, the key with u in j's entering slot instead, the
    integer)``, and ``swaps[j]`` is ``(by_y, moved)``: whether j leaves by
    y_j, which makes (a, u) canonical when a < u, and the weight of j's
    leaving slot less that of its entering one."""

    def __init__(self, terms: dict, swaps: list):
        super().__init__()
        self.terms, self.swaps = terms, swaps

    def __missing__(self, step):
        j, a, j2 = step
        by_y, moved = self.swaps[j]
        # a is in the partial key already; the swap moves it to j's leaving
        # slot
        shift = a * moved if j else 0
        groups: dict[int, list] = {}
        for u, b, kept, swapped, c in self.terms[j, j2]:
            if u == a:
                continue  # the pair (a, a) is odd under its swap
            if j == 0 or (a < u) == by_y:
                groups.setdefault(b, []).append((kept, c))
            else:
                groups.setdefault(b, []).append((swapped + shift, -c))
        self[step] = groups
        return groups


def _walks(tables, k: int, window: int, common: int):
    """The factors of one table set ``{direction: table}`` (see `_factor`)
    as lists of (box key, integer) items over ``common``, folded by the
    flavor swaps and arranged as the two walks of `_contract`:
    ``{eps_1: {(j, a, j2): {b: items}}}``, each walk a `_Steps`.  From
    index j, whose entering step put the digit ``a`` in its slot (None at
    index 0, the first), a chain steps to j2 by ``items``, which put the
    digit ``b`` in j2's slot (y_1's when j2 is 0, closing the chain)."""
    base = 2 * window + 1
    weight = [base ** (2 * k - 1 - p) for p in range(2 * k)]
    ints = {d: [(p + window, q + window,
                 c.numerator * (common // c.denominator))
                for (p, q), c in table.items()]
            for d, table in tables.items()}
    walks = {}
    for e0 in (-1, 1):
        # the positions by which each index is entered and left, indices
        # 0-based: index 0 leaves by x_1 and is entered by y_1 in both
        # walks, the others are entered by x_j in the forward walk and by
        # y_j in the backward one
        enter = [1] + [2 * j + (e0 > 0) for j in range(1, k)]
        leave = [0] + [2 * j + (e0 < 0) for j in range(1, k)]
        swaps = [(leave[j] % 2 == 1, weight[leave[j]] - weight[enter[j]])
                 for j in range(k)]
        terms = {}
        for j, j2 in product(range(k), repeat=2):
            if j == j2 and k > 1:
                continue
            d = 0 if j == j2 else 1 if j < j2 else -1
            # (j's digit, j2's digit, integer) per term: a backward step
            # takes the transposed factor of the forward step it reverses,
            # and the factor entering index 0 carries eps_1
            if e0 < 0:
                uvc = [(p, q, -c if j2 == 0 else c) for p, q, c in ints[d]]
            else:
                uvc = [(q, p, c) for p, q, c in ints[-d]]
            # v, the digit put in j2's slot (y_1's on closing), keys the
            # groups
            wl, we, wn = weight[leave[j]], weight[enter[j]], weight[enter[j2]]
            terms[j, j2] = [(u, v, u * wl + v * wn, u * we + v * wn, c)
                            for u, v, c in uvc]
        walks[e0] = _Steps(terms, swaps)
    return walks


def _leads(moves, k: int) -> list:
    """The x_1 digits, in increasing order, of the factors that can open a
    kept chain of ``moves`` (see `_contract`): they leave index 1 from
    stage 0, and at k = 1, where that factor closes the chain, they end at
    the last stage.  A digit no closing factor's y_1 digit exceeds is left
    out: its slice is empty.  Both are read off the terms before the fold,
    so no step is built: the fold keeps every term that leaves index 1,
    and drops one that leaves another index only at the one digit a equal
    to its own, so at a positive window some a keeps it (at window 0 every
    digit is 0, and no lead is below that)."""
    last = max(dst for _, dst, _ in moves)
    # the largest y_1 digit a factor closing a kept chain places
    y1 = max((b for _, dst, walks in moves if dst == last
              for steps in walks.values()
              for (_, j2), terms in steps.terms.items() if j2 == 0
              for _, b, *_ in terms), default=0)
    leads = {u for src, dst, walks in moves
             if src == 0 and (k > 1 or dst == last)
             for steps in walks.values()
             for (j, _), terms in steps.terms.items() if j == 0
             for u, *_ in terms}
    return sorted(lead for lead in leads if lead < y1)


def _contract(moves, k: int, window: int, acc: dict[int, int],
              lead: int | None = None) -> None:
    """Add ``common^k`` times the chains of ``moves`` into ``acc``, keyed by
    canonical box keys (see the module docstring).  ``moves`` lists
    ``(src, dst, walks)`` with walks from `_walks`: a step from stage
    ``src`` takes a factor of ``walks`` to stage ``dst``.  Chains start at
    stage 0, and only those that end at the last stage are added.  With
    ``lead``, only the chains whose x_1 digit is ``lead`` and whose y_1
    digit is greater are: the factor that leaves index 1 keeps the terms of
    that digit alone, and the closing factor the groups of greater y_1."""
    last = max(dst for _, dst, _ in moves)
    top = (2 * window + 1) ** (2 * k - 1)  # the weight of x_1's digit

    def move(walk):
        def step(j, a, j2):
            groups = walk[j, a, j2]
            if j and j2:
                return groups
            if lead is not None and not j:
                # a group left empty would open states that carry nothing
                groups = {b: kept for b, items in groups.items()
                          if (kept := [(key, c) for key, c in items
                                       if key // top == lead])}
            if j2:
                return groups
            if lead is None:
                return groups.values()
            return [items for b, items in groups.items() if b > lead]
        return step

    for e0 in (-1, 1):
        # a state's label is the digit that the step entering its index
        # placed (None at the start); the step to index 0 closes the chain
        chain.contract(k, {(1, 0, 0, None): {0: 1}},
                       [(src, dst, move(walks[e0]))
                        for src, dst, walks in moves], acc, final=last)


def _decode(key: int, k: int, window: int) -> tuple:
    base = 2 * window + 1
    exps = []
    for _ in range(2 * k):
        key, digit = divmod(key, base)
        exps.append(digit - window)
    return tuple(reversed(exps))


def check_lemma(k: int, spec: SeriesPairSpec, window: int = 6) -> bool:
    """True when the f-side equals the 2^k-weighted g-side on the box."""
    return first_lemma_difference(k, spec, window) is None


def first_lemma_difference(
    k: int, spec: SeriesPairSpec, window: int = 6
) -> tuple[tuple, Fraction, Fraction] | None:
    """Smallest differing monomial between the two sides, or None.

    The difference is contracted in one telescoped pass and dropped one
    x_1 slice at a time, in increasing order (see the module docstring)."""
    _validate(k, spec, window)
    common, tables = _tables(k, spec, window)
    # the telescoped moves: f (stage 0 to 0), h (0 to 1) and 2g (1 to 1);
    # at k = 1 the one factor leaves index 1 and closes the chain, which
    # only h can end, so 2g's walks are not built
    stages = ((0, 0), (0, 1), (1, 1)) if k > 1 else ((0, 0), (0, 1))
    moves = [(src, dst, _walks(table, k, window, common))
             for (src, dst), table in zip(stages, tables)]
    for lead in _leads(moves, k):
        acc: dict[int, int] = {}
        _contract(moves, k, window, acc, lead)
        first = min((key for key, v in acc.items() if v), default=None)
        if first is not None:
            # this slice again with f alone; 2^k RHS is LHS - the difference
            lhs_acc: dict[int, int] = {}
            _contract(moves[:1], k, window, lhs_acc, lead)
            lhs_value = lhs_acc.get(first, 0)
            den = common ** k
            return (_decode(first, k, window), Fraction(lhs_value, den),
                    Fraction(lhs_value - acc[first], den))
    return None


def instantiate_from_affine(b: AffineB) -> SeriesPairSpec:
    """The (s, t) pair carrying the affine coordinates into the identity.

    s(u, v) = sum_{m,n>=1} a_{m,n} (u^{-m} v^{-n} - u^{-n} v^{-m}), so the
    m < n triangle picks up a factor 2 from the antisymmetric double sum;
    t collects the a_{m,0} column.
    """
    s_entries = {}
    t_entries = {}
    for (m, n), value in sorted(b.entries.items()):
        if m >= 1 and n == 0:
            t_entries[m] = value
        elif 1 <= m < n:
            s_entries[m, n] = 2 * value
    return SeriesPairSpec(s_entries, t_entries)
