"""Tests for the f/g cycle-sum identity and its affine instantiation."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from bkpnpoint import lemma
from bkpnpoint.affine import validate_b
from bkpnpoint.lemma import (
    SeriesPairSpec,
    VarRef,
    check_lemma,
    eval_f,
    eval_g,
    first_lemma_difference,
    instantiate_from_affine,
    lemma_side,
    validate_pair_spec,
)
from bkpnpoint.npoint import compare_formulas, cycle_orders
from bkpnpoint.sampling import random_affine_b, random_series_pair_spec
from bkpnpoint.series import Series, series_equal_on, uniform_window

F = Fraction
W6 = uniform_window(4, -6, 6)


def _spec(s=None, t=None):
    return validate_pair_spec(s or {}, t or {})


def test_pair_spec_folds_onto_upper_triangle():
    spec = validate_pair_spec({(3, 1): F(2)}, {2: F(1, 3)})
    assert spec.s_entries == {(1, 3): F(-2)}
    assert spec.t_entries == {2: F(1, 3)}
    assert spec.max_index == 3
    assert not spec.is_zero()
    assert _spec().is_zero()


def test_pair_spec_consistent_duplicates_allowed():
    spec = validate_pair_spec({(1, 2): F(5), (2, 1): F(-5)}, {})
    assert spec.s_entries == {(1, 2): F(5)}


def test_pair_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_pair_spec({(1, 2): F(1), (2, 1): F(1)}, {})
    with pytest.raises(ValueError):
        validate_pair_spec({(2, 2): F(1)}, {})
    with pytest.raises(ValueError):
        validate_pair_spec({(0, 2): F(1)}, {})
    with pytest.raises(ValueError):
        validate_pair_spec({}, {0: F(1)})
    with pytest.raises(ValueError):
        validate_pair_spec({}, {True: F(1)})
    # zero diagonal and zero values are dropped silently
    spec = validate_pair_spec({(2, 2): F(0), (1, 2): F(0)}, {1: F(0)})
    assert spec.is_zero()


def test_var_ref_positions():
    assert VarRef(1, "x").position == 0
    assert VarRef(1, "y").position == 1
    assert VarRef(3, "x").position == 4
    with pytest.raises(ValueError):
        VarRef(0, "x")
    with pytest.raises(ValueError):
        VarRef(1, "z")


def test_ratio_piece_frozen():
    # s = 0, t = 0: f(y_1, x_2) is the directional (y-x)/(y+x) expansion
    # 1 + 2 sum_{n>=0} (-y_1)^{-n-1} x_2^{n+1}.
    f = eval_f(_spec(), VarRef(1, "y"), VarRef(2, "x"), W6)
    expect = {(0, 0, 0, 0): F(1)}
    for p in range(1, 7):
        expect[(0, -p, p, 0)] = F(2 * (-1) ** p)
    assert f.coeffs == expect
    # dominance marker: positions 1 (y_1) and 2 (x_2), smaller index wins
    assert f.markers == {(1, 2): 1}


def test_equal_index_kernel_piece_vanishes():
    # wrap-around factor of k = 1: only the s and t parts survive
    spec = _spec(t={1: F(3)})
    win = uniform_window(2, -6, 6)
    f = eval_f(spec, VarRef(1, "y"), VarRef(1, "x"), win)
    assert f.coeffs == {(0, -1): F(6), (-1, 0): F(-6)}
    assert f.markers == {}


def test_f_antisymmetry_and_g_split():
    args = [
        (VarRef(1, "y"), VarRef(2, "x")),
        (VarRef(2, "x"), VarRef(1, "y")),
        (VarRef(1, "y"), VarRef(1, "x")),
        (VarRef(2, "y"), VarRef(1, "x")),
        (VarRef(3, "x"), VarRef(2, "y")),
    ]
    win = uniform_window(6, -6, 6)
    for seed in range(5):
        spec = random_series_pair_spec(seed)
        for a, b in args:
            fab = eval_f(spec, a, b, win)
            assert fab == eval_f(spec, b, a, win).neg()
            assert fab == eval_g(spec, a, b, win).sub(
                eval_g(spec, b, a, win))


def test_k1_sides_frozen():
    spec = _spec(s={(1, 2): F(1, 2)}, t={1: F(2), 3: F(-1, 3)})
    win = uniform_window(2, -6, 6)
    y1, x1 = VarRef(1, "y"), VarRef(1, "x")
    lhs = lemma_side("LHS", 1, spec, 6)
    rhs = lemma_side("RHS", 1, spec, 6)
    assert lhs == eval_f(spec, y1, x1, win).scale(2)
    assert rhs == eval_g(spec, y1, x1, win).sub(
        eval_g(spec, x1, y1, win)).scale(2)
    assert lhs == rhs


def test_k1_sides_unclipped_when_every_used_factor_is():
    # f(y_1, y_1) and f(x_1, x_1), whose s term z^-7 leaves the window, are
    # taken by no chain, so they must not set the flag
    spec = _spec(s={(3, 4): 1})
    for which in ("LHS", "RHS"):
        assert not lemma_side(which, 1, spec, 6).clipped


def test_zero_spec_identity():
    # pure kernel identity, no s or t
    for k in (1, 2, 3):
        assert check_lemma(k, _spec(), 6)


def test_identity_on_random_specs():
    for k in (1, 2, 3):
        for seed in range(6):
            spec = random_series_pair_spec(seed)
            assert first_lemma_difference(k, spec, 6) is None


def test_identity_k4_small_spec():
    spec = _spec(s={(1, 2): F(1, 2)}, t={1: F(-2, 3)})
    assert check_lemma(4, spec, 6)


def test_halved_enumeration_matches_full_sum():
    # independent reference: all 2^k sign vectors, Series products
    def reference(which, k, spec, window):
        from itertools import product as iproduct

        win = uniform_window(2 * k, -window, window)
        evaluate = eval_f if which == "LHS" else eval_g
        total = Series.zero(2 * k, win)
        for order in cycle_orders(k):
            for eps in iproduct((1, -1), repeat=k):
                sign = 1
                for e in eps:
                    sign *= e
                term = None
                for i in range(k):
                    j1, j2 = order[i], order[(i + 1) % k]
                    a = VarRef(j1 + 1, "y" if eps[j1] == 1 else "x")
                    b = VarRef(j2 + 1, "x" if eps[j2] == 1 else "y")
                    fac = evaluate(spec, a, b, win)
                    term = fac if term is None else term.mul(fac)
                total = total.add(term.scale(sign))
        return total.scale(2 ** k) if which == "RHS" else total

    for seed in (0, 3):
        spec = random_series_pair_spec(seed)
        for k in (1, 2):
            for which in ("LHS", "RHS"):
                assert lemma_side(which, k, spec, 4) == \
                    reference(which, k, spec, 4)


def test_window_restriction_consistency():
    # coefficients inside a smaller box do not depend on the window
    spec = random_series_pair_spec(7)
    for k in (1, 2):
        wide = lemma_side("LHS", k, spec, 6)
        narrow = lemma_side("LHS", k, spec, 3)
        assert series_equal_on(wide, narrow, uniform_window(2 * k, -3, 3))


def test_flavor_swap_symmetry():
    # swapping every x_j with y_j negates odd-k sides, fixes even-k sides
    spec = random_series_pair_spec(2)
    for k, flip in ((1, -1), (2, 1)):
        side = lemma_side("LHS", k, spec, 5)
        swapped = {
            tuple(e[p ^ 1] for p in range(2 * k)): c
            for e, c in side.coeffs.items()
        }
        assert swapped == {e: flip * c for e, c in side.coeffs.items()}


def test_side_argument_validation():
    spec = _spec()
    with pytest.raises(ValueError):
        lemma_side("MID", 1, spec, 6)
    with pytest.raises(ValueError):
        lemma_side("LHS", 0, spec, 6)
    with pytest.raises(ValueError):
        lemma_side("LHS", 5, spec, 6)
    with pytest.raises(ValueError):
        lemma_side("LHS", 1, spec, -1)


def test_instantiate_from_affine_frozen():
    assert instantiate_from_affine(validate_b([])).is_zero()
    spec = instantiate_from_affine(validate_b([(1, 0, F(1))]))
    assert spec.s_entries == {}
    assert spec.t_entries == {1: F(1)}
    # the m,n >= 1 double sum folds with a factor 2 on the m < n triangle
    spec = instantiate_from_affine(validate_b([(2, 1, F(1)), (3, 0, F(5))]))
    assert spec.s_entries == {(1, 2): F(-2)}
    assert spec.t_entries == {3: F(5)}


def test_instantiated_lemma_and_formulas_agree():
    for seed in (0, 4):
        b = random_affine_b(seed, max_index=3)
        assert check_lemma(2, instantiate_from_affine(b), 6)
        assert compare_formulas(b, 2, 5).tables_agree


# -- the contraction engine against the half enumeration ---------------------


def _swap_flavors(coeffs, nvars):
    # Exchange x_j and y_j exponents (position p maps to p ^ 1).
    return {tuple(e[p ^ 1] for p in range(nvars)): c for e, c in coeffs.items()}


def _reference_side(which, k, spec, window):
    """One side by the plain product loop over cycles and sign vectors with
    eps_1 = +1; flipping every sign maps a term to its x<->y flavor swap
    times (-1)^k, which gives the other half."""
    nvars = 2 * k
    win = uniform_window(nvars, -window, window)
    factors = lemma._factor_table(which, k, spec, win)
    markers = {}
    clipped = False
    for fac in factors.values():
        markers.update(fac.markers)
        clipped = clipped or fac.clipped
    compact = {}
    common = 1
    for (j1, j2, e1, e2), fac in factors.items():
        pa = 2 * (j1 - 1) + (1 if e1 == 1 else 0)
        pb = 2 * (j2 - 1) + (0 if e2 == 1 else 1)
        den = lcm(*(c.denominator for c in fac.coeffs.values()), 1)
        items = [(e[pa], e[pb], int(c * den)) for e, c in fac.coeffs.items()]
        compact[j1, j2, e1, e2] = (pa, pb, items, den)
        common = lcm(common, den)
    scale_den = common ** k
    half = {}
    for order in cycle_orders(k):
        for eps in product((1,), *((1, -1),) * (k - 1)):
            sign = 1
            for e in eps:
                sign *= e
            chain = [
                compact[order[i] + 1, order[(i + 1) % k] + 1,
                        eps[order[i]], eps[order[(i + 1) % k]]]
                for i in range(k)
            ]
            term_den = 1
            for _, _, _, den in chain:
                term_den *= den
            base = sign * (scale_den // term_den)
            for combo in product(*(items for _, _, items, _ in chain)):
                exps = [0] * nvars
                value = base
                for (pa, pb, _, _), (ea, eb, c) in zip(chain, combo):
                    exps[pa] = ea
                    exps[pb] = eb
                    value *= c
                key = tuple(exps)
                half[key] = half.get(key, 0) + value
    flip = 1 if k % 2 == 0 else -1
    total = dict(half)
    for key, value in _swap_flavors(half, nvars).items():
        total[key] = total.get(key, 0) + flip * value
    out_num = 2 ** k if which == "RHS" else 1
    coeffs = {key: Fraction(v * out_num, scale_den)
              for key, v in total.items() if v}
    return Series(nvars, win, coeffs, markers, clipped)


def _assert_same_side(got, want):
    assert got.coeffs == want.coeffs
    assert got.window == want.window
    assert got.markers == want.markers
    assert got.clipped == want.clipped


SMALL_K4_SPEC = dict(s={(1, 2): F(1, 2)}, t={1: F(-2, 3)})


@pytest.mark.parametrize("window", [3, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_engine_matches_half_enumeration(k, window):
    for seed in range(6):
        spec = random_series_pair_spec(seed)
        for which in ("LHS", "RHS"):
            _assert_same_side(lemma_side(which, k, spec, window),
                              _reference_side(which, k, spec, window))


def test_engine_matches_half_enumeration_k4():
    spec = _spec(**SMALL_K4_SPEC)
    for which in ("LHS", "RHS"):
        _assert_same_side(lemma_side(which, 4, spec, 4),
                          _reference_side(which, 4, spec, 4))


@pytest.mark.parametrize("k,window,spec,other", [
    (1, 6, random_series_pair_spec(0), random_series_pair_spec(1)),
    (2, 6, random_series_pair_spec(3), random_series_pair_spec(4)),
    (3, 6, random_series_pair_spec(5), random_series_pair_spec(2)),
    (4, 3, _spec(**SMALL_K4_SPEC), _spec(s={(1, 3): F(1)}, t={2: F(1, 2)})),
])
def test_first_difference_when_identity_broken(monkeypatch, k, window, spec,
                                                other):
    # g built from a second spec breaks the identity but keeps the flavor
    # swap symmetry the half-enumeration reference relies on.
    eval_g_orig = lemma.eval_g
    monkeypatch.setattr(
        lemma, "eval_g",
        lambda unused, a, b, win: eval_g_orig(other, a, b, win))
    lhs = _reference_side("LHS", k, spec, window)
    rhs = _reference_side("RHS", k, spec, window)
    diff = lhs.sub(rhs)
    assert diff.coeffs
    exps = min(diff.coeffs)
    assert first_lemma_difference(k, spec, window) == (
        exps, lhs.coefficient(exps), rhs.coefficient(exps))
    assert not check_lemma(k, spec, window)


# -- cost limit ---------------------------------------------------------------


@pytest.mark.parametrize("window", [1, 3, 6])
def test_factor_term_bound_holds(window):
    for seed in range(40):
        spec = random_series_pair_spec(seed)
        bound = lemma._factor_terms(spec, window)
        win = uniform_window(6, -window, window)
        for which in ("LHS", "RHS"):
            table = lemma._factor_table(which, 3, spec, win)
            assert max(len(f.coeffs) for f in table.values()) <= bound


def test_cost_limit_admits_random_specs_up_to_k4():
    for seed in range(40):
        spec = random_series_pair_spec(seed)
        for k in (1, 2, 3, 4):
            lemma._validate(k, spec, 6)


def test_cost_limit_refuses_before_building_factors(monkeypatch):
    def build(*args):
        raise AssertionError("factor table built")

    monkeypatch.setattr(lemma, "_factor_table", build)
    spec = random_series_pair_spec(0)
    with pytest.raises(ValueError, match="limit"):
        first_lemma_difference(4, spec, 20)
    with pytest.raises(ValueError, match="limit"):
        lemma_side("RHS", 4, spec, 20)
