"""Truncated Laurent series arithmetic and kernel expansions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpnpoint.series import (
    DivergentPairingError,
    KernelKind,
    Series,
    WindowError,
    expand_kernel,
    uniform_window,
)

W = uniform_window


def test_inv_diff_first_variable_dominant():
    # 1/(z0 - z1) in the region |z0| >> |z1|, positive cap 3
    s = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -6, 3), 0, 1)
    assert s.coeffs == {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1, (-4, 3): 1}
    assert s.coefficient((-3, 2)) == 1
    assert s.coefficient((0, 0)) == 0
    assert s.markers == {(0, 1): 0}
    assert not s.clipped


def test_inv_diff_reversed_arguments_negate():
    a = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -6, 3), 0, 1)
    b = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -6, 3), 1, 0)
    assert b == a.neg()
    assert b.markers == {(0, 1): 0}


def test_inv_diff_same_direction_product_equals_regularized_square():
    # i(1/(z0-z1)) * i(1/(z1-z0)) = -i(1/(z0-z1)^2)
    #   = -sum_k (k+1) z0^{-2-k} z1^k, coefficient by coefficient
    win = W(2, -9, 6)
    k01 = expand_kernel(KernelKind.INV_DIFF, 2, win, 0, 1)
    k10 = expand_kernel(KernelKind.INV_DIFF, 2, win, 1, 0)
    assert k01.mul(k10).coeffs == {(-2 - k, k): -(k + 1) for k in range(7)}


def test_inv_sum_matches_sign_flipped_inv_diff():
    # 1/(z0 + z1) = 1/(z0 - (-z1)), through INV_DIFF's sign arguments
    s = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -6, 6), 0, 1, 1, -1)
    assert s.coeffs[(-1, 0)] == 1
    assert s.coeffs[(-2, 1)] == -1


def test_substitute_sign_flips_odd_exponents():
    # 1/(-z0 + z1) = -1/(z0 - z1): both signs flipped gives the negation
    s = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -5, 5), 0, 1)
    t = expand_kernel(KernelKind.INV_DIFF, 2, W(2, -5, 5), 0, 1, -1, -1)
    assert t == s.neg()


def test_geom_tail_expansion():
    s = expand_kernel(KernelKind.GEOM_TAIL, 2, W(2, -5, 3), 0, 1)
    assert s.coeffs == {(-1, 1): -1, (-2, 2): 1, (-3, 3): -1}
    with pytest.raises(ValueError):
        expand_kernel(KernelKind.GEOM_TAIL, 2, W(2, -5, 3), 1, 0)


def test_kp_delta_frozen_coefficient():
    s = expand_kernel(KernelKind.KP_DELTA, 2, W(2, -8, 6), 0, 1)
    assert s.coefficient((-2, 0)) == Fraction(1, 2)
    assert s.coefficient((-4, 2)) == Fraction(3, 2)
    assert s.coefficient((-6, 4)) == Fraction(5, 2)
    assert s.coefficient((-3, 1)) == 0


def test_bkp_delta_is_z0_z1_times_kp_delta():
    kp = expand_kernel(KernelKind.KP_DELTA, 2, W(2, -9, 9), 0, 1)
    bkp = expand_kernel(KernelKind.BKP_DELTA, 2, W(2, -8, 8), 0, 1)
    shifted = kp.shift((1, 1))
    for e, c in bkp.coeffs.items():
        assert shifted.coeffs.get(e, 0) == c


def test_lemma_ratio_partition_of_unity():
    # u/(v+u) + v/(u+v) = 1 in either expansion region
    win = W(2, -7, 7)
    a = expand_kernel(KernelKind.LEMMA_RATIO, 2, win, 0, 1, idx_i=2, idx_j=1)
    b = expand_kernel(KernelKind.LEMMA_RATIO, 2, win, 1, 0, idx_i=1, idx_j=2)
    total = a.add(b)
    assert total.coeffs == {(0, 0): 1}


def test_lemma_ratio_equal_indices_vanish():
    s = expand_kernel(KernelKind.LEMMA_RATIO, 2, W(2, -5, 5), 0, 1, idx_i=3, idx_j=3)
    assert s.coeffs == {}
    assert s.markers == {}


def test_lemma_ratio_dominant_other_expansion():
    # u/(v+u), v dominant: v^{-1}u - v^{-2}u^2 + ...
    s = expand_kernel(KernelKind.LEMMA_RATIO, 2, W(2, -4, 4), 0, 1, idx_i=2, idx_j=1)
    assert s.coeffs[(1, -1)] == 1
    assert s.coeffs[(2, -2)] == -1
    assert s.markers == {(0, 1): 1}


def test_divergent_pairing_detected_on_multiply():
    win = W(2, -5, 5)
    a = expand_kernel(KernelKind.INV_DIFF, 2, win, 0, 1)
    b = expand_kernel(KernelKind.INV_DIFF, 2, win, 0, 1, idx_i=9, idx_j=1)
    assert b.markers == {(0, 1): 1}
    with pytest.raises(DivergentPairingError):
        a.mul(b)
    with pytest.raises(DivergentPairingError):
        a.add(b)


def test_same_direction_product_allowed():
    win = W(2, -5, 5)
    a = expand_kernel(KernelKind.INV_DIFF, 2, win, 0, 1)
    assert a.mul(a).markers == {(0, 1): 0}


def test_coefficient_outside_window_raises():
    s = Series.monomial(2, W(2, -3, 3), (-1, 0), 1)
    with pytest.raises(WindowError):
        s.coefficient((-4, 0))
    with pytest.raises(ValueError):
        s.coefficient((-1,))


def test_monomial_outside_window_clips():
    s = Series.monomial(2, W(2, -3, 3), (-4, 0), 1)
    assert s.coeffs == {}
    assert s.clipped


def test_shift_and_clip():
    s = Series.monomial(2, W(2, -3, 3), (-3, 0), 1)
    up = s.shift((1, 1))
    assert up.coeffs == {(-2, 1): 1}
    assert not up.clipped
    down = s.shift((-1, 0))
    assert down.coeffs == {}
    assert down.clipped
    clipped = up.clip({1: (-3, 0)})
    assert clipped.coeffs == {}
    assert clipped.clipped


def _series_strategy(nvars=2, lo=-4, hi=4):
    exps = st.tuples(*(st.integers(lo, hi) for _ in range(nvars)))
    frac = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
    )
    return st.dictionaries(exps, frac, max_size=6).map(
        lambda d: Series(
            nvars,
            uniform_window(nvars, lo, hi),
            {e: c for e, c in d.items() if c != 0},
        )
    )


@settings(deadline=None, max_examples=60)
@given(_series_strategy(), _series_strategy())
def test_multiplication_commutes(a, b):
    assert a.mul(b) == b.mul(a)


@settings(deadline=None, max_examples=60)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_addition_associates(a, b, c):
    assert a.add(b).add(c) == a.add(b.add(c))


@settings(deadline=None, max_examples=40)
@given(_series_strategy(), _series_strategy())
def test_distributivity_inside_safe_region(a, b):
    # (a+b)*m == a*m + b*m for a monomial that cannot leave the window
    m = Series.monomial(2, uniform_window(2, -4, 4), (0, 0), Fraction(3, 2))
    assert a.add(b).mul(m) == a.mul(m).add(b.mul(m))
