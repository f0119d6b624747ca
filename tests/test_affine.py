"""Affine coordinates: validation, conversion, generating series."""

from fractions import Fraction

import pytest

from bkpnpoint.affine import (
    AffineB,
    bkp_terms,
    bkp_to_kp,
    check_gs_relation,
    dump_affine_b,
    dump_affine_kp,
    kp_terms,
    parse_affine_b,
    validate_b,
)
from bkpnpoint.sampling import random_affine_b
from bkpnpoint.series import Series, uniform_window
from reference import hat_bkp, hat_kp, place

W = uniform_window


def test_validate_completes_antisymmetric_partner():
    b = validate_b([(1, 0, Fraction(1))])
    assert b.get(1, 0) == 1
    assert b.get(0, 1) == -1
    assert b.get(2, 0) == 0


def test_validate_accepts_consistent_redundancy():
    b = validate_b([(1, 0, 1), (0, 1, -1)])
    assert b.get(1, 0) == 1


def test_validate_rejects_antisymmetry_conflict():
    with pytest.raises(ValueError, match="antisymmetry"):
        validate_b([(1, 0, 1), (0, 1, 1)])


def test_validate_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        validate_b([(2, 2, 1)])
    assert validate_b([(2, 2, 0)]).is_zero()


def test_validate_rejects_negative_index():
    with pytest.raises(ValueError, match="negative"):
        validate_b([(-1, 0, 1)])


def test_validate_rejects_bool_index():
    # bool is an int subclass; a bool index would be dumped as JSON true,
    # which parse_affine_b refuses
    for row in ((True, False, 1), (2, True, 1), (False, 3, 1)):
        with pytest.raises(ValueError, match="integers"):
            validate_b([row])
    with pytest.raises(ValueError, match="integers"):
        validate_b({(True, 0): 1})


def test_bkp_to_kp_frozen_single_entry():
    kp = bkp_to_kp(validate_b([(1, 0, 1)]))
    assert kp.entries == {(0, 0): -2, (0, 1): 2}


def test_bkp_to_kp_frozen_second_entry():
    kp = bkp_to_kp(validate_b([(2, 1, 1)]))
    assert kp.entries == {(1, 1): 2, (0, 2): 2}


def test_bkp_to_kp_quadratic_term():
    # a^KP_{m,n} picks up a_{m+1,0} a_{0,n}
    b = validate_b([(1, 0, 1), (2, 0, 1)])
    kp = bkp_to_kp(b)
    # m=1, n=1: 2 * (a_{2,1} + a_{2,0} a_{0,1}) = 2 * (0 + 1 * -1) = -2
    assert kp.get(1, 1) == -2


def _dense_bkp_to_kp(b):
    """The conversion formula evaluated over the whole index box."""
    out = {}
    top = b.max_index
    for m in range(0, top):
        for n in range(0, top + 1):
            val = 2 * (-1) ** (m + 1) * (
                b.get(m + 1, n) + b.get(m + 1, 0) * b.get(0, n))
            if val != 0:
                out[(m, n)] = val
    return out


def test_bkp_to_kp_matches_dense_formula():
    instances = [random_affine_b(seed) for seed in range(10)]
    instances.append(random_affine_b(7, max_index=6, density=0.6))
    for b in instances:
        assert bkp_to_kp(b).entries == _dense_bkp_to_kp(b)


def test_bkp_to_kp_huge_index_converts_at_once():
    # the dense index box would have 10^8 positions
    kp = bkp_to_kp(validate_b([(10**4, 0, 1), (1, 0, 2)]))
    assert kp.entries == {
        (0, 0): -4, (0, 1): 8, (0, 10**4): 4,
        (10**4 - 1, 0): 2, (10**4 - 1, 1): -4, (10**4 - 1, 10**4): -2,
    }


def test_series_a_bkp_frozen():
    b = validate_b([(1, 0, 1)])
    s = place(bkp_terms(b), 2, W(2, -4, 0), 0, 1)
    assert s.coeffs == {(-1, 0): Fraction(1, 2), (0, -1): Fraction(-1, 2)}


def test_series_a_bkp_two_index_entry():
    b = validate_b([(2, 1, 1)])
    s = place(bkp_terms(b), 2, W(2, -4, 0), 0, 1)
    assert s.coeffs == {(-2, -1): 1, (-1, -2): -1}


def test_series_a_bkp_diagonal_slots():
    b = validate_b([(1, 0, 1)])
    s = place(bkp_terms(b), 1, W(1, -4, 0), 0, 0, 1, -1)
    # A^BKP(z, -z) = (1/2)(z^{-1} - (-z)^{-1}) = z^{-1}
    assert s.coeffs == {(-1,): 1}


def test_series_a_kp_diagonal_accumulates():
    kp = bkp_to_kp(validate_b([(1, 0, 1)]))
    s = place(kp_terms(kp), 1, W(1, -4, 0), 0, 0)
    # -2 x^{-1}x^{-1} + 2 x^{-1}x^{-2}
    assert s.coeffs == {(-2,): -2, (-3,): 2}


def test_hat_kp_adds_kernel_off_diagonal_only():
    kp = bkp_to_kp(validate_b([(1, 0, 1)]))
    win = W(2, -5, 3)
    hat = hat_kp(kp, 2, win, 0, 1)
    plain = place(kp_terms(kp), 2, win, 0, 1)
    assert hat.coefficient((-1, 0)) == plain.coefficient((-1, 0)) + 1
    assert hat.coefficient((-2, 1)) == plain.coefficient((-2, 1)) + 1
    diag = hat_kp(kp, 1, W(1, -5, 3), 0, 0)
    assert diag == place(kp_terms(kp), 1, W(1, -5, 3), 0, 0)


def test_hat_bkp_constant_and_tail():
    b = AffineB()
    win = W(2, -5, 3)
    hat = hat_bkp(b, 2, win, 0, 1)
    assert hat.coefficient((0, 0)) == Fraction(-1, 4)
    assert hat.coefficient((-1, 1)) == Fraction(1, 2)
    assert hat.coefficient((-2, 2)) == Fraction(-1, 2)
    with pytest.raises(ValueError, match="dominant"):
        hat_bkp(b, 2, win, 1, 0)


def test_gs_relation_frozen_instances():
    assert check_gs_relation(validate_b([(1, 0, 1)]), 8)
    assert check_gs_relation(validate_b([(2, 1, 1)]), 8)
    assert check_gs_relation(AffineB(), 6)


def test_gs_relation_random_instances():
    for seed in range(6):
        b = random_affine_b(seed)
        assert check_gs_relation(b, 8), f"seed {seed}"


def test_gs_relation_detects_wrong_conversion():
    # breaking antisymmetry by hand must violate the series relation
    b = AffineB({(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert not check_gs_relation(b, 6)


def _series_gs_relation(b, depth):
    """The gs check on 2-variable `Series`, kept as a reference."""
    kp = bkp_to_kp(b)
    window = W(2, -depth - 2, 1)
    lhs = place(bkp_terms(b), 2, window, 0, 1)
    t1 = place(kp_terms(kp), 2, window, 0, 1, 1, -1).shift((0, 1))
    t2 = place(kp_terms(kp), 2, window, 1, 0, 1, -1).shift((1, 0))
    rhs = t1.sub(t2).scale(Fraction(1, 4))
    return all(lhs.coefficient((ew, ez)) == rhs.coefficient((ew, ez))
               for ew in range(-depth, 1) for ez in range(-depth, 1))


# antisymmetry broken by hand: a wrong partner or none at all
BROKEN = [
    AffineB({(1, 0): Fraction(1), (0, 1): Fraction(1)}),
    AffineB({(2, 1): Fraction(1), (1, 2): Fraction(2)}),
    AffineB({(3, 0): Fraction(1, 2)}),
    AffineB({(1, 0): Fraction(1), (0, 1): Fraction(-1), (4, 2): Fraction(3)}),
]


def test_gs_relation_matches_series_reference():
    instances = [random_affine_b(seed) for seed in range(40)]
    instances.append(random_affine_b(0, max_index=6, density=0.6))
    for depth in (1, 4, 8, 12):
        for b in instances + BROKEN:
            assert check_gs_relation(b, depth) == _series_gs_relation(b, depth)
    assert not any(_series_gs_relation(b, 8) for b in BROKEN)


def test_gs_relation_builds_no_series(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("Series built")

    monkeypatch.setattr(Series, "__init__", build)
    for seed in range(6):
        assert check_gs_relation(random_affine_b(seed), 8)


def test_coordinate_file_roundtrip():
    b = random_affine_b(3)
    text = dump_affine_b(b)
    again = parse_affine_b(__import__("json").loads(text))
    assert again == b
    assert dump_affine_b(again) == text


def test_dump_kp_is_sorted():
    kp = bkp_to_kp(validate_b([(1, 0, 1)]))
    assert dump_affine_kp(kp) == '[[0, 0, "-2"], [0, 1, "2"]]\n'


def test_parse_rejects_malformed_records():
    for bad in (
        {"a": 1},
        [[1, 0]],
        [[1, 0, "1/0"]],
        [[1, 0, None]],
        [["1", 0, "1"]],
        [[True, 0, "1"]],
        [[1, 0, True]],
        [[1, 0, "x"]],
    ):
        with pytest.raises(ValueError):
            parse_affine_b(bad)


def test_random_instances_are_deterministic():
    assert random_affine_b(7) == random_affine_b(7)
    assert random_affine_b(7) != random_affine_b(8)


def _old_random_affine_b(seed, max_index=4, max_height=9, density=0.4):
    """The sampler's loop as it was with the draw written inline."""
    from random import Random

    rng = Random(seed)
    rows = []
    for n in range(1, max_index + 1):
        for m in range(0, n):
            if rng.random() < density:
                num = rng.randint(-max_height, max_height)
                den = rng.randint(1, max_height)
                if num != 0:
                    rows.append((n, m, Fraction(num, den)))
    if not rows:
        n = rng.randint(1, max_index)
        m = rng.randint(0, n - 1)
        rows.append((n, m, Fraction(rng.randint(1, max_height))))
    return validate_b(rows)


def test_random_instances_unchanged_by_shared_draw():
    # the benchmark digests these instances, so the draw order is pinned
    for seed in range(200):
        for kwargs in ({}, {"max_index": 6, "density": 0.6}):
            new = random_affine_b(seed, **kwargs).entries
            assert new == _old_random_affine_b(seed, **kwargs).entries, seed
