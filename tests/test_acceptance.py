"""Acceptance suite: one test per criterion, everything exact.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every comparison is coefficientwise equality of exact
rationals; there are no tolerances anywhere.
"""

from fractions import Fraction

from bkpnpoint.affine import check_gs_relation, validate_b
from bkpnpoint.fock import (
    check_square_relation,
    check_state_equality,
    oracle_npoint_table,
    tau_coefficients_bkp,
)
from bkpnpoint.lemma import check_lemma
from bkpnpoint.npoint import (
    compare_formulas,
    embedded_npoint_series,
    npoint_table,
    wangyang_npoint_series,
)
from bkpnpoint.sampling import random_affine_b, random_series_pair_spec

SEEDS = range(10)


def instances():
    return [random_affine_b(seed) for seed in SEEDS]


def test_criterion_1_formula_equivalence():
    # 10 seeded instances, n in {1,2,3}, all odd multi-indices of weight <= 9
    for b in instances():
        for n in (1, 2, 3):
            result = compare_formulas(b, n, 9)
            assert result.tables_agree, (b, n, result.first_difference)
            assert result.raw_relation_holds, (b, n)


def test_criterion_2_oracle_agreement():
    # same instances, weight <= 7, both closed formulas equal the oracle
    for b in instances():
        for n in (1, 2, 3):
            result = compare_formulas(b, n, 7)
            oracle = oracle_npoint_table(b, n, 7)
            assert result.tables_agree, (b, n)
            assert result.table_embedded == oracle, (b, n)
            assert result.table_wangyang == oracle, (b, n)


def test_criterion_3_square_relation():
    for seed in range(5):
        assert check_square_relation(random_affine_b(seed), 8), seed


def test_criterion_4_generating_series_relation():
    for seed in range(20):
        assert check_gs_relation(random_affine_b(seed), 8), seed


def test_criterion_5_state_equality():
    for seed in range(5):
        assert check_state_equality(random_affine_b(seed), 8), seed


def test_criterion_6_lemma():
    for seed in range(20):
        spec = random_series_pair_spec(seed)
        for k in (1, 2, 3):
            assert check_lemma(k, spec, 6), (seed, k)
    for seed in range(3):
        assert check_lemma(4, random_series_pair_spec(seed), 6), seed


def test_criterion_7_trivial_tau():
    zero = validate_b([])
    for n, weight in ((1, 7), (2, 7), (3, 7), (4, 5)):
        wy = npoint_table(
            wangyang_npoint_series(zero, n, weight), n, weight, index_shift=0)
        emb = npoint_table(
            embedded_npoint_series(zero, n, weight), n, weight, index_shift=1)
        oracle = oracle_npoint_table(zero, n, weight)
        assert wy, n
        assert all(v == 0 for v in wy.values()), n
        assert wy == emb == oracle, n


def test_criterion_8_worked_one_point():
    b = validate_b([(1, 0, Fraction(1))])
    expected = {(1,): Fraction(-1), (3,): Fraction(0)}
    wy = npoint_table(wangyang_npoint_series(b, 1, 3), 1, 3, index_shift=0)
    emb = npoint_table(embedded_npoint_series(b, 1, 3), 1, 3, index_shift=1)
    oracle = oracle_npoint_table(b, 1, 3)
    assert wy == emb == oracle == expected


def test_criterion_9_truncation_certification():
    # each closed route's table at weight 13 (floor 4 lower, kernels 4
    # longer), cut back to weight 9, is its table at weight 9, and the
    # oracle's tau at weight 11, cut back to weight 7, is its tau at weight 7
    for b in instances():
        for n in (1, 2, 3):
            base = compare_formulas(b, n, 9)
            for table, route, shift in (
                    (base.table_embedded, embedded_npoint_series, 1),
                    (base.table_wangyang, wangyang_npoint_series, 0)):
                longer = npoint_table(route(b, n, 13), n, 13,
                                      index_shift=shift)
                assert table == {
                    k: v for k, v in longer.items() if sum(k) <= 9}, (b, n)
        higher = tau_coefficients_bkp(b, 11)
        assert tau_coefficients_bkp(b, 7) == {
            k: v for k, v in higher.items() if sum(k) <= 7}, b
