"""Closed cycle-sum formulas for connected n-point functions."""

import ast
import copy
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

import pytest

from bkpnpoint import npoint
from bkpnpoint.affine import (
    AffineB,
    AffineKP,
    bkp_terms,
    bkp_to_kp,
    validate_b,
)
from bkpnpoint.cli import main
from bkpnpoint.fock import (
    connected_table_from_log,
    odd_tuples,
    oracle_npoint_table,
    poly_log,
)
from bkpnpoint.npoint import (
    MAX_CYCLE_WORK,
    FormulaComparison,
    TableCheckError,
    compare_formulas,
    embedded_npoint_series,
    kp_npoint,
    npoint_table,
    standard_window,
    wangyang_npoint_series,
)
from bkpnpoint.sampling import random_affine_b
from bkpnpoint.series import KernelKind, Series, expand_kernel
from reference import (
    cycle_column,
    hat_bkp,
    hat_kp,
    place,
    tau_coefficients_kp,
)

F = Fraction


def cycle_orders(n: int):
    """Visiting orders of the ``(n-1)!`` cycles on ``{0, .., n-1}``, the
    cycles the literal reference sums run over."""
    if n == 1:
        return ((0,),)
    return tuple((0,) + rest for rest in permutations(range(1, n)))


def cycle_pairs(order):
    n = len(order)
    return tuple((order[i], order[(i + 1) % n]) for i in range(n))


def test_cycle_orders_counts():
    assert cycle_orders(1) == ((0,),)
    assert cycle_orders(2) == ((0, 1),)
    assert len(cycle_orders(3)) == 2
    assert len(cycle_orders(4)) == 6
    for order in cycle_orders(4):
        assert order[0] == 0 and sorted(order) == [0, 1, 2, 3]


def test_argument_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        kp_npoint(AffineKP(), 0, 4)
    with pytest.raises(ValueError):
        embedded_npoint_series(AffineB(), 0, 4)
    with pytest.raises(ValueError):
        wangyang_npoint_series(AffineB(), 0, 4)


@pytest.mark.parametrize("n", [0, -1])
def test_every_bkp_route_refuses_n_below_1(n):
    # refused before any window is built: at n = 0 the window is empty
    b = random_affine_b(0)
    for route in (embedded_npoint_series, wangyang_npoint_series,
                  compare_formulas, oracle_npoint_table):
        with pytest.raises(ValueError, match="n must be >= 1"):
            route(b, n, 7)


def _patch_cap(monkeypatch, hi):
    """Make every route build its factor tables with the positive cap
    ``hi`` in place of ``-lo``."""
    window = npoint.standard_window
    monkeypatch.setattr(npoint, "standard_window",
                        lambda max_weight: (window(max_weight)[0], hi))


def test_trivial_coordinates_give_zero_tables():
    # in particular the n=2 delta-kernel cancellation is exact; a region
    # holds only the nonzero coefficients
    triv = AffineB()
    assert kp_npoint(AffineKP(), 2, 7).region() == {}
    for n in (1, 2, 3, 4):
        w = 7 if n < 4 else 5
        for route in (embedded_npoint_series, wangyang_npoint_series):
            assert route(triv, n, w).region() == {}


def test_one_point_tables_frozen():
    b = validate_b([(1, 0, 1)])
    wy = npoint_table(wangyang_npoint_series(b, 1, 5), 1, 5, index_shift=0)
    em = npoint_table(embedded_npoint_series(b, 1, 5), 1, 5, index_shift=1)
    assert wy == {(1,): F(-1), (3,): F(0), (5,): F(0)}
    assert em == wy


def test_kp_formula_matches_fock_oracle_all_indices():
    # independent check of the hat A^KP machinery, even indices included
    b = validate_b([(1, 0, 1), (2, 0, F(1, 2))])
    kp = bkp_to_kp(b)
    logf = poly_log(tau_coefficients_kp(kp, 6), 6)
    for n in (1, 2, 3):
        series = kp_npoint(kp, n, 6)
        table = npoint_table(series, n, 6, index_shift=1, odd_only=False)
        oracle = connected_table_from_log(logf, n, 6, odd_only=False)
        assert table == oracle, n


def test_kp_two_point_single_coordinate():
    alpha = F(2, 3)
    kp = AffineKP({(0, 0): alpha})
    table = npoint_table(kp_npoint(kp, 2, 4), 2, 4, index_shift=1, odd_only=False)
    assert table[(1, 1)] == -(alpha**2)
    assert table[(1, 2)] == 0


def test_formulas_agree_and_match_oracle_random():
    for seed in (0, 5):
        b = random_affine_b(seed)
        for n in (1, 2, 3):
            rep = compare_formulas(b, n, 6)
            assert isinstance(rep, FormulaComparison)
            assert rep.tables_agree, (seed, n, rep.first_difference)
            assert rep.raw_relation_holds, (seed, n)
            assert rep.table_wangyang == oracle_npoint_table(b, n, 6), (seed, n)


def test_doubled_cap_reproduces_tables():
    # a floor 4 lower and kernels 4 longer change no entry of weight <= 9
    b = random_affine_b(2)
    base = compare_formulas(b, 2, 9)
    for table, route, shift in (
            (base.table_embedded, embedded_npoint_series, 1),
            (base.table_wangyang, wangyang_npoint_series, 0)):
        longer = npoint_table(route(b, 2, 13), 2, 13, index_shift=shift)
        assert table == {k: v for k, v in longer.items() if sum(k) <= 9}


def test_caps_from_minus_lo_on_change_no_factor_table():
    # coordinate terms have both exponents <= 0, and a kernel term
    # (-1-k, k) or (-k, k) passes the floor lo only when k <= -lo: so every
    # cap from -lo on, the old default w + n * (max_degree + 2) among them,
    # gives the same factor tables
    for seed in range(21):
        b = random_affine_b(seed, max_index=1 + seed % 7)
        kp = bkp_to_kp(b)
        kp_degree = max((max(m, k) + 1 for m, k in kp.entries), default=1)
        for n in range(1, 7):
            for w in sorted({n, n + 1, 9, 2 * n + 5, 21}):
                lo, hi = standard_window(w)
                assert hi == -lo
                for factors, point, degree in (
                        (npoint._kp_factors, kp, kp_degree),
                        (npoint._bkp_factors, b, max(b.max_index, 1))):
                    old = w + n * (degree + 2)
                    want = factors(point, n, lo, hi)
                    for cap in (hi + 1, 2 * hi, old, 2 * old):
                        assert factors(point, n, lo, cap) == want, (
                            seed, n, w, cap)


def test_series_parity():
    # every nonzero coefficient: even exponents for embedded, odd for direct
    b = random_affine_b(4)
    emb = embedded_npoint_series(b, 2, 6).region()
    wy = wangyang_npoint_series(b, 2, 6).region()
    assert emb and wy
    assert all(all(e % 2 == 0 for e in k) for k in emb)
    assert all(all(e % 2 == 1 for e in k) for k in wy)


def test_sign_flip_symmetry_of_returned_series():
    # z_var -> -z_var multiplies the coefficient at e by (-1)^e[var]
    b = random_affine_b(4)
    emb = embedded_npoint_series(b, 2, 6).region()
    wy = wangyang_npoint_series(b, 2, 6).region()
    for var in (0, 1):
        for exps, c in emb.items():
            assert c * (-1) ** (exps[var] % 2) == c
        for exps, c in wy.items():
            assert c * (-1) ** (exps[var] % 2) == -c


def test_head_parity_assertion_fires():
    # wangyang asserts the parity of z_0 on each column instead of projecting
    diagonal = {(-1, -1): F(1)}
    bad = npoint.CycleSum(1, -5, (diagonal, diagonal), 1, 1,
                          head_checked=True)
    with pytest.raises(ArithmeticError, match="parity violation"):
        bad.region()


GOLDEN_COORDS = str(
    Path(__file__).resolve().parent / "golden" / "coords.json")


def test_table_symmetry_assertion_fires(capsys, monkeypatch):
    # one more term at (-1, -1) of the KP down table makes the embedded
    # table asymmetric: both commands that read it write nothing and exit 1
    # with one error line
    kp_factors = npoint._kp_factors

    def patched(*args):
        up, down = kp_factors(*args)
        return up, {**down, (-1, -1): down.get((-1, -1), 0) + 1}

    monkeypatch.setattr(npoint, "_kp_factors", patched)
    for argv in (["verify", "--check", "formulas", "--n", "2", "--count", "1"],
                 ["npoint", "--coords", GOLDEN_COORDS, "--n", "2",
                  "--max-weight", "7", "--formula", "embedded"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: table not symmetric at (1, 3): (-4, -2) differs\n")


def test_first_difference():
    a = {(1,): F(1), (3,): F(0)}
    c = {(1,): F(1), (3,): F(2)}
    assert npoint.first_difference({"wangyang": a}) is None
    assert npoint.first_difference({"embedded": a, "oracle": dict(a)}) is None
    # values in sorted route order, at the smallest differing key
    assert npoint.first_difference(
        {"wangyang": c, "oracle": a, "embedded": a}) == ((3,), 0, 0, 2)
    assert npoint.first_difference(
        {"embedded": a, "wangyang": {(1,): F(1)}}) == ((3,), 0, None)


def test_orderings_are_the_distinct_permutations_in_order():
    for length in range(7):
        for x in combinations_with_replacement((-5, -3, -1), length):
            assert list(npoint._orderings(x)) == sorted(set(permutations(x)))
    assert list(npoint._orderings((-1,) * 12)) == [(-1,) * 12]


# -- the literal sign-vector sum, kept as a reference ------------------------


def _sign_sum_reference(route, b, n, max_weight, hi=None):
    """Either BKP route as the literal sum over cycles and sign vectors.

    ``route`` is ``"embedded"`` or ``"wangyang"``, and ``hi`` the positive
    cap (``-lo`` by default).  Each cycle product is clipped to the
    all-negative box only at the end, which is exact because every
    variable's exponent is final once both of its factors are in.
    """
    kp = bkp_to_kp(b)
    lo = standard_window(max_weight)[0]
    hi = -lo if hi is None else hi
    window = ((lo, hi),) * n
    box = {v: (lo, -1) for v in range(n)}

    def factor(a, c, eps):
        if route == "embedded":
            return hat_kp(kp, n, window, a, c, eps[a], eps[c])
        if a == c:
            return place(bkp_terms(b), n, window, a, a, eps[a], -eps[a])
        if a < c:
            return hat_bkp(b, n, window, a, c, eps[a], -eps[c])
        return hat_bkp(b, n, window, c, a, -eps[c], eps[a]).neg()

    if route == "embedded":
        signs = list(product((1, -1), repeat=n))
    else:
        signs = [(1,) + rest for rest in product((1, -1), repeat=n - 1)]
    total = Series.zero(n, window)
    for order in cycle_orders(n):
        for eps in signs:
            term = None
            for a, c in cycle_pairs(order):
                f = factor(a, c, eps)
                term = f if term is None else term.mul(f)
            weight = 1 if route == "embedded" else -prod(eps[1:])
            total = total.add(term.clip(box).scale(weight))
    if route == "embedded":
        total = total.scale(F((-1) ** (n - 1), 2 ** (n + 1)))
        delta_kind = KernelKind.KP_DELTA
    else:
        delta_kind = KernelKind.BKP_DELTA
    if n == 2:
        delta = expand_kernel(delta_kind, n, window, 0, 1)
        total = total.sub(delta.clip(box))
    return total.clip(box)


ROUTES = {
    "embedded": embedded_npoint_series,
    "wangyang": wangyang_npoint_series,
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("seed, window_args", [
    (0, {}), (3, {}), (5, {}), (8, {}),
    # caps above -lo = 9 (18 and 12), which build the same factor tables,
    # and one below it (3): the projection is exact for every window
    (2, {"hi": 18}),
    (1, {"hi": 3}), (1, {"hi": 12}),
])
def test_routes_equal_sign_sum_reference(route, seed, window_args,
                                         monkeypatch):
    b = random_affine_b(seed)
    if window_args:
        _patch_cap(monkeypatch, window_args["hi"])
    for n in (1, 2, 3):
        got = ROUTES[route](b, n, 7).region()
        want = _sign_sum_reference(route, b, n, 7, window_args.get("hi"))
        # every nonzero term of the reference's all-negative box
        assert got == {exps: c for exps, c in want.coeffs.items() if c}


# route -> (series builder, index shift and index step of its table)
TABLE_ROUTES = {
    "embedded": (embedded_npoint_series, 1, 2),
    "wangyang": (wangyang_npoint_series, 0, 2),
    "kp": (lambda b, *args: kp_npoint(bkp_to_kp(b), *args), 1, 1),
}


@pytest.mark.parametrize("route", sorted(TABLE_ROUTES))
@pytest.mark.parametrize("window_args", [
    {}, {"hi": 3}, {"hi": 0}, {"hi": 1},
])
def test_all_keys_pass_matches_per_tail_columns(route, window_args,
                                                monkeypatch):
    # the one pass over the region npoint_table reads, against the per-tail
    # subset DP run on every tail the table reads; the caps 0 and 1 are too
    # small for some tables, which must not change the pass either
    build, shift, step = TABLE_ROUTES[route]
    if window_args:
        _patch_cap(monkeypatch, window_args["hi"])
    for seed in range(20):
        b = random_affine_b(seed)
        for n in range(1, 6):
            w = n + 2
            series = build(b, n, w)
            cap = w + n * shift
            parity = series._parity
            tails = {tuple(-i - shift for i in key[1:])
                     for key in odd_tuples(n, w, step)}
            want, broken = {}, False
            for tail in tails:
                for e0, v in cycle_column(series, tail).items():
                    if not v or -e0 - sum(tail) > cap:
                        continue
                    if parity is None or e0 % 2 == parity:
                        want[(e0, *tail)] = v * series._scale
                    elif series._head_checked:
                        broken = True
            if broken:
                with pytest.raises(TableCheckError, match="parity violation"):
                    series.region(cap)
                continue
            got = series.region(cap)
            assert {exps: got[exps] for exps in got
                    if exps[1:] in tails} == want, (seed, n)
            # the weight limits drop nothing the region holds
            if n <= 3:
                unchecked = copy.copy(series)
                unchecked._head_checked = False
                whole = unchecked.region()
                assert {exps: v for exps, v in whole.items()
                        if -sum(exps) <= cap} == unchecked.region(cap)


def test_head_parity_check_covers_the_table_region(monkeypatch):
    # a wangyang down table with a nonzero term at an even e_0 inside the
    # region npoint_table reads fails the table
    b = random_affine_b(0)
    bkp_factors = npoint._bkp_factors

    def patched(*args):
        up, down = bkp_factors(*args)
        return up, {**down, (-1, -2): F(1)}

    monkeypatch.setattr(npoint, "_bkp_factors", patched)
    series = wangyang_npoint_series(b, 2, 5)
    with pytest.raises(TableCheckError, match="parity violation") as error:
        npoint_table(series, 2, 5, index_shift=0)
    exps = ast.literal_eval(str(error.value).split(" at ")[1].split(":")[0])
    assert exps[0] % 2 == 0 and -sum(exps) <= 5


@pytest.mark.parametrize("seed, n, max_weight", [
    (0, 5, 9), (3, 5, 9), (0, 6, 7),
    (3, 8, 9),  # 5040 cycles; the one table key is (1, ..., 1)
])
def test_routes_match_oracle_at_larger_n(seed, n, max_weight):
    b = random_affine_b(seed)
    wy = wangyang_npoint_series(b, n, max_weight)
    emb = embedded_npoint_series(b, n, max_weight)
    table = npoint_table(wy, n, max_weight, index_shift=0)
    assert any(table.values())
    assert table == npoint_table(emb, n, max_weight, index_shift=1)
    assert table == oracle_npoint_table(b, n, max_weight)


def test_oracle_matches_wangyang_on_dense_instance_at_weight_15():
    # depth-15 chains scale the oracle's integers by up to 2^15
    b = random_affine_b(7, max_index=6, density=0.6)
    table = npoint_table(wangyang_npoint_series(b, 2, 15), 2, 15, index_shift=0)
    assert any(table.values())
    assert oracle_npoint_table(b, 2, 15) == table


def test_cycle_routes_refuse_large_n(monkeypatch):
    # the work estimate is checked before any factor table is built
    def build(*args):
        raise AssertionError("factor table built")

    monkeypatch.setattr(npoint, "_factor_table", build)
    limit = f"above the limit of {MAX_CYCLE_WORK}"
    b = random_affine_b(3)
    for route in (embedded_npoint_series, wangyang_npoint_series):
        with pytest.raises(ValueError, match=limit):
            route(b, 16, 16)
    with pytest.raises(ValueError, match=limit):
        kp_npoint(bkp_to_kp(b), 16, 16)
    # the raw relation reads every odd tail of [-10, -1]^7, not only the
    # one tail of the n=8 table
    with pytest.raises(ValueError, match=limit):
        compare_formulas(b, 8, 9)


def test_closed_formulas_build_no_series(monkeypatch):
    # the engine works on term tables from affine.kp_terms / bkp_terms only
    def build(*args, **kwargs):
        raise AssertionError("Series built")

    monkeypatch.setattr(Series, "__init__", build)
    b = random_affine_b(4)
    for n in (1, 2, 3):
        result = compare_formulas(b, n, 7)
        assert result.tables_agree and result.raw_relation_holds
