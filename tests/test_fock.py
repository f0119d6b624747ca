"""Free-fermion oracle: mode algebra, Hamiltonians, tau coefficients."""

from fractions import Fraction
from math import factorial, isqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpnpoint import fock
from bkpnpoint.affine import AffineKP, bkp_to_kp, odd_tuples, validate_b
from bkpnpoint.fock import (
    VACUUM,
    FockVector,
    _apply_terms,
    _charged_need,
    _h_kp_image,
    _h_phi_image,
    _phi,
    _phi_pair,
    _rise,
    charge,
    check_square_relation,
    check_state_equality,
    connected_table_from_log,
    energy2,
    exp_bilinear_vacuum,
    exp_iteration_limit,
    exp_neutral_vacuum,
    neutral_generator,
    oracle_npoint_table,
    poly_log,
    poly_mul,
    psi_generator_embedded,
    psi_generator_kp,
    tau_coefficients_bkp,
    tau_table,
    two_mode,
)
from bkpnpoint.sampling import random_affine_b
from reference import (
    apply_mode_ops,
    h_b_image_charged,
    needed_cutoff2,
    phi_phi_generator,
    phi_phi_terms,
    tau_coefficients_bkp_charged,
    tau_coefficients_kp,
)

F = Fraction


def _apply_mode_terms(terms, vec, cutoff2):
    """``sum k * two_mode(...)`` over ``(modes, k)`` terms, cut at ``cutoff2``."""
    raised = [(modes, k, _rise(modes)) for modes, k in terms]
    return _apply_terms(raised, vec, cutoff2, two_mode, energy2)


def test_hamiltonians_annihilate_vacuum():
    for k in (1, 2, 3, 4):
        assert _h_kp_image(VACUUM, k) == {}
        assert h_b_image_charged(VACUUM, k) == {}
        assert _h_phi_image((), k) == {}


def test_h_kp_moves_particle_to_vacuum():
    state = ((-1,), (1,))  # z^{-1/2} occupied, z^{1/2} vacated
    assert energy2(state) == 2 and charge(state) == 0
    assert _h_kp_image(state, 1) == {VACUUM: 1}


def test_phi_phi_on_vacuum_frozen():
    res = _apply_mode_terms(phi_phi_terms(0, 1, F(1)), {VACUUM: F(1)}, 10)
    assert res == {
        ((-3, -1), ()): F(-1, 2),
        ((-1,), (1,)): F(-1, 2),
    }


def test_phi_phi_antisymmetric_combination_pairs_to_minus_one():
    # <0| H^B_1 (phi_0 phi_1 - phi_1 phi_0) |0> = -1
    vac = {VACUUM: F(1)}
    a = _apply_mode_terms(phi_phi_terms(0, 1, F(1)), vac, 10)
    c = _apply_mode_terms(phi_phi_terms(1, 0, F(-1)), vac, 10)
    vec = dict(a)
    for s, v in c.items():
        vec[s] = vec.get(s, F(0)) + v
    assert _apply_h_b(1, vec).get(VACUUM) == -1
    # on neutral states the combination is -2 phi_1 phi_0 |0>, and H^B_1
    # takes phi_1 phi_0 |0> to phi_0 phi_0 |0> = 1/2 (both in units of 1/2)
    assert _phi_pair((), 0, 1) == ((1, 0), -2)
    assert _h_phi_image((1, 0), 1) == {(): 1}


_modes2 = st.sampled_from([-7, -5, -3, -1, 1, 3, 5, 7])
_states = st.tuples(
    st.lists(st.sampled_from([-7, -5, -3, -1]), unique=True, max_size=3),
    st.lists(st.sampled_from([1, 3, 5, 7]), unique=True, max_size=3),
).map(lambda bh: (tuple(sorted(bh[0])), tuple(sorted(bh[1]))))


@settings(deadline=None, max_examples=120)
@given(_states, _modes2, _modes2)
def test_canonical_anticommutation(state, r2, s2):
    # {psi_r, psi*_s} = [r == -s] on every basis state
    def act(ops):
        res = apply_mode_ops(state, ops)
        return {} if res is None else {res[0]: res[1]}

    lhs = {}
    for ops in ((("+", r2), ("-", -s2)), (("-", -s2), ("+", r2))):
        for s, c in act(ops).items():
            lhs[s] = lhs.get(s, 0) + c
    lhs = {s: c for s, c in lhs.items() if c != 0}
    expected = {state: 1} if r2 == -s2 else {}
    assert lhs == expected


@settings(deadline=None, max_examples=60)
@given(_states, _modes2)
def test_double_insertion_vanishes(state, r2):
    first = apply_mode_ops(state, ((("+", r2)),))
    if first is None:
        return
    assert apply_mode_ops(first[0], ((("+", r2)),)) is None


def test_tau_frozen_single_coordinate():
    b = validate_b([(1, 0, 1)])
    tau = tau_coefficients_bkp(b, 3)
    assert tau == {(): F(1), (1,): F(-1)}


def test_one_point_table_frozen():
    b = validate_b([(1, 0, 1)])
    logf = poly_log(tau_coefficients_bkp(b, 5), 5)
    table = connected_table_from_log(logf, 1, 5)
    assert table == {(1,): F(-1), (3,): F(0), (5,): F(0)}


def _charged_bkp_tau(vec, max_weight):
    """The charged reference's tau walk on a charged BKP vector."""
    return tau_table(vec.coeffs, VACUUM, h_b_image_charged, 4, _charged_need,
                     max_weight, odd_only=True)


def test_energy_cutoff_margin_is_required():
    # on charged fermions, with cutoff2 = 2 * weight the charge-2 component
    # of phi_0 phi_1 |0> is dropped and the weight-1 coefficient degrades
    # to -1/2
    b = validate_b([(1, 0, 1)])
    vec = exp_bilinear_vacuum(phi_phi_generator(b), 2)
    assert _charged_bkp_tau(vec, 1)[(1,)] == F(-1, 2)
    assert needed_cutoff2(1) == 4
    vec = exp_bilinear_vacuum(phi_phi_generator(b), needed_cutoff2(1))
    assert _charged_bkp_tau(vec, 1)[(1,)] == F(-1)
    # on neutral fermions the state phi_0 phi_1 |0> has energy 1, so the
    # cut at the weight itself keeps it
    assert exp_neutral_vacuum(b, 1) == {(): F(1), (1, 0): F(-2)}
    assert tau_coefficients_bkp(b, 1) == {(): F(1), (1,): F(-1)}


def test_kp_two_point_from_single_coordinate():
    alpha = F(3, 2)
    kp = AffineKP({(0, 0): alpha})
    logf = poly_log(tau_coefficients_kp(kp, 2), 2)
    table = connected_table_from_log(logf, 2, 2)
    assert table == {(1, 1): -(alpha**2)}


def test_square_relation_frozen_and_random():
    assert check_square_relation(validate_b([(1, 0, 1)]), 6)
    for seed in range(4):
        assert check_square_relation(random_affine_b(seed), 6), seed


def test_state_equality_frozen_and_random():
    assert check_state_equality(validate_b([(1, 0, 1)]), 8)
    for seed in range(4):
        assert check_state_equality(random_affine_b(seed), 8), seed


def test_state_equality_fails_for_wrong_conversion():
    # dropping the quadratic correction term must break the identity
    b = validate_b([(1, 0, 1), (2, 0, F(1, 2))])
    kp = bkp_to_kp(b)
    assert check_state_equality(b, 8)
    from bkpnpoint.fock import psi_generator_kp, FockVector

    broken = AffineKP(
        {k: v for k, v in kp.entries.items()}
        | {(1, 1): kp.entries.get((1, 1), 0) + 1}
    )
    v1 = exp_bilinear_vacuum(psi_generator_kp(broken), 16)
    v2 = exp_bilinear_vacuum(psi_generator_embedded(b), 16)
    assert v1.coeffs != v2.coeffs


def test_tau_at_a_higher_weight_restricts_to_tau():
    # the neutral cut at the weight needs no margin: tau at W + 4, cut back
    # to the monomials of weight <= W, is tau at W
    for b in (random_affine_b(1), random_affine_b(4),
              random_affine_b(0, max_index=6, density=0.6)):
        for w in (6, 9):
            higher = tau_coefficients_bkp(b, w + 4)
            assert tau_coefficients_bkp(b, w) == {
                k: v for k, v in higher.items() if sum(k) <= w}, w


@pytest.mark.parametrize("b", [random_affine_b(seed) for seed in range(20)] + [
    random_affine_b(seed, max_index=6, density=0.6) for seed in range(5)])
def test_length_cut_walk_restricts_the_full_table(b):
    # the walk cut at max_len indices keeps exactly the monomials of the
    # full walk with at most max_len indices, each with its full value
    for w in (9, 13, 21):
        vec = exp_neutral_vacuum(b, w)
        full = tau_table(vec, (), _h_phi_image, 2, sum, w, True)
        for m in range(1, 6):
            got = tau_table(vec, (), _h_phi_image, 2, sum, w, True, max_len=m)
            assert got == {k: v for k, v in full.items() if len(k) <= m}, (
                w, m)


@pytest.mark.parametrize("seed", range(3))
def test_length_cut_walk_on_charged_states(seed):
    # the same cut by the charged need (E2 - charge) / 2, in all times
    b = random_affine_b(seed)
    vec = exp_bilinear_vacuum(psi_generator_kp(bkp_to_kp(b)), 18).coeffs
    for odd_only in (True, False):
        full = tau_table(vec, VACUUM, _h_kp_image, 1, _charged_need, 9,
                         odd_only)
        for m in range(1, 5):
            got = tau_table(vec, VACUUM, _h_kp_image, 1, _charged_need, 9,
                            odd_only, max_len=m)
            assert got == {k: v for k, v in full.items() if len(k) <= m}, (
                odd_only, m)


def test_exp_rejects_non_raising_operator():
    # psi_{1/2} psi*_{-1/2} and phi_0 phi_0
    with pytest.raises(ValueError, match="raise"):
        exp_bilinear_vacuum([((True, 1, False, 1), F(1))], 10)
    with pytest.raises(ValueError, match="raise"):
        exp_bilinear_vacuum(list(phi_phi_terms(0, 0, F(1))), 10)


def _admitted(term):
    try:
        exp_bilinear_vacuum([term], 4)
    except ValueError:
        return False
    return True


def test_raise_rule_admits_what_the_per_kind_rules_admitted():
    # phi_m phi_n needs m + n >= 1, psi_r psi*_s needs -(r2 + s2) >= 2
    for m in range(-6, 7):
        for n in range(-6, 7):
            for term in phi_phi_terms(m, n, F(1)):
                assert _admitted(term) == (m + n >= 1), (m, n, term)
    for r2 in range(-13, 14, 2):
        for s2 in range(-13, 14, 2):
            term = ((True, r2, False, -s2), F(1))
            assert _admitted(term) == (-(r2 + s2) >= 2), (r2, s2)


def test_raise_rule_admits_every_generator_term():
    for seed in range(50):
        b = random_affine_b(seed)
        for form, terms in _generators(b):
            for term in terms:
                assert _admitted(term), (seed, form, term)


def test_poly_log_inverts_exp():
    # tau = exp(t_1 + t_3) has log with exactly two terms
    from math import factorial

    tau = {}
    for a in range(0, 7):
        for b in range(0, 3):
            if a + 3 * b <= 6:
                key = tuple(sorted((1,) * a + (3,) * b))
                tau[key] = F(1, factorial(a) * factorial(b))
    logf = poly_log(tau, 6)
    assert logf == {(1,): F(1), (3,): F(1)}


def test_poly_log_requires_unit_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        poly_log({(1,): F(1)}, 3)


def test_odd_tuples_enumeration():
    assert list(odd_tuples(1, 5)) == [(1,), (3,), (5,)]
    assert list(odd_tuples(2, 6)) == [(1, 1), (1, 3), (1, 5), (3, 3)]
    assert list(odd_tuples(3, 3)) == [(1, 1, 1)]


def test_poly_mul_merges_and_truncates():
    p = {(1,): F(2), (): F(1)}
    assert poly_mul(p, p, 2) == {(): F(1), (1,): F(4), (1, 1): F(4)}
    assert poly_mul(p, p, 1) == {(): F(1), (1,): F(4)}


# -- test-only references: the operator scans and the Fraction-vector DFS ---


def _apply_h_b(k, vec):
    """``H^B_k`` on a ``Fraction`` vector through the charged reference's
    images."""
    out = {}
    for state, c in vec.items():
        for new, q in h_b_image_charged(state, k).items():
            out[new] = out.get(new, F(0)) + c * F(q, 4)
    return {s: c for s, c in out.items() if c != 0}


def _scan_apply_h_kp(k, vec):
    """``H_k`` trying ``mu -> mu + 2k`` on every mode ``|mu| <= E2 + 3``."""
    out = {}
    for state, c in vec.items():
        top = energy2(state) // 2 + 1
        for mu in range(-2 * top - 1, 2 * top + 2, 2):
            res = apply_mode_ops(state, (("+", mu + 2 * k), ("-", mu)))
            if res is None:
                continue
            new, sign = res
            out[new] = out.get(new, F(0)) + c * sign
    return {s: c for s, c in out.items() if c != 0}


def _scan_apply_h_b(k, vec):
    """``H^B_k`` scanning every ``|i| <= E2/2 + k + 2``, four families each."""
    out = {}
    quarter = F(1, 4)
    for state, c in vec.items():
        imax = energy2(state) // 2 + k + 2
        for i in range(-imax, imax + 1):
            base = -quarter if i % 2 == 0 else quarter
            s_i = 1 if i % 2 == 0 else -1
            s_ik = 1 if (i + k) % 2 == 0 else -1
            s_k = 1 if k % 2 == 0 else -1
            lo_ins, lo_rem = -2 * i - 1, 2 * i - 1
            hi_ins, hi_rem = 2 * (i + k) - 1, -2 * (i + k) - 1
            for ops, fam_sign in (
                ((("+", lo_ins), ("+", hi_ins)), 1),
                ((("+", lo_ins), ("-", hi_rem)), s_ik),
                ((("-", lo_rem), ("+", hi_ins)), s_i),
                ((("-", lo_rem), ("-", hi_rem)), s_k),
            ):
                res = apply_mode_ops(state, ops)
                if res is None:
                    continue
                new, sign = res
                out[new] = out.get(new, F(0)) + c * base * fam_sign * sign
    return {s: c for s, c in out.items() if c != 0}


def _vector_tau_table(vec, hamiltonian, max_weight, odd_only):
    """Descending DFS applying the Hamiltonian to whole ``Fraction`` vectors."""
    apply_h = {"kp": _scan_apply_h_kp, "b": _scan_apply_h_b}[hamiltonian]

    def prune(v, rem):
        return {s: c for s, c in v.items() if energy2(s) <= 2 * rem + charge(s)}

    start = {
        s: c for s, c in vec.coeffs.items() if hamiltonian == "b" or charge(s) == 0
    }
    out = {}

    def visit(v, prefix):
        value = v.get(VACUUM, F(0))
        if value != 0:
            mult = 1
            for idx in set(prefix):
                mult *= factorial(prefix.count(idx))
            out[tuple(sorted(prefix))] = value / mult
        rem = max_weight - sum(prefix)
        for idx in range(min(prefix[-1] if prefix else rem, rem), 0, -1):
            if odd_only and idx % 2 == 0:
                continue
            nxt = prune(apply_h(idx, v), rem - idx)
            if nxt:
                visit(nxt, prefix + (idx,))

    visit(prune(start, max_weight), ())
    return out


@pytest.mark.parametrize("seed", range(6))
def test_apply_h_b_matches_scan_on_oracle_states(seed):
    b = random_affine_b(seed)
    vec = exp_bilinear_vacuum(phi_phi_generator(b), needed_cutoff2(13))
    assert len(vec.coeffs) > 1
    for state in vec.coeffs:
        for k in range(1, 16):
            assert _apply_h_b(k, {state: F(1)}) == _scan_apply_h_b(
                k, {state: F(1)}
            ), (state, k)
    for k in (1, 2, 5):
        assert _apply_h_b(k, vec.coeffs) == _scan_apply_h_b(k, vec.coeffs), k


@settings(deadline=None, max_examples=150)
@given(_states, st.integers(1, 15), st.fractions(max_denominator=9))
def test_apply_h_b_matches_scan_on_random_states(state, k, c):
    assert _apply_h_b(k, {state: c}) == _scan_apply_h_b(k, {state: c})


@pytest.mark.parametrize("seed", range(6))
def test_tau_table_matches_vector_reference(seed):
    b = random_affine_b(seed)
    for w in (6, 11):
        vec = exp_bilinear_vacuum(phi_phi_generator(b), needed_cutoff2(w))
        got = _charged_bkp_tau(vec, w)
        assert got == _vector_tau_table(vec, "b", w, odd_only=True), w
        assert got[()] == 1
        vec = exp_bilinear_vacuum(psi_generator_kp(bkp_to_kp(b)), 2 * w)
        for odd_only in (True, False):
            got = tau_table(vec.coeffs, VACUUM, _h_kp_image, 1, _charged_need,
                            w, odd_only)
            assert got == _vector_tau_table(vec, "kp", w, odd_only), (
                w, odd_only)


# -- test-only references: the Fraction exp loop and the mode-op chain ------


def _chain_apply_term(modes, k, vec, cutoff2):
    """``k * modes`` on ``vec`` through ``apply_mode_ops``, one ``Fraction``
    per state."""
    a_ins, a, b_ins, b = modes
    ops = (("+" if a_ins else "-", a), ("+" if b_ins else "-", b))
    out = {}
    for state, c in vec.items():
        res = apply_mode_ops(state, ops)
        if res is None:
            continue
        new, sign = res
        if energy2(new) <= cutoff2:
            out[new] = out.get(new, F(0)) + c * k * sign
    return {s: c for s, c in out.items() if c != 0}


def _fraction_exp(terms, cutoff2):
    """``exp(sum terms)|0>`` term by term over ``Fraction``.

    Returns the vector and the last ``j`` with a nonzero term.
    """
    result = {VACUUM: F(1)}
    term = {VACUUM: F(1)}
    j = 0
    while term:
        j += 1
        acc = {}
        for modes, k in terms:
            for s, c in _chain_apply_term(modes, k, term, cutoff2).items():
                acc[s] = acc.get(s, F(0)) + c
        term = {s: c / j for s, c in acc.items() if c != 0}
        for s, c in term.items():
            result[s] = result.get(s, F(0)) + c
    return FockVector({s: c for s, c in result.items() if c != 0}), j - 1


def _generators(b):
    return (
        ("phi", phi_phi_generator(b)),
        ("kp", psi_generator_kp(bkp_to_kp(b))),
        ("embedded", psi_generator_embedded(b)),
    )


@pytest.mark.parametrize("seed", range(6))
def test_integer_exp_matches_fraction_loop(seed):
    b = random_affine_b(seed)
    for cutoff2 in (6, needed_cutoff2(9)):
        for form, ops in _generators(b):
            got = exp_bilinear_vacuum(ops, cutoff2)
            want, _ = _fraction_exp(ops, cutoff2)
            assert got.coeffs == want.coeffs, (form, cutoff2)
    # cutoff2 = 6 truncates every form on these seeds, exactly: it keeps
    # the states of the untruncated vector with E2 <= 6 and drops some
    for form, ops in _generators(b):
        cut = exp_bilinear_vacuum(ops, 6).coeffs
        whole = exp_bilinear_vacuum(ops, 200).coeffs
        assert cut == {s: c for s, c in whole.items() if energy2(s) <= 6}, form
        assert len(cut) < len(whole), form


def _both_triangles(b):
    """``sum_{n,m} a_{n,m} phi_m phi_n`` with every entry of both triangles
    as its own term, the generator written without the anticommutation."""
    return [t for (n, m), a in sorted(b.entries.items())
            for t in phi_phi_terms(m, n, a)]


@pytest.mark.parametrize("b", [random_affine_b(seed) for seed in range(30)] + [
    random_affine_b(seed, max_index=6, density=0.6) for seed in range(3)])
def test_phi_phi_generator_equals_both_triangles(b):
    for w in (9, 21):
        cutoff2 = needed_cutoff2(w)
        assert exp_bilinear_vacuum(phi_phi_generator(b), cutoff2).coeffs == (
            exp_bilinear_vacuum(_both_triangles(b), cutoff2).coeffs), w


def test_dense_vector_whole_at_the_weight_21_cutoff():
    # the dense instance's indices are at most 6, so its neutral vector has
    # top energy 0 + 1 + ... + 6 = 21 and the cut at weight 21 keeps all of
    # it; the charged reference needs 599 states and the cutoff E2 = 48
    b = random_affine_b(0, max_index=6, density=0.6)
    got = exp_neutral_vacuum(b, 21)
    assert len(got) == 46
    assert max(sum(s) for s in got) == 21
    assert got == exp_neutral_vacuum(b, 200)
    assert got != exp_neutral_vacuum(b, 20)
    assert len(exp_bilinear_vacuum(phi_phi_generator(b), 48).coeffs) == 599


@pytest.mark.parametrize("seed", range(6))
def test_exp_iterations_within_proven_bound(seed):
    b = random_affine_b(seed)
    for cutoff2 in (6, 13, needed_cutoff2(9), needed_cutoff2(13)):
        bound = (cutoff2 + isqrt(cutoff2)) // 2
        assert exp_iteration_limit(cutoff2) == bound + 1
        for form, ops in _generators(b):
            _, last = _fraction_exp(ops, cutoff2)
            assert last <= bound, (form, cutoff2, last)


def test_exp_iteration_bound_leading_term_is_reached():
    # psi_m psi*_{-(m+2)} moves a particle from mode m+2 down to m and
    # raises E2 by 2, so the sea can be lowered one step at a time up to
    # the cutoff: cutoff2 / 2 nonzero terms
    terms = [((True, m, False, m + 2), F(1)) for m in range(-15, 15, 2)]
    for cutoff2 in (12, 13, 22):
        _, last = _fraction_exp(terms, cutoff2)
        assert last == cutoff2 // 2 < exp_iteration_limit(cutoff2)
        assert exp_bilinear_vacuum(terms, cutoff2).coeffs == _fraction_exp(
            terms, cutoff2
        )[0].coeffs


@pytest.mark.parametrize("seed", range(3))
def test_length_capped_log_is_the_full_log_restricted(seed):
    b = random_affine_b(seed)
    for w in (7, 15):
        for tau in (
            tau_coefficients_bkp(b, w),
            tau_coefficients_kp(bkp_to_kp(b), min(w, 10)),
        ):
            full = poly_log(tau, w)
            for n in range(1, 6):
                capped = poly_log(tau, w, n)
                assert capped == {k: v for k, v in full.items() if len(k) <= n}


def _kernel_sequences(state, k):
    """Every two-op sequence ``H^B_k`` and ``H_k`` can try on ``state``."""
    k2 = 2 * k
    imax = energy2(state) // 2 + k + 2
    for i in range(-imax, imax + 1):
        for lo_ins in (True, False):
            for hi_ins in (True, False):
                yield (lo_ins, -2 * i - 1 if lo_ins else 2 * i - 1,
                       hi_ins, 2 * (i + k) - 1 if hi_ins else -2 * (i + k) - 1)
    for mu in range(-2 * imax - 1, 2 * imax + 2, 2):
        yield True, mu + k2, False, mu


@pytest.mark.parametrize("seed", range(6))
def test_two_mode_kernel_matches_mode_op_chain(seed):
    b = random_affine_b(seed)
    states = set()
    for _, ops in _generators(b):
        states |= set(exp_bilinear_vacuum(ops, needed_cutoff2(7)).coeffs)
    for state in states:
        for k in range(1, 16):
            for a_ins, a, b_ins, b2 in _kernel_sequences(state, k):
                ops = (("+" if a_ins else "-", a), ("+" if b_ins else "-", b2))
                assert two_mode(state, a_ins, a, b_ins, b2) == apply_mode_ops(
                    state, ops
                ), (state, ops)


@settings(deadline=None, max_examples=300)
@given(_states, st.booleans(), _modes2, st.booleans(), _modes2)
def test_two_mode_kernel_matches_chain_on_random_states(state, a_ins, a, b_ins, b):
    # covers a == b with either pair of kinds
    ops = (("+" if a_ins else "-", a), ("+" if b_ins else "-", b))
    assert two_mode(state, a_ins, a, b_ins, b) == apply_mode_ops(state, ops)


# -- neutral fermions: the kernels against the rules ------------------------


def _ordered(word):
    """``phi_{w_1} .. phi_{w_r} |0>`` on the basis ``phi_S|0>`` by the rules
    alone: ``{phi_m, phi_n} = (-1)^m delta_{m+n,0}``, ``phi_0^2 = 1/2``,
    ``phi_n^2 = 0`` for ``n != 0`` and ``phi_n|0> = 0`` for ``n < 0``."""
    if word and word[-1] < 0:
        return {}
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x == y:
            if x != 0:
                return {}
            return {s: c / 2 for s, c in _ordered(word[:i] + word[i + 2:]).items()}
        if x < y:
            out = {s: -c for s, c in
                   _ordered(word[:i] + (y, x) + word[i + 2:]).items()}
            if x + y == 0:
                for s, c in _ordered(word[:i] + word[i + 2:]).items():
                    out[s] = out.get(s, 0) + (-c if x & 1 else c)
            return {s: c for s, c in out.items() if c != 0}
    return {word: F(1)}


def _halves(res):
    """A neutral kernel result, ``None`` or ``(state, coefficient * 2)``, as
    a ``Fraction`` vector."""
    return {} if res is None else {res[0]: F(res[1], 2)}


def _phi_on(vec, x):
    """``phi_x`` on a ``Fraction`` vector through the program's kernel."""
    out = {}
    for state, c in vec.items():
        for new, v in _halves(_phi(state, x)).items():
            out[new] = out.get(new, 0) + c * v
    return {s: c for s, c in out.items() if c != 0}


def _h_on(vec, k):
    """``H^B_k`` on a ``Fraction`` vector through the program's kernel."""
    out = {}
    for state, c in vec.items():
        for new, v in _h_phi_image(state, k).items():
            out[new] = out.get(new, 0) + c * F(v, 2)
    return {s: c for s, c in out.items() if c != 0}


def _add(u, v, scale=1):
    out = dict(u)
    for s, c in v.items():
        out[s] = out.get(s, 0) + scale * c
    return {s: c for s, c in out.items() if c != 0}


_neutral_states = st.lists(st.integers(0, 9), unique=True, max_size=6).map(
    lambda entries: tuple(sorted(entries, reverse=True)))
_indices = st.integers(-10, 10)
_odd_k = st.integers(0, 5).map(lambda i: 2 * i + 1)


@settings(deadline=None, max_examples=300)
@given(_neutral_states, _indices)
def test_phi_kernel_matches_rules(state, x):
    assert _halves(_phi(state, x)) == _ordered((x,) + state)


@settings(deadline=None, max_examples=200)
@given(_neutral_states, st.integers(0, 9), st.integers(1, 10))
def test_phi_pair_kernel_matches_rules(state, m, n):
    if n <= m:
        m, n = n - 1, m + 1
    assert _halves(_phi_pair(state, m, n)) == _ordered((m, n) + state)


@settings(deadline=None, max_examples=300)
@given(_neutral_states, _indices, _indices)
def test_phi_kernel_anticommutes(state, x, y):
    vec = {state: F(1)}
    lhs = _add(_phi_on(_phi_on(vec, y), x), _phi_on(_phi_on(vec, x), y))
    want = {state: F(-1) if x & 1 else F(1)} if x + y == 0 else {}
    assert lhs == want
    if x == 0:  # phi_0^2 = 1/2
        assert _phi_on(_phi_on(vec, 0), 0) == {state: F(1, 2)}


@settings(deadline=None, max_examples=300)
@given(_neutral_states, _odd_k)
def test_h_phi_image_matches_rules(state, k):
    # [H^B_k, phi_m] = phi_{m-k} and H^B_k |0> = 0 give the sum over entries
    want = {}
    for i, s in enumerate(state):
        want = _add(want, _ordered(state[:i] + (s - k,) + state[i + 1:]))
    assert _h_on({state: F(1)}, k) == want


@settings(deadline=None, max_examples=300)
@given(_neutral_states, _odd_k, _indices)
def test_h_phi_commutator_with_phi(state, k, m):
    vec = {state: F(1)}
    lhs = _add(_h_on(_phi_on(vec, m), k), _phi_on(_h_on(vec, k), m), -1)
    assert lhs == _phi_on(vec, m - k)


def _rules_exp(b, max_weight):
    """``exp(sum a_{n,m} phi_m phi_n)|0>`` over ``Fraction``, term by term,
    both triangles and every product by ``_ordered``, cut at energy
    ``max_weight``."""
    result = {(): F(1)}
    term = {(): F(1)}
    j = 0
    while term:
        j += 1
        acc = {}
        for (n, m), a in b.entries.items():
            for state, c in term.items():
                for new, v in _ordered((m, n) + state).items():
                    if sum(new) <= max_weight:
                        acc[new] = acc.get(new, 0) + a * c * v
        term = {s: c / j for s, c in acc.items() if c != 0}
        result = _add(result, term)
    return result


@pytest.mark.parametrize("seed", range(6))
def test_neutral_exp_matches_rules(seed):
    b = random_affine_b(seed)
    for w in (5, 9):
        assert exp_neutral_vacuum(b, w) == _rules_exp(b, w), w


# -- neutral fermions: the tau against the charged reference -----------------

# the supports of the benchmark's oracle workload, and the wide instance
ORACLE_SUPPORTS = (
    ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1), (5, 2),
     (5, 3), (6, 1), (6, 2), (6, 3), (6, 4)),
    ((1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (5, 0), (5, 1), (5, 2), (5, 3),
     (5, 4), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5)),
)


def _on_support(support, seed):
    rng = Random(seed)
    return validate_b([(n, m, F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                rng.randint(1, 9))) for n, m in support])


@pytest.mark.parametrize("w", (7, 13))
def test_neutral_tau_equals_charged_reference_on_random_instances(w):
    for seed in range(200):
        b = random_affine_b(seed)
        assert tau_coefficients_bkp(b, w) == tau_coefficients_bkp_charged(
            b, w), seed


@pytest.mark.parametrize("b", [
    _on_support(ORACLE_SUPPORTS[0], 7),
    _on_support(ORACLE_SUPPORTS[1], 8),
    random_affine_b(7, max_index=8, density=0.5),
], ids=["oracle-support-0", "oracle-support-1", "wide"])
def test_neutral_tau_equals_charged_reference_at_weight_21(b):
    assert tau_coefficients_bkp(b, 21) == tau_coefficients_bkp_charged(b, 21)


def test_flipped_contraction_sign_fails_square_relation(monkeypatch):
    # tau_B^2 on neutral fermions against tau_KP on charged ones: a neutral
    # kernel with the sign of {phi_x, phi_{-x}}, x < 0, flipped must fail
    b = random_affine_b(0, max_index=6, density=0.6)
    assert check_square_relation(b, 9)
    phi = fock._phi

    def flipped(state, x):
        res = phi(state, x)
        if res is None or x >= 0:
            return res
        return res[0], -res[1]

    monkeypatch.setattr(fock, "_phi", flipped)
    assert not check_square_relation(b, 9)


def test_index_cutoff_drops_only_terms_above_the_weight():
    # a coordinate with n + m > W raises the energy above the cut, so adding
    # one leaves the table as it is and the exp gets the same terms
    rng = Random(0)
    w = 7
    for seed in range(50):
        b = random_affine_b(seed)
        entries = {k: v for k, v in b.entries.items() if k[0] > k[1]}
        for _ in range(rng.randint(1, 4)):
            top = rng.choice((8, 20, 10**6))
            n = rng.randint((w + 3) // 2, top)
            m = rng.randint(max(0, w + 1 - n), n - 1)
            entries.setdefault((n, m), F(rng.randint(1, 9), rng.randint(1, 9)))
        wide = validate_b(entries)
        assert neutral_generator(wide, w) == neutral_generator(b, w), seed
        for n in (1, 2, 3):
            assert oracle_npoint_table(wide, n, w) == oracle_npoint_table(
                b, n, w), (seed, n)
