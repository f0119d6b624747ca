"""Free-fermion oracle: mode algebra, Hamiltonians, tau coefficients."""

from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpnpoint.affine import AffineKP, bkp_to_kp, validate_b
from bkpnpoint.fock import (
    VACUUM,
    FockVector,
    _apply_terms,
    _h_b_image,
    _h_kp_image,
    _phi_phi_terms,
    charge,
    check_square_relation,
    check_state_equality,
    connected_table_from_log,
    energy2,
    exp_bilinear_vacuum,
    exp_iteration_limit,
    needed_cutoff2,
    odd_tuples,
    phi_phi_generator,
    poly_log,
    poly_mul,
    psi_generator_embedded,
    psi_generator_kp,
    tau_coefficients_bkp,
    tau_coefficients_kp,
    tau_table,
    two_mode,
)
from bkpnpoint.sampling import random_affine_b
from reference import apply_mode_ops

F = Fraction


def test_hamiltonians_annihilate_vacuum():
    for k in (1, 2, 3, 4):
        assert _h_kp_image(VACUUM, k) == {}
        assert _h_b_image(VACUUM, k) == {}


def test_h_kp_moves_particle_to_vacuum():
    state = ((-1,), (1,))  # z^{-1/2} occupied, z^{1/2} vacated
    assert energy2(state) == 2 and charge(state) == 0
    assert _h_kp_image(state, 1) == {VACUUM: 1}


def test_phi_phi_on_vacuum_frozen():
    res, clipped = _apply_terms(_phi_phi_terms(0, 1, F(1)),
                                {VACUUM: F(1)}, 10)
    assert not clipped
    assert res == {
        ((-3, -1), ()): F(-1, 2),
        ((-1,), (1,)): F(-1, 2),
    }


def test_phi_phi_antisymmetric_combination_pairs_to_minus_one():
    # <0| H^B_1 (phi_0 phi_1 - phi_1 phi_0) |0> = -1
    vac = {VACUUM: F(1)}
    a, _ = _apply_terms(_phi_phi_terms(0, 1, F(1)), vac, 10)
    c, _ = _apply_terms(_phi_phi_terms(1, 0, F(-1)), vac, 10)
    vec = dict(a)
    for s, v in c.items():
        vec[s] = vec.get(s, F(0)) + v
    assert _apply_h_b(1, vec).get(VACUUM) == -1


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


def test_energy_cutoff_margin_is_required():
    # with cutoff2 = 2 * weight the charge-2 component of phi_0 phi_1 |0>
    # is dropped and the weight-1 coefficient degrades to -1/2
    b = validate_b([(1, 0, 1)])
    vec = exp_bilinear_vacuum(phi_phi_generator(b), 2)
    tau = tau_table(vec, "b", 1, odd_only=True)
    assert tau[(1,)] == F(-1, 2)
    assert needed_cutoff2(1) == 4
    vec = exp_bilinear_vacuum(phi_phi_generator(b), needed_cutoff2(1))
    tau = tau_table(vec, "b", 1, odd_only=True)
    assert tau[(1,)] == F(-1)


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
        {k: v for k, v in kp.entries.items()} | {(1, 1): kp.get(1, 1) + 1}
    )
    v1 = exp_bilinear_vacuum(psi_generator_kp(broken), 16)
    v2 = exp_bilinear_vacuum(psi_generator_embedded(b), 16)
    assert v1.coeffs != v2.coeffs


def test_cutoff_bump_does_not_change_tau():
    for seed in (1, 4):
        b = random_affine_b(seed)
        assert tau_coefficients_bkp(b, 6) == tau_coefficients_bkp(
            b, 6, cutoff_bump=2
        )


def test_exp_rejects_non_raising_operator():
    # psi_{1/2} psi*_{-1/2} and phi_0 phi_0
    with pytest.raises(ValueError, match="raise"):
        exp_bilinear_vacuum([((True, 1, False, 1), F(1))], 10)
    with pytest.raises(ValueError, match="raise"):
        exp_bilinear_vacuum(list(_phi_phi_terms(0, 0, F(1))), 10)


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
            for term in _phi_phi_terms(m, n, F(1)):
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
    """``H^B_k`` on a ``Fraction`` vector through the program's images."""
    out = {}
    for state, c in vec.items():
        for new, q in _h_b_image(state, k).items():
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
        got = tau_table(vec, "b", w, odd_only=True)
        assert got == _vector_tau_table(vec, "b", w, odd_only=True), w
        assert got[()] == 1
        vec = exp_bilinear_vacuum(psi_generator_kp(bkp_to_kp(b)), 2 * w)
        for odd_only in (True, False):
            assert tau_table(vec, "kp", w, odd_only) == _vector_tau_table(
                vec, "kp", w, odd_only
            ), (w, odd_only)


# -- test-only references: the Fraction exp loop and the mode-op chain ------


def _chain_apply_term(modes, k, vec, cutoff2):
    """``k * modes`` on ``vec`` through ``apply_mode_ops``, one ``Fraction``
    per state."""
    a_ins, a, b_ins, b = modes
    ops = (("+" if a_ins else "-", a), ("+" if b_ins else "-", b))
    out = {}
    clipped = False
    for state, c in vec.items():
        res = apply_mode_ops(state, ops)
        if res is None:
            continue
        new, sign = res
        if energy2(new) > cutoff2:
            clipped = True
            continue
        out[new] = out.get(new, F(0)) + c * k * sign
    return {s: c for s, c in out.items() if c != 0}, clipped


def _fraction_exp(terms, cutoff2):
    """``exp(sum terms)|0>`` term by term over ``Fraction``.

    Returns the vector and the last ``j`` with a nonzero term.
    """
    result = {VACUUM: F(1)}
    term = {VACUUM: F(1)}
    clipped = False
    j = 0
    while term:
        j += 1
        acc = {}
        for modes, k in terms:
            part, clip = _chain_apply_term(modes, k, term, cutoff2)
            clipped = clipped or clip
            for s, c in part.items():
                acc[s] = acc.get(s, F(0)) + c
        term = {s: c / j for s, c in acc.items() if c != 0}
        for s, c in term.items():
            result[s] = result.get(s, F(0)) + c
    return FockVector({s: c for s, c in result.items() if c != 0}, clipped), j - 1


def _generators(b):
    return (
        ("phi", phi_phi_generator(b)),
        ("kp", psi_generator_kp(bkp_to_kp(b))),
        ("embedded", psi_generator_embedded(b)),
    )


@pytest.mark.parametrize("seed", range(6))
def test_integer_exp_matches_fraction_loop(seed):
    b = random_affine_b(seed)
    flags = set()
    for cutoff2 in (6, needed_cutoff2(9)):
        for form, ops in _generators(b):
            got = exp_bilinear_vacuum(ops, cutoff2)
            want, _ = _fraction_exp(ops, cutoff2)
            assert got.coeffs == want.coeffs, (form, cutoff2)
            assert got.clipped == want.clipped, (form, cutoff2)
            flags.add(got.clipped)
    assert True in flags  # cutoff2 = 6 clips every form on these seeds


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
