"""Unit tests for the bound catalog."""

import copy
import itertools
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from chanuq import linalg
from chanuq.bounds import (_grid_terms, _sq_norms, bound_report, dou_bounds, fine_grained_terms,
                           heisenberg_bound, lb1_eq14, lb_eq13, luo_bound,
                           schrodinger_bound, thm1_bound, thm2_bound,
                           thm3_bound, thm4_bound)
import chanuq.bounds
import chanuq.measures
from chanuq.errors import (BoundViolationError, DimensionMismatchError,
                           NotHermitianError, NumericError)
from chanuq.ensembles import SplitMix64, random_channel, random_density, random_operator
from chanuq.measures import (_side, _Terms, abs_variance, channel_measures, operator_u,
                             sym_abs_variance)
from chanuq.objects import KrausChannel, _stack_states, center_operator, make_channel, make_density

import oracles
from oracles import I2, SX, SY, ketbra, random_triples

THM1_AT_HALF_HALF = 0.00022997852752233925  # frozen from the reference script


@pytest.fixture
def werner1():
    return make_density(oracles.werner_matrix(1.0))


@pytest.fixture
def blocks0():
    return make_density(oracles.rho_theta_matrix(0.0))


def ch_e(p):
    return make_channel(oracles.e_kraus(p))


def ch_f(q):
    return make_channel(oracles.f_kraus(q))


def identity_channel(dim=4):
    return make_channel([np.eye(dim)])


# -- observable-level ---------------------------------------------------------

def test_heisenberg_ground_state():
    rho = make_density(ketbra(0, 0))
    assert heisenberg_bound(rho, SX, SY) == pytest.approx(1.0)


def test_heisenberg_same_observable():
    rho = make_density(ketbra(0, 0))
    assert heisenberg_bound(rho, SX, SX) == 0.0


def test_heisenberg_mixed_state_vanishes():
    rho = make_density(I2 / 2)
    assert heisenberg_bound(rho, SX, SY) == pytest.approx(0.0, abs=1e-15)


def test_heisenberg_rejects_non_hermitian():
    rho = make_density(I2 / 2)
    with pytest.raises(NotHermitianError):
        heisenberg_bound(rho, ketbra(0, 1), SX)


def test_schrodinger_ground_state():
    # the anticommutator term of the centered paulis vanishes here
    rho = make_density(ketbra(0, 0))
    assert schrodinger_bound(rho, SX, SY) == pytest.approx(1.0)


def test_schrodinger_same_observable_gives_variance_squared():
    rng = np.random.default_rng(30)
    rho = make_density(oracles.rand_rho(rng, 3))
    a = oracles.rand_op(rng, 3, hermitian=True)
    v = abs_variance(rho, a)
    assert schrodinger_bound(rho, a, a) == pytest.approx(v * v, rel=1e-10)


def test_luo_mixed_state_rhs_vanishes():
    rho = make_density(I2 / 2)
    lhs, rhs = luo_bound(rho, SX, SY)
    assert rhs == pytest.approx(0.0, abs=1e-15)
    assert lhs >= -1e-15


def test_luo_holds_on_random_observables():
    rng = np.random.default_rng(31)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim))
        a = oracles.rand_op(rng, dim, hermitian=True)
        b = oracles.rand_op(rng, dim, hermitian=True)
        lhs, rhs = luo_bound(rho, a, b)
        assert lhs - rhs >= -1e-9


# -- operator-level -----------------------------------------------------------

def test_dou_reduces_to_observable_bounds_for_hermitian():
    rng = np.random.default_rng(32)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim))
        a = oracles.rand_op(rng, dim, hermitian=True)
        b = oracles.rand_op(rng, dim, hermitian=True)
        comm, brackets, u_comm = dou_bounds(rho, a, b)
        assert comm == pytest.approx(heisenberg_bound(rho, a, b), abs=1e-12)
        assert brackets == pytest.approx(schrodinger_bound(rho, a, b), abs=1e-12)
        assert u_comm == pytest.approx(luo_bound(rho, a, b)[1], abs=1e-12)


def test_dou_same_operator_commutator_vanishes():
    rng = np.random.default_rng(33)
    rho = make_density(oracles.rand_rho(rng, 3))
    k = oracles.rand_op(rng, 3)
    comm, _, _ = dou_bounds(rho, k, k)
    assert comm == pytest.approx(0.0, abs=1e-13)


def test_dou_ladder_example():
    rho = make_density(ketbra(0, 0))
    comm, _, _ = dou_bounds(rho, ketbra(0, 1), ketbra(1, 0))
    assert comm == pytest.approx(0.25)


def test_dou_validity_on_random_operators():
    rng = np.random.default_rng(34)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim))
        k = oracles.rand_op(rng, dim)
        l = oracles.rand_op(rng, dim)
        comm, brackets, u_comm = dou_bounds(rho, k, l)
        lhs_v = sym_abs_variance(rho, k) * sym_abs_variance(rho, l)
        lhs_u = operator_u(rho, k) * operator_u(rho, l)
        assert lhs_v - comm >= -1e-9
        assert lhs_v - brackets >= -1e-9
        assert lhs_u - u_comm >= -1e-9


@pytest.mark.parametrize("dim", range(2, 9))
def test_dou_bounds_stacked_pass_equals_lone_products_bitwise(dim):
    # dou_bounds centers K and L in one call, forms its brackets in one stacked pass
    # and takes their traces in one product; each value keeps the bits of the lone
    # operators' products
    gen = SplitMix64(4040 + dim)
    for i in range(10):
        rho = random_density(dim, 1 + i % dim, gen)
        k, l = random_operator(dim, gen), random_operator(dim, gen)
        k0, l0 = center_operator(k, rho), center_operator(l, rho)

        def term(m):
            return 0.25 * abs(complex(np.trace(rho.matrix @ m))) ** 2

        sym_comm = term(linalg.sym_commutator(k, l))
        want = (term(linalg.commutator(k, l)),
                sym_comm + term(linalg.sym_anticommutator(k0, l0)), sym_comm)
        assert dou_bounds(rho, k, l) == want


def test_dou_uncentered_anticommutator_would_be_invalid():
    # with K = L = I on a mixed state the raw anticommutator term is
    # positive while both variances vanish; the centered form stays zero
    rho = make_density(I2 / 2)
    _, brackets, _ = dou_bounds(rho, I2, I2)
    assert brackets == pytest.approx(0.0, abs=1e-15)
    raw_term = 0.25 * abs(np.trace(rho.matrix @ (2 * I2))) ** 2
    assert raw_term > 0.9


def test_overflow_in_unread_brackets_gives_no_warning():
    # a = b = 1.2e154 I: {a, b} overflows, but neither relation reads it; the commutator
    # and the centered anticommutator they do read are zero
    rho, a = make_density(I2 / 2), 1.2e154 * I2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert schrodinger_bound(rho, a, a) == 0.0
        assert dou_bounds(rho, a, a) == (0.0, 0.0, 0.0)


HUGE_DIAGONAL = np.diag([1e308, -1e308])
# they commute, so only the centered anticommutator term overflows
HUGE_COMMUTING = (np.diag([1e160, 0.0]), np.diag([0.0, 1e160]))
# finite brackets, whose trace with the state overflows
HUGE_TRACED = (1e160 * ketbra(0, 1), 1e160 * SX)


@pytest.mark.parametrize("relation, a, b", [
    (heisenberg_bound, HUGE_DIAGONAL, HUGE_DIAGONAL),
    (schrodinger_bound, HUGE_DIAGONAL, HUGE_DIAGONAL),
    (schrodinger_bound, *HUGE_COMMUTING),
    (luo_bound, HUGE_DIAGONAL, HUGE_DIAGONAL),
    (dou_bounds, HUGE_DIAGONAL, HUGE_DIAGONAL),
    (dou_bounds, *HUGE_COMMUTING),
    (dou_bounds, *HUGE_TRACED),
], ids=["heisenberg", "schrodinger", "schrodinger-commuting", "luo", "dou", "dou-commuting",
        "dou-traced"])
def test_overflowing_operator_relations_raise(relation, a, b):
    # the operands are finite, but their products overflow:
    # NaN or inf must not come back
    rho = make_density(I2 / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning comes before the error
        with pytest.raises(NumericError):
            relation(rho, a, b)


# -- channel bounds: thm1 and thm2 -------------------------------------------

def test_thm1_identity_channels(werner1):
    assert thm1_bound(werner1, identity_channel(), identity_channel()) == 0.0


def test_thm1_frozen_value(werner1):
    assert thm1_bound(werner1, ch_e(0.5), ch_f(0.5)) == pytest.approx(
        THM1_AT_HALF_HALF, abs=1e-12)


def test_thm2_frozen_value(werner1):
    assert thm2_bound(werner1, ch_e(0.5), ch_f(0.5)) == pytest.approx(
        THM1_AT_HALF_HALF, abs=1e-12)


def test_thm1_maximally_mixed_drops_commutator_term():
    # against I/d the commutator trace vanishes, so thm1 equals its
    # centered-anticommutator term alone
    rng = np.random.default_rng(35)
    rho = make_density(np.eye(3) / 3)
    ops_e = oracles.rand_kraus(rng, 3, 2)
    ops_f = oracles.rand_kraus(rng, 3, 2)
    e0 = [oracles.center(e, rho.matrix) for e in ops_e]
    f0 = [oracles.center(f, rho.matrix) for f in ops_f]
    anti = sum(oracles.tr(rho.matrix @ (e @ f + f @ e)) for e in e0 for f in f0)
    expected = abs(anti) ** 2 / 16.0
    assert thm1_bound(rho, make_channel(ops_e), make_channel(ops_f)) == pytest.approx(
        expected, rel=1e-12)


def test_thm1_thm2_match_oracle_on_random_triples():
    for rho_m, ops_e, ops_f in random_triples(36):
        rho = make_density(rho_m)
        phi, psi = make_channel(ops_e), make_channel(ops_f)
        assert thm1_bound(rho, phi, psi) == pytest.approx(
            oracles.thm1(rho_m, ops_e, ops_f), abs=1e-11)
        assert thm2_bound(rho, phi, psi) == pytest.approx(
            oracles.thm2(rho_m, ops_e, ops_f), abs=1e-11)


def test_thm2_hermitian_kraus_reduces_to_plain_brackets():
    # with Hermitian Kraus operators the symmetrized brackets coincide
    # with the plain ones, so thm2 equals the plain-bracket evaluation
    rho = make_density(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    ops_e = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    ops_f = [plus, minus]
    phi, psi = make_channel(ops_e), make_channel(ops_f)
    e0 = [oracles.center(e, rho.matrix) for e in ops_e]
    f0 = [oracles.center(f, rho.matrix) for f in ops_f]
    anti = sum(oracles.tr(rho.matrix @ (e @ f + f @ e)) for e in e0 for f in f0)
    comm = sum(oracles.tr(rho.matrix @ (e @ f - f @ e)) for e in e0 for f in f0)
    expected = (abs(anti) ** 2 + abs(comm) ** 2) / 16.0
    assert thm2_bound(rho, phi, psi) == pytest.approx(expected, rel=1e-12)


# -- prior channel bounds -----------------------------------------------------

def test_lb_eq13_vanishes_for_werner_grid(werner1):
    for p in np.linspace(0, 1, 11):
        for q in np.linspace(0, 1, 11):
            assert lb_eq13(werner1, ch_e(float(p)), ch_f(float(q))) <= 1e-12


def test_lb_eq13_blocks_corner(blocks0):
    assert lb_eq13(blocks0, ch_e(1.0), ch_f(1.0)) == pytest.approx(0.125, abs=1e-12)


def test_lb_eq13_identity_channels(werner1):
    assert lb_eq13(werner1, identity_channel(), identity_channel()) == 0.0


def test_lb1_eq14_werner_corner(werner1):
    assert lb1_eq14(werner1, ch_e(1.0), ch_f(1.0)) == pytest.approx(5 / 72, abs=1e-12)


def test_lb1_eq14_blocks_corner_literal_sum(blocks0):
    # the literal double sum evaluates to 1/8 here, not the tighter
    # closed-form surface shipped with the example (1/2); see the module
    # docs of examples.example2_closed_forms
    assert lb1_eq14(blocks0, ch_e(1.0), ch_f(1.0)) == pytest.approx(0.125, abs=1e-12)


def test_lb1_eq14_maximally_mixed_vanishes():
    rho = make_density(np.eye(4) / 4)
    assert lb1_eq14(rho, ch_e(0.8), ch_f(0.6)) == pytest.approx(0.0, abs=1e-15)


def test_lb13_lb14_match_oracle_on_random_triples():
    for rho_m, ops_e, ops_f in random_triples(37):
        rho = make_density(rho_m)
        phi, psi = make_channel(ops_e), make_channel(ops_f)
        assert lb_eq13(rho, phi, psi) == pytest.approx(
            oracles.lb13(rho_m, ops_e, ops_f), abs=1e-11)
        assert lb1_eq14(rho, phi, psi) == pytest.approx(
            oracles.lb14(rho_m, ops_e, ops_f), abs=1e-11)


# -- fine-grained terms and thm3 ----------------------------------------------

def test_fine_grained_maximally_mixed():
    rho = make_density(np.eye(4) / 4)
    terms = fine_grained_terms(rho, ch_e(0.7), ch_f(0.4))
    assert terms.i1 == pytest.approx(0.0, abs=1e-15)
    assert terms.i1_tilde == pytest.approx(0.0, abs=1e-15)


def test_fine_grained_identity_channels(werner1):
    terms = fine_grained_terms(werner1, identity_channel(), identity_channel())
    assert terms.i1 == terms.i1_tilde == terms.i0 == terms.i0_tilde == 0.0


def test_fine_grained_werner_corner(werner1):
    terms = fine_grained_terms(werner1, ch_e(1.0), ch_f(1.0), 0)
    root = np.sqrt(terms.i1 * terms.i1_tilde)
    assert root == pytest.approx(np.sqrt(195) / 72, abs=1e-12)
    assert terms.i0 == pytest.approx(5 / 24, abs=1e-12)
    assert terms.i0_tilde == pytest.approx(5 / 24, abs=1e-12)


def test_fine_grained_monotone_under_i0():
    rng = np.random.default_rng(38)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim))
        phi = make_channel(oracles.rand_kraus(rng, dim, int(rng.integers(1, 4))))
        psi = make_channel(oracles.rand_kraus(rng, dim, int(rng.integers(1, 4))))
        t = int(rng.integers(0, dim))
        terms = fine_grained_terms(rho, phi, psi, t)
        assert -1e-12 <= terms.i1 <= terms.i0 + 1e-9
        assert -1e-12 <= terms.i1_tilde <= terms.i0_tilde + 1e-9


def test_fine_grained_basis_index_range(werner1):
    with pytest.raises(IndexError):
        fine_grained_terms(werner1, ch_e(0.5), ch_f(0.5), 4)


@pytest.mark.parametrize("index", [True, np.True_, 1.0, np.int64(1)],
                         ids=["bool", "np-bool", "float", "np-int64"])
def test_fine_grained_basis_index_must_be_an_integer(werner1, index):
    # a bool passed the range check as 1, then indexed the brackets as a mask
    pair = ch_e(0.5), ch_f(0.5)
    families = [ch_e(0.2), ch_e(0.5)], [ch_f(0.3), ch_f(0.6)]
    if not isinstance(index, np.integer):
        for args in (pair, families):
            with pytest.raises(IndexError, match="out of range"):
                fine_grained_terms(werner1, *args, index)
            with pytest.raises(IndexError, match="out of range"):
                bound_report(werner1, *args, basis_index=index)
        return
    assert fine_grained_terms(werner1, *pair, index) == fine_grained_terms(werner1, *pair, 1)
    assert bound_report(werner1, *pair, basis_index=index) == bound_report(werner1, *pair, 1)
    got, want = (vars(bound_report(werner1, *families, t)) for t in (index, 1))
    assert oracles.measure_bits(got.pop("measures")) == oracles.measure_bits(want.pop("measures"))
    assert all(np.array_equal(got[name], want[name]) for name in want)


def test_thm3_blocks_corner(blocks0):
    assert thm3_bound(blocks0, ch_e(1.0), ch_f(1.0), 0) == pytest.approx(
        31 / 128, abs=1e-12)


def test_thm3_vanishes_at_trivial_channel(werner1, blocks0):
    for rho in (werner1, blocks0):
        assert thm3_bound(rho, ch_e(0.0), ch_f(0.7)) <= 1e-12
        assert thm3_bound(rho, ch_e(0.7), ch_f(0.0)) <= 1e-12


def test_thm3_maximally_mixed():
    rho = make_density(np.eye(4) / 4)
    assert thm3_bound(rho, ch_e(0.9), ch_f(0.9)) == pytest.approx(0.0, abs=1e-15)


def test_thm3_saturates_for_diagonal_channels():
    # diagonal Kraus operators keep every basis vector an eigenvector, so
    # the commutator columns vanish and each fine-grained gap is exactly 0
    rho = make_density(np.diag([0.7, 0.3]).astype(complex))
    ops_e = [np.diag([1.0, np.sqrt(0.4)]).astype(complex),
             np.diag([0.0, np.sqrt(0.6)]).astype(complex)]
    ops_f = [np.diag([np.sqrt(0.2), 1.0]).astype(complex),
             np.diag([np.sqrt(0.8), 0.0]).astype(complex)]
    phi, psi = make_channel(ops_e), make_channel(ops_f)
    terms = fine_grained_terms(rho, phi, psi, 0)
    assert terms.i0 - terms.i1 <= 1e-10
    assert terms.i0_tilde - terms.i1_tilde <= 1e-10
    m_phi = channel_measures(rho, phi)
    m_psi = channel_measures(rho, psi)
    assert thm3_bound(rho, phi, psi, 0) == pytest.approx(
        m_phi.u_abs * m_psi.u_abs, abs=1e-10)


# -- thm4 ----------------------------------------------------------------------

def test_thm4_werner_is_q_independent(werner1):
    values = [thm4_bound(werner1, ch_e(1.0), ch_f(float(q)))
              for q in np.linspace(0, 1, 7)]
    for v in values:
        assert v == pytest.approx(5 / 36, abs=1e-12)


def test_thm4_blocks_corner(blocks0):
    assert thm4_bound(blocks0, ch_e(1.0), ch_f(1.0)) == pytest.approx(0.375, abs=1e-12)


def test_thm4_maximally_mixed():
    rho = make_density(np.eye(4) / 4)
    assert thm4_bound(rho, ch_e(0.5), ch_f(0.5)) == pytest.approx(0.0, abs=1e-15)


def test_thm4_first_term_centering_invariance():
    rng = np.random.default_rng(39)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        rho_m = oracles.rand_rho(rng, dim)
        ops_f = oracles.rand_kraus(rng, dim, 2)
        s = oracles.sqrtm_psd(rho_m)
        f0 = [oracles.center(f, rho_m) for f in ops_f]
        for fi, fi0 in zip(ops_f, f0):
            for fj, fj0 in zip(ops_f, f0):
                raw = abs(oracles.tr(oracles.dag(s @ fi - fi @ s) @ (s @ fj + fj @ s)))
                cen = abs(oracles.tr(oracles.dag(s @ fi0 - fi0 @ s)
                                     @ (s @ fj0 + fj0 @ s)))
                assert raw == pytest.approx(cen, abs=1e-10)


def test_thm4_matches_oracle_on_random_triples():
    for rho_m, ops_e, ops_f in random_triples(40):
        rho = make_density(rho_m)
        assert thm4_bound(rho, make_channel(ops_e), make_channel(ops_f)) == \
            pytest.approx(oracles.thm4(rho_m, ops_e, ops_f), abs=1e-11)


def test_thm3_matches_oracle_on_random_triples():
    for k, (rho_m, ops_e, ops_f) in enumerate(random_triples(42)):
        rho = make_density(rho_m)
        phi, psi = make_channel(ops_e), make_channel(ops_f)
        t = k % rho.dim
        terms = fine_grained_terms(rho, phi, psi, t)
        expected = oracles.fine_grained(rho_m, ops_e, ops_f, t)
        got = (terms.i1, terms.i1_tilde, terms.i0, terms.i0_tilde)
        for value, reference in zip(got, expected):
            assert value == pytest.approx(reference, abs=1e-11)
        assert thm3_bound(rho, phi, psi, t) == pytest.approx(
            oracles.thm3(rho_m, ops_e, ops_f, t), abs=1e-11)


# -- metamorphic relations ------------------------------------------------------

CHANNEL_BOUNDS = {"thm1": thm1_bound, "thm2": thm2_bound, "thm3": thm3_bound,
                  "thm4": thm4_bound, "lb_eq13": lb_eq13, "lb1_eq14": lb1_eq14}


def bound_values(rho_m, ops_e, ops_f, names=tuple(CHANNEL_BOUNDS)):
    rho = make_density(rho_m)
    phi, psi = make_channel(ops_e), make_channel(ops_f)
    return {name: CHANNEL_BOUNDS[name](rho, phi, psi) for name in names}


def test_reversing_both_kraus_lists_keeps_order_free_bounds():
    names = ("thm1", "thm2", "lb_eq13")
    for rho_m, ops_e, ops_f in random_triples(43, count=20):
        before = bound_values(rho_m, ops_e, ops_f, names)
        after = bound_values(rho_m, ops_e[::-1], ops_f[::-1], names)
        for name in names:
            assert after[name] == pytest.approx(before[name], abs=1e-12), name


def test_zero_padding_the_shorter_list_keeps_every_bound():
    for rho_m, ops_e, ops_f in random_triples(44, count=20):
        n = max(len(ops_e), len(ops_f))
        zero = np.zeros_like(ops_e[0])
        before = bound_values(rho_m, ops_e, ops_f)
        after = bound_values(rho_m, ops_e + [zero] * (n - len(ops_e)),
                             ops_f + [zero] * (n - len(ops_f)))
        for name in CHANNEL_BOUNDS:
            assert after[name] == pytest.approx(before[name], abs=1e-12), name


@pytest.mark.parametrize("off", ["phi", "psi"])
@pytest.mark.parametrize("name", sorted(CHANNEL_BOUNDS))
def test_channel_bound_checks_both_dimensions(werner1, name, off):
    other = make_channel([np.eye(2)])
    phi, psi = (other, ch_f(0.5)) if off == "phi" else (ch_e(0.5), other)
    with pytest.raises(DimensionMismatchError):
        CHANNEL_BOUNDS[name](werner1, phi, psi)


def test_joint_unitary_conjugation_keeps_basis_free_bounds():
    # thm3 reads one basis vector, so it is the one bound that may move
    names = ("thm1", "thm2", "thm4", "lb_eq13", "lb1_eq14")
    rng = np.random.default_rng(45)
    for rho_m, ops_e, ops_f in random_triples(46, count=20):
        u = oracles.rand_kraus(rng, rho_m.shape[0], 1)[0]
        ud = oracles.dag(u)
        before = bound_values(rho_m, ops_e, ops_f, names)
        after = bound_values(u @ rho_m @ ud, [u @ e @ ud for e in ops_e],
                             [u @ f @ ud for f in ops_f], names)
        for name in names:
            assert after[name] == pytest.approx(before[name], abs=1e-12), name


def haar_unitary(rng, n):
    """An n x n unitary from the Haar measure: QR, with the phases of R's diagonal fixed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def remixed(rng, ops):
    """``ops`` zero-padded by 0-2 operators, then mixed by a Haar unitary U:
    E'_i = sum_j U_ij E_j is another Kraus list of the same channel."""
    stack = np.array(list(ops) + [np.zeros_like(ops[0])] * int(rng.integers(0, 3)))
    return list(np.einsum("ij,jab->iab", haar_unitary(rng, len(stack)), stack))


def representation_free_values(rho, ops_e, ops_f):
    phi, psi = make_channel(ops_e), make_channel(ops_f)
    values = {f"{name}[{t}]": getattr(channel_measures(rho, channel), name)
              for t, channel in (("phi", phi), ("psi", psi))
              for name in ("v_sym", "i_tilde", "j_tilde", "u_abs")}
    values.update({f"thm3[{t}]": thm3_bound(rho, phi, psi, t) for t in range(rho.dim)})
    values.update(thm4=thm4_bound(rho, phi, psi), lb_eq13=lb_eq13(rho, phi, psi))
    return values


def test_kraus_representation_keeps_channel_quantities():
    # the measures, thm3, thm4 and lb_eq13 are properties of the channel;
    # thm1, thm2 and lb1_eq14 read the list itself and may move
    rng = np.random.default_rng(51)
    for k in range(200):
        dim = int(rng.integers(2, 7))
        rho = make_density(oracles.rand_rho(rng, dim, int(rng.integers(1, dim + 1))))
        ops_e = oracles.rand_kraus(rng, dim, int(rng.integers(1, 5)))
        ops_f = oracles.rand_kraus(rng, dim, int(rng.integers(1, 5)))
        before = representation_free_values(rho, ops_e, ops_f)
        after = representation_free_values(rho, remixed(rng, ops_e), remixed(rng, ops_f))
        for name, value in before.items():
            assert after[name] == pytest.approx(value, abs=1e-12), (k, name)


# -- aggregate report -----------------------------------------------------------

def test_bound_report_identity_channels(werner1):
    report = bound_report(werner1, identity_channel(), identity_channel())
    assert report.lhs_product_v == report.lhs_product_u == report.lhs_sum_u2 == 0.0
    for name in ("thm1", "thm2", "thm3", "thm4", "lb_eq13", "lb1_eq14"):
        assert getattr(report, name) == 0.0
    assert all(s == 0.0 for s in report.slacks.values())
    assert report.n_common == 1


def test_bound_report_incoherent_state_saturates_thm3_at_zero():
    rho = make_density(oracles.werner_matrix(0.75))
    report = bound_report(rho, ch_e(0.4), ch_f(0.9))
    assert report.lhs_product_u <= 1e-12
    assert report.thm3 <= 1e-12


def test_bound_report_random_triples_slacks():
    rng = np.random.default_rng(41)
    for _ in range(25):
        rho = make_density(oracles.rand_rho(rng, 3))
        phi = make_channel(oracles.rand_kraus(rng, 3, 2))
        psi = make_channel(oracles.rand_kraus(rng, 3, 3))
        report = bound_report(rho, phi, psi)
        assert all(s >= -1e-9 for s in report.slacks.values())
        assert report.n_common == 3


def test_bound_report_dict_layout(werner1):
    # the JSON bytes of ``chanuq compute`` follow this key order
    doc = bound_report(werner1, ch_e(0.5), ch_f(0.5)).to_dict()
    assert list(doc) == ["lhs_product_v", "lhs_product_u", "lhs_sum_u2", "thm1",
                         "thm2", "thm3", "thm4", "lb_eq13", "lb1_eq14",
                         "n_common", "slacks"]
    assert list(doc["slacks"]) == ["thm1_bound", "thm2_bound", "thm3_bound",
                                   "lb_eq13", "thm4_bound", "lb1_eq14"]


def test_bound_report_check_raises_on_violated_bound(werner1, monkeypatch):
    phi, psi = ch_e(0.5), ch_f(0.5)
    clean = bound_report(werner1, phi, psi)
    inflated = clean.lhs_sum_u2 + 1.0
    monkeypatch.setattr(chanuq.bounds, "thm4_bound", lambda rho, phi, psi: inflated)
    with pytest.raises(BoundViolationError) as info:
        bound_report(werner1, phi, psi)
    assert info.value.bound_name == "thm4_bound"
    assert info.value.lhs == clean.lhs_sum_u2
    assert info.value.bound == inflated
    report = bound_report(werner1, phi, psi, check=False)
    assert report.slacks["thm4_bound"] == clean.lhs_sum_u2 - inflated < 0.0
    assert report.slacks["lb1_eq14"] == clean.slacks["lb1_eq14"]


def test_bound_report_dim_mismatch(werner1):
    with pytest.raises(DimensionMismatchError):
        bound_report(werner1, make_channel([I2]), ch_f(0.5))


def _measure_passes(monkeypatch) -> list:
    """The Kraus stack shape of every stacked measure pass from here on, in order."""
    shapes, original = [], chanuq.measures._measure_sets

    def spy(rho, x):
        shapes.append(x.shape)
        return original(rho, x)

    monkeypatch.setattr(chanuq.measures, "_measure_sets", spy)
    return shapes


@pytest.mark.parametrize("family", [False, True], ids=["pair", "families"])
def test_bound_report_measures_unequal_kraus_counts_in_two_passes(monkeypatch, family):
    # both sides reach one _measure_all call, which runs one stacked pass per Kraus
    # count, phi's first; the report carries each channel's measures of that channel alone
    gen = SplitMix64(2323)
    rho = random_density(3, 3, gen)
    phis = [random_channel(3, 2, gen) for _ in range(2 if family else 1)]
    psis = [random_channel(3, 5, gen) for _ in range(3 if family else 1)]
    want = [channel_measures(rho, c) for c in phis + psis]
    passes = _measure_passes(monkeypatch)
    report = bound_report(rho, *((phis, psis) if family else (phis[0], psis[0])))
    assert passes == [(len(phis), 2, 3, 3), (len(psis), 5, 3, 3)]
    for i, j in itertools.product(range(len(phis)), range(len(psis))):
        assert oracles.measure_bits(report.measures, (i, j) if family else ()) == (
            oracles.measure_bits((want[i], want[len(phis) + j])))
    v = [m.v_sym for m in want]
    assert np.array_equal(report.lhs_product_v,
                          np.outer(v[:len(phis)], v[len(phis):]) if family else v[0] * v[1])


@pytest.mark.parametrize("family", [False, True], ids=["pair", "families"])
def test_bound_report_same_channel_on_both_sides_is_measured_per_side(monkeypatch, family):
    # a channel on both sides is one slice of each side's record, both measured in one
    # pass of two slices; the report equals that of two copies, which share a pass alike
    gen = SplitMix64(2424)
    rho = random_density(4, 2, gen)
    side = [random_channel(4, 3, gen) for _ in range(3 if family else 1)]
    twins = copy.deepcopy(side), copy.deepcopy(side)
    passes = _measure_passes(monkeypatch)
    report = vars(bound_report(rho, *((side, side) if family else (side[0], side[0]))))
    assert passes == [(2 * len(side), 3, 4, 4)]
    want = vars(bound_report(rho, *(twins if family else (twins[0][0], twins[1][0]))))
    assert passes[1:] == [(2 * len(side), 3, 4, 4)]
    assert oracles.measure_bits(report.pop("measures")) == oracles.measure_bits(
        want.pop("measures"))
    for name, value in want.items():
        assert np.array_equal(report[name], value), name


@pytest.mark.parametrize("bad_side", ["phi", "psi"])
@pytest.mark.parametrize("kraus_count", [1, 2])
def test_bound_report_overflowing_channel_raises_its_numeric_error(bad_side, kraus_count):
    # Kraus entries near 1e200 (a KrausChannel built without make_channel's check)
    # overflow the variance; a stacked pass over both sides raises the error that
    # side raises alone, whichever side it is and whatever the other side's count
    rho = make_density([[0.75, 0.25], [0.25, 0.25]])
    bad = KrausChannel(kraus_ops=np.array([np.diag([1e200, 0.0]), np.diag([0.0, 1.0])],
                                          dtype=complex))
    good = make_channel([I2 / np.sqrt(kraus_count)] * kraus_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy warns on such operands
        with pytest.raises(NumericError) as info:
            bound_report(rho, *((bad, good) if bad_side == "phi" else (good, bad)))
    assert type(info.value) is NumericError
    assert str(info.value) == (
        "absolute variance evaluated to inf: negative beyond rounding, or not finite")


# -- terms shared between bounds ------------------------------------------------
#
# Each call builds one record per side, which holds the terms the bounds read; a
# report shares its pair between its measures and six bounds and keeps nothing. A
# channel reused across calls ("warm") must give exactly the values of a channel
# built afresh from the same Kraus stack, whatever the order of the calls.

def fresh(channel):
    return make_channel(channel.kraus_ops)


def fresh_values(rho, phi, psi, basis_index=0):
    report = bound_report(rho, fresh(phi), fresh(psi), basis_index=basis_index)
    bounds = {name: CHANNEL_BOUNDS[name](rho, fresh(phi), fresh(psi))
              for name in CHANNEL_BOUNDS}
    return report, bounds


def test_warm_channels_give_the_values_of_fresh_channels():
    for k, (rho_m, ops_e, ops_f) in enumerate(random_triples(47)):
        rho = make_density(rho_m)
        expected_report, expected = fresh_values(rho, make_channel(ops_e),
                                                 make_channel(ops_f))
        for order in (list(CHANNEL_BOUNDS), list(CHANNEL_BOUNDS)[::-1]):
            phi, psi = make_channel(ops_e), make_channel(ops_f)
            for name in order:  # one public bound at a time, from cold channels
                assert CHANNEL_BOUNDS[name](rho, phi, psi) == expected[name], (k, name)
            assert bound_report(rho, phi, psi) == expected_report, k
            assert bound_report(rho, phi, psi) == expected_report, k
        t = rho.dim - 1
        assert bound_report(rho, phi, psi, basis_index=t) == fresh_values(
            rho, phi, psi, t)[0], k


def test_one_channel_as_both_arguments():
    for rho_m, ops_e, _ in random_triples(48, count=10):
        rho = make_density(rho_m)
        phi = make_channel(ops_e)
        expected_report, expected = fresh_values(rho, phi, phi)
        for name in CHANNEL_BOUNDS:
            assert CHANNEL_BOUNDS[name](rho, phi, phi) == expected[name], name
        assert bound_report(rho, phi, phi) == expected_report


def test_one_channel_with_two_states():
    rng = np.random.default_rng(49)
    for dim, n_e, n_f in ((2, 1, 3), (4, 3, 2), (7, 5, 5)):
        rho_a = make_density(oracles.rand_rho(rng, dim))
        rho_b = make_density(oracles.rand_rho(rng, dim))
        phi = make_channel(oracles.rand_kraus(rng, dim, n_e))
        psi = make_channel(oracles.rand_kraus(rng, dim, n_f))
        expected = {id(rho): fresh_values(rho, phi, psi) for rho in (rho_a, rho_b)}
        for rho in (rho_a, rho_b, rho_a, rho_b):
            report, bounds = expected[id(rho)]
            assert bound_report(rho, phi, psi) == report
            for name in CHANNEL_BOUNDS:
                assert CHANNEL_BOUNDS[name](rho, phi, psi) == bounds[name], name
        # an equal state that is another object
        twin = make_density(rho_a.matrix)
        assert bound_report(twin, phi, psi) == expected[id(rho_a)][0]


def test_warm_channel_still_checks_the_state_dimension(werner1):
    phi, psi = ch_e(0.5), ch_f(0.5)
    bound_report(werner1, phi, psi)
    small = make_density(np.eye(2) / 2)
    for name, bound in CHANNEL_BOUNDS.items():
        with pytest.raises(DimensionMismatchError):
            bound(small, phi, psi)
    with pytest.raises(DimensionMismatchError):
        bound_report(small, phi, psi)
    with pytest.raises(DimensionMismatchError):
        fine_grained_terms(small, phi, psi)
    assert bound_report(werner1, phi, psi) == bound_report(werner1, ch_e(0.5), ch_f(0.5))


def _records(monkeypatch) -> list:
    """Every ``_Terms`` record built from here on, in order."""
    built, init = [], _Terms.__init__

    def counted(self, rho, x):
        built.append(self)
        init(self, rho, x)

    monkeypatch.setattr(_Terms, "__init__", counted)
    return built


def test_kept_terms_are_read_only(werner1, monkeypatch):
    # the terms of a pair report's two records and a family report's: per-channel terms
    # only, each bound forms its own products and norms; every array, the measures of a
    # family included, is read-only
    phis, psis = [ch_e(0.5), ch_e(0.7)], [ch_f(0.5), ch_f(0.1)]
    records = _records(monkeypatch)
    bound_report(werner1, phis[0], psis[0])
    bound_report(werner1, phis, psis)
    kept = {"rho", "x", "measures", "traces", "traces_dag", "brackets", "brackets0",
            "total", "total0"}
    assert [t.x.ndim for t in records] == [3, 3, 5, 5]
    for record in records:
        assert set(vars(record)) <= kept
        fields = [*vars(record).values(), *vars(record.measures).values()]
        arrays = [a for v in fields for a in (v if isinstance(v, tuple) else (v,))
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= (13 if record.x.ndim == 5 else 8)
        assert not any(a.flags.writeable for a in arrays)


def test_kept_terms_are_not_pickled_or_copied():
    # a report keeps nothing on its channels: a channel pickles to the same size after
    # one, and its pickled or copied twin is read-only and gives the same report
    rho_m, ops_e, ops_f = next(random_triples(50, count=1))  # d = N = 16
    rho = make_density(rho_m)
    phi, psi = make_channel(ops_e), make_channel(ops_f)
    size = len(pickle.dumps(phi))
    report = bound_report(rho, phi, psi)
    assert len(pickle.dumps(phi)) == size
    assert vars(phi).keys() == {"kraus_ops"}
    for twin in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
        assert np.array_equal(twin.kraus_ops, phi.kraus_ops)
        assert not twin.kraus_ops.flags.writeable
        assert bound_report(rho, twin, psi) == report


# -- channel families ----------------------------------------------------------
#
# Each channel bound and bound_report take a family (a sequence of channels
# with one dimension and one Kraus count) on either side and evaluate the
# whole (phi[i], psi[j]) grid at once. Every cell must be bit for bit the pair
# call: the family path takes |z|^2 by Python's ** per value and each squared
# norm by its own np.vdot on a slice laid out as in the pair call, because
# numpy's vectorized square and a vdot on a contiguous copy move last bits.

def _family_draws():
    """(rho, phis, psis, basis index): 100 random draws at d 2-8 and N 1-4, then one
    at d = N = 16, the shape of the compute-large benchmark, with two channels a side."""
    rng = np.random.default_rng(1515)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        gen = SplitMix64(int(rng.integers(2 ** 62)))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), gen)
        n_phi, n_psi = (int(n) for n in rng.integers(1, 5, size=2))
        phis = [random_channel(dim, n_phi, gen) for _ in range(int(rng.integers(1, 5)))]
        psis = [random_channel(dim, n_psi, gen) for _ in range(int(rng.integers(1, 5)))]
        yield rho, phis, psis, int(rng.integers(dim))
    gen = SplitMix64(1616)
    rho = random_density(16, 16, gen)
    phis, psis = ([random_channel(16, 16, gen) for _ in range(2)] for _ in range(2))
    yield rho, phis, psis, 5


def test_channel_families_equal_pair_calls_in_every_cell():
    # every call builds its own records, so pair and family calls share no terms; the
    # pair calls also take fresh copies of the channels
    fresh = copy.deepcopy
    for draw, (rho, phis, psis, t) in enumerate(_family_draws()):
        for name, bound in CHANNEL_BOUNDS.items():
            args = (t,) if name == "thm3" else ()
            pairs = [[bound(rho, fresh(phi), fresh(psi), *args) for psi in psis] for phi in phis]
            grid = bound(rho, phis, psis, *args)
            assert grid.shape == (len(phis), len(psis)), (draw, name)
            assert grid.tolist() == pairs, (draw, name)
            # a record pair, as bound_report passes it: a family's stacked records and a
            # lone pair's own
            assert bound(rho, *_grid_terms(rho, phis, psis), *args).tolist() == pairs, (draw, name)
            assert [[bound(rho, *_grid_terms(rho, phi, psi), *args)
                     for psi in psis] for phi in phis] == pairs, (draw, name)
            assert bound(rho, phis[:1], psis[:1], *args).tolist() == [pairs[0][:1]], (draw, name)
            assert bound(rho, phis[0], psis, *args).tolist() == pairs[:1], (draw, name)
        grid_terms = fine_grained_terms(rho, phis, psis, t)
        for i, phi in enumerate(phis):
            for j, psi in enumerate(psis):
                pair = fine_grained_terms(rho, fresh(phi), fresh(psi), t)
                for field in ("i1", "i1_tilde", "i0", "i0_tilde"):
                    assert getattr(grid_terms, field)[i, j] == getattr(pair, field), (draw, field)
        family = vars(bound_report(rho, phis, psis, t, check=False))
        for i, phi in enumerate(phis):
            for j, psi in enumerate(psis):
                pair = vars(bound_report(rho, fresh(phi), fresh(psi), t, check=False))
                assert oracles.measure_bits(family["measures"], (i, j)) == oracles.measure_bits(
                    pair.pop("measures")), draw
                for name, value in pair.items():
                    cell = family[name] if name == "n_common" else family[name][i, j]
                    assert cell == value, (draw, name)


def test_family_records_equal_pair_records_slice_by_slice():
    # a family's record runs a lone channel's record code on the stacked Kraus arrays,
    # phi's on grid axis 0 (G, 1, N, d, d) and psi's on axis 1 (1, G, N, d, d); each slice
    # of each field must be that channel's own record's field, bit for bit
    fields = ("traces", "traces_dag", "brackets", "brackets0", "total", "total0")
    for draw, (rho, phis, psis, _) in enumerate(_family_draws()):
        e, f = _grid_terms(rho, phis, psis)
        assert type(e) is type(f) is _Terms, draw
        for record, channels, grid in ((e, phis, (len(phis), 1)), (f, psis, (1, len(psis)))):
            for g, channel in enumerate(channels):
                lone, cell = _side(rho, channel), np.unravel_index(g, grid)
                for name in fields:
                    stacked, own = getattr(record, name), getattr(lone, name)
                    if not isinstance(own, tuple):
                        stacked, own = (stacked,), (own,)
                    for a, b in zip(stacked, own, strict=True):
                        assert a.shape == grid + b.shape, (draw, name)
                        assert a[cell].tobytes() == b.tobytes(), (draw, name, g)


def test_report_side_measures_equal_lone_channel_measures():
    # the side measures a report hands its caller are each channel's measures alone, bit
    # for bit: a family report's (G, 1) and (1, G) arrays in every cell, a pair's floats
    for draw, (rho, phis, psis, t) in enumerate(_family_draws()):
        lone = [channel_measures(rho, c) for c in phis], [channel_measures(rho, c) for c in psis]
        family = bound_report(rho, phis, psis, t, check=False).measures
        for i, j in itertools.product(range(len(phis)), range(len(psis))):
            assert oracles.measure_bits(family, (i, j)) == oracles.measure_bits(
                (lone[0][i], lone[1][j])), (draw, i, j)
        pair = bound_report(rho, phis[0], psis[0], t, check=False).measures
        assert all(type(v) is float for m in pair for v in vars(m).values()), draw
        assert oracles.measure_bits(pair) == oracles.measure_bits((lone[0][0], lone[1][0])), draw


@pytest.mark.parametrize("axes, blocks", [
    (1, [(2,), (3,), (16,), (33,), (256,), (1024,)]),
    (2, [(1, 2), (2, 4), (3, 16), (16, 16), (4, 37)]),
    (3, [(1, 2, 2), (2, 4, 4), (3, 5, 5), (16, 4, 4), (2, 16, 16)]),
])
@pytest.mark.parametrize("grid", [(7, 1), (1, 7), (7, 7)])
def test_family_sq_norms_equal_lone_vdots_bitwise(axes, blocks, grid):
    # one batched product per grid gives each block the bits of its own np.vdot, on
    # contiguous stacks and on the column views fine_grained_terms takes of them
    rng = np.random.default_rng(sum(grid) + 10 * axes)
    for block in blocks:
        shape = grid + block
        x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-4, 4)
        views = [(x, axes)] + ([(x[..., 1], axes - 1)] if axes > 1 else [])
        for view, n in views:
            lone = [np.vdot(b, b).real for b in view.reshape(-1, *view.shape[view.ndim - n:])]
            got = _sq_norms(view, n)
            assert got.shape == grid, (block, n)
            assert got.tobytes() == np.reshape(lone, grid).tobytes(), (block, n)


def test_family_needs_one_kraus_count(werner1):
    with pytest.raises(DimensionMismatchError):
        thm1_bound(werner1, [ch_e(0.5), identity_channel()], [ch_f(0.5)])
    # each channel is checked against the state before the family's Kraus count
    with pytest.raises(DimensionMismatchError, match="channel dimension 2 does not match"):
        bound_report(werner1, [ch_e(0.5)], [ch_f(0.5), identity_channel(2)])
    with pytest.raises(DimensionMismatchError):
        bound_report(werner1, [], [ch_f(0.5)])


def test_bound_report_on_families_raises_at_first_violating_cell(werner1, monkeypatch):
    # thm4 is inflated past its left-hand side in two cells, thm2 in the first of them
    # and thm1 in the second, on family and pair calls alike; a family report must
    # raise what the pair call of its first violating cell in row-major order raises,
    # the first violated relation in relations() order within that cell (so not thm1,
    # the first relation violated anywhere)
    phis = [ch_e(p) for p in (0.2, 0.5, 0.9)]
    psis = [ch_f(q) for q in (0.1, 0.6, 0.8)]

    def rows(record, channels):
        """The index in ``channels`` of each channel of a record, a pair's kept (N, d, d)
        one or a family's stacked (G, 1, N, d, d) or (1, G, N, d, d), by its Kraus bytes."""
        kraus = [c.kraus_ops.tobytes() for c in channels]
        return [kraus.index(x.tobytes()) for x in record.x.reshape(-1, *record.x.shape[-3:])]

    def inflated(original, violated):
        def bound(rho, e, f):  # bound_report passes its one record pair
            value = np.array(original(rho, e, f), ndmin=2)  # a copy; a pair is 1 x 1
            for a, i in enumerate(rows(e, phis)):
                for b, j in enumerate(rows(f, psis)):
                    if (i, j) in violated:
                        value[a, b] = 10.0
            return float(value[0, 0]) if e.x.ndim == 3 else value
        return bound

    monkeypatch.setattr(chanuq.bounds, "thm4_bound",
                        inflated(chanuq.bounds.thm4_bound, {(1, 2), (2, 0)}))
    monkeypatch.setattr(chanuq.bounds, "thm2_bound", inflated(chanuq.bounds.thm2_bound, {(1, 2)}))
    monkeypatch.setattr(chanuq.bounds, "thm1_bound", inflated(chanuq.bounds.thm1_bound, {(2, 0)}))
    cases = [((phis, psis), (1, 2), "thm2_bound"),
             ((phis[1], psis), (1, 2), "thm2_bound"),  # a lone channel against a family
             ((phis, psis[0]), (2, 0), "thm1_bound"),
             ((phis[2:], psis[:1]), (2, 0), "thm1_bound")]
    for families, (i, j), name in cases:
        with pytest.raises(BoundViolationError) as pair:
            bound_report(werner1, phis[i], psis[j])
        with pytest.raises(BoundViolationError) as family:
            bound_report(werner1, *families)
        assert family.value.bound_name == pair.value.bound_name == name
        assert family.value.lhs == pair.value.lhs
        assert family.value.bound == pair.value.bound == 10.0
        assert str(family.value) == str(pair.value)
    slacks = bound_report(werner1, phis, psis, check=False).slacks
    assert {tuple(cell) for cell in np.argwhere(slacks["thm4_bound"] < 0.0)} == {(1, 2), (2, 0)}
    assert {tuple(cell) for cell in np.argwhere(slacks["thm2_bound"] < 0.0)} == {(1, 2)}
    assert {tuple(cell) for cell in np.argwhere(slacks["thm1_bound"] < 0.0)} == {(2, 0)}


def test_bound_report_reads_each_family_side_once(werner1):
    # a single-pass iterable is a family like a list: each side is read once
    phis = [ch_e(p) for p in (0.2, 0.5, 0.9)]
    psis = [ch_f(q) for q in (0.1, 0.6)]
    want = vars(bound_report(werner1, phis, psis))
    for args in ((iter(phis), iter(psis)), (iter(phis), psis), (phis, iter(psis))):
        got = vars(bound_report(werner1, *args))
        assert got.keys() == want.keys()
        assert oracles.measure_bits(got["measures"]) == oracles.measure_bits(want["measures"])
        for name, value in want.items():
            if name != "measures":
                assert np.array_equal(got[name], value), name


@pytest.mark.parametrize("case", ["pair", "families", "lone-vs-family", "zip"])
def test_bound_report_builds_one_record_per_side(werner1, monkeypatch, case):
    # the side measures and the six bounds read the report's one record pair, and a
    # second report on the same channels builds its own pair and no other record
    grid = np.linspace(0.0, 1.0, 21)
    phis, psis = [ch_e(p) for p in grid], [ch_f(q) for q in grid]
    args, shapes = {
        "pair": ((phis[3], psis[5]), [(2, 4, 4), (2, 4, 4)]),
        "families": ((phis, psis), [(21, 1, 2, 4, 4), (1, 21, 2, 4, 4)]),
        "lone-vs-family": ((phis[3], psis), [(1, 1, 2, 4, 4), (1, 21, 2, 4, 4)]),
        "zip": ((phis[:3], psis[:3]), [(3, 2, 4, 4), (3, 2, 4, 4)]),
    }[case]
    rho = werner1 if case != "zip" else _stack_states(
        [werner1, make_density(oracles.werner_matrix(0.5)), werner1])
    for _ in range(2):
        records = _records(monkeypatch)
        bound_report(rho, *args, check=False)
        assert [t.x.shape for t in records] == shapes


def test_warm_family_thm2_frees_the_raw_products_first(werner1):
    # the symmetrized brackets free the raw pair's products before the adjoint pair's
    # come: on 21 x 21 cells of 4 x 4 matrices (110 KiB per grid array) the traced
    # peak stays under 840 KiB (773 KiB with CPython 3.11 and numpy 2.4.6; holding all
    # four products at once peaked at 894 KiB)
    grid = np.linspace(0.0, 1.0, 21)
    e, f = _grid_terms(werner1, [ch_e(p) for p in grid], [ch_f(q) for q in grid])
    thm2_bound(werner1, e, f)  # warm: the records' centered sums are kept
    tracemalloc.start()
    try:
        thm2_bound(werner1, e, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 840 * 1024


def test_family_reports_hold_no_memory_across_calls(werner1):
    # a family report keeps nothing once it returns: the Python blocks in use stay
    # flat over repeated calls. np.stack over 20 records, or a zip over them, leaves
    # 20-item tuples in CPython 3.11's tuple free list on every report (no
    # gc.collect() here: a full collection empties the free lists)
    grid = np.linspace(0.0, 1.0, 20)
    phis, psis = [ch_e(p) for p in grid], [ch_f(q) for q in grid]
    for _ in range(3):
        bound_report(werner1, phis, psis)
    before = sys.getallocatedblocks()
    for _ in range(40):
        bound_report(werner1, phis, psis)
    assert sys.getallocatedblocks() - before < 200
