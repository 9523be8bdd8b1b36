"""Unit tests for the uncertainty measures."""

import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from chanuq import linalg, measures
from chanuq.bounds import dou_bounds, heisenberg_bound, luo_bound, schrodinger_bound
from chanuq.errors import DimensionMismatchError, NumericError
from chanuq.linalg import NEGATIVITY_FLOOR
from chanuq.ensembles import SplitMix64, random_channel, random_density
from chanuq.examples import _channel_family, channel_E, channel_F, rho_theta_state, werner_state
from chanuq.measures import (MeasureSet, _nonneg, _Terms, abs_variance, channel_measures,
                             mwy_anti_info, mwy_skew_info, operator_u, sym_abs_variance)
from chanuq.objects import _stack_states, center_operator, make_channel, make_density

import oracles
from oracles import I2, SX, SZ, ketbra


@pytest.fixture
def mixed_qubit():
    return make_density(I2 / 2)


def test_abs_variance_pauli(mixed_qubit):
    assert abs_variance(mixed_qubit, SX) == pytest.approx(1.0)


def test_abs_variance_raising_operator(mixed_qubit):
    assert abs_variance(mixed_qubit, ketbra(0, 1)) == pytest.approx(0.5)


def test_abs_variance_identity_vanishes(mixed_qubit):
    assert abs_variance(mixed_qubit, I2) == 0.0


# every public function taking an operator checks it where it enters the library
OPERAND_FUNCTIONS = {
    "abs_variance": abs_variance,
    "sym_abs_variance": sym_abs_variance,
    "mwy_skew_info": mwy_skew_info,
    "mwy_anti_info": mwy_anti_info,
    "operator_u": operator_u,
    "center_operator": lambda rho, k: center_operator(k, rho),
    "heisenberg_first": lambda rho, k: heisenberg_bound(rho, k, SZ),
    "heisenberg_second": lambda rho, k: heisenberg_bound(rho, SZ, k),
    "schrodinger_first": lambda rho, k: schrodinger_bound(rho, k, SZ),
    "schrodinger_second": lambda rho, k: schrodinger_bound(rho, SZ, k),
    "luo_first": lambda rho, k: luo_bound(rho, k, SZ),
    "luo_second": lambda rho, k: luo_bound(rho, SZ, k),
    "dou_first": lambda rho, k: dou_bounds(rho, k, ketbra(0, 1)),
    "dou_second": lambda rho, k: dou_bounds(rho, ketbra(0, 1), k),
}


@pytest.mark.parametrize("bad, error", [
    (np.eye(3), DimensionMismatchError),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), NumericError),
], ids=["3x3", "nan"])
@pytest.mark.parametrize("name", OPERAND_FUNCTIONS)
def test_public_operand_check(mixed_qubit, name, bad, error):
    with pytest.raises(error):
        OPERAND_FUNCTIONS[name](mixed_qubit, bad)


def test_sym_abs_variance_hermitian_reduction():
    rng = np.random.default_rng(20)
    for _ in range(20):
        rho = make_density(oracles.rand_rho(rng, 3))
        k = oracles.rand_op(rng, 3, hermitian=True)
        assert sym_abs_variance(rho, k) == pytest.approx(abs_variance(rho, k),
                                                         abs=1e-13)


def test_sym_abs_variance_raising_operator(mixed_qubit):
    assert sym_abs_variance(mixed_qubit, ketbra(0, 1)) == pytest.approx(0.5)


def test_sym_abs_variance_scalar_vanishes(mixed_qubit):
    assert sym_abs_variance(mixed_qubit, (0.3 - 0.7j) * I2) == pytest.approx(0.0, abs=1e-15)


def test_mwy_skew_info_mixed_state_vanishes(mixed_qubit):
    rng = np.random.default_rng(21)
    k = oracles.rand_op(rng, 2)
    assert mwy_skew_info(mixed_qubit, k) == pytest.approx(0.0, abs=1e-15)


def test_mwy_skew_info_pure_state_pauli():
    rho = make_density(ketbra(0, 0))
    assert mwy_skew_info(rho, SX) == pytest.approx(1.0)


def test_mwy_skew_info_equals_variance_on_pure_states():
    rng = np.random.default_rng(22)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim, rank=1))
        k = oracles.rand_op(rng, dim, hermitian=True)
        assert mwy_skew_info(rho, k) == pytest.approx(abs_variance(rho, k),
                                                      abs=1e-10)


def test_mwy_anti_info_pauli(mixed_qubit):
    # {I/sqrt(2), sx} = sqrt(2) sx, half its squared norm is 2
    assert mwy_anti_info(mixed_qubit, SX) == pytest.approx(2.0)


def test_mwy_anti_info_zero(mixed_qubit):
    assert mwy_anti_info(mixed_qubit, np.zeros((2, 2))) == 0.0


def test_skew_plus_anti_trace_identity():
    # I(K) + J(K) = Tr(rho K^dag K) + Tr(rho K K^dag) for any K
    rng = np.random.default_rng(23)
    for _ in range(50):
        rho = make_density(oracles.rand_rho(rng, 3))
        k = oracles.rand_op(rng, 3)
        total = mwy_skew_info(rho, k) + mwy_anti_info(rho, k)
        expected = (np.trace(rho.matrix @ k.conj().T @ k)
                    + np.trace(rho.matrix @ k @ k.conj().T)).real
        assert total == pytest.approx(expected, rel=1e-12)


def test_skew_info_centering_invariance():
    rng = np.random.default_rng(24)
    rho = make_density(oracles.rand_rho(rng, 4))
    k = oracles.rand_op(rng, 4)
    k0 = center_operator(k, rho)
    assert mwy_skew_info(rho, k0) == pytest.approx(mwy_skew_info(rho, k), abs=1e-13)


def test_centered_pair_sums_to_twice_sym_variance():
    rng = np.random.default_rng(25)
    for _ in range(50):
        rho = make_density(oracles.rand_rho(rng, 3))
        k = oracles.rand_op(rng, 3)
        k0 = center_operator(k, rho)
        lhs = mwy_skew_info(rho, k0) + mwy_anti_info(rho, k0)
        rhs = 2.0 * sym_abs_variance(rho, k)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_skew_info_bounded_by_twice_sym_variance_when_centered():
    rng = np.random.default_rng(26)
    for _ in range(50):
        rho = make_density(oracles.rand_rho(rng, 3))
        k0 = center_operator(oracles.rand_op(rng, 3), rho)
        assert mwy_skew_info(rho, k0) <= 2 * sym_abs_variance(rho, k0) + 1e-9


def test_channel_measures_identity_channel():
    rho = make_density(oracles.werner_matrix(0.6))
    m = channel_measures(rho, make_channel([np.eye(4)]))
    assert m.v_sym == m.i_tilde == m.j_tilde == m.c_abs == m.u_abs == 0.0


def test_channel_measures_incoherent_state_kills_u():
    rho = make_density(oracles.werner_matrix(0.75))  # maximally mixed
    for p in np.linspace(0, 1, 7):
        m = channel_measures(rho, make_channel(oracles.e_kraus(float(p))))
        assert m.u_abs <= 1e-12
        m = channel_measures(rho, make_channel(oracles.f_kraus(float(p))))
        assert m.u_abs <= 1e-12


def test_channel_measures_match_oracle():
    rng = np.random.default_rng(27)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        rho_m = oracles.rand_rho(rng, dim)
        ops = oracles.rand_kraus(rng, dim, int(rng.integers(1, 4)))
        rho = make_density(rho_m)
        m = channel_measures(rho, make_channel(ops))
        v, it, jt, u = oracles.channel_measures(rho_m, ops)
        assert m.v_sym == pytest.approx(v, abs=1e-11)
        assert m.i_tilde == pytest.approx(it, abs=1e-11)
        assert m.j_tilde == pytest.approx(jt, abs=1e-11)
        assert m.u_abs == pytest.approx(u, abs=1e-11)


def test_channel_measures_match_oracle_up_to_d16():
    # the first list of each draw; the first draw has d = N = 16
    for k, (rho_m, ops, _) in enumerate(oracles.random_triples(52)):
        m = channel_measures(make_density(rho_m), make_channel(ops))
        v, it, jt, u = oracles.channel_measures(rho_m, ops)
        assert m.v_sym == pytest.approx(v, abs=1e-11), k
        assert m.i_tilde == pytest.approx(it, abs=1e-11), k
        assert m.j_tilde == pytest.approx(jt, abs=1e-11), k
        assert m.u_abs == pytest.approx(u, abs=1e-11), k


def test_channel_measures_internal_identities():
    rng = np.random.default_rng(28)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = make_density(oracles.rand_rho(rng, dim))
        phi = make_channel(oracles.rand_kraus(rng, dim, int(rng.integers(1, 4))))
        m = channel_measures(rho, phi)
        guard = max(1.0, m.u_abs ** 2, m.i_tilde * m.j_tilde)
        assert abs(m.u_abs ** 2 - m.i_tilde * m.j_tilde) <= 1e-9 * guard
        assert abs(m.i_tilde + m.j_tilde - 2 * m.v_sym) <= 1e-9 * max(1.0, 2 * m.v_sym)
        assert 0.0 <= m.i_tilde <= 2 * m.v_sym + 1e-9


@pytest.mark.parametrize("theta, message", [
    # i_tilde > 0: u^2 = i_tilde (2 v_sym - i_tilde) no longer equals i_tilde*j_tilde
    (0.3, "disagrees with i_tilde\\*j_tilde"),
    # the maximally mixed state: i_tilde = 0, so u^2 = 0 = i_tilde*j_tilde whatever
    # j_tilde is, and only the sum identity can see the fault
    (0.75, "disagrees with 2\\*v_sym"),
], ids=["product", "sum"])
def test_record_rejects_a_broken_identity(monkeypatch, theta, message):
    # no valid input breaks the identities, which hold up to rounding, so double
    # every anticommutator information the record sums, where the record clamps it
    rho, phi = werner_state(theta), channel_F(0.5)
    nonneg, doubled = measures._nonneg, []

    def skewed(value, what):
        value = nonneg(value, what)
        if what == "anticommutator information":
            doubled.append(value)
            return 2 * value
        return value
    monkeypatch.setattr(measures, "_nonneg", skewed)
    record = _Terms(rho, phi.kraus_ops)
    with pytest.raises(NumericError, match=message):
        measures._measure_all([record])
    assert [np.shape(v) for v in doubled] == [phi.kraus_ops.shape[:1]]  # every operator's
    assert record.measures is None  # a failed pass fills nothing


def test_record_measures_check_the_stack_once(monkeypatch):
    # the channel's stack passed its check when made; only sym_abs_variance checks it again
    rho, phi = werner_state(0.3), channel_F(0.5)
    shapes, as_square = [], linalg._as_square

    def counting(m, ndims):
        shapes.append(np.shape(m))
        return as_square(m, ndims)
    monkeypatch.setattr(linalg, "_as_square", counting)
    measures._measure_all([_Terms(rho, phi.kraus_ops)])
    assert shapes == [phi.kraus_ops.shape]


def test_operator_u_matches_skew_product():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rho_m = oracles.rand_rho(rng, 3)
        k = oracles.rand_op(rng, 3)
        rho = make_density(rho_m)
        assert operator_u(rho, k) == pytest.approx(
            oracles.u_of_operator(rho_m, k), abs=1e-11)


OVERFLOWING = pytest.mark.parametrize("measure, state, k", [
    *((measure, [[0.75, 0.25], [0.25, 0.25]], [[1e160, 0], [0, 0]])
      for measure in (abs_variance, sym_abs_variance, mwy_skew_info, mwy_anti_info, operator_u)),
    # V_sym = I = 1e160 is finite, but V_sym^2 overflows inside |U|
    (operator_u, [[1, 0], [0, 0]], 1e80 * SX),
], ids=["abs_variance", "sym_abs_variance", "mwy_skew_info", "mwy_anti_info", "operator_u",
        "operator_u-pure"])


@OVERFLOWING
def test_overflowing_operator_measures_raise(measure, state, k):
    # the operands are finite, but the measure overflows: no NaN or inf may come back
    rho = make_density(np.array(state))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning comes before the error
        with pytest.raises(NumericError):
            measure(rho, np.array(k))


@OVERFLOWING
def test_overflow_messages_of_lone_and_stacked_operators_are_equal(measure, state, k):
    # the value is printed as a Python float ("inf"), not as a numpy scalar's repr
    rho = make_density(np.array(state))
    messages = []
    for operand in (np.array(k), np.array([k])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericError) as info:
                measure(rho, operand)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "np." not in messages[0]


@pytest.mark.parametrize("value, expected", [
    (0.5, 0.5), (0.0, 0.0), (-1e-13, 0.0),
    (-1e-11, NumericError), (float("nan"), NumericError), (float("inf"), NumericError),
    (float("-inf"), NumericError),
])
def test_nonneg_clamps_rounding_and_rejects_the_rest(value, expected):
    if expected is NumericError:
        with pytest.raises(NumericError):
            _nonneg(value, "test value")
    else:
        assert _nonneg(value, "test value") == expected


# -- array kernels against their scalar forms, entry by entry ------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]


def _spread(rng, n: int) -> np.ndarray:
    """n reals of either sign spread over e^+-300, shuffled in with subnormals, exact
    zeros and -0.0."""
    values = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-300.0, 300.0, n))
    return rng.permutation(np.concatenate([values, SPECIAL]))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(re.shape, complex)  # re + 1j * im would turn some -0.0 parts into +0.0
    z.real, z.imag = re, im
    return z


def test_abs_sq_equals_scalar_form_bitwise():
    rng = np.random.default_rng(71)
    re, im = _spread(rng, 20_000), _spread(rng, 20_000)
    z = _complex(re, im)
    z[:4] = [complex(math.inf, math.nan), complex(math.nan, -1.0), complex(-math.inf, 0.0),
             complex(1e-200, 1e-200)]
    for x in (z, z[2:].reshape(2, -1, 2), re, np.abs(re), np.array(complex(3.0, -4.0))):
        got = measures._abs_sq(x)
        assert got.shape == x.shape
        assert _bits(got.ravel()) == _bits([abs(v) ** 2 for v in x.ravel().tolist()])


def test_nonneg_equals_scalar_form_bitwise():
    rng = np.random.default_rng(72)
    values = np.abs(_spread(rng, 20_000))
    noise = -np.exp(rng.uniform(-800.0, np.log(-NEGATIVITY_FLOOR) - 0.01, 200))  # in [floor, 0)
    with_noise = rng.permutation(np.concatenate([values, noise, [-0.0, NEGATIVITY_FLOOR]]))
    for x in (with_noise, with_noise.reshape(-1, 3), values, np.array([-0.0, 0.0]),
              np.array(-1e-13), np.empty((0, 3))):
        got = _nonneg(x, "test value")
        assert got.shape == x.shape
        assert _bits(got.ravel()) == _bits([max(float(v), 0.0) for v in x.ravel().tolist()])


def _u_scalar(v: float, i: float) -> float:
    """|U| of one float pair by the scalar formula: the oracle of ``_u_from``'s numpy form."""
    return _nonneg(math.sqrt(max(v * v - measures._abs_sq(v - i), 0.0)), "|U|")


def test_u_from_equals_scalar_form_bitwise():
    rng = np.random.default_rng(73)
    v = np.abs(_spread(rng, 20_000))
    for i in (np.abs(_spread(rng, 20_000)), v * rng.uniform(0.0, 2.0, v.shape), v, 0.0 * v):
        got = measures._u_from(v, i)
        pairs = list(zip(v.tolist(), i.tolist()))
        assert _bits(got) == _bits([_u_scalar(*vi) for vi in pairs])
        lone = [measures._u_from(*vi) for vi in pairs[::97]]  # a float pair: a Python float
        assert {type(u) for u in lone} == {float}
        assert _bits(lone) == _bits(got[::97])


def test_half_sq_norm_equals_scalar_form_bitwise():
    rng = np.random.default_rng(74)
    for dim in range(2, 17):
        for count in (1, 2, 7, 12, 63):
            scale = np.exp(rng.uniform(-150.0, 150.0, (count, 1, 1)))
            stack = scale * _complex(rng.standard_normal((count, dim, dim)),
                                     rng.standard_normal((count, dim, dim)))
            stack[0] = stack[0].real if count > 2 else stack[0]
            stack[-1] = 5e-324 * np.sign(stack[-1].real) if count > 1 else stack[-1]
            if count > 2:
                stack[1] = 0.0
            expected = _bits([0.5 * linalg.frob_norm(m) ** 2 for m in stack])
            assert _bits(measures._half_sq_norm(stack)) == expected
            pair = measures._half_sq_norm(np.array([stack, stack[::-1]]))
            assert _bits(pair.ravel()) == expected + expected[::-1]
            assert _bits([measures._half_sq_norm(stack[0])]) == expected[:1]


def _first_scalar_error(scalar, entries) -> str:
    """The message of the first entry, in order, whose scalar form raises."""
    for args in entries:
        try:
            scalar(*args)
        except NumericError as exc:
            return str(exc)
    raise AssertionError("no entry raises")


@pytest.mark.parametrize("kernel", ["nonneg", "abs_sq", "u_from_square", "u_from"])
def test_array_kernels_raise_the_scalar_error(kernel):
    # NaN, +-inf, values below the floor and squares past the double range, two to
    # four of them in one array: the array form names the first, in row-major order
    rng = np.random.default_rng(75)
    harmless, bad = {
        "nonneg": ([], [math.nan, math.inf, -math.inf, 2.0 * NEGATIVITY_FLOOR, -1.0]),
        # inf and NaN square without an error; an overflowing |z| or |z|^2 raises
        "abs_sq": ([math.inf, math.nan],
                   [1e200, -3e160, complex(1.5e308, 1.5e308), complex(1e200, 1.0)]),
        # (v, i): (v - i)^2 overflows; an array checks every square before any |U|
        "u_from_square": ([], [(1e200, 0.0), (0.0, 3e180), (1e300, 1e160)]),
        # (v, i): |U| is inf or NaN, its square finite or inf
        "u_from": ([], [(2e160, 2e160), (math.inf, 0.0), (math.nan, 1.0), (1.0, math.nan)]),
    }[kernel]
    width = 2 if kernel.startswith("u_from") else 1
    for _ in range(40):
        size = int(rng.integers(4, 40))
        entries = [tuple(rng.uniform(0.0, 3.0, width).tolist()) for _ in range(size)]
        positions = rng.choice(size, int(rng.integers(2, 5)), replace=False)
        for k, pos in enumerate(positions):  # the last is one that raises
            picks = bad if k == len(positions) - 1 else harmless + bad
            pick = picks[int(rng.integers(len(picks)))]
            # scaled apart, so that the message names the entry
            entries[pos] = tuple((np.atleast_1d(pick) * (1 + k / 16)).tolist())
        if kernel == "nonneg":
            array = np.array(entries)[:, 0]
            scalar = lambda v: _nonneg(v, "test value")
            call = lambda: _nonneg(array.reshape(2, -1) if size % 2 == 0 else array, "test value")
        elif kernel == "abs_sq":
            array = np.array(entries, dtype=complex)[:, 0]
            scalar, call = lambda v: measures._abs_sq(complex(v)), lambda: measures._abs_sq(array)
        else:
            v, i = np.array(entries).T
            scalar, call = _u_scalar, lambda: measures._u_from(v, i)
        with pytest.raises(NumericError) as raised:
            call()
        assert str(raised.value) == _first_scalar_error(scalar, entries)


# -- Kraus stacks --------------------------------------------------------------

STACK_MEASURES = {
    "abs_variance": abs_variance,
    "sym_abs_variance": sym_abs_variance,
    "mwy_skew_info": mwy_skew_info,
    "mwy_anti_info": mwy_anti_info,
    "operator_u": operator_u,
}


def _bits(values) -> list:
    """The bit patterns of floats: equal only if the values are equal to the bit,
    the sign of a zero included."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _stack_draws():
    """(state, operator stack) draws over d 2-16 and N 1-16, with full-rank,
    pure and rank-deficient states, general and Hermitian operators."""
    rng = np.random.default_rng(61)
    for dim in range(2, 17):
        for n, rank in ((1, dim), (16, 1), (int(rng.integers(2, 16)), int(rng.integers(1, dim)))):
            stack = np.array([oracles.rand_op(rng, dim, hermitian=bool(i % 3 == 2))
                              for i in range(n)])
            yield make_density(oracles.rand_rho(rng, dim, rank)), stack
    for rho, phi in _example_pairs():
        yield rho, phi.kraus_ops


def _example_pairs():
    # at p = 0 each example channel holds a zero operator
    for rho in (werner_state(1.0), werner_state(0.3), rho_theta_state(0.0)):
        for phi in (channel_E(0.0), channel_F(0.0), channel_E(0.5), channel_F(1.0)):
            yield rho, phi


@pytest.mark.parametrize("name", STACK_MEASURES)
def test_stacked_measures_equal_their_single_operator_values(name):
    # one value per operator, each the bits of the measure of that operator alone
    measure = STACK_MEASURES[name]
    for rho, stack in _stack_draws():
        singles = [measure(rho, op) for op in stack]
        assert all(type(value) is float for value in singles)
        values = measure(rho, stack)
        assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
        assert _bits(values) == _bits(singles)


def test_sym_abs_variance_of_the_adjoint_is_equal_bitwise():
    # one pass pairs each K with its K^dag, so K^dag gives the same pair, swapped: the same
    # bits for a lone operand, an (N, d, d) stack and a (T, M, d, d) stack under a stack of
    # T = 2 states, where each trial's pair must face that trial's state
    rng = np.random.default_rng(31)
    for dim in range(2, 9):
        for rank in (1, dim):
            rhos = [make_density(oracles.rand_rho(rng, dim, rank)) for _ in range(2)]
            ops = np.array([[oracles.rand_op(rng, dim) for _ in range(3)] for _ in range(2)])
            for rho, k in ((rhos[0], ops[0, 0]), (rhos[1], ops[0]), (_stack_states(rhos), ops)):
                values = sym_abs_variance(rho, k)
                assert np.shape(values) == k.shape[:-2]
                assert _bits(values) == _bits(sym_abs_variance(rho, linalg.dagger(k)))


def _per_operator_loop(rho, phi) -> MeasureSet:
    """:func:`channel_measures` summed one operator at a time through the
    single-operator measures, in Kraus order: the oracle of the stacked sums."""
    v_sym = i_tilde = j_tilde = 0.0
    for op in phi.kraus_ops:
        centered = center_operator(op, rho)
        v_sym += sym_abs_variance(rho, op)
        i_tilde += mwy_skew_info(rho, centered)
        j_tilde += mwy_anti_info(rho, centered)
    c_abs = v_sym - i_tilde
    u_abs = float(np.sqrt(max(v_sym * v_sym - c_abs * c_abs, 0.0)))
    return MeasureSet(v_sym=v_sym, i_tilde=i_tilde, j_tilde=j_tilde, c_abs=c_abs, u_abs=u_abs)


def _channel_draws():
    rng = np.random.default_rng(62)
    for dim in range(2, 17):
        for n, rank in ((1, dim), (16, 1), (int(rng.integers(2, 16)), int(rng.integers(1, dim)))):
            yield (make_density(oracles.rand_rho(rng, dim, rank)),
                   make_channel(oracles.rand_kraus(rng, dim, n)))
    yield from _example_pairs()


def test_channel_measures_equal_the_per_operator_loop():
    for rho, phi in _channel_draws():
        expected = _per_operator_loop(rho, phi)
        assert _bits(astuple(channel_measures(rho, phi))) == _bits(astuple(expected))


# A family's measures come from one stacked pass over its (G, N, d, d) Kraus array; each
# channel's MeasureSet must be that of the channel alone, to the bit. numpy's SIMD
# dispatch decides this as it decides the goldens, so CI reruns it with numpy capped at AVX2.

def _measure_families():
    """(state, family, lone channels) draws: the example families E and F at 2-101 steps under
    werner and rho_theta at theta 0, 0.3, 0.7 and 1, with each point's lone channel, then
    families of eight random channels at d 2-8 and N 1-5 (no lone channels)."""
    for example_state in (werner_state, rho_theta_state):
        for theta in (0.0, 0.3, 0.7, 1.0):
            rho = example_state(theta)
            for steps in (2, 3, 5, 11, 21, 41, 101):
                grid = np.linspace(0.0, 1.0, steps)
                for name, lone in (("E", channel_E), ("F", channel_F)):
                    yield rho, _channel_family(name, grid), [lone(float(x)) for x in grid]
    gen = SplitMix64(2121)
    for dim in range(2, 9):
        for n in range(1, 6):
            rho = random_density(dim, 1 + (dim + n) % dim, gen)  # ranks 1 to dim
            yield rho, [random_channel(dim, n, gen) for _ in range(8)], None


def test_stacked_measure_sets_equal_lone_ones():
    for draw, (rho, family, lone_built) in enumerate(_measure_families()):
        if lone_built is not None:  # _channel_family stacks channel_E / channel_F
            assert ([c.kraus_ops.tobytes() for c in family]
                    == [c.kraus_ops.tobytes() for c in lone_built]), draw
        # each call measures its channel alone, in a pass of one
        lone = [_bits(astuple(channel_measures(rho, c))) for c in family]
        for axis in (0, 1):  # phi's (G, 1, N, d, d) family record and psi's (1, G, N, d, d)
            record = measures._side(rho, iter(family), axis)
            assert record.measures is None, draw
            measures._measure_all([record])
            cells = [(g, 0) if axis == 0 else (0, g) for g in range(len(family))]
            assert [_bits([f[cell] for f in astuple(record.measures)]) for cell in cells] == lone, (
                draw, axis)


def test_measure_sets_array_rows_are_the_measure_set_fields():
    # one (5, ..., G) array, its rows the MeasureSet fields in order, over a lone state's
    # channels and over a state stack's (T, G) zipped channels; each column is
    # channel_measures of its channel alone, bit for bit
    gen = SplitMix64(3232)
    for dim, n in ((2, 1), (3, 4), (5, 2)):
        rhos = [random_density(dim, 1 + t, gen) for t in range(2)]
        family = [[random_channel(dim, n, gen) for _ in range(3)] for _ in rhos]
        x = np.array([[c.kraus_ops for c in row] for row in family])  # (T, G, N, d, d)
        for rho, stack, cells in ((rhos[0], x[0], [((g,), 0, g) for g in range(3)]),
                                  (_stack_states(rhos), x, [((t, g), t, g) for t in range(2)
                                                            for g in range(3)])):
            values = measures._measure_sets(rho, stack)
            assert isinstance(values, np.ndarray)
            assert values.shape == (len(fields(MeasureSet)), *stack.shape[:-3])
            for cell, t, g in cells:
                want = channel_measures(rhos[t], family[t][g])
                assert _bits(values[(slice(None), *cell)]) == _bits(astuple(want)), (dim, cell)


@pytest.mark.parametrize("dim, n, count", [(3, 2, 4), (5, 3, 1), (16, 16, 2)])
def test_channel_measures_of_a_family_equal_lone_calls(dim, n, count):
    # a list or tuple of channels is a family: each field a (G,) array whose every entry
    # has the bits of channel_measures on that channel alone
    gen = SplitMix64(4343 + dim)
    rho = random_density(dim, dim, gen)
    family = [random_channel(dim, n, gen) for _ in range(count)]
    lone = [_bits(astuple(channel_measures(rho, c))) for c in family]
    for given in (family, tuple(family)):
        values = astuple(channel_measures(rho, given))
        assert all(np.shape(v) == (count,) for v in values), (dim, n, count)
        assert [_bits([v[g] for v in values]) for g in range(count)] == lone, (dim, n, count)


def test_channel_measures_of_an_empty_family_raise():
    with pytest.raises(DimensionMismatchError):
        channel_measures(werner_state(1.0), [])


@pytest.mark.parametrize("bad, error", [
    ([[[1, 0], [0, 1]], [[1, 0]]], DimensionMismatchError),
    (np.ones(2), DimensionMismatchError),
    (np.zeros((1, 1, 2, 2)), DimensionMismatchError),
    ([[["1", "0"], ["0", "1"]]], DimensionMismatchError),
    (np.zeros((2, 3, 3)), DimensionMismatchError),
    (np.stack([I2, np.array([[np.nan, 0], [0, 1]]), SX]), NumericError),
], ids=["ragged", "1-D", "4-D", "text", "wrong-dim", "nan-slice"])
@pytest.mark.parametrize("name", STACK_MEASURES)
def test_stack_operand_check(mixed_qubit, name, bad, error):
    with pytest.raises(error):
        STACK_MEASURES[name](mixed_qubit, bad)


@pytest.mark.parametrize("name", STACK_MEASURES)
def test_empty_stack_gives_empty_values(mixed_qubit, name):
    values = STACK_MEASURES[name](mixed_qubit, np.zeros((0, 2, 2)))
    assert isinstance(values, np.ndarray) and values.shape == (0,)


HUGE_SQUARE = np.diag([1e100, -1e100])  # finite products, but their squares overflow


@pytest.mark.parametrize("call", [
    lambda rho: schrodinger_bound(rho, HUGE_SQUARE, HUGE_SQUARE),
    lambda rho: luo_bound(rho, HUGE_SQUARE, HUGE_SQUARE),
    lambda rho: operator_u(rho, HUGE_SQUARE),
    lambda rho: dou_bounds(rho, HUGE_SQUARE, HUGE_SQUARE),
    lambda rho: operator_u(rho, np.stack([SX, HUGE_SQUARE, SZ])),
], ids=["schrodinger", "luo", "operator_u", "dou", "operator_u-stack"])
def test_squares_beyond_the_double_range_raise_numeric_error(call):
    # Python's float ** raises OverflowError there; it must surface as a NumericError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            call(make_density(I2 / 2))
