"""Unit tests for states, channels and the JSON wire format."""

import copy
import json
import pickle
import warnings

import numpy as np
import pytest

from chanuq import ensembles, linalg
from chanuq.errors import (CompletenessError, DimensionMismatchError,
                           NotHermitianError, NotPositiveError, NumericError,
                           SchemaError, TraceError, ValidationError)
from chanuq.measures import channel_measures
from chanuq.objects import (_make_channels, _operand, _stack_states, center_operator,
                            channel_from_json, channel_to_json, make_channel, make_density,
                            state_from_json, state_to_json)

import oracles
from oracles import I2, SX, SZ, ketbra


def test_make_density_maximally_mixed():
    rho = make_density(I2 / 2)
    assert rho.dim == 2
    np.testing.assert_allclose(rho.sqrt_matrix, I2 / np.sqrt(2), atol=1e-12)


def test_make_density_werner_half():
    # theta = 1/2: diagonal (1/6, 1/3, 1/3, 1/6), inner off-diagonal -1/6
    m = oracles.werner_matrix(0.5)
    assert m[0, 0] == pytest.approx(1 / 6)
    assert m[1, 1] == pytest.approx(1 / 3)
    assert m[1, 2] == pytest.approx(-1 / 6)
    rho = make_density(m)
    w = np.linalg.eigvalsh(rho.matrix)
    assert w.min() >= -1e-12


def test_make_density_rejects_traceless():
    with pytest.raises(TraceError):
        make_density(SX)


def test_make_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitianError):
        make_density(m)


def test_make_density_hermiticity_check_fires_before_the_spectral_one():
    # ||m - m^dag||_F = 1.5e-10 * sqrt(2) is above the absolute DENSITY_TOL, but within the
    # spectral check's relative HERMITICITY_TOL * ||m||_F = 1e-10 * sqrt(5)
    m = np.array([[2, 0], [1.5e-10, -1]], dtype=complex)
    with pytest.raises(NotHermitianError) as info:
        make_density(m)
    assert info.value.residual == pytest.approx(1.5e-10 * np.sqrt(2), rel=1e-12)
    assert linalg.hermitian_eig(m).eigenvalues.tolist() == pytest.approx([-1.0, 2.0])


def test_make_density_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        make_density(np.diag([1.5, -0.5]))


def test_make_density_eigendecomposes_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    rho = make_density(oracles.werner_matrix(0.5))
    assert len(calls) == 1
    np.testing.assert_allclose(rho.sqrt_matrix @ rho.sqrt_matrix, rho.matrix, atol=1e-12)


def test_make_channel_identity():
    ch = make_channel([I2])
    assert len(ch) == 1
    assert ch.dim == 2


def test_make_channel_example_pair():
    ch = make_channel(oracles.e_kraus(0.3))
    assert len(ch) == 2


def test_make_channel_rejects_overcomplete():
    with pytest.raises(CompletenessError):
        make_channel([I2, I2])


def test_make_channel_rejects_overflowing_completeness_sum():
    # sum E^dag E overflows to a NaN residual, which must fail the check
    with pytest.raises(CompletenessError):
        make_channel([np.diag([1e200, 1.0])])


@pytest.mark.parametrize("build, arg, error", [
    (make_channel, [np.diag([1e200, 1.0])], CompletenessError),
    # pairwise summation of this diagonal gives a trace of inf + (-inf) = NaN
    (make_density, np.diag([1e308, -1e308, 0, 0, 0, 0, 0, 0] * 2), TraceError),
], ids=["channel", "nan-trace-state"])
def test_overflowing_input_fails_validation_without_numpy_warnings(build, arg, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build(arg)


def test_make_channel_rejects_empty():
    with pytest.raises(ValidationError):
        make_channel([])


def test_make_channel_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        make_channel([I2, np.eye(3)])


@pytest.mark.parametrize("ops, error", [
    ([I2, np.full((2, 2), np.nan)], NumericError),        # non-finite entry
    (np.zeros((2, 2, 3)), DimensionMismatchError),       # non-square stack
    (I2, DimensionMismatchError),                          # one matrix, not a list
])
def test_make_channel_rejects_bad_stacks(ops, error):
    with pytest.raises(error):
        make_channel(ops)


def test_make_channel_list_and_stack_agree():
    ops = oracles.e_kraus(0.3)
    from_list = make_channel(ops)
    from_stack = make_channel(np.array(ops))
    assert from_list.kraus_ops.shape == (2, 4, 4)
    assert np.array_equal(from_list.kraus_ops, from_stack.kraus_ops)


@pytest.mark.parametrize("bad", [
    [2 * I2, I2 - I2],              # overcomplete
    [I2 / 2, I2 / 2],               # undercomplete
    [np.diag([1e200, 1.0]), 0 * I2],  # the sum overflows to a NaN residual
], ids=["over", "under", "overflow"])
def test_stacked_completeness_check_rejects_a_bad_block_as_make_channel_does(bad):
    good = [np.sqrt(0.5) * I2, np.sqrt(0.5) * SX]
    with pytest.raises(CompletenessError) as lone:
        make_channel(bad)
    worse = [3 * I2, I2]  # a later bad block, with another residual
    for blocks in ([bad], [good, bad, good], [good, good, bad, worse]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompletenessError) as stacked:
                _make_channels(np.array(blocks, dtype=complex))
        assert str(stacked.value) == str(lone.value)
        assert repr(stacked.value.residual) == repr(lone.value.residual)


def test_stacked_completeness_check_keeps_each_block():
    blocks = np.array([oracles.e_kraus(p) for p in (0.0, 0.3, 1.0)])
    channels = _make_channels(blocks.copy())
    for ops, channel in zip(blocks, channels, strict=True):
        assert channel.kraus_ops.tobytes() == make_channel(ops).kraus_ops.tobytes()
        assert not channel.kraus_ops.flags.writeable


def test_operand_under_a_state_stack_is_the_operand_itself():
    # the verify harness hands its own draws to the public measures under a state stack,
    # which take them as they are: no copy, no coercion and no check
    states = _stack_states([make_density(I2 / 2), make_density(ketbra(0, 0))])
    for k in (np.stack([SX, SZ]), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(3), [[1, 2]]):
        assert _operand(states, k) is k
        assert _operand(states, k, stack=True) is k
    assert _operand(make_density(I2 / 2), SX) is not SX  # a lone state's operand is a copy


def test_center_operator_identity():
    rho = make_density(I2 / 2)
    np.testing.assert_allclose(center_operator(I2, rho), np.zeros((2, 2)), atol=1e-15)


def test_center_operator_sz_on_ground_state():
    rho = make_density(ketbra(0, 0))
    np.testing.assert_allclose(center_operator(SZ, rho), np.diag([0.0, -2.0]),
                               atol=1e-15)


def test_center_operator_example_kraus():
    # Tr(rho E2) = rho_11 + rho_33 = 1/6 + 1/3 = 1/2 at theta = 1, p = 1
    rho = make_density(oracles.werner_matrix(1.0))
    e2 = oracles.e_kraus(1.0)[1]
    centered = center_operator(e2, rho)
    np.testing.assert_allclose(centered, e2 - 0.5 * np.eye(4), atol=1e-14)
    assert abs(np.trace(rho.matrix @ centered)) <= 1e-12


def test_center_operator_idempotent_in_effect():
    rng = np.random.default_rng(12)
    rho = make_density(oracles.rand_rho(rng, 3))
    k = oracles.rand_op(rng, 3)
    once = center_operator(k, rho)
    twice = center_operator(once, rho)
    np.testing.assert_allclose(once, twice, atol=1e-14)


def test_centering_leaves_sqrt_commutator_unchanged():
    rng = np.random.default_rng(13)
    rho = make_density(oracles.rand_rho(rng, 4))
    k = oracles.rand_op(rng, 4)
    k0 = center_operator(k, rho)
    np.testing.assert_allclose(rho.sqrt_matrix @ k0 - k0 @ rho.sqrt_matrix,
                               rho.sqrt_matrix @ k - k @ rho.sqrt_matrix,
                               atol=1e-14)


def measure_draws(seed, count=25):
    """Seeded (rng, rho, Kraus list) draws with d in [2, 8] and N in [1, 6]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        yield (rng, oracles.rand_rho(rng, dim, rank),
               oracles.rand_kraus(rng, dim, int(rng.integers(1, 7))))


def assert_same_measures(rho_a, ops_a, rho_b, ops_b):
    a = channel_measures(make_density(rho_a), make_channel(ops_a))
    b = channel_measures(make_density(rho_b), make_channel(ops_b))
    for name in ("v_sym", "i_tilde", "j_tilde", "c_abs", "u_abs"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12), name


def test_padding_leaves_measures_unchanged():
    rho = make_density(oracles.werner_matrix(1.0))
    phi = make_channel(oracles.e_kraus(0.6))
    padded = make_channel(list(phi.kraus_ops) + [np.zeros((4, 4))])
    m1 = channel_measures(rho, phi)
    m2 = channel_measures(rho, padded)
    assert abs(m1.i_tilde - m2.i_tilde) <= 1e-14
    assert abs(m1.j_tilde - m2.j_tilde) <= 1e-14
    assert abs(m1.v_sym - m2.v_sym) <= 1e-14
    for rng, rho_m, ops in measure_draws(60):
        zeros = [np.zeros_like(ops[0])] * int(rng.integers(1, 4))
        assert_same_measures(rho_m, ops, rho_m, ops + zeros)


def test_kraus_permutation_leaves_measures_unchanged():
    for rng, rho_m, ops in measure_draws(61):
        shuffled = [ops[i] for i in rng.permutation(len(ops))]
        assert_same_measures(rho_m, ops, rho_m, shuffled)


def test_joint_unitary_conjugation_leaves_measures_unchanged():
    for rng, rho_m, ops in measure_draws(62):
        u = oracles.rand_kraus(rng, rho_m.shape[0], 1)[0]
        ud = oracles.dag(u)
        assert_same_measures(rho_m, ops, u @ rho_m @ ud, [u @ e @ ud for e in ops])


# -- JSON ---------------------------------------------------------------------

# The wire format holds the repr of each double, so a round trip through
# JSON text is exact.

def test_state_json_roundtrip():
    rho = make_density(oracles.werner_matrix(0.9))
    doc = state_to_json(rho)
    assert set(doc) == {"dim", "matrix"}
    back = state_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.matrix, rho.matrix)


def test_channel_json_roundtrip():
    for phi in (make_channel(oracles.f_kraus(0.3)),
                ensembles.random_channel(16, 16, 7001)):
        doc = channel_to_json(phi)
        assert set(doc) == {"dim", "kraus"}
        back = channel_from_json(json.loads(json.dumps(doc)))
        assert len(back) == len(phi)
        assert np.array_equal(back.kraus_ops, phi.kraus_ops)


def test_channel_from_json_checks_completeness_alone(monkeypatch):
    # the decoded stack is complex, square and finite: only completeness is left to check
    docs = [json.loads(json.dumps(channel_to_json(phi)))
            for phi in (make_channel(oracles.f_kraus(0.3)), ensembles.random_channel(5, 3, 7002))]
    incomplete = {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}
    ops = [[[[complex(*entry) for entry in row] for row in op] for op in doc["kraus"]]
           for doc in (*docs, incomplete)]
    expected = [make_channel(k).kraus_ops for k in ops[:-1]]
    with pytest.raises(CompletenessError) as direct:
        make_channel(ops[-1])
    calls = []
    monkeypatch.setattr(linalg, "_as_square",
                        lambda *a, as_square=linalg._as_square: calls.append(a) or as_square(*a))
    for doc, kraus_ops in zip(docs, expected):
        back = channel_from_json(doc).kraus_ops
        assert back.shape == kraus_ops.shape and back.dtype == kraus_ops.dtype
        assert back.tobytes() == kraus_ops.tobytes()
        assert not back.flags.writeable
    with pytest.raises(CompletenessError) as decoded:
        channel_from_json(incomplete)
    assert str(decoded.value) == str(direct.value)
    assert calls == []


@pytest.mark.parametrize("doc", [
    {"matrix": [[[1.0, 0.0]]]},                        # missing dim
    {"dim": 0, "matrix": []},                          # bad dim
    {"dim": 1},                                        # missing matrix
    {"dim": 1, "matrix": [[1.0]]},                     # entry not an [re, im] pair
    {"dim": 1, "matrix": [[[1.0, 0.0, 0.0]]]},         # entry wrong length
    {"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]},  # wrong row count
    {"dim": 1, "matrix": [[["x", 0.0]]]},              # non-numeric component
    {"dim": 1, "matrix": [[[True, 0.0]]]},             # JSON true
    {"dim": 1, "matrix": [[["1.5", 0.0]]]},            # numeric string
    {"dim": 1, "matrix": [[[None, 0.0]]]},             # null
    {"dim": 1, "matrix": [[[1.0, [0.0]]]]},            # nested array
    {"dim": 2, "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                          [[0.5, 0.0]]]},              # ragged row
])
def test_state_schema_errors(doc):
    with pytest.raises(SchemaError):
        state_from_json(doc)


@pytest.mark.parametrize("entry", [
    [True, 0.0], ["1.5", 0.0], [None, 0.0], [1.0, [0.0]], [1.0],
], ids=["true", "string", "null", "nested", "ragged"])
def test_channel_schema_errors_name_the_entry(entry):
    doc = {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                               [[[0.0, 0.0], [0.0, 0.0]], [entry, [0.0, 0.0]]]]}
    with pytest.raises(SchemaError) as info:
        channel_from_json(doc)
    assert "kraus[1]" in str(info.value)
    assert "entry (1,0)" in str(info.value)


def test_channel_schema_errors():
    with pytest.raises(SchemaError):
        channel_from_json({"dim": 2, "kraus": []})
    with pytest.raises(SchemaError):
        channel_from_json({"dim": 2})


def test_state_json_validation_still_applies():
    doc = {"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]]}  # trace 2
    with pytest.raises(TraceError):
        state_from_json(doc)


def test_validated_arrays_are_read_only():
    # cached results derived from a state or a channel cannot go stale
    m = oracles.werner_matrix(0.5)
    ops = np.array(oracles.e_kraus(0.5))
    rho = make_density(m)
    phi = make_channel(ops)
    for array in (rho.matrix, rho.sqrt_matrix, phi.kraus_ops):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    # the caller's own arrays were copied and stay writable
    m[0, 0] = m[0, 0]
    ops[0, 0, 0] = ops[0, 0, 0]


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_state_stays_read_only(copy_of):
    rho = make_density(oracles.werner_matrix(0.5))
    twin = copy_of(rho)
    assert np.array_equal(twin.matrix, rho.matrix)
    assert np.array_equal(twin.sqrt_matrix, rho.sqrt_matrix)
    for array in (twin.matrix, twin.sqrt_matrix):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


@pytest.mark.parametrize("build", [lambda: make_density(np.eye(2) / 2),
                                   lambda: make_channel([np.eye(2)])],
                         ids=["state", "channel"])
def test_validated_objects_compare_and_hash_by_identity(build):
    # a field-wise comparison would ask an array for its truth value and raise
    obj, equal_valued = build(), build()
    assert obj == obj
    for other in (equal_valued, copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert obj != other
        assert not obj == other
    assert len({obj, obj, equal_valued}) == 2
    table = {obj: "a", equal_valued: "b"}
    assert table[obj] == "a" and table[equal_valued] == "b"
