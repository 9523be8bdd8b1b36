"""Unit tests for the matrix primitives."""

import warnings

import numpy as np
import pytest

from chanuq import linalg
from chanuq.bounds import heisenberg_bound, luo_bound, schrodinger_bound
from chanuq.objects import make_density
from chanuq.errors import (DimensionMismatchError, NotHermitianError,
                           NotPositiveError, NumericError)

import oracles
from oracles import I2, SX, SY, SZ, ketbra


def test_frob_inner_identity():
    assert linalg.frob_inner(I2, I2) == pytest.approx(2.0 + 0j)


def test_frob_inner_pauli_orthogonality():
    assert linalg.frob_inner(SX, SY) == pytest.approx(0.0 + 0j)


def test_frob_inner_imaginary_case():
    # direct entrywise evaluation of Tr(sx^dag * (i sx)) = 2i
    assert linalg.frob_inner(SX, 1j * SX) == pytest.approx(0.0 + 2.0j)


def test_frob_inner_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = oracles.rand_op(rng, 4)
        b = oracles.rand_op(rng, 4)
        assert linalg.frob_inner(a, b) == pytest.approx(
            np.conj(linalg.frob_inner(b, a)))


def test_frob_inner_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.frob_inner(I2, np.eye(3))


def test_commutator_pauli_algebra():
    np.testing.assert_allclose(linalg.commutator(SX, SY), 2j * SZ, atol=1e-15)


def test_commutator_with_self_vanishes():
    rng = np.random.default_rng(4)
    a = oracles.rand_op(rng, 3)
    np.testing.assert_allclose(linalg.commutator(a, a), 0, atol=1e-14)


def test_anticommutator_pauli():
    np.testing.assert_allclose(linalg.anticommutator(SX, SX), 2 * I2, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_bracket_kernel_equals_lone_brackets_bitwise(dim):
    # the kernel gives the bits of the lone public brackets on a matrix pair, on each
    # pair of two (N, d, d) stacks and on a matrix facing each matrix of a stack (the
    # case of [sqrt(rho), K_i]); the raw commutator _sym_brackets returns is the same
    rng = np.random.default_rng(dim)
    for n in (1, 2, 3, 5):
        s = oracles.rand_op(rng, dim)
        x, y = (np.array([oracles.rand_op(rng, dim) for _ in range(n)]) for _ in range(2))
        for left, right, pairs in ((x[0], y[0], [(x[0], y[0])]), (x, y, list(zip(x, y))),
                                   (s, y, [(s, m) for m in y])):
            comm, anti = linalg._brackets(left, right)
            assert comm.shape == anti.shape == np.broadcast(left, right).shape
            want = [(linalg.commutator(a, b).tobytes(), linalg.anticommutator(a, b).tobytes())
                    for a, b in pairs]
            got = [(c.tobytes(), a.tobytes()) for c, a in
                   zip(comm.reshape(-1, dim, dim), anti.reshape(-1, dim, dim))]
            assert got == want, (n, left.shape, right.shape)
            assert linalg._sym_brackets(left, right)[2].tobytes() == comm.tobytes()


@pytest.mark.parametrize("n", [2, 4])
def test_pow_equals_scalar_form_bitwise(n):
    # each entry has the bits of Python's v ** n, over the range where it is finite, with
    # either sign, subnormals, zeros, -0.0, inf and NaN; an overflow raises as ** does
    rng = np.random.default_rng(n)
    values = rng.choice([-1.0, 1.0], 20_000) * np.exp(rng.uniform(-700 / n, 700 / n, 20_000))
    values = np.concatenate([values, [0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan]])
    for x in (values, values[:-7].reshape(-1, 4), 0.3, -0.0):
        got = linalg._pow(x, n)
        assert got.shape == np.shape(x)
        want = np.array([v ** n for v in np.ravel(x).tolist()])
        assert got.tobytes() == want.tobytes()
    with pytest.raises(OverflowError):
        linalg._pow(np.array([1.0, 1e200]), n)


def test_sym_brackets_reduce_to_plain_for_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = oracles.rand_op(rng, 3, hermitian=True)
        y = oracles.rand_op(rng, 3, hermitian=True)
        np.testing.assert_allclose(linalg.sym_commutator(x, y),
                                   linalg.commutator(x, y), atol=1e-14)
        np.testing.assert_allclose(linalg.sym_anticommutator(x, y),
                                   linalg.anticommutator(x, y), atol=1e-14)


def test_sym_commutator_swapped_adjoint_pair():
    # X = |0><1|, Y = |1><0|: the adjoints swap the pair, and the plain
    # commutators of (X, Y) and (Y, X) cancel, so the symmetrized value is 0.
    x = ketbra(0, 1)
    y = ketbra(1, 0)
    np.testing.assert_allclose(linalg.sym_commutator(x, y), np.zeros((2, 2)),
                               atol=1e-15)


def test_sym_anticommutator_with_zero():
    x = ketbra(0, 1)
    np.testing.assert_allclose(linalg.sym_anticommutator(x, np.zeros((2, 2))),
                               np.zeros((2, 2)), atol=1e-15)


def test_hermitian_eig_diagonal():
    w, _ = linalg.hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_hermitian_eig_pauli_x():
    w, v = linalg.hermitian_eig(SX)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose((v * w) @ v.conj().T, SX, atol=1e-14)


def test_hermitian_eig_werner_spectrum():
    # by hand: the inner 2x2 block [[1/6, 1/6], [1/6, 1/6]] has eigenvalues
    # {0, 1/3}; the outer diagonal contributes 1/3 twice
    w, _ = linalg.hermitian_eig(oracles.werner_matrix(1.0))
    np.testing.assert_allclose(w, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-10)


@pytest.mark.parametrize("dim", range(2, 9))
def test_hermitian_eig_reconstruction_random(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(25):
        h = oracles.rand_op(rng, dim, hermitian=True)
        w, v = linalg.hermitian_eig(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(ketbra(0, 1))


def test_hermitian_eig_deterministic_phases():
    rng = np.random.default_rng(8)
    h = oracles.rand_op(rng, 5, hermitian=True)
    _, v1 = linalg.hermitian_eig(h)
    _, v2 = linalg.hermitian_eig(h.copy())
    np.testing.assert_array_equal(v1, v2)
    for j in range(5):
        col = v1[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0


def _normalize_phases_loop(vecs):
    """The column-by-column phase normalization that the vectorized step replaced."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > linalg.PHASE_PIVOT_TOL)
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


@pytest.mark.parametrize("dim", range(2, 17))
def test_normalize_phases_matches_the_column_loop_bit_for_bit(dim):
    # random Hermitian matrices, diagonal ones (basis-vector eigenvectors, whose
    # pivot is the only nonzero entry) and ones with repeated eigenvalues
    rng = np.random.default_rng(400 + dim)
    for trial in range(360):
        kind = trial % 3
        if kind == 0:
            h = oracles.rand_op(rng, dim, hermitian=True)
        elif kind == 1:
            h = np.diag(rng.integers(-2, 3, dim) * rng.normal()).astype(complex)
        else:
            u = np.linalg.qr(oracles.rand_op(rng, dim))[0]
            h = (u * rng.integers(0, 3, dim)) @ u.conj().T
        v = np.linalg.eigh(h)[1]
        got, want = linalg._normalize_phases(v), _normalize_phases_loop(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(linalg.psd_sqrt(np.diag([4.0, 1.0])),
                               np.diag([2.0, 1.0]), atol=1e-12)


def test_psd_sqrt_maximally_mixed():
    np.testing.assert_allclose(linalg.psd_sqrt(I2 / 2), I2 / np.sqrt(2), atol=1e-12)


def test_psd_sqrt_werner_three_quarters():
    # werner matrix at theta = 3/4 is I/4, whose root is I/2
    np.testing.assert_allclose(linalg.psd_sqrt(oracles.werner_matrix(0.75)),
                               np.eye(4) / 2, atol=1e-12)


def test_psd_sqrt_random_psd():
    rng = np.random.default_rng(9)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        g = oracles.rand_op(rng, dim)
        h = g @ g.conj().T
        s = linalg.psd_sqrt(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(s @ s - h) <= 1e-9 * scale
        np.testing.assert_allclose(s, s.conj().T, atol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        linalg.psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_clamps_tiny_negative():
    s = linalg.psd_sqrt(np.diag([1.0, -1e-12]))
    np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-6)


def test_cartesian_decompose_hermitian_input():
    a, b = linalg.cartesian_decompose(SX)
    np.testing.assert_allclose(a, SX, atol=1e-15)
    np.testing.assert_allclose(b, np.zeros((2, 2)), atol=1e-15)


def test_cartesian_decompose_raising_operator():
    # (K + K^dag)/2 = sx/2 and (K - K^dag)/(2i) = sy/2, so K = sx/2 + i sy/2
    a, b = linalg.cartesian_decompose(ketbra(0, 1))
    np.testing.assert_allclose(a, SX / 2, atol=1e-15)
    np.testing.assert_allclose(b, SY / 2, atol=1e-15)


def test_cartesian_decompose_anti_hermitian():
    a, b = linalg.cartesian_decompose(1j * I2)
    np.testing.assert_allclose(a, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(b, I2, atol=1e-15)


def test_cartesian_decompose_random_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = oracles.rand_op(rng, 4)
        a, b = linalg.cartesian_decompose(k)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-14)
        np.testing.assert_allclose(b, b.conj().T, atol=1e-14)
        np.testing.assert_allclose(a + 1j * b, k, atol=1e-14)


def test_cartesian_modulus_split_identity():
    # |Tr(rho K)|^2 = |Tr(rho A)|^2 + |Tr(rho B)|^2 for K = A + iB
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = oracles.rand_rho(rng, 3)
        k = oracles.rand_op(rng, 3)
        a, b = linalg.cartesian_decompose(k)
        lhs = abs(np.trace(rho @ k)) ** 2
        rhs = abs(np.trace(rho @ a)) ** 2 + abs(np.trace(rho @ b)) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NumericError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("m", [
    [[1.0, 0.0], [0.0]],        # ragged rows
    np.zeros((2, 3)),           # not square
    np.zeros((2, 2, 2)),        # a stack, not one matrix
])
def test_as_matrix_rejects_shapes(m):
    with pytest.raises(DimensionMismatchError):
        linalg.as_matrix(m)


@pytest.mark.parametrize("m", [
    [["0.5", 0], [0, "0.5"]],   # numeric text is still text
    {},
    b"0.5",
], ids=["numeric-strings", "dict", "bytes"])
def test_as_matrix_rejects_non_numeric_input(m):
    # the state constructor goes through the same coercion
    with pytest.raises(DimensionMismatchError, match="non-numeric"):
        linalg.as_matrix(m)
    with pytest.raises(DimensionMismatchError, match="non-numeric"):
        make_density(m)


def test_as_matrix_copies_its_input():
    m = np.eye(2, dtype=complex)
    a = linalg.as_matrix(m)
    m[0, 0] = 5.0
    assert a[0, 0] == 1.0


OVERFLOWING_NON_HERMITIAN = np.array([[1e308, 1e308], [-1e308, 1e308]])


@pytest.mark.parametrize("call", [
    lambda rho, h: linalg.hermitian_eig(h),
    lambda rho, h: linalg.psd_sqrt(h),
    lambda rho, h: heisenberg_bound(rho, h, I2),
    lambda rho, h: schrodinger_bound(rho, h, I2),
    lambda rho, h: luo_bound(rho, h, I2),
], ids=["hermitian_eig", "psd_sqrt", "heisenberg", "schrodinger", "luo"])
def test_overflowing_hermiticity_residual_is_rejected(call):
    # h - h^dag overflows, so residual and scale are both inf; an inf residual
    # must still fail the check, and quietly: no overflow warning escapes
    rho = make_density(I2 / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError):
            call(rho, OVERFLOWING_NON_HERMITIAN)


# ||h||_F overflows for every matrix below (above about 1.3e154); the relative
# tolerances must keep their meaning there
NEAR_LIMIT_ASYMMETRIC = np.array([[0, 1e155], [1e155 + 1e150, 0]])


@pytest.mark.parametrize("call, error", [
    (lambda rho: linalg.psd_sqrt(np.diag([1e155, -1e155])), NotPositiveError),
    (lambda rho: linalg._require_hermitian(NEAR_LIMIT_ASYMMETRIC), NotHermitianError),
    (lambda rho: heisenberg_bound(rho, NEAR_LIMIT_ASYMMETRIC, SZ), NotHermitianError),
], ids=["indefinite-sqrt", "asymmetric", "asymmetric-heisenberg"])
def test_near_limit_matrices_fail_their_checks(call, error):
    rho = make_density(I2 / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing plain norm is handled, not warned
        with pytest.raises(error):
            call(rho)


def test_near_limit_spectral_kernels_keep_their_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as above: no warning from the public kernels
        root = linalg.psd_sqrt(np.diag([4e160, 1e160]))
        # -1e185 lies within PSD_CLAMP_TOL * ||h||_F = 1e190 of zero, and clamps
        clamped = linalg.psd_sqrt(np.diag([1e200, -1e185]))
        # an asymmetry of 1e-13 relative is within HERMITICITY_TOL
        linalg._require_hermitian(np.array([[0, 1e200], [1e200 * (1 + 1e-13), 0]]))
        w, v = linalg.hermitian_eig(np.diag([1e308, -1e308]))
    np.testing.assert_allclose(root, np.diag([2e80, 1e80]), rtol=1e-15, atol=0)
    np.testing.assert_array_equal(clamped, np.diag([1e100, 0.0]))
    assert w.tolist() == [-1e308, 1e308]
    np.testing.assert_array_equal(np.abs(v), [[0, 1], [1, 0]])


def test_spectrum_beyond_the_double_range_is_not_positive():
    # a finite, Hermitian, unit-trace matrix whose eigenvalues overflow is no state
    x = 1.7e308 + 1.7e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveError):
            make_density(np.array([[0.5, x], [np.conj(x), 0.5]]))


def test_scale_is_the_plain_norm_in_the_finite_range():
    rng = np.random.default_rng(3)
    for exponent in (-30, 0, 30, 150):
        h = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * 10.0 ** exponent
        assert linalg._scale(h) == (max(1.0, linalg.frob_norm(h)), 1.0)


# no valid Hermitian matrix makes numpy's solver fail or miss its residuals, so the
# two tests below replace it

def test_hermitian_eig_reports_a_solver_failure(monkeypatch):
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericError, match="failed to converge"):
        linalg.hermitian_eig(SZ)


def test_hermitian_eig_rejects_a_decomposition_off_its_residuals(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0] + 1e-3, eigh(h)[1]))
    with pytest.raises(NumericError, match="residuals out of tolerance"):
        linalg.hermitian_eig(SZ)


def test_sqrt_from_a_mismatched_spectrum_fails_its_residual():
    # the root of diag(0, 1)'s spectrum squares to diag(0, 1), not to diag(1, 0)
    spectrum = linalg.hermitian_eig(np.diag([0.0, 1.0]))
    with pytest.raises(NumericError, match="square-root residual"):
        linalg._sqrt_from_spectrum(np.diag([1.0, 0.0]), spectrum)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 3), (8, 8), (5, 4, 4), (2, 3, 6, 6)])
def test_frob_norm_is_numpys_norm_bitwise(shape):
    # frob_norm takes numpy's own ord=None form without its dispatch: same bits, complex
    # and real, contiguous or a transposed view
    rng = np.random.default_rng(sum(shape))
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for a in (z, z.real, z.T, 1e200 * z):
        with np.errstate(over="ignore"):
            want = float(np.linalg.norm(a))
            assert np.float64(linalg.frob_norm(a)).view(np.uint64) == np.float64(want).view(np.uint64)
