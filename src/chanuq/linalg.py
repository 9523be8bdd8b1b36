"""Dense complex matrix arithmetic, Hermitian spectral machinery and tolerances.

Everything downstream (states, channels, uncertainty measures, bounds)
works with plain square ``numpy`` arrays of ``complex128``; this module
holds the shared primitives: Frobenius inner product, (symmetrized)
commutators, the Hermitian eigendecomposition with deterministic
eigenvector phases, and the PSD matrix square root.

:func:`as_matrix` is the one validation step. ``make_density`` and the
operand arguments of the public operator-level functions (here
``frob_inner`` and ``cartesian_decompose``) run it, ``make_channel`` and
the measures their stacked form on a Kraus stack; the brackets and the spectral
functions take arrays that passed it and do not check them again.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, NotHermitianError,
                     NotPositiveError, NumericError)

# Every tolerance of the package. "abs" compares the residual itself;
# "rel" compares it with tol * max(1, ||H||_F) of the matrix H under test.
#
#   name                       value   kind  guards
HERMITICITY_TOL = 1e-10      # rel   ||H - H^dag||_F of spectral input and observables
RECONSTRUCTION_TOL = 1e-10   # rel   ||V diag(w) V^dag - H||_F of an eigendecomposition
#                                    (abs for its orthonormality ||V^dag V - I||_F)
SQRT_TOL = 1e-9              # rel   ||S^2 - H||_F of the PSD square root S
PSD_CLAMP_TOL = 1e-10        # rel   eigenvalues within it of 0 clamp to 0 before
#                                    rooting; below minus it raise NotPositiveError
PHASE_PIVOT_TOL = 1e-12      # abs   smallest eigenvector entry used as phase pivot
DENSITY_TOL = 1e-10          # abs   a state's ||rho - rho^dag||_F, |Tr rho - 1|
#                                    and its most negative eigenvalue
CPTP_TOL = 1e-8              # abs   ||sum E_i^dag E_i - I||_F of a channel
ISOMETRY_CPTP_TOL = 1e-10    # abs   the same for a random channel cut from an isometry
GRAM_SCHMIDT_TOL = 1e-12     # abs   smallest column norm Gram-Schmidt accepts
NEGATIVITY_FLOOR = -1e-12    # abs   a nonnegative quantity (measure, bound, closed-form
#                                    root argument) in [floor, 0) clamps to 0, below raises
IDENTITY_RTOL = 1e-9         # rel   u^2 = i_tilde * j_tilde and i_tilde + j_tilde =
#                                    2 v_sym, scaled by max(1, |lhs|, |rhs|)
SLACK_TOL = 1e-9             # abs   a bound slack below minus it is a violation


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array and validate it.

    Raises ``DimensionMismatchError`` for ragged or non-square input and
    for entries that are not numbers (text, even numeric text such as
    ``"0.5"``, bytes, ``None``, dicts and other objects), and
    ``NumericError`` for non-finite entries.
    """
    return _as_square(m, (2,))


def _as_square(m, ndims: tuple[int, ...]) -> np.ndarray:
    """:func:`as_matrix` of ``ndims`` axes, the last two square (3: an ``(N, d, d)`` stack)."""
    what = " or ".join({2: "a square matrix", 3: "a stack of square matrices"}[n] for n in ndims)
    try:
        a = np.array(m, order="C")  # a copy: no caller can alter it later
    except ValueError:  # ragged nesting
        raise DimensionMismatchError(f"expected {what}, got ragged input") from None
    if a.dtype.kind not in "biufc":  # text, bytes, None, dicts and other objects
        raise DimensionMismatchError(f"expected {what}, got non-numeric input")
    a = a.astype(complex, copy=False)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise DimensionMismatchError(f"expected {what}, got shape {a.shape}")
    if not np.isfinite(a).all():  # complex: both parts finite
        raise NumericError("matrix contains non-finite entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _pow(x, n: int) -> np.ndarray:
    """``v ** n`` of each value of ``x`` as an array of its shape, by one ``math.pow`` pass:
    libm ``pow``, as float ``**`` (numpy's power, its square too, moves last bits)."""
    x = np.asarray(x)
    return np.fromiter(map(math.pow, x.ravel().tolist(), repeat(n)), float, x.size).reshape(x.shape)


def frob_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius inner product Tr(a^dag b), conjugate-linear in ``a``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"incompatible operands: shapes {a.shape} and {b.shape}")
    return complex(np.trace(dagger(a) @ b))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba."""
    return a @ b + b @ a


def _brackets(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(xy - yx, xy + yx)`` of two matrices or two stacks, pair by pair (a matrix facing
    a stack broadcasts), each product formed once: the package's one bracket-pair kernel."""
    xy, yx = x @ y, y @ x
    return xy - yx, xy + yx


def _sym_brackets(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sym_anticommutator(x, y), sym_commutator(x, y), commutator(x, y))`` of two
    matrices or two stacks, pair by pair: the raw and the adjoint pair's :func:`_brackets`,
    averaged, the raw pair's products freed before the adjoint pair's are formed."""
    comm, anti = _brackets(x, y)
    dcomm, danti = _brackets(dagger(x), dagger(y))
    return 0.5 * (anti + danti), 0.5 * (comm + dcomm), comm


def sym_commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetrized commutator: average of [x, y] and [x^dag, y^dag].

    Coincides with the plain commutator when both operands are Hermitian.
    """
    return _sym_brackets(x, y)[1]


def sym_anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetrized anticommutator: average of {x, y} and {x^dag, y^dag}."""
    return _sym_brackets(x, y)[0]


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    are orthonormal, each phase-normalized so that its first component of
    non-negligible magnitude is positive real.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _scale(h: np.ndarray) -> tuple[float, float]:
    """``(scale, unit)`` of the relative tolerances on ``h``: a residual ``r`` passes
    ``||r / unit||_F <= tol * scale``, where ``scale`` is ``max(1, ||h||_F)`` in
    units of ``unit``. The unit is 1, and the scale the plain norm bit for bit,
    unless the squares in ``||h||_F`` overflow (``||h||_F`` above about 1.3e154);
    then the unit is the largest real or imaginary part of ``h`` in magnitude,
    so the scale stays finite."""
    with np.errstate(over="ignore"):  # an overflowing norm takes the branch below
        scale = frob_norm(h)
    if scale < math.inf:
        return max(1.0, scale), 1.0
    unit = max(float(np.abs(h.real).max()), float(np.abs(h.imag).max()))
    return frob_norm(h / unit), unit


def _require_hermitian(h: np.ndarray) -> np.ndarray:
    """Check Hermiticity within ``HERMITICITY_TOL * max(1, ||h||_F)``; return ``h``.
    A residual that overflows is not finite and fails, whatever the scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale, unit = _scale(h)
        res = frob_norm((h - dagger(h)) / unit)
    if not res <= HERMITICITY_TOL * scale:
        raise NotHermitianError(res * unit)
    return h


def _normalize_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above ``PHASE_PIVOT_TOL`` in magnitude is
    positive real. A unit column has one: its largest is at least 1/sqrt(d)."""
    mag = np.hypot(vecs.real, vecs.imag)  # the scalar abs bit for bit; np.abs can differ
    pivot = np.argmax(mag > PHASE_PIVOT_TOL, axis=0), np.arange(vecs.shape[1])
    return vecs * (vecs[pivot].conj() / mag[pivot])


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    ``h`` is a square finite array, as :func:`as_matrix` returns. Raises
    ``NotHermitianError`` if it is not Hermitian within tolerance, and
    ``NumericError`` if the solver fails or a residual exceeds its
    contract (a non-finite residual counts as exceeding it). Near the
    double limit the decomposition is that of ``h`` in the unit of
    ``_scale``, scaled back, so an eigenvalue beyond the range is +-inf.
    """
    _require_hermitian(h)
    hs = 0.5 * h + 0.5 * dagger(h)  # not 0.5 * (h + h^dag), whose sum can overflow
    scale, unit = _scale(hs)
    hs = hs / unit
    try:
        w, v = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    v = _normalize_phases(v)
    recon = frob_norm((v * w) @ dagger(v) - hs)
    ortho = frob_norm(dagger(v) @ v - np.eye(h.shape[0]))
    if not (recon <= RECONSTRUCTION_TOL * scale and ortho <= RECONSTRUCTION_TOL):
        raise NumericError(
            f"eigendecomposition residuals out of tolerance: "
            f"reconstruction {recon * unit:.3e}, orthonormality {ortho:.3e}")
    return SpectralDecomposition(eigenvalues=w * unit, eigenvectors=v)


def psd_sqrt(h) -> np.ndarray:
    """Principal square root of a Hermitian positive-semidefinite matrix.

    ``h`` is a square finite array, as :func:`as_matrix` returns. Eigenvalues
    within ``tol = PSD_CLAMP_TOL * max(1, ||h||_F)`` of zero (either
    sign) are clamped to zero before rooting, so rank-deficient inputs
    such as pure states root exactly instead of picking up O(sqrt(eps))
    noise; anything below ``-tol`` raises ``NotPositiveError``. The
    clamp stays within the ``||S^2 - h||`` contract because zeroing an
    eigenvalue of magnitude <= tol perturbs the square by at most tol.
    """
    return _sqrt_from_spectrum(h, hermitian_eig(h))


def _sqrt_from_spectrum(h: np.ndarray, spectrum: SpectralDecomposition) -> np.ndarray:
    """:func:`psd_sqrt` of ``h``, given ``spectrum = hermitian_eig(h)``."""
    w, v = spectrum
    scale, unit = _scale(h)
    tol = PSD_CLAMP_TOL * scale * unit
    if w[0] < -tol:
        raise NotPositiveError(float(w[0]))
    w = np.where(w <= tol, 0.0, w)
    s = (v * np.sqrt(w)) @ dagger(v)
    s = 0.5 * (s + dagger(s))
    residual = frob_norm((s @ s - (0.5 * h + 0.5 * dagger(h))) / unit)
    if not residual <= SQRT_TOL * scale:
        raise NumericError(f"square-root residual {residual * unit:.3e} out of tolerance")
    return s


def cartesian_decompose(k) -> tuple[np.ndarray, np.ndarray]:
    """Split k into Hermitian parts (a, b) with k = a + i*b."""
    k = as_matrix(k)
    a = 0.5 * (k + dagger(k))
    b = (k - dagger(k)) / 2j
    return a, b
