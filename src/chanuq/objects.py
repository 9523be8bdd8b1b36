"""Validated quantum states and channels, plus their JSON wire format.

``DensityMatrix`` and ``KrausChannel`` run their physical checks at
construction time (through :func:`make_density` / :func:`make_channel`)
so downstream code can assume validity. Tolerances are constructor
parameters with defaults chosen for double precision; file-loaded
inputs therefore work without exact arithmetic.

The JSON layout (consumed by the CLI) encodes a complex number as a
two-element array ``[re, im]``:

* state:   ``{"dim": n, "matrix": [[..n rows of n entries..]]}``
* channel: ``{"dim": n, "kraus": [[..matrix..], ...]}``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (CompletenessError, DimensionMismatchError, NotHermitianError,
                     NotPositiveError, SchemaError, TraceError, ValidationError)

DENSITY_TOL = 1e-10
CPTP_TOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, PSD, unit-trace matrix with cached square root."""

    matrix: np.ndarray
    sqrt_matrix: np.ndarray = field(repr=False)
    validation_tolerance: float = DENSITY_TOL

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map stored as its ordered list of Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]
    dim: int
    cptp_tolerance: float = CPTP_TOL

    def __len__(self) -> int:
        return len(self.kraus_ops)


def make_density(m, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Validate a matrix as a quantum state and cache its square root.

    Checks, in order: Hermiticity, unit trace, positive semidefiniteness,
    each within ``tol``. The corresponding :class:`ValidationError`
    subclass names the violated property and carries the residual.
    """
    m = linalg.as_matrix(m)
    herm_res = linalg.frob_norm(m - linalg.dagger(m))
    if herm_res > tol:
        raise NotHermitianError(herm_res)
    trace_res = abs(complex(np.trace(m)) - 1.0)
    if trace_res > tol:
        raise TraceError(trace_res)
    eigenvalues, _ = linalg.hermitian_eig(m)
    if eigenvalues[0] < -tol:
        raise NotPositiveError(float(eigenvalues[0]))
    sqrt_matrix = linalg.psd_sqrt(m)
    return DensityMatrix(matrix=m, sqrt_matrix=sqrt_matrix, validation_tolerance=tol)


def make_channel(ops, tol: float = CPTP_TOL) -> KrausChannel:
    """Validate a list of Kraus operators as a CPTP channel.

    Completeness is checked as ``||sum E_i^dag E_i - I||_F <= tol``.
    """
    if len(ops) == 0:
        raise ValidationError("nonempty Kraus list", 0.0,
                              "a channel needs at least one Kraus operator")
    mats = [linalg.as_matrix(op) for op in ops]
    dim = mats[0].shape[0]
    for op in mats[1:]:
        if op.shape[0] != dim:
            raise DimensionMismatchError(
                f"Kraus operators mix dimensions {dim} and {op.shape[0]}")
    total = sum(linalg.dagger(op) @ op for op in mats)
    residual = linalg.frob_norm(total - np.eye(dim))
    if residual > tol:
        raise CompletenessError(residual)
    return KrausChannel(kraus_ops=tuple(mats), dim=dim, cptp_tolerance=tol)


def apply_channel(phi: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: sum_i E_i rho E_i^dag, revalidated as a state."""
    if phi.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dimension {phi.dim} does not match state dimension {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for op in phi.kraus_ops:
        out += op @ rho.matrix @ linalg.dagger(op)
    return make_density(out, tol=rho.validation_tolerance)


def center_operator(k, rho: DensityMatrix) -> np.ndarray:
    """Subtract the state expectation: K - Tr(rho K) * I."""
    k = linalg.as_matrix(k)
    if k.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"operator dimension {k.shape[0]} does not match state dimension {rho.dim}")
    expectation = complex(np.trace(rho.matrix @ k))
    return k - expectation * np.eye(rho.dim)


def pad_channels(phi: KrausChannel, psi: KrausChannel
                 ) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Extend both Kraus lists with zero operators to a common length N.

    Zero operators contribute nothing to any of the measures or trace
    sums, so padding only pins down the common N used in prefactors.
    Returns ``(ops_phi, ops_psi, n_common)``; the channel objects are untouched.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatchError(
            f"channels act on different dimensions: {phi.dim} vs {psi.dim}")
    n_common = max(len(phi), len(psi))
    zero = np.zeros((phi.dim, phi.dim), dtype=complex)
    ops_phi = list(phi.kraus_ops) + [zero] * (n_common - len(phi))
    ops_psi = list(psi.kraus_ops) + [zero] * (n_common - len(psi))
    return ops_phi, ops_psi, n_common


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _entry_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[_entry_to_pair(complex(z)) for z in row] for row in m]


def _rows_to_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{where}: row {i} must hold {dim} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in entry)):
                raise SchemaError(
                    f"{where}: entry ({i},{j}) must be a two-element [re, im] array")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise SchemaError(
                    f"{where}: entry ({i},{j}) is out of floating-point range") from None
    # Python's json accepts the tokens NaN, Infinity and -Infinity
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = bad[0]
        raise SchemaError(f"{where}: entry ({i},{j}) is not a finite number")
    return out


def _schema_dim(doc: dict, where: str) -> int:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"{where}: 'dim' must be a positive integer")
    return dim


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": _matrix_to_rows(rho.matrix)}


def state_from_json(doc: dict, tol: float = DENSITY_TOL) -> DensityMatrix:
    dim = _schema_dim(doc, "state")
    if "matrix" not in doc:
        raise SchemaError("state: missing 'matrix'")
    return make_density(_rows_to_matrix(doc["matrix"], dim, "state.matrix"), tol=tol)


def channel_to_json(phi: KrausChannel) -> dict:
    return {"dim": phi.dim, "kraus": [_matrix_to_rows(op) for op in phi.kraus_ops]}


def channel_from_json(doc: dict, tol: float = CPTP_TOL) -> KrausChannel:
    dim = _schema_dim(doc, "channel")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or len(kraus) == 0:
        raise SchemaError("channel: 'kraus' must be a nonempty array of matrices")
    ops = [_rows_to_matrix(rows, dim, f"channel.kraus[{k}]")
           for k, rows in enumerate(kraus)]
    return make_channel(ops, tol=tol)
