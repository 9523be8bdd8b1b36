"""Validated quantum states and channels, plus their JSON wire format.

``DensityMatrix`` and ``KrausChannel`` run their physical checks at
construction time (through :func:`make_density` / :func:`make_channel`)
so downstream code can assume validity and does not check them again.
The tolerances are those of the table in :mod:`chanuq.linalg`, chosen
for double precision, so file-loaded inputs work without exact
arithmetic.

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
from .linalg import CPTP_TOL, DENSITY_TOL


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, PSD, unit-trace matrix with cached square root."""

    matrix: np.ndarray
    sqrt_matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map stored as its ordered Kraus operators, one ``(N, d, d)`` stack."""

    kraus_ops: np.ndarray

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[1]

    def __len__(self) -> int:
        return len(self.kraus_ops)


def make_density(m) -> DensityMatrix:
    """Validate a matrix as a quantum state and cache its square root.

    Checks, in order: Hermiticity, unit trace, positive semidefiniteness,
    each within ``DENSITY_TOL``. The corresponding :class:`ValidationError`
    subclass names the violated property and carries the residual. One
    eigendecomposition serves both the positivity check and the root.
    """
    m = linalg.as_matrix(m)
    herm_res = linalg.frob_norm(m - linalg.dagger(m))
    if herm_res > DENSITY_TOL:
        raise NotHermitianError(herm_res)
    trace_res = abs(complex(np.trace(m)) - 1.0)
    if trace_res > DENSITY_TOL:
        raise TraceError(trace_res)
    spectrum = linalg.hermitian_eig(m)
    if spectrum.eigenvalues[0] < -DENSITY_TOL:
        raise NotPositiveError(float(spectrum.eigenvalues[0]))
    return DensityMatrix(matrix=m, sqrt_matrix=linalg._sqrt_from_spectrum(m, spectrum))


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
    return KrausChannel(kraus_ops=np.array(mats))


def apply_channel(phi: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: sum_i E_i rho E_i^dag, revalidated as a state."""
    if phi.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dimension {phi.dim} does not match state dimension {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for op in phi.kraus_ops:
        out += op @ rho.matrix @ linalg.dagger(op)
    return make_density(out)


def _operand(rho: DensityMatrix, k) -> np.ndarray:
    """The check on an operator argument of a public function: ``as_matrix``
    plus the state's dimension."""
    k = linalg.as_matrix(k)
    if k.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"operator dimension {k.shape[0]} does not match state dimension {rho.dim}")
    return k


def center_operator(k, rho: DensityMatrix) -> np.ndarray:
    """Subtract the state expectation: K - Tr(rho K) * I."""
    return _center(_operand(rho, k), rho)


def _center(k: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """:func:`center_operator` of a checked operator."""
    expectation = complex(np.trace(rho.matrix @ k))
    return k - expectation * np.eye(rho.dim)


def pad_channels(phi: KrausChannel, psi: KrausChannel
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Both Kraus stacks, extended with zero operators to a common length N.

    Zero operators contribute nothing to any of the measures or trace
    sums, so padding only pins down the common N used in prefactors.
    Returns ``(ops_phi, ops_psi, n_common)``; a stack that already has
    length N is returned as stored, and the channel objects are untouched.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatchError(
            f"channels act on different dimensions: {phi.dim} vs {psi.dim}")
    n_common = max(len(phi), len(psi))

    def padded(ch: KrausChannel) -> np.ndarray:
        if len(ch) == n_common:
            return ch.kraus_ops
        zeros = np.zeros((n_common - len(ch), ch.dim, ch.dim), dtype=complex)
        return np.concatenate([ch.kraus_ops, zeros])

    return padded(phi), padded(psi), n_common


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


def _schema_dim(doc: dict, where: str, body_key: str) -> int:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - {"dim", body_key})
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"{where}: 'dim' must be a positive integer")
    return dim


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": _matrix_to_rows(rho.matrix)}


def state_from_json(doc: dict) -> DensityMatrix:
    dim = _schema_dim(doc, "state", "matrix")
    if "matrix" not in doc:
        raise SchemaError("state: missing 'matrix'")
    return make_density(_rows_to_matrix(doc["matrix"], dim, "state.matrix"))


def channel_to_json(phi: KrausChannel) -> dict:
    return {"dim": phi.dim, "kraus": [_matrix_to_rows(op) for op in phi.kraus_ops]}


def channel_from_json(doc: dict) -> KrausChannel:
    dim = _schema_dim(doc, "channel", "kraus")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or len(kraus) == 0:
        raise SchemaError("channel: 'kraus' must be a nonempty array of matrices")
    ops = [_rows_to_matrix(rows, dim, f"channel.kraus[{k}]")
           for k, rows in enumerate(kraus)]
    return make_channel(ops)
