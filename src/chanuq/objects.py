"""Validated quantum states and channels, plus their JSON wire format.

``DensityMatrix`` and ``KrausChannel`` run their physical checks at
construction time (through :func:`make_density` / :func:`make_channel`)
so downstream code can assume validity and does not check them again.
``make_density`` coerces with :func:`chanuq.linalg.as_matrix`, and
``make_channel`` runs the same check once on the ``(N, d, d)`` stack it
stores, then checks completeness as the one-channel case of
``_make_channels``, which validates a ``(G, N, d, d)`` stack of channels
in one product and sum, and alone checks stacks known to be complex,
square and finite: the example channels, ``random_channel``'s isometry
and ``channel_from_json``'s decoded stack. The tolerances are those of
the table in :mod:`chanuq.linalg`, chosen for double precision, so
file-loaded inputs work without exact arithmetic.

The JSON layout (consumed by the CLI) encodes a complex number as a
two-element array ``[re, im]`` of finite JSON numbers (not booleans):

* state:   ``{"dim": n, "matrix": [[..n rows of n entries..]]}``
* channel: ``{"dim": n, "kraus": [[..matrix..], ...]}``
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (CompletenessError, DimensionMismatchError, NotHermitianError,
                     NotPositiveError, SchemaError, TraceError, ValidationError)
from .linalg import CPTP_TOL, DENSITY_TOL


def _refreeze(obj, state: dict) -> None:
    """``__setstate__`` of the validated classes: an unpickled or copied array is
    writable again, and results kept from it must not go stale."""
    for name, array in state.items():
        object.__setattr__(obj, name, _frozen(array))


@dataclass(frozen=True, eq=False)  # identity equality and hashing: the fields are arrays
class DensityMatrix:
    """A quantum state: Hermitian, PSD, unit-trace matrix with cached square root."""

    matrix: np.ndarray
    sqrt_matrix: np.ndarray = field(repr=False)

    __setstate__ = _refreeze

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)  # identity equality and hashing, as DensityMatrix
class _States:
    """A stack of validated states, ``(T, d, d)`` arrays over a leading trial axis, built by
    :func:`_stack_states` from :class:`DensityMatrix` objects: state t goes with entry t
    of every operand stack. It runs no check of its own, and the public functions take
    its operands, stacks of the verification harness's own draws, unchecked."""

    matrix: np.ndarray
    sqrt_matrix: np.ndarray

    dim = property(lambda self: self.matrix.shape[-1])


def _stack_states(rhos) -> _States:
    return _States(_frozen(np.array([r.matrix for r in rhos])),
                   _frozen(np.array([r.sqrt_matrix for r in rhos])))


@dataclass(frozen=True, eq=False)  # identity equality and hashing, as DensityMatrix
class KrausChannel:
    """A CPTP map stored as its ordered Kraus operators, one ``(N, d, d)`` stack."""

    kraus_ops: np.ndarray

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[1]

    __setstate__ = _refreeze

    def __len__(self) -> int:
        return len(self.kraus_ops)


def make_density(m) -> DensityMatrix:
    """Validate a matrix as a quantum state and cache its square root (both read-only).

    Checks, in order: Hermiticity, unit trace, positive semidefiniteness,
    each within ``DENSITY_TOL``. The corresponding :class:`ValidationError`
    subclass names the violated property and carries the residual. One
    eigendecomposition serves both the positivity check and the root.
    """
    m = linalg.as_matrix(m)
    # no numpy overflow warnings: the NaN-safe checks below reject such input
    with np.errstate(over="ignore", invalid="ignore"):
        herm_res = linalg.frob_norm(m - linalg.dagger(m))
        if herm_res > DENSITY_TOL:
            raise NotHermitianError(herm_res)
        trace_res = abs(complex(np.trace(m)) - 1.0)
        if not trace_res <= DENSITY_TOL:  # NaN-safe: an overflowing trace must fail too
            raise TraceError(trace_res)
        spectrum = linalg.hermitian_eig(m)
        if spectrum.eigenvalues[0] < -DENSITY_TOL:
            raise NotPositiveError(float(spectrum.eigenvalues[0]))
        return DensityMatrix(matrix=_frozen(m),
                             sqrt_matrix=_frozen(linalg._sqrt_from_spectrum(m, spectrum)))


def make_channel(ops) -> KrausChannel:
    """Validate a list of Kraus operators as a CPTP channel, stored as one read-only stack.

    Completeness is checked as ``||sum E_i^dag E_i - I||_F <= CPTP_TOL``, by the one-channel
    case of :func:`_make_channels`.
    """
    if len(ops) == 0:
        raise ValidationError("nonempty Kraus list", 0.0,
                              "a channel needs at least one Kraus operator")
    return _make_channels(linalg._as_square(ops, (3,))[None])[0]


def _make_channels(stack: np.ndarray, tol: float = CPTP_TOL) -> list[KrausChannel]:
    """:func:`make_channel` of each ``(N, d, d)`` block of a complex ``(G, N, d, d)`` stack,
    one product and sum for all: the first incomplete block raises its ``CompletenessError``.
    The channels keep read-only views of the stack, which is frozen."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in make_density
        totals = (linalg.dagger(stack) @ stack).sum(axis=1) - _eye(stack.shape[-1])
        for total in totals:
            residual = linalg.frob_norm(total)
            if not residual <= tol:  # NaN-safe: an overflowing sum must fail too
                raise CompletenessError(residual)
    return [KrausChannel(kraus_ops=block) for block in _frozen(stack)]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only so no result cached from it can go stale."""
    a.setflags(write=False)
    return a


def _operand(rho: DensityMatrix, k, stack: bool = False) -> np.ndarray:
    """The check on an operator argument of a public function: ``as_matrix`` (with
    ``stack``, of an ``(N, d, d)`` stack too) plus the state's dimension; none under a
    state stack (see :class:`_States`)."""
    if isinstance(rho, _States):
        return k
    k = linalg._as_square(k, (2, 3) if stack else (2,))
    _same_dim(rho, k.shape[-1], "operator")
    return k


def _same_dim(rho: DensityMatrix, dim: int, what: str) -> None:
    """The check that an operator or channel argument acts on the state's dimension."""
    if dim != rho.dim:
        raise DimensionMismatchError(
            f"{what} dimension {dim} does not match state dimension {rho.dim}")


def center_operator(k, rho: DensityMatrix) -> np.ndarray:
    """Subtract the state expectation: K - Tr(rho K) * I."""
    return _center(_operand(rho, k), rho)


def _expect(rho: DensityMatrix, k: np.ndarray):
    """Tr(rho K) of a checked operator, or an array of it over leading grid axes."""
    value = (_aligned(rho.matrix, k) @ k).trace(0, -2, -1)
    return value if value.ndim else complex(value)


def _center(k: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """:func:`center_operator` of a checked operator or of each of a stack, by :func:`_expect`."""
    return k - np.multiply.outer(_expect(rho, k), _eye(rho.dim))


def _aligned(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A state's matrix ``m`` facing an operand ``x``: a lone ``(d, d)`` one as it is, a
    stack's ``(T, d, d)`` with unit axes after its trial axis, up to the ndim of ``x``,
    whose leading axis is that trial axis. Products of the two give each matrix the bits
    of its own product with its own state."""
    return m if m.ndim == 2 else m.reshape(len(m), *(1,) * (x.ndim - 3), *m.shape[1:])


@functools.lru_cache(maxsize=64)
def _eye(dim: int) -> np.ndarray:
    """The read-only ``dim`` x ``dim`` identity, built once per dimension."""
    return _frozen(np.eye(dim))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _decode(parts: list, dim: int, where: str) -> np.ndarray:
    """The ``(len(parts), dim, dim)`` complex stack of matrix documents, in one
    conversion; where that fails, a row scan raises ``SchemaError`` naming
    ``where.format(k)`` and the position of the first fault."""
    cells = np.array(parts, dtype=object)
    if (cells.shape == (len(parts), dim, dim, 2)
            and set(map(type, cells.flat)) <= {int, float}):
        with contextlib.suppress(OverflowError):  # an integer beyond the double range
            pairs = cells.astype(float)
            if np.isfinite(pairs).all():  # json reads NaN, Infinity and -Infinity
                return pairs.view(complex)[..., 0]
    for k, rows in enumerate(parts):
        if not isinstance(rows, list) or len(rows) != dim:
            raise SchemaError(f"{where.format(k)}: expected {dim} rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise SchemaError(f"{where.format(k)}: row {i} must hold {dim} entries")
            faults = np.frompyfunc(_entry_fault, 1, 1)(np.fromiter(row, object, dim))
            for j in np.flatnonzero(faults)[:1]:  # the first faulty entry, if any
                raise SchemaError(f"{where.format(k)}: entry ({i},{j}) {faults[j]}")


def _entry_fault(entry) -> str:
    """Why ``entry`` is not an ``[re, im]`` pair of finite JSON numbers, or ''."""
    if not (isinstance(entry, list) and len(entry) == 2
            and {type(entry[0]), type(entry[1])} <= {int, float}):
        return "must be a two-element [re, im] array"
    try:
        return "" if np.isfinite(complex(entry[0], entry[1])) else "is not a finite number"
    except OverflowError:
        return "is out of floating-point range"


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
    m = rho.matrix
    return {"dim": rho.dim, "matrix": np.stack([m.real, m.imag], -1).tolist()}


def state_from_json(doc: dict) -> DensityMatrix:
    dim = _schema_dim(doc, "state", "matrix")
    if "matrix" not in doc:
        raise SchemaError("state: missing 'matrix'")
    return make_density(_decode([doc["matrix"]], dim, "state.matrix")[0])


def channel_to_json(phi: KrausChannel) -> dict:
    ops = phi.kraus_ops
    return {"dim": phi.dim, "kraus": np.stack([ops.real, ops.imag], -1).tolist()}


def channel_from_json(doc: dict) -> KrausChannel:
    dim = _schema_dim(doc, "channel", "kraus")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or len(kraus) == 0:
        raise SchemaError("channel: 'kraus' must be a nonempty array of matrices")
    return _make_channels(_decode(kraus, dim, "channel.kraus[{}]")[None])[0]
