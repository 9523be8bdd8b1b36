"""Scalar uncertainty measures for operators and channels.

For an operator K and state rho these are the absolute variance
Tr(rho K0^dag K0) (K0 the centered operator), its symmetrized version,
and the skew-information pair built from the commutator and
anticommutator of K with sqrt(rho). A channel aggregates the
per-Kraus-operator values; the derived quantity ``u_abs`` interpolates
between total and quantum uncertainty and obeys
``u_abs^2 = i_tilde * j_tilde``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericError
from .linalg import IDENTITY_RTOL, NEGATIVITY_FLOOR
from .objects import DensityMatrix, KrausChannel, _center, _operand, _same_dim


@dataclass(frozen=True)
class MeasureSet:
    """The five channel uncertainty quantities for one (state, channel) pair."""

    v_sym: float
    i_tilde: float
    j_tilde: float
    c_abs: float
    u_abs: float


def _nonneg(value: float, what: str) -> float:
    """Clamp rounding noise in ``[NEGATIVITY_FLOOR, 0)`` to 0; below it signals a bug."""
    if value < NEGATIVITY_FLOOR:
        raise NumericError(f"{what} evaluated to {value!r}, beyond rounding tolerance")
    return max(value, 0.0)


# Each public measure checks its operand once and hands it to the private
# kernel of the same name; compositions call the kernels, not the checks.

def abs_variance(rho: DensityMatrix, k) -> float:
    """Tr(rho K^dag K) - |Tr(rho K)|^2, via the centered operator."""
    return _abs_variance(rho, _operand(rho, k))


def _abs_variance(rho: DensityMatrix, k: np.ndarray) -> float:
    k0 = _center(k, rho)
    value = complex(np.trace(rho.matrix @ linalg.dagger(k0) @ k0)).real
    return _nonneg(value, "absolute variance")


def sym_abs_variance(rho: DensityMatrix, k) -> float:
    """Average of the absolute variances of K and K^dag."""
    return _sym_abs_variance(rho, _operand(rho, k))


def _sym_abs_variance(rho: DensityMatrix, k: np.ndarray) -> float:
    return 0.5 * (_abs_variance(rho, k) + _abs_variance(rho, linalg.dagger(k)))


def mwy_skew_info(rho: DensityMatrix, k) -> float:
    """Half the squared Frobenius norm of [sqrt(rho), K]."""
    return _skew_info(rho, _operand(rho, k))


def _skew_info(rho: DensityMatrix, k: np.ndarray) -> float:
    return 0.5 * linalg.frob_norm(linalg.commutator(rho.sqrt_matrix, k)) ** 2


def mwy_anti_info(rho: DensityMatrix, k) -> float:
    """Half the squared Frobenius norm of {sqrt(rho), K}."""
    a = linalg.anticommutator(rho.sqrt_matrix, _operand(rho, k))
    return 0.5 * linalg.frob_norm(a) ** 2


def operator_u(rho: DensityMatrix, k) -> float:
    """The uncertainty quantity |U_rho|(K) of a single operator.

    Equals sqrt(I0 * J0) with I0, J0 the skew-information pair of the
    centered operator; computed here from the variance form
    sqrt(V_sym^2 - (V_sym - I)^2) with clamping against rounding.
    """
    return _operator_u(rho, _operand(rho, k))


def _operator_u(rho: DensityMatrix, k: np.ndarray) -> float:
    return _u_from(_sym_abs_variance(rho, k), _skew_info(rho, k))


def _u_from(v: float, i: float) -> float:
    """|U_rho|(K) from V_sym(K) and the skew information I(K)."""
    return float(np.sqrt(max(v * v - (v - i) ** 2, 0.0)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= IDENTITY_RTOL * max(1.0, abs(a), abs(b))


def channel_measures(rho: DensityMatrix, phi: KrausChannel) -> MeasureSet:
    """Aggregate the uncertainty quantities of a channel's Kraus operators.

    ``i_tilde`` and ``j_tilde`` sum the skew informations of the centered
    operators (centering leaves the commutator part unchanged but matters
    for the anticommutator part); ``u_abs`` is derived from ``v_sym`` and
    ``c_abs`` with clamping, and the internal identities
    ``u^2 = i_tilde * j_tilde`` and ``i_tilde + j_tilde = 2 v_sym`` are
    asserted before returning.
    """
    _same_dim(rho, phi.dim, "channel")
    v_sym = 0.0
    i_tilde = 0.0
    j_tilde = 0.0
    # the public measures re-check each stored operator; perfbench/spans.py
    # times this path as its measures.operator layer until the loop is stacked
    for op in phi.kraus_ops:
        centered = _center(op, rho)
        v_sym += sym_abs_variance(rho, op)
        i_tilde += mwy_skew_info(rho, centered)
        j_tilde += mwy_anti_info(rho, centered)
    c_abs = v_sym - i_tilde
    u_abs = float(np.sqrt(max(v_sym * v_sym - c_abs * c_abs, 0.0)))
    if not _close(u_abs * u_abs, i_tilde * j_tilde):
        raise NumericError(
            f"u^2 = {u_abs * u_abs!r} disagrees with i_tilde*j_tilde = "
            f"{i_tilde * j_tilde!r}")
    if not _close(i_tilde + j_tilde, 2.0 * v_sym):
        raise NumericError(
            f"i_tilde + j_tilde = {i_tilde + j_tilde!r} disagrees with "
            f"2*v_sym = {2.0 * v_sym!r}")
    return MeasureSet(v_sym=float(v_sym), i_tilde=float(i_tilde),
                      j_tilde=float(j_tilde), c_abs=float(c_abs), u_abs=u_abs)
