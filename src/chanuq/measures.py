"""Scalar uncertainty measures for operators and channels.

For an operator K and state rho these are the absolute variance
Tr(rho K0^dag K0) (K0 the centered operator), its symmetrized version,
and the skew-information pair built from the commutator and
anticommutator of K with sqrt(rho). A channel aggregates the
per-Kraus-operator values; the derived quantity ``u_abs`` interpolates
between total and quantum uncertainty and obeys
``u_abs^2 = i_tilde * j_tilde``. One record, ``_Terms``, kept on each
channel by ``_terms``, holds everything derived from a (state, channel)
pair: the channel's measures and the terms :mod:`chanuq.bounds` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NumericError
from .linalg import IDENTITY_RTOL, NEGATIVITY_FLOOR
from .objects import DensityMatrix, KrausChannel, _center, _eye, _frozen, _operand, _same_dim


@dataclass(frozen=True)
class MeasureSet:
    """The five channel uncertainty quantities for one (state, channel) pair."""

    v_sym: float
    i_tilde: float
    j_tilde: float
    c_abs: float
    u_abs: float


def _nonneg(value: float, what: str) -> float:
    """Clamp rounding noise in ``[NEGATIVITY_FLOOR, 0)`` to 0. A value below it
    signals a bug, and NaN or inf an overflow; both raise ``NumericError``."""
    if not NEGATIVITY_FLOOR <= value < math.inf:
        raise NumericError(
            f"{what} evaluated to {value!r}: negative beyond rounding, or not finite")
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
    return _nonneg(0.5 * linalg.frob_norm(linalg.commutator(rho.sqrt_matrix, k)) ** 2,
                   "skew information")


def mwy_anti_info(rho: DensityMatrix, k) -> float:
    """Half the squared Frobenius norm of {sqrt(rho), K}."""
    a = linalg.anticommutator(rho.sqrt_matrix, _operand(rho, k))
    return _nonneg(0.5 * linalg.frob_norm(a) ** 2, "anticommutator information")


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
    return _nonneg(float(np.sqrt(max(v * v - (v - i) ** 2, 0.0))), "|U|")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= IDENTITY_RTOL * max(1.0, abs(a), abs(b))


def channel_measures(rho: DensityMatrix, phi: KrausChannel) -> MeasureSet:
    """Aggregate the uncertainty quantities of a channel's Kraus operators.

    ``i_tilde`` and ``j_tilde`` sum the skew informations of the centered
    operators (centering leaves the commutator part unchanged but matters
    for the anticommutator part); ``u_abs`` is derived from ``v_sym`` and
    ``c_abs`` with clamping, and the internal identities
    ``u^2 = i_tilde * j_tilde`` and ``i_tilde + j_tilde = 2 v_sym`` are
    asserted. The result is a field of the channel's kept ``_terms(rho, phi)``.
    """
    return _terms(rho, phi).measures


def _sqrt_brackets(rho: DensityMatrix, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of [sqrt(rho), K_i] and {sqrt(rho), K_i}."""
    left, right = rho.sqrt_matrix @ stack, stack @ rho.sqrt_matrix
    return _frozen(left - right), _frozen(left + right)


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix of Frobenius inner products <x_i, y_j>, conjugate-linear in x."""
    return x.reshape(len(x), -1).conj() @ y.reshape(len(y), -1).T


def _sq_norm(x: np.ndarray) -> float:
    """Squared Frobenius norm of an array of any shape."""
    return float(np.vdot(x, x).real)


class _Terms:
    """Everything derived from one Kraus stack ``x`` under the state ``rho``,
    each field built on first use: the channel's :class:`MeasureSet`, and what
    the bounds read: Tr(rho K_i) and Tr(rho K_i^dag), the brackets
    [sqrt(rho), K_i], {sqrt(rho), K_i} of the raw and of the centered K_i and
    their squared norms, sum_i K_i and its centered form, rho K_i - K_i rho,
    and the two terms of ``thm4``."""

    def __init__(self, rho: DensityMatrix, x: np.ndarray):
        self.rho = rho  # held, so the state's identity cannot be reused while cached
        self.x = x

    @cached_property
    def measures(self) -> MeasureSet:
        """:func:`channel_measures`, summed one operator at a time."""
        rho, v_sym, i_tilde, j_tilde = self.rho, 0.0, 0.0, 0.0
        # the public measures re-check each stored operator; perfbench/spans.py
        # times this path as its measures.operator layer until the loop is stacked
        for op in self.x:
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

    traces = cached_property(lambda t: _frozen(np.einsum("ab,iba->i", t.rho.matrix, t.x)))
    traces_dag = cached_property(lambda t: _frozen(
        np.einsum("ab,iba->i", t.rho.matrix, linalg.dagger(t.x))))
    brackets = cached_property(lambda t: _sqrt_brackets(t.rho, t.x))
    brackets0 = cached_property(lambda t: _sqrt_brackets(
        t.rho, t.x - t.traces[:, None, None] * _eye(t.rho.dim)))
    total = cached_property(lambda t: _frozen(t.x.sum(axis=0)))
    total0 = cached_property(lambda t: _frozen(_center(t.total, t.rho)))
    rho_comm = cached_property(lambda t: _frozen(t.rho.matrix @ t.x - t.x @ t.rho.matrix))
    comm0_sq = cached_property(lambda t: _sq_norm(t.brackets0[0]))
    anti0_sq = cached_property(lambda t: _sq_norm(t.brackets0[1]))
    thm4_e = cached_property(lambda t: _sq_norm(t.brackets[0])
                             * (_sq_norm(t.brackets[1]) - 4.0 * _sq_norm(t.traces)))
    thm4_f = cached_property(lambda t: _sq_norm(_gram(*t.brackets)))


def _terms(rho: DensityMatrix, channel: KrausChannel) -> _Terms:
    """The channel's terms under ``rho``, kept on the channel in one slot keyed by the
    identity of the state. Another state is first checked against the channel's
    dimension, then replaces them; a kept record passed that check when built."""
    terms = channel._terms
    if terms is not None and terms.rho is rho:
        return terms
    _same_dim(rho, channel.dim, "channel")
    terms = _Terms(rho, channel.kraus_ops)
    object.__setattr__(channel, "_terms", terms)  # the channel is frozen
    return terms
