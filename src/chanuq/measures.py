"""Scalar uncertainty measures for operators and channels.

For an operator K and state rho these are the absolute variance
Tr(rho K0^dag K0) (K0 the centered operator), its symmetrized version, and
the skew-information pair, half the squared norms of [sqrt(rho), K] and
{sqrt(rho), K}, which ``_sqrt_brackets`` takes from ``linalg._brackets``; each
measure takes one operator or an ``(N, d, d)`` stack. A channel's measures are
``sym_abs_variance`` of its Kraus stack and the skew pair of the centered stack,
summed in Kraus order; ``u_abs`` interpolates between total and quantum uncertainty
and obeys ``u_abs^2 = i_tilde * j_tilde``. One kernel, ``_measure_sets``, forms them
for a ``(..., G, N, d, d)`` stack of channels at once, as one ``(5, ..., G)`` array in
:class:`MeasureSet` field order, each channel with its bits alone. One record,
``_Terms``, built by ``_side`` for each side of each call and kept nowhere, holds a
side's per-channel terms: its measures, which ``_measure_all`` alone fills from that
array, and the traces, brackets and sums the bounds read, all over the leading axes of
a family's stacked Kraus arrays, or of a zip's under a stack of states
(``objects._States``), which every kernel reading the state aligns to its operand's
leading axes (``objects._aligned``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NumericError
from .linalg import IDENTITY_RTOL, NEGATIVITY_FLOOR
from .objects import (DensityMatrix, KrausChannel, _aligned, _center, _eye, _frozen, _operand,
                      _same_dim, _States)


@dataclass(frozen=True)
class MeasureSet:
    """The five channel uncertainty quantities for one (state, channel) pair."""

    v_sym: float
    i_tilde: float
    j_tilde: float
    c_abs: float
    u_abs: float


def _nonneg(value, what: str):
    """Clamp rounding noise in ``[NEGATIVITY_FLOOR, 0)`` to 0 with ``max(float(v), 0.0)``'s
    bits, -0.0 kept (an array's min and max check it, ``np.where`` clamps). A value below it
    signals a bug, and NaN or inf an overflow: ``NumericError``, an array's at its first."""
    if isinstance(value, np.ndarray):
        low = value.min(initial=0.0)  # an empty array passes
        if not NEGATIVITY_FLOOR <= low <= value.max(initial=0.0) < math.inf:
            for v in value.ravel().tolist():
                _nonneg(v, what)  # raises at the first entry out of range
        return np.where(value < 0.0, 0.0, value) if low < 0.0 else value
    if not NEGATIVITY_FLOOR <= value < math.inf:
        raise NumericError(
            f"{what} evaluated to {float(value)!r}: negative beyond rounding, or not finite")
    return max(float(value), 0.0)


def _abs_sq(x):
    """|x|^2 of a number, or of each entry of an array by ``np.hypot`` of its parts (not
    ``np.abs``, which follows numpy's SIMD dispatch) and ``linalg._pow``: ``abs(x) ** 2``'s
    bits. Past the double range it raises ``NumericError``, an array's at its first entry."""
    if isinstance(x, np.ndarray):
        try:
            with np.errstate(over="raise"):
                return linalg._pow(np.hypot(x.real, x.imag), 2)
        except (FloatingPointError, OverflowError):
            for v in x.ravel().tolist():
                _abs_sq(v)  # raises at the first entry out of range
    try:
        return abs(x) ** 2
    except OverflowError:
        raise NumericError(f"|{x!r}|^2 is beyond the double range") from None


# Each public measure takes one operator K, giving a float, or an (N, d, d) stack,
# giving per operator the bits of that operator alone: one operand check, then
# products, traces, norms and powers on the whole stack.

def abs_variance(rho: DensityMatrix, k):
    """Tr(rho K^dag K) - |Tr(rho K)|^2, via the centered operator."""
    return _abs_variance(rho, _operand(rho, k, stack=True))


def _abs_variance(rho: DensityMatrix, k: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what overflows
        k0 = _center(k, rho)
        value = np.trace(_aligned(rho.matrix, k0) @ linalg.dagger(k0) @ k0,
                         axis1=-2, axis2=-1).real
    return _nonneg(value, "absolute variance")


def sym_abs_variance(rho: DensityMatrix, k):
    """Average of the absolute variances of K and K^dag: one pass over K, one over K^dag."""
    k = _operand(rho, k, stack=True)
    return 0.5 * (_abs_variance(rho, k) + _abs_variance(rho, linalg.dagger(k)))


def _half_sq_norm(x: np.ndarray):
    """0.5 ||x||_F^2, unclamped, of a matrix (a scalar) or of each matrix of a stack, with
    ``0.5 * frob_norm(m) ** 2``'s bits: the ``ddot`` pair of ``np.linalg.norm`` as batched
    ``(1, n) @ (n, 1)`` products of the real and imaginary rows, its root squared by ``_pow``."""
    re, im = (p.reshape(-1, 1, x.shape[-2] * x.shape[-1]) for p in (x.real, x.imag))
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what overflows
        sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        return 0.5 * linalg._pow(np.sqrt(sq), 2).reshape(x.shape[:-2])[()]


def _sqrt_brackets(rho: DensityMatrix, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[sqrt(rho), K] and {sqrt(rho), K} of a checked operator or of each of a stack."""
    comm, anti = linalg._brackets(_aligned(rho.sqrt_matrix, k), k)
    return _frozen(comm), _frozen(anti)


def mwy_skew_info(rho: DensityMatrix, k):
    """Half the squared Frobenius norm of [sqrt(rho), K]."""
    comm, _ = _sqrt_brackets(rho, _operand(rho, k, stack=True))
    return _nonneg(_half_sq_norm(comm), "skew information")


def mwy_anti_info(rho: DensityMatrix, k):
    """Half the squared Frobenius norm of {sqrt(rho), K}."""
    _, anti = _sqrt_brackets(rho, _operand(rho, k, stack=True))
    return _nonneg(_half_sq_norm(anti), "anticommutator information")


def operator_u(rho: DensityMatrix, k):
    """|U_rho|(K) = sqrt(I0 * J0), with I0, J0 the skew-information pair of the centered
    operator; computed from the variance form sqrt(V_sym^2 - (V_sym - I)^2), clamped."""
    return _u_from(sym_abs_variance(rho, k), mwy_skew_info(rho, k))


def _u_from(v, i):
    """|U_rho|(K) from V_sym(K) and the skew information I(K): for floats, the Python float of
    ``math.sqrt(max(...))``'s bits (``sqrt`` rounds correctly, the difference is never -0.0);
    for arrays, each value's, every square checked (``_abs_sq``) before the first ``|U|``."""
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what overflows
        return _nonneg(np.sqrt(np.maximum(v * v - _abs_sq(v - i), 0.0)), "|U|")


def _close(a, b):
    """Whether ``a`` and ``b``, floats or arrays, agree within ``IDENTITY_RTOL``."""
    return abs(a - b) <= IDENTITY_RTOL * np.maximum(np.maximum(abs(a), abs(b)), 1.0)


def channel_measures(rho: DensityMatrix, phi: KrausChannel) -> MeasureSet:
    """Aggregate the uncertainty quantities of a channel's Kraus operators, or of each
    channel of a family (a list or tuple of one Kraus count) as ``(G,)`` arrays.

    ``i_tilde`` and ``j_tilde`` sum the skew informations of the centered operators
    (centering leaves the commutator part unchanged but matters for the anticommutator
    part); ``u_abs`` is derived from ``v_sym`` and ``c_abs`` with clamping, and the internal
    identities ``u^2 = i_tilde * j_tilde`` and ``i_tilde + j_tilde = 2 v_sym`` are asserted.
    A channel is checked and measured afresh on every call, each of a family with its lone
    call's bits; a record (``bound_report``'s) is measured once, and its fields are arrays
    over its leading axes.
    """
    terms = phi if isinstance(phi, _Terms) else _side(rho, phi)
    if terms.measures is None:
        _measure_all([terms])
    return terms.measures


def _traces(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """Tr(rho K_i) of each matrix of a stack, over its leading axes: one einsum of the stack
    with the state, or state stack, broadcast to its shape in a contiguous copy, which gives
    each slice its own state's bits (an einsum that reads a state stack as it is does not)."""
    r = np.ascontiguousarray(np.broadcast_to(_aligned(rho.matrix, x), x.shape))
    return np.einsum("...ab,...ba->...", r, x)


class _Terms:
    """One side's per-channel terms under the state, or state stack, ``rho``, over the
    leading axes of its Kraus stack ``x`` (see :func:`_side`) with each channel's bits:
    its :class:`MeasureSet` (``None`` until :func:`_measure_all`) and, each built on
    first use, what the bounds read: Tr(rho K_i), Tr(rho K_i^dag), ``_sqrt_brackets`` of
    the raw and of the centered K_i, sum_i K_i and its centered form. Each bound forms
    its own products and norms of these on every call."""

    def __init__(self, rho: DensityMatrix, x: np.ndarray):
        self.rho = rho
        self.x = x
        self.measures: MeasureSet | None = None

    traces = cached_property(lambda t: _frozen(_traces(t.rho, t.x)))
    traces_dag = cached_property(lambda t: _frozen(_traces(t.rho, linalg.dagger(t.x))))
    brackets = cached_property(lambda t: _sqrt_brackets(t.rho, t.x))
    brackets0 = cached_property(lambda t: _sqrt_brackets(
        t.rho, t.x - t.traces[..., None, None] * _eye(t.rho.dim)))
    total = cached_property(lambda t: _frozen(t.x.sum(axis=-3)))
    total0 = cached_property(lambda t: _frozen(_center(t.total, t.rho)))


def _side(rho: DensityMatrix, channels, grid_axis: int | None = None) -> _Terms:
    """One report side's record, after checking each channel's dimension, then the side's
    one Kraus count (an empty family has none): a lone channel's ``(N, d, d)`` stack as it
    is; a family's ``(G, N, d, d)`` under a lone state (``channel_measures(rho, family)``),
    a zip's ``(T, N, d, d)`` under a state stack, and with ``grid_axis`` a family of one or
    more as ``(G, 1, N, d, d)`` on axis 0 or ``(1, G, N, d, d)`` on axis 1, each read once."""
    family = [channels] if isinstance(channels, KrausChannel) else list(channels)
    for channel in family:
        _same_dim(rho, channel.dim, "channel")
    if len({channel.kraus_ops.shape for channel in family}) != 1:
        raise DimensionMismatchError("a family needs channels, all of one Kraus count")
    if grid_axis is None and not isinstance(rho, _States) and isinstance(channels, KrausChannel):
        return _Terms(rho, channels.kraus_ops)
    # np.array, not np.stack: np.stack grows CPython's tuple free lists
    x = _frozen(np.array([channel.kraus_ops for channel in family]))
    return _Terms(rho, x if grid_axis is None else np.expand_dims(x, 1 - grid_axis))


def _measure_sets(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """The measures of a checked ``(..., G, N, d, d)`` stack of channels, its leading axes
    a state stack's trial axis, if any, and then any grid axes: one ``(5, ..., G)`` array,
    its rows the :class:`MeasureSet` fields in order, with each channel's bits alone: one
    ``sym_abs_variance`` call on the stack flattened to ``(..., G N, d, d)``, one
    ``_sqrt_brackets`` of its centered form and one ``_half_sq_norm`` of each bracket (all
    per matrix, each clamped under its own name), then on arrays over the channels the sums
    in Kraus order, ``u_abs`` and the two identity checks, whose first failure raises as in
    a loop over the channels."""
    flat = x.reshape(*x.shape[:-4], -1, *x.shape[-2:])
    v_sym = sym_abs_variance(rho, flat)  # its temporaries go before the brackets come
    i_op, j_op = map(_half_sq_norm, _sqrt_brackets(rho, _center(flat, rho)))
    per_op = v_sym, _nonneg(i_op, "skew information"), _nonneg(j_op, "anticommutator information")
    # per channel, its operators' values added one Kraus position at a time, as Python
    # floats add them (Python 3.12's sum compensates, ndarray.sum pairs)
    v_sym, i_tilde, j_tilde = (reduce(operator.add, v.reshape(x.shape[:-2]).T, 0.0).T
                               for v in per_op)
    with np.errstate(over="ignore", invalid="ignore"):  # the identity checks raise on these
        c_abs = v_sym - i_tilde
        u_abs = np.sqrt(np.maximum(v_sym * v_sym - c_abs * c_abs, 0.0))
        checks = u_abs * u_abs, i_tilde * j_tilde, i_tilde + j_tilde, 2.0 * v_sym
        if not (_close(*checks[:2]) & _close(*checks[2:])).all():
            for u2, ij, i_plus_j, v2 in zip(*(c.ravel().tolist() for c in checks)):
                if not _close(u2, ij):
                    raise NumericError(
                        f"u^2 = {u2!r} disagrees with i_tilde*j_tilde = {ij!r}")
                if not _close(i_plus_j, v2):
                    raise NumericError(
                        f"i_tilde + j_tilde = {i_plus_j!r} disagrees with 2*v_sym = {v2!r}")
    return np.array([v_sym, i_tilde, j_tilde, c_abs, u_abs])


def _measure_all(records: list[_Terms]) -> None:
    """Fill the measures of records, a report's two or one channel's, all under one state
    or state stack: one :func:`_measure_sets` pass per Kraus count, the counts in the order
    they first appear, over the records' channels concatenated on one channel axis (after
    a state stack's trial axis). Each record reads back its own channels' slices, shaped to
    its leading axes, a lone channel's as Python floats: the one way a record gets measures."""
    trial = int(isinstance(records[0].rho, _States))  # the channel axis of a pass
    for n in dict.fromkeys(t.x.shape[-3] for t in records):
        group = [t for t in records if t.x.shape[-3] == n]
        stacks = [t.x.reshape(*t.x.shape[:trial], -1, *t.x.shape[-3:]) for t in group]
        fields = _frozen(_measure_sets(group[0].rho, np.concatenate(stacks, axis=trial)))
        ends = [0, *accumulate(s.shape[trial] for s in stacks)]
        for t, start, stop in zip(group, ends, ends[1:]):
            part = fields[..., start:stop].reshape(len(fields), *t.x.shape[:-3])
            t.measures = MeasureSet(*(part.tolist() if part.ndim == 1 else part))
