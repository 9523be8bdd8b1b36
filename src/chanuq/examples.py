"""Built-in example states, channels and their closed-form bound surfaces.

Two four-dimensional state families are shipped: the Werner family
(``werner``) and a two-block family (``rho_theta``), both parameterized
by theta in [0, 1], together with a fixed pair of diagonal/damping-style
channels E(p) and F(q). ``_channel_family`` builds E or F on a whole grid
of parameters as one ``(G, 2, 4, 4)`` Kraus stack, validated at once;
``channel_E`` and ``channel_F`` are its one-point case. For the canonical
parameter values (theta = 1 for ``werner``, theta = 0 for ``rho_theta``)
closed-form expressions for the four channel bounds are available and
serve as regression surfaces for the numeric evaluators.

The closed forms are evaluated exactly as written, with no algebraic
simplification, so a transcription error in one of them shows up as a
systematic numeric-vs-closed difference instead of being masked. That holds
at one point and over a whole grid alike (``p`` a ``(G, 1)`` column, ``q`` a
``(1, G)`` row): each cell of a grid call holds the bits of the one-point call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .linalg import NEGATIVITY_FLOOR, _pow
from .objects import DensityMatrix, KrausChannel, _make_channels, make_density

EXAMPLE_IDS = ("werner", "rho_theta")

#: theta at which each family's closed-form surfaces apply
CLOSED_FORM_THETA = {"werner": 1.0, "rho_theta": 0.0}


@dataclass(frozen=True)
class ClosedFormValues:
    """The four surfaces at one point (floats) or over a grid (arrays of one shape)."""

    thm3_closed: float
    lb_closed: float
    lb1_closed: float
    lb2_closed: float


def _check_unit(name: str, value):
    """``value``, a number or an array, checked to lie in [0, 1]; an array raises at
    its first entry outside, in row-major order."""
    for v in np.ravel(value).tolist():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return value


def werner_state(theta: float) -> DensityMatrix:
    """Werner family: white noise mixed into the two-qubit singlet.

    Diagonal entries theta/3 and (3 - 2 theta)/6, inner off-diagonal
    entries (4 theta - 3)/6. Eigenvalues are {theta/3 (x3), 1 - theta},
    so the matrix is a state for every theta in [0, 1]; theta = 3/4
    gives the maximally mixed state.
    """
    _check_unit("theta", theta)
    a = theta / 3.0
    b = (3.0 - 2.0 * theta) / 6.0
    c = (4.0 * theta - 3.0) / 6.0
    m = np.array([
        [a, 0, 0, 0],
        [0, b, c, 0],
        [0, c, b, 0],
        [0, 0, 0, a],
    ], dtype=complex)
    return make_density(m)


def rho_theta_state(theta: float) -> DensityMatrix:
    """Two-block family: constant 1/4 diagonal, (2 theta - 1)/4 inside each block."""
    _check_unit("theta", theta)
    c = (2.0 * theta - 1.0) / 4.0
    m = np.array([
        [0.25, c, 0, 0],
        [c, 0.25, 0, 0],
        [0, 0, 0.25, c],
        [0, 0, c, 0.25],
    ], dtype=complex)
    return make_density(m)


def channel_E(p: float) -> KrausChannel:
    """Damping-style channel: E1 = diag(1, r, 1, r), E2 = diag(0, sqrt(p), 0, sqrt(p))
    with r = sqrt(1 - p). The zero operator at p = 0 is kept so the list
    length stays 2 across parameter sweeps."""
    return _channel_family("E", [p])[0]


def channel_F(q: float) -> KrausChannel:
    """Companion channel: F1 = diag(sqrt(1-q), 1, sqrt(1-q), 1), F2 lowers
    within each two-dimensional block with amplitude sqrt(q)."""
    return _channel_family("F", [q])[0]


def _channel_family(name: str, grid) -> list[KrausChannel]:
    """``channel_E`` (``name`` "E") or ``channel_F`` ("F") at each point of ``grid``, checked
    in one pass, written into one ``(G, 2, 4, 4)`` stack and validated by one stacked check."""
    x = np.array(_check_unit("p" if name == "E" else "q", grid), dtype=float)
    r, s = np.sqrt(1.0 - x)[:, None], np.sqrt(x)[:, None]
    ops = np.zeros((len(x), 2, 4, 4), dtype=complex)
    if name == "E":  # E1 = diag(1, r, 1, r), E2 = diag(0, s, 0, s)
        ops[:, 0, [0, 2], [0, 2]] = 1.0
        ops[:, 0, [1, 3], [1, 3]] = r
        ops[:, 1, [1, 3], [1, 3]] = s
    else:  # F1 = diag(r, 1, r, 1), F2 = s (|1><0| + |3><2|)
        ops[:, 0, [0, 2], [0, 2]] = r
        ops[:, 0, [1, 3], [1, 3]] = 1.0
        ops[:, 1, [1, 3], [0, 2]] = s
    return _make_channels(ops)


def example_state(example_id: str, theta: float) -> DensityMatrix:
    if example_id == "werner":
        return werner_state(theta)
    if example_id == "rho_theta":
        return rho_theta_state(theta)
    raise ValueError(f"unknown example {example_id!r}; choose one of {EXAMPLE_IDS}")


def _checked_root(arg):
    """sqrt with a guard: arguments below NEGATIVITY_FLOOR indicate a transcription error
    (an array raises at its first such entry, in row-major order). Entries not above 0,
    -0.0 among them, give +0.0, as ``math.sqrt(max(0.0, arg))`` does."""
    below = np.ravel(arg < NEGATIVITY_FLOOR)
    if below.any():
        bad = np.ravel(arg)[below.argmax()].item()
        raise NumericError(f"closed-form root argument is negative: {bad!r}")
    return np.sqrt(np.where(arg > 0.0, arg, 0.0))


def _values(p, q, *surfaces) -> ClosedFormValues:
    """The surfaces as floats at one point, else as arrays over the grid of ``p`` and ``q``."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(q))
    return ClosedFormValues(*(np.broadcast_to(s, shape) if shape else float(s)
                              for s in surfaces))


def example1_closed_forms(p, q) -> ClosedFormValues:
    """Closed-form surfaces of the werner family at theta = 1.

    The root argument of the thm3 surface is a product of two nonpositive
    factors, hence nonnegative throughout [0, 1]^2.
    """
    _check_unit("p", p)
    _check_unit("q", q)
    rp = np.sqrt(1.0 - p)
    rq = np.sqrt(1.0 - q)
    root_arg = ((10.0 * rp + 5.0 * p - 10.0)
                * (40.0 * (rq - 1.0) + 4.0 * q * (1.0 + 4.0 * rq) - 3.0 * _pow(q, 2)))
    thm3 = _checked_root(root_arg) / 72.0
    lb = 0.0
    lb1 = 5.0 / 72.0 * _pow(rp - 1.0, 2) * _pow(rq - 1.0, 2)
    lb2 = 5.0 / 144.0 * _pow(_pow(rp - 1.0, 2) + p, 2)
    return _values(p, q, thm3, lb, lb1, lb2)


def example2_closed_forms(p, q) -> ClosedFormValues:
    """Closed-form surfaces of the rho_theta family at theta = 0.

    Note: the lb1 surface here is a valid but tighter expression than the
    literal double-sum evaluated by ``lb1_eq14``; the two genuinely differ
    (e.g. 1/2 vs 1/8 at p = q = 1). Dual-evaluation consumers should treat
    the numeric value as the definitional one and report the difference.
    """
    _check_unit("p", p)
    _check_unit("q", q)
    rp = np.sqrt(1.0 - p)
    rq = np.sqrt(1.0 - q)
    root_arg = ((2.0 * rp + p - 2.0)
                * (1800.0 * (rq - 1.0) + 60.0 * q * (14.0 + rq) - _pow(q, 2)))
    thm3 = _checked_root(root_arg) / 128.0
    lb = q / 8.0 * (1.0 - rp)
    lb1 = 1.0 / 8.0 * (1.0 - rp) * _pow(1.0 - rq + np.sqrt(p * q), 2)
    lb2 = 1.0 / 16.0 * (_pow(1.0 - rp, 4) + _pow(p, 2)
                        + 2.0 * abs(p * (p - 2.0 + 2.0 * rp)
                                    + q * (q - 2.0 + 2.0 * rq)))
    return _values(p, q, thm3, lb, lb1, lb2)


def closed_forms(example_id: str, p, q) -> ClosedFormValues:
    """Closed-form surfaces of the named example (valid at its canonical theta), at one
    point or over the grid of a ``(G, 1)`` column ``p`` and a ``(1, G)`` row ``q``."""
    if example_id == "werner":
        return example1_closed_forms(p, q)
    if example_id == "rho_theta":
        return example2_closed_forms(p, q)
    raise ValueError(f"unknown example {example_id!r}; choose one of {EXAMPLE_IDS}")
