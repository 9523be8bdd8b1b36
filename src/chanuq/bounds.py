"""The catalog of uncertainty lower bounds.

Observable-level relations (Heisenberg, Schrodinger, Luo), their
generalizations to arbitrary operators (Dou-style symmetrized-bracket
bounds), two prior channel bounds on the u-measures (``lb_eq13``,
``lb1_eq14``), and the four channel relations ``thm1`` .. ``thm4``,
including the fine-grained single-basis-vector machinery behind
``thm3``. :func:`bound_report` evaluates everything for one state and
two channels or channel families, and checks every slack.

Conventions shared by all bound evaluators:

* a channel argument may be a *family*, a sequence of channels of one dimension
  and Kraus count; then a bound gives a ``(len(phi), len(psi))`` array (a lone
  channel counts as a family of one), each cell bit for bit that pair's value;
  under a state stack (``objects._States``) both are sequences zipped with its
  states, and each value is an array over them, each entry that trial's bits;
* each bound reads the stored Kraus stacks of both channels as they are;
  the common N, the longer list's length, enters only the 1/(4 N^2)
  prefactors of ``thm1`` and ``thm2`` (a zero operator changes no value);
* the bounds read each side's traces, brackets with sqrt(rho) and sums from one
  ``_Terms`` record over its Kraus stack, built per call by ``measures._side`` and
  kept nowhere, or take a record pair as it is (``bound_report`` builds one pair, or
  takes a ``verify`` chunk's, measures what is unmeasured in one ``_measure_all`` call
  and hands both sides' measures on); each bound forms its own products and norms;
* both brackets of an operand pair come from ``linalg._brackets``, which forms the two
  products once (``thm2`` and ``dou_bounds`` read it through ``linalg._sym_brackets``);
* bound values that land in ``[NEGATIVITY_FLOOR, 0)`` from rounding
  clamp to 0, anything more negative raises ``NumericError``;
* the anticommutator terms act on centered operators wherever a mixed
  state would otherwise pick up a spurious classical contribution (the
  commutator terms are centering-invariant, so raw operators appear
  there when that matches the printed form of the bound).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import BoundViolationError
from .linalg import SLACK_TOL
from .measures import (MeasureSet, _abs_sq, _measure_all, _nonneg, _side, _Terms,
                       channel_measures, operator_u)
from .objects import DensityMatrix, KrausChannel, _aligned, _center, _expect, _operand, _States


def _observable(rho: DensityMatrix, m) -> np.ndarray:
    """Check an observable argument: an operand that is also Hermitian."""
    return linalg._require_hermitian(_operand(rho, m))


# ---------------------------------------------------------------------------
# observable- and operator-level relations
# ---------------------------------------------------------------------------

def _comm_term(rho: DensityMatrix, x: np.ndarray, y: np.ndarray) -> float:
    """(1/4) |Tr(rho [x, y])|^2 of checked operands, or of each pair of two stacks."""
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what is read
        return _nonneg(0.25 * _abs_sq(_expect(rho, linalg.commutator(x, y))), "commutator term")


def heisenberg_bound(rho: DensityMatrix, a, b) -> float:
    """(1/4) |Tr(rho [A, B])|^2 for Hermitian observables A, B."""
    return _comm_term(rho, _observable(rho, a), _observable(rho, b))


def _schrodinger_terms(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """:func:`_comm_term` and (1/4) |Tr(rho {a0, b0})|^2 of checked operands or stacks."""
    comm = _comm_term(rho, a, b)
    a0, b0 = _center(a, rho), _center(b, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what is read
        anti = _expect(rho, linalg.anticommutator(a0, b0))
    return comm, _nonneg(0.25 * _abs_sq(anti), "anticommutator term")


def schrodinger_bound(rho: DensityMatrix, a, b) -> float:
    """Heisenberg term plus the centered anticommutator term."""
    comm, anti = _schrodinger_terms(rho, _observable(rho, a), _observable(rho, b))
    return comm + anti


def luo_bound(rho: DensityMatrix, a, b) -> tuple[float, float]:
    """Luo's relation for the U-quantities of Hermitian observables.

    Returns ``(lhs, rhs)`` where ``lhs = U_rho(A) U_rho(B)`` and
    ``rhs = (1/4)|Tr(rho [A, B])|^2``, so callers can verify the
    inequality directly.
    """
    a = _observable(rho, a)
    b = _observable(rho, b)
    return operator_u(rho, a) * operator_u(rho, b), _comm_term(rho, a, b)


def dou_bounds(rho: DensityMatrix, k, l) -> tuple[float, float, float]:
    """The three operator-level bounds for arbitrary (non-Hermitian) K, L.

    Returns ``(comm, brackets, u_comm)``:

    * ``comm``     -- (1/4)|Tr(rho [K, L])|^2, a bound on |V|(K)|V|(L);
    * ``brackets`` -- symmetrized commutator term plus the symmetrized
      anticommutator term of the *centered* operators, also bounding
      |V|(K)|V|(L) (the uncentered anticommutator version fails already
      for K = L = I on a mixed state);
    * ``u_comm``   -- the symmetrized commutator term alone, a bound
      on |U|(K)|U|(L).

    For Hermitian K, L these reduce to the Heisenberg, Schrodinger and
    Luo right-hand sides.
    """
    k = _operand(rho, k)
    l = _operand(rho, l)
    k0, l0 = _center(k, rho), _center(l, rho)
    # the raw pair's symmetrized and plain commutator and the centered pair's symmetrized
    # anticommutator, then the trace of each
    with np.errstate(over="ignore", invalid="ignore"):  # _nonneg raises on what is read
        _, sym_comm, comm = linalg._sym_brackets(k, l)
        sym_anti = linalg._sym_brackets(k0, l0)[0]
        traces = [_expect(rho, t) for t in (sym_comm, sym_anti, comm)]
    sym_comm, sym_anti, comm = (0.25 * _abs_sq(t) for t in traces)
    # both bracket terms are >= 0, so a finite sum means two finite terms
    return (_nonneg(comm, "commutator term"), _nonneg(sym_comm + sym_anti, "Dou bracket bound"),
            sym_comm)


# ---------------------------------------------------------------------------
# channel grid and channel bounds
# ---------------------------------------------------------------------------

def _grid_terms(rho: DensityMatrix, phi, psi):
    """A bound's record pair: a record pair (``bound_report``'s) passes through; else one
    :func:`measures._side` record per side, phi's checked first, stacked as families, phi's
    on grid axis 0 and psi's on 1, when either side is one. A lone channel facing a family
    is so restacked as a family of one, not broadcast from an ``(N, d, d)`` record: numpy's
    complex ``*`` took a loop without FMA on such operands and moved a last digit of
    ``lb1_eq14``'s ``Tr(rho F_j^dag) Tr(rho E_j)``."""
    if isinstance(phi, _Terms) and isinstance(psi, _Terms):
        return phi, psi
    if isinstance(rho, _States) or isinstance(phi, KrausChannel) and isinstance(psi, KrausChannel):
        return _side(rho, phi), _side(rho, psi)
    return _side(rho, phi, 0), _side(rho, psi, 1)


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix of Frobenius inner products <x_i, y_j>, conjugate-linear in x, of two
    stacks ``(..., N, a, b)`` of operators, over any leading grid axes."""
    x, y = x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,))
    return x.conj() @ y.swapaxes(-1, -2)


def _sq_norms(x: np.ndarray, axes: int = 2):
    """Squared Frobenius norm of the trailing ``axes``-dimensional block of ``x``: a float
    by ``np.vdot`` when ``x`` is one block, else one per block over the leading grid axes,
    from one batched product ``(B, 1, n) @ (B, n, 1)`` of the conjugated blocks with the
    blocks, which gives each block the bits of its own ``np.vdot``. The bounds form these
    on every call; no record holds norms."""
    if x.ndim == axes:
        return float(np.vdot(x, x).real)
    rows = x.reshape(*x.shape[:x.ndim - axes], 1, -1)
    return (rows.conj() @ rows.swapaxes(-1, -2))[..., 0, 0].real


def _value(x):
    """A bound over a grid as an array; a single pair's as a float."""
    return x if isinstance(x, np.ndarray) else float(x)


def thm1_bound(rho: DensityMatrix, phi, psi):
    """Larger of the commutator and centered-anticommutator trace sums,
    each with prefactor 1/(4 N^2), bounding v_sym(phi) * v_sym(psi).

    Both double sums are bilinear in (E_i, F_j), and centering is linear,
    sum_i center(E_i) = center(sum_i E_i), so
    sum_ij Tr(rho [E_i, F_j]) = Tr(rho [sum E, sum F]) and
    sum_ij Tr(rho {E0_i, F0_j}) = Tr(rho {center(sum E), center(sum F)}).
    """
    e, f = _grid_terms(rho, phi, psi)
    n = max(e.x.shape[-3], f.x.shape[-3])
    comm_sum = _expect(rho, linalg.commutator(e.total, f.total))
    anti_sum = _expect(rho, linalg.anticommutator(e.total0, f.total0))
    pref = 1.0 / (4.0 * n * n)
    comm, anti = pref * _abs_sq(comm_sum), pref * _abs_sq(anti_sum)
    return _value(np.maximum(comm, anti))


def thm2_bound(rho: DensityMatrix, phi, psi):
    """Sum of the squared symmetrized-anticommutator and
    symmetrized-commutator trace sums over centered Kraus operators,
    with prefactor 1/(4 N^2).

    The symmetrized brackets are additive in each argument (the adjoint
    is), and centering is linear, so each double sum is one bracket of
    the summed operators: sum_ij Tr(rho {E0_i, F0_j}_sym) =
    Tr(rho {center(sum E), center(sum F)}_sym), and likewise for the
    symmetrized commutator.
    """
    e, f = _grid_terms(rho, phi, psi)
    n = max(e.x.shape[-3], f.x.shape[-3])
    anti, comm = linalg._sym_brackets(e.total0, f.total0)[:2]
    anti_sum, comm_sum = _expect(rho, anti), _expect(rho, comm)
    pref = 1.0 / (4.0 * n * n)
    return pref * (_abs_sq(anti_sum) + _abs_sq(comm_sum))


def lb_eq13(rho: DensityMatrix, phi, psi):
    """(1/4) sum_ij |Tr([F_j, E_i^dag] rho)|^2, bounding u(phi) * u(psi).

    By cyclicity of the trace, Tr([F_j, E_i^dag] rho) = <E_i, rho F_j - F_j rho>
    (Frobenius), so the N_phi x N_psi matrix of these traces is the Gram
    matrix M of the stacks E and rho F - F rho, and the bound is (1/4)||M||_F^2.
    """
    e, f = _grid_terms(rho, phi, psi)
    return 0.25 * _sq_norms(_gram(e.x, linalg.commutator(_aligned(rho.matrix, f.x), f.x)))


def lb1_eq14(rho: DensityMatrix, phi, psi):
    """(1/2) sum_ij |a_i * b_j|, bounding u(phi)^2 + u(psi)^2.

    The index pattern pairs position i of *both* Kraus lists inside the
    commutator inner product a_i = <[sqrt(rho), F_i], [sqrt(rho), E_i]>,
    and position j of both lists inside the anticommutator factor
    b_j = <{sqrt(rho), F_j}, {sqrt(rho), E_j}> - 4 <F_j^dag> <E_j>, so
    the (i, j) double sum multiplies an i-indexed factor by a j-indexed
    factor and factorises: (1/2) sum_ij |a_i b_j| = (1/2)(sum|a_i|)(sum|b_j|).
    A position only one list has pairs with a zero operator and adds zero
    to both factors, so only the first min(N_phi, N_psi) positions count.
    """
    e, f = _grid_terms(rho, phi, psi)
    n = min(e.x.shape[-3], f.x.shape[-3])
    comm_e, anti_e = (x[..., :n, :, :] for x in e.brackets)
    comm_f, anti_f = (x[..., :n, :, :] for x in f.brackets)
    a = np.einsum("...iab,...iab->...i", comm_f.conj(), comm_e)
    b = (np.einsum("...iab,...iab->...i", anti_f.conj(), anti_e)
         - 4.0 * f.traces_dag[..., :n] * e.traces[..., :n])
    return _value(0.5 * (np.abs(a).sum(axis=-1) * np.abs(b).sum(axis=-1)))


@dataclass(frozen=True)
class FineGrainedTerms:
    """Sums of the fine-grained Cauchy-Schwarz terms for one basis vector.

    ``i0`` and ``i0_tilde`` are the full products i_tilde(phi)*j_tilde(psi)
    and i_tilde(psi)*j_tilde(phi); ``i1 <= i0`` and ``i1_tilde <= i0_tilde``
    drop a nonnegative gap from the chosen basis-vector component.
    """

    i1: float
    i1_tilde: float
    i0: float
    i0_tilde: float
    basis_index: int


def fine_grained_terms(rho: DensityMatrix, phi, psi, basis_index: int = 0) -> FineGrainedTerms:
    """Fine-grained terms built from single basis-vector columns.

    For basis vector |t>, each per-pair term replaces the product of the
    |t>-column masses of [sqrt(rho), E_i0] and {sqrt(rho), F_j0} by the
    squared overlap of those columns (a Cauchy-Schwarz improvement);
    the tilde terms swap the roles of the two channels and of the two
    bracket types.

    With u_i and w_j those columns, the per-pair gaps
    (1/4)(|u_i|^2 |w_j|^2 - |<u_i, w_j>|^2) sum to
    (1/4)(||U||_F^2 ||W||_F^2 - ||U^* W^T||_F^2), where the rows of U and
    W are the u_i and w_j; so i1 = i0 minus that sum, and likewise for
    i1_tilde.
    """
    e, f = _grid_terms(rho, phi, psi)
    if (isinstance(basis_index, bool) or not isinstance(basis_index, (int, np.integer))
            or not 0 <= basis_index < rho.dim):  # a bool would index as a mask
        raise IndexError(f"basis index {basis_index} out of range for dimension {rho.dim}")

    def gap_sum(x: np.ndarray, y: np.ndarray):
        u, w = x[..., basis_index], y[..., basis_index]  # rows: the columns u_i, w_j
        return 0.25 * (_sq_norms(u) * _sq_norms(w) - _sq_norms(u.conj() @ w.swapaxes(-1, -2)))

    (comm_e, anti_e), (comm_f, anti_f) = e.brackets0, f.brackets0
    i0 = 0.5 * _sq_norms(comm_e, 3) * 0.5 * _sq_norms(anti_f, 3)
    i0_tilde = 0.5 * _sq_norms(comm_f, 3) * 0.5 * _sq_norms(anti_e, 3)
    i1 = i0 - gap_sum(comm_e, anti_f)
    i1_tilde = i0_tilde - gap_sum(comm_f, anti_e)
    return FineGrainedTerms(i1=_nonneg(i1, "fine-grained term"),
                            i1_tilde=_nonneg(i1_tilde, "fine-grained tilde term"),
                            i0=i0, i0_tilde=i0_tilde,
                            basis_index=basis_index)


def thm3_bound(rho: DensityMatrix, phi, psi, basis_index: int = 0):
    """sqrt(i1 * i1_tilde), bounding u(phi) * u(psi)."""
    terms = fine_grained_terms(rho, phi, psi, basis_index)
    return _value(np.sqrt(terms.i1 * terms.i1_tilde))  # both clamped to >= 0


def thm4_bound(rho: DensityMatrix, phi, psi):
    """Bound on u(phi)^2 + u(psi)^2 from one Cauchy-Schwarz step.

    The psi part pairs the commutator of each F_i with the anticommutator
    of each F_j (raw operators; the commutator side makes the centering
    correction vanish). The phi part keeps the exact product of commutator
    and anticommutator masses, the latter written with the explicit
    -4|Tr(rho E_j)|^2 centering correction.

    The psi double sum is one Gram matrix: with C and A the stacks of
    [sqrt(rho), F_i] and {sqrt(rho), F_j} flattened to N x d^2,
    sum_ij |<C_i, A_j>|^2 = ||C^* A^T||_F^2. The phi sums are squared
    norms of whole stacks.
    """
    e, f = _grid_terms(rho, phi, psi)
    comm_e, anti_e = e.brackets
    e_term = _sq_norms(comm_e, 3) * (_sq_norms(anti_e, 3) - 4.0 * _sq_norms(e.traces, 1))
    return _nonneg(0.25 * (_sq_norms(_gram(*f.brackets)) + e_term), "thm4 bound")


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All left-hand sides and all bounds for one triple, or arrays of them over a grid,
    and the two sides' measures they were read from (not in :meth:`to_dict`)."""

    lhs_product_v: float
    lhs_product_u: float
    lhs_sum_u2: float
    thm1: float
    thm2: float
    thm3: float
    thm4: float
    lb_eq13: float
    lb1_eq14: float
    n_common: int
    #: phi's and psi's :class:`MeasureSet`: floats for a pair, arrays over the leading
    #: axes of a family's ``(G, 1)`` and ``(1, G)`` or a zip's ``(T,)``
    measures: tuple[MeasureSet, MeasureSet]

    def relations(self) -> dict[str, tuple[float, float]]:
        """``{name: (lhs, bound)}``: the left-hand side each bound is checked against."""
        return {
            "thm1_bound": (self.lhs_product_v, self.thm1),
            "thm2_bound": (self.lhs_product_v, self.thm2),
            "thm3_bound": (self.lhs_product_u, self.thm3),
            "lb_eq13": (self.lhs_product_u, self.lb_eq13),
            "thm4_bound": (self.lhs_sum_u2, self.thm4),
            "lb1_eq14": (self.lhs_sum_u2, self.lb1_eq14),
        }

    @property
    def slacks(self) -> dict[str, float]:
        """``lhs - bound`` per bound; negative means the bound is violated."""
        return {name: lhs - bound for name, (lhs, bound) in self.relations().items()}

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "measures"}
        return {**doc, "slacks": self.slacks}


def bound_report(rho: DensityMatrix, phi, psi, basis_index: int = 0,
                 check: bool = True) -> BoundReport:
    """Evaluate every bound and its left-hand side.

    ``phi`` and ``psi`` are channels or families, or a state stack's zipped channels.
    Each side is read and checked once, into one record that its measures and all six
    bounds read; the report carries both sides' measures. With ``check=True`` (the default)
    a slack below ``-SLACK_TOL`` raises ``BoundViolationError`` naming the offending
    bound, at the first violating cell in row-major order and, within that cell, the
    first violated relation in ``relations()`` order; the randomized
    verification harness passes ``check=False`` and inspects the slacks itself.
    """
    e, f = _grid_terms(rho, phi, psi)  # both sides are checked before any measure
    _measure_all([e, f])  # one stacked pass over the sides not yet measured, phi's first
    m_phi, m_psi = channel_measures(rho, e), channel_measures(rho, f)
    report = BoundReport(
        lhs_product_v=m_phi.v_sym * m_psi.v_sym,
        lhs_product_u=m_phi.u_abs * m_psi.u_abs,
        lhs_sum_u2=_abs_sq(m_phi.u_abs) + _abs_sq(m_psi.u_abs),  # u_abs ** 2, with its bits
        thm1=thm1_bound(rho, e, f),
        thm2=thm2_bound(rho, e, f),
        thm3=thm3_bound(rho, e, f, basis_index),
        lb_eq13=lb_eq13(rho, e, f),
        thm4=thm4_bound(rho, e, f),
        lb1_eq14=lb1_eq14(rho, e, f),
        n_common=max(e.x.shape[-3], f.x.shape[-3]),
        measures=(m_phi, m_psi),
    )
    if check:  # the first violation in row-major cell order, then in relations() order
        relations = list(report.relations().items())
        slacks = np.array(list(report.slacks.values()))  # (6,), or (6, *grid) on families
        violated = slacks.reshape(len(relations), -1).T < -SLACK_TOL  # one row per cell
        if violated.any():
            cell, k = divmod(int(violated.argmax()), len(relations))
            name, (lhs, bound) = relations[k]
            raise BoundViolationError(name, float(np.ravel(lhs)[cell]), float(np.ravel(bound)[cell]))
    return report
