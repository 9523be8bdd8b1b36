"""Unit tests for the built-in example families and their closed forms."""

import numpy as np
import pytest

from chanuq.bounds import lb1_eq14, lb_eq13, thm3_bound, thm4_bound
from chanuq.errors import NumericError
from chanuq.examples import (EXAMPLE_IDS, ClosedFormValues, channel_E, channel_F,
                             closed_forms, example1_closed_forms,
                             example2_closed_forms, example_state,
                             rho_theta_state, werner_state)
from chanuq.examples import _channel_family, _checked_root
from chanuq.measures import channel_measures

import oracles

GRID11 = np.linspace(0.0, 1.0, 11)


def test_werner_matches_reference_transcription():
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        np.testing.assert_allclose(werner_state(theta).matrix,
                                   oracles.werner_matrix(theta), atol=1e-15)


def test_werner_three_quarters_is_maximally_mixed():
    np.testing.assert_allclose(werner_state(0.75).matrix, np.eye(4) / 4, atol=1e-15)


def test_werner_theta_one_entries_and_trace():
    m = werner_state(1.0).matrix
    assert m[0, 0] == pytest.approx(1 / 3)
    assert m[1, 1] == pytest.approx(1 / 6)
    assert m[1, 2] == pytest.approx(1 / 6)
    assert np.trace(m).real == pytest.approx(1.0)


def test_werner_theta_zero_is_pure_singlet():
    w = np.linalg.eigvalsh(werner_state(0.0).matrix)
    np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner_state(1.2)
    with pytest.raises(ValueError):
        werner_state(-0.1)


def test_rho_theta_half_is_maximally_mixed():
    np.testing.assert_allclose(rho_theta_state(0.5).matrix, np.eye(4) / 4,
                               atol=1e-15)


def test_rho_theta_zero_spectrum():
    w = np.linalg.eigvalsh(rho_theta_state(0.0).matrix)
    np.testing.assert_allclose(w, [0, 0, 0.5, 0.5], atol=1e-12)


def test_rho_theta_one_is_valid():
    m = rho_theta_state(1.0).matrix
    assert m[0, 1] == pytest.approx(0.25)
    w = np.linalg.eigvalsh(m)
    assert w.min() >= -1e-12


def test_channel_e_trivial_at_zero():
    ch = channel_E(0.0)
    assert len(ch) == 2  # the zero operator is kept
    np.testing.assert_allclose(ch.kraus_ops[0], np.eye(4), atol=1e-15)
    np.testing.assert_allclose(ch.kraus_ops[1], np.zeros((4, 4)), atol=1e-15)


def test_channel_e_full_damping():
    ch = channel_E(1.0)
    np.testing.assert_allclose(ch.kraus_ops[0], np.diag([1, 0, 1, 0]), atol=1e-15)
    np.testing.assert_allclose(ch.kraus_ops[1], np.diag([0, 1, 0, 1]), atol=1e-15)


def test_channel_f_completeness_generic_parameter():
    ch = channel_F(0.37)
    total = sum(op.conj().T @ op for op in ch.kraus_ops)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-15)


def test_channel_parameters_out_of_range():
    with pytest.raises(ValueError):
        channel_E(-0.01)
    with pytest.raises(ValueError):
        channel_F(1.01)
    # a grid is checked in one pass, and its first point outside raises
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1\.5$"):
        _channel_family("E", [0.5, 1.5, -1.0])
    with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\], got -1\.0$"):
        _channel_family("F", np.array([0.5, -1.0, 1.5]))


def test_example_state_dispatch():
    np.testing.assert_allclose(example_state("werner", 1.0).matrix,
                               oracles.werner_matrix(1.0), atol=1e-15)
    np.testing.assert_allclose(example_state("rho_theta", 0.0).matrix,
                               oracles.rho_theta_matrix(0.0), atol=1e-15)
    with pytest.raises(ValueError):
        example_state("nope", 0.5)


# -- closed forms --------------------------------------------------------------

def test_example1_corner_values():
    c = example1_closed_forms(1.0, 1.0)
    assert c.thm3_closed == pytest.approx(np.sqrt(195) / 72, abs=1e-15)
    assert c.lb_closed == 0.0
    assert c.lb1_closed == pytest.approx(5 / 72, abs=1e-15)
    assert c.lb2_closed == pytest.approx(5 / 36, abs=1e-15)


def test_example1_vanishes_with_either_trivial_channel():
    for x in GRID11:
        c = example1_closed_forms(0.0, float(x))
        assert (c.thm3_closed, c.lb_closed, c.lb1_closed, c.lb2_closed) == (0, 0, 0, 0)
        c = example1_closed_forms(float(x), 0.0)
        assert c.thm3_closed == pytest.approx(0.0, abs=1e-15)
        assert c.lb1_closed == 0.0


def test_example2_corner_values():
    c = example2_closed_forms(1.0, 1.0)
    assert c.thm3_closed == pytest.approx(31 / 128, abs=1e-15)
    assert c.lb_closed == pytest.approx(1 / 8, abs=1e-15)
    assert c.lb1_closed == pytest.approx(1 / 2, abs=1e-15)
    assert c.lb2_closed == pytest.approx(3 / 8, abs=1e-15)


def test_example2_zero_point():
    c = example2_closed_forms(0.0, 0.0)
    assert (c.thm3_closed, c.lb_closed, c.lb1_closed, c.lb2_closed) == (0, 0, 0, 0)


def test_closed_forms_dispatch():
    assert isinstance(closed_forms("werner", 0.3, 0.4), ClosedFormValues)
    assert closed_forms("rho_theta", 1.0, 1.0).thm3_closed == pytest.approx(31 / 128)
    with pytest.raises(ValueError):
        closed_forms("nope", 0.5, 0.5)


def test_checked_root_guard():
    assert _checked_root(4.0) == 2.0
    assert _checked_root(-1e-13) == 0.0
    with pytest.raises(NumericError):
        _checked_root(-1e-6)


CLOSED_FIELDS = ("thm3_closed", "lb_closed", "lb1_closed", "lb2_closed")


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
@pytest.mark.parametrize("steps", [2, 5, 19, 20, 21, 41, 101])
def test_closed_forms_on_a_grid_equal_scalar_calls_bitwise(example_id, steps):
    # a (G, 1) column p and a (1, G) row q give each cell the bits of the one-point call,
    # and both the bits of the printed formula in Python floats (the oracle), the p = q = 1
    # corner, the sign of zero and rho_theta's sqrt(p q) cross term included; random axes
    # add cells where numpy's own square and libm pow differ (about 1 in 1200)
    grid = np.linspace(0.0, 1.0, steps)
    rng = np.random.default_rng(steps)
    for p_axis, q_axis in ((grid, grid), (rng.random(steps), rng.random(steps))):
        closed = closed_forms(example_id, p_axis[:, None], q_axis[None, :])
        cells = [(p, q) for p in p_axis.tolist() for q in q_axis.tolist()]
        points = [closed_forms(example_id, p, q) for p, q in cells]
        printed = [oracles.closed_forms(example_id, p, q) for p, q in cells]
        for k, name in enumerate(CLOSED_FIELDS):
            scalar = [getattr(c, name) for c in points]
            assert all(type(v) is float for v in scalar), name
            surface = getattr(closed, name)
            assert surface.shape == (steps, steps), name
            assert surface.tobytes() == np.array(scalar).tobytes(), (name, steps)
            assert surface.tobytes() == np.array([v[k] for v in printed]).tobytes(), (name, steps)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_closed_forms_on_a_grid_raise_the_scalar_errors(example_id, monkeypatch):
    # an out-of-range p or q raises at its first entry in row-major order
    inside = np.linspace(0.0, 1.0, 4)
    for p, q, message in ((np.array([[0.5], [1.5], [-0.25]]), inside[None, :], "p .* got 1.5"),
                          (inside[:, None], np.array([[0.5, -0.25, 2.0]]), "q .* got -0.25")):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            closed_forms(example_id, p, q)
    # with the floor raised above 0, some root arguments fall below it: the grid call
    # raises the error of the first such one-point call in row-major order
    monkeypatch.setattr("chanuq.examples.NEGATIVITY_FLOOR", 0.05)
    grid = np.linspace(0.0, 1.0, 9)

    def first_error():
        for p in grid.tolist():
            for q in grid.tolist():
                try:
                    closed_forms(example_id, p, q)
                except NumericError as exc:
                    return str(exc)
        return None

    want = first_error()
    assert want is not None
    with pytest.raises(NumericError) as grid_error:
        closed_forms(example_id, grid[:, None], grid[None, :])
    assert str(grid_error.value) == want


def test_checked_root_on_an_array_raises_at_the_first_negative_entry():
    with pytest.raises(NumericError) as scalar:
        _checked_root(-1e-6)
    with pytest.raises(NumericError) as array:
        _checked_root(np.array([[4.0, -1e-13], [-1e-6, -2.0]]))
    assert str(array.value) == str(scalar.value)
    root = _checked_root(np.array([4.0, -1e-13, -0.0, 0.0]))
    assert root.tolist() == [2.0, 0.0, 0.0, 0.0]
    assert not np.signbit(root).any()  # as math.sqrt(max(0.0, -0.0)) gives +0.0


# -- dual evaluation: numeric vs closed forms ----------------------------------

def _dual_eval(state, example_id, p, q):
    phi, psi = channel_E(p), channel_F(q)
    closed = closed_forms(example_id, p, q)
    return {
        "thm3": (thm3_bound(state, phi, psi, 0), closed.thm3_closed),
        "lb": (lb_eq13(state, phi, psi), closed.lb_closed),
        "lb1": (lb1_eq14(state, phi, psi), closed.lb1_closed),
        "thm4": (thm4_bound(state, phi, psi), closed.lb2_closed),
    }


def test_example1_numeric_matches_closed_forms():
    state = werner_state(1.0)
    for p in GRID11:
        for q in GRID11:
            pairs = _dual_eval(state, "werner", float(p), float(q))
            for key, (numeric, closed) in pairs.items():
                assert numeric == pytest.approx(closed, abs=1e-8), (key, p, q)


def test_example2_numeric_matches_closed_forms_except_lb1():
    state = rho_theta_state(0.0)
    for p in GRID11:
        for q in GRID11:
            pairs = _dual_eval(state, "rho_theta", float(p), float(q))
            for key in ("thm3", "lb", "thm4"):
                numeric, closed = pairs[key]
                assert numeric == pytest.approx(closed, abs=1e-8), (key, p, q)


def test_example2_closed_lb1_is_a_different_valid_surface():
    # the closed lb1 surface is systematically above the literal double
    # sum (by 3/8 at the corner) yet still below the left-hand side, so
    # the numeric value stays authoritative and both remain valid bounds
    state = rho_theta_state(0.0)
    corner_numeric = lb1_eq14(state, channel_E(1.0), channel_F(1.0))
    corner_closed = example2_closed_forms(1.0, 1.0).lb1_closed
    assert corner_closed - corner_numeric == pytest.approx(0.375, abs=1e-12)
    for p in GRID11:
        for q in GRID11:
            phi, psi = channel_E(float(p)), channel_F(float(q))
            m_phi = channel_measures(state, phi)
            m_psi = channel_measures(state, psi)
            lhs = m_phi.u_abs ** 2 + m_psi.u_abs ** 2
            closed = example2_closed_forms(float(p), float(q)).lb1_closed
            numeric = lb1_eq14(state, phi, psi)
            assert lhs - closed >= -1e-9
            assert lhs - numeric >= -1e-9
            assert closed - numeric >= -1e-9


def test_degenerate_states_null_u_measures():
    for state in (werner_state(0.75), rho_theta_state(0.5)):
        for p in np.linspace(0, 1, 5):
            for q in np.linspace(0, 1, 5):
                m_phi = channel_measures(state, channel_E(float(p)))
                m_psi = channel_measures(state, channel_F(float(q)))
                assert m_phi.u_abs <= 1e-12
                assert m_psi.u_abs <= 1e-12
