"""Unit tests for the seeded generators and the verification harness."""

import copy
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import chanuq.ensembles
from chanuq import linalg
from chanuq.bounds import (_schrodinger_terms, bound_report, dou_bounds, heisenberg_bound,
                           luo_bound, schrodinger_bound)
from chanuq.ensembles import (_CHUNK_ENTRIES, BOUND_NAMES, EnsembleConfig, SplitMix64,
                              _chunk_relations, _gram_schmidt, _normals, random_channel,
                              random_density, random_operator, verify_suite)
from chanuq.errors import CompletenessError, NumericError
from chanuq.measures import (_measure_sets, _u_from, abs_variance, channel_measures,
                             mwy_skew_info, sym_abs_variance)
from chanuq.objects import _stack_states

import oracles

# published reference outputs of the SplitMix64 update equations
SPLITMIX_SEED = 1234567
SPLITMIX_REF = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]

# first uniforms for seed 42, frozen at first run
UNIFORMS_SEED42 = [0.7415648787718234, 0.15991039287692022,
                   0.2786011302551388, 0.34419071652363764]

# random_density(2, 2, seed=42), frozen at first run
DENSITY_SEED42 = np.array([
    [0.24764915135966964 + 0.0j, -0.25102691445401426 + 0.090785786229866j],
    [-0.25102691445401426 - 0.090785786229866j, 0.7523508486403304 + 0.0j],
])


def test_splitmix_reference_vector():
    # the oracle states the update equations; test_complex_matrix_matches_scalar_reference
    # ties the library's block kernel to the oracle
    assert oracles.splitmix_u64s(SPLITMIX_SEED, 5) == SPLITMIX_REF


def _uniforms(seed, count):
    """The documented map of the oracle's outputs into (0, 1]."""
    return [((z >> 11) + 1) * 2.0 ** -53 for z in oracles.splitmix_u64s(seed, count)]


def test_splitmix_uniform_range_and_goldens():
    assert _uniforms(42, 4) == UNIFORMS_SEED42
    assert all(0.0 < u <= 1.0 for u in _uniforms(42, 1000))
    # the library's first normal of seed 42 is the Box-Muller pair of those uniforms
    u1, u2 = UNIFORMS_SEED42[:2]
    r = math.sqrt(-2.0 * math.log(u1))
    first = complex(r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2))
    assert SplitMix64(42).complex_matrix(1, 1)[0, 0] == first


@pytest.mark.parametrize("seed, rows, cols", [
    (0, 1, 1), (42, 2, 2), (11, 12, 4), (2024, 8, 8), (2 ** 64 - 1, 3, 5),
    (987654321, 16, 16),
])
def test_complex_matrix_matches_scalar_reference(seed, rows, cols):
    m = SplitMix64(seed).complex_matrix(rows, cols)
    assert m.shape == (rows, cols)
    assert np.array_equal(m, oracles.splitmix_complex_matrix(seed, rows, cols))


@pytest.mark.parametrize("seed, rows, cols", [
    (0, 1, 1), (-7, 1, 1), (2 ** 64 - 1, 1, 1), (2 ** 64 - 2, 3, 5), (2 ** 70 + 1, 8, 4),
    (987654321, 16, 16),
])
def test_complex_matrix_leaves_the_stream_after_its_outputs(seed, rows, cols):
    # a matrix uses two outputs per entry; the next matrix starts right after them
    g = SplitMix64(seed)
    both = np.vstack([g.complex_matrix(rows, cols), g.complex_matrix(rows, cols)])
    assert np.array_equal(both, oracles.splitmix_complex_matrix(seed, 2 * rows, cols))


@pytest.mark.parametrize("seed", [0, 2024, 2 ** 64 - 2])
def test_normals_prefix_of_a_longer_block_bitwise(seed):
    # verify draws one block per trial seed for all the Kraus counts of a dim; each
    # config's block must be a prefix of it, bit for bit, whatever lengths numpy's
    # elementwise loops split into SIMD bodies and tails
    longest = _normals(seed, 960)  # d = 8, rank 8, 5 Kraus operators
    for n in range(1, 961):
        assert _bits(longest[:n].view(float)) == _bits(_normals(seed, n).view(float)), n
    for dim in range(2, 9):
        counts = [dim * rank + 2 * dim * dim * k + 4 * dim * dim
                  for rank in range(1, dim + 1) for k in range(1, 6)]
        block = _normals(seed, max(counts))
        for n in counts:
            assert _bits(block[:n].view(float)) == _bits(_normals(seed, n).view(float)), n


# a verify trial's draws at d = 3, rank 2, one Kraus operator: 6 + 9 + 9 + 4 * 9 = 60 normals
TRIAL_SHAPES = [(3, 2), (3, 3), (3, 3), (3, 3), (3, 3), (3, 3), (3, 3)]


def _read_ahead(seed, count):
    """A cursor on the stream seeded ``seed`` whose read-ahead holds its first ``count``
    normals, as verify_suite fills it per trial seed."""
    rng = SplitMix64(seed)
    rng._ahead = _normals(rng._state, count)
    return rng


def _drawn_bits(rng, shapes) -> list:
    return [(m.shape, _bits(m.view(float))) for m in (rng.complex_matrix(*s) for s in shapes)]


# none, ending inside the first, second and third draws, as long as the draws, longer
@pytest.mark.parametrize("count", [0, 5, 10, 20, 60, 61, 200])
@pytest.mark.parametrize("seed", [0, 2024, 2 ** 64 - 3])
def test_read_ahead_gives_the_streams_matrices_bitwise(seed, count):
    # a read-ahead of any length continues the stream exactly where it runs out
    rng, fresh = _read_ahead(seed, count), SplitMix64(seed)
    assert _drawn_bits(rng, TRIAL_SHAPES) == _drawn_bits(fresh, TRIAL_SHAPES)
    assert rng._state == fresh._state
    assert _drawn_bits(rng, [(2, 5)]) == _drawn_bits(fresh, [(2, 5)])


@pytest.mark.parametrize("count", [0, 6, 30, 96, 200])
@pytest.mark.parametrize("seed", [5, 2 ** 64 - 3])
def test_read_ahead_forks_draw_as_fresh_cursors(seed, count):
    # verify copies the cursor per config after the state's draws; each copy, whatever
    # its Kraus count, draws what a fresh stream gives after the state, and no copy's
    # draws move another's (96: a state, two channels of 3 Kraus operators, 4 operators)
    rng = _read_ahead(seed, count)
    state = _drawn_bits(rng, TRIAL_SHAPES[:1])
    for kraus in (3, 1, 3, 2):
        shapes = [(3 * kraus, 3), (3 * kraus, 3), *TRIAL_SHAPES[3:]]
        fresh = SplitMix64(seed)
        assert _drawn_bits(fresh, TRIAL_SHAPES[:1]) == state
        assert _drawn_bits(copy.copy(rng), shapes) == _drawn_bits(fresh, shapes), kraus
    assert _drawn_bits(rng, TRIAL_SHAPES[1:]) == _drawn_bits(_read_ahead(seed, 0),
                                                            TRIAL_SHAPES)[1:]


def test_gauss_pair_moments():
    # each entry's real and imaginary parts are one Box-Muller pair
    m = SplitMix64(7).complex_matrix(5000, 1)
    samples = np.concatenate([m.real, m.imag]).ravel()
    assert abs(samples.mean()) < 0.05
    assert abs(samples.std() - 1.0) < 0.05


def test_random_operator_hermitian_flag():
    # (M + M^dag)/2 is Hermitian to the bit: the operator-level relations rely on it
    m = random_operator(4, 3, hermitian=True)
    assert np.array_equal(m, m.conj().T)


def test_random_operator_seeds_differ():
    assert not np.array_equal(random_operator(3, 1), random_operator(3, 2))
    np.testing.assert_array_equal(random_operator(3, 5), random_operator(3, 5))


def test_random_operator_rejects_nonpositive_dims():
    for dim in (0, -1):
        with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
            random_operator(dim, 1)


def test_random_density_pure():
    rho = random_density(4, 1, 9)
    w = np.linalg.eigvalsh(rho.matrix)
    assert w[-1] == pytest.approx(1.0, abs=1e-10)


def test_random_density_golden_seed42():
    rho = random_density(2, 2, 42)
    np.testing.assert_allclose(rho.matrix, DENSITY_SEED42, atol=1e-12)
    again = random_density(2, 2, 42)
    np.testing.assert_array_equal(rho.matrix, again.matrix)


def test_random_density_distinct_seeds():
    a = random_density(3, 3, 1).matrix
    b = random_density(3, 3, 2).matrix
    assert not np.array_equal(a, b)


def test_random_density_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_density(3, 0, 1)
    with pytest.raises(ValueError):
        random_density(3, 4, 1)


def test_random_channel_rejects_no_kraus_operators():
    with pytest.raises(ValueError):
        random_channel(3, 0, 1)


def test_random_channel_rejects_nonpositive_dims():
    for dim in (0, -1):
        with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
            random_channel(dim, 2, 1)


def test_gram_schmidt_rejects_dependent_columns():
    with pytest.raises(NumericError, match="dependent column"):
        _gram_schmidt(np.array([[1.0, 2.0], [1j, 2j], [0.5, 1.0]]))


def test_random_channel_single_kraus_is_unitary():
    ch = random_channel(3, 1, 17)
    op = ch.kraus_ops[0]
    assert np.linalg.norm(op.conj().T @ op - np.eye(3)) <= 1e-10


def test_random_channel_completeness_sweep():
    for seed in range(100):
        dim = 2 + seed % 3
        count = 1 + seed % 3
        ch = random_channel(dim, count, seed)
        total = sum(op.conj().T @ op for op in ch.kraus_ops)
        assert np.linalg.norm(total - np.eye(dim)) <= 1e-10


def test_random_channel_keeps_the_isometry_tolerance(monkeypatch):
    # an isometry scaled by 1 + 3e-10 leaves a completeness residual of 2 * 3e-10 * sqrt(3),
    # about 1.04e-9: CPTP_TOL (1e-8) would take it, ISOMETRY_CPTP_TOL (1e-10) must not
    monkeypatch.setattr(chanuq.ensembles, "_gram_schmidt",
                        lambda a, gram_schmidt=_gram_schmidt: gram_schmidt(a) * (1 + 3e-10))
    with pytest.raises(CompletenessError) as info:
        random_channel(3, 2, 5)
    assert linalg.CPTP_TOL > info.value.residual > linalg.ISOMETRY_CPTP_TOL


def test_random_channel_deterministic():
    a = random_channel(4, 3, 23)
    b = random_channel(4, 3, 23)
    for x, y in zip(a.kraus_ops, b.kraus_ops):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("kwargs", [
    {"dim": 1}, {"dim": 9}, {"kraus_count": 0}, {"rank": 0}, {"rank": 5},
    {"trials": 0},
])
def test_ensemble_config_rejects_bad_ranges(kwargs):
    base = {"dim": 4, "kraus_count": 2, "rank": 4, "seed": 1, "trials": 10}
    base.update(kwargs)
    with pytest.raises(ValueError):
        EnsembleConfig(**base)


CONFIG = (4, 2, 4, 1, 10)  # EnsembleConfig's dim, kraus_count, rank, seed, trials


def _drawn(value):
    """What a seeded generator gives, as comparable bytes or a deterministic report."""
    if isinstance(value, EnsembleConfig):
        return {**verify_suite(value).to_dict(), "elapsed_seconds": None}
    return np.asarray(getattr(value, "matrix", getattr(value, "kraus_ops", value))).tobytes()


@pytest.mark.parametrize("make, args, message", [
    (random_operator, (2.5, 7), "dim must be an integer, got 2.5"),
    (random_operator, ("3", 7), "dim must be an integer, got '3'"),
    (random_density, (2, 1.0, 7), "rank must be an integer, got 1.0"),
    (random_density, (0, 1, 7), "dim must be >= 1, got 0"),
    (random_channel, (2, True, 7), "kraus_count must be an integer, got True"),
    (random_channel, (np.float64(2.0), 2, 7), "dim must be an integer, got np.float64(2.0)"),
    (EnsembleConfig, (4, 1.5, 4, 1, 10), "kraus_count must be an integer, got 1.5"),
    (EnsembleConfig, (4, 2, 4, 1, True), "trials must be an integer, got True"),
    (EnsembleConfig, (4, 2, 4, 1.5, 10), "seed must be an integer, got 1.5"),
    (EnsembleConfig, (4, 2, 5, 1, 10), "rank must lie in [1, 4], got 5"),
    (random_operator, (np.int64(3), 7), None),
    (random_density, (np.int64(3), np.int64(3), 7), None),
    (random_channel, (np.int64(2), np.int64(2), 7), None),
    (random_channel, (np.uint8(2), np.int32(3), 7), None),
    (EnsembleConfig, tuple(np.int64(x) for x in CONFIG), None),
    (EnsembleConfig, (*map(np.int64, CONFIG[:3]), np.uint64(2 ** 64 - 3), np.int64(10)), None),
])
def test_seeded_generators_take_integer_counts(make, args, message):
    # a count is an int or a numpy integer, never a bool or a float; numpy integers give
    # what the same Python ints give
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(*args)
    else:
        assert _drawn(make(*args)) == _drawn(make(*map(int, args)))


def test_verify_suite_small_run_clean():
    config = EnsembleConfig(dim=3, kraus_count=2, rank=3, seed=99, trials=25)
    report = verify_suite(config)
    assert report.trials_run == 25
    assert report.violations == []
    assert all(v >= -1e-9 for v in report.min_slack_per_bound.values())


def test_verify_suite_over_rank_deficient_states(monkeypatch):
    # ranks 1 and 2 with every relation: no violation and no NumericError, while the
    # psd_sqrt clamp zeroes exactly the d - r kernel eigenvalues of each state
    kernel, changed = [], []
    sqrt_from_spectrum = linalg._sqrt_from_spectrum

    def recording(h, spectrum):
        scale, unit = linalg._scale(h)
        clamped = spectrum.eigenvalues <= linalg.PSD_CLAMP_TOL * scale * unit
        kernel.append(int(clamped.sum()))
        changed.append(bool((spectrum.eigenvalues[clamped] != 0.0).any()))
        return sqrt_from_spectrum(h, spectrum)
    monkeypatch.setattr(linalg, "_sqrt_from_spectrum", recording)
    configs = [EnsembleConfig(dim=dim, kraus_count=k, rank=rank, seed=7000 + 10 * dim + k,
                              trials=10)
               for rank in (1, 2) for dim in (2, 3, 4) for k in (1, 2, 3)]
    report = verify_suite(*configs)
    assert report.trials_run == 180
    assert report.violations == []
    assert kernel == [c.dim - c.rank for c in configs for _ in range(c.trials)]
    assert sum(changed) >= 100  # the clamp moved eigenvalues, not only kept zeros


def test_verify_suite_deterministic_modulo_elapsed():
    config = EnsembleConfig(dim=2, kraus_count=2, rank=2, seed=5, trials=10)
    a = verify_suite(config).to_dict()
    b = verify_suite(config).to_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


INJECTION_CONFIG = EnsembleConfig(dim=2, kraus_count=2, rank=2, seed=5, trials=10)


@pytest.fixture(scope="module")
def clean_injection_run():
    return verify_suite(INJECTION_CONFIG)


@pytest.mark.parametrize("broken", BOUND_NAMES)
def test_verify_suite_detects_injected_violation(broken, clean_injection_run):
    report = verify_suite(INJECTION_CONFIG, broken_bound=broken)
    assert report.violations
    assert all(v.bound_name == broken for v in report.violations)
    # seeds recorded with the violation point back into the configured range
    assert all(5 <= v.seed < 15 for v in report.violations)
    clean = clean_injection_run.min_slack_per_bound
    for name, slack in report.min_slack_per_bound.items():
        if name == broken:
            assert slack <= clean[name]
        else:
            assert slack == clean[name], name


def test_verify_suite_rejects_unknown_broken_bound(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran before the bound name was checked")

    monkeypatch.setattr(chanuq.ensembles, "random_density", no_trial)
    config = EnsembleConfig(dim=2, kraus_count=1, rank=2, seed=5, trials=1)
    with pytest.raises(ValueError):
        verify_suite(config, broken_bound="nope")


def _bits(values) -> list:
    """The bit patterns of floats, the sign of a zero included."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _harness_trial(dim, kraus_count, trial_seed, rank=None):
    """One verify trial's draws, one object after another from the trial's stream,
    in the harness's order (rank = dim unless given, as the CLI runs it)."""
    rng = SplitMix64(trial_seed)
    rho = random_density(dim, dim if rank is None else rank, rng)
    phi = random_channel(dim, kraus_count, rng)
    psi = random_channel(dim, kraus_count, rng)
    ops = [random_operator(dim, rng, hermitian=h) for h in (False, False, True, True)]
    return (rho, phi, psi, *ops)


def _harness_chunk(dim, kraus_counts, trial_seeds, rank=None):
    """A chunk as verify_suite hands it to _chunk_relations: per trial seed one state and,
    per Kraus count, that config's draws, each taken from the trial's own stream."""
    trials = [[_harness_trial(dim, k, s, rank) for k in kraus_counts] for s in trial_seeds]
    return [row[0][0] for row in trials], [[draws[1:] for draws in row] for row in trials]


def _trial_relations(rho, phi, psi, k, l, a, b) -> dict[str, tuple[float, float]]:
    """``{name: (lhs, bound)}`` for every name in BOUND_NAMES on one trial: verify's
    evaluation of one trial at a time before it ran chunks, kept as their oracle. The pair
    report of one state, then the operator-level relations of the (4, d, d) stack."""
    relations = bound_report(rho, phi, psi, check=False).relations()
    ops = np.stack([k, l, a, b])
    v = sym_abs_variance(rho, ops)
    uk, ul, ua, ub = _u_from(v, mwy_skew_info(rho, ops)).tolist()
    vk, vl, va, vb = v.tolist()
    comm, anti = _schrodinger_terms(rho, a, b)
    relations["heisenberg_bound"] = (va * vb, comm)
    relations["schrodinger_bound"] = (va * vb, comm + anti)
    relations["luo_bound"] = (ua * ub, comm)
    comm, brackets, u_comm = dou_bounds(rho, k, l)
    relations["dou_comm"] = (vk * vl, comm)
    relations["dou_brackets"] = (vk * vl, brackets)
    relations["dou_u"] = (uk * ul, u_comm)
    return relations


def _zero_relations(rhos, trials, values=None):
    """A chunk hook's result: the (len(BOUND_NAMES), 2, T, C) array of (lhs, bound), every
    bound 0.0 and every name's lhs the (T, C) ``values``, or 0.0."""
    relations = np.zeros((len(BOUND_NAMES), 2, len(trials), len(trials[0])))
    if values is not None:
        relations[:, 0] = values
    return relations


@pytest.mark.parametrize("dim", range(2, 9))
def test_harness_relations_match_public_functions_bitwise(dim):
    # the harness shares terms between relations and forms them in stacked products;
    # on its exactly Hermitian a, b that must give the public functions' bits, not
    # merely close values. Both channels of a config are measured in one stacked pass
    # over the chunk, and each must keep the measures of a pass over that channel alone
    kraus_counts, trial_seeds = (1, 2, 3, 5), range(31, 36)
    rhos, trials = _harness_chunk(dim, kraus_counts, trial_seeds)
    relations = _chunk_relations(rhos, trials)
    for j in range(len(kraus_counts)):  # the zipped report's pass over both sides
        x = np.array([[row[j][0].kraus_ops, row[j][1].kraus_ops] for row in trials])
        zipped = _measure_sets(_stack_states(rhos), x)  # (5, T, 2)
        for (t, rho), side in itertools.product(enumerate(rhos), range(2)):
            lone = _measure_sets(rho, x[t, side][None])  # (5, 1)
            assert _bits(zipped[:, t, side]) == _bits(lone[:, 0])
    for (t, rho), j in itertools.product(enumerate(rhos), range(len(kraus_counts))):
        phi, psi, k, l, a, b = trials[t][j]
        got = {name: (float(lhs[t, j]), float(bound[t, j]))
               for name, (lhs, bound) in zip(BOUND_NAMES, relations, strict=True)}
        for x in (a, b):
            assert abs_variance(rho, x) == sym_abs_variance(rho, x)
        m_phi, m_psi = (channel_measures(rho, channel) for channel in (phi, psi))
        assert _bits([got["thm1_bound"][0], got["thm3_bound"][0], got["thm4_bound"][0]]) == _bits(
            [m_phi.v_sym * m_psi.v_sym, m_phi.u_abs * m_psi.u_abs,
             m_phi.u_abs ** 2 + m_psi.u_abs ** 2])
        assert got["luo_bound"] == luo_bound(rho, a, b)
        assert got["heisenberg_bound"][1] == heisenberg_bound(rho, a, b)
        assert got["schrodinger_bound"][1] == schrodinger_bound(rho, a, b)
        comm, brackets, u_comm = dou_bounds(rho, k, l)
        assert got["dou_comm"][1] == comm
        assert got["dou_brackets"][1] == brackets
        assert got["dou_u"][1] == u_comm


@pytest.mark.parametrize("dim", [2, 5])
def test_chunk_relations_array_rows_are_the_zipped_reports_relations(dim):
    # a chunk gives one (len(BOUND_NAMES), 2, T, C) array, its rows in BOUND_NAMES order:
    # each config's rows of the six channel bounds are its zipped report's relations
    kraus_counts = (1, 3)
    rhos, trials = _harness_chunk(dim, kraus_counts, range(7, 10))
    relations = _chunk_relations(rhos, trials)
    assert isinstance(relations, np.ndarray)
    assert relations.shape == (len(BOUND_NAMES), 2, len(rhos), len(kraus_counts))
    for j in range(len(kraus_counts)):
        phis, psis = zip(*(row[j][:2] for row in trials))
        report = bound_report(_stack_states(rhos), phis, psis, check=False).relations()
        assert set(report) == set(BOUND_NAMES[:6])
        for row, name in enumerate(BOUND_NAMES[:6]):
            assert _bits(relations[row, ..., j]) == _bits(report[name]), (name, j)


@pytest.mark.parametrize("dim", range(2, 9))
def test_zipped_report_side_measures_equal_lone_channel_measures(dim):
    # a config's zipped report over one chunk hands its caller (T,) arrays of each side's
    # measures; trial t's entries are channel_measures of its channels alone, bit for bit
    kraus_counts = (1, 2, 3, 5)
    rhos, trials = _harness_chunk(dim, kraus_counts, range(31, 36))
    for j in range(len(kraus_counts)):
        phis, psis = zip(*(row[j][:2] for row in trials))
        measures = bound_report(_stack_states(rhos), phis, psis, check=False).measures
        for t, rho in enumerate(rhos):
            assert oracles.measure_bits(measures, (t,)) == oracles.measure_bits(
                (channel_measures(rho, phis[t]), channel_measures(rho, psis[t]))), (j, t)


@pytest.mark.parametrize("rank", ["1", "2", "d"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_chunk_relations_equal_the_per_trial_oracle_bitwise(dim, rank):
    # a chunk of `dim` trial seeds and Kraus counts 1-5 gives every trial and config all
    # twelve (lhs, bound) pairs with the bits of one trial evaluated alone
    rank = {"1": 1, "2": 2, "d": dim}[rank]
    rhos, trials = _harness_chunk(dim, range(1, 6), range(100 * dim + rank, 101 * dim + rank),
                                  rank)
    relations = _chunk_relations(rhos, trials)
    assert relations.shape == (len(BOUND_NAMES), 2, dim, 5)
    for t, j in itertools.product(range(dim), range(5)):
        want = _trial_relations(rhos[t], *trials[t][j])
        assert _bits(relations[..., t, j]) == _bits([want[name] for name in BOUND_NAMES]), (t, j)


@pytest.mark.parametrize("seed", [0, -7, 2 ** 64 - 2, 2 ** 70 + 1])
@pytest.mark.parametrize("dim", range(2, 9))
def test_verify_trial_draws_equal_the_stream_draws(monkeypatch, dim, seed):
    # verify_suite hands each trial's objects to _chunk_relations; they must be
    # the objects the public generators draw one after another from
    # SplitMix64(seed + t), including where seed + t wraps past 2^64
    seen = []

    def record(rhos, trials):
        seen.extend((rho, *draws) for rho, row in zip(rhos, trials) for draws in row)
        return _zero_relations(rhos, trials)

    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", record)
    configs = [EnsembleConfig(dim=dim, kraus_count=k, rank=rank, seed=seed, trials=3)
               for k in range(1, 6) for rank in (dim - 1, dim)]
    verify_suite(*configs)
    # configs sharing (dim, rank, seed, trials) form a group, in first-appearance order;
    # a group runs seed-major, its configs in the given order at each trial seed
    groups = {}
    for c in configs:
        groups.setdefault((c.dim, c.rank, c.seed, c.trials), []).append(c)
    runs = [(key, t, c) for key, group in groups.items() for t in range(key[3]) for c in group]
    expected = [_harness_trial(c.dim, c.kraus_count, c.seed + t, c.rank) for _, t, c in runs]
    assert len(seen) == len(expected)
    states = {}  # every config of a group gets the same state object at a trial seed
    for (key, t, _), (rho, *_) in zip(runs, seen):
        assert states.setdefault((key, t), rho) is rho
    for (rho, phi, psi, *ops), (rho0, phi0, psi0, *ops0) in zip(seen, expected):
        assert np.array_equal(rho.matrix, rho0.matrix)
        assert np.array_equal(rho.sqrt_matrix, rho0.sqrt_matrix)
        assert np.array_equal(phi.kraus_ops, phi0.kraus_ops)
        assert np.array_equal(psi.kraus_ops, psi0.kraus_ops)
        assert all(np.array_equal(x, x0) for x, x0 in zip(ops, ops0, strict=True))


@pytest.mark.parametrize("broken", [None, "thm1_bound", "luo_bound"])
def test_verify_suite_of_two_configs_is_their_separate_runs_joined(broken):
    c1 = EnsembleConfig(dim=2, kraus_count=2, rank=2, seed=5, trials=6)
    c2 = EnsembleConfig(dim=3, kraus_count=1, rank=2, seed=40, trials=5)
    # c3 and c4 share their trial streams, so a joint run draws each seed's state once
    # and runs them seed-major; a config listed twice runs twice
    c3 = EnsembleConfig(dim=3, kraus_count=1, rank=3, seed=5, trials=6)
    c4 = EnsembleConfig(dim=3, kraus_count=3, rank=3, seed=5, trials=6)
    alone = {c: verify_suite(c, broken_bound=broken) for c in (c1, c2, c3, c4)}
    for configs in ((c1, c2), (c2, c1), (c3, c4), (c4, c3), (c1, c1), (c4, c4)):
        first, second = (alone[c] for c in configs)
        joint = verify_suite(*configs, broken_bound=broken)
        assert joint.trials_run == first.trials_run + second.trials_run
        assert joint.violations == first.violations + second.violations
        # merged in config order with min's strict <, the sign of a zero included
        assert _bits(list(joint.min_slack_per_bound.values())) == _bits([
            min(first.min_slack_per_bound[name], second.min_slack_per_bound[name])
            for name in BOUND_NAMES])
        assert list(joint.min_slack_per_bound) == list(BOUND_NAMES)
    if broken is not None:
        # an inflated thm1 never fires for c4, so (c3, c4) joins c3's violations to none;
        # an inflated luo_bound fires for every config
        assert all(alone[c].violations for c in (c1, c2, c3))
        assert bool(alone[c4].violations) == (broken == "luo_bound")


# d=8, Kraus 5 runs the fewest trial seeds per chunk
CHUNK = _CHUNK_ENTRIES // (5 * 8 * 8)


@pytest.mark.parametrize("broken", [None, "thm1_bound", "luo_bound"])
@pytest.mark.parametrize("shift", [(0, -1), (1, -1), (1, 0)], ids=str)
@pytest.mark.parametrize("dim, kraus, entries", [(2, 2, 40), (8, 5, _CHUNK_ENTRIES)],
                         ids=["d2-chunks-of-5", "d8"])
def test_verify_suite_is_blind_to_chunk_boundaries(monkeypatch, dim, kraus, entries, shift,
                                                   broken):
    # n trial seeds in one run, or split after the first a into two runs: the chunks fall
    # elsewhere (n and a at, one below and one above the chunk size), the report may not.
    # At d=2 the chunks are made small, where an inflated thm1 or luo_bound fires
    monkeypatch.setattr(chanuq.ensembles, "_CHUNK_ENTRIES", entries)
    size = entries // (kraus * dim * dim)
    n, a = size + shift[0], size + shift[1]

    def config(seed, trials):
        return EnsembleConfig(dim=dim, kraus_count=kraus, rank=dim, seed=seed, trials=trials)

    whole = verify_suite(config(61, n), broken_bound=broken)
    split = verify_suite(config(61, a), config(61 + a, n - a), broken_bound=broken)
    assert whole.trials_run == split.trials_run == n
    assert [(v.bound_name, v.seed, _bits([v.slack])) for v in whole.violations] == [
        (v.bound_name, v.seed, _bits([v.slack])) for v in split.violations]
    if dim == 2:
        assert bool(whole.violations) == (broken is not None)
    assert _bits(list(whole.min_slack_per_bound.values())) == _bits(
        list(split.min_slack_per_bound.values()))


def _peak_bytes(trials: int) -> int:
    tracemalloc.start()
    try:
        verify_suite(EnsembleConfig(dim=8, kraus_count=5, rank=8, seed=90, trials=trials))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the tracemalloc peak of a 2-chunk run at d=8, Kraus 5 (about 1.6 MiB when measured),
# with room to spare
PEAK_BOUND = 2 * 2 ** 20


def test_verify_suite_memory_does_not_grow_with_trials():
    # one chunk of trials is live at a time, so 8 chunks' worth peaks as 2 chunks' do
    assert _peak_bytes(2 * CHUNK) < PEAK_BOUND
    assert _peak_bytes(8 * CHUNK) < PEAK_BOUND


def test_verify_suite_keeps_the_first_of_equal_minimum_slacks(monkeypatch):
    # +0.0 and -0.0 tie: the report keeps the zero that a run of one config after
    # another meets first, within a config (trial order) and across configs (config
    # order), though configs sharing a stream run seed-major
    lhs = {(1, 0): 0.0, (1, 1): -0.0, (2, 0): -0.0, (2, 1): 0.0}  # (Kraus count, trial)
    seen = []

    def zero_slacks(rhos, trials):
        values = []
        for row in trials:
            values.append([])
            for phi, *_ in row:
                values[-1].append(lhs[len(phi), seen.count(len(phi))])
                seen.append(len(phi))
        return _zero_relations(rhos, trials, values)

    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", zero_slacks)
    c1, c2 = (EnsembleConfig(dim=2, kraus_count=k, rank=2, seed=3, trials=2) for k in (1, 2))
    for configs, zero in (((c1, c2), 0.0), ((c2, c1), -0.0)):
        seen.clear()
        report = verify_suite(*configs)
        assert _bits(list(report.min_slack_per_bound.values())) == _bits([zero] * 12)


def test_verify_suite_builds_one_state_per_group_and_trial_seed(monkeypatch):
    # the CLI's configs: one group per dim, here with a Kraus count repeated
    calls = []

    def counting(dim, rank, seed):
        calls.append((dim, rank))
        return random_density(dim, rank, seed)
    monkeypatch.setattr(chanuq.ensembles, "random_density", counting)
    configs = [EnsembleConfig(dim=d, kraus_count=k, rank=d, seed=11, trials=4)
               for d in (3, 2) for k in (1, 3, 3, 2)]
    report = verify_suite(*configs)
    assert report.trials_run == 32
    assert calls == [(3, 3)] * 4 + [(2, 2)] * 4


def test_verify_suite_needs_a_config():
    with pytest.raises(ValueError):
        verify_suite()
    with pytest.raises(ValueError):
        verify_suite(broken_bound="thm1_bound")
