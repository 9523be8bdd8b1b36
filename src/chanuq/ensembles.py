"""Seeded random quantum objects and the randomized verification harness.

The generator is deliberately *not* a language-library default: golden
files produced here must be reproducible from the documented update
equations alone, on any platform. SplitMix64 is used:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    output:    z = state
               z = (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
               z = (z xor (z >> 27)) * 0x94D049BB133111EB   mod 2^64
               return z xor (z >> 31)

Uniforms map the top 53 bits into (0, 1] as u = ((z >> 11) + 1) * 2^-53;
Gaussians come from Box-Muller, r = sqrt(-2 log u1) and angle 2 pi u2,
applied to consecutive uniform pairs; complex normals use one pair per
entry (real part first). Isometries are built by modified Gram-Schmidt
with a second re-orthogonalization pass in fixed column order.

Every draw goes through one block kernel, ``_normals``: output k of a
stream (counted from 1) is the mix of ``seed + k * gamma``, so a block of
outputs is one ``uint64`` array expression, and so are the blocks of several
seeds, one row each. ``SplitMix64`` is the one cursor: ``complex_matrix``
slices its read-ahead (normals drawn ahead as one block) when that holds the
whole matrix, else draws the matrix as a block; the kernel being
counter-based, a read-ahead of any length gives the bits drawn without it.
A block gives the bits of the equations above taken one draw at a time, as
``tests/oracles.py`` states them: the uniforms are exact, numpy computes
only the IEEE-rounded ``*``, ``sqrt`` and ``2 pi u``, and ``log``, ``cos``
and ``sin`` stay scalar ``math`` calls, since numpy's versions can differ
from them in the last bit and pick their SIMD kernels per CPU.

``verify`` runs a group's trial seeds (configs sharing their streams) in
chunks, with one ``(T, draws)`` block of normals per chunk, a row per trial
seed: each state from ``random_density`` on a cursor reading its row, each
config's channels and operators sliced from the rows (``_config_draws``).
A chunk is evaluated in stacked passes: the states stacked on a trial axis
(``objects._States``), one measure and one term pass over the zipped records
of all configs' sides, one ``bound_report`` per config on its record pair,
and one pass of the operator-level relations over all the chunk's operators,
into one array of (lhs, bound) per name, trial and config
(``_chunk_relations``). Each value keeps the bits of its trial evaluated
alone, which ``tests/test_ensembles.py`` checks against that evaluation,
kept there as the oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import _schrodinger_terms, bound_report, dou_bounds
from .errors import ChanuqError, NumericError
from .linalg import GRAM_SCHMIDT_TOL, ISOMETRY_CPTP_TOL, SLACK_TOL, dagger, frob_norm
from .measures import _measure_all, _operator_terms, _side, _u_from, mwy_skew_info, sym_abs_variance
from .objects import DensityMatrix, KrausChannel, _make_channels, _stack_states, make_density

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_NO_NORMALS = np.empty(0, dtype=complex)
#: Kraus-operator entries of all its configs (one stack) that a verify chunk's trials hold at most
_CHUNK_ENTRIES = 4096

#: every bound name tracked by the verification harness
BOUND_NAMES = (
    "thm1_bound", "thm2_bound", "thm3_bound", "thm4_bound",
    "lb_eq13", "lb1_eq14",
    "heisenberg_bound", "schrodinger_bound", "luo_bound",
    "dou_comm", "dou_brackets", "dou_u",
)


class SplitMix64:
    """Counter-based 64-bit generator (see the module docstring); ``_ahead``: a read-ahead."""

    def __init__(self, seed: int, _ahead: np.ndarray = _NO_NORMALS):
        _check_int("seed", seed)
        self._state = int(seed) & _MASK64
        self._ahead = _ahead  # read-ahead: the stream's next normals

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major matrix of independent standard complex normals: the read-ahead's
        first ones if it holds them all, else one block of ``2 * rows * cols`` outputs."""
        n = int(rows) * int(cols)
        ahead = self._ahead if n <= len(self._ahead) else _normals(self._state, n)
        self._ahead = ahead[n:] if n < len(ahead) else _NO_NORMALS  # no spent block held
        self._state = (self._state + 2 * n * _GAMMA) & _MASK64
        return ahead[:n].reshape(rows, cols)


def _normals(seed, n: int) -> np.ndarray:
    """The first ``n`` complex normals of the stream seeded ``seed``, by the
    equations: entry j takes outputs 2j+1 and 2j+2 as the uniforms (u1, u2) of
    its Box-Muller pair; of a sequence of T seeds, the ``(T, n)`` array of each
    seed's, one row per seed. Every ``uint64`` step acts on an array, where numpy
    wraps silently (it warns when a 0-d scalar wraps)."""
    seeds = [seed] if isinstance(seed, int) else list(seed)
    z = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z + np.array([s & _MASK64 for s in seeds], dtype=np.uint64)[:, None]).ravel()
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    u = ((z >> 11) + 1).astype(float) * 2.0 ** -53  # exact: (z >> 11) + 1 <= 2^53
    size = len(seeds) * n  # each row's pairs stay within the row
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float, size))
    angle = (2.0 * math.pi * u[1::2]).tolist()
    out = np.empty(size, dtype=complex)
    out.real = r * np.fromiter(map(math.cos, angle), float, size)
    out.imag = r * np.fromiter(map(math.sin, angle), float, size)
    return out if isinstance(seed, int) else out.reshape(len(seeds), n)


def _check_int(name: str, value, low=None, high=None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and not (low <= value and (high is None or value <= high)):
        raise ValueError(f"{name} must be >= {low}, got {value}" if high is None
                         else f"{name} must lie in [{low}, {high}], got {value}")


def _as_rng(seed) -> SplitMix64:
    return seed if isinstance(seed, SplitMix64) else SplitMix64(seed)


def random_operator(dim: int, seed, hermitian: bool = False) -> np.ndarray:
    """Matrix of standard complex normals, optionally symmetrized to (M + M^dag)/2."""
    _check_int("dim", dim, 1)
    rng = _as_rng(seed)
    m = rng.complex_matrix(dim, dim)
    if hermitian:
        m = 0.5 * (m + m.conj().T)
    return m


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Normalized G G^dag for a dim x rank complex Gaussian G."""
    _check_int("dim", dim, 1)
    _check_int("rank", rank, 1, dim)
    rng = _as_rng(seed)
    g = rng.complex_matrix(dim, rank)
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return make_density(m)


def _gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``a`` (modified Gram-Schmidt, two passes)."""
    q = a.astype(complex)  # a copy: the caller's block of normals stays intact
    rows, cols = q.shape
    for j in range(cols):
        v = q[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= np.vdot(q[:, i], v) * q[:, i]
        norm = frob_norm(v)
        if norm < GRAM_SCHMIDT_TOL:
            raise NumericError("Gram-Schmidt hit a numerically dependent column")
        q[:, j] = v / norm
    return q


def random_channel(dim: int, kraus_count: int, seed) -> KrausChannel:
    """Slice a random isometry from dim to dim*kraus_count into Kraus blocks."""
    _check_int("dim", dim, 1)
    _check_int("kraus_count", kraus_count, 1)
    return _channels(_as_rng(seed).complex_matrix(dim * kraus_count, dim)[None], kraus_count)[0]


def _channels(blocks: np.ndarray, kraus: int) -> list[KrausChannel]:
    """The channel of each ``(d * kraus, d)`` block of normals, one completeness check for all."""
    dim = blocks.shape[-1]
    isometries = np.array([_gram_schmidt(g) for g in blocks])  # finite and complex by construction
    return _make_channels(isometries.reshape(-1, kraus, dim, dim), ISOMETRY_CPTP_TOL)


def _config_draws(rows: np.ndarray, dim: int, kraus: int) -> list[tuple]:
    """One config's ``(phi, psi, k, l, a, b)`` per row of normals that follow a state, as
    ``random_channel`` twice and ``random_operator`` four times draw them from the row."""
    n = dim * dim * kraus
    channels = _channels(rows[:, :2 * n].reshape(-1, dim * kraus, dim), kraus)
    ops = rows[:, 2 * n:2 * n + 4 * dim * dim].reshape(-1, 4, dim, dim)
    herm = 0.5 * (ops[:, 2:] + dagger(ops[:, 2:]))
    return list(zip(channels[0::2], channels[1::2], ops[:, 0], ops[:, 1], herm[:, 0], herm[:, 1]))


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one verification sweep."""

    dim: int
    kraus_count: int
    rank: int
    seed: int
    trials: int

    def __post_init__(self):
        _check_int("dim", self.dim, 2, 8)
        _check_int("kraus_count", self.kraus_count, 1)
        _check_int("rank", self.rank, 1, self.dim)
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed)


@dataclass(frozen=True)
class Violation:
    bound_name: str
    seed: int
    slack: float


@dataclass
class VerificationReport:
    """Outcome of a verification sweep; deterministic apart from ``elapsed``."""

    trials_run: int
    violations: list[Violation]
    min_slack_per_bound: dict[str, float]
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "violations": [
                {"bound": v.bound_name, "seed": v.seed, "slack": v.slack}
                for v in self.violations
            ],
            "min_slack_per_bound": dict(self.min_slack_per_bound),
            "elapsed_seconds": self.elapsed,
        }


def _chunk_relations(rhos: list[DensityMatrix], trials: list[list[tuple]]) -> np.ndarray:
    """The ``(len(BOUND_NAMES), 2, T, C)`` array of (lhs, bound), names in ``BOUND_NAMES``
    order, over a chunk of T trials of C configs: ``rhos[t]`` is trial t's state and
    ``trials[t][j]`` config j's ``(phi, psi, k, l, a, b)`` under it. Each entry has the
    bits of that trial alone, from one measure and one term pass over the configs' 2 C
    zipped records, one report per config on its record pair, and one pass of the
    operator-level relations over all ``(T, 4 C, d, d)`` operators."""
    states = _stack_states(rhos)
    records = [_side(states, side) for j in range(len(trials[0]))
               for side in zip(*(row[j][:2] for row in trials))]
    _measure_all(records)
    _operator_terms(records)
    reports = [bound_report(states, e, f, check=False).relations()
               for e, f in zip(records[0::2], records[1::2])]
    # the report's six channel bounds lead BOUND_NAMES: (C, 6, 2, T) to (6, 2, T, C)
    channel_level = np.moveaxis(np.array([[r[name] for name in BOUND_NAMES[:6]]
                                          for r in reports]), 0, -1)

    # a, b are exactly Hermitian (random_operator), so sym_abs_variance is abs_variance to the
    # bit and the Schrodinger terms give the bits of heisenberg_bound, schrodinger_bound and
    # luo_bound; under the state stack the public measures take the stack unchecked (_operand)
    quads = np.array([[item[2:] for item in row] for row in trials])  # (T, C, 4, d, d)
    ops = quads.reshape(len(quads), -1, *quads.shape[-2:])
    v = sym_abs_variance(states, ops)
    u = _u_from(v, mwy_skew_info(states, ops))
    (vk, vl, va, vb), (uk, ul, ua, ub) = (np.moveaxis(x.reshape(quads.shape[:3]), -1, 0)
                                          for x in (v, u))
    k, l, a, b = np.moveaxis(quads, 2, 0)
    comm, anti = _schrodinger_terms(states, a, b)
    dou_comm, brackets, u_comm = dou_bounds(states, k, l)
    return np.concatenate([channel_level, [  # the operator-level rows, in BOUND_NAMES order
        (va * vb, comm), (va * vb, comm + anti), (ua * ub, comm),
        (vk * vl, dou_comm), (vk * vl, brackets), (uk * ul, u_comm)]])


def _replayed(trial_seed: int, rho: DensityMatrix, item: tuple) -> np.ndarray:
    """One (trial seed, config) as a chunk of one, a ``NumericError`` naming the seed."""
    try:
        return _chunk_relations([rho], [[item]])
    except NumericError as exc:
        raise NumericError(f"trial seed {trial_seed}: {exc}") from exc


def verify_suite(*configs: EnsembleConfig, broken_bound: str | None = None
                 ) -> VerificationReport:
    """Sweep random (state, channel, channel) triples through every bound.

    The configs share one report, as if they had run one after another in
    the order given: trials add up, violations are listed config by config,
    each in the order found, and each bound's minimum slack is taken over
    every trial. Trial t of a config draws everything from one SplitMix64
    stream seeded with ``config.seed + t``, so trials are independently
    reproducible. Configs of equal dim, rank, seed and trials share that
    stream's state, so they form a group: per trial seed one state, then each
    config's two channels, general operator pair and Hermitian observable
    pair, drawn from right after the state. A group's trial seeds run in
    chunks of consecutive seeds, ``_CHUNK_ENTRIES`` Kraus-operator entries of
    all its configs at most (one trial at least): one block of normals,
    then stacked passes (see the module docstring). A failing draw raises what
    drawing seed-major (trial seed, then config, phi before psi) meets first;
    a chunk whose passes raise ``NumericError`` is run again one (trial seed,
    config) at a time, in seed-major order, and the first failure raises,
    naming its trial seed. Any slack below -SLACK_TOL is a violation, kept with its seed.
    """
    if not configs:
        raise ValueError("verify_suite needs at least one EnsembleConfig")
    if broken_bound is not None and broken_bound not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {broken_bound!r}")
    start = time.perf_counter()
    groups: dict[tuple, list[int]] = {}  # positions sharing a stream; a repeat is in twice
    for i, c in enumerate(configs):
        # Python ints: numpy integers near 2^64 would wrap in seed + trials, first + size
        groups.setdefault(tuple(map(int, (c.dim, c.rank, c.seed, c.trials))), []).append(i)
    violations: list[list[Violation]] = [[] for _ in configs]
    min_slack = [dict.fromkeys(BOUND_NAMES, math.inf) for _ in configs]
    for (dim, rank, seed, trials), members in groups.items():
        # per trial seed, one row: a state, then per config two channels and four operators
        counts = [int(configs[i].kraus_count) for i in members]  # Python ints: no uint8 wraps
        draws = dim * rank + 2 * dim * dim * max(counts) + 4 * dim * dim
        size = max(1, _CHUNK_ENTRIES // (sum(counts) * dim * dim))
        for first in range(seed, seed + trials, size):
            seeds = range(first, min(first + size, seed + trials))
            rows = _normals(seeds, draws)  # every config draws from right after the state
            try:
                rhos = [random_density(dim, rank, SplitMix64(*trial)) for trial in zip(seeds, rows)]
                items = list(zip(*(_config_draws(rows[:, dim * rank:], dim, k) for k in counts)))
            except ChanuqError:  # raise the seed-major draws' first failure, one draw at a time
                for trial_seed, row in zip(seeds, rows):
                    random_density(dim, rank, SplitMix64(trial_seed, row))
                    for k in counts:
                        for block in row[dim * rank:][:2 * dim * dim * k].reshape(2, 1, -1, dim):
                            _channels(block, k)
                raise
            try:
                lhs, bound = _chunk_relations(rhos, items).swapaxes(0, 1)
            except NumericError:  # a chunk of one per (trial seed, config), to name the seed
                lhs, bound = np.block([[_replayed(*trial[:2], item) for item in trial[2]]
                                       for trial in zip(seeds, rhos, items)]).swapaxes(0, 1)
            if broken_bound is not None:
                # self-test hook: inflate one bound tenfold to prove the detector fires
                bound[BOUND_NAMES.index(broken_bound)] *= 10.0
            # per config, per trial, per name: each config's minima and violations in
            # trial order, with min's strict < (the first of equal slacks stays)
            for i, rows in zip(members, (lhs - bound).T.tolist()):
                for trial_seed, slacks in zip(seeds, rows):
                    for name, slack in zip(BOUND_NAMES, slacks):
                        if slack < min_slack[i][name]:
                            min_slack[i][name] = slack
                        if slack < -SLACK_TOL:
                            violations[i].append(Violation(name, trial_seed, slack))
    return VerificationReport(
        trials_run=sum(config.trials for config in configs),
        violations=[v for found in violations for v in found],
        # min keeps the first of equal values (strict <), so a zero keeps its sign
        min_slack_per_bound={name: float(min(m[name] for m in min_slack))
                             for name in BOUND_NAMES},
        elapsed=time.perf_counter() - start,
    )
