"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import chanuq.bounds
import chanuq.cli
import chanuq.ensembles
import chanuq.errors
from chanuq.bounds import bound_report
from chanuq.cli import ERROR_EXITS, SWEEP_COLUMNS, cli
from chanuq.ensembles import SplitMix64, random_channel, random_density
from chanuq.examples import (CLOSED_FORM_THETA, channel_E, channel_F, closed_forms,
                             example_state, werner_state)
from chanuq.measures import channel_measures
from chanuq.objects import channel_to_json, make_channel, make_density, state_to_json

import oracles


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixtures(tmp_path):
    """Write a small corpus of state/channel JSON files."""
    paths = {}

    def dump(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)

    dump("mixed2.json", state_to_json(make_density(np.eye(2) / 2)))
    dump("werner1.json", state_to_json(werner_state(1.0)))
    dump("identity4.json", channel_to_json(make_channel([np.eye(4)])))
    dump("e_full.json", channel_to_json(channel_E(1.0)))
    dump("f_full.json", channel_to_json(channel_F(1.0)))
    dump("identity2.json", channel_to_json(make_channel([np.eye(2)])))

    bad_state = state_to_json(make_density(np.eye(2) / 2))
    bad_state["matrix"][0][0] = [1.0, 0.0]
    bad_state["matrix"][1][1] = [1.0, 0.0]  # trace 2
    dump("trace2.json", bad_state)

    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    paths["broken.json"] = str(tmp_path / "broken.json")
    return paths


def test_compute_identity_channels_all_zero(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["werner1.json"],
                                 "--channel-a", fixtures["identity4.json"],
                                 "--channel-b", fixtures["identity4.json"]])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for key in ("lhs_product_v", "lhs_product_u", "lhs_sum_u2", "thm1", "thm2",
                "thm3", "thm4", "lb_eq13", "lb1_eq14"):
        assert doc[key] == 0
    assert doc["n_common"] == 1


def test_compute_example_corner(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["werner1.json"],
                                 "--channel-a", fixtures["e_full.json"],
                                 "--channel-b", fixtures["f_full.json"]])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["thm3"] == pytest.approx(np.sqrt(195) / 72, abs=1e-9)
    assert doc["lb1_eq14"] == pytest.approx(5 / 72, abs=1e-9)
    assert doc["thm4"] == pytest.approx(5 / 36, abs=1e-9)


def test_compute_malformed_json_exits_2(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["broken.json"],
                                 "--channel-a", fixtures["identity2.json"],
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 2


@pytest.mark.parametrize("target, payload", [
    ("state", b"\xff"),
    ("channel", json.dumps({**channel_to_json(make_channel([np.eye(2)])),
                            "kruas": []}).encode()),
], ids=["non-utf8-state", "unknown-key-channel"])
def test_compute_unreadable_document_exits_2(runner, fixtures, tmp_path, target, payload):
    path = tmp_path / "doc.json"
    path.write_bytes(payload)
    files = {"state": fixtures["mixed2.json"], "channel": fixtures["identity2.json"]}
    files[target] = str(path)
    result = runner.invoke(cli, ["compute", "--state", files["state"],
                                 "--channel-a", files["channel"],
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 2
    assert result.stderr.startswith("parse error:")


@pytest.mark.parametrize("depth", [3_000, 100_000])
def test_compute_overdeep_json_exits_2(runner, fixtures, tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    result = runner.invoke(cli, ["compute", "--state", str(path),
                                 "--channel-a", fixtures["identity2.json"],
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 2
    assert result.stderr.startswith("parse error:")


@pytest.mark.parametrize("target, value", [
    ("state", float("nan")),       # written as the bare token NaN
    ("channel", float("inf")),     # written as the bare token Infinity
    ("channel", -float("inf")),
    ("state", 10 ** 400),          # an integer beyond float range
], ids=["nan-state", "inf-channel", "neg-inf-channel", "huge-int-state"])
def test_compute_non_finite_entry_exits_2(runner, fixtures, tmp_path, target, value):
    if target == "state":
        doc = state_to_json(make_density(np.eye(2) / 2))
        doc["matrix"][0][1] = [value, 0.0]
    else:
        doc = channel_to_json(make_channel([np.eye(2)]))
        doc["kraus"][0][1][1] = [1.0, value]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    files = {"state": fixtures["mixed2.json"], "channel": fixtures["identity2.json"]}
    files[target] = str(path)
    result = runner.invoke(cli, ["compute", "--state", files["state"],
                                 "--channel-a", files["channel"],
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 2
    assert "entry (" in result.stderr


def test_compute_validation_failure_exits_3_with_residual(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["trace2.json"],
                                 "--channel-a", fixtures["identity2.json"],
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 3
    assert "trace" in result.stderr
    assert "1" in result.stderr  # the residual itself is printed


def test_compute_overflowing_channel_exits_3(runner, fixtures, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"dim": 2, "kraus": [[[[1e200, 0], [0, 0]],
                                                     [[0, 0], [1, 0]]]]}), encoding="utf-8")
    result = runner.invoke(cli, ["compute", "--state", fixtures["mixed2.json"],
                                 "--channel-a", str(path),
                                 "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 3
    assert "validation error" in result.stderr


def test_compute_nan_trace_state_exits_3(runner, tmp_path):
    diag = [1e308, -1e308] + [0.0] * 6 + [1e308, -1e308] + [0.0] * 6
    matrix = [[[diag[i] if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
    state = tmp_path / "nan_trace.json"
    state.write_text(json.dumps({"dim": 16, "matrix": matrix}), encoding="utf-8")
    identity = tmp_path / "identity16.json"
    identity.write_text(json.dumps(channel_to_json(make_channel([np.eye(16)]))),
                        encoding="utf-8")
    result = runner.invoke(cli, ["compute", "--state", str(state),
                                 "--channel-a", str(identity), "--channel-b", str(identity)])
    assert result.exit_code == 3
    assert result.stderr == "validation error: trace differs from 1 by nan\n"


@pytest.mark.parametrize("pair", [[1e308, 0], [1e308, 1e308], [1.7e308, -1.7e308], [1e154, 0]],
                         ids=["1e308", "1e308-complex", "beyond-range", "1e154"])
def test_compute_state_near_the_double_limit_exits_3(runner, fixtures, tmp_path, pair):
    # finite, Hermitian and of unit trace, with eigenvalues 0.5 +- |x|: no state
    x, y = pair
    state = tmp_path / "near_limit.json"
    state.write_text(json.dumps({"dim": 2, "matrix": [[[0.5, 0], [x, y]],
                                                      [[x, -y], [0.5, 0]]]}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli, ["compute", "--state", str(state),
                                     "--channel-a", fixtures["identity2.json"],
                                     "--channel-b", fixtures["identity2.json"]])
    assert result.exit_code == 3
    assert result.stderr.startswith("validation error:")
    assert "Warning" not in result.stderr


HUGE = (1e154, 1.4e154, 1e200, 1e300, 9e307, 1e308, 1.7e308)
ODD_ENTRIES = ([5e-324, 0], [1e308, 0], [-1e308, 5e-324], [True, 0], ["0.5", 0], [1], [1, 2, 3],
               None, {}, "x", [10 ** 400, 0], [0, -(10 ** 400)])


def _mutate(docs, others, rng):
    """Apply one seeded mutation to one of the ``compute`` documents in place;
    ``others`` holds valid triples to draw replacement documents from."""
    name = ("state", "channel-a", "channel-b")[rng.integers(3)]
    doc = docs[name]
    mats = [doc["matrix"]] if name == "state" else doc["kraus"]
    m = mats[rng.integers(len(mats))]
    d = len(m)
    i, j = (int(x) for x in rng.integers(d, size=2))
    kind = int(rng.integers(10))
    if kind < 3:  # a Hermitian pair of huge values at (i, j) and (j, i)
        x = float(rng.choice(HUGE)) * rng.choice([-1.0, 1.0])
        y = 0.0 if i == j else float(rng.choice(HUGE + (0.0,))) * rng.choice([-1.0, 1.0])
        m[i][j], m[j][i] = [x, y], [x, -y]
    elif kind == 3:
        m[i][j] = ODD_ENTRIES[rng.integers(len(ODD_ENTRIES))]
    elif kind == 4:
        (m if rng.integers(2) else m[i]).pop(j)  # a row or an entry
    elif kind == 5:
        m.insert(i, list(m[i]))
    elif kind == 6:
        doc["dim"] = (d + 1, d - 1, 0, -1, "2", True, 2.0, None)[rng.integers(8)]
    elif kind == 7:
        docs[name] = ([], {}, {**doc, "extra": 1}, {"dim": d},
                      docs["state" if name != "state" else "channel-a"])[rng.integers(5)]
    elif kind == 8:  # a valid document of another triple, which may differ in dimension
        docs[name] = json.loads(others[rng.integers(len(others))])[name]
    else:  # valid still: the same operators in reverse order, or the keys reordered
        docs[name] = {k: v[::-1] if k == "kraus" else v for k, v in reversed(doc.items())}


def test_compute_input_mutations_map_to_documented_exit_codes(runner, tmp_path):
    # any input mutation exits 0, 2, 3 or 4: never 5 (a verification failure),
    # a traceback or a numpy warning
    rng = np.random.default_rng(2029)
    valid = []
    for seed, (dim, kraus) in enumerate((d, k) for d in (2, 3, 4) for k in (1, 2, 3)):
        g = SplitMix64(seed)
        valid.append(json.dumps({"state": state_to_json(random_density(dim, dim, g)),
                                 "channel-a": channel_to_json(random_channel(dim, kraus, g)),
                                 "channel-b": channel_to_json(random_channel(dim, kraus, g))}))
    faults = []
    for case in range(300):
        docs = json.loads(valid[case % len(valid)])
        _mutate(docs, valid, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, ["compute", *_json_args(tmp_path, docs)])
        if (result.exit_code not in (0, 2, 3, 4)
                or not isinstance(result.exception, (SystemExit, type(None)))):
            faults.append((case, result.exit_code, repr(result.exception), result.stderr))
    assert not faults, faults[:5]

def test_compute_dimension_mismatch_exits_4(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["mixed2.json"],
                                 "--channel-a", fixtures["identity4.json"],
                                 "--channel-b", fixtures["identity4.json"]])
    assert result.exit_code == 4


def test_compute_basis_index_out_of_range_exits_2(runner, fixtures):
    result = runner.invoke(cli, ["compute", "--state", fixtures["werner1.json"],
                                 "--channel-a", fixtures["identity4.json"],
                                 "--channel-b", fixtures["identity4.json"],
                                 "--basis-index", "7"])
    assert result.exit_code == 2


def test_sweep_werner_full_grid(runner, tmp_path):
    out = tmp_path / "grid.csv"
    result = runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "1",
                                 "--grid-steps", "21", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("p,q,u_phi,u_psi,product_u,sum_u2,thm1,thm2,thm3,"
                        "lb_eq13,lb1_eq14,thm4,closed_thm3,closed_lb,"
                        "closed_lb1,closed_lb2")
    assert len(lines) == 442
    lb_col = lines[0].split(",").index("lb_eq13")
    assert all(row.split(",")[lb_col] == "0" for row in lines[1:])


def test_sweep_byte_determinism(runner, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        result = runner.invoke(cli, ["sweep", "--example", "rho_theta", "--theta", "0",
                                     "--grid-steps", "5", "--out", str(out)])
        assert result.exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_blocks_corner_row(runner, tmp_path):
    out = tmp_path / "corner.csv"
    result = runner.invoke(cli, ["sweep", "--example", "rho_theta", "--theta", "0",
                                 "--grid-steps", "2", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    assert float(last[header.index("p")]) == 1.0
    assert float(last[header.index("q")]) == 1.0
    assert float(last[header.index("lb_eq13")]) == pytest.approx(0.125, abs=1e-12)


def test_sweep_rejects_single_step_grid(runner, tmp_path):
    result = runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "1",
                                 "--grid-steps", "1", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_sweep_unwritable_output_exits_1(runner, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "1",
                                 "--grid-steps", "2", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.startswith("io error: [Errno 2]")


def test_compute_violated_bound_exits_5(runner, fixtures, monkeypatch):
    monkeypatch.setattr(chanuq.bounds, "thm4_bound", lambda rho, phi, psi: 1.0e3)
    result = runner.invoke(cli, ["compute", "--state", fixtures["werner1.json"],
                                 "--channel-a", fixtures["e_full.json"],
                                 "--channel-b", fixtures["f_full.json"]])
    assert result.exit_code == 5
    assert "thm4_bound" in result.stderr


@pytest.mark.parametrize("error, label, code", [
    (chanuq.errors.SchemaError("x"), "parse error", 2),
    (json.JSONDecodeError("x", "", 0), "parse error", 2),
    (IndexError("x"), "parameter error", 2),
    (chanuq.errors.NotHermitianError(1.0), "validation error", 3),
    (chanuq.errors.DimensionMismatchError("x"), "dimension error", 4),
    (chanuq.errors.BoundViolationError("thm1", 0.0, 1.0), "verification failure", 5),
    (chanuq.errors.NumericError("x"), "verification failure", 5),
    (chanuq.errors.ChanuqError("x"), "error", 3),
    (OSError("x"), "io error", 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_raised_in_a_command_maps_to_its_exit_code(runner, fixtures, monkeypatch,
                                                        error, label, code):
    # one error of each row of the exit-code table; a bare ChanuqError takes the
    # catch-all row, after every more specific one
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(chanuq.cli, "bound_report", fail)
    result = runner.invoke(cli, ["compute", "--state", fixtures["werner1.json"],
                                 "--channel-a", fixtures["e_full.json"],
                                 "--channel-b", fixtures["f_full.json"]])
    assert result.exit_code == code
    assert result.stderr == f"{label}: {error}\n"


def test_verify_numeric_error_names_the_trial_seed_and_exits_5(runner, monkeypatch):
    def fail(*args):
        raise chanuq.errors.NumericError("injected")

    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", fail)
    result = runner.invoke(cli, ["verify", "--dim", "2", "--kraus", "1", "--trials", "2",
                                 "--seed", "7"])
    assert result.exit_code == 5
    assert result.stderr == "verification failure: trial seed 7: injected\n"
    assert result.stdout == ""


def _zero_relations(trials) -> np.ndarray:
    """A chunk hook's result for a chunk of trials: every (lhs, bound) 0.0, in the
    (len(BOUND_NAMES), 2, T, C) array a chunk gives."""
    return np.zeros((len(chanuq.ensembles.BOUND_NAMES), 2, len(trials), len(trials[0])))


def test_verify_numeric_error_names_the_earliest_trial_seed_of_its_group(runner, monkeypatch):
    # the Kraus counts of a dim run seed-major: the chunk of all three trial seeds fails,
    # then runs again one (trial seed, config) at a time, and the second config fails at
    # the first trial seed, before the first config's later seeds
    seen = []

    def fail_second(rhos, trials):
        seen.append([len(phi) for row in trials for phi, *_ in row])
        if 2 in seen[-1]:
            raise chanuq.errors.NumericError("injected")
        return _zero_relations(trials)

    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", fail_second)
    result = runner.invoke(cli, ["verify", "--dim", "2", "--kraus", "1", "--kraus", "2",
                                 "--trials", "3", "--seed", "7"])
    assert result.exit_code == 5
    assert result.stderr == "verification failure: trial seed 7: injected\n"
    assert result.stdout == ""
    assert seen == [[1, 2] * 3, [1], [2]]


def _failing_at(faults: dict, dim: int):
    """A chunk hook that raises ``NumericError`` for the (trial seed, Kraus count) pairs in
    ``faults``, naming the pair, and returns zeros otherwise; each trial's seed is found
    from its state, which the seed's stream determines. ``hook.sizes`` lists the number of
    trials of each call."""
    seeds = {random_density(dim, dim, SplitMix64(s)).matrix.tobytes(): s for s, _ in faults}

    def hook(rhos, trials):
        hook.sizes.append(len(rhos))
        for rho, row in zip(rhos, trials):
            for phi, *_ in row:
                key = seeds.get(rho.matrix.tobytes()), len(phi)
                if key in faults:
                    raise chanuq.errors.NumericError(faults[key])
        return _zero_relations(trials)
    hook.sizes = []
    return hook


def test_verify_numeric_error_in_a_later_chunk_names_its_trial_seed(runner, monkeypatch):
    # d=8, Kraus 5: the trials run in chunks of `size` seeds; a fault in the second chunk
    # is named by its own trial seed, after the first chunk ran clean
    size = chanuq.ensembles._CHUNK_ENTRIES // (5 * 8 * 8)
    bad = 40 + size + 1
    hook = _failing_at({(bad, 5): "injected"}, 8)
    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", hook)
    result = runner.invoke(cli, ["verify", "--dim", "8", "--kraus", "5",
                                 "--trials", str(size + 3), "--seed", "40"])
    assert result.exit_code == 5
    assert result.stderr == f"verification failure: trial seed {bad}: injected\n"
    assert result.stdout == ""
    assert hook.sizes == [size, 3, 1, 1]  # both chunks, then the second one seed by seed


@pytest.mark.parametrize("first", [1, 2])
def test_verify_numeric_errors_of_two_configs_in_one_chunk_name_the_earlier_seed(
        runner, monkeypatch, first):
    # two configs of a chunk fail at different trial seeds; the report names the earlier
    # seed, whichever config fails there, as trials run one after another would
    faults = {(8, first): f"config {first}", (9, 3 - first): f"config {3 - first}"}
    monkeypatch.setattr(chanuq.ensembles, "_chunk_relations", _failing_at(faults, 2))
    result = runner.invoke(cli, ["verify", "--dim", "2", "--kraus", "1", "--kraus", "2",
                                 "--trials", "4", "--seed", "7"])
    assert result.exit_code == 5
    assert result.stderr == f"verification failure: trial seed 8: config {first}\n"
    assert result.stdout == ""


def test_sweep_noncanonical_theta_leaves_closed_columns_empty(runner, tmp_path):
    out = tmp_path / "nc.csv"
    result = runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "0.5",
                                 "--grid-steps", "2", "--out", str(out)])
    assert result.exit_code == 0
    for row in out.read_text(encoding="utf-8").splitlines()[1:]:
        assert row.endswith(",,,,")


def test_sweep_matches_direct_evaluation(runner, tmp_path):
    out = tmp_path / "check.csv"
    runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "1",
                        "--grid-steps", "3", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")  # p = q = 1
    rho = oracles.werner_matrix(1.0)
    es, fs = oracles.e_kraus(1.0), oracles.f_kraus(1.0)
    assert float(row[header.index("thm3")]) == pytest.approx(
        oracles.thm3(rho, es, fs), abs=1e-12)
    assert float(row[header.index("thm4")]) == pytest.approx(
        oracles.thm4(rho, es, fs), abs=1e-12)
    assert float(row[header.index("lb1_eq14")]) == pytest.approx(
        oracles.lb14(rho, es, fs), abs=1e-12)


def test_verify_clean_run_and_determinism(runner):
    args = ["verify", "--dim", "2", "--kraus", "2", "--trials", "10", "--seed", "3"]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.exit_code == 0
    doc_a = json.loads(first.output)
    doc_b = json.loads(second.output)
    assert doc_a["violations"] == []
    doc_a.pop("elapsed_seconds")
    doc_b.pop("elapsed_seconds")
    assert doc_a == doc_b


def test_verify_multi_dim_aggregation(runner):
    result = runner.invoke(cli, ["verify", "--dim", "2", "--dim", "3",
                                 "--kraus", "1", "--trials", "5", "--seed", "1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["trials_run"] == 10


def test_verify_self_test_exits_5(runner):
    result = runner.invoke(cli, ["verify", "--dim", "2", "--kraus", "2",
                                 "--trials", "10", "--seed", "3", "--self-test"])
    assert result.exit_code == 5
    doc = json.loads(result.output)
    assert doc["violations"]


GOLDEN = Path(__file__).parent / "golden"
# verify over four (dim, kraus) configs: RNG streams, slack digits, violation order and the
# aggregation across configs; at the largest shape, over trial seeds that wrap past 2^64
# to 0; and at d = 5 and 8, where a trace sums 8 diagonal entries through numpy's pairwise
# summation
VERIFY_GOLDEN_ARGS = ["verify", "--dim", "2", "--dim", "3", "--kraus", "1", "--kraus", "3",
                      "--trials", "4", "--seed", "11"]
VERIFY_WRAP_ARGS = ["verify", "--dim", "8", "--kraus", "5", "--trials", "3",
                    "--seed", str(2 ** 64 - 2)]
VERIFY_LARGE_ARGS = ["verify", "--dim", "5", "--dim", "8", "--kraus", "2", "--kraus", "5",
                     "--trials", "6", "--seed", "13"]
# sweeps and examples at two canonical thetas (closed forms filled) and one that is not
SWEEP_GOLDENS = {
    "sweep_werner_1.csv": ["--example", "werner", "--theta", "1"],
    "sweep_rho_theta_0.csv": ["--example", "rho_theta", "--theta", "0"],
    "sweep_werner_0.3.csv": ["--example", "werner", "--theta", "0.3"],
}
EXAMPLE_GOLDENS = {
    "example_werner_1_basis0.json": ["--example", "werner", "--theta", "1",
                                     "--p", "0.25", "--q", "0.6"],
    "example_rho_theta_0_basis2.json": ["--example", "rho_theta", "--theta", "0",
                                        "--p", "1", "--q", "1", "--basis-index", "2"],
    "example_werner_0.3.json": ["--example", "werner", "--theta", "0.3",
                                "--p", "0.5", "--q", "0.95"],
}


def _json_args(tmp_path, docs: dict) -> list:
    """The ``compute`` options naming ``docs``, each written as a JSON file."""
    args = []
    for option, doc in docs.items():
        path = tmp_path / f"{option}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args += [f"--{option}", str(path)]
    return args


def _triple_args(tmp_path, seed: int, dim: int, kraus: int) -> list:
    """The ``compute`` options of a full-rank state and two channels drawn from
    one SplitMix64 stream, written as JSON files."""
    rng = SplitMix64(seed)
    return _json_args(tmp_path, {"state": state_to_json(random_density(dim, dim, rng)),
                                 "channel-a": channel_to_json(random_channel(dim, kraus, rng)),
                                 "channel-b": channel_to_json(random_channel(dim, kraus, rng))})


STATE_1 = {"dim": 1, "matrix": [[[1, 0]]]}
IDENTITY_2 = channel_to_json(make_channel([np.eye(2)]))

#: Each golden file, and an input for each of exit codes 1-4 named by its ERROR_EXITS label,
#: with its exit code and chanuq arguments. In the arguments "{tmp}" is the test's temporary
#: directory (a sweep writes {tmp}/out.csv), a (seed, dim, kraus) tuple stands for
#: _triple_args' options (d = 16, k = 16 is the shape of the large benchmark workload), and
#: a dict for _json_args' options of its documents.
PROCESS_RUNS = {
    "verify_small.txt": (0, VERIFY_GOLDEN_ARGS),
    "verify_small_self_test.txt": (5, [*VERIFY_GOLDEN_ARGS, "--self-test"]),
    "verify_wrap.txt": (0, VERIFY_WRAP_ARGS),
    "verify_d5_d8.txt": (0, VERIFY_LARGE_ARGS),
    **{golden: (0, ["sweep", *args, "--grid-steps", "5", "--out", "{tmp}/out.csv"])
       for golden, args in SWEEP_GOLDENS.items()},
    **{golden: (0, ["example", *args]) for golden, args in EXAMPLE_GOLDENS.items()},
    "compute_d4_k3_basis0.json": (0, ["compute", (2027, 4, 3), "--basis-index", "0"]),
    "compute_d4_k3_basis3.json": (0, ["compute", (2027, 4, 3), "--basis-index", "3"]),
    "compute_d16_k16.json": (0, ["compute", (1616, 16, 16)]),
    "io error": (1, ["sweep", "--example", "werner", "--theta", "1", "--grid-steps", "2",
                     "--out", "{tmp}/missing/x.csv"]),
    "parse error": (2, ["compute", {"state": [1, 2], "channel-a": IDENTITY_2,
                                    "channel-b": IDENTITY_2}]),
    "validation error": (3, ["compute", {"state": STATE_1,
                                         "channel-a": {"dim": 1, "kraus": [[[[0.5, 0]]]]},
                                         "channel-b": IDENTITY_2}]),
    "dimension error": (4, ["compute", {"state": STATE_1, "channel-a": IDENTITY_2,
                                        "channel-b": IDENTITY_2}]),
}


@pytest.mark.parametrize("case", list(PROCESS_RUNS))
def test_cli_in_its_own_process(tmp_path, case):
    # the documented module entry point in a process of its own, as a user runs it, so
    # that its real exit status and every stderr line are seen: a golden run writes
    # nothing to stderr and its bytes (a sweep's CSV, verify's with elapsed_seconds zeroed)
    # are the golden's; an error exit writes one stderr line, led by its label, and no output
    code, args = PROCESS_RUNS[case]
    argv = []
    for arg in args:
        if isinstance(arg, tuple):
            argv += _triple_args(tmp_path, *arg)
        elif isinstance(arg, dict):
            argv += _json_args(tmp_path, arg)
        else:
            argv.append(arg.replace("{tmp}", str(tmp_path)))
    # the child imports the chanuq tree that this test imported
    path = [str(Path(chanuq.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-m", "chanuq.cli", *argv],
                            capture_output=True, env=env, timeout=300)
    assert result.returncode == code, result.stderr
    if case in {label for _, label, _ in ERROR_EXITS}:
        assert result.stdout == b""
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith(f"{case}: ".encode()), result.stderr
        return
    assert result.stderr == b""
    out = result.stdout
    if args[0] == "sweep":
        out = (tmp_path / "out.csv").read_bytes()
    elif args[0] == "verify":
        out = re.sub(rb'"elapsed_seconds": \S+', b'"elapsed_seconds": 0', out)
    assert out == (GOLDEN / case).read_bytes()


def test_example_incoherent_point(runner):
    result = runner.invoke(cli, ["example", "--example", "werner", "--theta", "0.75",
                                 "--p", "0.5", "--q", "0.5"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["u_phi"] <= 1e-12
    assert doc["u_psi"] <= 1e-12
    assert doc["closed"] is None


def test_example_blocks_corner_closed_value(runner):
    result = runner.invoke(cli, ["example", "--example", "rho_theta", "--theta", "0",
                                 "--p", "1", "--q", "1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["closed"]["thm3_closed"] == pytest.approx(31 / 128, abs=1e-15)
    assert doc["abs_diff"]["thm3"] <= 1e-8
    # the known closed-form lb1 gap at the corner is reported, not hidden
    assert doc["abs_diff"]["lb1_eq14"] == pytest.approx(0.375, abs=1e-9)


def test_example_trivial_first_channel_kills_all_bounds(runner):
    result = runner.invoke(cli, ["example", "--example", "werner", "--theta", "1",
                                 "--p", "0", "--q", "0.9"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for key in ("thm1", "thm2", "thm3", "thm4", "lb_eq13", "lb1_eq14"):
        assert abs(doc["report"][key]) <= 1e-12


@pytest.mark.parametrize("value", ["1.5", "nan", "inf"])
@pytest.mark.parametrize("option", ["--theta", "--p", "--q"])
def test_example_rejects_out_of_range_parameter(runner, option, value):
    # NaN must fail the range check too, not reach the example constructors
    args = {"--theta": "1", "--p": "0", "--q": "0"}
    args[option] = value
    result = runner.invoke(cli, ["example", "--example", "werner",
                                 *(item for pair in args.items() for item in pair)])
    assert result.exit_code == 2


SWEEP_CELLS = {"u_phi": ("u_phi",), "u_psi": ("u_psi",),
               "product_u": ("report", "lhs_product_u"), "sum_u2": ("report", "lhs_sum_u2"),
               **{b: ("report", b) for b in
                  ("thm1", "thm2", "thm3", "lb_eq13", "lb1_eq14", "thm4")},
               "closed_thm3": ("closed", "thm3_closed"), "closed_lb": ("closed", "lb_closed"),
               "closed_lb1": ("closed", "lb1_closed"), "closed_lb2": ("closed", "lb2_closed")}


@pytest.mark.parametrize("basis_index", ["0", "2"])
@pytest.mark.parametrize("golden", sorted(SWEEP_GOLDENS))
def test_example_reports_the_sweep_row_at_every_grid_point(runner, tmp_path, golden,
                                                           basis_index):
    out = tmp_path / golden
    args = [*SWEEP_GOLDENS[golden], "--basis-index", basis_index]
    assert runner.invoke(cli, ["sweep", *args, "--grid-steps", "5",
                               "--out", str(out)]).exit_code == 0
    header, *rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 25
    for row in rows:
        cells = dict(zip(header, row))
        result = runner.invoke(cli, ["example", *args, "--p", cells["p"], "--q", cells["q"]])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        for column, path in SWEEP_CELLS.items():
            value = doc
            for key in path:
                value = None if value is None else value[key]
            text = "" if value is None else format(float(value) + 0.0, ".17g")
            assert text == cells[column], (cells["p"], cells["q"], column)


def test_example_bad_basis_index_exits_2(runner):
    result = runner.invoke(cli, ["example", "--example", "werner", "--theta", "1",
                                 "--p", "0.5", "--q", "0.5", "--basis-index", "9"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "parameter error: basis index 9 out of range for dimension 4\n"


@pytest.mark.parametrize("example_id, theta",
                         [("werner", 1.0), ("rho_theta", 0.0), ("werner", 0.3)])
@pytest.mark.parametrize("basis_index", [0, 2, 3])
def test_grid_points_equal_fresh_reports_in_every_cell(runner, tmp_path, example_id, theta,
                                                       basis_index):
    # the sweep writes its rows from one bound_report call on two channel families;
    # every field must be the 17-digit text of the report on that cell's pair alone,
    # of objects built apart from the sweep's, and every cell of a family report
    # must be that pair's field bit for bit
    steps = 41
    out = tmp_path / "sweep.csv"
    assert runner.invoke(cli, ["sweep", "--example", example_id, "--theta", str(theta),
                               "--grid-steps", str(steps), "--basis-index", str(basis_index),
                               "--out", str(out)]).exit_code == 0
    header, *rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == steps * steps
    grid = np.linspace(0.0, 1.0, steps)
    rho = example_state(example_id, theta)
    phis = [channel_E(float(p)) for p in grid]
    psis = [channel_F(float(q)) for q in grid]
    family = vars(bound_report(rho, [channel_E(float(p)) for p in grid],
                               [channel_F(float(q)) for q in grid], basis_index=basis_index))
    with_closed = theta == CLOSED_FORM_THETA[example_id]
    # each u_abs depends on one grid axis: one fresh lone call per channel, not per cell
    u_phis, u_psis = ([channel_measures(rho, ch).u_abs for ch in chs] for chs in (phis, psis))
    for cell, row in enumerate(rows):
        i, j = divmod(cell, steps)
        pair = bound_report(rho, phis[i], psis[j], basis_index=basis_index)
        closed = closed_forms(example_id, float(grid[i]), float(grid[j])) if with_closed else None
        values = {"p": grid[i], "q": grid[j],
                  "u_phi": u_phis[i], "u_psi": u_psis[j],
                  "product_u": pair.lhs_product_u, "sum_u2": pair.lhs_sum_u2,
                  **{b: getattr(pair, b) for b in
                     ("thm1", "thm2", "thm3", "lb_eq13", "lb1_eq14", "thm4")},
                  **{column: None if closed is None else getattr(closed, path[1])
                     for column, path in SWEEP_CELLS.items() if path[0] == "closed"}}
        assert row == ["" if values[column] is None else format(float(values[column]) + 0.0, ".17g")
                       for column in SWEEP_COLUMNS], (example_id, theta, grid[i], grid[j])
        assert oracles.measure_bits(family["measures"], (i, j)) == oracles.measure_bits(
            pair.measures), cell
        for name, value in vars(pair).items():
            if name != "measures":
                assert (family[name] if name == "n_common" else family[name][i, j]) == value, (
                    cell, name)


def test_sweep_violated_bound_in_two_cells_exits_5_without_csv(runner, tmp_path, monkeypatch):
    # thm4 exceeds its left-hand side in two cells of the sweep's one family call;
    # the sweep reports the first of them in row-major order, as the library does
    original = chanuq.bounds.thm4_bound

    def inflated(rho, phi, psi):
        value = original(rho, phi, psi).copy()
        value[1, 3] = value[3, 0] = 10.0
        return value

    monkeypatch.setattr(chanuq.bounds, "thm4_bound", inflated)
    grid = np.linspace(0.0, 1.0, 5)
    families = (example_state("werner", 1.0), [channel_E(float(p)) for p in grid],
                [channel_F(float(q)) for q in grid])
    with pytest.raises(chanuq.errors.BoundViolationError) as info:
        bound_report(*families)
    assert info.value.lhs == bound_report(*families, check=False).lhs_sum_u2[1, 3]
    assert info.value.bound == 10.0
    out = tmp_path / "sweep.csv"
    result = runner.invoke(cli, ["sweep", "--example", "werner", "--theta", "1",
                                 "--grid-steps", "5", "--out", str(out)])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == f"verification failure: {info.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"a": [1, 2, {"b": None}], "c": {"d": [True, False]}, "e": {}, "f": []},
    {}, [], [[], {}], True, False, None, 0, -7, 2 ** 64 - 2,
    {"naïve": "Φ ⊗ Ψ", "ρ": ["√ρ", 3]},
], ids=["nested", "empty-dict", "empty-list", "empty-nested", "true", "false", "null",
        "zero", "negative", "large-int", "non-ascii"])
def test_dumps_prints_float_free_documents_as_json(doc):
    assert chanuq.cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("x", [0.0, -0.0, 0.1, -1.0 / 3.0, 1e300, 5e-324, 2.5e-310,
                               np.float64(2.0 / 3.0), np.float64(-0.0)],
                         ids=["zero", "negative-zero", "tenth", "third", "large", "min-subnormal",
                              "subnormal", "np-float64", "np-negative-zero"])
def test_dumps_prints_floats_with_17_significant_digits(x):
    # adding 0.0 first prints -0.0 as 0; 17 digits round-trip every double
    expected = "%.17g" % (x + 0.0)
    assert chanuq.cli._dumps(x) == expected
    assert chanuq.cli._dumps({"x": [x]}) == '{\n  "x": [\n    ' + expected + "\n  ]\n}"
    assert float(expected) == x
    assert expected.startswith("-") == (x < 0)
