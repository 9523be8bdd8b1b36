"""End-to-end tests of the command-line interface and its exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import chanuq.bounds
from chanuq.cli import cli
from chanuq.ensembles import SplitMix64, random_channel, random_density
from chanuq.examples import channel_E, channel_F, werner_state
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
VERIFY_GOLDEN_ARGS = ["verify", "--dim", "2", "--dim", "3", "--kraus", "1", "--kraus", "3",
                      "--trials", "4", "--seed", "11"]


@pytest.mark.parametrize("extra, code, golden", [
    ([], 0, "verify_small.txt"),
    (["--self-test"], 5, "verify_small_self_test.txt"),
], ids=["clean", "self-test"])
def test_verify_stdout_matches_golden(runner, extra, code, golden):
    # byte-for-byte over four (dim, kraus) configs: RNG streams, slack digits,
    # violation order and the aggregation across configs
    result = runner.invoke(cli, VERIFY_GOLDEN_ARGS + extra)
    assert result.exit_code == code
    stdout = re.sub(r'"elapsed_seconds": \S+', '"elapsed_seconds": 0', result.stdout)
    assert stdout == (GOLDEN / golden).read_text(encoding="utf-8")


SWEEP_GOLDENS = {
    "sweep_werner_1.csv": ["--example", "werner", "--theta", "1"],
    "sweep_rho_theta_0.csv": ["--example", "rho_theta", "--theta", "0"],
    "sweep_werner_0.3.csv": ["--example", "werner", "--theta", "0.3"],
}


@pytest.mark.parametrize("golden", sorted(SWEEP_GOLDENS))
def test_sweep_csv_matches_golden(runner, tmp_path, golden):
    # two canonical thetas (closed columns filled) and one that is not (empty)
    out = tmp_path / golden
    result = runner.invoke(cli, ["sweep", *SWEEP_GOLDENS[golden], "--grid-steps", "5",
                                 "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.fixture
def random_triple(tmp_path):
    """A d=4 state and two k=3 channels drawn from one SplitMix64 stream, as JSON files."""
    rng = SplitMix64(2027)
    docs = {"state": state_to_json(random_density(4, 4, rng)),
            "channel-a": channel_to_json(random_channel(4, 3, rng)),
            "channel-b": channel_to_json(random_channel(4, 3, rng))}
    args = []
    for option, doc in docs.items():
        path = tmp_path / f"{option}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args += [f"--{option}", str(path)]
    return args


@pytest.mark.parametrize("basis_index", [0, 3])
def test_compute_stdout_matches_golden(runner, random_triple, basis_index):
    result = runner.invoke(cli, ["compute", *random_triple,
                                 "--basis-index", str(basis_index)])
    assert result.exit_code == 0
    golden = GOLDEN / f"compute_d4_k3_basis{basis_index}.json"
    assert result.stdout == golden.read_text(encoding="utf-8")


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


EXAMPLE_GOLDENS = {
    "example_werner_1_basis0.json": ["--example", "werner", "--theta", "1",
                                     "--p", "0.25", "--q", "0.6"],
    "example_rho_theta_0_basis2.json": ["--example", "rho_theta", "--theta", "0",
                                        "--p", "1", "--q", "1", "--basis-index", "2"],
    "example_werner_0.3.json": ["--example", "werner", "--theta", "0.3",
                                "--p", "0.5", "--q", "0.95"],
}


@pytest.mark.parametrize("golden", sorted(EXAMPLE_GOLDENS))
def test_example_stdout_matches_golden(runner, golden):
    # two canonical thetas (closed and abs_diff filled) and one that is not (null)
    result = runner.invoke(cli, ["example", *EXAMPLE_GOLDENS[golden]])
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")


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
