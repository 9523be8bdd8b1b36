"""The three benchmark workloads: how each op is built and how its output is checked.

An *op* is one ``chanuq`` CLI invocation. Each workload turns the
benchmark seed (and the worker index) into a deterministic stream of
ops, counts the items an op completes (trials, CSV rows or triples),
and checks an op's output against independent references. A check
returns ``None`` when the output is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

SLACK_TOL = 1e-9


@dataclass
class Op:
    args: list[str]
    items: int
    data: object = None      # what the check needs to know about the inputs
    output: str | None = None  # file the op writes, counted into bytes out


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _pairs(m: np.ndarray) -> list:
    """A complex matrix as the CLI's nested ``[re, im]`` lists."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


class VerifyMix:
    """``chanuq verify`` over d in {2,3,4} x k in {1,2,3}; the seed moves on every op."""

    name = "verify-mix"
    dims = (2, 3, 4)
    kraus = (1, 2, 3)
    trials = 2
    traced_groups = ("ensembles.rng", "ensembles.verify_suite", "objects.validate",
                     "linalg.as_matrix", "linalg.spectral", "linalg.brackets",
                     "measures.channel", "measures.operator", "bounds.thm1",
                     "bounds.thm2", "bounds.thm3", "bounds.thm4", "bounds.lb_eq13",
                     "bounds.lb1_eq14", "bounds.observable", "bounds.report", "cli")

    def __init__(self, ctx, seed: int, worker: int):
        self.ctx = ctx
        self.base_seed = seed * 1_000_000 + worker * 100_000
        self.items = self.trials * len(self.dims) * len(self.kraus)

    def params(self) -> dict:
        return {"dims": list(self.dims), "kraus": list(self.kraus),
                "trials_per_combination": self.trials, "trials_per_op": self.items}

    def setup(self) -> None:
        pass

    def op(self, i: int, bad: bool = False) -> Op:
        args = ["verify"]
        args += [a for d in self.dims for a in ("--dim", str(d))]
        args += [a for k in self.kraus for a in ("--kraus", str(k))]
        args += ["--trials", str(self.trials), "--seed", str(self.base_seed + i * self.trials)]
        if bad:
            args.append("--self-test")     # inflates one bound: must exit 5
        return Op(args, self.items)

    def trace_ops(self) -> list[Op]:
        return [self.op(i) for i in range(3)]

    def check(self, op: Op, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(stdout)
        if doc["violations"]:
            return f"{len(doc['violations'])} violations"
        if doc["trials_run"] != op.items:
            return f"trials_run {doc['trials_run']} != {op.items}"
        worst = min(doc["min_slack_per_bound"].values())
        if worst < -SLACK_TOL:
            return f"min slack {worst!r}"
        return None


SWEEP_COLUMNS = ("p", "q", "u_phi", "u_psi", "product_u", "sum_u2",
                 "thm1", "thm2", "thm3", "lb_eq13", "lb1_eq14", "thm4",
                 "closed_thm3", "closed_lb", "closed_lb1", "closed_lb2")
# numeric column -> the closed-form column it must match on the werner family
SWEEP_CLOSED = {"thm3": "closed_thm3", "lb_eq13": "closed_lb",
                "lb1_eq14": "closed_lb1", "thm4": "closed_lb2"}
# bound column -> the left-hand side it must not exceed
SWEEP_LHS = {"thm3": "product_u", "lb_eq13": "product_u",
             "lb1_eq14": "sum_u2", "thm4": "sum_u2"}


class SweepWerner:
    """``chanuq sweep --example werner --theta 1`` over seeded grid sizes."""

    name = "sweep-werner"
    # around the CLI default (21); 41 steps, the roadmap's target size, take
    # about 5 s per op, too long for a worker's share of a run
    grid_steps = (19, 20, 21)
    traced_groups = ("objects.validate", "linalg.as_matrix", "linalg.spectral",
                     "linalg.brackets", "measures.channel", "measures.operator",
                     "bounds.thm1", "bounds.thm2", "bounds.thm3", "bounds.thm4",
                     "bounds.lb_eq13", "bounds.lb1_eq14", "bounds.report",
                     "examples.objects", "examples.closed_forms", "cli")

    def __init__(self, ctx, seed: int, worker: int):
        self.ctx = ctx
        self.rng = random.Random(f"sweep-werner:{seed}:{worker}")
        self.sizes: list[int] = []
        self.path = os.path.join(ctx.tmpdir, "sweep.csv")
        self.rho = ctx.oracles.werner_matrix(1.0)
        self.u_phi: dict[float, float] = {}
        self.u_psi: dict[float, float] = {}

    def params(self) -> dict:
        return {"example": "werner", "theta": 1, "grid_steps": list(self.grid_steps)}

    def setup(self) -> None:
        pass

    def _size(self, i: int) -> int:
        # seeded permutations of the sizes, never the same size twice in a row
        while len(self.sizes) <= i:
            block = list(self.grid_steps)
            self.rng.shuffle(block)
            if self.sizes and block[0] == self.sizes[-1]:
                block.reverse()
            self.sizes += block
        return self.sizes[i]

    def op(self, i: int, bad: bool = False) -> Op:
        g = self._size(i)
        args = ["sweep", "--example", "werner", "--theta", "1",
                "--grid-steps", str(g), "--out", self.path]
        return Op(args, g * g, data={"grid_steps": g, "corrupt": bad}, output=self.path)

    def trace_ops(self) -> list[Op]:
        return [self.op(i) for i in range(len(self.grid_steps))]

    def _oracle_u(self, cache: dict, kraus, x: float) -> float:
        if x not in cache:
            cache[x] = self.ctx.oracles.channel_measures(self.rho, kraus(x))[3]
        return cache[x]

    def check(self, op: Op, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(self.path, "rb") as fh:
            raw = fh.read()
        if op.data["corrupt"]:
            raw = corrupt_csv(raw)
        text = raw.decode("utf-8")
        if not text.endswith("\n"):
            return "missing final newline"
        lines = text[:-1].split("\n")
        if lines[0] != ",".join(SWEEP_COLUMNS):
            return "header differs"
        g = op.data["grid_steps"]
        if len(lines) - 1 != g * g:
            return f"{len(lines) - 1} rows, expected {g * g}"
        grid = np.linspace(0.0, 1.0, g)
        o = self.ctx.oracles
        for idx, line in enumerate(lines[1:]):
            fields = line.split(",")
            if len(fields) != len(SWEEP_COLUMNS):
                return f"row {idx}: {len(fields)} fields"
            row = dict(zip(SWEEP_COLUMNS, map(float, fields)))
            p, q = float(grid[idx // g]), float(grid[idx % g])
            if row["p"] != p or row["q"] != q:
                return f"row {idx}: grid point ({row['p']}, {row['q']}) != ({p}, {q})"
            u_phi = self._oracle_u(self.u_phi, o.e_kraus, p)
            u_psi = self._oracle_u(self.u_psi, o.f_kraus, q)
            expected = {"u_phi": u_phi, "u_psi": u_psi, "product_u": u_phi * u_psi,
                        "sum_u2": u_phi ** 2 + u_psi ** 2}
            for col, want in expected.items():
                if not _close(row[col], want):
                    return f"row {idx}: {col} {row[col]!r} != oracle {want!r}"
            for col, closed in SWEEP_CLOSED.items():
                if abs(row[col] - row[closed]) > 1e-8:
                    return f"row {idx}: {col} {row[col]!r} != {closed} {row[closed]!r}"
            for col, lhs in SWEEP_LHS.items():
                if row[lhs] - row[col] < -SLACK_TOL:
                    return f"row {idx}: {col} exceeds {lhs}"
        return None


def corrupt_csv(raw: bytes) -> bytes:
    """Change one byte: the leading digit of the thm3 value in the middle row."""
    lines = raw.split(b"\n")
    mid = len(lines) // 2
    fields = lines[mid].split(b",")
    col = SWEEP_COLUMNS.index("thm3")
    value = fields[col]
    fields[col] = (b"7" if value[:1] != b"7" else b"3") + value[1:]
    lines[mid] = b",".join(fields)
    return b"\n".join(lines)


BOUND_KEYS = ("thm1", "thm2", "thm3", "lb_eq13", "lb1_eq14", "thm4")


class ComputeLarge:
    """``chanuq compute`` on distinct seeded (rho, Phi, Psi) triples at d=16, k=16."""

    name = "compute-large"
    dim = 16
    kraus = 16
    pool = 8
    traced_groups = ("objects.json_load", "objects.validate", "linalg.as_matrix",
                     "linalg.spectral", "linalg.brackets", "measures.channel",
                     "measures.operator", "bounds.thm1", "bounds.thm2", "bounds.thm3",
                     "bounds.thm4", "bounds.lb_eq13", "bounds.lb1_eq14",
                     "bounds.report", "cli")

    def __init__(self, ctx, seed: int, worker: int):
        self.ctx = ctx
        self.base_seed = seed * 1_000_000 + worker * 10_000
        self.triples: dict[int, dict] = {}     # generated and not yet used

    def params(self) -> dict:
        return {"dim": self.dim, "kraus": self.kraus, "rank": self.dim,
                "triples_generated_in_setup": self.pool}

    def _make_triple(self, j: int) -> dict:
        ens = self.ctx.chanuq.ensembles
        rng = ens.SplitMix64(self.base_seed + j)
        rho = ens.random_density(self.dim, self.dim, rng)
        phi = ens.random_channel(self.dim, self.kraus, rng)
        psi = ens.random_channel(self.dim, self.kraus, rng)
        stem = os.path.join(self.ctx.tmpdir, f"t{j}")
        paths = {"state": stem + "-rho.json", "a": stem + "-phi.json", "b": stem + "-psi.json"}
        _write_json(paths["state"], {"dim": self.dim, "matrix": _pairs(rho.matrix)})
        for key, ch in (("a", phi), ("b", psi)):
            _write_json(paths[key], {"dim": self.dim,
                                     "kraus": [_pairs(e) for e in ch.kraus_ops]})
        return {"paths": paths, "rho": rho.matrix,
                "es": list(phi.kraus_ops), "fs": list(psi.kraus_ops)}

    def _take(self, j: int) -> dict:
        # a used triple is dropped, so memory does not grow with the op count
        triple = self.triples.pop(j, None)
        return triple if triple is not None else self._make_triple(j)

    def setup(self) -> None:
        self.triples = {j: self._make_triple(j) for j in range(self.pool)}

    def op(self, i: int, bad: bool = False) -> Op:
        t = self._take(i)
        channel_a = t["paths"]["a"]
        if bad:
            # a Kraus list scaled by 1.01 is not trace preserving: must exit 3
            channel_a = os.path.join(self.ctx.tmpdir, "bad-phi.json")
            _write_json(channel_a, {"dim": self.dim,
                                    "kraus": [_pairs(1.01 * e) for e in t["es"]]})
        args = ["compute", "--state", t["paths"]["state"],
                "--channel-a", channel_a, "--channel-b", t["paths"]["b"]]
        return Op(args, 1, data=t)

    def trace_ops(self) -> list[Op]:
        return [self.op(j) for j in range(4)]

    def check(self, op: Op, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(stdout)
        for name, slack in doc["slacks"].items():
            if slack < -SLACK_TOL:
                return f"slack {name} = {slack!r}"
        o = self.ctx.oracles
        rho, es, fs = op.data["rho"], op.data["es"], op.data["fs"]
        v_phi, _, _, u_phi = o.channel_measures(rho, es)
        v_psi, _, _, u_psi = o.channel_measures(rho, fs)
        expected = {
            "thm1": o.thm1(rho, es, fs), "thm2": o.thm2(rho, es, fs),
            "thm3": o.thm3(rho, es, fs), "lb_eq13": o.lb13(rho, es, fs),
            "lb1_eq14": o.lb14(rho, es, fs), "thm4": o.thm4(rho, es, fs),
            "lhs_product_v": v_phi * v_psi, "lhs_product_u": u_phi * u_psi,
            "lhs_sum_u2": u_phi ** 2 + u_psi ** 2,
        }
        for key, want in expected.items():
            if not _close(doc[key], want, rel=1e-8):
                return f"{key} {doc[key]!r} != oracle {want!r}"
        if doc["n_common"] != self.kraus:
            return f"n_common {doc['n_common']}"
        return None


WORKLOADS = {w.name: w for w in (VerifyMix, SweepWerner, ComputeLarge)}
