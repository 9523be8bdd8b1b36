"""One benchmark worker process: set up a workload, run its ops, report JSON.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``
with BLAS thread variables set to 1. It imports ``chanuq`` from the
checkout's ``src/`` and the oracles from ``tests/oracles.py`` (read only),
prepares the workload's inputs, runs one untimed warm-up op, prints
``ready`` and then either

* ``mode: measure`` -- runs ops until ``seconds`` have passed, timing each
  op (the CLI call only) and checking each output outside the timed
  region; or
* ``mode: trace`` -- repeats a fixed list of ops, alternating an untraced
  pass and a traced pass, until ``seconds`` have passed, and reduces the
  spans of the traced passes to per-layer metrics.

Each op calls the click entry point in-process with stdout captured, so
interpreter start-up stays in set-up time. The last stdout line is the
worker's result as one JSON object.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import speed
from spans import CLI_GROUP, DISTINCT_GROUP, GROUPS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class Context:
    """What a workload needs: the package under test, the oracles and a scratch dir."""

    def __init__(self, tmpdir: str):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import chanuq
        import chanuq.cli
        if not Path(chanuq.__file__).resolve().is_relative_to(src.resolve()):
            raise ImportError(f"chanuq imported from {chanuq.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location("chanuq_oracles",
                                                      ROOT / "tests" / "oracles.py")
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self.chanuq = chanuq
        self.cli = chanuq.cli.cli
        self.tmpdir = tmpdir


def run_op(ctx: Context, op, sampler: speed.Sampler | None = None
           ) -> tuple[float, object, str]:
    """Invoke the CLI once; returns (seconds, exit code or error text, stdout).
    With a ``sampler``, the reference kernel also runs during the op and its
    time is not counted in the op's seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if sampler:
            sampler.start()
        try:
            ctx.cli.main(op.args, prog_name="chanuq", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if sampler:
                sampler.stop()
        elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.spent_s
    return elapsed, code, out.getvalue()


def check_op(wl, op, code, stdout: str) -> str | None:
    try:
        return wl.check(op, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: list[int] = []
        self.reasons: list[str] = []

    def add(self, index: int, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed_ops.append(index)
            if len(self.reasons) < 5:
                self.reasons.append(f"op {index}: {reason}")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failed_ops),
                "failed_ops": self.failed_ops, "failure_reasons": self.reasons}


def measure(ctx: Context, wl, cfg: dict, tally: Tally) -> dict:
    """Run ops until the deadline (when injecting bad ops, at least until two
    have run); each op's time is scaled by the reference kernel's speed just
    before, during and just after it (see ``speed.py``)."""
    inject = cfg.get("inject_every", 0)
    latencies, wall, refs, injected = [], [], [], []
    items, op_seconds = 0, 0.0
    sampler = speed.Sampler()
    ref_before = speed.reference_ms()
    deadline = time.perf_counter() + cfg["seconds"]
    i = 1
    while time.perf_counter() < deadline or i <= 2 * inject:
        bad = bool(inject) and i % inject == 0
        if bad:
            injected.append(i)
        op = wl.op(i, bad=bad)
        elapsed, code, stdout = run_op(ctx, op, sampler)
        ref_after = speed.reference_ms()
        factor = sampler.factor(ref_before, ref_after)
        ref_before = ref_after
        reason = check_op(wl, op, code, stdout)
        tally.add(i, reason)
        wall.append(elapsed * 1e3)
        refs.append(speed.NOMINAL_MS / factor)
        latencies.append(elapsed * 1e3 * factor)
        op_seconds += elapsed * factor
        if reason is None:
            items += op.items
        i += 1
    return {"latencies_ms": latencies, "wall_latencies_ms": wall, "reference_ms": refs,
            "items": items, "op_seconds": op_seconds, "injected_ops": injected}


def _output_bytes(op, stdout: str) -> int:
    size = len(stdout.encode("utf-8"))
    if op.output is not None and os.path.exists(op.output):
        size += os.path.getsize(op.output)
    return size


def run_pass(ctx: Context, wl, ops, tally: Tally, tracer: Tracer | None):
    """Run ``ops`` once; returns (CLI seconds, output bytes, speed scale)."""
    seconds, nbytes = 0.0, 0
    ref_before = speed.reference_ms()
    for op in ops:
        sid = tracer.begin_op() if tracer else None
        elapsed, code, stdout = run_op(ctx, op)
        if tracer:
            tracer.end_op(sid, code == 0)
        nbytes += _output_bytes(op, stdout)
        tally.add(tally.attempted, check_op(wl, op, code, stdout))
        seconds += elapsed
    factor = speed.scale(0.5 * (ref_before + speed.reference_ms()))
    return seconds * factor, nbytes, factor


def trace(ctx: Context, wl, cfg: dict, tally: Tally, spans_path: str | None) -> dict:
    """Alternate untraced and traced passes over a fixed op list; times are
    scaled per pass by the reference kernel run around it."""
    ops = wl.trace_ops()
    items = sum(op.items for op in ops)
    plain, traced, tracers = [], [], []
    self_s = Counter()
    nbytes = 0
    deadline = time.perf_counter() + cfg["seconds"]
    while len(tracers) < 2 or time.perf_counter() < deadline:
        plain.append(run_pass(ctx, wl, ops, tally, None)[0])
        tracer = Tracer()
        tracer.install()
        try:
            seconds, nbytes, factor = run_pass(ctx, wl, ops, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(seconds)
        tracers.append(tracer)
        for group, value in tracer.self_seconds().items():
            self_s[group] += value * factor

    counts = [t.counts() for t in tracers]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes over the same ops")
    for name in tracers[0].missing:
        problems.append(f"{name} not found: spans.GROUPS names a function chanuq lacks")
    calls = tracers[0].calls
    for group in wl.traced_groups:
        if calls[group] == 0:
            problems.append(f"expected group {group} recorded no calls")

    n_items = items * len(tracers)
    metrics = {}
    for group, (_, _, spans) in sorted(GROUPS.items()):
        if spans:
            metrics[f"{group}.self_ms_per_item"] = 1e3 * self_s[group] / n_items
        else:
            metrics[f"{group}.calls_per_item"] = calls[group] / items
        metrics[f"{group}.calls"] = calls[group]
        metrics[f"{group}.errors"] = tracers[0].errors[group]
    channel_calls = calls[DISTINCT_GROUP]
    metrics[f"{DISTINCT_GROUP}.distinct_ratio"] = (
        tracers[0].distinct_inputs / channel_calls if channel_calls else 0.0)
    metrics[f"{CLI_GROUP}.self_ms_per_item"] = 1e3 * self_s[CLI_GROUP] / n_items
    metrics[f"{CLI_GROUP}.calls"] = calls[CLI_GROUP]
    metrics[f"{CLI_GROUP}.errors"] = tracers[0].errors[CLI_GROUP]
    metrics[f"{CLI_GROUP}.bytes_out_per_item"] = nbytes / items
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    if spans_path:
        _write_spans(spans_path, tracers[0])
    return {"per_layer": metrics, "problems": problems, "passes": len(tracers),
            "items_per_pass": items, "ops_per_pass": len(ops),
            "missing_functions": tracers[0].missing, "counts": counts[0]}


def _write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (op_id, group, parent, start, end, ok) in enumerate(tracer.spans):
            fh.write(json.dumps({"op": op_id, "id": sid, "parent": parent, "group": group,
                                 "start": start, "end": end, "ok": ok}) + "\n")


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    cfg = json.loads(sys.argv[1])
    protocol = sys.stdout
    tmpdir = tempfile.mkdtemp(prefix="work-", dir=cfg["tmp_root"])
    try:
        # the reference kernel runs through set-up too; the parent takes its
        # time out of the set-up time it measured and scales the rest
        start = time.perf_counter()
        speed.reference_ms()                   # the kernel's own first run is slow
        ref_before = speed.reference_ms()
        overhead_s = time.perf_counter() - start
        sampler = speed.Sampler()
        sampler.start()
        ctx = Context(tmpdir)
        wl = WORKLOADS[cfg["workload"]](ctx, cfg["seed"], cfg["worker"])
        tally = Tally()
        wl.setup()
        warm = wl.op(0)
        _, code, stdout = run_op(ctx, warm)
        rss_warm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.add(0, check_op(wl, warm, code, stdout))
        sampler.stop()
        start = time.perf_counter()
        ref_after = speed.reference_ms()
        overhead_s += time.perf_counter() - start + sampler.spent_s
        setup_factor = sampler.factor(ref_before, ref_after)
        print("ready", file=protocol, flush=True)

        if cfg["mode"] == "trace":
            result = trace(ctx, wl, cfg, tally, cfg.get("spans_path"))
        else:
            result = measure(ctx, wl, cfg, tally)
        result.update(tally.to_dict())
        result.update({
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rss_after_warmup_mb": rss_warm,
            "setup_overhead_s": overhead_s,
            "setup_factor": setup_factor,
            "params": wl.params(),
            "numpy_blas": _blas_name(),
        })
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
