"""The chanuq benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout; stdlib only, nothing to build):

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload compute-large --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Untraced runs (``--trace 0``) start ``SETUPS`` fresh single-threaded worker
processes one after another; each sets up, runs one untimed warm-up op and
then measures for ``seconds / SETUPS``. The loop is closed: one caller, the
next op starts when the previous one returned. Every time is scaled to the
nominal speed of a reference kernel timed next to it (``speed.py``), so
slowdowns imposed by other tenants of the machine cancel out; the unscaled
figures are kept in the result file. Reported per run:

* ``setup_s``     median over workers of launch to end of the warm-up op;
* ``items_per_s`` trials, CSV rows or triples of passing ops per second of
                  CLI time (the timed region holds only the CLI call);
* ``op_p50_ms``, ``op_p90_ms`` op latency over all workers' ops;
* ``peak_rss_mb`` median over workers of the maximum resident set size; it
                  includes the harness (oracles, output checks, reference
                  kernel); the result file adds the figure after the warm-up op.

A traced run (``--trace 1``) uses one worker that alternates untraced and
traced passes over a fixed op list and reports per-layer metrics (see
``spans.py``); the spans of its first traced pass go to ``perfbench/out/``.
Every op's output is checked outside the timed region; a failed check, a
nonzero exit or an exception counts the op as failed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The full result, with machine facts and provenance, goes to
``perfbench/out/``. ``--self-test`` injects bad ops into every workload and
exits nonzero unless each one is counted as failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
REQUIRED = (ROOT / "src" / "chanuq" / "__init__.py", ROOT / "tests" / "oracles.py")

SETUPS = 5
WORKER_GRACE_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# workers inherit the environment; numpy, imported below, reads these at import
os.environ.update({name: "1" for name in THREAD_VARS})
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (benchmark-local module)


class WorkerError(RuntimeError):
    pass


def launch(cfg: dict, timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (setup seconds, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker for {cfg['workload']} exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for pkg in ("numpy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "blas_threads": {name: os.environ[name] for name in THREAD_VARS}}


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure_run(wl, seed: int, seconds: float) -> dict:
    per_worker = seconds / SETUPS
    setups, wall_setups, results = [], [], []
    for k in range(SETUPS):
        cfg = {"mode": "measure", "workload": wl.name, "seed": seed, "worker": k,
               "seconds": per_worker, "tmp_root": str(OUT)}
        setup_s, result = launch(cfg, per_worker + WORKER_GRACE_S)
        setups.append((setup_s - result["setup_overhead_s"]) * result["setup_factor"])
        wall_setups.append(setup_s)
        results.append(result)
    latencies = [x for r in results for x in r["latencies_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": (sum(r["items"] for r in results)
                        / sum(r["op_seconds"] for r in results)),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": _p90(latencies),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    rss_warm = statistics.median(r["rss_after_warmup_mb"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "values": values,
        "samples": {"op_latency": len(latencies), "setup": len(setups)},
        "ops_failed_ratio": failed / attempted,
        "rss_after_warmup_mb": rss_warm,
        "setup_s_each": setups,
        "wall_setup_s_each": wall_setups,
        "op_latencies_ms": latencies,
        "wall": _wall_summary(results, wall_setups),
        "failure_reasons": [reason for r in results for reason in r["failure_reasons"]],
        "params": results[0]["params"], "numpy_blas": results[0]["numpy_blas"],
        "workers": SETUPS, "seconds_per_worker": per_worker,
    }


def _wall_summary(results: list, wall_setups: list) -> dict:
    """The same statistics from unscaled wall times, for reference."""
    wall = [x for r in results for x in r["wall_latencies_ms"]]
    refs = [x for r in results for x in r["reference_ms"]]
    return {"setup_s": statistics.median(wall_setups),
            "op_p50_ms": statistics.median(wall),
            "op_p90_ms": _p90(wall),
            "reference_ms_p50": statistics.median(refs)}


def trace_run(wl, seed: int, seconds: float) -> dict:
    cfg = {"mode": "trace", "workload": wl.name, "seed": seed, "worker": 0,
           "seconds": seconds, "tmp_root": str(OUT),
           "spans_path": str(OUT / f"spans-{wl.name}-seed{seed}.jsonl")}
    _, result = launch(cfg, seconds + WORKER_GRACE_S)
    for problem in result["problems"]:
        print(f"trace check failed: {problem}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "values": result["per_layer"],
        "trace_problems": result["problems"], "passes": result["passes"],
        "ops_per_pass": result["ops_per_pass"], "items_per_pass": result["items_per_pass"],
        "missing_functions": result["missing_functions"], "counts": result["counts"],
        "ops_failed_ratio": result["failed"] / result["attempted"],
        "failure_reasons": result["failure_reasons"],
        "params": result["params"], "numpy_blas": result["numpy_blas"],
        "spans_file": str(Path(cfg["spans_path"]).relative_to(ROOT)),
    }


def self_test() -> int:
    """Inject bad ops into every workload; each must be counted as failed."""
    ok = True
    for name in WORKLOADS:
        cfg = {"mode": "measure", "workload": name, "seed": 7, "worker": 0,
               "seconds": 2.0, "tmp_root": str(OUT), "inject_every": 2}
        _, r = launch(cfg, 2.0 + WORKER_GRACE_S)
        injected = r["injected_ops"]
        passed = bool(injected) and r["failed_ops"] == injected
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: injected {len(injected)} bad ops, "
              f"counted {r['failed']} failed of {r['attempted']} attempted "
              f"({r['failure_reasons'][:1]})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that injected bad ops are counted as failed")
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    try:
        if args.self_test:
            return self_test()
        wl = WORKLOADS[args.workload]
        run = trace_run if args.trace else measure_run
        result = run(wl, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result["metrics"] = {name: {"value": v, "unit": units[name]}
                         for name, v in result.pop("values").items()}
    why = next(w["why"] for w in bench["workloads"] if w["name"] == wl.name)
    doc = {"workload": wl.name, "why": why, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "machine": machine_facts(),
           **result}
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(ops_failed_ratio {result['ops_failed_ratio']:.4g})")
    for reason in result["failure_reasons"]:
        print(f"#   failed {reason}")
    if not args.trace:
        n = result["samples"]["op_latency"]
        notes = {"setup_s": f"median of {SETUPS} workers", "op_p50_ms": f"n={n}",
                 "op_p90_ms": f"n={n}", "peak_rss_mb": f"median of {SETUPS} workers"}
        for name, m in result["metrics"].items():
            print(f"#   {name:<12} {m['value']:>12.5g} {m['unit']:<4} {notes.get(name, '')}")
        wall = ", ".join(f"{k} {v:.5g}" for k, v in result["wall"].items())
        print(f"#   unscaled: {wall}")
    print(f"# full result: {path.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
