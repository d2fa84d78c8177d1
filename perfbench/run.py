"""sqlab benchmark: closed-loop workloads, each in fresh processes.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a source checkout (the program is imported from
``src/``). With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
and the tracing overhead against the same operations run plain.
``--quick`` runs three operations of every workload, plain and traced,
with all output checks on, and exits 1 if any check fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("dims", "search_det", "search_rand", "stream")
#: Fresh set-up-only processes per run, half before and half after the timed
#: worker, which adds one more set-up sample.
SETUP_PROBES = 6
#: Calibration samples on each side of an operation that gauge the host's
#: speed at that operation.
CAL_WINDOW = 10
#: Workers are single-threaded: BLAS and OpenMP pools are pinned to one thread.
THREAD_PINS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload: str, seed: int, *extra: str) -> dict:
    """Start a fresh worker; return its final JSON with the set-up figures added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().split()
        wall_s = time.perf_counter() - t0
        tail = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    if len(ready) != 2 or ready[0] != "READY" or code != 0:
        raise RuntimeError(f"worker {workload} exited with code {code} before finishing")
    return {**(json.loads(tail[-1]) if tail else {}), "setup_cpu_s": float(ready[1]), "setup_wall_s": wall_s}


def _check_source() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "sqlab", "__init__.py")):
        sys.stderr.write("perfbench: no sqlab source under src/ in this checkout\n")
        sys.exit(2)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _typical(op_ns: list[float], length: int) -> list[float]:
    """Each operation of the round at its median over the run's rounds."""
    return [statistics.median(op_ns[j::length]) for j in range(length)]


def _scaled(op_ns: list[int], cal_ns: list[int]) -> list[float]:
    """Each operation's CPU time at the reference host's speed.

    The host's speed at operation ``i`` is the median of the calibration
    samples taken after operations ``i - CAL_WINDOW`` to ``i + CAL_WINDOW``.
    """
    ref_ns = calibrate.REFERENCE_MS * 1e6
    return [
        t * ref_ns / statistics.median(cal_ns[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, t in enumerate(op_ns)
    ]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Set-up probes before and after one timed worker, then the metrics.

    Every time is CPU time scaled to the reference host by the calibration
    kernel (``calibrate.py``, README.md). Each operation of the round is
    taken at its median over the run's rounds, so a burst of load from
    outside the benchmark that slows a few operations does not move it:
    ``ops_per_s`` is the round length over the time of one pass over the
    round, and ``op_ms_p50`` the median over the round. ``setup_s`` is the
    median over seven fresh starts. The unscaled CPU and wall figures go to
    the result file.
    """
    probes = [_worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES // 2)]
    run = _worker(workload, seed, "--seconds", str(seconds))
    probes.append(run)
    probes += [_worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    length = run["round_length"]
    scaled = _scaled(run["op_ns"], run["cal_ns"])
    # Set-up probes run within seconds of the timed worker, so the host's
    # speed over the timed run scales them too.
    setup_scale = calibrate.REFERENCE_MS * 1e6 / statistics.median(run["cal_ns"])
    setups = [p["setup_cpu_s"] * setup_scale for p in probes]

    def timings(op_ns: list[float], setup_s: float) -> dict:
        typical = _typical(op_ns, length)
        return {"ops_per_s": length / (sum(typical) / 1e9),
                "op_ms_p50": statistics.median(typical) / 1e6,
                "setup_s": setup_s}

    metrics = timings(scaled, statistics.median(setups))
    wall_ns = run["wall_ns"]
    return {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            "ops_per_s": _metric(metrics["ops_per_s"], "1/s"),
            "op_ms_p50": _metric(metrics["op_ms_p50"], "ms"),
            "setup_s": _metric(metrics["setup_s"], "s"),
            "peak_rss_mb": _metric(run["peak_rss_kb"] / 1024.0, "MB"),
        },
        "detail": {"rounds": run["rounds"],
                   "setup_samples_s": setups,
                   "calibration_ms_p50": statistics.median(run["cal_ns"]) / 1e6,
                   "cpu": timings(run["op_ns"], statistics.median(p["setup_cpu_s"] for p in probes)),
                   "wall": {**timings(wall_ns, statistics.median(p["setup_wall_s"] for p in probes)),
                            "ops_per_s_mean": len(wall_ns) / (sum(wall_ns) / 1e9)},
                   "errors": run["errors"], "problems": run["problems"]},
    }


def traced(workload: str, seed: int, rounds: int | None = None, ops: int = 0) -> dict:
    """Per-layer metrics from a traced worker, plus the overhead of tracing.

    The worker runs a fixed number of whole rounds, so every count repeats
    exactly between two traced runs with the same seed. It runs every
    operation traced and plain, back to back; the overhead is the median
    ratio of the two times, minus one.
    """
    from tracing import PER_LAYER
    from workloads import WORKLOADS as SPECS  # noqa: N811

    rounds = rounds or SPECS[workload].trace_rounds
    trace_file = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.jsonl.gz")
    run = _worker(workload, seed, "--rounds", str(rounds), "--ops", str(ops), "--trace", trace_file)
    layers = dict(run["layers"])
    ratios = [t / p for t, p in zip(run["op_ns"], run["plain_ns"])]
    layers["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    return {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: _metric(layers[name], unit) for name, unit in PER_LAYER},
        "detail": {"rounds": rounds, "trace_file": os.path.relpath(trace_file, ROOT),
                   "errors": run["errors"], "problems": run["problems"]},
    }


def quick() -> int:
    """Three operations per workload, each run plain and traced, all checks on."""
    ok = True
    for workload in WORKLOADS:
        res = traced(workload, seed=1, rounds=1, ops=3)
        ok = ok and res["correct"] and res["failed"] == 0
        print(f"{workload:12s} attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']} {'; '.join(res['detail']['problems'] + res['detail']['errors'])}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="a few checked operations per workload")
    args = ap.parse_args()
    _check_source()
    os.makedirs(RESULTS, exist_ok=True)
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    detail = result.pop("detail")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}")
    for clock in ("cpu", "wall"):
        if clock in detail:
            print(f"{args.workload} unscaled {clock} time: "
                  + ", ".join(f"{k} = {v:.6g}" for k, v in detail[clock].items()))
    for line in detail["problems"] + detail["errors"]:
        print(f"{args.workload} problem: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
