"""One fresh, single-threaded benchmark process (started by ``run.py``).

The worker sets up one workload, prints ``READY`` and then, unless it was
asked for set-up only, runs whole rounds of operations, one at a time, until
``--seconds`` have passed or ``--rounds`` rounds are done. With ``--trace``
it runs each operation twice, once traced (``op_ns``) and once plain
(``plain_ns``). Operation times are the process's CPU time
(``time.process_time_ns``); wall times go to ``wall_ns`` alongside. The
``READY`` line carries the CPU seconds the process has used since it
started, which is its set-up cost. After every untraced timed operation
the worker times the calibration kernel of ``calibrate.py``, so
``run.py`` can scale the times to the reference host.
Peak RSS is read when the loop ends; the output checks run
after that, so neither they nor scipy count towards the timed figures. The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    ap.add_argument("--ops", type=int, default=0, help="cut each round to its first OPS operations")
    ap.add_argument("--trace", help="record spans and write them to this file")
    args = ap.parse_args()

    import sqlab  # noqa: F401  (imports count towards set-up)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        import sqlab.cli  # noqa: F401  (so its namespace is wrapped too)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced too: instance builds happen there

    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.round[: args.ops] if args.ops else workload.round
    if tracer is not None:
        tracer.uninstall()
    print(f"READY {time.process_time():.6f}", flush=True)
    if args.setup_only:
        return 0
    import calibrate

    records, errors, op_ns, plain_ns, wall_ns, cal_ns = [], [], [], [], [], []
    clock, wall = time.process_time_ns, time.perf_counter_ns

    def attempt(op) -> int:
        w0, t0 = wall(), clock()
        try:
            records.append(workload.run_op(op))
        except Exception as exc:  # a raising operation is a failed operation
            errors.append((op, f"{type(exc).__name__}: {exc}"))
        t1, w1 = clock(), wall()
        wall_ns.append(w1 - w0)
        return t1 - t0

    def attempt_traced(op) -> int:
        tracer.install()
        try:
            return attempt(op)
        finally:
            tracer.uninstall()

    rounds = 0
    deadline = wall() + int(args.seconds * 1e9)
    while True:
        for op in ops:
            if tracer is None:
                op_ns.append(attempt(op))
                cal_ns.append(calibrate.sample())
            elif len(op_ns) % 2:
                # Traced and plain back to back, alternating which goes
                # first, so both see the same load from outside.
                op_ns.append(attempt_traced(op))
                plain_ns.append(attempt(op))
            else:
                plain_ns.append(attempt(op))
                op_ns.append(attempt_traced(op))
        rounds += 1
        if (args.rounds and rounds >= args.rounds) or (not args.rounds and wall() >= deadline):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        layers = tracer.metrics(len(op_ns))
        tracer.dump(args.trace)

    from checks import check

    bad, run_problems = check(workload, records) if records else ([], [])
    result = {
        "rounds": rounds,
        "round_length": len(ops),
        "attempted": len(op_ns) + len(plain_ns),
        "failed": len(errors) + len({idx for idx, _ in bad}),
        "op_ns": op_ns,
        "plain_ns": plain_ns,
        "wall_ns": wall_ns,
        "cal_ns": cal_ns,
        "peak_rss_kb": peak_rss_kb,
        "errors": [f"op {op}: {msg}" for op, msg in errors],
        "problems": [f"op {records[idx]['op']}: {msg}" for idx, msg in bad] + run_problems,
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
