"""Run one workload's op stream in this (fresh) process and print the result.

    python3 bench/worker.py --workload dist --seed 3 --seconds 30 --size full [--trace SPANS_PATH]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  Each pass clears the engine's table caches first, because a CLI
user pays for table building on every invocation; there is no warm-up.
Passes repeat while another one still fits in ``--seconds``, and at least
one runs.  With ``--trace`` exactly one pass runs, with the layer
boundaries wrapped, and the spans are saved to SPANS_PATH.

Prints one JSON object: pass times, op latencies, failures, peak RSS and,
when traced, the per-layer metrics and exact work counts.
"""
from __future__ import annotations

import argparse
import json
import resource
import time

import numpy

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args()

    golden = workloads.load_golden(args.workload, args.size)
    ops = workloads.op_stream(golden, args.seed)

    import meshperm.cli
    import meshperm.engine

    tracer = None
    run_main = meshperm.cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

        def run_main(argv):
            return tracer.call("cli.main", meshperm.cli.main, argv)

    # what every invocation does before its command runs
    from meshperm import catalog

    catalog.load_catalog()
    catalog.validate_catalog()

    walls: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    clear_caches = getattr(meshperm.engine, "clear_caches", lambda: None)
    while True:
        clear_caches()
        results = []
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            results.append(workloads.run_op(run_main, op["id"], op["argv"]))
        walls.append(time.perf_counter() - t0)
        for op, result in zip(ops, results):
            problem = workloads.check(args.workload, op, result, golden["involution_families"])
            if problem:
                failures.append(problem)
        attempted += len(results)
        latencies.extend(r.seconds for r in results)
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed + walls[-1] > args.seconds:
            break

    out = {
        "numpy": numpy.__version__,
        "walls": walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layer"] = tracer.layer_metrics()
        out["exact_counts"] = tracer.exact_counts()
        out["spans"] = tracer.span_count()
        tracer.write(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
