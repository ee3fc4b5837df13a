"""The meshperm benchmark.

    python3 bench/run.py --workload scan|dist|verify --seed N --seconds S --trace 0|1 [--smoke]

Drives meshperm as a user does, through ``meshperm.cli.main(argv)``, one
workload per fresh process, single client, closed loop, ``--jobs 1``.
Every op's output is checked against ``golden/``.  See ``workloads.py`` for
the workloads and why each is here.

``--trace 0`` prints the end-to-end metrics:

wall_s       median time of one pass over the workload's fixed op stream
op_p50_s     median per-op latency (sample count printed)
peak_rss_mb  ru_maxrss of the workload process
setup_s      median, over fresh processes, of importing meshperm and
             loading and validating the catalog

It also prints op_p90_s, the 90th percentile per-op latency, which is not in
BENCHMARK.json: the host's speed switches between two states for seconds
at a time, and a 90th percentile jumps with the share of a run spent slow.

``--trace 1`` runs one untraced pass and two traced passes, each in a fresh
process, checks that both traced passes did exactly the same work, and
prints the per-layer metrics (averaged over the two traced passes) plus
``trace.overhead_s``, the traced pass time minus the untraced one.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  A record
of the run with the machine it ran on goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Whole-run limit: every child gets what is left of it.
RUN_LIMIT_S = 170.0
#: Set-up samples per run, half taken before the workload and half after, so
#: that one slow spell of the host does not set them all.
SETUP_REPEATS = 8


class ChildFailed(RuntimeError):
    pass


def child(argv: list[str], deadline: float) -> dict:
    """Run a bench script in a fresh process; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["MESHPERM_MAX_N"] = workloads.MAX_N_ENV
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting " + argv[0])
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=BENCH, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(argv)} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(repeats: int, deadline: float) -> list[dict]:
    """Set-up, each time in a fresh process."""
    return [child(["setup_probe.py"], deadline) for _ in range(repeats)]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def workload_argv(args, seconds: float, spans: pathlib.Path | None = None) -> list[str]:
    argv = ["worker.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--size", "smoke" if args.smoke else "full"]
    return argv + (["--trace", str(spans)] if spans else [])


def untraced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    probes = measure_setup(SETUP_REPEATS // 2 + 1, deadline)[1:]  # the first compiles bytecode
    res = child(workload_argv(args, args.seconds), deadline)
    probes += measure_setup(SETUP_REPEATS // 2, deadline)
    setup = [p["setup_s"] for p in probes]
    problems = [f"catalog: {p}" for p in sorted({p for probe in probes for p in probe["problems"]})]
    metrics = {
        "wall_s": statistics.median(res["walls"]),
        "op_p50_s": statistics.median(res["latencies"]),
        "op_p90_s": percentile(res["latencies"], 90),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    info = {"numpy": res["numpy"], "passes": len(res["walls"]), "ops": len(res["latencies"]),
            "setup_samples": len(setup), "attempted": res["attempted"], "failed": res["failed"]}
    return metrics, info, problems + res["failures"]


def traced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    base = child(workload_argv(args, 0), deadline)
    runs = []
    for i in (1, 2):
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-{i}.jsonl.gz"
        runs.append(child(workload_argv(args, 0, spans), deadline))
    failures = base["failures"] + runs[0]["failures"] + runs[1]["failures"]
    first, second = (r["exact_counts"] for r in runs)
    if first != second:
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        failures.append(f"exact counts differ between two traced runs: {differ}")
    metrics = {name: statistics.mean(r["layer"][name] for r in runs) for name in runs[0]["layer"]}
    metrics["trace.overhead_s"] = statistics.mean(r["walls"][0] for r in runs) - base["walls"][0]
    info = {"numpy": base["numpy"], "spans": runs[0]["spans"], "exact_counts": first,
            "attempted": base["attempted"] + sum(r["attempted"] for r in runs),
            "failed": base["failed"] + sum(r["failed"] for r in runs)}
    return metrics, info, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="meshperm benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()

    if not (ROOT / "src" / "meshperm" / "__init__.py").is_file():
        print(f"error: no meshperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        metrics, info, failures = (traced if args.trace else untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
               "numpy": info.pop("numpy", None), "MESHPERM_MAX_N": workloads.MAX_N_ENV,
               "seed": args.seed, "workload": args.workload, "size": "smoke" if args.smoke else "full",
               "seconds": args.seconds, "trace": args.trace}
    attempted, failed = info.pop("attempted"), info.pop("failed")
    record = {"machine": machine, "metrics": metrics, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures, **info}
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    for failure in failures[:10]:
        print("FAILED", failure)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6f} {units.get(name, 's')}")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6f} ({failed} of {attempted} ops failed)")
    if not args.trace:
        print(f"  samples: {info['passes']} pass(es), {info['ops']} ops, {info['setup_samples']} set-ups")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
