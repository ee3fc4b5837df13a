"""Regenerate ``golden/*.json`` from the meshperm sources in this checkout.

    python3 bench/make_golden.py [--workload scan|dist|verify]

Run it only on a commit whose outputs are known to be right: the benchmark
counts every later output that differs from these files as a failed op.
The script refuses to write a golden file whose outputs break a stated fact
(93 scan survivors at n = 9, check-pair verdicts equal to the catalog's
recorded divergence, every bijection verified).
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import workloads

HERE = pathlib.Path(__file__).resolve().parent

#: Workload parameters per size.  ``dist_ids`` limits dist to a few entries.
PARAMS = {
    "full": {"scan_max_n": 9, "dist_n": 9, "verify_n": 6, "dist_ids": None},
    "smoke": {"scan_max_n": 5, "dist_n": 5, "verify_n": 4, "dist_ids": (1, 23, 46, 94, 205, 206, 301)},
}

#: The seed code's n = 9 scan: 93 survivors and this divergence histogram.
SCAN_FULL_FACTS = (93, {"4": 768, "5": 129, "6": 26, "7": 6, "8": 2})


def _ops(workload: str, params: dict) -> list[dict]:
    from meshperm import catalog
    from meshperm.mesh import pattern_literal

    entries = catalog.load_catalog()
    if workload == "scan":
        n = params["scan_max_n"]
        return [{"id": "scan", "argv": ["scan", "--max-n", str(n), "--long"]}]
    if workload == "dist":
        n = params["dist_n"]
        ops = []
        for pos, e in enumerate(entries):
            if params["dist_ids"] is not None and e.id not in params["dist_ids"]:
                continue
            if pos % 2 == 0:
                p1, p2 = e.patterns()
                argv = ["joint", "--pattern", pattern_literal(p1), "--pattern2", pattern_literal(p2),
                        "--n", str(n), "--format", "json"]
                ops.append({"id": str(e.id), "command": "joint", "argv": argv})
            else:
                fd = e.first_divergence_n
                ops.append({"id": str(e.id), "command": "check-pair",
                            "argv": ["check-pair", "--pair-id", str(e.id), "--max-n", str(n)],
                            "expected_first_divergence_n": fd if fd is not None and fd <= n else None})
        return ops
    n = params["verify_n"]
    return [{"id": str(e.id), "family": e.family["name"], "argv": ["verify", "--pair-id", str(e.id), "--n", str(n)]}
            for e in entries if e.family is not None]


def build(workload: str) -> dict:
    from meshperm import bijections, cli

    record: dict = {}
    if workload == "verify":
        record["involution_families"] = sorted(bijections.INVOLUTION_FAMILIES)
    for size in workloads.SIZES:
        ops = _ops(workload, PARAMS[size])
        for op in ops:
            result = workloads.run_op(cli.main, op["id"], op["argv"])
            if result.error is not None:
                raise SystemExit(f"{workload}/{size} op {op['id']} raised {result.error}")
            op["rc"], op["stdout"] = result.rc, result.stdout
            if workload == "scan":
                _, op["survivors"], op["divergence_histogram"] = workloads.scan_summary(result.stdout)
                if size == "full" and (op["survivors"], op["divergence_histogram"]) != SCAN_FULL_FACTS:
                    raise SystemExit(f"scan: {op['survivors']} survivors, histogram {op['divergence_histogram']}")
            problem = workloads.check(workload, op, result, record.get("involution_families", ()))
            if problem:
                raise SystemExit(f"{workload}/{size}: {problem}")
        record[size] = {"params": PARAMS[size], "ops": ops}
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    os.environ["MESHPERM_MAX_N"] = workloads.MAX_N_ENV
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        text = json.dumps(build(workload), indent=1, sort_keys=True)
        workloads.golden_path(workload).write_text(text + "\n")
        print(f"wrote {workloads.golden_path(workload).relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
