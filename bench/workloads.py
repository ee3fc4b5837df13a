"""Op streams of the three benchmark workloads and the checks on their outputs.

An op is one ``meshperm`` command line, run in-process through
``meshperm.cli.main(argv)`` with stdout captured.  Every op's argv and
expected output live in ``golden/<workload>.json``, keyed by op id (the
catalog entry id, or ``"scan"``), so the expected outputs do not depend on
the seed; the seed only fixes the order in which the ops run.

``full`` is the measured size; ``smoke`` is a tiny size that runs the same
code path in seconds (see ``test_bench.py``).

Workloads, and why each is in the benchmark:

scan    ``scan --max-n 9 --long``, one op per pass.  Bound by the per-mask
        kernel and the n = 9 table build; the mesh oracle plays no part.
dist    over all 138 catalog entries, alternating ``joint --n 9`` and
        ``check-pair --max-n 9`` by catalog position.  Many queries share
        each n = 9 table, so this is where the table cache pays off.
verify  ``verify --pair-id ID --n 6`` for every entry with a bijection.
        Bound by the pure-Python occurrence finder, barely in the engine.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import random
import time

WORKLOADS = ("scan", "dist", "verify")
SIZES = ("full", "smoke")
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: The cap the CLI runs under: dist needs n = 9, above the default of 8.
MAX_N_ENV = "9"


@dataclasses.dataclass(frozen=True)
class OpResult:
    op_id: str
    seconds: float
    rc: int | None
    stdout: str
    error: str | None = None


def golden_path(workload: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, size: str) -> dict:
    """The golden record of one workload at one size."""
    data = json.loads(golden_path(workload).read_text())
    return {"involution_families": data.get("involution_families", []), **data[size]}


def op_stream(golden: dict, seed: int) -> list[dict]:
    """The golden op records in the order the seed gives."""
    ops = list(golden["ops"])
    random.Random(seed).shuffle(ops)
    return ops


def run_op(main, op_id: str, argv: list[str]) -> OpResult:
    """Run one command line through ``main`` and capture what a user sees."""
    out = io.StringIO()
    rc: int | None = None
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:  # argparse refusing the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # one broken op must not stop the run; it counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return OpResult(op_id, time.perf_counter() - t0, rc, out.getvalue(), error)


def check(workload: str, golden_op: dict, result: OpResult, involution_families=()) -> str | None:
    """Why ``result`` is wrong, or None when it matches the golden output."""
    if result.error is not None:
        return f"op {result.op_id}: raised {result.error}"
    if result.rc != golden_op["rc"]:
        return f"op {result.op_id}: exit code {result.rc}, expected {golden_op['rc']}"
    if result.stdout != golden_op["stdout"]:
        return f"op {result.op_id}: output differs from the golden output"
    return _semantic_problem(workload, golden_op, result.stdout, involution_families)


def _semantic_problem(workload: str, golden_op: dict, stdout: str, involution_families) -> str | None:
    """Facts the output must show whatever the golden file says."""
    where = f"op {golden_op['id']}"
    if workload == "scan":
        rows, survivors, hist = scan_summary(stdout)
        if rows != 1024 or survivors != golden_op["survivors"] or hist != golden_op["divergence_histogram"]:
            return f"{where}: {survivors} survivors and histogram {hist}"
        return None
    record = json.loads(stdout)
    if workload == "dist" and golden_op["command"] == "joint":
        total = sum(v for _, _, v in record["counts"])
        if total != math.factorial(record["n"]):
            return f"{where}: joint table sums to {total}, not {record['n']}!"
    elif workload == "dist":
        if record["first_divergence_n"] != golden_op["expected_first_divergence_n"]:
            return f"{where}: first divergence {record['first_divergence_n']}, catalog says {golden_op['expected_first_divergence_n']}"
    elif workload == "verify":
        if not (record["bijective"] and record["joint_swap"]) or record["counterexample"] is not None:
            return f"{where}: verification failed ({record})"
        if golden_op["family"] in involution_families and record["involution"] is not True:
            return f"{where}: {golden_op['family']} is not an involution"
    return None


def scan_summary(stdout: str) -> tuple[int, int, dict[str, int]]:
    """Shadings, survivors, and how many shadings first diverge at each n."""
    rows = [json.loads(line) for line in stdout.splitlines()]
    hist: dict[str, int] = {}
    for r in rows:
        if r["first_divergence_n"] is not None:
            key = str(r["first_divergence_n"])
            hist[key] = hist.get(key, 0) + 1
    survivors = sum(r["first_divergence_n"] is None for r in rows)
    return len(rows), survivors, dict(sorted(hist.items(), key=lambda kv: int(kv[0])))
