"""The benchmark's own test, at the tiny ``--smoke`` sizes.

    python3 -m pytest bench/test_bench.py

It runs every workload through ``run.py`` exactly as a measurement does,
so the script cannot rot, and shows that the output checks catch a wrong
golden output.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_bench(tmp_path: pathlib.Path, with_sources: bool) -> pathlib.Path:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        os.symlink(ROOT / "src", tmp_path / "src")
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result = last_json(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_golden_output_counts_as_failed(tmp_path):
    root = copy_bench(tmp_path, with_sources=True)
    path = root / "bench" / "golden" / "verify.json"
    golden = json.loads(path.read_text())
    op = golden["smoke"]["ops"][0]
    op["stdout"] = op["stdout"].replace('"bijective": true', '"bijective": false')
    path.write_text(json.dumps(golden))
    result = last_json(run_bench(root, "verify", 0))
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_rejects_each_kind_of_wrong_result(workload):
    golden = workloads.load_golden(workload, "smoke")
    op = golden["ops"][0]
    good = workloads.OpResult(op["id"], 0.1, op["rc"], op["stdout"])
    families = golden["involution_families"]
    assert workloads.check(workload, op, good, families) is None
    for bad in (
        workloads.OpResult(op["id"], 0.1, op["rc"], op["stdout"] + " "),
        workloads.OpResult(op["id"], 0.1, 3, op["stdout"]),
        workloads.OpResult(op["id"], 0.1, None, "", error="ValueError: boom"),
    ):
        assert workloads.check(workload, op, bad, families)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    root = copy_bench(tmp_path, with_sources=False)
    proc = run_bench(root, "scan", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_keeps_lru_cache_behaviour(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from tracer import Tracer

    from meshperm import engine

    original = engine.subseq_tables
    tracer = Tracer()
    tracer.install()
    try:
        engine.clear_caches()
        engine.subseq_tables(4, 3)
        engine.subseq_tables(4, 3)
        assert engine.subseq_tables.cache_info().hits == 1
        assert tracer.counts["engine.subseq_tables.misses"] == 1
        assert tracer.counts["engine.subseq_tables.hits"] == 1
        engine.subseq_tables.cache_clear()
        assert engine.subseq_tables.cache_info().currsize == 0
    finally:
        tracer.uninstall()
    assert engine.subseq_tables is original
