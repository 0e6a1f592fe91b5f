"""The benchmark's own test: every workload at tiny sizes, in both modes.

    python3 benchmark/check_smoke.py

For each workload, runs ``run.py --smoke`` (pipeline n=4, sweep n=4,
spectrum n=6) with ``--trace 0`` and ``--trace 1`` and asserts that

* the last line of output is the result object, with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of BENCHMARK.json, each with its unit;
* the outputs are correct, and no end-to-end metric is zero;
* in the traced run the self times of all layers add up to the traced
  wall time, and the spans file is written.

Finally it checks that run.py, started in a directory that holds only
BENCHMARK.json and the benchmark, exits non-zero without a result.
Takes about twenty seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 120


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], sorted(set(metrics) ^ {
        m["name"] for m in expected})
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    if trace:
        layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        wall = metrics["trace.wall_s"]["value"]
        assert abs(layers - wall) <= 0.02 * wall, (layers, wall)
        spans = BENCH_DIR / "out" / f"spans-{workload}-seed5.jsonl"
        assert spans.stat().st_size > 0
    print(f"ok  {workload:14s} trace={trace}  attempted={result['attempted']}")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "benchmark",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "pipeline-n10", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exit code", proc.returncode, "and no result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
