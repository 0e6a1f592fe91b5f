"""Run one bethe-lab benchmark workload and print its metrics.

    python3 benchmark/run.py --workload pipeline-n10 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The run sets the
workload up, then repeats its iteration (closed loop, one caller) until
``--seconds`` would be exceeded by one more iteration; at least one
iteration always runs.  Outputs are checked after each iteration,
outside the timed region.

With ``--trace 0`` the end-to-end metrics are printed.  With
``--trace 1`` untraced and traced iterations alternate, at least one of
each, and the per-layer metrics of the traced ones are printed together
with the tracing overhead; the spans are written to
``benchmark/out/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines starting with ``#``
before it record the environment, the samples and every check.

``--smoke`` runs the same code at tiny sizes (pipeline n=4, sweep n=4,
spectrum n=6) for the benchmark's own test, ``check_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("pipeline-n10", "nw-sweep-n8", "spectrum-cap")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set-up is repeated in this many fresh processes; setup_s is their median
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "checks_passed_frac": "ratio",
    "states_found_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for check_smoke.py")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import bethe_lab from this checkout's src/, or exit without a result."""
    if not (SRC / "bethe_lab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no bethe_lab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bethe_lab

    if Path(bethe_lab.__file__).resolve().parent != SRC / "bethe_lab":
        raise SystemExit(f"run.py: imported bethe_lab from {bethe_lab.__file__}, not {SRC}")


def set_up(args, workdir: Path):
    """Everything before the first timed iteration: imports, inputs, warm-up."""
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not out.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    # CLOCK_MONOTONIC is shared by all processes of the machine
    return float(out.split()[1]) - start


def measure(workload, tally, seconds: float, recorder=None):
    """Closed-loop iterations; returns (untraced, traced) seconds per iteration."""
    import spans

    untraced: list[float] = []
    traced: list[float] = []
    t0 = time.perf_counter()
    it = 0
    while True:
        if recorder is not None and it % 2 == 1:
            with spans.instrumented(recorder), recorder.iteration(it):
                start = time.perf_counter()
                result = workload.iteration()
                traced.append(time.perf_counter() - start)
        else:
            start = time.perf_counter()
            result = workload.iteration()
            untraced.append(time.perf_counter() - start)
        workload.check(result, tally)
        it += 1
        enough = recorder is None or (untraced and traced)
        next_cost = statistics.median(untraced + traced)
        if enough and time.perf_counter() - t0 + next_cost > seconds:
            return untraced, traced


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer no percentile has ten beyond it, so the maximum is returned,
    labelled p100 with none beyond.
    """
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def source_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an export without history
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args, load_at_start) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    # BLAS threads are pinned before numpy is first imported (by set_up)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = set_up(args, workdir)
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]

        import spans
        from workloads import Tally

        tally = Tally()
        recorder = spans.Recorder() if args.trace else None
        untraced, traced = measure(workload, tally, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks_failed_frac = tally.checks_failed / tally.checks_attempted
    if args.trace:
        metrics = spans.per_layer_metrics(recorder)
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
        metrics["ops_failed_frac"] = checks_failed_frac
        units = spans.PER_LAYER_UNITS
    else:
        tail_value, tail_pct, tail_beyond = tail(untraced)
        metrics = {
            "wall_s": statistics.median(untraced),
            "wall_s_tail": tail_value,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "checks_passed_frac": 1.0 - checks_failed_frac,
            "states_found_frac": tally.states_found / tally.states_expected,
        }
        units = E2E_UNITS
    record = {
        "env": environment(args, load_at_start),
        "samples_s": {"untraced": untraced, "traced": traced},
        "setup_s": setup_samples,
        "checks": {name: {"attempted": a, "failed": f} for name, (a, f) in tally.checks.items()},
        "errors": tally.errors,
        "states": {"found": tally.states_found, "expected": tally.states_expected},
    }
    if not args.trace:
        record["wall_s_tail"] = {
            "percentile": tail_pct, "samples": len(untraced), "beyond": tail_beyond
        }
    result = {
        "correct": tally.ops_failed == 0,
        "attempted": tally.ops_attempted,
        "failed": tally.ops_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if recorder is not None:
        recorder.write(OUT_DIR / f"spans-{stem}.jsonl")
    with open(OUT_DIR / f"result-{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
