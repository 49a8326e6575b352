"""holdlab benchmark.

    python3 benchmarks/run.py --workload sweep_default --seed 1 --seconds 36 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run instead.  A human-readable table with quartiles and sample
counts goes to stdout before it, and the full run record (passes, checks,
Cholesky floors, divergences, score accuracy table, versions) is written
under ``.bench_out/``.

Each workload runs in its own process with BLAS/OpenMP threads pinned to
one; set-up is timed in several fresh processes and reported as a median.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_default", "generate_wide", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1
SETUP_PROCESSES = 9
CHILD_GRACE_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _git_sha() -> str:
    # The ceiling keeps git from reading a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "thread_pins": {var: THREADS for var in THREAD_VARS},
        "setup_processes": SETUP_PROCESSES,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (metrics as name -> (value, unit, samples, q1, q3), record)."""
    out_dir = ROOT / ".bench_out" / workload
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out", str(out_dir)]
    timeout = seconds + CHILD_GRACE_S
    setups = []
    if not trace:
        setups = [_worker([*common, "--setup-only"], timeout)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
    report = _worker(common, timeout)
    setups.append(report["setup_s"])
    plain = report["plain"]
    errors = list(plain["errors"])
    attempted, failed = plain["attempted"], plain["failed"]
    metrics: dict[str, tuple] = {}
    if trace:
        traced = report["traced"]
        errors += traced["errors"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        n = len(traced["walls"])
        for name, (value, unit) in report["layers"].items():
            metrics[name] = (value, unit, n, value, value)
    else:
        walls = plain["walls"]
        metrics["wall_s"] = (statistics.median(walls), "s", len(walls), *_quartiles(walls))
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups), *_quartiles(setups))
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB", 1,
                                  report["peak_rss_mb"], report["peak_rss_mb"])
        ok = 1.0 - plain["failed"] / plain["attempted"]
        metrics["ok_frac"] = (ok, "frac", plain["attempted"], ok, ok)
        worst = report["score"]["worst"]
        probes = sum(row["probes"] for row in report["score"]["table"])
        metrics["score_relerr"] = (worst, "1", probes, worst, worst)
    record = {
        **_metadata(workload, seed, seconds, trace),
        "setup_s_samples": setups,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2], "q1": v[3], "q3": v[4]}
                    for k, v in metrics.items()},
        "worker": report,
    }
    if not trace:
        record["score_digits"] = -math.log10(report["score"]["worst"])
    name = f"run_seed{seed}_trace{trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return metrics, record


def _print_table(workload: str, metrics: dict, record: dict) -> None:
    print(f"== {workload}  seed={record['seed']}  correct={record['correct']}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"fail_frac={record['fail_frac']:.6g}")
    if "score_digits" in record:
        print(f"   score_digits={record['score_digits']:.4f} "
              f"(-log10 of score_relerr, worst order and time)")
    for name, (value, unit, n, q1, q3) in metrics.items():
        print(f"   {name:48s} {value:14.6g} {unit:6s} n={n:<6d} q1={q1:.6g} q3={q3:.6g}")
    for err in record["errors"]:
        print(f"   CHECK FAILED: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "holdlab" / "__init__.py").is_file():
        print(f"error: no holdlab sources under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_table(name, metrics, record)
        prefix = f"{name}." if len(names) > 1 else ""
        result["correct"] &= record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        for key, (value, unit, *_) in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
