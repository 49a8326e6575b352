"""One workload in one process: set-up, timed passes, checks, score accuracy.

Started by run.py with BLAS/OpenMP threads pinned and ``src`` on the path;
prints one JSON object on its last stdout line.  ``--setup-only`` stops
after the set-up, so run.py can time set-up in several fresh processes.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def timed_passes(workload, out_dir: Path, seconds: float, min_passes: int,
                 reference: dict | None, tracer=None, first_pass: int = 0):
    """Run passes back to back for about ``seconds``; check each one.

    A pass is started only if it is expected to end less than half a pass
    after the deadline, so a run lasts ``seconds`` on average.  Every pass
    writes to the same (emptied) directory, so that its outputs, which echo
    the output path, can be compared byte for byte."""
    walls, cpus, attempted, failed, errors, divergences = [], [], 0, 0, [], []
    pass_dir = out_dir / "pass"
    start = time.perf_counter()
    while len(walls) < min_passes or (
            time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds):
        pass_id = first_pass + len(walls)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if tracer is not None:
            tracer.pass_id = pass_id
        t0, c0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(pass_dir)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if tracer is not None:
            tracer.pass_id = None
        pass_errors = workload.check(pass_dir, result)
        snap = workload.snapshot(pass_dir, result)
        if reference is None:
            reference = snap
        elif snap != reference:
            differing = sorted(k for k in reference.keys() | snap.keys()
                               if reference.get(k) != snap.get(k))
            pass_errors.append(f"outputs differ from the first pass: {differing}")
        ops = workload.attempted(pass_dir, result)
        diverged = [] if pass_errors else workload.divergences(pass_dir)
        attempted += ops
        failed += ops if pass_errors else len(diverged)
        errors += [f"pass {pass_id}: {e}" for e in pass_errors]
        divergences += [{**d, "pass_id": pass_id} for d in diverged]
    return {"walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
            "errors": errors, "divergences": divergences}, reference


def score_accuracy(workload, cases, seed: int) -> dict:
    """Median relative error of the last-block score per (order, t)."""
    from oracle import ScoreOracle, relative_errors

    start = time.perf_counter()
    table = []
    for case in cases:
        for i, t in enumerate(case.times):
            oracle = ScoreOracle(case.params, case.sigma0, case.lifted, case.h, t)
            rng = np.random.default_rng([seed, case.params.order, i, 7919])
            count = workload.floor_probes if t == min(case.times) else workload.probes
            probes = oracle.probes(rng, count)
            errs = relative_errors(oracle, case.score_fn, t, probes)
            med = statistics.median(errs)
            table.append({"order": case.params.order, "t": t, "probes": len(errs),
                          "median_relerr": med, "digits": -math.log10(med)})
    return {"table": table, "worst": max(row["median_relerr"] for row in table),
            "seconds": time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.recorder.install()
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, reference = timed_passes(workload, out_dir, seconds, 2, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "plain": plain}

    if args.trace:
        from tracer import Tracer

        workload.recorder.uninstall()
        tracer = Tracer()
        tracer.install(callers=[sys.modules[type(workload).__module__]])
        workload.recorder.install()
        traced, _ = timed_passes(workload, out_dir, seconds, 1, reference, tracer,
                                 first_pass=len(plain["walls"]))
        workload.recorder.uninstall()
        tracer.uninstall()
        tracer.write_spans(out_dir / "spans.csv.gz")
        report["traced"] = traced
        report["traced_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report["events"] = tracer.events
        report["layers"] = tracer.layer_metrics(traced["walls"],
                                                statistics.median(plain["walls"]))
    else:
        workload.recorder.uninstall()
        cases = workload.score_cases()
        report["floors"] = workload.floor_census(cases)
        report["score"] = score_accuracy(workload, cases, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
