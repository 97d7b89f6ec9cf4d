"""Run one codedhash benchmark workload and print its result.

    python3 perfbench/run.py --workload train-c63 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric that applies to the workload with its
unit, the correctness checks, and the environment.  The full report
(environment, fingerprint, checks, all metrics) is written to
``perfbench/results/``; a traced run also writes its spans there.

``--workload all`` runs each workload in its own fresh process, one after
the other, and prints the combined table.  The exit code is 0 only when
every operation succeeded and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

WORKLOAD_NAMES = ("train-c63", "decode-c63", "retrieve-1e5", "cli-roundtrip")
# set-up repeats until it has run SETUP_REPS times and for SETUP_MIN_S
# seconds, at most SETUP_MAX_REPS times; its median goes into setup_s.
# Short set-ups repeat many times; the multi-second ones run twice, which
# keeps a campaign of about a hundred runs within an hour.
SETUP_REPS = 2
SETUP_MIN_S = 1.5
SETUP_MAX_REPS = 15
# fresh interpreters that time the import of numpy and the library
IMPORT_REPS = 5
MIN_PASSES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
# user-facing metrics that exist on some workloads only
WORKLOAD_UNITS = {
    "frames_per_s": "frames/s", "queries_per_s": "queries/s",
    "query_ms_p50": "ms", "query_ms_tail": "ms", "train_map": "score",
    "map_a1": "score", "map_a2": "score", "map_a3": "score",
    "ndcg_a1": "score", "ber_4db": "ratio", "fer_4db": "ratio",
}
TRACE_UNITS = {"trace.untraced_s": "s", "trace.overhead_s": "s"}
# what the human-readable report prints for an untraced run
SHOWN_UNITS = {**END_TO_END_UNITS, **WORKLOAD_UNITS, "failed_frac": "ratio"}


def per_layer_units():
    """Every per-layer metric name with its unit, in reporting order."""
    # imported here: tracer imports numpy, which must follow _cap_blas_threads
    from tracer import COUNTERS, RATIOS, span_metric_names

    units = dict(WORKLOAD_UNITS)
    units.update(TRACE_UNITS)
    for name in span_metric_names():
        units[name] = "count" if name.endswith(".calls") else "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cap_blas_threads(nproc):
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed, nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "nproc": nproc, "cpu": _cpu_model(), "commit": _git_commit(),
            "seed": seed}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _measure(workload, seed, seconds, tr):
    """Set up, run timed passes until `seconds` have passed (and at least
    MIN_PASSES), then check the outputs.  With a tracer, the one set-up
    and every odd pass are traced; even passes stay untraced."""
    from tracer import SETUP_PHASE

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    setup_times, passes, checks = [], [], []
    attempted = failed = 0
    max_reps = 1 if tr else SETUP_MAX_REPS
    try:
        while len(setup_times) < max_reps and (
                len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S):
            fx = None
            start = time.perf_counter()
            with tr.recording(SETUP_PHASE) if tr else nullcontext():
                fx = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            index = len(passes)
            traced = tr is not None and index % 2 == 1
            t0 = time.perf_counter()
            try:
                with tr.recording(index) if traced else nullcontext():
                    result = workload.run_pass(fx)
            except Exception:
                traceback.print_exc()
                attempted += workload.ops_per_pass
                failed += workload.ops_per_pass
                break
            passes.append((index, traced, time.perf_counter() - t0, result))
            attempted += result.ops
            failed += result.failed
        if passes and not failed:
            first = passes[0][3].fingerprint
            try:
                checks = list(workload.checks(fx, first))
            except Exception:
                traceback.print_exc()
                checks = [("checks_ran", False, "a check raised")]
            same = sum(p[3].fingerprint == first for p in passes)
            checks.append(("passes_identical", same == len(passes),
                           f"{same} of {len(passes)} passes match the first"
                           + (" (traced and untraced)" if tr else "")))
            failed += sum(not ok for _, ok, _ in checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_times, passes, checks, attempted, min(failed, attempted)


def _import_times():
    """Seconds to import numpy and every codedhash module, each in a fresh
    interpreter with this process's environment.  One in-process import is
    a single noisy sample; the median of several is steady."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import numpy; "
            "from codedhash import (bp, channel, cli, data, gf2, hashing, "
            "neural_bp, optim, pipeline, retrieval); "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(SRC)],
                                 stdout=subprocess.PIPE, text=True,
                                 check=True).stdout)
            for _ in range(IMPORT_REPS)]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args, nproc):
    sys.path.insert(0, str(SRC))
    import codedhash
    import tracer
    import workloads
    if Path(codedhash.__file__).resolve().parent != (SRC / "codedhash").resolve():
        print(f"error: codedhash imported from {codedhash.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import_times = _import_times()

    workload = workloads.WORKLOADS[args.workload]
    tr = tracer.Tracer() if args.trace else None
    setup_times, passes, checks, attempted, failed = _measure(
        workload, args.seed, args.seconds, tr)

    plain = [p for p in passes if not p[1]]
    run_s = statistics.median(p[2] for p in plain) if plain else 0.0
    user, details = {}, {}
    if plain and not failed:
        user, details = workload.summarize([p[3] for p in plain], run_s)
    attempted = max(attempted, 1)
    all_metrics = {"setup_s": (statistics.median(import_times)
                               + statistics.median(setup_times)),
                   "run_s": run_s, "peak_rss_mb": _peak_rss_mb(), **user}
    if tr is None:
        reported = {k: all_metrics[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        traced = [p for p in passes if p[1]]
        layer = tr.layer_metrics([p[0] for p in traced]) if traced else {}
        if traced:
            layer["trace.untraced_s"] = statistics.mean(
                tr.untraced_s(p[0]) for p in traced)
            layer["trace.overhead_s"] = (
                statistics.median(p[2] for p in traced) - run_s)
        units = per_layer_units()
        reported = {k: float(layer.get(k, user.get(k, 0.0))) for k in units}
        all_metrics.update(layer)
    all_metrics["failed_frac"] = failed / attempted
    correct = bool(passes) and failed == 0

    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(args.seed, nproc),
        "import_runs_s": import_times, "setup_runs_s": setup_times,
        "passes": [{"index": i, "traced": t, "seconds": s}
                   for i, t, s, _ in passes],
        "fingerprint": passes[0][3].fingerprint if passes else None,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "details": details, "attempted": attempted, "failed": failed,
        "metrics": all_metrics,
        "absent_spans": tr.absent if tr else [],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tr is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(
            json.dumps(tr.span_records()))

    _print_report(report, reported, units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in reported.items()}}))
    return 0 if correct else 1


def _print_report(report, reported, units):
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"passes={len(report['passes'])} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for name, unit in SHOWN_UNITS.items():
        if name in report["metrics"]:
            print(f"{name:<24} {report['metrics'][name]:>16.6g} {unit}")
    for key, value in report["details"].items():
        print(f"{key:<24} {value!s:>16}")
    if report["trace"]:
        for name in units:
            if name not in SHOWN_UNITS:
                print(f"{name:<44} {reported[name]:>14.6g} {units[name]}")
    for check in report["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'} "
              f"{check['detail']}")
    for span in report["absent_spans"]:
        print(f"warning: traced target {span} is absent", file=sys.stderr)
    print("# environment " + json.dumps(report["environment"]))


# ---------------------------------------------------------------------------
# All workloads, one fresh process each
# ---------------------------------------------------------------------------

def run_all(args):
    results, reports = {}, {}
    for name in WORKLOAD_NAMES:
        report = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        report.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
            reports[name] = json.loads(report.read_text())["metrics"]
        except (IndexError, json.JSONDecodeError, OSError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
            reports[name] = {}
        results[name]["exit"] = proc.returncode
    print("# summary: workload, metric, value, unit")
    combined = {}
    for name, metrics in reports.items():
        for metric, unit in SHOWN_UNITS.items():
            if metric in metrics:
                print(f"{name:<14} {metric:<16} {metrics[metric]:>16.6g} {unit}")
                combined[f"{name}.{metric}"] = {"value": metrics[metric],
                                                "unit": unit}
    ok = all(r["correct"] and r["exit"] == 0 for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": combined}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "codedhash" / "__init__.py").is_file():
        print(f"error: no codedhash sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
