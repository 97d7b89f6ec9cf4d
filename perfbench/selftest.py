"""Tests of the benchmark itself.

    python3 perfbench/selftest.py            # tracer unit tests and all workloads
    python3 perfbench/selftest.py TracerTest # tracer unit tests only (seconds)

The workload tests run every workload at a non-default seed, traced and
untraced, in fresh processes, and take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from codedhash import bp, cli, gf2, hashing, neural_bp, pipeline  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import EXPECTED_SPANS  # noqa: E402

SEED = 3
QUALITY = ("train_map", "map_a1", "map_a2", "map_a3", "ndcg_a1", "ber_4db",
           "fer_4db")


def _fake_package():
    """fakepkg.core defines inner/outer; fakepkg.user imports inner by name."""
    core = types.ModuleType("fakepkg.core")

    def inner():
        time.sleep(0.03)
        return 1

    def outer():
        time.sleep(0.02)
        return core.inner() + 1

    core.inner, core.outer = inner, outer
    user = types.ModuleType("fakepkg.user")
    user.inner = inner
    sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                        "fakepkg.core": core, "fakepkg.user": user})
    return core, user


class TracerTest(unittest.TestCase):

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)

    def test_self_time_excludes_children(self):
        core, user = _fake_package()
        tr = Tracer([Target("core.outer", "fakepkg.core", "outer", parent=True),
                     Target("core.inner", "fakepkg.core", "inner")],
                    package="fakepkg")
        with tr.recording(0):
            self.assertEqual(core.outer(), 2)
            self.assertEqual(user.inner(), 1)
        totals = tr.span_totals(0)
        calls, wall, self_s = totals["core.outer"]
        self.assertEqual(calls, 1)
        self.assertGreaterEqual(wall, 0.05)
        self.assertLess(self_s, wall - 0.025)
        self.assertEqual(totals["core.inner"][0], 2)  # via core and via user

    def test_every_binding_is_wrapped_and_restored(self):
        originals = (bp.segment_sum, neural_bp.segment_sum, pipeline.gradients,
                     cli.rank, hashing.Mlp.forward_cache, cli._cmd_encode)
        tr = Tracer()
        with tr.recording(0):
            self.assertIsNot(neural_bp.segment_sum, originals[1])
            self.assertIs(neural_bp.segment_sum, bp.segment_sum)
            self.assertIs(pipeline.gradients, hashing.gradients)
            self.assertIsNot(pipeline.gradients, originals[2])
            self.assertIsNot(cli.rank, originals[3])
            self.assertIsNot(hashing.Mlp.forward_cache, originals[4])
            self.assertIsNot(cli._cmd_encode, originals[5])
        self.assertEqual(tr.absent, [])
        self.assertEqual((bp.segment_sum, neural_bp.segment_sum,
                          pipeline.gradients, cli.rank,
                          hashing.Mlp.forward_cache, cli._cmd_encode), originals)

    def test_missing_target_is_reported_absent(self):
        gone = (Target("bp.gone", "codedhash.bp", "no_such_function"),
                Target("nomodule.f", "codedhash.no_such_module", "f"),
                Target("hashing.gone", "codedhash.hashing", "Mlp.no_such_method"))
        tr = Tracer(tracer.TARGETS + gone)
        with tr.recording(tracer.SETUP_PHASE):
            pass
        with tr.recording(0):
            out = bp.segment_sum(np.ones((3, 1)), np.array([0, 3]))
        self.assertEqual(out.tolist(), [[3.0]])
        self.assertEqual(tr.absent, ["bp.gone", "nomodule.f", "hashing.gone"])
        metrics = tr.layer_metrics([0])
        self.assertEqual(metrics["bp.segment_sum.calls"], 1)
        self.assertEqual(metrics["bp.segment_sum.elements"], 3)
        self.assertEqual(metrics["bp.gone.calls"], 0)

    def test_traced_decoding_is_bit_identical(self):
        code = gf2.build_bch(4, 2)
        graph = bp.TannerGraph(code.parity_check)
        llrs = np.random.default_rng(5).normal(0.0, 2.5, size=(64, code.n))
        plain = bp.bp_decode_batch(llrs, graph, 5)
        with Tracer().recording(0):
            traced = bp.bp_decode_batch(llrs, graph, 5)
        for a, b in zip(plain, traced):
            self.assertTrue(np.array_equal(a, b))

    def test_benchmark_json_matches_reported_metrics(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOAD_NAMES))


def _run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


class WorkloadTest(unittest.TestCase):

    def test_workloads_traced_and_untraced(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                reports = {}
                for trace in (0, 1):
                    code, lines = _run(ROOT, workload, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    stem = f"{workload}-seed{SEED}-trace{trace}.json"
                    reports[trace] = json.loads(
                        (run.RESULTS_DIR / stem).read_text())
                metrics = reports[1]["metrics"]
                absent = set(reports[1]["absent_spans"])
                for span in EXPECTED_SPANS[workload]:
                    if span not in absent:
                        self.assertGreater(metrics[f"{span}.calls"], 0, span)
                self.assertEqual(reports[0]["fingerprint"],
                                 reports[1]["fingerprint"])
                for name in QUALITY:
                    self.assertEqual(reports[0]["metrics"].get(name),
                                     reports[1]["metrics"].get(name), name)

    def test_fails_without_sources(self):
        run.WORK_DIR.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns(
                                "results", "work", "__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "train-c63",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, text=True,
                timeout=180, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
