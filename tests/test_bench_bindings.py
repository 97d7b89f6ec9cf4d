"""The benchmark in perfbench/ still binds and calls what it uses.

A refactor that renames, moves or inlines a traced function turns its
spans into `absent_spans` without failing the benchmark, and one that
drops a name or parameter a workload passes fails only in a benchmark run;
these tests catch both in the unit suite instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

# imported before the tracer installs, so every binding gets wrapped
from codedhash import cli, neural_bp, pipeline, retrieval  # noqa: F401
from codedhash.data import SyntheticSpec, generate_synthetic
from codedhash.hashing import Encoders

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    original = pipeline.train_decoder
    tracer = Tracer()
    with tracer.recording(0):
        assert tracer.absent == []
        assert pipeline.train_decoder is neural_bp.train_decoder
        assert pipeline.train_decoder is not original
    assert pipeline.train_decoder is original
    assert neural_bp.train_decoder is original
    assert tracer.spans == []


def test_forward_only_encode_is_traced_with_its_rows(monkeypatch):
    """Encoding without backprop goes through forward_cache, so the
    hashing.forward span and its row counter cover gallery encodes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    enc = Encoders.build(d_img=6, d_attr=4, code_length=5, hidden=(8,))
    tracer = Tracer()
    with tracer.recording(0):
        enc.encode_images(np.zeros((7, 6)))
        enc.image.forward(np.zeros(6))
        enc.encode_attributes(np.zeros((0, 4)))
    assert [span[0] for span in tracer.spans] == ["hashing.forward"] * 3
    assert tracer.counts[0]["hashing.forward.rows"] == 8


def test_retrieval_scoring_spans(monkeypatch):
    """retrieve-1e5 expects spans of rank, evaluate_queries and the two
    per-query metrics; a refactor that scores without calling them through
    the module drops those spans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    rng = np.random.default_rng(3)
    attributes = rng.integers(0, 2, size=(30, 4)).astype(np.uint8)
    attributes[0] = 1
    index = retrieval.build_index(rng.normal(size=(30, 8)), np.arange(30),
                                  attributes)
    weights = rng.normal(size=(8, 4))
    masks = retrieval.enumerate_query_masks(4, 1)
    tracer = Tracer()
    with tracer.recording(0):
        retrieval.rank(np.ones(8), index)
        retrieval.evaluate_queries(lambda m: weights @ m, index, masks)
    calls = {name: calls for name, (calls, _, _) in tracer.span_totals(0).items()}
    assert calls["retrieval.rank"] >= 1
    assert calls["retrieval.evaluate_queries"] == 1
    assert calls["retrieval.average_precision"] == len(masks)
    assert calls["retrieval.ndcg_at_k"] == len(masks)


def test_training_stage_spans(monkeypatch):
    """train-c63 expects spans of the three stages and of training_map; a
    refactor that calls one of them other than through the pipeline module
    drops its spans.  With one outer round, the only stage-1a call is the
    one that trains round 0's encoders."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    ds = generate_synthetic(SyntheticSpec(n_subjects=6, images_per_subject=2,
                                          d_attr=4, d_img=6, seed=0))
    config = pipeline.TrainConfig(c=31, margin=2.0, epochs_stage1a=1,
                                  batch_size=8, outer_rounds_max=1,
                                  bp_iterations=2)
    tracer = Tracer()
    with tracer.recording(0):
        pipeline.train_pipeline(ds, config, decoder_epochs=1)
    calls = {name: calls for name, (calls, _, _) in tracer.span_totals(0).items()}
    for name in ("pipeline.stage1a", "pipeline.stage1b",
                 "pipeline.stage2_refine", "pipeline.training_map"):
        assert calls.get(name, 0) >= 1, name


WORKLOAD_NAMES = ("train-c63", "decode-c63", "retrieve-1e5", "cli-roundtrip")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_and_passes_its_checks(name, tmp_path, monkeypatch):
    """One set-up and one pass of each workload, as the benchmark makes
    them: no operation fails and every check of the workload holds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    workload = WORKLOADS[name]
    fx = workload.setup(1, tmp_path)
    result = workload.run_pass(fx)
    assert result.failed == 0
    failed = [(check, detail)
              for check, ok, detail in workload.checks(fx, result.fingerprint)
              if not ok]
    assert failed == []
