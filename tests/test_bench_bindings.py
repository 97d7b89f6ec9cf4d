"""The benchmark tracer in perfbench/ finds every function it wraps.

A refactor that renames, moves or inlines a traced function turns its
spans into `absent_spans` without failing the benchmark; this catches it
in the unit suite instead of in a full benchmark self-test.
"""

import sys
from pathlib import Path

# imported before the tracer installs, so every binding gets wrapped
from codedhash import cli, neural_bp, pipeline  # noqa: F401

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
