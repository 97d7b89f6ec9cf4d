"""The benchmark tracer in perfbench/ finds every function it wraps.

A refactor that renames, moves or inlines a traced function turns its
spans into `absent_spans` without failing the benchmark; this catches it
in the unit suite instead of in a full benchmark self-test.
"""

import sys
from pathlib import Path

# imported before the tracer installs, so every binding gets wrapped
from codedhash import cli, hashing, pipeline  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    original = pipeline.gradients
    tracer = Tracer()
    with tracer.recording(0):
        assert tracer.absent == []
        assert pipeline.gradients is hashing.gradients
        assert pipeline.gradients is not original
    assert pipeline.gradients is original
    assert hashing.gradients is original
    assert tracer.spans == []
