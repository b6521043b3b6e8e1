"""The traced benchmark's span table still resolves against the program.

``perfbench/spans.py`` wraps latmax functions by attribute path, and every
checker of ``cli.CHECKS`` by its ``__name__``; its span names are per-layer
metrics that ``BENCHMARK.json`` lists.  A rename that breaks a path or a
metric name fails here instead of in a traced benchmark run.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from latmax import checks, cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


def test_span_recorder_installs_and_uninstalls(spans):
    originals = {claim: fn for claim, (fn, _) in cli.CHECKS.items()}
    assert set(spans.CHECK_FUNCTIONS) == set(originals)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for claim, (fn, _) in cli.CHECKS.items():
            assert fn is not originals[claim] and fn.__wrapped__ is originals[claim]
            assert getattr(checks, fn.__name__) is fn
    finally:
        recorder.uninstall()
    assert {claim: fn for claim, (fn, _) in cli.CHECKS.items()} == originals
    assert all(getattr(checks, fn.__name__) is fn for fn in originals.values())


def test_span_metrics_are_the_declared_per_layer_metrics(spans):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert dict(spans.per_layer_names()) == {m["name"]: m["unit"] for m in declared}
