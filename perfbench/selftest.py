"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metrics
that BENCHMARK.json names, each with its unit, and that a wrong expected
output or an operation that raises is counted as a failure instead of
stopping the run, and that the trace's nesting check rejects spans that do
not nest.  Exits non-zero on the first violation.
"""
from __future__ import annotations

import json
import sys

import run


def expect(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(workload, trace=0):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)])
    return run.run(args, scale="tiny")[0]


def check_metric_names(spec):
    import workloads

    expect(set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}, "workload names differ")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result = tiny(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics differ from BENCHMARK.json {key}: "
                   f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
            for k, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{name}: {k} is not a number")
        print(f"selftest: every {key} metric emitted with its unit on every workload")


def check_failures_are_counted():
    import workloads
    from latmax import sublattice

    golden = workloads.GOLDEN_TEXT
    workloads.GOLDEN_TEXT = golden.replace("{(10)}", "{(11)}")
    try:
        result = tiny("cli-render")
    finally:
        workloads.GOLDEN_TEXT = golden
    expect(result["failed"] == 1 and not result["correct"], f"wrong golden output: {result['failed']} failed")

    original = sublattice.maximal_complements_oracle

    def broken(L, bound=None):
        raise RuntimeError("deliberate failure")

    sublattice.maximal_complements_oracle = broken
    try:
        result = tiny("verify-sweep")
    finally:
        sublattice.maximal_complements_oracle = original
    expect(result["failed"] > 0 and not result["correct"], "a raising operation was not counted as failed")
    expect(result["attempted"] > result["failed"], "the other operations of the run were not counted")
    print("selftest: a wrong expected output and a raising operation count as failures")


def check_nesting_is_checked():
    from spans import SpanRecorder

    def recorder(spans):
        r = SpanRecorder()
        for parent, start, end in spans:
            r.name_id.append(0)
            r.parent.append(parent)
            r.start.append(start)
            r.end.append(end)
        return r

    expect(recorder([(-1, 1, 4), (0, 2, 3), (-1, 5, 6)]).nesting_problem(0, 7) is None, "nested spans rejected")
    bad = {
        "child outside its parent": [(-1, 1, 4), (0, 2, 5)],
        "overlapping children": [(-1, 1, 4), (0, 2, 3), (0, 2.5, 3.5)],
        "overlapping top-level spans": [(-1, 1, 4), (-1, 3, 6)],
        "span outside the pass": [(-1, 1, 8)],
    }
    for what, spans in bad.items():
        expect(recorder(spans).nesting_problem(0, 7) is not None, f"{what} not detected")
    print("selftest: spans that do not nest are detected")


def main():
    run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_failures_are_counted()
    check_nesting_is_checked()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
