"""latmax benchmark: one workload, one seed, one run; JSON result on the last line.

    python3 perfbench/run.py --workload enum-scale --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process and one caller drive the workload in a
closed loop.  Set-up (import, input generation and warm-up) is repeated and
its median reported as ``setup_s``.  A run does a fixed number of whole
cycles of its workload, about ``--seconds`` long, with a small fixed probe
of each other workload spread between them, so every end-to-end metric has
a value on every workload.  Timed reference slices of fixed pure-Python
work are spread over the run too; each call's time is scaled by how much
slower than usual the slices nearest to it ran, which takes the machine's
drifting speed out of the comparison between runs.  With ``--trace 1`` that
pass runs at half the length untraced and is then replayed under the span
recorder, which reports per-layer metrics and the tracing overhead.  Spans,
witnesses and generated input files go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Reference slices spread over a measured pass; about 0.3 s of it.
REFERENCE_SLICES = 300
# Probe inputs are the same on every run, so that a probe metric measures
# the same work whatever the workload seed.
PROBE_SEED = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import latmax from this checkout's src/."""
    if not (SRC / "latmax" / "__init__.py").is_file():
        raise SystemExit(f"latmax sources not found under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import latmax
    import workloads  # noqa: F401 - imports the latmax modules it drives

    if Path(latmax.__file__).resolve().parent != (SRC / "latmax").resolve():
        raise SystemExit(f"imported latmax from {latmax.__file__}, not from {SRC}")


_IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t0)"
)


def import_seconds():
    """Wall time of importing the benchmark's latmax modules in a fresh
    interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def stamp(args, scale):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "latmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def warm_up(workload):
    def op(tally):
        workload.warm_up(tally)
        tally.verdict(f"{workload.name} warm-up", True)

    return op


def schedule(*op_lists):
    """Merge operation lists, spreading each evenly over the whole run.

    Machine speed drifts over seconds, so a metric measured in one short
    stretch of a run would be noisier than one measured across all of it.
    """
    keyed = [
        ((i + 0.5) / len(ops), n, op)
        for n, ops in enumerate(op_lists)
        for i, op in enumerate(ops)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def run(args, scale="full"):
    """One benchmark run; returns (result line, detail line).

    ``scale`` is "full", or "tiny" for the self-test's sizes.
    """
    from workloads import WORKLOADS, Tally, end_to_end, reference_ops, run_op, slowdown_around

    OUT_DIR.mkdir(exist_ok=True)
    native_cls = WORKLOADS[args.workload]
    probe_scale = "probe" if scale == "full" else "tiny"
    tally = Tally()

    built = {}

    def set_up():
        """One round of input generation and warm-up; keeps only the last
        round's workloads, so that earlier rounds' inputs can be freed."""
        built.clear()
        t0 = time.perf_counter()
        built["native"] = native_cls(args.seed, scale, OUT_DIR)
        built["probes"] = [cls(PROBE_SEED, probe_scale, OUT_DIR) for cls in WORKLOADS.values() if cls is not native_cls]
        for w in (built["native"], *built["probes"]):
            run_op(tally, f"{w.name} warm-up", 1, warm_up(w))
        return time.perf_counter() - t0

    # Each set-up time is scaled by the slowdown measured around it, as the
    # calls of the measured pass are.
    imports = [slowdown_around(import_seconds) for _ in range(SETUP_REPEATS)]
    rounds = [slowdown_around(set_up) for _ in range(SETUP_REPEATS)]
    native, probes = built["native"], built["probes"]
    import_s = statistics.median(t for t, _ in imports)
    setup_times = [t for t, _ in rounds]
    setup_s = import_s + statistics.median(setup_times)
    scaled_setup_s = statistics.median(t / f for t, f in imports) + statistics.median(t / f for t, f in rounds)

    def measured_pass(t, seconds):
        ops = schedule(
            native.ops(max(1, round(seconds * native.CYCLES_PER_SECOND))),
            *(w.ops(w.PROBE_CYCLES) for w in probes),
            reference_ops(REFERENCE_SLICES),
        )
        t0 = time.perf_counter()
        for kind, attempts, op in ops:
            run_op(t, kind, attempts, op)
        return t0, time.perf_counter()

    detail = {}
    if not args.trace:
        measured_pass(tally, args.seconds)
        for w in (native, *probes):
            w.final_checks(tally)
        timings, detail = end_to_end(tally.samples)
        detail["unscaled"]["setup_s"] = setup_s
        metrics = {
            "setup_s": (scaled_setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **timings,
        }
    else:
        from spans import SpanRecorder

        u0, u1 = measured_pass(tally, args.seconds / 2)
        recorder = SpanRecorder()
        traced = Tally()
        recorder.install()
        try:
            t0, t1 = measured_pass(traced, args.seconds / 2)
        finally:
            recorder.uninstall()
        for w in (native, *probes):
            w.final_checks(tally)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems
        metrics = recorder.metrics(t0, t1, u1 - u0, traced.cli_bytes)
        problem = recorder.nesting_problem(t0, t1)
        tally.verdict("trace nesting", problem is None, problem or "")
        recorder.write(OUT_DIR / f"trace-{args.workload}.npz")
        detail["spans"] = len(recorder.start)
        metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio")

    detail.update(import_s=import_s, setup_repeats_s=setup_times, problems=tally.problems, stamp=stamp(args, scale))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    result, detail = run(args)
    for problem in detail["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
