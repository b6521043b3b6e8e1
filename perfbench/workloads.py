"""The four seeded workloads of the latmax benchmark.

Every workload is a class whose constructor is the set-up (input generation
from the seed) and whose ``ops(cycles)`` returns the operations of that many
whole cycles.  A run does ``round(seconds * CYCLES_PER_SECOND)`` cycles, so
the parent and a change measure the same inputs and the same size mix, and
every percentile rests on the same sample count; a faster program finishes
its run sooner.  ``CYCLES_PER_SECOND`` is the inverse of one cycle's length
on a 2-core Xeon with Python 3.11 and numpy 2.4, except where a workload says
otherwise.  An operation times only the call into latmax and then checks the
output outside the timed region; a wrong output or an exception counts as a
failed operation, never as a crash of the benchmark.

All calls go through module attributes (``cdim2.fast_complements``), so the
span recorder in ``spans.py`` sees them once it has rebound those names.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import statistics
import time
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from latmax import cdim2, cli, geometry, sublattice

# The claim ids in the order `latmax check all` reports them.
cli._register_checks()
CLAIMS = tuple(cli.CHECKS)

# The worked 10-point example of the paper, as `latmax cg-complements` prints it.
GOLDEN_PERM = "3 6 7 10 1 8 9 5 2 4"
GOLDEN_TEXT = (
    "{(2)}\t(2)={1,2}\n"
    "{(4)}\t(4)={1,2,3,4}\n"
    "[(5),C1(5)]\t(5)={1,3,5}\tC1(5)={1,2,3,4,5}\n"
    "[(5),C2(5)]\t(5)={1,3,5}\tC2(5)={1,3,5,6,7,8,9,10}\n"
    "[(6),C1(6)]\t(6)={3,6}\tC1(6)={1,2,3,4,5,6}\n"
    "[(8),C1(8)] u [(8),C2(8)]\t(8)={1,3,6,7,8}\tC1(8)={1,2,3,4,5,6,7,8}"
    "\tC2(8)={1,3,6,7,8,10}\n"
    "[(9),C1(9)]\t(9)={1,3,6,7,8,9}\tC1(9)={1,2,3,4,5,6,7,8,9}\n"
    "[(9),C2(9)]\t(9)={1,3,6,7,8,9}\tC2(9)={1,3,6,7,8,9,10}\n"
    "{(10)}\t(10)={3,6,7,10}\n"
)

_SET = r"\{[0-9,]*\}"
_TEXT_LINE = re.compile(
    r"(?:\{\(\d+\)\}|\[\(\d+\),C[12]\(\d+\)\](?: u \[\(\d+\),C2\(\d+\)\])?)"
    rf"\t\(\d+\)={_SET}(?:\tC[12]\(\d+\)={_SET}){{0,2}}"
)

SHAPE_CASES = {
    cdim2.SHAPE_CHAIN1: {cdim2.TYPE1, cdim2.TYPE2},
    cdim2.SHAPE_CHAIN2: {cdim2.TYPE1, cdim2.TYPE2},
    cdim2.SHAPE_UNION: {cdim2.TYPE3},
}


@dataclass
class Sample:
    """One timed call: its kind, wall seconds, the work it did, and the
    midpoint of the call on the ``time.perf_counter`` clock."""

    kind: str
    seconds: float
    work: float
    at: float


@dataclass
class Tally:
    """Operations attempted and failed, timed samples and output counters."""

    attempted: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)
    cli_bytes: int = 0
    problems: list = field(default_factory=list)

    def verdict(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, detail)

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        self.note(what, detail)

    def note(self, what: str, detail: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {detail}" if detail else what)

    def sample(self, kind: str, seconds: float, work: float) -> None:
        """Record a call; made right after the call returns."""
        self.samples.append(Sample(kind, seconds, work, time.perf_counter() - seconds / 2))


def run_op(tally: Tally, what: str, attempts: int, op) -> None:
    """Run one operation; an exception fails all of its attempts."""
    attempted, failed = tally.attempted, tally.failed
    try:
        op(tally)
    except Exception:  # noqa: BLE001 - a failing operation is a measurement
        tally.attempted = attempted + attempts
        tally.failed = failed + attempts
        tally.note(what, traceback.format_exc(limit=3))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def call_cli(tally: Tally, argv):
    """In-process ``latmax`` call: (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    seconds = time.perf_counter() - t0
    text = buf.getvalue()
    tally.cli_bytes += len(text.encode())
    return rc, text, seconds


def _relabel(chain1, chain2):
    """Chain 2 renamed so that chain 1 becomes the identity."""
    pos1 = {p: k for k, p in enumerate(chain1, 1)}
    return tuple(pos1[p] for p in chain2)


# -- output checks ---------------------------------------------------------------


def fast_output_problem(m, inv, comps, ops):
    """Why ``fast_complements(m, phi)`` output is wrong, or None.

    ``inv`` is phi^-1.  Descriptors must ascend in j (chain-1 interval first
    on a tie), carry c1_len = j and c2_len = phi^-1(j), pair a shape with a
    case it allows, and the comparison count must stay linear.
    """
    last = (0, 0)
    for c in comps:
        if not 1 <= c.j <= m:
            return f"j={c.j} out of 1..{m}"
        if c.c1_len != c.j or c.c2_len != inv[c.j - 1]:
            return f"bad prefix lengths at j={c.j}"
        if c.case not in SHAPE_CASES.get(c.shape, ()):
            return f"shape {c.shape} with case {c.case} at j={c.j}"
        key = (c.j, 1 if c.shape == cdim2.SHAPE_CHAIN2 else 0)
        if key <= last:
            return f"j does not ascend at j={c.j}"
        last = key
    if ops.comparisons > 12 * m:
        return f"comparisons/m = {ops.comparisons / m:.2f} > 12"
    return None


def relabel_output_problem(m, chains, comps):
    """Why ``decompose_and_run(m, chains)`` output is wrong, or None."""
    chain1, chain2 = chains
    pos1 = {p: k for k, p in enumerate(chain1, 1)}
    pos2 = {p: k for k, p in enumerate(chain2, 1)}
    last = 0
    for c in comps:
        if c.j not in pos1:
            return f"j={c.j} not a ground point"
        if c.c1_len != pos1[c.j] or c.c2_len != pos2[c.j]:
            return f"bad prefix lengths at j={c.j}"
        if c.case not in SHAPE_CASES.get(c.shape, ()):
            return f"shape {c.shape} with case {c.case} at j={c.j}"
        if c.c1_len < last:
            return f"c1_len does not ascend at j={c.j}"
        last = c.c1_len
    return None


def cli_output_problem(text, as_json, expected):
    """Why a ``cg-complements`` output is unparsable or miscounted, or None."""
    if as_json:
        try:
            rows = json.loads(text)
        except ValueError as exc:
            return f"json does not parse: {exc}"
        if not isinstance(rows, list):
            return "json output is not an array"
        got = len(rows)
        for r in rows:
            if set(r) != {"j", "shape", "class", "intervals"}:
                return f"bad json row keys {sorted(r)}"
    else:
        lines = text.splitlines()
        got = len(lines)
        for ln in lines:
            if not _TEXT_LINE.fullmatch(ln):
                return f"unparsable line {ln[:80]!r}"
    if got != expected:
        return f"{got} complements printed, {expected} expected"
    return None


# -- workloads --------------------------------------------------------------------


def _rng(name, seed):
    return np.random.default_rng([zlib.crc32(name.encode()), seed % 2**63])


def _perm(rng, m):
    return tuple((rng.permutation(m) + 1).tolist())


def _inverse(perm):
    inv = np.empty(len(perm), dtype=np.int64)
    inv[np.asarray(perm) - 1] = np.arange(1, len(perm) + 1)
    return tuple(inv.tolist())


def _twins(kind, first, second, what):
    """Two operations whose outputs must hold equally many complements.

    ``first`` and ``second`` run, time and check one call each and return
    its complement count; the second compares.  Keeping them as separate
    operations lets a schedule place other work between the twins.
    """
    seen = {}

    def op_first(tally):
        seen["count"] = first(tally)

    def op_second(tally):
        count = second(tally)
        expected = seen.pop("count", None)
        if expected is not None and count != expected:
            tally.fail(what, f"{expected} complements, its twin {count}")

    return (kind, 1, op_first), (kind, 1, op_second)


class EnumScale:
    """Library enumeration where the linear-time claim matters.

    A cycle holds one fast-path pair at the large size, two at the small
    size and two arbitrary-chain pairs, interleaved.  A fast-path pair is
    (id, phi) and (id, phi^-1): both are uniformly random permutations, and
    the two geometries are isomorphic, so their complement counts must agree
    (their shapes may differ, so only counts are compared).  An
    arbitrary-chain pair is (a, b) and (b, a), which generate the same
    geometry.
    """

    name = "enum-scale"
    CYCLES_PER_SECOND = 1 / 23
    PROBE_CYCLES = 16
    SIZES = {"full": (10**6, 10**5, 10**5), "probe": (10_000, 2_000, 2_000), "tiny": (300, 60, 60)}

    def __init__(self, seed, scale, out_dir):
        big, small, relabel = self.SIZES[scale]
        rng = _rng(self.name, seed)
        self.big = self._fast_input(big, rng)
        self.small = [self._fast_input(small, rng) for _ in range(4)]
        self.relabel = [(relabel, _perm(rng, relabel), _perm(rng, relabel)) for _ in range(2)]
        self.warm = _perm(rng, 1000), _perm(rng, 1000)

    @staticmethod
    def _fast_input(m, rng):
        phi = _perm(rng, m)
        return m, phi, _inverse(phi)

    def warm_up(self, tally):
        a, b = self.warm
        cdim2.fast_complements(len(a), a)
        cdim2.decompose_and_run(len(a), [a, b])

    def ops(self, cycles):
        out = []
        for k in range(cycles):
            big = self._fast_pair(self.big)
            s0, s1 = (self._fast_pair(self.small[(2 * k + i) % len(self.small)]) for i in range(2))
            r0, r1 = (self._relabel_pair(r) for r in self.relabel)
            out += [big[0], s0[0], r0[0], s0[1], r1[0], big[1], s1[0], r0[1], s1[1], r1[1]]
        return out

    @staticmethod
    def _fast_pair(fast_input):
        m, phi, inv = fast_input

        def call(perm, perm_inv):
            def run(tally):
                (comps, ops), dt = timed(cdim2.fast_complements, m, perm)
                tally.sample("fast", dt, m)
                problem = fast_output_problem(m, perm_inv, comps, ops)
                tally.verdict(f"fast_complements m={m}", problem is None, problem or "")
                return len(comps)

            return run

        return _twins("fast", call(phi, inv), call(inv, phi), f"fast_complements m={m} under phi -> phi^-1")

    @staticmethod
    def _relabel_pair(relabel_input):
        m, a, b = relabel_input

        def call(chains):
            def run(tally):
                comps, dt = timed(cdim2.decompose_and_run, m, chains)
                tally.sample("relabel", dt, m)
                problem = relabel_output_problem(m, chains, comps)
                tally.verdict(f"decompose_and_run m={m}", problem is None, problem or "")
                return len(comps)

            return run

        return _twins("relabel", call([a, b]), call([b, a]), f"decompose_and_run m={m} under a <-> b")

    def final_checks(self, tally):
        pass


class CliRender:
    """In-process ``latmax cg-complements`` whose output is Θ(m²) bytes.

    A cycle holds eight calls at the small size, five at the middle one and one
    at the largest, spread out; the output mode (text or ``--json``) and
    input mode (``--perm``, or ``--file`` with an arbitrary chain 1) rotate
    from call to call and from cycle to cycle.  With three cycles the median
    falls among the small calls and the tail percentile (the 11th-largest
    call) in the middle of the middle ones, away from a boundary between
    sizes, where run-to-run noise would move it most.  The expected
    complement count comes from the other enumeration path: block splitting
    for ``--perm`` inputs, the relabeled fast path for ``--file`` inputs.
    """

    name = "cli-render"
    CYCLES_PER_SECOND = 1 / 5.5
    PROBE_CYCLES = 6
    SIZES = {"full": (500, 800, 2000), "probe": (100, 160, 400), "tiny": (12, 20, 30)}
    CYCLE = (0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 0)  # indexes into SIZES
    MODES = (("text", "perm"), ("json", "file"), ("text", "file"), ("json", "perm"))

    def __init__(self, seed, scale, out_dir):
        rng = _rng(self.name, seed)
        self.sizes = self.SIZES[scale]
        self.inputs = {}
        for m in self.sizes:
            phi = _perm(rng, m)
            expected = len(cdim2.decompose_and_run(m, [tuple(range(1, m + 1)), phi]))
            self.inputs[m, "perm"] = (["--perm", " ".join(map(str, phi))], expected)
            chains = [_perm(rng, m) for _ in range(2)]
            path = out_dir / f"cli-{scale}-{m}.cg"
            path.write_text(geometry.format_cg_text(m, chains))
            expected = len(cdim2.fast_complements(m, _relabel(*chains))[0])
            self.inputs[m, "file"] = (["--file", str(path)], expected)

    def warm_up(self, tally):
        call_cli(tally, ["cg-complements", "--perm", GOLDEN_PERM])

    def ops(self, cycles):
        return [
            self._op(self.sizes[size], *self.MODES[(i + k) % len(self.MODES)])
            for k in range(cycles)
            for i, size in enumerate(self.CYCLE)
        ]

    def _op(self, m, output, source):
        argv, expected = self.inputs[m, source]
        argv = ["cg-complements", *argv] + (["--json"] if output == "json" else [])

        def op(tally):
            rc, text, dt = call_cli(tally, argv)
            tally.sample("cli", dt, len(text.encode()))
            problem = f"exit code {rc}" if rc != 0 else cli_output_problem(text, output == "json", expected)
            tally.verdict(f"cg-complements m={m} {output}/{source}", problem is None, problem or "")

        return "cli", 1, op

    def final_checks(self, tally):
        rc, text, _ = call_cli(tally, ["cg-complements", "--perm", GOLDEN_PERM])
        tally.verdict("golden 10-point example", rc == 0 and text == GOLDEN_TEXT, "output differs from the paper's")


class VerifySweep:
    """The acceptance sweep at per-geometry granularity.

    One operation builds a fresh two-chain geometry with verification,
    enumerates its complements on the fast path, materializes them, runs the
    oracle, compares the two sets and classifies every complement.  A cycle
    holds one geometry per size, so the size mix is the same in every run.
    """

    name = "verify-sweep"
    # A cycle takes about 30 ms; a 15 s run verifies about 1600 geometries
    # in 12 s, every one of them distinct.
    CYCLES_PER_SECOND = 80 / 3
    PROBE_CYCLES = 120
    SIZES = {"full": (7, 8, 9, 10), "probe": (7, 8, 9, 10), "tiny": (4, 5)}
    POOL_CYCLES = 400

    def __init__(self, seed, scale, out_dir):
        rng = _rng(self.name, seed)
        self.perms = [[_perm(rng, m) for m in self.SIZES[scale]] for _ in range(self.POOL_CYCLES)]

    def warm_up(self, tally):
        self._verify(self.perms[0][0])

    def ops(self, cycles):
        return [self._op(phi) for k in range(cycles) for phi in self.perms[k % len(self.perms)]]

    @staticmethod
    def _verify(phi):
        m = len(phi)
        G = geometry.build_cg(m, [tuple(range(1, m + 1)), phi], verify=True)
        comps, _ = cdim2.fast_complements(m, phi)
        fast_sets = [cdim2.materialize(G, c) for c in comps]
        bound = max(sublattice.resolve_oracle_bound(None), G.lattice.n)
        oracle_sets = set(sublattice.maximal_complements_oracle(G.lattice, bound=bound))
        same = set(fast_sets) == oracle_sets and len(fast_sets) == len(oracle_sets)
        wrong_tags = [
            c.j for c, s in zip(comps, fast_sets) if cdim2.classify_complement(G, s) != c.case
        ]
        return same, wrong_tags

    def _op(self, phi):
        def op(tally):
            (same, wrong_tags), dt = timed(self._verify, phi)
            tally.sample("verify", dt, 1)
            detail = "fast sets differ from oracle sets" if not same else f"tags differ at j={wrong_tags}"
            tally.verdict(f"verify phi={phi}", same and not wrong_tags, detail)

        return "verify", 1, op

    def final_checks(self, tally):
        pass


class CheckClaims:
    """In-process ``latmax check``; each claim is one operation.

    A pass is one ``latmax check <claim>`` call per claim, which is the work
    ``latmax check all`` does claim by claim.  Separate calls let the
    schedule put reference slices between them, so each is scaled by the
    speed it ran at (a whole ``check all`` takes 5 s).  At full scale the
    corpora are the CLI defaults with ``--seed`` set to the workload seed.
    A counterexample is a failure and its witness is saved in the output
    directory.
    """

    name = "check-claims"
    CYCLES_PER_SECOND = 1 / 5
    PROBE_CYCLES = 24
    ARGS = {"full": [], "probe": ["--max-m", "3", "--random", "3"], "tiny": ["--max-m", "3", "--random", "3"]}

    def __init__(self, seed, scale, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.args = ["--seed", str(seed), *self.ARGS[scale]]

    def warm_up(self, tally):
        # Seed 0 on every run: the random part of this small corpus takes
        # from 0.05 to 0.2 s, depending on the seed, and would make set-up
        # time vary with the workload seed.
        call_cli(tally, ["check", "all", "--seed", "0", *self.ARGS["tiny"]])

    def ops(self, cycles):
        return [self._op(claim) for _ in range(cycles) for claim in CLAIMS]

    def _op(self, claim):
        def op(tally):
            rc, text, dt = call_cli(tally, ["check", claim, *self.args])
            (report,) = [json.loads(ln) for ln in text.splitlines()]
            tally.sample("check", dt, report["instances_checked"])
            holds = report["status"] == "Holds"
            tally.verdict(f"check {claim}", holds and rc == 0, report["status"] if not holds else f"exit code {rc}")
            if not holds:
                path = self.out_dir / f"witness-{claim}-seed{self.seed}.json"
                path.write_text(json.dumps(report) + "\n")

        return "check", 1, op

    def final_checks(self, tally):
        pass


WORKLOADS = {w.name: w for w in (EnumScale, CliRender, VerifySweep, CheckClaims)}


# -- machine speed --------------------------------------------------------------------

# Median seconds of one reference slice on the machine named in the README.
REFERENCE_S = 1.0e-3


def _reference_slice():
    """A fixed piece of pure-Python work that shares no code with latmax.

    It keeps no objects alive and touches little memory, so its speed does
    not depend on the heap or the caches the surrounding calls leave behind.
    """
    s = 0
    for i in range(10_000):
        s += (i * 7) % 1013
    return s


def reference_ops(count):
    """``count`` timed reference slices; they are not latmax operations."""

    def op(tally):
        _, dt = timed(_reference_slice)
        tally.sample("reference", dt, 1)

    return [("reference", 0, op)] * count


def slowdown_around(fn):
    """``fn()`` and the slowdown around it: the median of three reference
    slices just before it and three just after, over ``REFERENCE_S``."""
    before = [timed(_reference_slice)[1] for _ in range(3)]
    out = fn()
    after = [timed(_reference_slice)[1] for _ in range(3)]
    return out, statistics.median(before + after) / REFERENCE_S


# A call's slowdown is the median of this many reference slices nearest to it.
LOCAL_SLICES = 9


def local_slowdowns(samples):
    """Each non-reference sample paired with the slowdown near it in time:
    the median of the ``LOCAL_SLICES`` reference slices nearest to the
    call's midpoint, over ``REFERENCE_S``."""
    refs = [s for s in samples if s.kind == "reference"]
    ref_at = np.array([s.at for s in refs])
    ref_slowdown = np.array([s.seconds for s in refs]) / REFERENCE_S
    return [
        (s, float(np.median(ref_slowdown[np.argsort(np.abs(ref_at - s.at))[:LOCAL_SLICES]])))
        for s in samples
        if s.kind != "reference"
    ]


# -- end-to-end metrics ---------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples, and at least 5% of
    the samples, beyond it: the 95th from 200 samples on.

    Returns (value, percentile, sample count); when there is no such
    percentile the maximum is returned at 100.  The 5% floor matters on
    verify-sweep, whose latencies have a heavy tail: their 11th-largest is
    set by a handful of geometries and moved by a fifth from seed to seed.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None, None, 0
    beyond = max(10, -(-n // 20))
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def timings(samples):
    """The end-to-end timing metrics of a list of samples, and the
    percentile and sample count of each tail.  A metric whose kind of call
    never completed is None; that run has failures, since a call that
    raises fails its operation."""
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s)

    def rate(kind, scale=1.0):
        ss = by_kind.get(kind)
        return sum(s.work for s in ss) / sum(s.seconds for s in ss) / scale if ss else None

    def ms(kind):
        return [s.seconds * 1e3 for s in by_kind.get(kind, ())]

    def median(xs):
        return statistics.median(xs) if xs else None

    def pass_seconds(kind, calls_per_pass):
        ss = by_kind.get(kind)
        return sum(s.seconds for s in ss) * calls_per_pass / len(ss) if ss else None

    cli_tail = tail(ms("cli"))
    verify_tail = tail(ms("verify"))
    metrics = {
        "enum_points_per_s": (rate("fast"), "points/s"),
        "relabel_points_per_s": (rate("relabel"), "points/s"),
        "cli_ms_p50": (median(ms("cli")), "ms"),
        "cli_ms_tail": (cli_tail[0], "ms"),
        "cli_mb_per_s": (rate("cli", 1e6), "MB/s"),
        "verify_ms_p50": (median(ms("verify")), "ms"),
        "verify_ms_tail": (verify_tail[0], "ms"),
        "verify_geoms_per_s": (rate("verify"), "1/s"),
        "check_all_s": (pass_seconds("check", len(CLAIMS)), "s"),
        "check_instances_per_s": (rate("check"), "1/s"),
    }
    tails = {
        "cli_ms_tail": {"percentile": cli_tail[1], "samples": cli_tail[2]},
        "verify_ms_tail": {"percentile": verify_tail[1], "samples": verify_tail[2]},
    }
    return metrics, tails


def end_to_end(samples):
    """Every end-to-end timing metric from a run's samples, plus details.

    Every call's time is scaled to the reference speed by the slowdown
    near it (see ``local_slowdowns``) before the metrics are taken.  The
    machine's speed drifts within a run as well as between runs, and the
    slices next to a call follow the speed it ran at better than the
    median over the whole run.  The details hold the run's slowdown (the
    median over all slices), the unscaled values and the sample counts.
    """
    scaled, tails = timings([Sample(s.kind, s.seconds / f, s.work, s.at) for s, f in local_slowdowns(samples)])
    unscaled, _ = timings(samples)
    details = {
        "slowdown": statistics.median(s.seconds for s in samples if s.kind == "reference") / REFERENCE_S,
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        **tails,
        "samples": dict(sorted(Counter(s.kind for s in samples).items())),
    }
    return scaled, details
