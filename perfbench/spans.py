"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of every latmax module and rebinds
each wrapper wherever the original is bound: in its own module, in every
latmax module that imported it by name (``cli.fast_complements`` as well as
``cdim2.fast_complements``), and in module-level registries of tuples such
as ``cli.CHECKS``.  Methods and the ``Lattice`` constructor are wrapped on
their class.  Nothing in the program itself changes; ``uninstall`` puts every
binding back.

A span is (name, start, end, parent).  Self time is a span's duration minus
the durations of its direct children.  When spans nest (every child lies
inside its parent, and top-level spans are disjoint and lie inside the
pass), the self times plus the gaps between top-level spans add up to the
traced wall time; ``nesting_problem`` checks that they do nest.
"""
from __future__ import annotations

import functools
import gc
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

from latmax import cli
from workloads import CLAIMS

# Claim id -> name of the function that checks it, from the CLI's registry.
CHECK_FUNCTIONS = {claim: fn.__name__ for claim, (fn, _) in cli.CHECKS.items()}

# (span name, module, attribute paths).  Several paths may share one span.
SPANS = (
    ("cdim2.fast_complements", "cdim2", ("fast_complements",)),
    ("cdim2.decompose_and_run", "cdim2", ("decompose_and_run",)),
    ("cdim2.materialize", "cdim2", ("materialize",)),
    ("cdim2.classify_complement", "cdim2", ("classify_complement",)),
    ("cdim2.complements_to_json", "cdim2", ("complements_to_json",)),
    ("cdim2.endpoint_sets", "cdim2", ("Complement.endpoint_sets",)),
    ("geometry.ChainSpec.validate", "geometry", ("ChainSpec.validate",)),
    ("geometry.parse_cg_text", "geometry", ("parse_cg_text",)),
    ("geometry.build_cg", "geometry", ("build_cg",)),
    ("lattice.Lattice", "lattice", ("Lattice.__init__",)),
    ("lattice.is_sd_join", "lattice", ("is_sd_join",)),
    ("lattice.is_sd_meet", "lattice", ("is_sd_meet",)),
    ("lattice.is_lower_semimodular", "lattice", ("is_lower_semimodular",)),
    ("lattice.canonical_rep", "lattice", ("canonical_join_rep", "canonical_meet_rep")),
    ("lattice.double_interval", "lattice", ("double_interval",)),
    ("lattice.indecomposable_components", "lattice", ("indecomposable_components",)),
    ("sublattice.maximal_complements_oracle", "sublattice", ("maximal_complements_oracle",)),
    ("sublattice.is_maximal_sublattice", "sublattice", ("is_maximal_sublattice",)),
    ("sublattice.generate_sublattice", "sublattice", ("generate_sublattice",)),
    ("sublattice.is_sublattice", "sublattice", ("is_sublattice",)),
    ("sublattice.strict_canonical", "sublattice", ("strict_canonical_joinands", "strict_canonical_meetands")),
    *((f"checks.{fn}", "checks", (fn,)) for fn in CHECK_FUNCTIONS.values()),
    ("checks.sublattice_complements", "checks", ("sublattice_complements",)),
    ("corpus.all_cdim2_geometries", "corpus", ("all_cdim2_geometries",)),
    ("corpus.doubled_sequences", "corpus", ("doubled_sequences",)),
    ("cli.main", "cli", ("main",)),
)
MODULES = ("cdim2", "geometry", "lattice", "sublattice", "checks", "corpus", "cli")
COUNTS = (
    ("cdim2.comparisons_per_point", "count"),
    ("cdim2.set_ops_per_point", "count"),
    ("cdim2.complements_per_point", "count"),
    ("geometry.family_elements", "count"),
    ("sublattice.oracle.repeat_calls", "count"),
    ("sublattice.oracle.complements", "count"),
    *((f"checks.{claim}.instances", "count") for claim in CLAIMS),
    ("cli.output_bytes", "bytes"),
    *((f"{module}.errors", "count") for module in MODULES),
    ("runtime.gc_pause_s", "s"),
    ("runtime.gc_gen2_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unspanned_s", "s"),
    ("fail_ratio", "ratio"),
)


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span, _, _ in SPANS:
        out += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    return out + list(COUNTS)


class SpanRecorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.span_names = [span for span, _, _ in SPANS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()
        self.counts = Counter()
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._stack = []
        self._gc_start = 0.0
        self._oracle_seen = {}
        self._restore = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, span_id, module, fn, after):
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        errors, clock = self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(span_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def install(self):
        import latmax  # noqa: F401 - loads every latmax module

        modules = [m for name, m in sys.modules.items() if name == "latmax" or name.startswith("latmax.")]
        hooks = {
            "fast_complements": self._after_fast,
            "build_cg": self._after_build,
            "maximal_complements_oracle": self._after_oracle,
            **{fn: self._after_check(claim) for claim, fn in CHECK_FUNCTIONS.items()},
        }
        for span_id, (_, module, paths) in enumerate(SPANS):
            home = sys.modules[f"latmax.{module}"]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    orig = vars(owner)[attr]
                    self._set(owner, attr, self._wrap(span_id, module, orig, None))
                else:
                    orig = getattr(home, attr)
                    self._rebind(modules, orig, self._wrap(span_id, module, orig, hooks.get(attr)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            self._restore.pop()()

    def _set(self, owner, attr, value):
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, item in list(value.items()):
                        if isinstance(item, tuple) and any(x is orig for x in item):
                            value[dkey] = tuple(wrapper if x is orig else x for x in item)
                            self._restore.append(functools.partial(value.__setitem__, dkey, item))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- counts at the layer boundaries -----------------------------------------------

    def _after_fast(self, args, kwargs, out):
        comps, ops = out
        self.counts["points"] += args[0] if args else kwargs["m"]
        self.counts["comparisons"] += ops.comparisons
        self.counts["set_ops"] += ops.set_ops
        self.counts["complements"] += len(comps)

    def _after_build(self, args, kwargs, out):
        self.counts["family_elements"] += len(out.family)

    def _after_oracle(self, args, kwargs, out):
        L = args[0] if args else kwargs["L"]
        seen = self._oracle_seen.get(id(L))
        if seen is not None and seen() is L:
            self.counts["oracle_repeat_calls"] += 1
        else:
            self._oracle_seen[id(L)] = weakref.ref(L)
        self.counts["oracle_complements"] += len(out)

    def _after_check(self, claim):
        def after(args, kwargs, report):
            self.counts[f"instances.{claim}"] += report.instances_checked

        return after

    # -- results ------------------------------------------------------------------

    def _arrays(self):
        """Span arrays: parent, start, end, and own (self) seconds."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return parent, start, end, dur - child

    def nesting_problem(self, t0, t1):
        """Why the spans of a pass over [t0, t1] do not nest, or None."""
        parent, start, end, _ = self._arrays()
        nested = parent >= 0
        p = parent[nested]
        outside = (start[nested] < start[p]) | (end[nested] > end[p])
        if outside.any():
            return f"{int(outside.sum())} spans lie outside their parent"
        # Spans are recorded in start order; siblings must not overlap.
        order = np.argsort(parent, kind="stable")
        same = parent[order][1:] == parent[order][:-1]
        overlap = start[order][1:][same] < end[order][:-1][same]
        if overlap.any():
            return f"{int(overlap.sum())} spans overlap a sibling"
        top_start, top_end = start[~nested], end[~nested]
        if len(top_start) and (top_start[0] < t0 or top_end[-1] > t1):
            return "top-level spans lie outside the pass"
        return None

    def metrics(self, t0, t1, untraced_s, cli_bytes):
        """Per-layer metrics of a traced pass over [t0, t1] whose cycles
        took `untraced_s` seconds untraced."""
        parent, start, end, own = self._arrays()
        top = parent < 0
        k = len(self.span_names)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = np.bincount(ids, weights=own, minlength=k)
        calls = np.bincount(ids, minlength=k)
        # Time outside every span: the gaps before, between and after the
        # top-level spans.
        bounds = np.concatenate(([t0], np.column_stack((start[top], end[top])).ravel(), [t1]))
        unspanned = float((bounds[1::2] - bounds[0::2]).sum())
        wall_s = t1 - t0
        out = {}
        for i, span in enumerate(self.span_names):
            out[f"{span}.self_s"] = (float(self_s[i]), "s")
            out[f"{span}.calls"] = (int(calls[i]), "count")
        points = self.counts["points"] or 1
        out["cdim2.comparisons_per_point"] = (self.counts["comparisons"] / points, "count")
        out["cdim2.set_ops_per_point"] = (self.counts["set_ops"] / points, "count")
        out["cdim2.complements_per_point"] = (self.counts["complements"] / points, "count")
        out["geometry.family_elements"] = (self.counts["family_elements"], "count")
        out["sublattice.oracle.repeat_calls"] = (self.counts["oracle_repeat_calls"], "count")
        out["sublattice.oracle.complements"] = (self.counts["oracle_complements"], "count")
        for claim in CLAIMS:
            out[f"checks.{claim}.instances"] = (self.counts[f"instances.{claim}"], "count")
        out["cli.output_bytes"] = (cli_bytes, "bytes")
        for module in MODULES:
            out[f"{module}.errors"] = (self.errors[module], "count")
        out["runtime.gc_pause_s"] = (self.gc_pause_s, "s")
        out["runtime.gc_gen2_collections"] = (self.gc_gen2, "count")
        out["trace.overhead_ratio"] = (wall_s / untraced_s, "ratio")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unspanned_s"] = (unspanned, "s")
        return out

    def write(self, path):
        """All spans as arrays: name (index into names), parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.span_names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
