"""Command-line front end: fast enumeration, oracle, checkers, bench, DOT.

Subcommands: cg-complements, oracle, check, bench, dot.  Exit codes: 0 ok,
2 parse error or oracle bound exceeded, 3 verify mismatch, 4 counterexample
found.  ``main`` is the one place that turns an error into exit code 2.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .cdim2 import (
    SHAPE_CHAIN1,
    SHAPE_CHAIN2,
    complements_to_json,
    decompose_and_run,
    fast_complements,
    materialize,
)
from .checks import CLAIMS as CHECKS  # claim id -> (checker, corpus builder)
from .geometry import BadPermutation, _as_chain, build_cg, parse_cg_text
from .lattice import Lattice, _clip, _rows, from_cover_text
from .sublattice import (
    OracleBoundExceeded,
    frattini,
    maximal_complements_oracle,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_COUNTEREXAMPLE = 4


class _InputError(ValueError):
    """Input the command line could not read; ``main`` reports it as a parse error."""


def _fmt_points(pts) -> str:
    return "{" + ",".join(map(str, sorted(pts))) + "}"


def _parse_perm(text: str):
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise BadPermutation("empty permutation")
    try:
        return tuple(map(int, tokens))
    except ValueError:
        bad = next(t for t in tokens if not _is_int(t))
        raise BadPermutation(f"cannot parse permutation: {_clip(bad)} is not an integer") from None


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _load_input(args):
    """('cg', m, chains) or ('lattice', Lattice, None) from --perm/--file.

    The chains are left unchecked: the library call that consumes them checks
    them.  Any failure to read the input is raised as an _InputError.
    """
    try:
        if args.perm is not None and args.file is not None:
            raise ValueError("--perm and --file are mutually exclusive")
        if args.perm is not None:
            perm = _parse_perm(args.perm)
            return "cg", len(perm), [tuple(range(1, len(perm) + 1)), perm]
        if args.file:
            text = Path(args.file).read_text()
            rows = _rows(text)
            if rows and len(rows[0][1].split()) == 2:
                m, chains = parse_cg_text(text)
                return "cg", m, [c.perm for c in chains]
            return "lattice", from_cover_text(text), None
        raise ValueError("exactly one of --perm / --file is required")
    except Exception as exc:  # noqa: BLE001 - every failure here is an input fault
        raise _InputError(str(exc)) from exc


def _load_lattice(args):
    """(G or None, L, element names) from --perm/--file, for oracle and dot."""
    kind, value, chains = _load_input(args)
    if kind == "lattice":
        return None, value, [str(a) for a in range(value.n)]
    G = build_cg(value, chains)
    return G, G.lattice, [_fmt_points(G.element_set(a)) for a in range(G.lattice.n)]


def cmd_cg_complements(args) -> int:
    kind, m, chains = _load_input(args)
    if kind != "cg":
        raise _InputError("cg-complements needs a geometry input")
    if len(chains) != 2:
        raise _InputError("cg-complements needs exactly two chains")
    comps = decompose_and_run(m, chains)

    if args.json:
        print(complements_to_json(comps, *chains))
    else:
        for line in _complement_lines_chains(*chains, comps):
            print(line)

    if args.verify:
        G = build_cg(m, chains)
        fast_sets = {materialize(G, c) for c in comps}
        oracle_sets = set(maximal_complements_oracle(G.lattice, bound=args.oracle_bound))
        if fast_sets != oracle_sets:
            print("VERIFY MISMATCH", file=sys.stderr)
            print("fast:", sorted(sorted(s) for s in fast_sets), file=sys.stderr)
            print("oracle:", sorted(sorted(s) for s in oracle_sets), file=sys.stderr)
            return EXIT_VERIFY
        # With --json, stdout carries only the array.
        note = sys.stderr if args.json else sys.stdout
        print(f"# verified against oracle: {len(oracle_sets)} complements agree", file=note)
    return EXIT_OK


def _complement_lines_chains(chain1, chain2, comps):
    chain1, chain2 = _as_chain(chain1), _as_chain(chain2)
    lines = []
    for c in comps:
        lo, maxima = c.endpoint_sets(chain1, chain2)
        if c.shape == SHAPE_CHAIN1:
            names = ["C1"]
        elif c.shape == SHAPE_CHAIN2:
            names = ["C2"]
        else:
            names = ["C1", "C2"]
        if len(maxima) == 1 and maxima[0] == lo:
            label = f"{{({c.j})}}"
            fields = [label, f"({c.j})={_fmt_points(lo)}"]
        else:
            parts = [f"[({c.j}),{nm}({c.j})]" for nm in names]
            label = " u ".join(parts)
            fields = [label, f"({c.j})={_fmt_points(lo)}"]
            fields += [
                f"{nm}({c.j})={_fmt_points(hiset)}"
                for nm, hiset in zip(names, maxima)
            ]
        lines.append("\t".join(fields))
    return lines


def cmd_oracle(args) -> int:
    _, L, names = _load_lattice(args)
    comps = maximal_complements_oracle(L, bound=args.oracle_bound)
    if args.json:
        print(
            json.dumps(
                {
                    "complements": [[names[a] for a in sorted(c)] for c in comps],
                    "frattini": [names[a] for a in sorted(frattini(L, bound=args.oracle_bound))],
                }
            )
        )
        return EXIT_OK
    print(f"# {len(comps)} complements of maximal sublattices")
    for c in comps:
        print(" ".join(names[a] for a in sorted(c)))
    fr = frattini(L, bound=args.oracle_bound)
    print("# frattini sublattice")
    print(" ".join(names[a] for a in sorted(fr)))
    return EXIT_OK


def _register_checks():
    """Does nothing.  The benchmark's workloads still call it (ROADMAP item 8)."""


def cmd_check(args) -> int:
    names = list(CHECKS) if args.claim == "all" else [args.claim]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise _InputError(f"unknown claim(s): {unknown}; known: {sorted(CHECKS)}")
    options = {"max_m": args.max_m, "seed": args.seed, "count": args.random}
    rc = EXIT_OK
    corpora = {}  # corpus builder -> (items, label), shared by the claims of this call
    for name in names:
        fn, build = CHECKS[name]
        if build not in corpora:
            corpora[build] = build(**{key: options[key] for key in inspect.signature(build).parameters})
        items, label = corpora[build]
        report = fn(items, label=label)
        print(report.to_json())
        if not report.holds:
            rc = EXIT_COUNTEREXAMPLE
            if args.out:
                Path(args.out).write_text(report.to_json() + "\n")
                print(f"# witness written to {args.out}", file=sys.stderr)
    return rc


def cmd_bench(args) -> int:
    import random as _random

    sizes = [int(t) if _is_int(t) else 0 for t in args.sizes.split(",")]
    if min(sizes) < 1:
        raise _InputError(f"--sizes takes comma-separated positive integers, got {_clip(args.sizes)}")
    rng = _random.Random(args.seed)
    rows = []
    for m in sizes:
        perm = corpus_mod.random_permutation(m, rng)
        t0 = time.perf_counter()
        comps, ops = fast_complements(m, perm)
        dt = time.perf_counter() - t0
        ratio = ops.comparisons / m
        rows.append((m, len(comps), ops.comparisons, ops.set_ops, ratio, dt))
        if args.json:
            record = {
                "m": m,
                "complements": len(comps),
                "comparisons": ops.comparisons,
                "set_ops": ops.set_ops,
                "wall_s": dt,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            }
            print(json.dumps(record))
        else:
            print(
                f"m={m:>8}  complements={len(comps):>8}  comparisons={ops.comparisons:>10}"
                f"  set_ops={ops.set_ops:>10}  comparisons/m={ratio:.2f}  wall={dt*1000:.2f}ms"
            )
    if not args.no_assert:
        bad = [r for r in rows if r[4] > 12]
        if bad:
            print(f"linearity assertion failed: {bad}", file=sys.stderr)
            return EXIT_COUNTEREXAMPLE
        # With --json, stdout carries only the records.
        note = sys.stderr if args.json else sys.stdout
        print("# linearity ok: comparisons/m <= 12 at every size", file=note)
    return EXIT_OK


def cmd_dot(args) -> int:
    G, L, labels = _load_lattice(args)
    fill = {}
    if G is not None and len(G.chains) == 2:
        fills = {"Type1": "lightblue", "Type2": "palegreen", "Type3": "lightsalmon"}
        for c in decompose_and_run(G.m, G.chains):
            for a in materialize(G, c):
                fill[a] = fills[c.case]
    else:
        for cset in maximal_complements_oracle(L, bound=args.oracle_bound):
            for a in cset:
                fill.setdefault(a, "lightgray")
    text = render_dot(L, labels, fill)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


def render_dot(L: Lattice, labels, fill) -> str:
    """DOT Hasse diagram ranked by height; meet-irreducibles outlined."""
    mi = L.irreducibles.mi
    lines = [
        "digraph hasse {",
        "  rankdir=BT;",
        '  node [shape=ellipse, fontsize=10, style=filled, fillcolor=white];',
    ]
    for a in range(L.n):
        attrs = [f'label="{labels[a]}"']
        if a in fill:
            attrs.append(f'fillcolor="{fill[a]}"')
        if a in mi:
            attrs.append("penwidth=2.5")
        lines.append(f"  n{a} [" + ", ".join(attrs) + "];")
    heights = L.heights
    for h in range(int(max(heights)) + 1 if L.n else 0):
        rank = [f"n{a}" for a in range(L.n) if heights[a] == h]
        if rank:
            lines.append("  { rank=same; " + "; ".join(rank) + "; }")
    for a in range(L.n):
        for b in L.covers[a]:
            lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latmax", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--perm", help="inline permutation for chain 2 (chain 1 = identity), 1-based")
        sp.add_argument("--file", help="input file: geometry (`m k` header) or lattice cover list")
        sp.add_argument(
            "--oracle-bound", type=int, metavar="N", help="exit 2 instead of running the oracle on n > N elements"
        )

    sp = sub.add_parser("cg-complements", help="fast enumeration of maximal-sublattice complements")
    add_common(sp)
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.add_argument("--verify", action="store_true", help="cross-run the brute-force oracle and diff")
    sp.set_defaults(fn=cmd_cg_complements)

    sp = sub.add_parser("oracle", help="brute-force complements + frattini sublattice")
    add_common(sp)
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("check", help="run hypothesis/theorem checkers")
    sp.add_argument("claim", help="claim id or `all`")
    sp.add_argument("--max-m", type=int, default=5, help="exhaustive cdim2 corpus bound")
    sp.add_argument("--random", type=int, default=120, help="random corpus size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="path for counterexample witness")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("bench", help="operation-count linearity benchmark")
    sp.add_argument("--sizes", default="10,100,1000,10000,100000")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-assert", action="store_true", help="skip the linearity assertion")
    sp.add_argument("--json", action="store_true", help="one JSON record per size")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("dot", help="emit a DOT Hasse diagram")
    add_common(sp)
    sp.add_argument("--out", help="write DOT here instead of stdout")
    sp.set_defaults(fn=cmd_dot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BadPermutation, _InputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except OracleBoundExceeded as exc:
        print(f"oracle bound exceeded: {exc}", file=sys.stderr)
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
