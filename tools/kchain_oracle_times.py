"""Best-of-3 oracle times on k-chain geometries, as one JSON object.

    python tools/kchain_oracle_times.py [SRC]

SRC is the directory that holds the ``latmax`` package to time (default
``src``), so two checkouts can be timed by the same script.  Each input is
``random_cdim_k(m, k, seed)``; each run builds the geometry afresh, since the
lattice caches its oracle result, and times only ``maximal_complements_oracle``
(search plus self-check).  The node count shows that both sides searched the
same tree.  No workload of ``perfbench/`` runs the oracle on more than two
chains, so this script is the record of those runs.
"""
from __future__ import annotations

import json
import sys
import time

INPUTS = [(10, 4, 0), (11, 6, 0), (12, 3, 1), (9, 6, 0)]  # (m, k, seed)
REPEATS = 3


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0] if argv else "src")
    from latmax.corpus import random_cdim_k
    from latmax.sublattice import maximal_complements_oracle

    rows = {}
    for m, k, seed in INPUTS:
        times = []
        for _ in range(REPEATS):
            L = random_cdim_k(m, k, seed).lattice
            start = time.perf_counter()
            maximal_complements_oracle(L)
            times.append(time.perf_counter() - start)
        rows[f"{m},{k},{seed}"] = {"n": L.n, "nodes": L._oracle_stats.nodes, "best_s": round(min(times), 4)}
    print(json.dumps(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
