"""Deterministic lattice and geometry corpora for the checkers and tests."""
from __future__ import annotations

import random
from itertools import permutations, product

from .geometry import ConvexGeometry, build_cg
from .lattice import Interval, Lattice, bits, double_interval, from_cover_relations
from .sublattice import DEFAULT_ORACLE_BOUND

__all__ = [
    "all_cdim2_geometries",
    "boolean",
    "cdim2_corpus",
    "chain",
    "chain_products",
    "doubled_sequences",
    "glued",
    "m3",
    "n5",
    "random_cdim_k",
    "random_permutation",
    "sd_corpus",
]

# The largest interval, in elements, that doubled_sequences doubles.
MAX_DOUBLED_INTERVAL = 4


def chain(length: int) -> Lattice:
    """Chain with `length` cover edges (length+1 elements)."""
    return from_cover_relations(length + 1, [(i, i + 1) for i in range(length)])


def chain_products(dims) -> Lattice:
    """Direct product of chains with dims[i] elements each (distributive)."""
    dims = tuple(int(d) for d in dims)
    elems = list(product(*(range(d) for d in dims)))
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for e in elems:
        for k in range(len(dims)):
            if e[k] + 1 < dims[k]:
                f = e[:k] + (e[k] + 1,) + e[k + 1 :]
                covers.append((index[e], index[f]))
    return from_cover_relations(len(elems), covers)


def boolean(k: int) -> Lattice:
    return chain_products([2] * k)


def m3() -> Lattice:
    return from_cover_relations(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5() -> Lattice:
    return from_cover_relations(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])


def glued(parts) -> Lattice:
    """Glued sum: identify each part's top with the next part's bottom."""
    parts = list(parts)
    if not parts:
        raise ValueError("glued sum needs at least one part")
    covers, next_id, top = [], 0, None
    for p in parts:
        # A later part's bottom takes the previous part's top id.
        amap = {}
        for a in range(p.n):
            if a == p.bottom and top is not None:
                amap[a] = top
            else:
                amap[a] = next_id
                next_id += 1
        covers += [(amap[a], amap[b]) for a in range(p.n) for b in p.covers[a]]
        top = amap[p.top]
    return from_cover_relations(next_id, covers)


# -- geometries ------------------------------------------------------------------


def all_cdim2_geometries(m: int, verify: bool = True):
    """All m! two-chain geometries on 1..m (chain 1 the identity)."""
    identity = tuple(range(1, m + 1))
    return [
        build_cg(m, [identity, perm], verify=verify)
        for perm in permutations(identity)
    ]


def cdim2_corpus(max_m: int):
    """(every two-chain geometry with m <= max_m, label)."""
    out = [G for m in range(1, max_m + 1) for G in all_cdim2_geometries(m, verify=False)]
    return out, f"all cdim2 geometries m<={max_m}"


def random_permutation(m: int, rng: random.Random):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_cdim_k(m: int, k: int, seed: int) -> ConvexGeometry:
    rng = random.Random(seed)
    chains = [tuple(range(1, m + 1))] + [random_permutation(m, rng) for _ in range(k - 1)]
    return build_cg(m, chains)


# -- doubling corpus ---------------------------------------------------------------


def _doubling_bases():
    return [
        chain(1),
        chain(2),
        chain(3),
        chain_products([2, 2]),
        chain_products([2, 3]),
        chain_products([3, 3]),
        chain_products([2, 2, 2]),
    ]


def doubled_sequences(depth: int, seed: int, count: int):
    """Deterministic bounded lattices: random interval doublings of small
    distributive bases (1..depth doublings each, of intervals with at most
    MAX_DOUBLED_INTERVAL elements)."""
    rng = random.Random(seed)
    bases = _doubling_bases()
    out = []
    while len(out) < count:
        L = bases[rng.randrange(len(bases))]
        steps = rng.randint(1, depth)
        for _ in range(steps):
            pairs = [
                (lo, hi)
                for lo in range(L.n)
                for hi in bits(L.up_masks[lo])
                if L.interval_mask(lo, hi).bit_count() <= MAX_DOUBLED_INTERVAL
            ]
            lo, hi = pairs[rng.randrange(len(pairs))]
            L = double_interval(L, Interval(lo, hi))
        out.append(L)
    return out


def sd_corpus(seed: int, count: int):
    """(N5 plus the seeded doubled lattices with at most DEFAULT_ORACLE_BOUND
    elements among count of them, label)."""
    doubles = doubled_sequences(depth=3, seed=seed, count=count)
    out = [n5()] + [L for L in doubles if L.n <= DEFAULT_ORACLE_BOUND]
    return out, f"n5 + {len(out) - 1} doubled lattices (seed={seed})"
