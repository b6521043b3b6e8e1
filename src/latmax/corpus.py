"""Deterministic lattice and geometry corpora for the checkers and tests."""
from __future__ import annotations

import random
from itertools import permutations, product

import numpy as np

from .geometry import ConvexGeometry, build_cg
from .lattice import Interval, Lattice, double_interval, from_cover_relations

__all__ = [
    "all_cdim2_geometries",
    "are_isomorphic",
    "boolean",
    "chain",
    "chain_products",
    "doubled_sequences",
    "glued",
    "m3",
    "n5",
    "random_cdim_k",
    "random_permutation",
]


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
    ids = []
    next_id = 0
    for i, p in enumerate(parts):
        amap = {}
        for a in range(p.n):
            if i > 0 and a == p.bottom:
                amap[a] = ids[i - 1][parts[i - 1].top]
            else:
                amap[a] = next_id
                next_id += 1
        ids.append(amap)
    leq = np.zeros((next_id, next_id), dtype=bool)
    for i, p in enumerate(parts):
        for a in range(p.n):
            for b in range(p.n):
                if p.leq[a, b]:
                    leq[ids[i][a], ids[i][b]] = True
    # Everything in an earlier part lies below everything in a later part.
    for i in range(len(parts)):
        for k in range(i + 1, len(parts)):
            for a in range(parts[i].n):
                for b in range(parts[k].n):
                    leq[ids[i][a], ids[k][b]] = True
    return Lattice(leq)


# -- geometries ------------------------------------------------------------------


def all_cdim2_geometries(m: int, verify: bool = True):
    """All m! two-chain geometries on 1..m (chain 1 the identity)."""
    identity = tuple(range(1, m + 1))
    return [
        build_cg(m, [identity, perm], verify=verify)
        for perm in permutations(identity)
    ]


def random_permutation(m: int, rng: random.Random):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_cdim_k(m: int, k: int, seed: int, verify: bool = True) -> ConvexGeometry:
    rng = random.Random(seed)
    chains = [tuple(range(1, m + 1))] + [random_permutation(m, rng) for _ in range(k - 1)]
    return build_cg(m, chains, verify=verify)


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


def doubled_sequences(depth: int, seed: int, count: int = 200, max_interval: int = 4):
    """Deterministic bounded lattices: random interval doublings of small
    distributive bases (1..depth doublings each, intervals capped in size)."""
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
                for hi in range(L.n)
                if L.leq[lo, hi] and L.interval_mask(lo, hi).bit_count() <= max_interval
            ]
            lo, hi = pairs[rng.randrange(len(pairs))]
            L = double_interval(L, Interval(lo, hi))
        out.append(L)
    return out


# -- isomorphism-aware dedup ---------------------------------------------------------


def _refined_labels(L: Lattice):
    """Iterated degree/height refinement; stabilizes within n rounds."""
    labels = [
        (int(L.heights[a]), len(L.lower_covers[a]), len(L.covers[a]))
        for a in range(L.n)
    ]
    while True:
        sigs = [
            (
                labels[a],
                tuple(sorted(labels[b] for b in L.lower_covers[a])),
                tuple(sorted(labels[b] for b in L.covers[a])),
            )
            for a in range(L.n)
        ]
        # Rank signatures by sorted order so labels are canonical across
        # relabelings of isomorphic lattices.
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        fresh = [ranking[s] for s in sigs]
        if len(set(fresh)) == len(set(labels)):
            return fresh
        labels = fresh


def are_isomorphic(L1: Lattice, L2: Lattice) -> bool:
    """Exact order-isomorphism test via class-constrained backtracking."""
    if L1.n != L2.n:
        return False
    lab1, lab2 = _refined_labels(L1), _refined_labels(L2)
    if sorted(lab1) != sorted(lab2):
        return False
    byclass: dict = {}
    for b, lb in enumerate(lab2):
        byclass.setdefault(lb, []).append(b)
    order = sorted(range(L1.n), key=lambda a: len(byclass.get(lab1[a], [])))
    image = [-1] * L1.n
    used = [False] * L2.n

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        a = order[k]
        for b in byclass.get(lab1[a], []):
            if used[b]:
                continue
            ok = True
            for a2 in order[:k]:
                if L1.leq[a, a2] != L2.leq[b, image[a2]] or L1.leq[a2, a] != L2.leq[image[a2], b]:
                    ok = False
                    break
            if ok:
                image[a] = b
                used[b] = True
                if extend(k + 1):
                    return True
                used[b] = False
                image[a] = -1
        return False

    return extend(0)
