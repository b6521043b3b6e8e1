"""Independent brute-force oracles the tests check the library against.

Everything here works from first principles (the order matrix, raw set
operations) and deliberately avoids the code paths under test.
"""
from __future__ import annotations

from itertools import chain, combinations


def naive_glb(leq, a, b):
    """Unique greatest common lower bound from the order matrix, or None."""
    n = len(leq)
    lows = [z for z in range(n) if leq[z, a] and leq[z, b]]
    tops = [z for z in lows if all(leq[w, z] for w in lows)]
    return tops[0] if len(tops) == 1 else None


def naive_lub(leq, a, b):
    n = len(leq)
    ups = [z for z in range(n) if leq[a, z] and leq[b, z]]
    bots = [z for z in ups if all(leq[z, w] for w in ups)]
    return bots[0] if len(bots) == 1 else None


def naive_is_sd_join(L):
    for x in range(L.n):
        for y in range(L.n):
            for z in range(L.n):
                if L.join[x, y] == L.join[x, z] and L.join[x, L.meet[y, z]] != L.join[x, y]:
                    return False
    return True


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_canonical_join_rep(L, x):
    """Canonical join representation straight from the definition.

    Enumerates every join representation of x by join-irreducibles and picks
    the one that is way-below all of them and contained in each refinement
    of itself; None if no representation qualifies.
    """
    if x == L.bottom:
        return frozenset()
    ji_below = [j for j in sorted(L.irreducibles.ji) if L.leq[j, x]]
    reps = []
    for sub in powerset(ji_below):
        if sub and _fold_lub(L.leq, sub) == x:
            reps.append(frozenset(sub))
    winners = []
    for cand in reps:
        if all(_way_below(L.leq, cand, other) for other in reps) and all(
            not _way_below(L.leq, other, cand) or cand <= other for other in reps
        ):
            winners.append(cand)
    # The two defining clauses force uniqueness.
    assert len(winners) <= 1, (x, winners)
    return winners[0] if winners else None


def brute_canonical_meet_rep(L, x):
    if x == L.top:
        return frozenset()
    mi_above = [m for m in sorted(L.irreducibles.mi) if L.leq[x, m]]
    reps = []
    for sub in powerset(mi_above):
        if sub and _fold_glb(L.leq, sub) == x:
            reps.append(frozenset(sub))
    winners = []
    for cand in reps:
        if all(_way_above(L.leq, cand, other) for other in reps) and all(
            not _way_above(L.leq, other, cand) or cand <= other for other in reps
        ):
            winners.append(cand)
    assert len(winners) <= 1, (x, winners)
    return winners[0] if winners else None


def _way_below(leq, X, Y):
    return all(any(leq[x, y] for y in Y) for x in X)


def _way_above(leq, X, Y):
    return all(any(leq[y, x] for y in Y) for x in X)


def _fold_lub(leq, items):
    it = iter(items)
    acc = next(it)
    for v in it:
        acc = naive_lub(leq, acc, v)
        if acc is None:
            return None
    return acc


def _fold_glb(leq, items):
    it = iter(items)
    acc = next(it)
    for v in it:
        acc = naive_glb(leq, acc, v)
        if acc is None:
            return None
    return acc


def brute_removable_sets(L):
    """All nonempty C avoiding bottom/top with L minus C closed under both ops."""
    interior = [a for a in range(L.n) if a not in (L.bottom, L.top)]
    out = []
    for sub in powerset(interior):
        if not sub:
            continue
        keep = [a for a in range(L.n) if a not in sub]
        cset = set(sub)
        closed = all(
            L.meet[a, b] not in cset and L.join[a, b] not in cset
            for a in keep
            for b in keep
        )
        if closed:
            out.append(frozenset(sub))
    return out


def brute_max_complements(L):
    """Minimal removable sets: the independent subset-scan oracle (n small)."""
    removable = brute_removable_sets(L)
    return sorted(
        (c for c in removable if not any(r < c for r in removable)),
        key=lambda s: sorted(s),
    )


def closure_scheme_b(L, S):
    """Def 2.1(6)(b): iterate S -> (S^meet)^join to the fixpoint."""
    cur = frozenset(S)
    while True:
        met = _op_closure(L.meet, cur)
        joined = _op_closure(L.join, met)
        if joined == cur:
            return cur
        cur = joined


def _op_closure(table, items):
    vals = set(items)
    frontier = list(vals)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(vals):
                c = int(table[a, b])
                if c not in vals:
                    vals.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(vals)


def intersection_closure(sets):
    """Close a family of frozensets under pairwise intersection (fixpoint)."""
    family = set(sets)
    while True:
        fresh = {a & b for a in family for b in family} - family
        if not fresh:
            return family
        family |= fresh


def interval_set(L, lo, hi):
    return frozenset(c for c in range(L.n) if L.leq[lo, c] and L.leq[c, hi])


def random_cover_lattice(rng, n):
    """Random lattice attempt from a sampled cover DAG; None when not a lattice."""
    from latmax.lattice import NotALattice, from_cover_relations

    pairs = []
    for b in range(1, n):
        k = rng.randint(1, 2)
        lows = rng.sample(range(b), min(k, b))
        pairs.extend((a, b) for a in lows)
    try:
        return from_cover_relations(n, pairs)
    except NotALattice:
        return None


# -- scalar references for the two-chain enumeration --------------------------------


def scalar_fast_complements(m, phi):
    """The two-pass enumeration as a scalar loop: a list of Complement.

    The per-point branch that ``fast_complements`` evaluates as masks over
    all j at once, written out for one j at a time.
    """
    from latmax.cdim2 import (
        SHAPE_CHAIN1,
        SHAPE_CHAIN2,
        SHAPE_UNION,
        TYPE1,
        TYPE2,
        TYPE3,
        Complement,
    )
    from latmax.geometry import _as_chain

    phi = _as_chain(phi)
    phi.validate(m)
    perm = (0,) + phi.perm  # 1-based

    inv = [0] * (m + 1)
    for k in range(1, m + 1):
        inv[perm[k]] = k
    pm_chain2 = [0] * (m + 1)  # pm_chain2[k] = max point among first k of chain 2
    pm_chain1 = [0] * (m + 1)  # pm_chain1[j] = max chain-2 position among 1..j
    for k in range(1, m + 1):
        pm_chain2[k] = max(perm[k], pm_chain2[k - 1])
        pm_chain1[k] = max(inv[k], pm_chain1[k - 1])

    out = []
    emit = out.append
    for j in range(1, m + 1):
        pj = inv[j]
        same_step = pj != m and j < m and j + 1 == perm[pj + 1]
        if same_step:
            if pm_chain2[pj] == j:  # (j) = C2(j)
                emit(Complement(j, SHAPE_CHAIN1, TYPE2, j, pj))
            elif pm_chain1[j] == pj:  # (j) = C1(j)
                emit(Complement(j, SHAPE_CHAIN2, TYPE2, j, pj))
            else:
                emit(Complement(j, SHAPE_UNION, TYPE3, j, pj))
        else:
            if j < m and inv[j + 1] < pj:  # j+1 in C2(j)
                emit(Complement(j, SHAPE_CHAIN1, TYPE1, j, pj))
            if pj != m and perm[pj + 1] < j:  # phi(phi^-1(j)+1) in C1(j)
                emit(Complement(j, SHAPE_CHAIN2, TYPE1, j, pj))
    return out


def block_decompose_and_run(m, chains):
    """Two arbitrary chains by block splitting, on the scalar reference.

    Relabels the ground set so that chain 1 is the identity, splits at the
    common prefixes of the two chains (cut elements of the lattice), runs
    the scalar enumeration on every block, and re-embeds: block-local
    descriptors are shifted by the block's base prefix and mapped back to
    the original point names.  A cut element squeezed between two singleton
    blocks is doubly irreducible and contributes a singleton complement.
    """
    from latmax.cdim2 import SHAPE_CHAIN1, SHAPE_CHAIN2, TYPE2, Complement
    from latmax.geometry import _as_chain

    chain1, chain2 = (_as_chain(c) for c in chains)
    chain1.validate(m)
    chain2.validate(m)
    pos1 = chain1.pos
    norm = [pos1[p] for p in chain2.perm]  # chain 2 in relabeled points

    # Block boundaries: running max of norm equals the position index.
    cuts = [0]
    running = 0
    for k in range(1, m + 1):
        running = max(running, norm[k - 1])
        if running == k:
            cuts.append(k)

    out = []
    for bi in range(len(cuts) - 1):
        lo, hi = cuts[bi], cuts[bi + 1]
        size = hi - lo
        comps = scalar_fast_complements(size, [p - lo for p in norm[lo:hi]])
        for c in comps:
            out.append(
                Complement(
                    chain1.perm[lo + c.j - 1], c.shape, c.case, lo + c.c1_len, lo + c.c2_len
                )
            )
        if bi + 2 < len(cuts) and size == 1 and cuts[bi + 2] - hi == 1:
            out.append(Complement(chain1.perm[hi - 1], SHAPE_CHAIN1, TYPE2, hi, hi))
    out.sort(key=lambda c: (c.c1_len, 0 if c.shape != SHAPE_CHAIN2 else 1))
    return out


# -- loop references for the checker kernels ------------------------------------------


def subset_loop_sublattice_complements(L):
    """Complements of all nonempty proper sublattices, one closure per subset.

    The exhaustive branch of ``checks.sublattice_complements`` as a loop over
    the 2^n - 2 nonempty proper subsets in ascending mask order.
    """
    from latmax.lattice import bits
    from latmax.sublattice import is_sublattice

    full = L.full_mask()
    return [frozenset(bits(full & ~mask)) for mask in range(1, full) if is_sublattice(L, bits(mask))]


def unpruned_lemma54_instances(corpus, seed):
    """The lemma 5.4 instances (L, tag, C, w), trying every u2 in C."""
    from latmax.checks import _lattices, sublattice_complements
    from latmax.lattice import bits, is_sd
    from latmax.sublattice import NoCanonicalRep, strict_canonical_meetands

    for L in _lattices(corpus):
        if not is_sd(L):
            continue
        up, down = L.up_masks, L.down_masks
        for C in sublattice_complements(L, seed=seed):
            cmask = L.mask_of(C)
            for x in C:
                try:
                    scms = strict_canonical_meetands(L, C, x)
                except NoCanonicalRep:
                    continue
                for u1 in scms:
                    for u2 in C:
                        if down[u1] >> u2 & 1:
                            continue
                        box = cmask & up[x] & down[u2]
                        mid = box & down[u1] & ~(1 << x)
                        t = next((t for t in bits(mid) if not box & ~(up[t] | down[t])), None)
                        if t is not None:
                            yield L, "lemma5.4", C, {"x": x, "u1": u1, "u2": u2, "t": t}


def loop_doubled_order(L, iv):
    """The order matrix of the Day doubling of [iv.lo, iv.hi], entry by entry.

    New ids: outside elements first, then the pairs (x,0), (x,1) in x order.
    """
    import numpy as np

    inside = [x for x in range(L.n) if L.leq[iv.lo, x] and L.leq[x, iv.hi]]
    outside = [a for a in range(L.n) if a not in inside]
    new_id = {a: i for i, a in enumerate(outside)}
    pair_id = {}
    for x in inside:
        pair_id[(x, 0)] = len(new_id) + len(pair_id)
        pair_id[(x, 1)] = len(new_id) + len(pair_id)
    n2 = L.n + len(inside)
    leq = np.zeros((n2, n2), dtype=bool)
    for a in outside:
        for b in outside:
            leq[new_id[a], new_id[b]] = L.leq[a, b]
        for x in inside:
            for i in (0, 1):
                leq[new_id[a], pair_id[(x, i)]] = L.leq[a, x]
                leq[pair_id[(x, i)], new_id[a]] = L.leq[x, a]
    for x in inside:
        for y in inside:
            for i in (0, 1):
                for k in (0, 1):
                    leq[pair_id[(x, i)], pair_id[(y, k)]] = L.leq[x, y] and i <= k
    return leq
