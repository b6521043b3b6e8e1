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


def block_scan_is_sd_join(L):
    """x∨y = x∨z implies x∨(y∧z) = x∨y, scanned over all triples.

    The tables are read in numpy blocks of about 2^16 triples (x, y, z), so
    lattices of a few dozen elements stay fast; the test is the definition.
    """
    import numpy as np

    J, M = L.join, L.meet
    step = max(1, (1 << 16) // (L.n * L.n))
    for lo in range(0, L.n, step):
        jx = J[lo : lo + step]
        same = jx[:, :, None] == jx[:, None, :]  # x∨y = x∨z
        fixed = jx[:, M] == jx[:, :, None]  # x∨(y∧z) = x∨y
        if np.any(same & ~fixed):
            return False
    return True


def random_moore_lattice(rng, points, count):
    """The lattice of a random intersection-closed family on ``points`` points.

    ``count`` random subsets (as bitmasks) and the whole set are closed under
    intersection and ordered by inclusion.  Such families are often not
    semidistributive.
    """
    from latmax.lattice import Lattice

    whole = (1 << points) - 1
    family = sorted(intersection_closure({whole, *(rng.getrandbits(points) for _ in range(count))}))
    return Lattice([[a & ~b == 0 for b in family] for a in family])


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


def loop_kappa_bijection_check(L):
    """Whether κ is a total bijection Ji -> Mi with κ^σ as its inverse, loop by loop.

    κ must be total on Ji, its image must be Mi without repeats, and κ^σ(m)
    must exist and map back to m for every m in Mi.
    """
    from latmax.lattice import kappa, kappa_sigma

    info = L.irreducibles
    image = {}
    for j in info.ji:
        m = kappa(L, j)
        if m is None:
            return False
        image[j] = m
    if set(image.values()) != set(info.mi) or len(set(image.values())) != len(image):
        return False
    for m in info.mi:
        j = kappa_sigma(L, m)
        if j is None or image.get(j) != m:
            return False
    return True


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
    # The tables are read as lists of rows, which is much faster than numpy
    # scalar indexing on lattices of a few dozen elements.
    meet, join = L.meet.tolist(), L.join.tolist()
    cur = frozenset(S)
    while True:
        met = _op_closure(meet, cur)
        joined = _op_closure(join, met)
        if joined == cur:
            return cur
        cur = joined


def _op_closure(rows, items):
    """Close items under the symmetric operation whose table is rows.

    Each round pairs the elements found by the last round with every element
    held before it, so every pair of the result is taken once it is held.
    """
    vals = set(items)
    frontier = vals
    while frontier:
        held = list(vals)
        frontier = {rows[a][b] for a in frontier for b in held} - vals
        vals |= frontier
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


# -- the oracle before its resumable scan -------------------------------------------


def full_rescan_oracle(L):
    """``maximal_complements_oracle`` with a full rescan at every search node.

    The search, pruning and result order are the library's; only the
    violation scan differs: it restarts at C's lowest target every time
    instead of resuming from a cursor.  No cache, no bound, no self-check.
    """
    from latmax.lattice import bits, indecomposable_components

    n = L.n
    pre = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if not L.leq[x, y] and not L.leq[y, x]:
                pre[int(L.meet[x, y])].append((x, y))
                pre[int(L.join[x, y])].append((x, y))

    blocked = (1 << L.bottom) | (1 << L.top)
    dbl_mask = L.mask_of(L.irreducibles.ji & L.irreducibles.mi)
    comp_masks = [L.interval_mask(iv.lo, iv.hi) for iv in indecomposable_components(L)] or [L.full_mask()]

    def first_violation(cmask):
        for z in bits(cmask):
            for x, y in pre[z]:
                if not (cmask >> x) & 1 and not (cmask >> y) & 1:
                    return x, y
        return None

    found = []

    def admissible(cmask, e):
        if (blocked >> e) & 1 or e < (cmask & -cmask).bit_length() - 1:
            return False
        grown = cmask | (1 << e)
        if grown & dbl_mask and grown != grown & -grown:
            return False
        if not any(grown & ~cm == 0 for cm in comp_masks):
            return False
        return not any(r != grown and r & ~grown == 0 for r in found)

    for seed in range(n):
        if (blocked >> seed) & 1 or (dbl_mask >> seed) & 1:
            continue
        stack = [(1 << seed, 0)]
        while stack:
            cmask, forb = stack.pop()
            viol = first_violation(cmask)
            if viol is None:
                found.append(cmask)
                continue
            x, y = viol
            if not (forb >> y) & 1 and admissible(cmask, y):
                stack.append((cmask | (1 << y), forb | (1 << x)))
            if not (forb >> x) & 1 and admissible(cmask, x):
                stack.append((cmask | (1 << x), forb))

    found.extend(1 << d for d in bits(dbl_mask & ~blocked))
    found.sort(key=lambda m: m.bit_count())
    minimal = []
    for cand in found:
        if not any(r & ~cand == 0 for r in minimal):
            minimal.append(cand)
    return sorted((frozenset(bits(c)) for c in minimal), key=sorted)


def _refined_labels(L):
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


def are_isomorphic(L1, L2) -> bool:
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


# -- the set-by-set renderer the column renderer replaced ---------------------------


def _reference_points(pts) -> str:
    return "{" + ",".join(map(str, sorted(pts))) + "}"


def reference_complements_text(comps, chain1, chain2) -> str:
    """``cg-complements`` text output, one ``Complement`` and frozenset at a time."""
    from latmax.cdim2 import SHAPE_CHAIN1, SHAPE_CHAIN2
    from latmax.geometry import _as_chain

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
        fields = [f"({c.j})={_reference_points(lo)}"]
        if len(maxima) == 1 and maxima[0] == lo:
            fields.insert(0, f"{{({c.j})}}")
        else:
            fields.insert(0, " u ".join(f"[({c.j}),{nm}({c.j})]" for nm in names))
            fields += [f"{nm}({c.j})={_reference_points(hi)}" for nm, hi in zip(names, maxima)]
        lines.append("\t".join(fields) + "\n")
    return "".join(lines)


def reference_complements_json(comps, chain1, chain2) -> str:
    """``cg-complements --json`` output through ``json.dumps`` of one dict per row."""
    import json

    from latmax.geometry import _as_chain

    chain1, chain2 = _as_chain(chain1), _as_chain(chain2)
    rows = []
    for c in comps:
        lo, maxima = c.endpoint_sets(chain1, chain2)
        rows.append(
            {
                "j": c.j,
                "shape": c.shape,
                "class": c.case,
                "intervals": [[sorted(lo), sorted(hi)] for hi in maxima],
            }
        )
    return json.dumps(rows)
