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

    perm = (0, *_as_chain(phi).validate(m)[0].tolist())  # 1-based

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

    (perm1, pos1), (perm2, _) = (_as_chain(c).validate(m) for c in chains)
    perm1 = perm1.tolist()
    norm = pos1[perm2 - 1].tolist()  # chain 2 in relabeled points

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
                    perm1[lo + c.j - 1], c.shape, c.case, lo + c.c1_len, lo + c.c2_len
                )
            )
        if bi + 2 < len(cuts) and size == 1 and cuts[bi + 2] - hi == 1:
            out.append(Complement(perm1[hi - 1], SHAPE_CHAIN1, TYPE2, hi, hi))
    out.sort(key=lambda c: (c.c1_len, 0 if c.shape != SHAPE_CHAIN2 else 1))
    return out


# -- loop references for the checker kernels ------------------------------------------


def subset_loop_sublattice_complements(L):
    """Masks of the complements of all nonempty proper sublattices, one
    closure per subset.

    The exhaustive branch of ``checks.sublattice_complements`` as a loop over
    the 2^n - 2 nonempty proper subsets in ascending mask order.
    """
    from latmax.lattice import bits
    from latmax.sublattice import is_sublattice

    full = L.full_mask()
    return [full & ~mask for mask in range(1, full) if is_sublattice(L, bits(mask))]


def pair_loop_is_convex_subset(L, S):
    """Whether [a, c] ⊆ S for every comparable pair a <= c inside S, pair by pair."""
    from latmax.lattice import mask_of

    elems = sorted(S)
    smask = mask_of(elems)
    for a in elems:
        for c in elems:
            if L.leq[a, c] and L.interval_mask(a, c) & ~smask:
                return False
    return True


def per_instance_lemma_42(corpus, label="corpus"):
    """``checks.check_lemma_42`` as one ``_sweep`` over its instances
    (L, tag, cmask, {"element": x}), each tested through ``REPLAY``."""
    from latmax import checks
    from latmax.lattice import bits

    def instances():
        for L in checks._lattices(corpus):
            sides = checks._sides(L, "lemma4.2")
            for cmask in checks.sublattice_complements(L) if sides else ():
                for x in bits(cmask):
                    for K, tag in sides:
                        if x != K.bottom:
                            yield L, tag, cmask, {"element": x}

    return checks._sweep("lemma42-scj", label, instances())


def per_instance_lemma54_instances(corpus):
    """The instances (L, "lemma5.4", cmask, w) of ``checks.check_lemma_54``.

    A t exists only when u2 lies above some t in C ∩ (x, u1], so u2 ranges
    over C ∩ ``reach``, where reach is the union of the up sets of those t
    less the down set of u1.
    """
    from latmax import checks
    from latmax.lattice import bits, is_sd
    from latmax.sublattice import _strict_joinands

    for L in checks._lattices(corpus):
        if not is_sd(L):
            continue
        up, down, dual = L.up_masks, L.down_masks, L.dual
        comparable = [u | d for u, d in zip(up, down)]
        for cmask in checks.sublattice_complements(L):
            for x in bits(cmask):
                # the strict canonical meetands of x, which exist as L is SD
                scms = _strict_joinands(dual, cmask, x)
                above = cmask & up[x]
                for u1 in bits(scms):
                    between = above & down[u1] & ~(1 << x)  # C ∩ (x, u1]
                    reach = 0
                    for t in bits(between):
                        reach |= up[t]
                    for u2 in bits(cmask & reach & ~down[u1]):
                        box = above & down[u2]
                        # t in C strictly above x, below u1 and u2, and
                        # comparable to every element of the box
                        mid = between & down[u2]
                        t = next((t for t in bits(mid) if not box & ~comparable[t]), None)
                        if t is not None:
                            yield L, "lemma5.4", cmask, {"x": x, "u1": u1, "u2": u2, "t": t}


def per_instance_lemma_54(corpus, label="corpus"):
    """``checks.check_lemma_54`` as one ``_sweep`` over its instances."""
    from latmax import checks

    return checks._sweep("lemma54-bridge", label, per_instance_lemma54_instances(corpus))


def unpruned_lemma54_instances(corpus):
    """The lemma 5.4 instances (L, tag, cmask, w), trying every u2 in C."""
    from latmax.checks import _lattices, sublattice_complements
    from latmax.lattice import bits, is_sd
    from latmax.sublattice import NoCanonicalRep, strict_canonical_meetands

    for L in _lattices(corpus):
        if not is_sd(L):
            continue
        up, down = L.up_masks, L.down_masks
        for cmask in sublattice_complements(L):
            C = list(bits(cmask))
            for x in C:
                try:
                    scms = strict_canonical_meetands(L, C, x)
                except NoCanonicalRep:
                    continue
                for u1 in sorted(scms):
                    for u2 in C:
                        if down[u1] >> u2 & 1:
                            continue
                        box = cmask & up[x] & down[u2]
                        mid = box & down[u1] & ~(1 << x)
                        t = next((t for t in bits(mid) if not box & ~(up[t] | down[t])), None)
                        if t is not None:
                            yield L, "lemma5.4", cmask, {"x": x, "u1": u1, "u2": u2, "t": t}


# -- the frozenset claim predicates --------------------------------------------------
# Each takes (host, C, w) with C a frozenset of element ids, as the witness
# replay did before complements became masks inside ``latmax.checks``; the
# mask predicates of ``checks.REPLAY`` are held to these.


def _ref_interval_fails(L, C, w):
    cset = frozenset(C)
    return L.interval(L.meet_of(cset), L.join_of(cset)) != cset


def _ref_convex_fails(L, C, w):
    from latmax.lattice import is_convex_subset

    return not is_convex_subset(L, C)


def _ref_hyp2_fails(L, C, w):
    from latmax.lattice import mask_of, minimal_elements

    minima = minimal_elements(L, C)
    cmask = mask_of(C)
    return len(minima) != 1 or any(
        L.interval_mask(minima[0], t) & ~cmask for t in minimal_elements(L.dual, C)
    )


def _ref_hyp4_fails(L, C, w):
    from latmax.lattice import mask_of

    cmask = mask_of(C)
    return not any(
        not (cmask >> m) & 1 and L.down_masks[m] & cmask == 0
        for m in L.lower_covers[w["element"]]
    )


def _ref_q2_fails(L, C, w):
    from latmax.lattice import minimal_elements

    info = L.irreducibles
    minima = minimal_elements(L, C)
    return (
        info.ji & C != set(minima)
        or len(minima) != 1
        or info.mi & C != set(minimal_elements(L.dual, C))
    )


def _ref_thm44_fails(L, C, w):
    from latmax.lattice import minimal_elements

    hit = L.coatoms & C
    return bool(hit) and (
        set(minimal_elements(L.dual, C)) != hit or len(hit) != 1 or _ref_interval_fails(L, C, w)
    )


def _ref_lemma42_fails(L, C, w):
    # strict_canonical_joinands as it stood on frozensets
    from latmax.lattice import canonical_join_rep, mask_of
    from latmax.sublattice import NoCanonicalRep

    cset, x = frozenset(C), w["element"]
    if x not in cset:
        raise ValueError(f"element {x} not in the complement set")
    rep = canonical_join_rep(L, x)
    if rep is None:
        raise NoCanonicalRep(f"no canonical representation at {x}")
    cmask = mask_of(cset)
    return not frozenset(j for j in rep if L.interval_mask(j, x) & ~cmask == 0)


def _ref_lemma54_fails(L, C, w):
    from latmax.lattice import mask_of

    return L.interval_mask(w["x"], w["u2"]) & ~mask_of(C) == 0


def _ref_distributive_fails(L, C, w):
    info = L.irreducibles
    lo, hi = L.meet_of(C), L.join_of(C)
    return not (L.interval(lo, hi) == C and info.ji & C == {lo} and info.mi & C == {hi})


def _ref_rest_is_sublattice(G, C, w):
    from latmax.lattice import bits, mask_of
    from latmax.sublattice import is_sublattice

    L = G.lattice
    return is_sublattice(L, bits(L.full_mask() & ~mask_of(C)))


def _ref_lemma64_2_fails(G, C, w):
    return not _ref_rest_is_sublattice(G, C, w)


def _ref_lemma64_1a_fails(G, C, w):
    return any(G.chain_member[G.point_closure(w["j"])]) or _ref_lemma64_2_fails(G, C, w)


def _ref_lemma64_1b_fails(G, C, w):
    return not G.chain_member[G.point_closure(w["j"])][w["x_chain"] - 1] or _ref_lemma64_2_fails(G, C, w)


def _ref_lemma64_3_maximal_fails(G, C, w):
    from latmax.lattice import bits, mask_of
    from latmax.sublattice import is_maximal_sublattice

    L = G.lattice
    return is_maximal_sublattice(L, bits(L.full_mask() & ~mask_of(C)))


def _ref_observation_reproduces(L, C, w):
    from latmax.checks import COUNTEREXAMPLE
    from latmax.checks import observation_suite

    rerun = observation_suite(L, frozenset(w["sublattice"]))
    return rerun.status == COUNTEREXAMPLE and rerun.witness["observation"] == w["observation"]


def _ref_on_dual(fails):
    return lambda L, C, w: fails(L.dual, C, w)


# Witness tag -> frozenset predicate, one entry per tag of ``checks.REPLAY``.
FROZENSET_REPLAY = {
    "hyp1": _ref_interval_fails,
    "hyp2": _ref_hyp2_fails,
    "hyp2-dual": _ref_on_dual(_ref_hyp2_fails),
    "hyp3": _ref_convex_fails,
    "hyp4": _ref_hyp4_fails,
    "q2": _ref_q2_fails,
    "thm4.4": _ref_thm44_fails,
    "thm4.5": _ref_interval_fails,
    "thm4.5-dual": _ref_on_dual(_ref_interval_fails),
    "thm5.1/5.5": _ref_interval_fails,
    "lemma4.2": _ref_lemma42_fails,
    "lemma4.2-dual": _ref_on_dual(_ref_lemma42_fails),
    "lemma5.4": _ref_lemma54_fails,
    "6.4(1a)": _ref_lemma64_1a_fails,
    "6.4(1b)": _ref_lemma64_1b_fails,
    "6.4(2)": _ref_lemma64_2_fails,
    "6.4(3)": _ref_rest_is_sublattice,
    "6.4(3')": _ref_lemma64_3_maximal_fails,
    "observation-suite": _ref_observation_reproduces,
    "distributive-baseline": _ref_distributive_fails,
    "bounded-baseline": _ref_interval_fails,
}


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


# -- an independent reference for the oracle ------------------------------------------


def full_rescan_oracle(L):
    """The plain first-violation search for the minimal removable sets.

    Each search node rescans from C's lowest target for the first violated
    pair and branches on it: "x joins C", and "y joins C, x never will".  It
    takes no forced move and keeps no cursor, and it refuses an element that
    would make C a proper superset of any set found so far.  Its blocked
    elements and result order are the library's.  Its admissibility rules
    are not: it visits the seeds in id order and keeps C inside one
    indecomposable component by a test, where the library seeds along a
    linear extension and needs no such test, so the two agree only if both
    rules are complete.  No cache, no bound, no self-check.
    """
    from latmax.lattice import bits, indecomposable_components, mask_of

    n = L.n
    pre = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if not L.leq[x, y] and not L.leq[y, x]:
                pre[int(L.meet[x, y])].append((x, y))
                pre[int(L.join[x, y])].append((x, y))

    blocked = (1 << L.bottom) | (1 << L.top)
    dbl_mask = mask_of(L.irreducibles.ji & L.irreducibles.mi)
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


# -- derived views only the tests read ------------------------------------------------


class TopOnly(LookupError):
    """No proper meet-irreducible on the chain contains the point; only X does."""


def least_mi_on_chain(G, i, x):
    """M_i(x): the least meet-irreducible prefix of chain i of G containing x.

    Raises TopOnly when the only chain element containing x that could
    qualify is the top X (which is never meet-irreducible).
    """
    mi = G.lattice.irreducibles.mi
    for k in range(G._pos(i, x), G.m + 1):
        a = G.chain_elements[i][k]
        if a in mi:
            return a
    raise TopOnly(f"no proper meet-irreducible on chain {i} contains {x}")


def cdim(G):
    """Convex dimension of G: the maximum antichain of meet-irreducibles."""
    return _poset_width(G.lattice, sorted(G.lattice.irreducibles.mi))


def _poset_width(L, elems):
    """Width of the subposet on elems via Dilworth (bipartite matching)."""
    k = len(elems)
    adj = [[b for b in range(k) if a != b and L.leq[elems[a], elems[b]]] for a in range(k)]
    match_r = [-1] * k

    def augment(a, seen):
        for b in adj[a]:
            if not seen[b]:
                seen[b] = True
                if match_r[b] == -1 or augment(match_r[b], seen):
                    match_r[b] = a
                    return True
        return False

    return k - sum(augment(a, [False] * k) for a in range(k))


def maximal_sublattices(L):
    """The maximal sublattices of L: the whole carrier less each oracle complement."""
    from latmax.sublattice import maximal_complements_oracle

    everything = frozenset(range(L.n))
    return [everything - c for c in maximal_complements_oracle(L)]


# -- chain geometries by set intersection ----------------------------------------


def reference_geometry(m, chains):
    """A chain geometry built from point sets, without chain coordinates.

    The family is every intersection of one prefix per chain, as frozensets
    sorted by size and then by sorted points; the order is inclusion, as an
    n × n list of bools, and the lattice computes its own meet and join
    tables by its down-set dictionary.  The chains are taken as valid
    permutations of 1..m.  Returns a namespace with ``family``,
    ``set_index``, ``lattice``, ``chain_elements`` and ``chain_member``.
    """
    from types import SimpleNamespace

    from latmax.lattice import Lattice, mask_of

    chains = [tuple(c) for c in chains]
    family = {frozenset(range(1, m + 1))}
    for c in chains:
        prefixes = [frozenset(c[:k]) for k in range(m + 1)]
        family = {a & p for a in family for p in prefixes}
    family = tuple(sorted(family, key=lambda s: (len(s), sorted(s))))
    set_index = {s: i for i, s in enumerate(family)}
    masks = [mask_of(p - 1 for p in s) for s in family]
    lattice = Lattice([[a & ~b == 0 for b in masks] for a in masks])
    chain_elements = tuple(tuple(set_index[frozenset(c[:k])] for k in range(m + 1)) for c in chains)
    chain_sets = [set(ids) for ids in chain_elements]
    chain_member = tuple(tuple(a in ids for ids in chain_sets) for a in range(len(family)))
    return SimpleNamespace(
        family=family,
        set_index=set_index,
        lattice=lattice,
        chain_elements=chain_elements,
        chain_member=chain_member,
    )
