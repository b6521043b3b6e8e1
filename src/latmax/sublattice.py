"""Sublattice generation, maximal sublattices, and their complements.

The central object is the brute-force oracle: the complements of maximal
(0,1)-sublattices of a lattice are exactly the minimal nonempty subsets C
avoiding bottom and top whose removal leaves a set closed under meet and
join.  The oracle enumerates those minimal removable sets by forced-element
propagation: starting from a single seed element, any pair x, y outside C
whose meet or join lands in C forces one of x, y into C, which yields a
binary branch-and-prune search.

Element subsets are plain frozensets of element ids in the public API;
closure, maximality and the oracle run on bitmasks (Python ints), and
convert only at that boundary.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .lattice import (
    InvariantViolation,
    Lattice,
    bits,
    canonical_join_rep,
    indecomposable_components,
    is_convex_subset,
    mask_of,
    minimal_elements,
    to_cover_text,
)
from .report import COUNTEREXAMPLE, HOLDS, CheckReport

__all__ = [
    "ComplementBounds",
    "DEFAULT_ORACLE_BOUND",
    "EmptyGenerator",
    "NoCanonicalRep",
    "OracleBoundExceeded",
    "UndefinedBound",
    "complement_bounds",
    "frattini",
    "generate_sublattice",
    "is_maximal_sublattice",
    "is_sublattice",
    "maximal_complements_oracle",
    "maximal_sublattices",
    "observation_suite",
    "strict_canonical_joinands",
    "strict_canonical_meetands",
    "sublattice_masks",
]

DEFAULT_ORACLE_BOUND = 18


class EmptyGenerator(ValueError):
    """generate_sublattice needs at least one generator."""


class OracleBoundExceeded(RuntimeError):
    """The lattice is larger than the configured oracle bound."""


class UndefinedBound(ValueError):
    """m̄(c) or m̲(c) has an empty defining set."""


class NoCanonicalRep(ValueError):
    """The canonical join/meet representation does not exist at this element."""


@dataclass(frozen=True)
class ComplementBounds:
    """m̄(c) and m̲(c): meet of sublattice elements above / join of those below c."""

    c: int
    m_over: int
    m_under: int


def resolve_oracle_bound(bound=None) -> int:
    if bound is not None:
        return int(bound)
    env = os.environ.get("LATMAX_ORACLE_BOUND")
    return int(env) if env else DEFAULT_ORACLE_BOUND


# -- closure and maximality ----------------------------------------------------


def _close(L: Lattice, closed: int, new: int, stop: int = 0) -> int:
    """Mask of the sublattice generated by closed | new; closed must be a sublattice.

    Worklist fixpoint: each round pairs only the elements added by the last
    round with every element held so far; pairs of older elements are done.
    ``held`` lists the elements held, each round's fresh ones last, and the
    k-th element pairs with itself and those before it, so each pair is
    taken once.  ``stop`` marks elements known to generate L together with
    ``closed``: once the closure reaches one of them it is all of L, and the
    full mask is returned at once.
    """
    rows = L.pair_masks
    mask = closed | new
    fresh = new & ~closed
    held = [*bits(closed), *bits(fresh)]
    while fresh:
        if mask & stop:
            return L.full_mask()
        grown = mask
        for k in range(len(held) - fresh.bit_count(), len(held)):
            grown = reduce(or_, map(rows[held[k]].__getitem__, held[: k + 1]), grown)
        fresh = grown & ~mask
        mask = grown
        held += bits(fresh)
    return mask


def generate_sublattice(L: Lattice, S) -> frozenset:
    """Smallest sublattice containing S."""
    mask = mask_of(S)
    if not mask:
        raise EmptyGenerator("sublattice generators must be nonempty")
    return frozenset(bits(_close(L, 0, mask)))


def is_sublattice(L: Lattice, M) -> bool:
    mask = mask_of(M)
    return bool(mask) and _close(L, 0, mask) == mask


def is_maximal_sublattice(L: Lattice, M) -> bool:
    """Proper sublattice such that adding any outside element generates all of L."""
    mask = mask_of(M)
    full = L.full_mask()
    if not mask or mask == full or _close(L, 0, mask) != mask:
        return False
    # Closure is monotone: a closure of M ∪ {x} that reaches an element
    # already known to generate L with M is all of L.
    generating = 0
    for x in bits(full & ~mask):
        if _close(L, mask, 1 << x, generating) != full:
            return False
        generating |= 1 << x
    return True


def sublattice_masks(L: Lattice) -> list:
    """Masks of all nonempty proper sublattices of L, ascending.

    One truth table over all 2^n subsets: bit M of ``table`` says subset M is
    closed.  ``has[a]`` marks the subsets holding a, and each incomparable
    pair a, b clears the subsets holding both without holding a ∧ b and
    a ∨ b.  The table has 2^n bits, so this is for small n only.
    """
    n = L.n
    ones = (1 << (1 << n)) - 1
    has = [ones // ((1 << (2 << a)) - 1) * (((1 << (1 << a)) - 1) << (1 << a)) for a in range(n)]
    table = ones & ~1 & ~(1 << L.full_mask())
    leq, meet, join = L.leq.tolist(), L.meet.tolist(), L.join.tolist()
    for a in range(n):
        for b in range(a + 1, n):
            if not leq[a][b] and not leq[b][a]:
                table &= ~(has[a] & has[b]) | (has[meet[a][b]] & has[join[a][b]])
    return list(bits(table))


# -- the oracle -----------------------------------------------------------------


def maximal_complements_oracle(L: Lattice, bound=None) -> list:
    """All complements of maximal (0,1)-sublattices, as sorted frozensets.

    Maximal sublattices of lattices with at least two atoms and two coatoms
    always contain bottom and top; the oracle adopts that normal form
    uniformly, so e.g. a chain's complements are exactly its interior
    singletons (the degenerate complements {bottom}/{top} that exist when
    bottom is meet-irreducible or top is join-irreducible are not listed).

    Search: for each seed c (restricted to sets whose minimum element is c),
    grow C by resolving the first violated closure constraint; a violation
    x∧y ∈ C or x∨y ∈ C with x, y outside C branches into "x joins C" and
    "y joins C, x never will".  Pruned by: complements live inside one
    indecomposable component, and no complement with two or more elements
    contains a doubly irreducible element.  Every surviving set is verified
    against is_maximal_sublattice.

    The first violation is the first unresolved pair (x, y outside C) in
    the order: targets z of C lowest first, then the preimage pairs of z in
    table order.  The scan is resumable: each stack entry carries a cursor
    (z, i) before which every pair is resolved.  C only grows along a search
    path, so a resolved pair stays resolved; a child resumes right after its
    parent's violating pair, or at (e, 0) when the element e it added lies
    below z, since e's own pairs are then the first unscanned ones.  The
    scan so returns exactly the violation a full rescan returns, and the
    search tree is unchanged.  The lowest-target-first order is kept on
    purpose: a variant that scanned the newest element's pairs first picked
    other violations, grew a far larger tree and did not finish a two-chain
    geometry with m = 16 in 500 s.
    """
    bound = resolve_oracle_bound(bound)
    if L.n > bound:
        raise OracleBoundExceeded(f"n={L.n} exceeds oracle bound {bound}")
    if L._oracle_complements is not None:
        return list(L._oracle_complements)

    n = L.n
    leq, meet, join = L.leq.tolist(), L.meet.tolist(), L.join.tolist()
    # Preimage pairs per target, incomparable pairs only (comparable pairs
    # can never violate closure), each as the mask of its two elements: a
    # pair is unresolved when its mask misses C.
    pre = [[] for _ in range(n)]
    for x in range(n):
        leq_x, meet_x, join_x = leq[x], meet[x], join[x]
        for y in range(x + 1, n):
            if not leq_x[y] and not leq[y][x]:
                pair = 1 << x | 1 << y
                pre[meet_x[y]].append(pair)
                pre[join_x[y]].append(pair)

    blocked = (1 << L.bottom) | (1 << L.top)
    dbl_mask = L.mask_of(L.irreducibles.ji & L.irreducibles.mi)
    comp_masks = [
        L.interval_mask(iv.lo, iv.hi) for iv in indecomposable_components(L)
    ] or [L.full_mask()]

    def first_violation(cmask: int, z: int, i: int):
        """(z, i) of the first unresolved pair at or after the cursor (z, i), or None."""
        rest = cmask >> z << z
        while rest:
            z = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            pairs = pre[z]
            for i in range(i, len(pairs)):
                if not cmask & pairs[i]:
                    return z, i
            i = 0
        return None

    found: list[int] = []

    def admissible(cmask: int, e: int) -> bool:
        if (blocked >> e) & 1 or e < seed:
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
        # (C, forbidden elements, cursor target, cursor pair index); every C
        # of this seed has the seed as its least element.
        stack = [(1 << seed, 0, seed, 0)]
        while stack:
            cmask, forb, z, i = stack.pop()
            viol = first_violation(cmask, z, i)
            if viol is None:
                found.append(cmask)
                continue
            z, i = viol
            pair = pre[z][i]
            x, y = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
            # "y joins C, x never will" goes on the stack first, so "x joins
            # C" is searched first.
            for e, child_forb in ((y, forb | (1 << x)), (x, forb)):
                if not (forb >> e) & 1 and admissible(cmask, e):
                    stack.append((cmask | (1 << e), child_forb, *((e, 0) if e < z else (z, i + 1))))

    # Doubly irreducible interior elements are removable singletons.
    for d in bits(dbl_mask & ~blocked):
        found.append(1 << d)

    found.sort(key=lambda m: m.bit_count())
    minimal: list[int] = []
    for cand in found:
        if not any(r & ~cand == 0 for r in minimal):
            minimal.append(cand)
    full = L.full_mask()
    for c in minimal:
        if not is_maximal_sublattice(L, bits(full & ~c)):
            raise InvariantViolation(f"oracle complement {list(bits(c))} leaves no maximal sublattice")
    result = sorted((frozenset(bits(c)) for c in minimal), key=sorted)
    L._oracle_complements = tuple(result)
    return list(result)


def maximal_sublattices(L: Lattice, bound=None) -> list:
    everything = frozenset(range(L.n))
    return [everything - c for c in maximal_complements_oracle(L, bound)]


def frattini(L: Lattice, bound=None) -> frozenset:
    """Intersection of all maximal sublattices (the whole lattice if none)."""
    subs = maximal_sublattices(L, bound)
    out = frozenset(range(L.n))
    for m in subs:
        out &= m
    return out


# -- strict canonical joinands/meetands -----------------------------------------


def strict_canonical_joinands(L: Lattice, C, x: int) -> frozenset:
    """Canonical joinands j of x whose whole interval [j, x] stays inside C."""
    cset = frozenset(C)
    if x not in cset:
        raise ValueError(f"element {x} not in the complement set")
    rep = canonical_join_rep(L, x)
    if rep is None:
        raise NoCanonicalRep(f"no canonical representation at {x}")
    cmask = _complement_mask(cset)
    return frozenset(j for j in rep if L.interval_mask(j, x) & ~cmask == 0)


@lru_cache(maxsize=1)
def _complement_mask(cset: frozenset) -> int:
    """mask_of(cset), kept for the last set: the checkers ask about every x
    of one complement in turn, on L and on its dual."""
    return mask_of(cset)


def strict_canonical_meetands(L: Lattice, C, x: int) -> frozenset:
    return strict_canonical_joinands(L.dual, C, x)


# -- complement bounds and the observation suite ---------------------------------


def complement_bounds(L: Lattice, M, c: int) -> ComplementBounds:
    melems = frozenset(M)
    if c in melems:
        raise ValueError(f"{c} lies in the sublattice")
    above = [m for m in melems if L.leq[c, m] and m != c]
    below = [m for m in melems if L.leq[m, c] and m != c]
    if not above or not below:
        raise UndefinedBound(f"no sublattice element strictly {'above' if not above else 'below'} {c}")
    return ComplementBounds(c, L.meet_of(above), L.join_of(below))


def observation_suite(L: Lattice, M) -> CheckReport:
    """Assert the general complement observations against a maximal sublattice M.

    Checks, in order: containment in one indecomposable component; no doubly
    irreducible element in a complement of size >= 2; maximal elements of the
    complement meet-irreducible and minimal ones join-irreducible; bottom/top
    membership under two atoms/coatoms; no split into incomparable halves;
    the m0-dichotomy (and its dual); saturation at maximal elements of
    M minus top (and dually); and the greatest/least-element subcover facts.
    Reports the first violated observation.
    """
    melems = frozenset(M)
    call = frozenset(range(L.n))
    cset = call - melems
    checked = 0

    def report(obs: str, detail: dict) -> CheckReport:
        witness = {
            "claim": "observation-suite",
            "observation": obs,
            "lattice": to_cover_text(L),
            "sublattice": sorted(melems),
            "complement": sorted(cset),
        }
        witness.update(detail)
        return CheckReport("observation-suite", f"n={L.n}", checked, COUNTEREXAMPLE, witness)

    info = L.irreducibles
    cmask = L.mask_of(cset)
    minima = minimal_elements(L, cset)
    maxima = minimal_elements(L.dual, cset)

    # 3.1 complement confined to one indecomposable component
    checked += 1
    comps = indecomposable_components(L)
    masks = [L.interval_mask(iv.lo, iv.hi) for iv in comps] or [L.full_mask()]
    if cset and not any(cmask & ~m == 0 for m in masks):
        return report("3.1-component", {})

    # 3.2 no doubly irreducible element when |C| >= 2
    checked += 1
    if len(cset) >= 2:
        dbl = info.ji & info.mi & cset
        if dbl:
            return report("3.2-doubly-irreducible", {"element": min(dbl)})

    # 3.3 maxima meet-irreducible, minima join-irreducible
    checked += 1
    bad = [a for a in maxima if a not in info.mi] + [a for a in minima if a not in info.ji]
    if bad:
        return report("3.3-irreducible-extremes", {"element": bad[0]})

    # 3.4 bottom/top belong to M given two atoms / two coatoms
    checked += 1
    if len(L.atoms) >= 2 and L.bottom not in melems:
        return report("3.4-bottom", {})
    if len(L.coatoms) >= 2 and L.top not in melems:
        return report("3.4-top", {})

    # 3.5 no partition into two mutually incomparable nonempty parts:
    # the comparability graph on C must be connected.
    checked += 1
    if cset:
        todo = set(cset)
        seen = {todo.pop()}
        frontier = list(seen)
        while frontier:
            a = frontier.pop()
            linked = {b for b in todo if L.leq[a, b] or L.leq[b, a]}
            todo -= linked
            frontier.extend(linked)
            seen |= linked
        if todo:
            return report("3.5-disconnected", {"part": sorted(todo)})

    # 3.6-3.8 are each checked on L and then, dually, on L.dual, where the
    # minimal elements of C are L's maximal ones; the dual halves keep
    # their own names and detail keys.
    sides = ((L, minima, maxima), (L.dual, maxima, minima))

    # 3.6 with m0 the meet of m̄ over minimal elements: C inside [m0, 1] or
    # disjoint from it, convex in the second case; dually m1, the join of m̲
    # over maximal elements.
    checked += 1
    names = (("3.6-m0-dichotomy", "3.6-convexity", "m0"), ("3.6-dual-dichotomy", "3.6-dual-convexity", "m1"))
    for (K, lows, _), (split, convexity, key) in zip(sides, names):
        try:
            m0 = K.meet_of([complement_bounds(K, melems, c).m_over for c in lows]) if lows else None
        except UndefinedBound:
            m0 = None
        if m0 is not None:
            inside = cmask & K.interval_mask(m0, K.top)
            if inside and inside != cmask:
                return report(split, {key: m0})
            if not inside and not is_convex_subset(L, cset):
                return report(convexity, {key: m0})

    # 3.7 m* maximal in M∖{1}, c in (m*, 1): every m in M not below m* joins c to 1.
    checked += 1
    for (K, _, _), name in zip(sides, ("3.7-saturation", "3.7-dual-saturation")):
        m_no_top = melems - {K.top}
        for mstar in m_no_top:
            if any(b != mstar and K.leq[mstar, b] for b in m_no_top):
                continue
            between = [c for c in range(K.n) if K.leq[mstar, c] and K.leq[c, K.top] and c not in (mstar, K.top)]
            for c in between:
                for m in melems:
                    if not K.leq[m, mstar] and K.join[m, c] != K.top:
                        return report(name, {"mstar": mstar, "c": c, "m": m})

    # 3.8 greatest element a of C has m̲(a) ≺ a; dually a least element c
    # has c ≺ m̄(c).
    checked += 1
    names = (("3.8-greatest-subcover", "a", "m_under"), ("3.8-least-cover", "c", "m_over"))
    for (K, _, highs), (name, a_key, bound_key) in zip(sides, names):
        if len(highs) == 1 and cset:
            a = highs[0]
            try:
                under = complement_bounds(K, melems, a).m_under
            except UndefinedBound:
                continue
            if a not in K.covers[under]:
                return report(name, {a_key: a, bound_key: under})

    return CheckReport("observation-suite", f"n={L.n}", checked, HOLDS)
