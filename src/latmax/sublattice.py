"""Sublattice generation, maximal sublattices, and their complements.

The central object is the brute-force oracle: the complements of maximal
(0,1)-sublattices of a lattice are exactly the minimal nonempty subsets C
avoiding bottom and top whose removal leaves a set closed under meet and
join.  The oracle enumerates those minimal removable sets by forced-element
propagation: starting from a single seed element, any pair x, y outside C
whose meet or join lands in C forces one of x, y into C.  A pair with one
admissible element is a forced move; the rest is a binary branch-and-prune
search.

Element subsets are plain frozensets of element ids in the public API;
closure, maximality, the oracle, the Frattini sublattice and the complement
bounds m̄(c), m̲(c) run on bitmasks (Python ints), and convert only at that
boundary.  Closure reads the covers: z is the meet of a set above it unless
the set lies above an upper cover of z.  The observation suite that checks
complements against the general facts 3.1-3.8 is a checker, in
:mod:`latmax.checks`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    InvariantViolation,
    Lattice,
    _check_id,
    _join_of,
    _joinand_intervals,
    _mask_in,
    bits,
    mask_of,
)

__all__ = [
    "ComplementBounds",
    "DEFAULT_ORACLE_BOUND",
    "EmptyGenerator",
    "NoCanonicalRep",
    "OracleBoundExceeded",
    "OracleStats",
    "UndefinedBound",
    "complement_bounds",
    "frattini",
    "generate_sublattice",
    "is_maximal_sublattice",
    "is_sublattice",
    "maximal_complements_oracle",
    "strict_canonical_joinands",
    "strict_canonical_meetands",
    "sublattice_masks",
]

# Largest doubled lattice in the SD corpus of `latmax check`; not an oracle default.
DEFAULT_ORACLE_BOUND = 18


class EmptyGenerator(ValueError):
    """generate_sublattice needs at least one generator."""


class OracleBoundExceeded(RuntimeError):
    """The lattice is larger than the bound passed to the oracle."""


@dataclass(frozen=True)
class OracleStats:
    """The search statistics of one maximal_complements_oracle run.

    ``nodes`` counts the search nodes: each seed's root, both children of
    each branch, and the child of each forced move.  ``dead_ends`` counts
    the paths ended by a violated pair with no admissible element, and
    ``subsumed`` the paths ended because C holds a set already found.  Each
    element refused at a forced move or a dead end counts once, under the
    first rule that refuses it: ``forbidden`` on this path, or ``barred``
    (bottom, top, doubly irreducible, or before the seed in the extension).
    """

    nodes: int
    forced: int
    branches: int
    dead_ends: int
    forbidden: int
    barred: int
    subsumed: int


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
    """bound as an int, or DEFAULT_ORACLE_BOUND when bound is None.

    The oracle applies no default bound of its own.  DEFAULT_ORACLE_BOUND is
    the size limit of the CLI's SD corpus, and ``perfbench/workloads.py``
    reads it through this call.
    """
    return DEFAULT_ORACLE_BOUND if bound is None else int(bound)


# -- closure and maximality ----------------------------------------------------


def _is_closed(L: Lattice, mask: int) -> bool:
    """Whether the set mask M is closed under meet and join.

    M is closed iff no z outside M is the meet of M ∩ ↑z or the join of
    M ∩ ↓z: a ∧ b = z with a, b in M puts a and b in M ∩ ↑z, whose meet is
    then z.  A meet strictly above z lies above an upper cover of z
    (Freese, Ježek and Nation, *Free Lattices*, ch. 2), so M ∩ ↑z meets to
    z iff it is nonempty and inside ↑u for no upper cover u of z; the join
    test is the dual.  No pair of M is formed.
    """
    for masks, tops in ((L.up_masks, L.covers), (L.down_masks, L.lower_covers)):
        for z in bits(L.full_mask() & ~mask):
            part = mask & masks[z]
            if part:
                for u in tops[z]:
                    if part & masks[u] == part:
                        break
                else:
                    return False
    return True


def _grow(L: Lattice, held: int, new: int, stop: int = 0) -> int:
    """Mask of the sublattice generated by held | new, for a closed set held.

    An added element h can only make an outside z below it the meet of
    held ∩ ↑z (a set holding h), and an outside z above it the join of
    held ∩ ↓z, so only that side gets the cover test of ``_is_closed``.  A
    generated z joins the worklist.  ``stop`` marks elements known to
    generate L together with held: once the closure reaches one of them it
    is all of L, and the full mask is returned at once.
    """
    sides = ((L.down_masks, L.up_masks, L.covers), (L.up_masks, L.down_masks, L.lower_covers))
    work = list(bits(new & ~held))
    held |= new
    while work:
        h = work.pop()
        for span, masks, tops in sides:
            for z in bits(span[h] & ~held):
                part = held & masks[z]
                for u in tops[z]:
                    if part & masks[u] == part:
                        break
                else:
                    if (stop >> z) & 1:
                        return L.full_mask()
                    held |= 1 << z
                    work.append(z)
    return held


def generate_sublattice(L: Lattice, S) -> frozenset:
    """Smallest sublattice containing S."""
    mask = _mask_in(L, S)
    if not mask:
        raise EmptyGenerator("sublattice generators must be nonempty")
    return frozenset(bits(_grow(L, 0, mask)))


def is_sublattice(L: Lattice, M) -> bool:
    mask = _mask_in(L, M)
    return bool(mask) and _is_closed(L, mask)


def is_maximal_sublattice(L: Lattice, M) -> bool:
    """Proper sublattice such that adding any outside element generates all of L."""
    return _is_maximal_mask(L, _mask_in(L, M))


def _is_maximal_mask(L: Lattice, mask: int) -> bool:
    """is_maximal_sublattice on the mask of M."""
    full = L.full_mask()
    if not mask or mask == full or not _is_closed(L, mask):
        return False
    # Closure is monotone: a closure of M ∪ {x} that reaches an element
    # already known to generate L with M is all of L.
    generating = 0
    for x in bits(full & ~mask):
        if _grow(L, mask, 1 << x, generating) != full:
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

    With a bound, a lattice of more than bound elements raises
    OracleBoundExceeded; with none, the oracle runs at any size.  The
    search statistics of the run are kept on the lattice as an
    :class:`OracleStats`, ``L._oracle_stats``.

    Maximal sublattices of lattices with at least two atoms and two coatoms
    always contain bottom and top; the oracle adopts that normal form
    uniformly, so e.g. a chain's complements are exactly its interior
    singletons (the degenerate complements {bottom}/{top} that exist when
    bottom is meet-irreducible or top is join-irreducible are not listed).

    Search: the seeds go top-down along a linear extension, in decreasing
    order of their down masks read as integers (a proper down set is a
    proper submask, so a smaller integer), and for each seed c it grows
    sets C whose first element in that extension is c.  A pair x, y outside
    C whose meet or join lies in C is violated, and every removable set
    holding C holds x or y.  An element is admissible when it is not
    forbidden on this path, not bottom, top or doubly irreducible, and not
    before the seed in the extension (a seed not yet visited).  A violated
    pair with one admissible element is a forced move: that element joins
    C, in place.  Forced moves are taken to a fixpoint; then a path ends
    when a pair has no admissible element or when C holds a set already
    found (the cut).  Otherwise the first violation x∧y ∈ C or x∨y ∈ C
    branches into "y joins C, x never will", searched first and in place,
    and "x joins C", which waits on a stack.

    Every set found is minimal, so the sets found are the result, each
    checked against is_maximal_sublattice.  A set F found earlier than C
    and inside it ends C's path at the cut.  A set found later is never
    inside F: across seeds, it holds its own seed, which comes before F's
    seed in the extension and was barred while F was searched; within one
    seed, its path and F's part at a branch where F took "x never" and it
    took "x joins".  A set that is not minimal leaves a sublattice that is
    not maximal, so the self-check also guards this.

    The search stays complete: a minimal removable set R that holds C and
    no forbidden element holds x or y of every violated pair, and each of
    its elements is admissible (a complement of two or more elements holds
    no doubly irreducible element).  So R holds the element a forced move
    adds, and no such R exists past a pair with no admissible element.
    The cut ends the path toward R only when C holds a found F ⊆ C ⊆ R,
    so F = R.

    C stays inside one indecomposable component, as a complement of two or
    more elements must, with no test for it.  An element joins C only from
    a pair of incomparable elements violated at a target in C.  Such a pair
    lies inside one component, which holds its meet and join, so C takes no
    cut element, and a target that is none keeps C in its own component.
    A cut element seed's pairs that meet at it lie in the component above
    it, and those that join to it lie below it, so they are all barred.

    The first violation is the first unresolved pair in the order: targets
    t of C lowest id first, then the preimage pairs of t in table order.
    Each node carries one number z, and every pair at a target below z is
    resolved, so the scan starts at z.  C only grows along a search path,
    so a resolved pair stays resolved: a child of a branch at target t
    that adds e starts at min(e, t), and a forced move that adds f lowers z
    to min(z, f).  Forced moves never rescan the table: only a pair
    whose target just joined C, or which holds an element that just
    stopped being admissible (the x that "x never" forbids), can have
    become violated with at most one admissible element, and forced moves
    reach the same fixpoint in any order.  The lowest-target-first order is
    kept for branching on purpose: a variant that scanned the newest
    element's pairs first picked other violations, grew a far larger tree
    and did not finish a two-chain geometry with m = 16 in 500 s.
    """
    if bound is not None and L.n > bound:
        raise OracleBoundExceeded(f"n={L.n} exceeds oracle bound {bound}")
    if L._oracle_complements is not None:
        return list(L._oracle_complements)

    n, full, up, down = L.n, L.full_mask(), L.up_masks, L.down_masks
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

    def violated_with(cmask: int, d: int) -> list:
        """The unresolved pairs holding d whose meet or join lies in C."""
        meet_d, join_d = meet[d], join[d]
        return [
            1 << d | 1 << o
            for o in bits(full & ~(up[d] | down[d] | cmask))
            if (cmask >> meet_d[o] | cmask >> join_d[o]) & 1
        ]

    def first_violation(cmask: int, z: int):
        """(t, pair) of the first unresolved pair at a target t >= z of C, or None."""
        rest = cmask >> z << z
        while rest:
            t = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            for pair in pre[t]:
                if not cmask & pair:
                    return t, pair
        return None

    # No seed is bottom or top, and no element added to C is bottom, top or
    # doubly irreducible: a C grown from a seed holds that seed, so adding
    # any element gives it two or more, and such a complement holds no
    # doubly irreducible element.  A doubly irreducible seed d is neither the
    # meet nor the join of an incomparable pair, so pre[d] is empty and its
    # search ends at once with the singleton {d}.
    ends = (1 << L.bottom) | (1 << L.top)
    blocked = ends | mask_of(L.irreducibles.ji & L.irreducibles.mi)

    nodes = forced = branches = dead_ends = n_barred = n_forbidden = subsumed = 0
    found: list[int] = []
    rest = full  # the seeds not yet visited, all barred
    for seed in reversed(sorted(range(n), key=down.__getitem__)):
        # Every C of this seed has the seed as its first element in the extension.
        rest ^= 1 << seed
        barred = blocked | rest
        if (ends >> seed) & 1:
            continue
        stack = [(1 << seed, 0, seed, seed, -1)]
        while stack:
            cmask, forb, z, e, x = stack.pop()
            while True:
                nodes += 1
                dead = barred | forb
                # Forced moves to a fixpoint.  Only a pair whose target just
                # joined C, or which holds an element that just stopped being
                # admissible, can have become violated with at most one
                # admissible element.
                work = [pre[e], violated_with(cmask, x)] if x >= 0 else [pre[e]]
                low, ended = n, False  # low: the least id a forced move adds
                while work and not ended:
                    for pair in work.pop():
                        if cmask & pair:
                            continue
                        live = pair & ~dead
                        if live & (live - 1):
                            continue
                        n_forbidden += (pair & forb).bit_count()
                        n_barred += (pair & barred & ~forb).bit_count()
                        if not live:
                            ended = True
                            break
                        forced += 1
                        nodes += 1
                        cmask |= live
                        f = live.bit_length() - 1
                        if f < low:
                            low = f
                        work.append(pre[f])
                if ended:
                    dead_ends += 1
                    break
                if any(f & ~cmask == 0 for f in found):
                    subsumed += 1
                    break
                viol = first_violation(cmask, min(z, low))
                if viol is None:
                    found.append(cmask)
                    break
                branches += 1
                t, pair = viol
                x, y = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
                # "x joins C" waits on the stack; "y joins C, x never will"
                # is searched first, in place, and x stays the element just
                # forbidden.
                stack.append((cmask | (1 << x), forb, min(x, t), x, -1))
                cmask |= 1 << y
                forb |= 1 << x
                z, e = min(y, t), y

    for c in found:
        if not _is_maximal_mask(L, full & ~c):
            raise InvariantViolation(f"oracle complement {list(bits(c))} leaves no maximal sublattice")
    result = sorted((frozenset(bits(c)) for c in found), key=sorted)
    L._oracle_stats = OracleStats(nodes, forced, branches, dead_ends, n_forbidden, n_barred, subsumed)
    L._oracle_complements = tuple(result)
    return list(result)


def frattini(L: Lattice, bound=None) -> frozenset:
    """Intersection of all maximal sublattices (the whole lattice if none):
    the elements outside every complement."""
    removed = 0
    for C in maximal_complements_oracle(L, bound):
        removed |= mask_of(C)
    return frozenset(bits(L.full_mask() & ~removed))


# -- strict canonical joinands/meetands -----------------------------------------


def strict_canonical_joinands(L: Lattice, C, x: int) -> frozenset:
    """Canonical joinands j of x whose whole interval [j, x] stays inside C.

    A ValueError names an x, or an id of C, that is no element id 0..n-1,
    and an x outside C.
    """
    return frozenset(bits(_strict_joinands(L, _mask_in(L, C), x)))


def _strict_joinands(L: Lattice, cmask: int, x: int) -> int:
    """strict_canonical_joinands on the mask of C, as a mask.

    Reads the intervals [j, x] from the table that the lemma 4.2 and 5.4
    screens of ``latmax.checks`` read, so both apply one rule.
    """
    x = _check_id(L, x)
    if not cmask >> x & 1:
        raise ValueError(f"element {x} not in the complement set")
    pairs = _joinand_intervals(L)[x]
    if pairs is None:
        raise NoCanonicalRep(f"no canonical representation at {x}")
    strict = 0
    for j, interval in pairs:
        if interval & cmask == interval:
            strict |= 1 << j
    return strict


def strict_canonical_meetands(L: Lattice, C, x: int) -> frozenset:
    return strict_canonical_joinands(L.dual, C, x)


# -- complement bounds -------------------------------------------------------------


def complement_bounds(L: Lattice, M, c: int) -> ComplementBounds:
    """m̄(c) and m̲(c) of an element c outside the sublattice M.

    UndefinedBound when M has no element above c or none below it.  A
    ValueError names an id of c or M outside 0..n-1.
    """
    mmask = _mask_in(L, M)
    if mmask & _mask_in(L, [c]):
        raise ValueError(f"{c} lies in the sublattice")
    above, below = mmask & L.up_masks[c], mmask & L.down_masks[c]
    if not above or not below:
        raise UndefinedBound(f"no sublattice element strictly {'above' if not above else 'below'} {c}")
    return ComplementBounds(c, _join_of(L.dual, above), _join_of(L, below))
