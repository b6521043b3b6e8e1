"""Finite lattices stored as dense order matrices with eager meet/join tables.

Elements are the integers ``0..n-1``.  The order relation is a read-only
boolean numpy matrix ``leq`` with ``leq[a, b]`` iff ``a <= b``; the meet and
join tables are built once at construction time, so every predicate scan
afterwards is a table lookup.  All objects here are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "CyclicInput",
    "Interval",
    "InvariantViolation",
    "IrreducibleInfo",
    "Lattice",
    "NotALattice",
    "bits",
    "canonical_join_rep",
    "canonical_meet_rep",
    "double_interval",
    "from_cover_relations",
    "from_cover_text",
    "indecomposable_components",
    "is_convex_subset",
    "is_distributive",
    "is_lower_semimodular",
    "is_sd",
    "is_sd_join",
    "is_sd_meet",
    "kappa",
    "kappa_bijection_check",
    "kappa_sigma",
    "mask_of",
    "minimal_elements",
    "to_cover_text",
]


class NotALattice(ValueError):
    """Some pair of elements has no unique glb or lub."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class CyclicInput(ValueError):
    """The input cover digraph contains a cycle."""


class InvariantViolation(AssertionError):
    """An internal self-check failed; raised explicitly, so ``python -O`` keeps it."""


@dataclass(frozen=True)
class Interval:
    """The interval [lo, hi] = {c : lo <= c <= hi} of a host lattice."""

    lo: int
    hi: int


@dataclass(frozen=True)
class IrreducibleInfo:
    ji: frozenset
    mi: frozenset
    lower_star: dict  # j -> j_*, the unique lower cover of a join-irreducible
    upper_star: dict  # m -> m^*, the unique upper cover of a meet-irreducible


class Lattice:
    """Immutable finite lattice on elements 0..n-1.

    Construction validates the order axioms and the existence of unique
    glb/lub for every pair (raising :class:`NotALattice` otherwise), using
    the down-set/up-set bitmask dictionary: in a lattice the down set of
    ``a ∧ b`` is exactly ``down(a) & down(b)``.
    """

    # The oracle's result, a tuple once computed, and whether the lattice is
    # SD-join, a bool once computed; each dual view has its own.
    _oracle_complements = None
    _sd_join = None

    def __init__(self, leq):
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be square, got {leq.shape}")
        if n == 0:
            raise NotALattice("empty carrier has no bottom/top")
        self._check_partial_order(leq)
        leq.flags.writeable = False
        self.n = n
        self.leq = leq

        # Bitmask per element of everything below / above it.
        down = _row_masks(leq.T)
        up = _row_masks(leq)
        self.down_masks = down
        self.up_masks = up

        down_id = {down[a]: a for a in range(n)}
        up_id = {up[a]: a for a in range(n)}
        # Filled as lists of rows and converted once: numpy scalar stores
        # would cost more than the lookups.
        meet = [[a] * n for a in range(n)]
        join = [[a] * n for a in range(n)]
        for a in range(n):
            meet_a, join_a, down_a, up_a = meet[a], join[a], down[a], up[a]
            for b in range(a + 1, n):
                z = down_id.get(down_a & down[b])
                if z is None:
                    raise NotALattice(f"no unique glb for {(a, b)}", pair=(a, b))
                meet_a[b] = meet[b][a] = z
                w = up_id.get(up_a & up[b])
                if w is None:
                    raise NotALattice(f"no unique lub for {(a, b)}", pair=(a, b))
                join_a[b] = join[b][a] = w
        self.bottom = reduce(lambda x, y: meet[x][y], range(n))
        self.top = reduce(lambda x, y: join[x][y], range(n))
        self.meet = _frozen_table(meet)
        self.join = _frozen_table(join)

    @staticmethod
    def _check_partial_order(leq):
        if not leq[np.diag_indices_from(leq)].all():
            raise ValueError("order relation is not reflexive")
        if (leq & leq.T).sum() > len(leq):
            raise ValueError("order relation is not antisymmetric")
        if ((~leq) & _bool_product(leq, leq)).any():
            raise ValueError("order relation is not transitive")

    @cached_property
    def dual(self) -> Lattice:
        """The order dual: an O(1) view sharing this lattice's arrays.

        Meet and join, down and up masks, bottom and top trade places and the
        order is ``leq.T``; nothing is re-validated, and the view's own cached
        properties fill in lazily.  The view keeps no reference back to this
        lattice (a cycle would leave lattices to the cyclic garbage
        collector), so ``L.dual.dual`` is a fresh view over L's arrays.
        """
        d = object.__new__(Lattice)
        d.n = self.n
        d.leq = self.leq.T
        d.meet, d.join = self.join, self.meet
        d.down_masks, d.up_masks = self.up_masks, self.down_masks
        d.bottom, d.top = self.top, self.bottom
        return d

    # -- structure ---------------------------------------------------------

    @cached_property
    def _canonical_reps(self) -> dict:
        """x -> canonical join representation of x, filled by canonical_join_rep."""
        return {}

    @cached_property
    def cover_matrix(self):
        """Boolean matrix of the covering relation (transitive reduction)."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        red = strict & ~_bool_product(strict, strict)
        red.flags.writeable = False
        return red

    @cached_property
    def covers(self):
        """Upper-cover adjacency: covers[a] = tuple of b with a ≺ b."""
        return tuple(tuple(bits(m)) for m in _row_masks(self.cover_matrix))

    @cached_property
    def lower_covers(self):
        return tuple(tuple(bits(m)) for m in _row_masks(self.cover_matrix.T))

    @cached_property
    def irreducibles(self) -> IrreducibleInfo:
        ji, mi = set(), set()
        lower_star, upper_star = {}, {}
        for a in range(self.n):
            lows = self.lower_covers[a]
            if a != self.bottom and len(lows) == 1:
                ji.add(a)
                lower_star[a] = lows[0]
            ups = self.covers[a]
            if a != self.top and len(ups) == 1:
                mi.add(a)
                upper_star[a] = ups[0]
        return IrreducibleInfo(frozenset(ji), frozenset(mi), lower_star, upper_star)

    @cached_property
    def atoms(self):
        return frozenset(self.covers[self.bottom])

    @cached_property
    def coatoms(self):
        return frozenset(self.lower_covers[self.top])

    @cached_property
    def heights(self):
        """heights[a] = length of the longest chain from bottom to a."""
        h = np.zeros(self.n, dtype=int)
        for a in sorted(range(self.n), key=lambda x: self.down_masks[x].bit_count()):
            for b in self.covers[a]:
                h[b] = max(h[b], h[a] + 1)
        h.flags.writeable = False
        return h

    # -- subsets -----------------------------------------------------------

    def interval_mask(self, lo: int, hi: int) -> int:
        return self.up_masks[lo] & self.down_masks[hi]

    def interval(self, lo: int, hi: int) -> frozenset:
        return frozenset(bits(self.interval_mask(lo, hi)))

    def mask_of(self, elems) -> int:
        return mask_of(elems)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def meet_of(self, elems) -> int:
        return int(reduce(lambda x, y: self.meet[x, y], elems))

    def join_of(self, elems) -> int:
        return int(reduce(lambda x, y: self.join[x, y], elems))

    def __repr__(self):
        return f"Lattice(n={self.n})"


# -- bitmasks of element sets --------------------------------------------------


def bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bool_product(a, b):
    """The boolean matrix product of a and b, through a BLAS float32 matmul.

    numpy does not send a boolean matmul to BLAS.  Each entry of the float
    product counts the k with a[i, k] and b[k, j], and float32 counts those
    exactly while n < 2^24.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _frozen_table(rows):
    """A read-only int32 array of a square table given as lists of rows."""
    table = np.array(rows, dtype=np.int32)
    table.flags.writeable = False
    return table


def _row_masks(matrix) -> list:
    """The rows of a boolean matrix as bitmasks: bit j of row i is matrix[i, j]."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def mask_of(ids) -> int:
    """The bitmask (a Python int) with bit i set for every integer i in ids.

    A negative id raises a ValueError that names it.
    """
    m = 0
    for i in ids:
        try:
            m |= 1 << operator.index(i)
        except ValueError:  # a negative shift count
            raise ValueError(f"element id {i} is negative") from None
    return m


def minimal_elements(L: Lattice, S) -> list:
    """The minimal elements of the set S, in S's iteration order.

    ``minimal_elements(L.dual, S)`` gives the maximal ones.
    """
    smask = mask_of(S)
    down = L.down_masks
    return [a for a in S if down[a] & smask == 1 << a]


def _least(L: Lattice, mask: int):
    """The least element of the nonempty set mask, or None when it has none.

    The AND of the down masks over the set holds the set's common lower
    bounds, and a least element is the one of them inside the set.
    ``_least(L.dual, mask)`` gives the greatest element.
    """
    lower = reduce(operator.and_, map(L.down_masks.__getitem__, bits(mask)))
    least = lower & mask
    return least.bit_length() - 1 if least else None


# -- construction ------------------------------------------------------------


def from_cover_relations(n: int, covers) -> Lattice:
    """Build and validate a lattice from cover pairs (lower, upper).

    The pairs may be any acyclic generating relation; the order is their
    reflexive-transitive closure.  Raises CyclicInput on a cycle and
    NotALattice when some pair has no unique glb/lub or there is no unique
    bottom/top.
    """
    if n < 0:
        raise ValueError(f"element count must be nonnegative, got {n}")
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise ValueError(f"cover pair {(lo, hi)} out of range for n={n}")
        succ[lo].append(hi)
        indeg[hi] += 1
    # Kahn toposort for cycle detection.
    order = [a for a in range(n) if indeg[a] == 0]
    deg = list(indeg)
    for a in order:
        for b in succ[a]:
            deg[b] -= 1
            if deg[b] == 0:
                order.append(b)
    if len(order) != n:
        raise CyclicInput("cover relation contains a cycle")
    leq = np.eye(n, dtype=bool)
    for a in reversed(order):
        for b in succ[a]:
            leq[a] |= leq[b]
    return Lattice(leq)


def to_cover_text(L: Lattice) -> str:
    """Cover-list serialization: first line n, then one `i j` per cover i ≺ j."""
    lines = [str(L.n)]
    for a in range(L.n):
        for b in L.covers[a]:
            lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def from_cover_text(text: str) -> Lattice:
    """Parse the cover-list format (`#` starts a comment)."""
    rows = _rows(text)
    if not rows:
        raise ValueError("empty cover-list input")
    head_no, head = rows[0]
    n = _int_field(head, head_no, head, "the element count")
    pairs = []
    for lineno, line in rows[1:]:
        ids = line.split()
        if len(ids) != 2:
            raise ValueError(f"line {lineno} ({_clip(line)}): a cover line needs two element ids")
        pairs.append(tuple(_int_field(t, lineno, line, "an element id") for t in ids))
    return from_cover_relations(n, pairs)


def _rows(text: str) -> list:
    """(line number, content) of every line with content once `#` comments are cut."""
    cut = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(cut, 1) if line]


def _int_field(token: str, lineno: int, line: str, field: str) -> int:
    """token as an int; otherwise a ValueError naming the line and the field expected."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno} ({_clip(line)}): expected {field}, got {_clip(token)}") from None


def _clip(text: str, width: int = 40) -> str:
    """repr of text, cut after width characters so a message stays short."""
    return repr(text) if len(text) <= width else repr(text[:width]) + "..."


# -- predicates ---------------------------------------------------------------


def is_sd_join(L: Lattice) -> bool:
    """Whether x∨y = x∨z implies x∨(y∧z) = x∨y, computed once per lattice.

    A finite lattice is SD-join iff κ^σ(m) exists for every meet-irreducible
    m (Freese, Ježek and Nation, *Free Lattices*, ch. 2): the set
    ↓m^* ∖ ↓m has a least element.  The cost is O(n) mask ANDs per
    meet-irreducible, against the O(n³) triples of the definition.
    """
    if L._sd_join is None:
        down = L.down_masks
        L._sd_join = all(
            _least(L, down[cover] & ~down[m]) is not None
            for m, cover in L.irreducibles.upper_star.items()
        )
    return L._sd_join


def is_sd_meet(L: Lattice) -> bool:
    return is_sd_join(L.dual)


def is_sd(L: Lattice) -> bool:
    return is_sd_join(L) and is_sd_meet(L)


def is_distributive(L: Lattice) -> bool:
    J, M = L.join, L.meet
    for x in range(L.n):
        jx = J[x]
        lhs = jx[M]                # x ∨ (y ∧ z)
        rhs = M[np.ix_(jx, jx)]    # (x ∨ y) ∧ (x ∨ z)
        if np.any(lhs != rhs):
            return False
    return True


def is_lower_semimodular(L: Lattice) -> bool:
    """x ≺ x∨y implies x∧y ≺ y, scanned over all pairs."""
    cov = L.cover_matrix
    idx = np.arange(L.n)
    prem = cov[idx[:, None], L.join]      # x ≺ x∨y
    concl = cov[L.meet, idx[None, :]]     # x∧y ≺ y
    return not np.any(prem & ~concl)


def is_convex_subset(L: Lattice, S) -> bool:
    """Whether [a, c] ⊆ S for every comparable pair a <= c inside S."""
    elems = sorted(S)
    smask = L.mask_of(elems)
    for a in elems:
        for c in elems:
            if L.leq[a, c] and L.interval_mask(a, c) & ~smask:
                return False
    return True


# -- canonical representations ------------------------------------------------


def canonical_join_rep(L: Lattice, x: int):
    """The canonical join representation of x, or None when it does not exist.

    Returns the unique antichain X of join-irreducibles with ∨X = x that is
    way-below every other join representation of x; the bottom's, with no
    lower covers, is the empty set.  x has one iff for every lower cover
    y ≺ x the set ↓x ∖ ↓y has a least element j_y, and then X = {j_y}.
    (⇐) Every join representation of x has, for each y, an element outside
    ↓y, and it lies above j_y; for y ≠ y′, y lies in ↓x ∖ ↓y′, so j_{y′} <= y
    and the j_y form an irredundant antichain.  (⇒) X refines {y, z} for
    every z in ↓x ∖ ↓y; taking z in X shows that one element of X lies
    outside ↓y, and it lies below every such z.
    """
    reps = L._canonical_reps
    if x not in reps:
        reps[x] = _canonical_rep_uncached(L, x)
    return reps[x]


def canonical_meet_rep(L: Lattice, x: int):
    """Dual of canonical_join_rep; the top's representation is the empty set."""
    return canonical_join_rep(L.dual, x)


def _canonical_rep_uncached(L: Lattice, x: int):
    down = L.down_masks
    joinands = {_least(L, down[x] & ~down[y]) for y in L.lower_covers[x]}
    if None in joinands:
        return None
    if L.join_of((L.bottom, *joinands)) != x:
        raise InvariantViolation(f"canonical joinands {sorted(joinands)} do not join to {x}")
    return frozenset(joinands)


# -- kappa maps ---------------------------------------------------------------


def kappa(L: Lattice, j: int):
    """The greatest element of K(j) = ↑j_* ∖ ↑j, or None when it has none.

    Defined for join-irreducible j.  A greatest element of L is a least one
    of ``L.dual``.  When the result exists it is always meet-irreducible:
    every upper cover of it must be above j, hence equals the join with j.
    """
    info = L.irreducibles
    if j not in info.ji:
        raise ValueError(f"element {j} is not join-irreducible")
    up = L.up_masks
    u = _least(L.dual, up[info.lower_star[j]] & ~up[j])
    if u is not None and u not in info.mi:
        raise InvariantViolation(f"kappa({j}) = {u} is not meet-irreducible")
    return u


def kappa_sigma(L: Lattice, m: int):
    """Least element of K^σ(m) = {v : v <= m^*, v ≰ m} if unique, else None."""
    if m not in L.irreducibles.mi:
        raise ValueError(f"element {m} is not meet-irreducible")
    return kappa(L.dual, m)


def kappa_bijection_check(L: Lattice) -> bool:
    """Whether κ is a total bijection Ji -> Mi with κ^σ as its inverse.

    κ^σ(κ(j)) = j for every j makes κ total and injective, and an injection
    between sets of equal size is a bijection.
    """
    info = L.irreducibles
    if len(info.ji) != len(info.mi):
        return False
    for j in info.ji:
        m = kappa(L, j)
        if m is None or kappa_sigma(L, m) != j:
            return False
    return True


# -- decomposition and doubling ----------------------------------------------


def indecomposable_components(L: Lattice):
    """Intervals between consecutive cut elements (elements comparable to all).

    Concatenating the component intervals by glued sum reconstructs L.  A
    one-element lattice has no components.
    """
    full = L.full_mask()
    cuts = [a for a in range(L.n) if L.up_masks[a] | L.down_masks[a] == full]
    cuts.sort(key=lambda a: L.down_masks[a].bit_count())
    return [Interval(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def double_interval(L: Lattice, iv: Interval) -> Lattice:
    """Day doubling of the interval [iv.lo, iv.hi].

    Each x in the interval is replaced by the pair (x,0) < (x,1) with the
    product order inside the doubled region; outside elements compare to a
    doubled pair exactly as they compared to x.  The result is rebuilt from
    its order matrix, which re-runs full lattice verification, so a slip in
    the order definition cannot survive silently.
    """
    if not L.leq[iv.lo, iv.hi]:
        raise ValueError(f"not an interval: {iv}")
    imask = L.interval_mask(iv.lo, iv.hi)
    inside = list(bits(imask))
    outside = [a for a in range(L.n) if not (imask >> a) & 1]
    # New ids: outside elements first, then (x,0),(x,1) pairs in x order;
    # proj maps each new id to the element of L it doubles or copies.
    proj = np.array(outside + [x for x in inside for _ in (0, 1)])
    grid = np.ix_(proj, proj)
    # Every pair compares as its projections do, except (x,1) ≰ (y,0).
    leq = L.leq[grid]
    k = len(outside)
    leq[k + 1 :: 2, k::2] = False
    doubled = Lattice(leq)
    # The projection (x, i) ↦ x, a ↦ a of a Day doubling is a lattice homomorphism.
    if (proj[doubled.meet] != L.meet[grid]).any() or (proj[doubled.join] != L.join[grid]).any():
        raise InvariantViolation("the doubling's projection does not preserve meet and join")
    return doubled
