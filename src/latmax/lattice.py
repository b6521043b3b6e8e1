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
from graphlib import CycleError, TopologicalSorter

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

    ``tables=(meet, join)`` supplies the tables instead, for an order whose
    meet and join are known, and they are certified rather than computed:
    meet[a, b] passes when it lies below a and b and |↓meet[a, b]| is
    |↓a ∩ ↓b|, counted by one float32 product leqᵀ·leq, which makes it the
    glb; join is the dual.  The first pair that fails raises the same
    :class:`NotALattice` message as the computed path, and an entry outside
    0..n-1 a ValueError.  The tables are kept as read-only int32 arrays
    (an int32 array is taken over, not copied).
    """

    # The oracle's result, a tuple once computed, and the OracleStats of the
    # search that computed it; the masks of the proper sublattices'
    # complements the checks quantify over, a tuple once computed; whether
    # the lattice is SD-join, a bool once computed; and the intervals [j, x]
    # of the canonical joinands j of each x, a tuple once computed.  A dual
    # view takes its primal's covers and irreducibles, but keeps these five
    # of its own.
    _oracle_complements = None
    _oracle_stats = None
    _sublattice_complements = None
    _sd_join = None
    _joinand_intervals = None

    def __init__(self, leq, *, tables=None):
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be square, got {leq.shape}")
        if n == 0:
            raise NotALattice("empty carrier has no bottom/top")
        if not leq.diagonal().all():
            raise ValueError("order relation is not reflexive")
        if np.count_nonzero(leq & leq.T) > n:
            raise ValueError("order relation is not antisymmetric")
        # sizes[a, b] counts the c with a <= c <= b, through a BLAS float32
        # matmul (numpy sends no boolean one to BLAS), exact while n < 2^24.
        # The order is transitive iff a <= b wherever the count is positive,
        # and then a ≺ b iff [a, b] = {a, b}, which gives the cover matrix.
        f = leq.astype(np.float32)
        sizes = f @ f
        if (~leq & (sizes > 0)).any():
            raise ValueError("order relation is not transitive")
        self.cover_matrix = leq & (sizes == 2)
        del f, sizes
        leq.flags.writeable = False
        self.cover_matrix.flags.writeable = False
        self.n = n
        self.leq = leq

        # Bitmask per element of everything below / above it.
        down = _row_masks(leq.T)
        up = _row_masks(leq)
        self.down_masks = down
        self.up_masks = up

        if tables is None:
            self.meet, self.join, self.bottom, self.top = _tables(down, up)
        else:
            self.meet, self.join, self.bottom, self.top = _certified_tables(leq, *tables)

    @cached_property
    def dual(self) -> Lattice:
        """The order dual: a view sharing this lattice's arrays and covers.

        Meet and join, down and up masks, bottom and top, upper and lower
        covers, and the join- and meet-irreducibles trade places; the order
        is ``leq.T`` and the cover matrix its transpose.  Nothing is
        re-validated or recomputed: reading this lattice's covers and
        irreducibles here computes them once for both, and the view's other
        cached properties fill in lazily from them.  The view keeps no
        reference back to this lattice (a cycle would leave lattices to the
        cyclic garbage collector), so ``L.dual.dual`` is a fresh view over
        L's arrays and covers.
        """
        info = self.irreducibles
        d = object.__new__(Lattice)
        d.n = self.n
        d.leq = self.leq.T
        d.meet, d.join = self.join, self.meet
        d.down_masks, d.up_masks = self.up_masks, self.down_masks
        d.bottom, d.top = self.top, self.bottom
        d.cover_matrix = self.cover_matrix.T
        d.covers, d.lower_covers = self.lower_covers, self.covers
        d.irreducibles = IrreducibleInfo(info.mi, info.ji, info.upper_star, info.lower_star)
        return d

    # -- structure ---------------------------------------------------------

    @cached_property
    def covers(self):
        """Upper-cover adjacency: covers[a] = tuple of b with a ≺ b."""
        return _row_tuples(self.cover_matrix)

    @cached_property
    def lower_covers(self):
        return _row_tuples(self.cover_matrix.T)

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
        """The mask of [lo, hi]; a ValueError names an id that is no element id."""
        if not (type(lo) is int and type(hi) is int and 0 <= lo < self.n and 0 <= hi < self.n):
            lo, hi = _check_id(self, lo), _check_id(self, hi)
        return self.up_masks[lo] & self.down_masks[hi]

    def interval(self, lo: int, hi: int) -> frozenset:
        return frozenset(bits(self.interval_mask(lo, hi)))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def meet_of(self, elems) -> int:
        return _join_of(self.dual, _mask_in(self, elems))

    def join_of(self, elems) -> int:
        return _join_of(self, _mask_in(self, elems))

    def __repr__(self):
        return f"Lattice(n={self.n})"


# -- bitmasks of element sets --------------------------------------------------


def bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _frozen_table(rows):
    """A read-only int32 array of a square table given as lists of rows."""
    table = np.array(rows, dtype=np.int32)
    table.flags.writeable = False
    return table


def _tables(down, up):
    """(meet, join, bottom, top) from the down and up masks: in a lattice
    the masks of ``a ∧ b`` and ``a ∨ b`` are ``down[a] & down[b]`` and
    ``up[a] & up[b]``.  The first pair a < b, in row-major order, with no
    such element raises :class:`NotALattice`, glb before lub."""
    n = len(down)
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
    bottom = reduce(lambda x, y: meet[x][y], range(n))
    top = reduce(lambda x, y: join[x][y], range(n))
    return _frozen_table(meet), _frozen_table(join), bottom, top


def _certified_tables(leq, meet, join):
    """(meet, join, bottom, top) from supplied meet and join tables, kept as
    read-only int32 arrays once they are certified against the order.

    z = meet[a, b] is the glb of a and b when z = meet[b, a], z <= a (so,
    read at (b, a), z <= b) and |↓z| = |↓a ∩ ↓b|: then ↓z = ↓a ∩ ↓b.  The
    counts |↓a ∩ ↓b| are the float32 product leqᵀ·leq of the order matrix
    (exact while n < 2^24), whose diagonal holds |↓z|; join is the dual,
    through leq·leqᵀ.  The first pair a <= b, in row-major order, that
    fails either table raises :class:`NotALattice`, glb before lub; an
    entry that is no element id raises a ValueError.  The bottom is the one
    element with |↓z| = 1, and the top the one with |↑w| = 1.
    """
    n = len(leq)
    meet, join = _id_table(meet, n, "meet"), _id_table(join, n, "join")
    ids = np.arange(n)[:, None]
    f = leq.astype(np.float32)
    down, up = f.T @ f, f @ f.T
    del f
    down_size, up_size = down.diagonal(), up.diagonal()
    glb = (meet == meet.T) & leq[meet, ids] & (down_size[meet] == down)
    lub = (join == join.T) & leq[ids, join] & (up_size[join] == up)
    if not (glb & lub).all():
        # A pair fails when either of its two entries does; the first
        # failure of the symmetric result in row-major order has a <= b.
        glb &= glb.T
        lub &= lub.T
        a, b = _first(~(glb & lub))
        which = "lub" if glb[a, b] else "glb"
        raise NotALattice(f"no unique {which} for {(a, b)}", pair=(a, b))
    meet.flags.writeable = False
    join.flags.writeable = False
    return meet, join, int(down_size.argmin()), int(up_size.argmin())


def _id_table(table, n: int, what: str):
    """table as an int32 n × n array of element ids; a ValueError names a
    wrong shape or type, or the first entry outside 0..n-1."""
    table = np.asarray(table)
    if table.shape != (n, n):
        raise ValueError(f"{what} table must have shape {(n, n)}, got {table.shape}")
    if table.dtype.kind not in "iu":
        raise ValueError(f"{what} table must hold element ids, got {table.dtype}")
    # Read as unsigned, in place, a negative entry is past n - 1 as well.
    if table.view(table.dtype.str.replace("i", "u")).max() >= n:
        a, b = _first((table < 0) | (table >= n))
        raise ValueError(f"{what} table entry {table[a, b]} at {(a, b)} is not in 0..{n - 1}")
    return table.astype(np.int32, copy=False)


def _first(mask):
    """The index of the first True entry of mask in row-major order, as ints,
    or a tuple of Nones when it has none."""
    flat = mask.argmax()
    if not mask.flat[flat]:
        return (None,) * mask.ndim
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def _row_masks(matrix) -> list:
    """The rows of a boolean matrix as bitmasks: bit j of row i is matrix[i, j]."""
    # packbits reads a contiguous copy of a transposed view several times
    # faster than the view, and slices of one bytes object convert faster
    # than numpy rows.
    packed = np.packbits(np.ascontiguousarray(matrix), axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _row_tuples(matrix) -> tuple:
    """The rows of a boolean matrix as tuples of the columns set in them."""
    cols, ends = np.nonzero(matrix)[1].tolist(), matrix.sum(axis=1).cumsum().tolist()
    return tuple(tuple(cols[lo:hi]) for lo, hi in zip([0, *ends], ends))


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


def _mask_in(L: Lattice, ids) -> int:
    """mask_of(ids); a ValueError names the first id that is no element id."""
    mask = 0
    for i in ids:
        mask |= 1 << _check_id(L, i)
    return mask


def _check_id(L: Lattice, x) -> int:
    """x as an int when it is an element id 0..n-1 of L, else a ValueError naming it."""
    return _index_in(x, 0, L.n - 1, "element id")


def _index_in(x, lo: int, hi: int, what: str) -> int:
    """x as an int when it is an integer in lo..hi, else a ValueError naming
    it as what; a bool, or anything operator.index refuses, is none."""
    try:
        i = operator.index(x)
    except TypeError:
        i = lo - 1
    if isinstance(x, bool) or not lo <= i <= hi:
        raise ValueError(f"{what} {x} is not in {lo}..{hi}")
    return i


def minimal_elements(L: Lattice, S) -> list:
    """The minimal elements of the set S, in S's iteration order.

    ``minimal_elements(L.dual, S)`` gives the maximal ones.  S is read once,
    so it may be a one-shot iterable; a ValueError names an id that is no
    element id.
    """
    S = list(S)
    minima = _minimal_mask(L, _mask_in(L, S))
    return [a for a in S if minima >> a & 1]


def _minimal_mask(L: Lattice, mask: int) -> int:
    """The mask of the minimal elements of the set mask: those whose down
    set meets it only in themselves.  ``_minimal_mask(L.dual, mask)`` gives
    the maximal ones."""
    down = L.down_masks
    minima = 0
    for a in bits(mask):
        if down[a] & mask == 1 << a:
            minima |= 1 << a
    return minima


def _least(L: Lattice, mask: int):
    """The least element of the nonempty set mask, or None when it has none.

    The AND of the down masks over the set holds the set's common lower
    bounds, and a least element is the one of them inside the set.
    ``_least(L.dual, mask)`` gives the greatest element.
    """
    lower = reduce(operator.and_, map(L.down_masks.__getitem__, bits(mask)))
    least = lower & mask
    return least.bit_length() - 1 if least else None


def _join_of(L: Lattice, mask: int) -> int:
    """The join of the nonempty set mask: the least of its common upper
    bounds, the AND of its up masks.  ``_join_of(L.dual, mask)`` gives
    the meet."""
    return _least(L, reduce(operator.and_, map(L.up_masks.__getitem__, bits(mask))))


# -- construction ------------------------------------------------------------


def from_cover_relations(n: int, covers) -> Lattice:
    """Build and validate a lattice from cover pairs (lower, upper).

    The pairs may be any acyclic generating relation; the order is their
    reflexive-transitive closure.  Raises CyclicInput on a cycle and
    NotALattice when some pair has no unique glb/lub or there is no unique
    bottom/top, and a ValueError names a pair that is not two element ids in
    0..n-1 (a bool or a float such as 0.5 is none).
    """
    if n < 0:
        raise ValueError(f"element count must be nonnegative, got {n}")
    succ = [[] for _ in range(n)]
    for lo, hi in covers:
        try:
            lo, hi = (_index_in(x, 0, n - 1, "element id") for x in (lo, hi))
        except ValueError:
            raise ValueError(f"cover pair {(lo, hi)} out of range for n={n}") from None
        succ[lo].append(hi)
    # The sorter takes succ[a] as a's predecessors, so each element comes
    # after every element above it.
    try:
        order = list(TopologicalSorter(dict(enumerate(succ))).static_order())
    except CycleError:
        raise CyclicInput("cover relation contains a cycle") from None
    leq = np.eye(n, dtype=bool)
    for a in order:
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


def _clip(text: str) -> str:
    """repr of text, cut after 40 characters so a message stays short."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


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
    """Whether [a, c] ⊆ S for every comparable pair a <= c inside S, that is
    whether every element above one element of S and below another lies in
    S.  A ValueError names an id outside 0..n-1."""
    return _is_convex_mask(L, _mask_in(L, S))


def _is_convex_mask(L: Lattice, mask: int) -> bool:
    """is_convex_subset on the mask of S: nothing outside S lies above one
    element of S and below another."""
    above = below = 0
    for a in bits(mask):
        above |= L.up_masks[a]
        below |= L.down_masks[a]
    return not above & below & ~mask


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
    outside ↓y, and it lies below every such z.  Read from
    :func:`_joinand_intervals`, which computes every x's once per lattice.
    A ValueError names an x outside 0..n-1.
    """
    pairs = _joinand_intervals(L)[_check_id(L, x)]
    return None if pairs is None else frozenset(j for j, _ in pairs)


def canonical_meet_rep(L: Lattice, x: int):
    """Dual of canonical_join_rep; the top's representation is the empty set."""
    return canonical_join_rep(L.dual, x)


def _joinand_intervals(L: Lattice) -> tuple:
    """Per element x, the pairs (j, mask of [j, x]) over the canonical
    joinands j of x in ascending order, or None where x has no canonical
    join representation; computed once per lattice.  On ``L.dual`` the pairs
    are the canonical meetands u of x with the mask of [x, u] in L."""
    if L._joinand_intervals is None:
        up, down = L.up_masks, L.down_masks
        reps = (_canonical_rep(L, x) for x in range(L.n))
        L._joinand_intervals = tuple(
            None if rep is None else tuple((j, up[j] & down[x]) for j in sorted(rep))
            for x, rep in enumerate(reps)
        )
    return L._joinand_intervals


def _canonical_rep(L: Lattice, x: int):
    """The canonical joinands of element x as a frozenset, or None."""
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
    info, j = L.irreducibles, _check_id(L, j)
    if j not in info.ji:
        raise ValueError(f"element {j} is not join-irreducible")
    up = L.up_masks
    u = _least(L.dual, up[info.lower_star[j]] & ~up[j])
    if u is not None and u not in info.mi:
        raise InvariantViolation(f"kappa({j}) = {u} is not meet-irreducible")
    return u


def kappa_sigma(L: Lattice, m: int):
    """Least element of K^σ(m) = {v : v <= m^*, v ≰ m} if unique, else None."""
    m = _check_id(L, m)
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
    the order definition cannot survive silently.  A ValueError names an
    endpoint outside 0..n-1.
    """
    _check_id(L, iv.lo)
    _check_id(L, iv.hi)
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
