"""Linear-time enumeration of maximal-sublattice complements for two chains.

The first chain is the identity order 1 < 2 < ... < m; the second is a
permutation phi.  A first pass registers, for every point j, the prefix
C1(j) = {1..j}, the prefix C2(j) of chain 2 up to j, and the point closure
(j) = C1(j) ∩ C2(j), all symbolically: the inverse permutation and two
running prefix maxima stand in for them.  A second pass decides at every j,
with O(1) integer comparisons, which of the intervals [(j), C1(j)],
[(j), C2(j)], or their union, is the complement of a maximal sublattice:

* positions on chain 2 come from the inverse permutation, so membership
  tests like ``j+1 in C2(j)`` are position comparisons;
* equality tests like ``(j) = C1(j)`` reduce to prefix-maximum comparisons
  (C1(j) ⊆ C2(j) iff every point up to j sits within the first
  phi^-1(j) positions of chain 2).

Both passes are whole-array numpy operations.  The second packs five flags
per point j into one byte: the three about chain 2 are computed once per
chain-2 position and gathered at phi^-1(j) in one read, and the two about
chain 1 are added at j.  The branch itself is tabulated once over all 32
flag bytes, so one lookup per point gives both output slots and their
kinds.  Two arbitrary chains need no block decomposition: renaming every
point by its position on chain 1 turns chain 1 into the identity, and the
points of the result are renamed back.

Each pass frees its arrays once they are read.  The first keeps one byte
of flags per point and, at any time, at most one int64 array of m entries (a
running maximum or the steps along chain 2).  The second keeps two slot
bytes per point until the columns are read from them, and builds the point
column in place in the index array of the full slots.  Traced at m = 10^5
and 10^6, the peak above chains given as lists is 33 bytes per point in
:func:`fast_complements` and 41 in :func:`decompose_and_run`, which holds
both chains' positions while it renames them, and reads them padded with a
leading 0 at the points themselves.  Of these, the output is 17 and 25.

The result is a columnar :class:`Complements` sequence on m points (point
j, kind, and the two prefix lengths) in ascending j, the chain-1 interval
before the chain-2 one.  Its public constructor is the one range check of
descriptor columns; the enumerations build through an unchecked path, as
they make valid columns only, so the fast path pays no check.
:class:`Complement` descriptors are built only when the sequence is indexed
or iterated; materialization against a geometry is on demand and costs
O(lattice size), and :func:`verify_complements` checks a listed result
against the brute-force oracle.  The text and JSON renderers read the
checked columns directly and build no Complement.  They take a block of
descriptors at a time as boolean matrices, one row per descriptor and one
column per point, so that the endpoint sets of a whole block come out sorted
from one compress of a table of the points' tokens per matrix.  A last
column, set in every row, ends each row's text with the token ``;``, and the
rows are cut at those bytes.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import ChainSpec, ConvexGeometry, _as_chain, _padded_permutation, _permutation
from .lattice import _index_in, _mask_in, _minimal_mask, bits
from .sublattice import maximal_complements_oracle

__all__ = [
    "Complement",
    "Complements",
    "NoCaseMatches",
    "OpCounter",
    "Verification",
    "classify_complement",
    "complements_to_json",
    "complements_to_text",
    "decompose_and_run",
    "fast_complements",
    "materialize",
    "verify_complements",
]

SHAPE_CHAIN1 = "IntervalChain1"
SHAPE_CHAIN2 = "IntervalChain2"
SHAPE_UNION = "UnionBothChains"

TYPE1 = "Type1"
TYPE2 = "Type2"
TYPE3 = "Type3"

# Kind codes of the columnar result: KINDS[code] = (shape, case).
KINDS = (
    (SHAPE_CHAIN1, TYPE1),
    (SHAPE_CHAIN2, TYPE1),
    (SHAPE_CHAIN1, TYPE2),
    (SHAPE_CHAIN2, TYPE2),
    (SHAPE_UNION, TYPE3),
)
C1_TYPE1, C2_TYPE1, C1_TYPE2, C2_TYPE2, UNION_TYPE3 = range(len(KINDS))

# Flag bits of the second pass at a point j.  The first three are read on
# chain 2 at phi^-1(j), the last two on chain 1 at j.
SAME_STEP = 1  # both chains add j+1 right after (j)
CLOSURE_IS_C2 = 2  # (j) = C2(j)
NEXT_IN_C1 = 4  # phi(phi^-1(j)+1) in C1(j)
CLOSURE_IS_C1 = 8  # (j) = C1(j)
NEXT_IN_C2 = 16  # j+1 in C2(j)


def _slot_kinds(flags):
    """The O(1) branch at one point: the kinds of its chain-1 (or
    union) slot and its chain-2 slot, None for an empty slot."""
    if flags & SAME_STEP:
        if flags & CLOSURE_IS_C2:
            return C1_TYPE2, None
        if flags & CLOSURE_IS_C1:
            return None, C2_TYPE2
        return UNION_TYPE3, None
    return (
        C1_TYPE1 if flags & NEXT_IN_C2 else None,
        C2_TYPE1 if flags & NEXT_IN_C1 else None,
    )


# _SLOTS[flags] is the branch for every flag byte: two bytes, the slots in
# order, each 1 + its kind or 0 when empty.
_SLOTS = (
    np.array([[0 if k is None else k + 1 for k in _slot_kinds(f)] for f in range(32)], dtype=np.int8)
    .view(np.uint16)
    .ravel()
)

# Descriptors built per .tolist() call while iterating a Complements.
_CHUNK = 1 << 14


class NoCaseMatches(AssertionError):
    """A complement fits no classification case: a theorem violation."""


@dataclass(slots=True)
class OpCounter:
    """Work done by one enumeration.

    ``comparisons`` counts the element comparisons the array code performs:
    a comparison between arrays of n elements counts n, and a running
    maximum over n elements counts n - 1.  ``set_ops`` counts the symbolic
    prefix registrations of the first pass, three per point (the inverse
    position and the two prefix maxima).  ``_enumerate`` sets both by a
    formula, not by tallying, so a gate of 12 comparisons a point cannot fail.
    """

    comparisons: int = 0
    set_ops: int = 0


@dataclass(slots=True, frozen=True)
class Complement:
    """Symbolic complement descriptor relative to a pair of chains.

    ``j`` is the ground point whose closure (j) is the common minimum;
    ``c1_len``/``c2_len`` are the prefix lengths of C1(j)/C2(j) on the two
    chains.  ``shape`` says which intervals are present and ``case`` is the
    classification-theorem tag.  When C1(j) = C2(j) the single interval is
    on both chains and ``shape`` names chain 1, so swapping the chains
    mirrors every shape label but that one.
    """

    j: int
    shape: str
    case: str
    c1_len: int
    c2_len: int

    def endpoint_sets(self, chain1, chain2):
        """((j), [maxima]) as ground-point frozensets, per the host chains,
        both permutations of 1..m, where m is chain 1's point count.  A
        ValueError names a faulty chain, prefix length or shape."""
        chain1 = _as_chain(chain1)
        m = chain1.m
        perms = [_as_chain(c).validate(m)[0] for c in (chain1, chain2)]
        tops = _tops(self, m)
        prefixes = [frozenset(p[:n].tolist()) for p, n in zip(perms, (self.c1_len, self.c2_len))]
        return prefixes[0] & prefixes[1], [prefixes[i] for i in tops]


# The chains whose prefixes top each shape's intervals, in output order.
_SHAPE_TOPS = {SHAPE_CHAIN1: (0,), SHAPE_CHAIN2: (1,), SHAPE_UNION: (0, 1)}


def _tops(comp: Complement, m: int) -> tuple:
    """The chains whose prefixes top comp's intervals, after checking its
    shape and both of its prefix lengths against 0..m: a bare Complement
    carries no m, so its reader checks it."""
    for length in (comp.c1_len, comp.c2_len):
        _index_in(length, 0, m, "prefix length")
    if comp.shape not in _SHAPE_TOPS:
        raise ValueError(f"shape {comp.shape!r} is not one of {', '.join(_SHAPE_TOPS)}")
    return _SHAPE_TOPS[comp.shape]


class Complements(Sequence):
    """Immutable columnar sequence of complement descriptors on m points.

    ``m`` is the ground set size, and the columns are read-only numpy arrays
    of one length: ``j`` (a point in 1..m), ``kind`` (an index into
    ``KINDS``), ``c1_len`` and ``c2_len`` (prefix lengths in 0..m).
    ``Complements(m, j, kind, c1_len, c2_len)`` copies the columns and is
    the one check of their values: a ValueError names the columns' shapes
    unless they are 1-D and of one length, else the least or greatest value
    of the first column that leaves its range.  The enumerations and
    slicing build through :meth:`_unchecked`, since they make valid columns
    only.

    Indexing and iteration build :class:`Complement` objects holding Python
    ints; slicing returns another Complements.  A Complements equals one
    with the same m and columns, and a list or tuple holding the same
    descriptors in the same order.
    """

    __slots__ = ("m", "j", "kind", "c1_len", "c2_len")

    def __new__(cls, m, j, kind, c1_len, c2_len):
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"ground set size {m!r} is not a positive integer")
        columns = [np.array(column) for column in (j, kind, c1_len, c2_len)]
        if columns[0].ndim != 1 or any(column.shape != columns[0].shape for column in columns):
            shapes = ", ".join(str(column.shape) for column in columns)
            raise ValueError(f"descriptor columns must be 1-D and of one length, got shapes {shapes}")
        bounds = ("point", 1, m), ("kind code", 0, len(KINDS) - 1), ("prefix length", 0, m), ("prefix length", 0, m)
        for column, (what, lo, hi) in zip(columns, bounds):
            if len(column):
                for value in (column.min(), column.max()):
                    _index_in(value, lo, hi, what)
        # Integer columns keep their dtype; an empty or object one becomes int64.
        columns = [column if column.dtype.kind in "iu" else column.astype(np.int64) for column in columns]
        return cls._unchecked(int(m), *columns)

    @classmethod
    def _unchecked(cls, m, j, kind, c1_len, c2_len):
        """A Complements of columns already known to be valid, kept as they are."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        for name, column in zip(cls.__slots__[1:], (j, kind, c1_len, c2_len)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Complements is immutable")

    def __reduce__(self):
        return Complements, (self.m, *self._columns())

    def _columns(self):
        return self.j, self.kind, self.c1_len, self.c2_len

    def __len__(self):
        return len(self.j)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Complements._unchecked(self.m, *(column[index] for column in self._columns()))
        shape, case = KINDS[self.kind[index]]
        return Complement(
            int(self.j[index]), shape, case, int(self.c1_len[index]), int(self.c2_len[index])
        )

    def __iter__(self):
        for lo in range(0, len(self), _CHUNK):
            rows = zip(*(column[lo : lo + _CHUNK].tolist() for column in self._columns()))
            for j, kind, c1_len, c2_len in rows:
                shape, case = KINDS[kind]
                yield Complement(j, shape, case, c1_len, c2_len)

    def __eq__(self, other):
        if isinstance(other, Complements):
            return self.m == other.m and all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Complements(m={self.m}, {list(self)!r})"


def fast_complements(m: int, phi) -> tuple:
    """All complements of maximal sublattices of the geometry (identity, phi).

    Returns (Complements, OpCounter).  Raises BadPermutation unless phi is a
    permutation of 1..m with integer entries.
    """
    return _enumerate(*_permutation(m, phi))


def _enumerate(perm, inv) -> tuple:
    """Both passes for the geometry (identity, perm), where inv = perm^-1."""
    m = len(perm)
    # Two running maxima, then one comparison per flag and point.
    ops = OpCounter(comparisons=2 * (m - 1) + 5 * m, set_ops=3 * m)
    rows, kind, c2_len = _columns(perm, inv)
    rows += 1  # point j is row j - 1, and C1(j) is its first j points
    return Complements._unchecked(m, rows, kind, rows, c2_len), ops


def _columns(perm, inv) -> tuple:
    """The second pass: the columns (j - 1, kind, c2_len), in output order.

    Each point has two slots, the chain-1 interval or the union first and
    the chain-2 interval second; a slot holds 1 + its kind, or 0.
    Flattening the slots point by point gives the output order, and the
    index of a full slot, halved, is its point's row.  Only the returned
    columns outlive the call.
    """
    slots = _SLOTS.take(_flags(perm, inv)).view(np.int8)
    rows = np.flatnonzero(slots != 0)  # a bool array takes numpy's fast scan
    kind = slots[rows]
    del slots
    kind -= 1
    rows >>= 1
    return rows, kind, inv[rows]


def _flags(perm, inv):
    """The first pass and the flag byte of every point, one array of m bytes.

    pm_chain2[k-1] = max point among the first k of chain 2, and
    pm_chain1[j-1] = max chain-2 position among the points 1..j.  Each of
    them, like the step between neighbours on chain 2, is read as soon as it
    is made and then freed, so at most one int64 array of m entries is alive
    beside the bytes being filled.

    The three flags about chain 2 compare neighbours along chain 2; they
    share one byte per chain-2 position k (entry k, entry 0 unused),
    gathered once at phi^-1(j).  The two about chain 1 join that byte at j.
    Past the end of a chain every "next" flag is clear.
    """
    m = len(perm)
    on_chain2 = np.zeros(m + 1, dtype=np.uint8)
    on_chain2[1:] = (np.maximum.accumulate(perm) == perm).view(np.uint8) * CLOSURE_IS_C2
    step = perm[1:] - perm[:-1]
    on_chain2[1:m] |= (step == 1).view(np.uint8) * SAME_STEP
    on_chain2[1:m] |= (step < 0).view(np.uint8) * NEXT_IN_C1
    del step
    flags = on_chain2.take(inv)
    del on_chain2
    flags |= (np.maximum.accumulate(inv) == inv).view(np.uint8) * CLOSURE_IS_C1
    flags[:-1] |= (inv[1:] < inv[:-1]).view(np.uint8) * NEXT_IN_C2
    return flags


def decompose_and_run(m: int, chains) -> Complements:
    """Complements for two arbitrary chains, by relabeling.

    Renames every point by its position on chain 1, which makes chain 1 the
    identity, runs the fast path once, and renames the points of the result
    back through chain 1.  Prefix lengths are positions on the chains, so
    they carry over unchanged.  A ValueError names any chain count but 2.
    """
    chains = tuple(chains)
    if len(chains) != 2:
        raise ValueError(f"decompose_and_run needs two chains, {len(chains)} given")
    chain1, chain2 = chains
    # Positions padded with a leading 0 are read at the points themselves.
    perm1, pos1 = _padded_permutation(m, chain1)
    perm2, pos2 = _padded_permutation(m, chain2)
    # Each array is dropped once read: only chain 1 is needed after the passes.
    perm = pos1[perm2]
    del pos1, perm2
    inv = pos2[perm1]
    del pos2
    rows, kind, c2_len = _columns(perm, inv)
    del perm, inv
    j = perm1[rows]
    rows += 1
    return Complements._unchecked(m, j, kind, rows, c2_len)


def materialize(G: ConvexGeometry, comp: Complement) -> frozenset:
    """The complement as a set of lattice-element ids of the geometry; (j) is
    the meet, that is the intersection, of the chain prefixes C1(j), C2(j).
    A ValueError names a prefix length outside 0..m or an unknown shape."""
    if len(G.chains) != 2:
        raise ValueError("materialization needs a two-chain geometry")
    tops = _tops(comp, G.m)
    L = G.lattice
    prefixes = G.chain_elements[0][comp.c1_len], G.chain_elements[1][comp.c2_len]
    lo = int(L.meet[prefixes[0], prefixes[1]])
    return frozenset(bits(reduce(operator.or_, (L.interval_mask(lo, prefixes[i]) for i in tops))))


# -- classification ------------------------------------------------------------


def classify_complement(G: ConvexGeometry, C) -> str:
    """The unique classification case matched by a complement C (element ids).

    Everything is read at the point j of C's minimum (j): the intervals
    [(j), C_i(j)], the point x_i chain i adds after C_i(j), whether x_i lies
    in the other prefix C_i'(j), and whether (j) lies on chain i.  Case 1:
    [(j), C_i(j)] with x_i inside C_i'(j) and (j) off chain i'.  Case 2:
    [(j), C_i(j)] with (j) on chain i' and x_1 = x_2.  Case 3: the union of
    both intervals with (j) on neither chain and x_1 = x_2.  Raises
    NoCaseMatches when no case (or more than one) fits: that would refute
    the classification theorem.  A ValueError names an id of C outside
    0..n-1.
    """
    if len(G.chains) != 2:
        raise ValueError("classification needs a two-chain geometry")
    L = G.lattice
    cmask = _mask_in(L, C)
    if not cmask:
        raise ValueError("empty complement")
    minima = _minimal_mask(L, cmask)
    if minima.bit_count() != 1:
        raise NoCaseMatches(f"complement has {minima.bit_count()} minimal elements")
    lo = minima.bit_length() - 1
    # (j) ⊆ C1(j), so j is the last point of (j) on chain 1: the point at
    # position t_1(lo), and none when lo is empty.
    t = int(G._coords[0, lo])
    j = G.chains[0].perm[t - 1] if t else None
    if j is None or G.point_closure(j) != lo:
        raise NoCaseMatches("minimum is not a point closure")

    interval = [L.interval_mask(lo, G.chain_prefix_of_point(i, j)) for i in (0, 1)]
    (x1, x2), inside = zip(G.successor(0, j), G.successor(1, j))
    on = G.chain_member[lo]
    same_step = x1 is not None and x1 == x2
    # (case, set, premise).  The union needs no count of maxima: were one
    # prefix inside the other, (j) would equal it and lie on a chain.
    rows = [(TYPE3, interval[0] | interval[1], same_step and not any(on))]
    for i in (0, 1):
        rows += [(TYPE1, interval[i], inside[i] and not on[1 - i]), (TYPE2, interval[i], same_step and on[1 - i])]
    tags = {case for case, mask, premise in rows if premise and mask == cmask}
    if len(tags) != 1:
        raise NoCaseMatches(f"matched cases {sorted(tags)} for C={list(bits(cmask))}")
    return tags.pop()


@dataclass(frozen=True)
class Verification:
    """Listed descriptors against the oracle: ``listed`` counts them, ``fast``
    holds their distinct sets and ``oracle`` the oracle's, and
    ``misclassified`` the j, in listing order, of each wrong case tag."""

    listed: int
    fast: frozenset
    oracle: frozenset
    misclassified: tuple

    @property
    def sets_agree(self) -> bool:
        """The fast sets are the oracle's, and none is listed twice."""
        return self.fast == self.oracle and self.listed == len(self.fast)

    @property
    def ok(self) -> bool:
        return self.sets_agree and not self.misclassified


def verify_complements(G: ConvexGeometry, comps, bound=None) -> Verification:
    """Check the descriptors ``comps`` listed for G: sets, count and tags.

    Materializes and classifies each descriptor once, then runs the oracle
    once.  A descriptor whose set fits no classification case is
    misclassified.  A ValueError refuses a ``Complements`` on another m.
    """
    if isinstance(comps, Complements) and comps.m != G.m:
        raise ValueError(f"the descriptors are on {comps.m} points, the geometry on {G.m}")
    fast = set()
    misclassified = []
    for c in comps:
        cset = materialize(G, c)
        fast.add(cset)
        try:
            confirmed = classify_complement(G, cset) == c.case
        except NoCaseMatches:
            confirmed = False
        if not confirmed:
            misclassified.append(c.j)
    oracle = frozenset(maximal_complements_oracle(G.lattice, bound=bound))
    return Verification(len(comps), frozenset(fast), oracle, tuple(misclassified))


# -- serialization ----------------------------------------------------------------
#
# Both outputs list every endpoint set, Θ(m²) bytes in all.  They are rendered
# straight from the descriptor columns into one growing buffer, with no
# Complement, frozenset or retained piece per line.  Each set costs O(m)
# array work, done for a block of descriptors in a few numpy calls, and a
# few Python appends.

# Per kind: the interval names of a text line, the head of a JSON row,
# and whether the (first) interval top is C2(j).
_TEXT_NAMES = [tuple(b"C%d" % (i + 1) for i in _SHAPE_TOPS[shape]) for shape, _ in KINDS]
_JSON_HEADS = [
    b'{"j": %%d, "shape": "%s", "class": "%s", "intervals": [' % (shape.encode(), case.encode())
    for shape, case in KINDS
]
_TOP_ON_C2 = np.array([shape == SHAPE_CHAIN2 for shape, _ in KINDS])

# Cells of each membership matrix the renderers build, give or take a column:
# a block holds max(1, _BLOCK_CELLS // m) descriptors, each a row of m + 1
# cells (a column per point and the row terminator).  Its arrays, about 1 MB
# in all, stay in cache: 2^18 cells rendered 10-30% slower at m = 500 to 2000.
_BLOCK_CELLS = 1 << 16


def complements_to_text(comps, chain1, chain2) -> str:
    """``cg-complements`` text: one tab-separated line per descriptor of a
    :class:`Complements`.

    A line is the label, then (j) and every interval's top as sorted point
    sets: ``[(5),C1(5)]``, ``(5)={1,3,5}`` and ``C1(5)={1,2,3,4,5}``.  A single
    interval whose top is (j) itself is labelled ``{(j)}`` and lists (j) only.
    """
    out = bytearray()
    for j, kind, lo, tops in _endpoint_sets(comps, chain1, chain2, b","):
        j = b"%d" % j
        if tops is None:
            out += b"{(%s)}\t(%s)={" % (j, j)
            out += lo
            out += b"}\n"
            continue
        names = _TEXT_NAMES[kind]
        out += b" u ".join(b"[(%s),%s(%s)]" % (j, name, j) for name in names)
        out += b"\t(%s)={" % j
        out += lo
        for name, top in zip(names, tops):
            out += b"}\t%s(%s)={" % (name, j)
            out += top
        out += b"}\n"
    return out.decode("ascii")


def complements_to_json(comps, chain1, chain2) -> str:
    """JSON array of the descriptors of a :class:`Complements`, with endpoint
    sets as sorted point lists.

    Each row is ``{"j", "shape", "class", "intervals": [[(j), top], ...]}``,
    byte for byte as ``json.dumps`` writes it.
    """
    out = bytearray(b"[")
    row_sep = b""
    for j, kind, lo, tops in _endpoint_sets(comps, chain1, chain2, b", "):
        out += row_sep
        row_sep = b", "
        out += _JSON_HEADS[kind] % j
        for k, top in enumerate(tops or (lo,)):
            out += b", [[" if k else b"[["
            out += lo
            out += b"], ["
            out += top
            out += b"]]"
        out += b"]}"
    out += b"]"
    return out.decode("ascii")


def _endpoint_sets(comps, chain1, chain2, sep):
    """(j, kind, (j), tops) per descriptor, each set as a memoryview of its
    ascending points joined by ``sep``; ``tops`` lists the interval tops in
    output order, or is None for a single interval whose top is (j) itself.
    The columns were checked when ``comps`` was built, so only the chains
    are read here: a BadPermutation names one that is no permutation of
    1..m for the m of ``comps``.

    The descriptors go a block at a time, as boolean matrices with a row per
    descriptor and a column per point, in point order: C_i(j) holds the
    points at positions up to ``ci_len`` on chain i, and (j) is C1(j) AND
    C2(j).  A row's top is C2(j) for the chain-2 kinds and C1(j) otherwise,
    and a union row takes its C2(j) as a second top.  The text of a matrix
    is one compress of the points' tokens ``p<sep>``, padded with NUL bytes
    to one width, which are then deleted; row-major order lists each row's
    points in ascending order.  A last column, at position 0 on both chains,
    is in every row with the token ``;``, so each row's text ends at a ``;``
    and the rows are cut there.  (j) is a subset of its top and no token is
    empty, so a single interval's top is (j) exactly when the two have the
    same length.
    """
    m = comps.m
    # Positions and prefix lengths fit the narrowest type holding m.  Each
    # chain is read once, by _permutation; an iterator as a tuple.
    small = np.min_scalar_type(m)
    pos1, pos2 = (
        np.append(_permutation(m, c if isinstance(c, (ChainSpec, Sequence)) else tuple(c))[1], 0).astype(small)
        for c in (chain1, chain2)
    )
    j_col, kind_col, c1_col, c2_col = comps._columns()
    # Entry p-1 of the table, and column p-1 of each matrix, is point p; the
    # last is the row terminator.
    table = np.array([b"%d%s" % (p, sep) for p in range(1, m + 1)] + [b";"])
    rows = max(1, _BLOCK_CELLS // m)
    table = np.tile(table, min(rows, len(comps)))
    cut = len(sep)

    def pieces(matrix):
        text = np.compress(matrix.ravel(), table[: matrix.size]).tobytes().translate(None, b"\0")
        view, start = memoryview(text), 0
        for _ in range(len(matrix)):
            end = text.index(b";", start)
            yield view[start : end - cut]
            start = end + 1

    for first in range(0, len(comps), rows):
        block = slice(first, first + rows)
        kind = kind_col[block]
        in1 = pos1 <= c1_col[block].astype(small)[:, None]
        in2 = pos2 <= c2_col[block].astype(small)[:, None]
        union = kind == UNION_TYPE3
        seconds = pieces(in2[union])
        closure = pieces(in1 & in2)
        on2 = _TOP_ON_C2[kind]
        top = in1  # C1(j) rows, with C2(j) rows for the chain-2 kinds
        top[on2] = in2[on2]
        for j, k, lo, hi in zip(j_col[block].tolist(), kind.tolist(), closure, pieces(top)):
            if k == UNION_TYPE3:
                yield j, k, lo, (hi, next(seconds))
            elif len(lo) == len(hi):
                yield j, k, lo, None
            else:
                yield j, k, lo, (hi,)
