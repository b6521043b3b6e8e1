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

Both passes are whole-array numpy operations; the second is five boolean
masks over j.  Two arbitrary chains need no block decomposition: renaming
every point by its position on chain 1 turns chain 1 into the identity, and
the points of the result are renamed back.

The result is a columnar :class:`Complements` sequence (point j, kind code,
and the two prefix lengths) in ascending j, the chain-1 interval before the
chain-2 one.  :class:`Complement` descriptors are built only when the
sequence is indexed or iterated; materialization against a geometry is on
demand and costs O(lattice size).  The text and JSON renderers read the
columns directly and build no Complement: each endpoint set is a sorted
chain prefix, written with one gather from a table of the points' tokens.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import ConvexGeometry, _as_chain, _permutation
from .lattice import bits, mask_of, minimal_elements

__all__ = [
    "Complement",
    "Complements",
    "NoCaseMatches",
    "OpCounter",
    "classify_complement",
    "complements_to_json",
    "complements_to_text",
    "decompose_and_run",
    "fast_complements",
    "materialize",
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
    position and the two prefix maxima).
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
        """((j), [maxima]) as ground-point frozensets, per the host chains."""
        c1 = _as_chain(chain1).prefix(self.c1_len)
        c2 = _as_chain(chain2).prefix(self.c2_len)
        closure = c1 & c2
        if self.shape == SHAPE_CHAIN1:
            return closure, [c1]
        if self.shape == SHAPE_CHAIN2:
            return closure, [c2]
        return closure, [c1, c2]


class Complements(Sequence):
    """Immutable columnar sequence of complement descriptors.

    The columns are read-only numpy arrays: ``j``, ``kind`` (an index into
    ``KINDS``), ``c1_len`` and ``c2_len``.  Indexing and iteration build
    :class:`Complement` objects holding Python ints; slicing returns another
    Complements.  A Complements equals one with the same columns, and a list
    or tuple holding the same descriptors in the same order.
    """

    __slots__ = ("j", "kind", "c1_len", "c2_len")

    def __init__(self, j, kind, c1_len, c2_len):
        for name, column in zip(self.__slots__, (j, kind, c1_len, c2_len)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError("Complements is immutable")

    def __reduce__(self):
        return Complements, self._columns()

    def _columns(self):
        return self.j, self.kind, self.c1_len, self.c2_len

    def __len__(self):
        return len(self.j)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Complements(*(column[index] for column in self._columns()))
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
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Complements({list(self)!r})"


def fast_complements(m: int, phi) -> tuple:
    """All complements of maximal sublattices of the geometry (identity, phi).

    Returns (Complements, OpCounter).  Raises BadPermutation unless phi is a
    permutation of 1..m with integer entries.
    """
    return _enumerate(*_permutation(m, phi))


def _enumerate(perm, inv) -> tuple:
    """Both passes for the geometry (identity, perm), where inv = perm^-1."""
    m = len(perm)
    ops = OpCounter(set_ops=3 * m)

    # First pass.  pm_chain2[k-1] = max point among the first k of chain 2;
    # pm_chain1[j-1] = max chain-2 position among the points 1..j.
    pm_chain2 = np.maximum.accumulate(perm)
    pm_chain1 = np.maximum.accumulate(inv)
    ops.comparisons += 2 * (m - 1)

    # Second pass: five masks over j.  The three about chain 2 compare
    # neighbours along chain 2 and are read at j's position there.  Past the
    # end of a chain the next entry reads m+2, which fails every comparison.
    end = np.array([m + 2])
    succ2 = np.concatenate((perm[1:], end))  # succ2[k-1] = point after position k
    at_j = inv - 1
    same_step = (succ2 == perm + 1)[at_j]  # both chains add j+1 right after (j)
    closure_is_c2 = (pm_chain2 == perm)[at_j]  # (j) = C2(j)
    next_in_c1 = (succ2 < perm)[at_j]  # phi(phi^-1(j)+1) in C1(j)
    closure_is_c1 = pm_chain1 == inv  # (j) = C1(j)
    next_in_c2 = np.concatenate((inv[1:], end)) < inv  # j+1 in C2(j)
    ops.comparisons += 5 * m

    # Slot 0 holds the chain-1 interval or the union, slot 1 the chain-2
    # interval; flattening the slots row by row gives the output order.
    slots = np.empty((m, 2), dtype=bool)
    slots[:, 0] = np.where(same_step, closure_is_c2 | ~closure_is_c1, next_in_c2)
    slots[:, 1] = np.where(same_step, closure_is_c1 & ~closure_is_c2, next_in_c1)
    flat = np.flatnonzero(slots)
    row = flat >> 1
    same = same_step[row]
    kind = np.where(
        flat & 1,
        np.where(same, C2_TYPE2, C2_TYPE1),
        np.where(same, np.where(closure_is_c2[row], C1_TYPE2, UNION_TYPE3), C1_TYPE1),
    ).astype(np.int8)
    points = row + 1
    return Complements(points, kind, points, inv[row]), ops


def decompose_and_run(m: int, chains) -> Complements:
    """Complements for two arbitrary chains, by relabeling.

    Renames every point by its position on chain 1, which makes chain 1 the
    identity, runs the fast path once, and renames the points of the result
    back through chain 1.  Prefix lengths are positions on the chains, so
    they carry over unchanged.
    """
    chain1, chain2 = chains
    perm1, pos1 = _permutation(m, chain1)
    perm2, pos2 = _permutation(m, chain2)
    comps, _ = _enumerate(pos1[perm2 - 1], pos2[perm1 - 1])
    return Complements(perm1[comps.j - 1], comps.kind, comps.c1_len, comps.c2_len)


def materialize(G: ConvexGeometry, comp: Complement) -> frozenset:
    """The complement as a set of lattice-element ids of the geometry."""
    if len(G.chains) != 2:
        raise ValueError("materialization needs a two-chain geometry")
    lo_set, maxima = comp.endpoint_sets(G.chains[0], G.chains[1])
    his = [G.set_index[top_set] for top_set in maxima]
    return frozenset(bits(_union_mask(G.lattice, G.set_index[lo_set], his)))


def _union_mask(L, lo: int, his) -> int:
    """Mask of the union of the intervals [lo, hi] over hi in his."""
    return reduce(operator.or_, (L.interval_mask(lo, hi) for hi in his), 0)


# -- classification ------------------------------------------------------------


def classify_complement(G: ConvexGeometry, C) -> str:
    """The unique classification case matched by a complement C (element ids).

    Case 1: a single interval [(j), C_i(j)] whose chain-i successor point
    already sits inside C_i'(j), with (j) off chain i'.  Case 2: a single
    interval with (j) on chain i' and both chains stepping at the same next
    point.  Case 3: the union of both intervals with (j) on neither chain,
    again stepping at the same point.  Raises NoCaseMatches when no case
    (or more than one) fits: that would refute the classification theorem.
    """
    if len(G.chains) != 2:
        raise ValueError("classification needs a two-chain geometry")
    cset = frozenset(C)
    if not cset:
        raise ValueError("empty complement")
    cmask = mask_of(cset)
    L = G.lattice
    minima = minimal_elements(L, cset)
    maxima = minimal_elements(L.dual, cset)
    if len(minima) != 1:
        raise NoCaseMatches(f"complement has {len(minima)} minimal elements")
    lo = minima[0]
    j = _closure_point(G, lo)
    if j is None:
        raise NoCaseMatches("minimum is not a point closure")

    tags = set()
    if len(maxima) == 2:
        expected = {G.chain_prefix_of_point(0, j), G.chain_prefix_of_point(1, j)}
        if set(maxima) == expected and _union_mask(L, lo, maxima) == cmask:
            x1 = _next_point(G, 0, j)
            x2 = _next_point(G, 1, j)
            on1, on2 = G.chain_member[lo][0], G.chain_member[lo][1]
            if x1 is not None and x1 == x2 and not on1 and not on2:
                tags.add(TYPE3)
    elif len(maxima) == 1:
        hi = maxima[0]
        for i in (0, 1):
            if G.chain_prefix_of_point(i, j) != hi:
                continue
            if L.interval_mask(lo, hi) != cmask:
                continue
            other = 1 - i
            xi = _next_point(G, i, j)
            if xi is None:
                continue
            on_other = G.chain_member[lo][other]
            # chain-i successor already inside C_other(j)?
            inside = G.chains[other].pos[xi] <= G.chains[other].pos[j] if xi != j else False
            if inside and not on_other:
                tags.add(TYPE1)
            if on_other and xi == _next_point(G, other, j):
                tags.add(TYPE2)
    if len(tags) != 1:
        raise NoCaseMatches(f"matched cases {sorted(tags)} for C={sorted(cset)}")
    return tags.pop()


def _closure_point(G: ConvexGeometry, a: int):
    for x in G.element_set(a):
        if G.point_closure(x) == a:
            return x
    return None


def _next_point(G: ConvexGeometry, i: int, j: int):
    """The point added right after C_i(j) on chain i, if any."""
    k = G.chains[i].pos[j]
    return G.chains[i].perm[k] if k < G.m else None


# -- serialization ----------------------------------------------------------------
#
# Both outputs list every endpoint set, Θ(m²) bytes in all.  They are rendered
# straight from the descriptor columns into one growing buffer, with no
# Complement, frozenset or retained piece per line; each set costs
# O(k log k) for its k points.

# Per kind code: the interval names of a text line, and the head of a JSON row.
_SHAPE_NAMES = {SHAPE_CHAIN1: (b"C1",), SHAPE_CHAIN2: (b"C2",), SHAPE_UNION: (b"C1", b"C2")}
_TEXT_NAMES = [_SHAPE_NAMES[shape] for shape, _ in KINDS]
_JSON_HEADS = [
    b'{"j": %%d, "shape": "%s", "class": "%s", "intervals": [' % (shape.encode(), case.encode())
    for shape, case in KINDS
]


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

    C_i(j) is the first ``ci_len`` points of chain i, sorted.  (j) keeps the
    points of its top (C1(j) for the union) that sit within the other
    chain's prefix.  A set's text is one gather from a table of the points'
    tokens ``p<sep>``, padded with NUL bytes to one width, which are then
    deleted.
    """
    rows = zip(*(column.tolist() for column in comps._columns()))
    chain1, chain2 = _as_chain(chain1), _as_chain(chain2)
    m = chain1.m
    (perm1, pos1), (perm2, pos2) = (_permutation(m, chain) for chain in (chain1, chain2))
    # Points are 0-based from here on: row p-1 of the table is point p's token.
    table = np.array([b"%d%s" % (p, sep) for p in range(1, m + 1)], dtype=bytes)
    perm1, perm2 = perm1 - 1, perm2 - 1
    cut = -len(sep)

    def points(ids):
        return memoryview(table.take(ids).tobytes().translate(None, b"\0"))[:cut]

    for j, kind, c1_len, c2_len in rows:
        if KINDS[kind][0] == SHAPE_CHAIN2:
            top = np.sort(perm2[:c2_len])
            lo = top[pos1[top] <= c1_len]
        else:
            top = np.sort(perm1[:c1_len])
            lo = top[pos2[top] <= c2_len]
        if kind == UNION_TYPE3:
            yield j, kind, points(lo), (points(top), points(np.sort(perm2[:c2_len])))
        elif len(lo) == len(top):
            yield j, kind, points(lo), None
        else:
            yield j, kind, points(lo), (points(top),)
