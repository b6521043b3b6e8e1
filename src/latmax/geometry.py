"""Chain-generated convex geometries as intersection-closed set families.

A geometry on ground set {1..m} is generated by k linear orders (chains),
each given as a permutation.  The family is the closure of all chain
prefixes under intersection, that is the intersections of one prefix per
chain; ordered by inclusion it is a lattice (the lattice view is a
:class:`latmax.lattice.Lattice`).  Ground points are 1-based throughout.

The family is built in chain coordinates, the view behind convex dimension
(P. H. Edelman and R. E. Jamison, "The theory of convex geometries",
*Geom. Dedicata* 19, 1985).  A member S is its tight vector t(S), where
t_i(S) is the largest position on chain i of a point of S, and inclusion is
the product order of tight vectors.  Each cell s of prefix lengths names the
member C_1(s_1) ∩ ... ∩ C_k(s_k).  The members are found chain by chain, so
the work grows with the family and not with the (m+1)^k cells.  Ids run by
size and then by sorted points, meet and join are the members at the
componentwise min and max of tight vectors, and the lattice certifies the
tables it is handed against the order.
"""
from __future__ import annotations

import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress

import numpy as np

from .lattice import (
    InvariantViolation,
    Lattice,
    _check_id,
    _first,
    _index_in,
    _int_field,
    _rows,
    is_lower_semimodular,
    is_sd_join,
)

__all__ = [
    "BadPermutation",
    "ChainSpec",
    "ConvexGeometry",
    "build_cg",
    "format_cg_text",
    "parse_cg_text",
]


class BadPermutation(ValueError):
    """A chain is not a permutation of {1..m}."""


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """A linear order on {1..m}: perm[k] is the (k+1)-st smallest point.

    The points are kept as given, except that an iterator is read into a
    tuple once, when the spec is built, so that ``==``, ``hash`` and
    :meth:`validate` all see the same points; :meth:`validate` is their one
    check.  Specs compare and hash by their points, in a tuple, list or
    numpy array alike."""

    perm: tuple

    def __post_init__(self):
        if isinstance(self.perm, Iterator):
            object.__setattr__(self, "perm", tuple(self.perm))

    def __eq__(self, other):
        return tuple(self.perm) == tuple(other.perm) if isinstance(other, ChainSpec) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.perm))

    @property
    def m(self) -> int:
        return len(self.perm)

    def validate(self, m: int):
        """(perm, positions) as int64 arrays, after checking the chain is a
        permutation of 1..m; positions[p - 1] is the position of point p.

        A tuple or list is read by :func:`_padded_permutation` with one
        struct pack that only reads its points, so perm is a read-only view
        of the packed bytes; nothing in latmax writes to it."""
        return _permutation(m, self.perm)


def _point(p) -> int:
    """A chain entry as an int; floats, bools and strings are refused."""
    if isinstance(p, bool):  # operator.index accepts Python bools
        raise BadPermutation(f"points must be integers, got {p!r}")
    try:
        return operator.index(p)
    except TypeError:
        raise BadPermutation(f"points must be integers, got {p!r}") from None


def _permutation(m: int, phi):
    """(phi, phi^-1) as int64 arrays, after checking phi is a permutation of 1..m."""
    perm, pos = _padded_permutation(m, phi)
    return perm, pos[1:]


def _padded_permutation(m: int, phi):
    """(phi, positions) as int64 arrays, after checking phi is a permutation
    of 1..m; positions[p] is the position of point p, and positions[0] = 0.

    The one reader of a chain's points: every entry point, ``ChainSpec``
    included, takes them from the arrays it returns.  A fault names the
    first offending point or the count given, never the whole chain.

    A tuple or list of m points is read with one ``Struct(f"{m}q").pack``
    call, whose ``q`` code takes what ``operator.index`` takes.  Unpacked
    into the call, an exact tuple hands over its own item array, so the
    points are only read: an int64 buffer built item by item would take and
    drop a reference to each point, writing its reference count twice.  A
    list is first copied into a temporary tuple.  The chain array then sits
    on the packed ``bytes`` and is read-only.  The pack refuses floats,
    strings, nested lists, numpy bools and ints past int64, and it reads a
    bool as an int; on any of these, or any fault, the chain is read again
    through numpy, which names the fault.
    """
    m = _ground_size(m)
    if isinstance(phi, ChainSpec):
        phi = phi.perm
    if type(phi) in (tuple, list) and len(phi) == m:
        try:
            packed = struct.Struct(f"{m}q").pack(*phi)
            return _inverted(m, np.frombuffer(packed, dtype=np.int64), phi)
        except (struct.error, BadPermutation):
            pass  # read it again below, where each fault gets its message
    try:
        perm = np.asarray(phi)
    except ValueError:  # a ragged chain such as [1, [2]]: name its first non-point
        for p in phi:
            _point(p)
        raise
    fault = f"not a permutation of 1..{m}"
    if perm.shape != (m,):
        given = f"{len(perm)} points" if perm.ndim == 1 else f"an array of shape {perm.shape}"
        raise BadPermutation(f"{fault}: {given} given")
    if perm.dtype.kind == "O" and all(isinstance(p, int) for p in phi):
        raise BadPermutation(f"{fault}: a point lies past the int64 range")
    if perm.dtype.kind not in "iu":
        raise BadPermutation(f"points must be integers, got {perm.dtype}")
    return _inverted(m, perm.astype(np.int64, copy=False), phi)


def _ground_size(m) -> int:
    """The ground set size as an int of at least 1; a bool, what
    ``operator.index`` refuses, or a size below 1 is refused."""
    try:
        size = None if isinstance(m, bool) else operator.index(m)
    except TypeError:
        size = None
    if size is None:
        raise BadPermutation(f"ground set size {m!r} is not an integer")
    if size < 1:
        raise BadPermutation("ground set must be nonempty")
    return size


def _inverted(m: int, perm, phi):
    """(perm, positions) for an int64 array perm of m points read from phi:
    the inverse permutation padded with a leading 0."""
    fault = f"not a permutation of 1..{m}"
    if perm.min() < 1 or perm.max() > m:
        k = ((perm < 1) | (perm > m)).argmax()
        raise BadPermutation(f"{fault}: point {perm[k]} is out of range")
    # Entry 0 is never written.
    pos = np.zeros(m + 1, dtype=np.int64)
    pos[perm] = np.arange(1, m + 1)
    if not pos[1:].all():
        # Of the copies of a repeated point, at most one keeps its position.
        k = (pos[perm] != np.arange(1, m + 1)).argmax()
        raise BadPermutation(f"{fault}: point {perm[k]} repeats")
    # Both reads take True as 1 (and False as the out-of-range 0), so a bool
    # can only hide at the single position holding 1.
    if not isinstance(phi, np.ndarray) and isinstance(phi[pos[1] - 1], (bool, np.bool_)):
        raise BadPermutation("points must be integers, got a bool")
    return perm, pos


def _as_chain(chain) -> ChainSpec:
    return chain if isinstance(chain, ChainSpec) else ChainSpec(tuple(chain))


class ConvexGeometry:
    """Lattice of all intersections of chain prefixes, with chain indices.

    Built in chain coordinates.  A member S is its tight vector t(S): t_i(S)
    is the largest position on chain i of a point of S (0 when S is empty),
    and S holds exactly the points whose position on every chain i is at
    most t_i(S).  Inclusion is the product order of tight vectors.  Each
    cell s of prefix lengths names the member C_1(s_1) ∩ ... ∩ C_k(s_k), and
    :func:`_members` finds the members chain by chain, with a way to read
    the member at any cell.  S ∩ S' is the member at cell min(t(S), t(S')),
    and the least member containing S ∪ S' the one at cell max(t(S),
    t(S')).  Member ids run by size, then by sorted points, and the meet
    and join tables go to :class:`latmax.lattice.Lattice`, which certifies
    them.

    Exposes, for each chain i and ground point x, the least prefix C_i(x)
    containing x, and the point closure (x), the smallest family member
    containing x.
    """

    def __init__(self, m: int, chains, verify: bool = True):
        self.m = m
        read = [_as_chain(c).validate(m) for c in chains]
        if not read:
            raise BadPermutation("at least one generating chain is required")
        # The chains as the ints their one check read.
        self.chains = tuple(ChainSpec(tuple(perm.tolist())) for perm, _ in read)
        # pos[i, p - 1] is the position of point p on chain i; (p) is the member at p's cell.
        pos = np.array([p for _, p in read])
        self._points, coords, member_at = _members(pos, m)
        self._coords, self._position_rows = coords, pos.tolist()
        self._closures = tuple(member_at(pos).tolist())
        meet = member_at(np.minimum.outer(t, t) for t in coords)
        join = member_at(np.maximum.outer(t, t) for t in coords)
        leq = np.less_equal.outer(coords[0], coords[0])
        for t in coords[1:]:
            leq &= np.less_equal.outer(t, t)
        self.lattice = Lattice(leq, tables=(meet, join))
        # chain_elements[i][q] = id of the q-point prefix of chain i: the cell
        # at q on chain i and at m on every other chain.
        k = len(self.chains)
        self.chain_elements = tuple(
            tuple(member_at((m,) * i + (np.arange(m + 1),) + (m,) * (k - 1 - i)).tolist())
            for i in range(k)
        )
        if verify:
            self._verify()

    # -- indices -------------------------------------------------------------

    @cached_property
    def family(self) -> tuple:
        """The members as frozensets of points, in id order."""
        ground = range(1, self.m + 1)
        return tuple(frozenset(compress(ground, row)) for row in self._points.tolist())

    @cached_property
    def set_index(self) -> dict:
        """Member (a frozenset of points) -> its id."""
        return {s: i for i, s in enumerate(self.family)}

    @cached_property
    def chain_member(self) -> tuple:
        """chain_member[a][i]: whether element a lies on chain i, that is
        whether a is C_i(a)."""
        on = self._chain_prefixes() == np.arange(self.lattice.n)
        return tuple(map(tuple, on.T.tolist()))

    def _chain_prefixes(self):
        """Row i holds C_i(a), the prefix of chain i of length t_i(a), for
        every element a."""
        return np.array([np.asarray(ids)[t] for ids, t in zip(self.chain_elements, self._coords)])

    def element_set(self, a: int) -> frozenset:
        """The points of element a; a ValueError names an id outside 0..n-1."""
        _check_id(self.lattice, a)
        return self.family[a]

    def chain_prefix_of_point(self, i: int, x: int) -> int:
        """C_i(x): the least prefix of chain i containing ground point x."""
        i = _index_in(i, 0, len(self.chains) - 1, "chain index")
        return self.chain_elements[i][self._position_rows[i][_index_in(x, 1, self.m, "point") - 1]]

    def chain_prefix(self, i: int, a: int) -> int:
        """C_i(a): the least prefix of chain i containing family element a,
        the prefix of length t_i(a)."""
        i = _index_in(i, 0, len(self.chains) - 1, "chain index")
        return self.chain_elements[i][self._coords[i, _check_id(self.lattice, a)]]

    def successor(self, i: int, j: int):
        """(x, inside) on chain i of a two-chain geometry: x is the point added
        right after C_i(j), None when C_i(j) is X, and inside says whether x
        lies in the other chain's prefix C_i'(j).  A ValueError refuses a
        geometry on any other number of chains."""
        if len(self.chains) != 2:
            raise ValueError(f"successor needs a two-chain geometry, this one has {len(self.chains)} chains")
        i = _index_in(i, 0, 1, "chain index")
        return self._successors(_index_in(j, 1, self.m, "point"))[i][1:]

    def _successors(self, j: int) -> tuple:
        """Per chain i of a two-chain geometry, (k, x, inside) at a point j in
        1..m: C_i(j) is the k-point prefix, and (x, inside) is successor(i, j)."""
        (row1, row2), m = self._position_rows, self.m
        k1, k2 = row1[j - 1], row2[j - 1]
        x1 = self.chains[0].perm[k1] if k1 < m else None
        x2 = self.chains[1].perm[k2] if k2 < m else None
        return (k1, x1, x1 is not None and row2[x1 - 1] <= k2), (k2, x2, x2 is not None and row1[x2 - 1] <= k1)

    def point_closure(self, x: int) -> int:
        """(x): the smallest family member containing x; join-irreducible.

        It is the meet, that is the intersection, of the prefixes C_i(x): the
        member at the cell of x's positions.
        """
        return self._closures[_index_in(x, 1, self.m, "point") - 1]

    def has_trivial_intersection(self) -> bool:
        """Whether every pair of generating chains shares only ∅ and X."""
        ends = (self.lattice.bottom, self.lattice.top)
        return all(sum(on) < 2 for a, on in enumerate(self.chain_member) if a not in ends)

    # -- verification ----------------------------------------------------------

    def _verify(self):
        """Check the lattice against the point sets of its members.

        inter[a, b] = |a ∩ b| comes from one float32 product of the point
        matrix (exact while m < 2^24).  Each check names the first fault in
        row-major order.
        """
        L = self.lattice
        points = self._points
        f = points.astype(np.float32)
        inter = f @ f.T
        size = inter.diagonal()
        ids = np.arange(L.n)
        # meet is intersection: z = a ∧ b lies in a and in b, with |a ∩ b|
        # points.  join contains the union: a and b lie in w = a ∨ b.
        z = size[L.meet]
        meet_bad = (inter[L.meet, ids[:, None]] != z) | (inter[L.meet, ids] != z) | (z != inter)
        join_bad = (inter[L.join, ids[:, None]] != size[:, None]) | (inter[L.join, ids] != size)
        a, b = _first(np.triu(meet_bad | join_bad))
        if a is not None:
            if meet_bad[a, b]:
                raise InvariantViolation(f"meet of {a} and {b} is not their intersection")
            raise InvariantViolation(f"join of {a} and {b} does not contain their union")
        if not is_sd_join(L):
            raise InvariantViolation("geometry lattice must satisfy SD-join")
        if not is_lower_semimodular(L):
            raise InvariantViolation("geometry lattice must be lower semimodular")
        # Every cover adds exactly one ground point.
        a, b = _first(L.cover_matrix & (size - inter != 1))
        if a is not None:
            raise InvariantViolation(f"cover {a} < {b} does not add exactly one point")
        # Every meet-irreducible lies on a generating chain.
        on_chain = set().union(*map(set, self.chain_elements))
        if not L.irreducibles.mi <= on_chain:
            raise InvariantViolation("a meet-irreducible lies on no generating chain")
        # a equals the meet of its chain prefixes C_i(a).
        acc = points[L.top]
        for prefix in self._chain_prefixes():
            acc = acc & points[prefix]
        (a,) = _first((acc != points).any(axis=1))
        if a is not None:
            raise InvariantViolation(f"element {a} is not the meet of its chain prefixes")

    def __repr__(self):
        return f"ConvexGeometry(m={self.m}, chains={len(self.chains)}, n={self.lattice.n})"


def _members(pos, m: int):
    """(points, coords, at) of the geometry with positions pos: the point
    matrix and the tight vectors of the members in id order, and the
    function from k arrays of cells to the ids of their members.

    The members are found chain by chain.  The sets after chain j are the
    meets C_0(s_0) ∩ ... ∩ C_j(s_j); after chain 0 they are its prefixes,
    C_0(q) with id q.  Each set S after chain j is e ∩ C_j(q) for some set e
    before it, and one pair (e, q) stands for S: e the set before chain j at
    cell (t_0(S), ..., t_{j-1}(S)), and q = t_j(S).  The tight vectors of
    all e ∩ C_j(q) come from the points of e, scattered at their positions
    on chain j and carried along q by running maxima, and the sets after
    chain j are the pairs that stand for themselves.  steps[j - 1] holds at
    [e, q] the id of e ∩ C_j(q), so the work grows with the family and the
    chain count, not with the (m+1)^k cells.
    """
    q = np.arange(m + 1)
    points, coords = pos[0] <= q[:, None], q[:, None]
    steps = []
    for j in range(1, len(pos)):
        n = len(points)
        # tight[e, q] is t_0..t_j of e ∩ C_j(q).
        tight = np.zeros((n, m + 1, j + 1), dtype=np.int64)
        tight[:, pos[j]] = points[..., None] * pos[: j + 1].T
        np.maximum.accumulate(tight, axis=1, out=tight)
        # cell[e, q] is the pair that stands for e ∩ C_j(q), numbered
        # row-major; the members are the pairs that stand for themselves.
        cell = _read_steps(steps, tight[..., :j].transpose(2, 0, 1)) * (m + 1) + tight[..., j]
        own = (cell.ravel() == np.arange(cell.size)).nonzero()[0]
        coords = tight.reshape(-1, j + 1)[own]
        points = points[own // (m + 1)] & (pos[j] <= coords[:, j, None])
        # Ids by size, then by sorted points: of two sets of one size, the one
        # holding the least point of their difference comes first.  The keys
        # are the size, then the complement packed with point 1 leading.
        packed = np.packbits(~points, axis=1)
        order = np.lexsort((*packed.T[::-1], points.sum(axis=1)))
        own, points, coords = own[order], points[order], coords[order]
        ids = np.empty(cell.size, dtype=np.int32)
        ids[own] = np.arange(len(own), dtype=np.int32)
        steps.append(ids[cell])
    return points, coords.T, partial(_read_steps, steps)


def _read_steps(steps, cells):
    """The id of the member at each cell: the cell's position on chain 0,
    then one read of each later chain's step table."""
    cells = iter(cells)
    e = next(cells)
    for step, s in zip(steps, cells):
        e = step[e, s]
    return e


def build_cg(m: int, chains, verify: bool = True) -> ConvexGeometry:
    """Build the geometry generated by the given chains (permutations of 1..m)."""
    return ConvexGeometry(m, chains, verify=verify)


# -- text format ---------------------------------------------------------------


def format_cg_text(m: int, chains) -> str:
    """CG text format: `m k` then one space-separated permutation per line;
    a BadPermutation names a bad m or a chain that is no permutation of 1..m."""
    perms = [_as_chain(c).validate(m)[0] for c in chains]
    lines = [f"{_ground_size(m)} {len(perms)}", *(" ".join(map(str, perm.tolist())) for perm in perms)]
    return "\n".join(lines) + "\n"


def parse_cg_text(text: str):
    rows = _rows(text)
    if not rows:
        raise ValueError("empty geometry input")
    head_no, head = rows[0]
    fields = head.split()
    if len(fields) != 2:
        raise ValueError("first line must be `m k`")
    m = _int_field(fields[0], head_no, head, "the ground-set size m")
    k = _int_field(fields[1], head_no, head, "the chain count k")
    _ground_size(m)
    if len(rows) != k + 1:
        raise ValueError(f"expected {k} chain lines, got {len(rows) - 1}")
    chains = [
        ChainSpec(tuple(_int_field(t, lineno, line, "a point") for t in line.split()))
        for lineno, line in rows[1:]
    ]
    return m, chains
