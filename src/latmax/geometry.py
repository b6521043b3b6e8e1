"""Chain-generated convex geometries as intersection-closed set families.

A geometry on ground set {1..m} is generated by k linear orders (chains),
each given as a permutation.  The family is the closure of all chain
prefixes under intersection, built directly as the intersections of one
prefix per chain; ordered by inclusion it is a lattice
(the lattice view reuses :class:`latmax.lattice.Lattice` verbatim, with the
inclusion order as ``leq``).  Ground points are 1-based throughout.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    InvariantViolation,
    Lattice,
    _int_field,
    _rows,
    is_lower_semimodular,
    is_sd_join,
    mask_of,
)

__all__ = [
    "BadPermutation",
    "ChainSpec",
    "ConvexGeometry",
    "TopOnly",
    "build_cg",
    "format_cg_text",
    "parse_cg_text",
]


class BadPermutation(ValueError):
    """A chain is not a permutation of {1..m}."""


class TopOnly(LookupError):
    """No proper meet-irreducible on the chain contains the point; only X does."""


@dataclass(frozen=True)
class ChainSpec:
    """A linear order on {1..m}: perm[k] is the (k+1)-st smallest point."""

    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(map(_point, self.perm)))

    @property
    def m(self) -> int:
        return len(self.perm)

    def validate(self, m: int):
        _permutation(m, self.perm)

    @cached_property
    def pos(self) -> dict:
        """1-based position of each point on the chain."""
        return {p: k + 1 for k, p in enumerate(self.perm)}

    def prefix(self, length: int) -> frozenset:
        return frozenset(self.perm[:length])


def _point(p) -> int:
    """A chain entry as an int; floats, bools and strings are refused."""
    if isinstance(p, bool):  # operator.index accepts Python bools
        raise BadPermutation(f"points must be integers, got {p!r}")
    try:
        return operator.index(p)
    except TypeError:
        raise BadPermutation(f"points must be integers, got {p!r}") from None


def _permutation(m: int, phi):
    """(phi, phi^-1) as int64 arrays, after checking phi is a permutation of 1..m.

    The one check of a chain's points.  A fault names the first offending
    point or the count given, never the whole chain.
    """
    if m < 1:
        raise BadPermutation("ground set must be nonempty")
    if isinstance(phi, ChainSpec):
        phi = phi.perm
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
    perm = perm.astype(np.int64, copy=False)
    if perm.min() < 1 or perm.max() > m:
        k = ((perm < 1) | (perm > m)).argmax()
        raise BadPermutation(f"{fault}: point {perm[k]} is out of range")
    inv = np.zeros(m, dtype=np.int64)
    inv[perm - 1] = np.arange(1, m + 1)
    if not inv.all():
        # Of the copies of a repeated point, at most one keeps its position.
        k = (inv[perm - 1] != np.arange(1, m + 1)).argmax()
        raise BadPermutation(f"{fault}: point {perm[k]} repeats")
    # numpy reads True as 1 (and False as the out-of-range 0), so a bool can
    # only hide at the single position holding 1.
    if not isinstance(phi, np.ndarray) and isinstance(phi[inv[0] - 1], (bool, np.bool_)):
        raise BadPermutation("points must be integers, got a bool")
    return perm, inv


def _as_chain(chain) -> ChainSpec:
    return chain if isinstance(chain, ChainSpec) else ChainSpec(tuple(chain))


class ConvexGeometry:
    """Lattice of all intersections of chain prefixes, with chain indices.

    Exposes, for each chain i and ground point x, the least prefix C_i(x)
    containing x, the least meet-irreducible M_i(x) on the chain containing
    x, and the point closure (x), the smallest family member containing x.
    """

    def __init__(self, m: int, chains, verify: bool = True):
        self.m = m
        self.chains = tuple(_as_chain(c) for c in chains)
        if not self.chains:
            raise BadPermutation("at least one generating chain is required")
        for c in self.chains:
            c.validate(m)

        # Every member is an intersection of one prefix per chain: prefixes of
        # one chain are nested, so more than one of them adds nothing.
        family = {frozenset(range(1, m + 1))}
        for c in self.chains:
            prefixes = [c.prefix(k) for k in range(m + 1)]
            family = {a & p for a in family for p in prefixes}
        self.family = tuple(sorted(family, key=lambda s: (len(s), sorted(s))))
        self.set_index = {s: i for i, s in enumerate(self.family)}

        n = len(self.family)
        # Point p is bit p - 1.
        masks = [mask_of(p - 1 for p in s) for s in self.family]
        self.lattice = Lattice([[a & ~b == 0 for b in masks] for a in masks])
        self._point_masks = masks

        # chain_elements[i][k] = id of the k-point prefix of chain i.
        self.chain_elements = tuple(
            tuple(self.set_index[c.prefix(k)] for k in range(m + 1)) for c in self.chains
        )
        chain_sets = [set(ids) for ids in self.chain_elements]
        self.chain_member = tuple(
            tuple(a in ids for ids in chain_sets) for a in range(n)
        )
        if verify:
            self._verify()

    # -- indices -------------------------------------------------------------

    def element_set(self, a: int) -> frozenset:
        return self.family[a]

    def chain_prefix_of_point(self, i: int, x: int) -> int:
        """C_i(x): the least prefix of chain i containing ground point x."""
        return self.chain_elements[i][self.chains[i].pos[x]]

    def chain_prefix(self, i: int, a: int) -> int:
        """C_i(a): the least prefix of chain i containing family element a."""
        pts = self.family[a]
        if not pts:
            return self.chain_elements[i][0]
        return self.chain_elements[i][max(self.chains[i].pos[x] for x in pts)]

    def point_closure(self, x: int) -> int:
        """(x): the smallest family member containing x; join-irreducible.

        It is the meet, that is the intersection, of the prefixes C_i(x).
        """
        prefixes = (self.chain_prefix_of_point(i, x) for i in range(len(self.chains)))
        return self.lattice.meet_of(prefixes)

    def least_mi_on_chain(self, i: int, x: int) -> int:
        """M_i(x): least meet-irreducible prefix of chain i containing x.

        Raises TopOnly when the only chain element containing x that could
        qualify is the top X (which is never meet-irreducible).
        """
        mi = self.lattice.irreducibles.mi
        for k in range(self.chains[i].pos[x], self.m + 1):
            a = self.chain_elements[i][k]
            if a in mi:
                return a
        raise TopOnly(f"no proper meet-irreducible on chain {i} contains {x}")

    def cdim(self) -> int:
        """Convex dimension: the maximum antichain of meet-irreducibles."""
        mi = sorted(self.lattice.irreducibles.mi)
        return _poset_width(self.lattice, mi)

    def has_trivial_intersection(self) -> bool:
        """Whether every pair of generating chains shares only ∅ and X."""
        sets = [set(ids) for ids in self.chain_elements]
        ends = {self.lattice.bottom, self.lattice.top}
        for i in range(len(sets)):
            for k in range(i + 1, len(sets)):
                if (sets[i] & sets[k]) - ends:
                    return False
        return True

    # -- verification ----------------------------------------------------------

    def _verify(self):
        L = self.lattice
        n = L.n
        masks = self._point_masks
        # meet is intersection; join is the least family member over the union.
        for a, meet_a, join_a in zip(range(n), L.meet.tolist(), L.join.tolist()):
            mask_a = masks[a]
            for b in range(a, n):
                if masks[meet_a[b]] != mask_a & masks[b]:
                    raise InvariantViolation(f"meet of {a} and {b} is not their intersection")
                if (mask_a | masks[b]) & ~masks[join_a[b]]:
                    raise InvariantViolation(f"join of {a} and {b} does not contain their union")
        if not is_sd_join(L):
            raise InvariantViolation("geometry lattice must satisfy SD-join")
        if not is_lower_semimodular(L):
            raise InvariantViolation("geometry lattice must be lower semimodular")
        # Every cover adds exactly one ground point.
        for a in range(n):
            for b in L.covers[a]:
                if (masks[b] & ~masks[a]).bit_count() != 1:
                    raise InvariantViolation(f"cover {a} < {b} does not add exactly one point")
        # Every meet-irreducible lies on a generating chain.
        on_chain = set().union(*map(set, self.chain_elements))
        if not L.irreducibles.mi <= on_chain:
            raise InvariantViolation("a meet-irreducible lies on no generating chain")
        # a equals the meet of its chain prefixes.
        for a in range(n):
            acc = masks[L.top]
            for i in range(len(self.chains)):
                acc &= masks[self.chain_prefix(i, a)]
            if acc != masks[a]:
                raise InvariantViolation(f"element {a} is not the meet of its chain prefixes")

    def __repr__(self):
        return f"ConvexGeometry(m={self.m}, chains={len(self.chains)}, n={self.lattice.n})"


def build_cg(m: int, chains, verify: bool = True) -> ConvexGeometry:
    """Build the geometry generated by the given chains (permutations of 1..m)."""
    return ConvexGeometry(m, chains, verify=verify)


def _poset_width(L: Lattice, elems) -> int:
    """Width of the subposet on elems via Dilworth (bipartite matching)."""
    k = len(elems)
    if k == 0:
        return 0
    adj = [
        [b for b in range(k) if a != b and L.leq[elems[a], elems[b]]]
        for a in range(k)
    ]
    match_r = [-1] * k

    def augment(a, seen):
        for b in adj[a]:
            if not seen[b]:
                seen[b] = True
                if match_r[b] == -1 or augment(match_r[b], seen):
                    match_r[b] = a
                    return True
        return False

    matching = sum(augment(a, [False] * k) for a in range(k))
    return k - matching


# -- text format ---------------------------------------------------------------


def format_cg_text(m: int, chains) -> str:
    """CG text format: `m k` then one space-separated permutation per line."""
    chains = [_as_chain(c) for c in chains]
    lines = [f"{m} {len(chains)}"]
    lines += [" ".join(map(str, c.perm)) for c in chains]
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
    if m < 1:
        raise BadPermutation("ground set must be nonempty")
    if len(rows) != k + 1:
        raise ValueError(f"expected {k} chain lines, got {len(rows) - 1}")
    chains = [
        ChainSpec(tuple(_int_field(t, lineno, line, "a point") for t in line.split()))
        for lineno, line in rows[1:]
    ]
    return m, chains
