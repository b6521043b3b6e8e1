"""Falsification harnesses for the complement-shape claims.

Every checker lists the instances of its claim on a corpus, and one sweep
tests them and hunts for a counterexample; the returned status ``Holds``
means "no counterexample in this corpus", never proof.  The sweep tests an
instance only through the table :data:`REPLAY` (witness tag -> predicate),
so :func:`reverify_witness` replays a witness, which names its host (a
lattice by its cover list, a geometry by m and its chains) plus the
violating data, with the very call that found it.  A dual claim is its
primal predicate run on ``L.dual``, under the primal tag plus ``-dual``.
Lemmas 4.2 and 5.4, with about 100 k and 10 k instances per ``check all``,
screen a whole complement at once instead, and run their ``REPLAY``
predicate only on the first failing instance, in the sweep's order.

Inside this module a complement is the int mask of its element ids, from
the corpus to the verdict; element lists appear only in a witness
(:func:`_witness`) and are read back by :func:`reverify_witness`.

:data:`CLAIMS` is the one table of the claims ``latmax check`` runs: claim
id -> (checker, corpus builder), in report order.  The observation suite
(:func:`observation_suite`) checks one complement against the general
observations 3.1-3.8 instead of sweeping a corpus; its witnesses replay
under the tag ``observation-suite``.  Every :class:`CheckReport` and every
witness of the package is built in this module.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .corpus import cdim2_corpus, sd_corpus
from .geometry import ConvexGeometry, build_cg
from .lattice import (
    InvariantViolation,
    Lattice,
    _is_convex_mask,
    _join_of,
    _joinand_intervals,
    _least,
    _mask_in,
    _minimal_mask,
    bits,
    from_cover_text,
    is_distributive,
    is_sd,
    is_sd_join,
    is_sd_meet,
    mask_of,
    to_cover_text,
)
from .sublattice import (
    _generated_mask,
    _is_maximal_mask,
    _strict_joinands,
    is_sublattice,
    maximal_complements_oracle,
    sublattice_masks,
)

__all__ = [
    "CLAIMS",
    "CheckReport",
    "REPLAY",
    "bounded_interval_baseline",
    "check_distributive_baseline",
    "check_hyp1_sd_interval",
    "check_hyp2_sd_join",
    "check_hyp3_convex",
    "check_hyp4_cover",
    "check_lemma_42",
    "check_lemma_54",
    "check_lemma_64_65",
    "check_q2_irreducibles",
    "check_thm_44_gist",
    "check_thm_45_greatest",
    "check_thm_51_55",
    "observation_suite",
    "reverify_witness",
    "sublattice_complements",
]

HOLDS = "Holds"
COUNTEREXAMPLE = "CounterexampleFound"


@dataclass
class CheckReport:
    """The outcome of one checker or observation run, serializable as a JSON line."""

    claim: str
    corpus: str
    instances_checked: int
    status: str
    witness: dict | None = field(default=None)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> CheckReport:
        return cls(**json.loads(line))


EXHAUSTIVE_SUBLATTICE_LIMIT = 10
# Random generated sublattices drawn per lattice past that limit.
SUBLATTICE_SAMPLES = 60


def _lattices(corpus):
    """The lattices of corpus; a geometry stands for its lattice."""
    return (item.lattice if isinstance(item, ConvexGeometry) else item for item in corpus)


def _geometries(corpus):
    return (item for item in corpus if isinstance(item, ConvexGeometry))


def _complements(corpus, keep=None):
    """(L, cmask) for the mask of every maximal-sublattice complement of every
    lattice L of corpus that keep accepts (all of them when keep is None)."""
    for L in _lattices(corpus):
        if keep is None or keep(L):
            for C in maximal_complements_oracle(L):
                yield L, mask_of(C)


def _sides(L: Lattice, tag: str) -> list:
    """(L, tag) when L is SD-join, then (L.dual, tag + "-dual") when L is SD-meet."""
    both = (((L, tag), is_sd_join(L)), ((L.dual, tag + "-dual"), is_sd_meet(L)))
    return [side for side, holds in both if holds]


def _sided_complements(corpus, tag):
    """(L, K, side tag, cmask) for every complement mask and every side (K, side tag) of L."""
    for L in _lattices(corpus):
        sides = _sides(L, tag)
        for C in maximal_complements_oracle(L) if sides else ():
            cmask = mask_of(C)
            for K, side_tag in sides:
                yield L, K, side_tag, cmask


def _witness(host, claim: str, cmask: int, **extra) -> dict:
    """The witness that the complement cmask violates claim in host, which it
    names: a geometry by m and its chains, a lattice by its cover list."""
    if isinstance(host, ConvexGeometry):
        w = {"claim": claim, "m": host.m, "chains": [list(c.perm) for c in host.chains]}
        host = host.lattice
    else:
        w = {"claim": claim, "lattice": to_cover_text(host)}
    w.update(sublattice=list(bits(host.full_mask() & ~cmask)), complement=list(bits(cmask)))
    w.update(extra)
    return w


def _sweep(claim: str, label: str, instances) -> CheckReport:
    """Test every instance (host, tag, cmask, w) with ``REPLAY[tag](host,
    cmask, w)``, the call :func:`reverify_witness` makes on the serialized
    witness.

    The host is a lattice, or a geometry for the claims about its chains.
    The first violation stops the sweep; its witness is the complement
    cmask of host plus the entries of w.
    """
    checked = 0
    for host, tag, cmask, w in instances:
        checked += 1
        if REPLAY[tag](host, cmask, w):
            return CheckReport(claim, label, checked, COUNTEREXAMPLE, _witness(host, tag, cmask, **w))
    return CheckReport(claim, label, checked, HOLDS)


# -- violation predicates (L, cmask, w): True when C violates the claim in L -----
# cmask is the mask of a nonempty complement C and w holds the witness entries
# the claim needs.


def _interval_bounds(L: Lattice, cmask: int):
    """(a, b) with C = [a, b] when C is the interval [∧C, ∨C], else None.

    C = [∧C, ∨C] iff C has a least element a, a greatest element b, and
    [a, b] = C.  (⇐) A least element of C is its meet and a greatest one its
    join, so [∧C, ∨C] = [a, b] = C.  (⇒) ∧C <= ∨C, so both lie in
    [∧C, ∨C] = C, where ∧C is below every element and ∨C above every one:
    they are the least and the greatest element of C.
    """
    a, b = _least(L, cmask), _least(L.dual, cmask)
    if a is None or b is None or L.interval_mask(a, b) != cmask:
        return None
    return a, b


def _interval_fails(L: Lattice, cmask: int, w) -> bool:
    """C is not the interval [meet C, join C]."""
    return _interval_bounds(L, cmask) is None


def _convex_fails(L: Lattice, cmask: int, w) -> bool:
    """Some [a, c] with a <= c in C leaves C."""
    return not _is_convex_mask(L, cmask)


def _hyp2_fails(L: Lattice, cmask: int, w) -> bool:
    """C lacks a unique minimal element c0, or some [c0, t] with t maximal leaves C.

    In a finite set a unique minimal element is the least one.
    """
    c0 = _least(L, cmask)
    return c0 is None or any(
        L.interval_mask(c0, t) & ~cmask for t in bits(_minimal_mask(L.dual, cmask))
    )


def _hyp4_fails(L: Lattice, cmask: int, w) -> bool:
    """No lower cover m of w["element"] lies outside C with all of [0, m] outside C."""
    return not any(
        not (cmask >> m) & 1 and L.down_masks[m] & cmask == 0
        for m in L.lower_covers[w["element"]]
    )


def _q2_fails(L: Lattice, cmask: int, w) -> bool:
    """The join-irreducibles in C are not just one minimum, or its
    meet-irreducibles are not exactly its maximal elements."""
    info = L.irreducibles
    c0 = _least(L, cmask)
    return (
        c0 is None
        or mask_of(info.ji) & cmask != 1 << c0
        or mask_of(info.mi) & cmask != _minimal_mask(L.dual, cmask)
    )


def _thm44_fails(L: Lattice, cmask: int, w) -> bool:
    """C holds a coatom, yet not exactly one coatom as its only maximal
    element, or C is no interval."""
    hit = mask_of(L.coatoms) & cmask
    return bool(hit) and (
        _minimal_mask(L.dual, cmask) != hit or hit.bit_count() != 1 or _interval_fails(L, cmask, w)
    )


def _lemma42_fails(L: Lattice, cmask: int, w) -> bool:
    """w["element"] has no strict canonical joinand in C."""
    return not _strict_joinands(L, cmask, w["element"])


def _lemma54_fails(L: Lattice, cmask: int, w) -> bool:
    """[w["x"], w["u2"]] lies inside C, missing the sublattice."""
    return L.interval_mask(w["x"], w["u2"]) & ~cmask == 0


def _distributive_fails(L: Lattice, cmask: int, w) -> bool:
    """C is not an interval [a, b] with a its only join- and b its only meet-irreducible."""
    bounds = _interval_bounds(L, cmask)
    if bounds is None:
        return True
    info, (lo, hi) = L.irreducibles, bounds
    return mask_of(info.ji) & cmask != 1 << lo or mask_of(info.mi) & cmask != 1 << hi


def _rest_is_sublattice(G: ConvexGeometry, cmask: int, w) -> bool:
    """The elements of G outside C form a sublattice (6.4(3) fails)."""
    L = G.lattice
    return is_sublattice(L, bits(L.full_mask() & ~cmask))


def _lemma64_2_fails(G: ConvexGeometry, cmask: int, w) -> bool:
    """The rest of G outside C is no sublattice."""
    return not _rest_is_sublattice(G, cmask, w)


def _lemma64_1a_fails(G: ConvexGeometry, cmask: int, w) -> bool:
    """(j) lies on a chain, or the rest is no sublattice."""
    return any(G.chain_member[G.point_closure(w["j"])]) or _lemma64_2_fails(G, cmask, w)


def _lemma64_1b_fails(G: ConvexGeometry, cmask: int, w) -> bool:
    """(j) is off the chain w["x_chain"] of (x), or the rest is no sublattice."""
    return not G.chain_member[G.point_closure(w["j"])][w["x_chain"] - 1] or _lemma64_2_fails(G, cmask, w)


def _lemma64_3_maximal_fails(G: ConvexGeometry, cmask: int, w) -> bool:
    """The rest of G outside C is a maximal sublattice."""
    L = G.lattice
    return _is_maximal_mask(L, L.full_mask() & ~cmask)


def _observation_reproduces(L: Lattice, cmask: int, w) -> bool:
    rerun = observation_suite(L, w["sublattice"])
    return rerun.status == COUNTEREXAMPLE and rerun.witness["observation"] == w["observation"]


def _on_dual(fails):
    """The dual claim's predicate: fails run on L.dual."""
    return lambda L, cmask, w: fails(L.dual, cmask, w)


# Witness tag -> predicate(host, cmask, w), True when the violation
# reproduces.  The sweeps test every instance through this table, and so
# does the replay.
REPLAY = {
    "hyp1": _interval_fails,
    "hyp2": _hyp2_fails,
    "hyp2-dual": _on_dual(_hyp2_fails),
    "hyp3": _convex_fails,
    "hyp4": _hyp4_fails,
    "q2": _q2_fails,
    "thm4.4": _thm44_fails,
    "thm4.5": _interval_fails,
    "thm4.5-dual": _on_dual(_interval_fails),
    "thm5.1/5.5": _interval_fails,
    "lemma4.2": _lemma42_fails,
    "lemma4.2-dual": _on_dual(_lemma42_fails),
    "lemma5.4": _lemma54_fails,
    "6.4(1a)": _lemma64_1a_fails,
    "6.4(1b)": _lemma64_1b_fails,
    "6.4(2)": _lemma64_2_fails,
    "6.4(3)": _rest_is_sublattice,
    "6.4(3')": _lemma64_3_maximal_fails,
    "observation-suite": _observation_reproduces,
    "distributive-baseline": _distributive_fails,
    "bounded-baseline": _interval_fails,
}


def reverify_witness(report: CheckReport) -> bool:
    """Re-run the failed assertion on the serialized witness.

    Returns True when the violation reproduces (i.e. the witness is genuine).
    A report that holds has nothing to reverify.  A ValueError names a
    witness that names no host.
    """
    if report.status != COUNTEREXAMPLE or not report.witness:
        return False
    w = report.witness
    claim = w.get("claim", "")
    if claim not in REPLAY:
        raise ValueError(f"unknown witness claim {claim!r}")
    if not ({"m", "chains"} if "chains" in w else {"lattice"}) <= w.keys():
        raise ValueError("a witness needs 'lattice', or 'm' and 'chains'")
    host = build_cg(w["m"], w["chains"], verify=False) if "chains" in w else from_cover_text(w["lattice"])
    L = host.lattice if isinstance(host, ConvexGeometry) else host
    return bool(REPLAY[claim](host, _mask_in(L, w.get("complement", [])), w))


# -- hypotheses -----------------------------------------------------------------


def check_hyp1_sd_interval(corpus, label="corpus") -> CheckReport:
    """SD lattices: every maximal-sublattice complement is an interval."""
    instances = ((L, "hyp1", cmask, {}) for L, cmask in _complements(corpus, is_sd))
    return _sweep("hyp1-sd-interval", label, instances)


def check_hyp2_sd_join(corpus, label="corpus") -> CheckReport:
    """SD-join: complements are unions of intervals from one minimal element.

    Asserts a unique minimal element c0 and C = union of [c0, t] over the
    maximal elements t of C (both inclusions).  Dually on SD-meet lattices.

    Scope: the claim holds on every two-chain (cdim-2) geometry in the CLI
    corpora, but not on all convex geometries.  Two geometries with m = 6 on
    three and on four chains refute it (both pinned in ``tests/test_checks.py``).
    """
    instances = (
        # K's minimal elements are L's maximal ones on the dual side.
        (L, tag, cmask, {"minima" if K is L else "maxima": list(bits(_minimal_mask(K, cmask)))})
        for L, K, tag, cmask in _sided_complements(corpus, "hyp2")
    )
    return _sweep("hyp2-sdjoin-union", label, instances)


def check_hyp3_convex(corpus, label="corpus") -> CheckReport:
    """Any lattice: every maximal-sublattice complement is convex."""
    instances = ((L, "hyp3", cmask, {}) for L, cmask in _complements(corpus))
    return _sweep("hyp3-convex", label, instances)


def check_hyp4_cover(corpus, label="corpus") -> CheckReport:
    """Convex geometries: every x in C has a lower cover m in M with [0,m] ⊆ M.

    Scope: the claim holds on every two-chain (cdim-2) geometry in the CLI
    corpora, but not on all convex geometries.  Two geometries with m = 6 on
    three and on four chains refute it (both pinned in ``tests/test_checks.py``).
    """
    instances = (
        (L, "hyp4", cmask, {"element": x})
        for L, cmask in _complements(_geometries(corpus))
        for x in bits(cmask)
    )
    return _sweep("hyp4-cover", label, instances)


def check_q2_irreducibles(corpus, label="corpus") -> CheckReport:
    """cdim-2 geometries: inside C the only join-irreducible is min C and the
    only meet-irreducibles are the maximal elements of C."""

    def instances():
        for L, cmask in _complements(_geometries(corpus)):
            info = L.irreducibles
            ji, mi = mask_of(info.ji) & cmask, mask_of(info.mi) & cmask
            yield L, "q2", cmask, {"ji_inside": list(bits(ji)), "mi_inside": list(bits(mi))}

    return _sweep("q2-irreducibles", label, instances())


# -- section 4/5 theorems ----------------------------------------------------------


def check_thm_44_gist(corpus, label="corpus") -> CheckReport:
    """SD-join: a coatom in C is the unique maximal element of C, and then C
    is an interval."""

    def instances():
        for L, cmask in _complements(corpus, is_sd_join):
            hit = mask_of(L.coatoms) & cmask
            if hit:
                yield L, "thm4.4", cmask, {"coatoms": list(bits(hit))}

    return _sweep("thm44-coatom", label, instances())


def check_thm_45_greatest(corpus, label="corpus") -> CheckReport:
    """SD-join: a complement with a greatest element is an interval; dually a
    complement of an SD-meet lattice with a least element is an interval."""
    instances = (
        (L, tag, cmask, {})
        for L, K, tag, cmask in _sided_complements(corpus, "thm4.5")
        if _least(K.dual, cmask) is not None
    )
    return _sweep("thm45-greatest", label, instances)


def check_thm_51_55(corpus, label="corpus") -> CheckReport:
    """SD lattices: C is an interval whenever it has a greatest or least
    element, contains an atom or coatom, or has an element comparable to all
    of C."""

    def triggered(L, cmask):
        # A greatest or least element is comparable to all of C.
        up, down = L.up_masks, L.down_masks
        return (mask_of(L.atoms) | mask_of(L.coatoms)) & cmask or any(
            (up[a] | down[a]) & cmask == cmask for a in bits(cmask)
        )

    instances = (
        (L, "thm5.1/5.5", cmask, {}) for L, cmask in _complements(corpus, is_sd) if triggered(L, cmask)
    )
    return _sweep("thm51-55-interval", label, instances)


# -- section 6 lemmas --------------------------------------------------------------


def _lemma64_instances(corpus):
    """The instances (G, tag, cmask, w) of :func:`check_lemma_64_65`, one per
    clause; w names the point j and the successors x1, x2 of its prefixes."""
    for G in _geometries(corpus):
        if len(G.chains) != 2 or not G.has_trivial_intersection():
            continue
        L = G.lattice
        for j in range(1, G.m + 1):
            # the successors x_i of C_i(j), and whether each lies in the other prefix
            (x1, x2), inside = zip(G.successor(0, j), G.successor(1, j))
            if x1 is None or x2 is None:
                continue
            lo = G.point_closure(j)
            intervals = [L.interval_mask(lo, G.chain_prefix_of_point(i, j)) for i in (0, 1)]
            w = {"j": j, "x1": x1, "x2": x2}
            if x1 == x2:
                x_on = G.chain_member[G.point_closure(x1)]
                if not any(x_on):
                    yield G, "6.4(1a)", intervals[0] | intervals[1], w
                else:
                    i = 0 if x_on[0] else 1
                    yield G, "6.4(1b)", intervals[1 - i], {**w, "x_chain": i + 1}
                continue
            for i in (0, 1):
                tag = "6.4(2)" if inside[i] else "6.4(3')" if inside[1 - i] else "6.4(3)"
                yield G, tag, intervals[i], {**w, "chain": i + 1}


def check_lemma_64_65(corpus, label="corpus") -> CheckReport:
    """Two-chain geometries with trivial intersection, at every point j whose
    prefixes C1(j), C2(j) have successors x1, x2: if x1 = x2 = x, then
    [(j), C1(j)] ∪ [(j), C2(j)] complements a sublattice and (j) lies on no
    chain (6.4(1a)), or, when (x) lies on a chain, so does (j), and the other
    chain's interval complements a sublattice (6.4(1b)).  If x1 != x2,
    [(j), C_i(j)] complements a sublattice when x_i lies in the other prefix
    (6.4(2)), none when neither successor does (6.4(3)), and no maximal one
    in the mixed case (6.4(3')).
    """
    return _sweep("lemma-6.4-6.5", label, _lemma64_instances(corpus))


# -- sublattice-quantified lemmas ----------------------------------------------------


def sublattice_complements(L: Lattice) -> list:
    """Masks of the nonempty complements of proper sublattices of L, deduplicated.

    Exhaustive for small lattices, from one truth table over all 2^n subsets
    (:func:`~latmax.sublattice.sublattice_masks`), in ascending order of the
    sublattice's mask; for larger ones, the complements of the maximal
    sublattices plus SUBLATTICE_SAMPLES random generated sublattices, drawn
    with seed 0, ordered by size and then by their sorted elements.  Computed
    once per lattice, so the claims of one ``check all`` share it.
    """
    if L._sublattice_complements is None:
        full = L.full_mask()
        if L.n <= EXHAUSTIVE_SUBLATTICE_LIMIT:
            found = [full & ~mask for mask in sublattice_masks(L)]
        else:
            seen = {mask_of(C) for C in maximal_complements_oracle(L)}
            rng = random.Random(0)
            for _ in range(SUBLATTICE_SAMPLES):
                size = rng.randint(1, max(1, L.n // 2))
                sub = _generated_mask(L, mask_of(rng.sample(range(L.n), size)))
                if sub != full:
                    seen.add(full & ~sub)
            found = sorted(seen, key=lambda cmask: (cmask.bit_count(), list(bits(cmask))))
        L._sublattice_complements = tuple(found)
    return list(L._sublattice_complements)


def _confirmed(claim: str, label: str, checked: int, L: Lattice, tag: str, fails, cmask: int, w) -> CheckReport:
    """The report of the first instance a screen flags, once ``fails`` (the
    ``REPLAY[tag]`` predicate) confirms it on L; checked counts it."""
    if not fails(L, cmask, w):
        raise InvariantViolation(f"{tag} screen flags {w} on {list(bits(cmask))}, which its replay does not confirm")
    return CheckReport(claim, label, checked, COUNTEREXAMPLE, _witness(L, tag, cmask, **w))


def _lemma42_failing(table, cmask: int, body: int) -> int:
    """The mask of the x in cmask & body none of whose intervals (j, [j, x])
    in table lies inside cmask: the x with no strict canonical joinand.
    Every x of an SD-join lattice has a canonical representation, so the
    table of a side has an entry for each."""
    failing = 0
    for x in bits(cmask & body):
        for _, interval in table[x]:
            if interval & cmask == interval:
                break
        else:
            failing |= 1 << x
    return failing


def check_lemma_42(corpus, label="corpus") -> CheckReport:
    """SD-join: every element of every sublattice complement has a strict
    canonical joinand; dually with meetands on SD-meet lattices.

    The bottom (dually, top) is excluded: its canonical representation is
    the empty set, so the claim is vacuous there (and bottom/top never lie
    in a complement of a maximal sublattice anyway).

    The instances are (C, x, side) for x in C, in that order.  Each side
    screens a whole complement against the joinand intervals of
    :func:`~latmax.lattice._joinand_intervals` and counts its instances by
    popcount; only the first failing instance goes through its ``REPLAY``
    predicate.
    """
    claim, checked = "lemma42-scj", 0
    for L in _lattices(corpus):
        sides = [
            (tag, REPLAY[tag], _joinand_intervals(K), K.full_mask() & ~(1 << K.bottom))
            for K, tag in _sides(L, "lemma4.2")
        ]
        for cmask in sublattice_complements(L) if sides else ():
            failing = [_lemma42_failing(table, cmask, body) for _, _, table, body in sides]
            if not any(failing):
                checked += sum((cmask & body).bit_count() for *_, body in sides)
                continue
            # Walk this complement's instances in order up to the first flagged one.
            for x in bits(cmask):
                for (tag, fails, _, body), flagged in zip(sides, failing):
                    checked += body >> x & 1
                    if flagged >> x & 1:
                        return _confirmed(claim, label, checked, L, tag, fails, cmask, {"element": x})
    return CheckReport(claim, label, checked, HOLDS)


def _lemma54_bridges(L: Lattice) -> tuple:
    """(bridges, bridged): per element x, (u1, [x, u1], (x, u1], targets)
    for each canonical meetand u1 of x whose targets are not empty, where
    targets are the elements above some t in (x, u1] and not below u1: the
    only u2 such a t can lie below.  ``bridged`` is the mask of the x that
    keep a bridge; no other x can count an instance."""
    up, down = L.up_masks, L.down_masks
    bridges, bridged = [], 0
    for x, pairs in enumerate(_joinand_intervals(L.dual)):
        row = []
        for u1, interval in pairs:
            between = interval & ~(1 << x)
            reach = 0
            for t in bits(between):
                reach |= up[t]
            targets = reach & ~down[u1]
            if targets:
                row.append((u1, interval, between, targets))
        bridges.append(row)
        if row:
            bridged |= 1 << x
    return bridges, bridged


def check_lemma_54(corpus, label="corpus") -> CheckReport:
    """SD lattices: in a sublattice complement C, if u1 is a strict canonical
    meetand of x, t in C is comparable to all of C ∩ [x, u2], x < t <= u1, u2
    and u2 ≰ u1, then [x, u2] meets the sublattice.  A witness names the
    least such t.

    The instances are (C, x, u1, u2) in that order, one per (x, u1, u2)
    with such a t.  A strict u1 has [x, u1] inside C, so (x, u1] lies in C
    and t ranges over it; u2 ranges over the C-elements of its targets in
    :func:`_lemma54_bridges`, and only the x of C that keep a bridge are
    walked.  The sweep tests [x, u2] ⊆ C inline, and only the first
    failing instance goes through the ``REPLAY`` predicate.

    The premises force the conclusion on any set C: u1 is the greatest
    element of ↑x ∖ ↑c for an upper cover c of x, and c ≰ t, so c, were it
    in [x, u2] ⊆ C, would be incomparable to t; hence c ≰ u2 and u2 <= u1.
    Only a fault in the canonical meetands can make this sweep fail.
    """
    claim, tag, checked = "lemma54-bridge", "lemma5.4", 0
    for L in _lattices(corpus):
        if not is_sd(L):
            continue
        fails, (bridges, bridged) = REPLAY[tag], _lemma54_bridges(L)
        up, down = L.up_masks, L.down_masks
        comparable = [u | d for u, d in zip(up, down)]
        for cmask in sublattice_complements(L):
            for x in bits(cmask & bridged):
                for u1, interval, between, targets in bridges[x]:
                    if interval & cmask != interval:  # u1 is no strict meetand
                        continue
                    for u2 in bits(cmask & targets):
                        span = up[x] & down[u2]
                        box = cmask & span
                        # the least t in (x, u1], below u2 and comparable to the box
                        for t in bits(between & down[u2]):
                            if not box & ~comparable[t]:
                                checked += 1
                                if box == span:
                                    w = {"x": x, "u1": u1, "u2": u2, "t": t}
                                    return _confirmed(claim, label, checked, L, tag, fails, cmask, w)
                                break
    return CheckReport(claim, label, checked, HOLDS)


# -- baseline sweeps -------------------------------------------------------------


def check_distributive_baseline(corpus, label="corpus") -> CheckReport:
    """Distributive lattices: complements are intervals [a, b] with a the
    unique internal join-irreducible and b the unique internal
    meet-irreducible."""
    instances = (
        (L, "distributive-baseline", cmask, {}) for L, cmask in _complements(corpus, is_distributive)
    )
    return _sweep("distributive-baseline", label, instances)


def bounded_interval_baseline(corpus, label="corpus"):
    """Doubled (bounded) lattices: complements must be intervals; the number
    of internal join-irreducibles is reported, not asserted (doubling can
    produce complements with several, unlike the distributive case).

    Returns (CheckReport, multiplicity histogram).
    """
    histogram: dict = {}

    def instances():
        for L, cmask in _complements(corpus):
            yield L, "bounded-baseline", cmask, {}
            # reached only when the sweep found C to be an interval
            k = (mask_of(L.irreducibles.ji) & cmask).bit_count()
            histogram[k] = histogram.get(k, 0) + 1

    return _sweep("bounded-baseline", label, instances()), histogram


# -- the observation suite --------------------------------------------------------


def observation_suite(L: Lattice, M) -> CheckReport:
    """Assert the general complement observations against a maximal sublattice M.

    Checks, in order: containment in one indecomposable component; no doubly
    irreducible element in a complement of size >= 2; maximal elements of the
    complement meet-irreducible and minimal ones join-irreducible; bottom/top
    membership under two atoms/coatoms; no split into incomparable halves;
    the m0-dichotomy (and its dual); saturation at maximal elements of
    M minus top (and dually); and the greatest/least-element subcover facts.
    Reports the first violated observation, each on L before its dual half;
    where several elements violate one half, the witness names the lowest
    id.  A ValueError names an id of M outside 0..n-1.
    """
    mmask = _mask_in(L, M)
    cmask = L.full_mask() & ~mmask

    def report(observation: str, **detail) -> CheckReport:
        # The suite tries the observations 3.1-3.8 in turn, so 3.k is the k-th.
        witness = _witness(L, "observation-suite", cmask, observation=observation, **detail)
        return CheckReport("observation-suite", f"n={L.n}", int(observation[2]), COUNTEREXAMPLE, witness)

    # Each two-sided observation is checked on L and then, dually, on
    # L.dual, where the minimal elements of C are L's maximal ones, the
    # bottom is L's top and the atoms are L's coatoms; the dual half keeps
    # its own name and detail keys.
    minima, maxima = _minimal_mask(L, cmask), _minimal_mask(L.dual, cmask)
    sides = ((L, minima, maxima), (L.dual, maxima, minima))

    # 3.1 complement confined to one indecomposable component, that is
    # inside ↑c or ↓c for every cut element c (one comparable to all)
    up, down, full = L.up_masks, L.down_masks, L.full_mask()
    if any(up[c] | down[c] == full and cmask & ~up[c] and cmask & ~down[c] for c in range(L.n)):
        return report("3.1-component")

    # 3.2 no doubly irreducible element when |C| >= 2
    info = L.irreducibles
    dbl = mask_of(info.ji & info.mi) & cmask
    if cmask.bit_count() >= 2 and dbl:
        return report("3.2-doubly-irreducible", element=next(bits(dbl)))

    # 3.3 maxima meet-irreducible, and dually minima join-irreducible
    for K, _, highs in sides:
        bad = next((a for a in bits(highs) if a not in K.irreducibles.mi), None)
        if bad is not None:
            return report("3.3-irreducible-extremes", element=bad)

    # 3.4 bottom belongs to M given two atoms, and dually top given two coatoms
    for (K, _, _), name in zip(sides, ("3.4-bottom", "3.4-top")):
        if len(K.atoms) >= 2 and not mmask >> K.bottom & 1:
            return report(name)

    # 3.5 no partition into two mutually incomparable nonempty parts: the
    # comparability graph on C, searched from its lowest id, is connected.
    reached = frontier = cmask & -cmask
    while frontier:
        step = 0
        for a in bits(frontier):
            step |= up[a] | down[a]
        frontier = step & cmask & ~reached
        reached |= frontier
    if reached != cmask:
        return report("3.5-disconnected", part=list(bits(cmask & ~reached)))

    # 3.6 with m0 the meet of m̄ over minimal elements: C inside [m0, 1] or
    # disjoint from it, convex in the second case; dually m1, the join of m̲
    # over maximal elements.  m̄(c) is the meet of M ∩ ↑c, undefined when M
    # has no element above c or none below it, and then so is m0.
    names = (("3.6-m0-dichotomy", "3.6-convexity", "m0"), ("3.6-dual-dichotomy", "3.6-dual-convexity", "m1"))
    for (K, lows, _), (split, convexity, key) in zip(sides, names):
        up_k, down_k = K.up_masks, K.down_masks
        if lows and all(mmask & up_k[c] and mmask & down_k[c] for c in bits(lows)):
            m0 = _join_of(K.dual, mask_of(_join_of(K.dual, mmask & up_k[c]) for c in bits(lows)))
            inside = cmask & up_k[m0]
            if inside and inside != cmask:
                return report(split, **{key: m0})
            if not inside and not _is_convex_mask(L, cmask):
                return report(convexity, **{key: m0})

    # 3.7 m* maximal in M∖{1}, c in (m*, 1): every m in M not below m* joins c to 1.
    for (K, _, _), name in zip(sides, ("3.7-saturation", "3.7-dual-saturation")):
        up_k, down_k, top = K.up_masks, K.down_masks, 1 << K.top
        rest = mmask & ~top
        for mstar in bits(rest):
            if up_k[mstar] & rest != 1 << mstar:
                continue
            for c in bits(up_k[mstar] & ~(1 << mstar) & ~top):
                m = next((m for m in bits(mmask & ~down_k[mstar]) if up_k[m] & up_k[c] != top), None)
                if m is not None:
                    return report(name, mstar=mstar, c=c, m=m)

    # 3.8 greatest element a of C has m̲(a) ≺ a; dually a least element c
    # has c ≺ m̄(c).  Nothing is asserted where the bound is undefined.
    names = (("3.8-greatest-subcover", "a", "m_under"), ("3.8-least-cover", "c", "m_over"))
    for (K, _, highs), (name, a_key, bound_key) in zip(sides, names):
        if highs.bit_count() == 1:
            a = next(bits(highs))
            if mmask & K.up_masks[a] and mmask & K.down_masks[a]:
                under = _join_of(K, mmask & K.down_masks[a])
                if a not in K.covers[under]:
                    return report(name, **{a_key: a, bound_key: under})

    return CheckReport("observation-suite", f"n={L.n}", 8, HOLDS)


# -- the claims of ``latmax check`` ---------------------------------------------------

# Claim id -> (checker, corpus builder), in report order.  A builder takes
# some of the options of ``latmax check``, by name (max_m, seed, and count
# for --random), and returns (corpus, label).
CLAIMS = {
    "hyp1": (check_hyp1_sd_interval, sd_corpus),
    "hyp2": (check_hyp2_sd_join, cdim2_corpus),
    "hyp3": (check_hyp3_convex, cdim2_corpus),
    "hyp4": (check_hyp4_cover, cdim2_corpus),
    "q2": (check_q2_irreducibles, cdim2_corpus),
    "thm44": (check_thm_44_gist, cdim2_corpus),
    "thm45": (check_thm_45_greatest, cdim2_corpus),
    "thm51-55": (check_thm_51_55, sd_corpus),
    "lemma42": (check_lemma_42, sd_corpus),
    "lemma54": (check_lemma_54, sd_corpus),
}
