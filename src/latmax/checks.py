"""Falsification harnesses for the complement-shape claims.

Every checker lists the instances of its claim on a corpus, and one sweep
tests them and hunts for a counterexample; the returned status ``Holds``
means "no counterexample in this corpus", never proof.  The sweep tests an
instance only through the table :data:`REPLAY` (witness tag -> predicate),
so :func:`reverify_witness` replays a witness, which names its host (a
lattice by its cover list, a geometry by m and its chains) plus the
violating data, with the very call that found it.  A dual claim is its
primal predicate run on ``L.dual``, under the primal tag plus ``-dual``.

:data:`CLAIMS` is the one table of the claims ``latmax check`` runs: claim
id -> (checker, corpus builder), in report order.
"""
from __future__ import annotations

import random

from .cdim2 import _next_point
from .corpus import cdim2_corpus, sd_corpus
from .geometry import ConvexGeometry, build_cg
from .lattice import (
    Lattice,
    bits,
    from_cover_text,
    is_convex_subset,
    is_distributive,
    is_sd,
    is_sd_join,
    is_sd_meet,
    minimal_elements,
    to_cover_text,
)
from .report import COUNTEREXAMPLE, HOLDS, CheckReport
from .sublattice import (
    NoCanonicalRep,
    generate_sublattice,
    is_maximal_sublattice,
    is_sublattice,
    maximal_complements_oracle,
    observation_suite,
    strict_canonical_joinands,
    strict_canonical_meetands,
    sublattice_masks,
)

__all__ = [
    "CLAIMS",
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
    "reverify_witness",
    "sublattice_complements",
]

EXHAUSTIVE_SUBLATTICE_LIMIT = 10


def _lattices(corpus):
    """The lattices of corpus; a geometry stands for its lattice."""
    return (item.lattice if isinstance(item, ConvexGeometry) else item for item in corpus)


def _geometries(corpus):
    return (item for item in corpus if isinstance(item, ConvexGeometry))


def _complements(corpus, keep=None):
    """(L, C) for every maximal-sublattice complement C of every lattice L of
    corpus that keep accepts (all of them when keep is None)."""
    for L in _lattices(corpus):
        if keep is None or keep(L):
            for C in maximal_complements_oracle(L):
                yield L, C


def _sides(L: Lattice, tag: str) -> list:
    """(L, tag) when L is SD-join, then (L.dual, tag + "-dual") when L is SD-meet."""
    both = (((L, tag), is_sd_join(L)), ((L.dual, tag + "-dual"), is_sd_meet(L)))
    return [side for side, holds in both if holds]


def _sided_complements(corpus, tag):
    """(L, K, side tag, C) for every complement C and every side (K, side tag) of L."""
    for L in _lattices(corpus):
        sides = _sides(L, tag)
        for C in maximal_complements_oracle(L) if sides else ():
            for K, side_tag in sides:
                yield L, K, side_tag, C


def _witness(host, claim: str, C, **extra) -> dict:
    """The witness that C violates claim in host, which it names: a geometry
    by m and its chains, a lattice by its cover list."""
    if isinstance(host, ConvexGeometry):
        w = {"claim": claim, "m": host.m, "chains": [list(c.perm) for c in host.chains]}
        host = host.lattice
    else:
        w = {"claim": claim, "lattice": to_cover_text(host)}
    w.update(sublattice=sorted(set(range(host.n)) - set(C)), complement=sorted(C))
    w.update(extra)
    return w


# Witness tags a sweep tests without counting them as instances of its claim.
_UNCOUNTED = frozenset({"hyp4-convexity"})


def _sweep(claim: str, label: str, instances) -> CheckReport:
    """Test every instance (host, tag, C, w) with ``REPLAY[tag](host, C, w)``,
    the call :func:`reverify_witness` makes on the serialized witness.

    The host is a lattice, or a geometry for the claims about its chains.
    The first violation stops the sweep; its witness is the set C of host
    plus the entries of w.
    """
    checked = 0
    for host, tag, C, w in instances:
        checked += tag not in _UNCOUNTED
        if REPLAY[tag](host, C, w):
            return CheckReport(claim, label, checked, COUNTEREXAMPLE, _witness(host, tag, C, **w))
    return CheckReport(claim, label, checked, HOLDS)


# -- violation predicates (L, C, w): True when C violates the claim in L --------
# C is a complement and w holds the witness entries the claim needs.


def _interval_fails(L: Lattice, C, w) -> bool:
    """C is not the interval [meet C, join C]."""
    cset = frozenset(C)
    return L.interval(L.meet_of(cset), L.join_of(cset)) != cset


def _convex_fails(L: Lattice, C, w) -> bool:
    """Some [a, c] with a <= c in C leaves C."""
    return not is_convex_subset(L, C)


def _hyp2_fails(L: Lattice, C, w) -> bool:
    """C lacks a unique minimal element c0, or some [c0, t] with t maximal leaves C."""
    minima = minimal_elements(L, C)
    cmask = L.mask_of(C)
    return len(minima) != 1 or any(
        L.interval_mask(minima[0], t) & ~cmask for t in minimal_elements(L.dual, C)
    )


def _hyp4_fails(L: Lattice, C, w) -> bool:
    """No lower cover m of w["element"] lies outside C with all of [0, m] outside C."""
    cmask = L.mask_of(C)
    return not any(
        not (cmask >> m) & 1 and L.down_masks[m] & cmask == 0
        for m in L.lower_covers[w["element"]]
    )


def _q2_fails(L: Lattice, C, w) -> bool:
    """The join-irreducibles in C are not just one minimum, or its
    meet-irreducibles are not exactly its maximal elements."""
    info = L.irreducibles
    minima = minimal_elements(L, C)
    return (
        info.ji & C != set(minima)
        or len(minima) != 1
        or info.mi & C != set(minimal_elements(L.dual, C))
    )


def _thm44_fails(L: Lattice, C, w) -> bool:
    """C holds a coatom, yet not exactly one coatom as its only maximal
    element, or C is no interval."""
    hit = L.coatoms & C
    return bool(hit) and (
        set(minimal_elements(L.dual, C)) != hit or len(hit) != 1 or _interval_fails(L, C, w)
    )


def _lemma42_fails(L: Lattice, C, w) -> bool:
    """w["element"] has no strict canonical joinand in C."""
    return not strict_canonical_joinands(L, C, w["element"])


def _lemma54_fails(L: Lattice, C, w) -> bool:
    """[w["x"], w["u2"]] lies inside C, missing the sublattice."""
    return L.interval_mask(w["x"], w["u2"]) & ~L.mask_of(C) == 0


def _distributive_fails(L: Lattice, C, w) -> bool:
    """C is not an interval [a, b] with a its only join- and b its only meet-irreducible."""
    info = L.irreducibles
    lo, hi = L.meet_of(C), L.join_of(C)
    return not (L.interval(lo, hi) == C and info.ji & C == {lo} and info.mi & C == {hi})


def _rest_is_sublattice(G: ConvexGeometry, C, w) -> bool:
    """The elements of G outside C form a sublattice (6.4(3) fails)."""
    L = G.lattice
    return is_sublattice(L, bits(L.full_mask() & ~L.mask_of(C)))


def _lemma64_2_fails(G: ConvexGeometry, C, w) -> bool:
    """The rest of G outside C is no sublattice."""
    return not _rest_is_sublattice(G, C, w)


def _lemma64_1a_fails(G: ConvexGeometry, C, w) -> bool:
    """(j) lies on a chain, or the rest is no sublattice."""
    return any(G.chain_member[G.point_closure(w["j"])]) or _lemma64_2_fails(G, C, w)


def _lemma64_1b_fails(G: ConvexGeometry, C, w) -> bool:
    """(j) is off the chain w["x_chain"] of (x), or the rest is no sublattice."""
    return not G.chain_member[G.point_closure(w["j"])][w["x_chain"] - 1] or _lemma64_2_fails(G, C, w)


def _lemma64_3_maximal_fails(G: ConvexGeometry, C, w) -> bool:
    """The rest of G outside C is a maximal sublattice."""
    L = G.lattice
    return is_maximal_sublattice(L, bits(L.full_mask() & ~L.mask_of(C)))


def _observation_reproduces(L: Lattice, C, w) -> bool:
    rerun = observation_suite(L, frozenset(w["sublattice"]))
    return rerun.status == COUNTEREXAMPLE and rerun.witness["observation"] == w["observation"]


def _on_dual(fails):
    """The dual claim's predicate: fails run on L.dual."""
    return lambda L, C, w: fails(L.dual, C, w)


# Witness tag -> predicate(L, C, w), True when the violation reproduces.  The
# sweeps test every instance through this table, and so does the replay.
REPLAY = {
    "hyp1": _interval_fails,
    "hyp2": _hyp2_fails,
    "hyp2-dual": _on_dual(_hyp2_fails),
    "hyp3": _convex_fails,
    "hyp4": _hyp4_fails,
    "hyp4-convexity": _convex_fails,
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
    A report that holds has nothing to reverify.
    """
    if report.status != COUNTEREXAMPLE or not report.witness:
        return False
    w = report.witness
    claim = w.get("claim", "")
    if claim not in REPLAY:
        raise ValueError(f"unknown witness claim {claim!r}")
    host = build_cg(w["m"], w["chains"], verify=False) if "chains" in w else from_cover_text(w["lattice"])
    return bool(REPLAY[claim](host, frozenset(w.get("complement", [])), w))


# -- hypotheses -----------------------------------------------------------------


def check_hyp1_sd_interval(corpus, label="corpus") -> CheckReport:
    """SD lattices: every maximal-sublattice complement is an interval."""
    instances = ((L, "hyp1", C, {}) for L, C in _complements(corpus, is_sd))
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
        (L, tag, C, {"minima" if K is L else "maxima": sorted(minimal_elements(K, C))})
        for L, K, tag, C in _sided_complements(corpus, "hyp2")
    )
    return _sweep("hyp2-sdjoin-union", label, instances)


def check_hyp3_convex(corpus, label="corpus") -> CheckReport:
    """Any lattice: every maximal-sublattice complement is convex."""
    instances = ((L, "hyp3", C, {}) for L, C in _complements(corpus))
    return _sweep("hyp3-convex", label, instances)


def check_hyp4_cover(corpus, label="corpus") -> CheckReport:
    """Convex geometries: every x in C has a lower cover m in M with [0,m] ⊆ M.

    Also replays, uncounted, the implication that a complement passing the
    cover check is convex.

    Scope: the claim holds on every two-chain (cdim-2) geometry in the CLI
    corpora, but not on all convex geometries.  Two geometries with m = 6 on
    three and on four chains refute it (both pinned in ``tests/test_checks.py``).
    """

    def instances():
        for L, C in _complements(_geometries(corpus)):
            for x in C:
                yield L, "hyp4", C, {"element": x}
            yield L, "hyp4-convexity", C, {}

    return _sweep("hyp4-cover", label, instances())


def check_q2_irreducibles(corpus, label="corpus") -> CheckReport:
    """cdim-2 geometries: inside C the only join-irreducible is min C and the
    only meet-irreducibles are the maximal elements of C."""

    def instances():
        for L, C in _complements(_geometries(corpus)):
            info = L.irreducibles
            yield L, "q2", C, {"ji_inside": sorted(info.ji & C), "mi_inside": sorted(info.mi & C)}

    return _sweep("q2-irreducibles", label, instances())


# -- section 4/5 theorems ----------------------------------------------------------


def check_thm_44_gist(corpus, label="corpus") -> CheckReport:
    """SD-join: a coatom in C is the unique maximal element of C, and then C
    is an interval."""
    instances = (
        (L, "thm4.4", C, {"coatoms": sorted(L.coatoms & C)})
        for L, C in _complements(corpus, is_sd_join)
        if L.coatoms & C
    )
    return _sweep("thm44-coatom", label, instances)


def check_thm_45_greatest(corpus, label="corpus") -> CheckReport:
    """SD-join: a complement with a greatest element is an interval; dually a
    complement of an SD-meet lattice with a least element is an interval."""
    instances = (
        (L, tag, C, {})
        for L, K, tag, C in _sided_complements(corpus, "thm4.5")
        if len(minimal_elements(K.dual, C)) == 1
    )
    return _sweep("thm45-greatest", label, instances)


def check_thm_51_55(corpus, label="corpus") -> CheckReport:
    """SD lattices: C is an interval whenever it has a greatest or least
    element, contains an atom or coatom, or has an element comparable to all
    of C."""

    def triggered(L, C):
        return (
            len(minimal_elements(L.dual, C)) == 1
            or len(minimal_elements(L, C)) == 1
            or (L.atoms | L.coatoms) & C
            or any(all(L.leq[a, b] or L.leq[b, a] for b in C) for a in C)
        )

    instances = (
        (L, "thm5.1/5.5", C, {}) for L, C in _complements(corpus, is_sd) if triggered(L, C)
    )
    return _sweep("thm51-55-interval", label, instances)


# -- section 6 lemmas --------------------------------------------------------------


def _lemma64_instances(corpus):
    """The instances (G, tag, C, w) of :func:`check_lemma_64_65`, one per
    clause; w names the point j and the successors x1, x2 of its prefixes."""
    for G in _geometries(corpus):
        if len(G.chains) != 2 or not G.has_trivial_intersection():
            continue
        L = G.lattice
        for j in range(1, G.m + 1):
            x1, x2 = _next_point(G, 0, j), _next_point(G, 1, j)
            if x1 is None or x2 is None:
                continue
            lo = G.point_closure(j)
            intervals = [L.interval(lo, G.chain_prefix_of_point(i, j)) for i in (0, 1)]
            w = {"j": j, "x1": x1, "x2": x2}
            if x1 == x2:
                x_on = G.chain_member[G.point_closure(x1)]
                if not any(x_on):
                    yield G, "6.4(1a)", intervals[0] | intervals[1], w
                else:
                    i = 0 if x_on[0] else 1
                    yield G, "6.4(1b)", intervals[1 - i], {**w, "x_chain": i + 1}
                continue
            # inside[i]: the successor on chain i already lies in the other prefix
            inside = [G.chains[1 - i].pos[xi] <= G.chains[1 - i].pos[j] for i, xi in enumerate((x1, x2))]
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


def sublattice_complements(L: Lattice, seed: int = 0, samples: int = 60):
    """Nonempty complements of proper sublattices of L, deduplicated.

    Exhaustive for small lattices, from one truth table over all 2^n subsets
    (:func:`~latmax.sublattice.sublattice_masks`), in ascending order of the
    sublattice's mask; for larger ones, the complements of the maximal
    sublattices plus seeded random generated sublattices.
    """
    full = L.full_mask()
    if L.n <= EXHAUSTIVE_SUBLATTICE_LIMIT:
        return [frozenset(bits(full & ~mask)) for mask in sublattice_masks(L)]
    everything = frozenset(range(L.n))
    seen = set(maximal_complements_oracle(L))
    rng = random.Random(seed)
    for _ in range(samples):
        size = rng.randint(1, max(1, L.n // 2))
        gens = rng.sample(range(L.n), size)
        sub = generate_sublattice(L, gens)
        if len(sub) < L.n:
            seen.add(everything - sub)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def check_lemma_42(corpus, label="corpus", seed: int = 0) -> CheckReport:
    """SD-join: every element of every sublattice complement has a strict
    canonical joinand; dually with meetands on SD-meet lattices.

    The bottom (dually, top) is excluded: its canonical representation is
    the empty set, so the claim is vacuous there (and bottom/top never lie
    in a complement of a maximal sublattice anyway).
    """

    def instances():
        for L in _lattices(corpus):
            sides = _sides(L, "lemma4.2")
            for C in sublattice_complements(L, seed=seed) if sides else ():
                for x in C:
                    for K, tag in sides:
                        if x != K.bottom:
                            yield L, tag, C, {"element": x}

    return _sweep("lemma42-scj", label, instances())


def _lemma54_instances(corpus, seed: int):
    """The instances (L, "lemma5.4", C, w) of :func:`check_lemma_54`.

    A t exists only when u2 lies above some t in C ∩ (x, u1], so u2 is
    skipped unless it lies in ``reach``, the union of the up sets of those t,
    and outside the down set of u1.
    """
    for L in _lattices(corpus):
        if not is_sd(L):
            continue
        up, down = L.up_masks, L.down_masks
        for C in sublattice_complements(L, seed=seed):
            cmask = L.mask_of(C)
            for x in C:
                try:
                    scms = strict_canonical_meetands(L, C, x)
                except NoCanonicalRep:
                    continue
                for u1 in scms:
                    reach = 0
                    for t in bits(cmask & up[x] & down[u1] & ~(1 << x)):
                        reach |= up[t]
                    reach &= ~down[u1]
                    if not reach:
                        continue
                    for u2 in C:
                        if not reach >> u2 & 1:
                            continue
                        box = cmask & up[x] & down[u2]
                        # t in C strictly above x, below u1 and u2, and
                        # comparable to every element of the box
                        mid = box & down[u1] & ~(1 << x)
                        t = next((t for t in bits(mid) if not box & ~(up[t] | down[t])), None)
                        if t is not None:
                            yield L, "lemma5.4", C, {"x": x, "u1": u1, "u2": u2, "t": t}


def check_lemma_54(corpus, label="corpus", seed: int = 0) -> CheckReport:
    """SD lattices: in a sublattice complement C, if u1 is a strict canonical
    meetand of x, t in C is comparable to all of C ∩ [x, u2], x < t <= u1, u2
    and u2 ≰ u1, then [x, u2] meets the sublattice.  A witness names the
    least such t."""
    return _sweep("lemma54-bridge", label, _lemma54_instances(corpus, seed))


# -- baseline sweeps -------------------------------------------------------------


def check_distributive_baseline(corpus, label="corpus") -> CheckReport:
    """Distributive lattices: complements are intervals [a, b] with a the
    unique internal join-irreducible and b the unique internal
    meet-irreducible."""
    instances = (
        (L, "distributive-baseline", C, {}) for L, C in _complements(corpus, is_distributive)
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
        for L, C in _complements(corpus):
            yield L, "bounded-baseline", C, {}
            # reached only when the sweep found C to be an interval
            k = len(L.irreducibles.ji & C)
            histogram[k] = histogram.get(k, 0) + 1

    return _sweep("bounded-baseline", label, instances()), histogram


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
