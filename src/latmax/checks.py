"""Falsification harnesses for the complement-shape claims.

Every checker sweeps a corpus and hunts for a counterexample; the returned
status ``Holds`` means "no counterexample in this corpus", never proof.
Witnesses carry the lattice in cover-list form plus the violating data and
can be re-verified with :func:`reverify_witness`, which replays the very
predicate the checker used (table :data:`REPLAY`).  A dual claim is its
primal check run on ``L.dual``, under the primal tag plus ``-dual``.
"""
from __future__ import annotations

import random

from .geometry import ConvexGeometry
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
    is_sublattice,
    maximal_complements_oracle,
    observation_suite,
    strict_canonical_joinands,
    strict_canonical_meetands,
)

__all__ = [
    "REPLAY",
    "check_hyp1_sd_interval",
    "check_hyp2_sd_join",
    "check_hyp3_convex",
    "check_hyp4_cover",
    "check_lemma_42",
    "check_lemma_54",
    "check_q2_irreducibles",
    "check_thm_44_gist",
    "check_thm_45_greatest",
    "check_thm_51_55",
    "reverify_witness",
    "sublattice_complements",
]

EXHAUSTIVE_SUBLATTICE_LIMIT = 10


def _lattice_of(item) -> Lattice:
    return item.lattice if isinstance(item, ConvexGeometry) else item


def _witness(L: Lattice, claim: str, M=None, C=None, **extra) -> dict:
    w = {"claim": claim, "lattice": to_cover_text(L)}
    if C is not None and M is None:
        M = frozenset(range(L.n)) - frozenset(C)
    if M is not None:
        w["sublattice"] = sorted(M)
    if C is not None:
        w["complement"] = sorted(C)
    w.update(extra)
    return w


def _sides(L: Lattice, tag: str) -> list:
    """(L, tag) when L is SD-join, then (L.dual, tag + "-dual") when L is SD-meet."""
    both = (((L, tag), is_sd_join(L)), ((L.dual, tag + "-dual"), is_sd_meet(L)))
    return [side for side, holds in both if holds]


# -- violation predicates: each is shared by its checker and by the replay ------


def _is_interval(L: Lattice, C) -> bool:
    cset = frozenset(C)
    lo = L.meet_of(cset)
    hi = L.join_of(cset)
    return lo in cset and hi in cset and L.interval(lo, hi) == cset


def _hyp2_fails(L: Lattice, C) -> bool:
    """C lacks a unique minimal element c0, or some [c0, t] with t maximal leaves C."""
    minima = minimal_elements(L, C)
    cmask = L.mask_of(C)
    return len(minima) != 1 or any(
        L.interval_mask(minima[0], t) & ~cmask for t in minimal_elements(L.dual, C)
    )


def _hyp4_fails(L: Lattice, cmask: int, x: int) -> bool:
    """No lower cover m of x lies outside C with all of [0, m] outside C."""
    return not any(
        not (cmask >> m) & 1 and L.down_masks[m] & cmask == 0 for m in L.lower_covers[x]
    )


def _q2_fails(L: Lattice, C) -> bool:
    """The join-irreducibles in C are not just one minimum, or its
    meet-irreducibles are not exactly its maximal elements."""
    info = L.irreducibles
    minima = minimal_elements(L, C)
    return (
        info.ji & C != set(minima)
        or len(minima) != 1
        or info.mi & C != set(minimal_elements(L.dual, C))
    )


def _thm44_fails(L: Lattice, C) -> bool:
    """C holds a coatom, yet not exactly one coatom as its only maximal
    element, or C is no interval."""
    hit = L.coatoms & C
    return bool(hit) and (
        set(minimal_elements(L.dual, C)) != hit or len(hit) != 1 or not _is_interval(L, C)
    )


def _lemma42_fails(L: Lattice, C, x: int) -> bool:
    """x has no strict canonical joinand in C."""
    return not strict_canonical_joinands(L, C, x)


def _lemma54_fails(L: Lattice, cmask: int, x: int, u2: int) -> bool:
    """[x, u2] lies inside C, missing the sublattice."""
    return L.interval_mask(x, u2) & ~cmask == 0


def _distributive_fails(L: Lattice, C) -> bool:
    """C is not an interval [a, b] with a its only join- and b its only meet-irreducible."""
    info = L.irreducibles
    lo, hi = L.meet_of(C), L.join_of(C)
    return not (L.interval(lo, hi) == C and info.ji & C == {lo} and info.mi & C == {hi})


# -- hypotheses -----------------------------------------------------------------


def check_hyp1_sd_interval(corpus, label="corpus", bound=None) -> CheckReport:
    """SD lattices: every maximal-sublattice complement is an interval."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        if not is_sd(L):
            continue
        for C in maximal_complements_oracle(L, bound):
            checked += 1
            if not _is_interval(L, C):
                w = _witness(L, "hyp1", C=C)
                return CheckReport("hyp1-sd-interval", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("hyp1-sd-interval", label, checked, HOLDS)


def check_hyp2_sd_join(corpus, label="corpus", bound=None) -> CheckReport:
    """SD-join: complements are unions of intervals from one minimal element.

    Asserts a unique minimal element c0 and C = union of [c0, t] over the
    maximal elements t of C (both inclusions).  Dually on SD-meet lattices.
    """
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        sides = _sides(L, "hyp2")
        if not sides:
            continue
        for C in maximal_complements_oracle(L, bound):
            for K, tag in sides:
                checked += 1
                if _hyp2_fails(K, C):
                    # K's minimal elements are L's maximal ones on the dual side.
                    key = "minima" if K is L else "maxima"
                    w = _witness(L, tag, C=C, **{key: sorted(minimal_elements(K, C))})
                    return CheckReport("hyp2-sdjoin-union", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("hyp2-sdjoin-union", label, checked, HOLDS)


def check_hyp3_convex(corpus, label="corpus", bound=None) -> CheckReport:
    """Any lattice: every maximal-sublattice complement is convex."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        for C in maximal_complements_oracle(L, bound):
            checked += 1
            if not is_convex_subset(L, C):
                w = _witness(L, "hyp3", C=C)
                return CheckReport("hyp3-convex", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("hyp3-convex", label, checked, HOLDS)


def check_hyp4_cover(corpus, label="corpus", bound=None) -> CheckReport:
    """Convex geometries: every x in C has a lower cover m in M with [0,m] ⊆ M.

    Also replays the implication that a complement passing the cover check
    is convex.
    """
    checked = 0
    for G in corpus:
        if not isinstance(G, ConvexGeometry):
            continue
        L = G.lattice
        for C in maximal_complements_oracle(L, bound):
            cmask = L.mask_of(C)
            for x in C:
                checked += 1
                if _hyp4_fails(L, cmask, x):
                    w = _witness(L, "hyp4", C=C, element=x)
                    return CheckReport("hyp4-cover", label, checked, COUNTEREXAMPLE, w)
            if not is_convex_subset(L, C):
                w = _witness(L, "hyp4-convexity", C=C)
                return CheckReport("hyp4-cover", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("hyp4-cover", label, checked, HOLDS)


def check_q2_irreducibles(corpus, label="corpus", bound=None) -> CheckReport:
    """cdim-2 geometries: inside C the only join-irreducible is min C and the
    only meet-irreducibles are the maximal elements of C."""
    checked = 0
    for G in corpus:
        if not isinstance(G, ConvexGeometry):
            continue
        L = G.lattice
        info = L.irreducibles
        for C in maximal_complements_oracle(L, bound):
            checked += 1
            if _q2_fails(L, C):
                w = _witness(
                    L,
                    "q2",
                    C=C,
                    ji_inside=sorted(info.ji & C),
                    mi_inside=sorted(info.mi & C),
                )
                return CheckReport("q2-irreducibles", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("q2-irreducibles", label, checked, HOLDS)


# -- section 4/5 theorems ----------------------------------------------------------


def check_thm_44_gist(corpus, label="corpus", bound=None) -> CheckReport:
    """SD-join: a coatom in C is the unique maximal element of C, and then C
    is an interval."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        if not is_sd_join(L):
            continue
        for C in maximal_complements_oracle(L, bound):
            hit = L.coatoms & C
            if not hit:
                continue
            checked += 1
            if _thm44_fails(L, C):
                w = _witness(L, "thm4.4", C=C, coatoms=sorted(hit))
                return CheckReport("thm44-coatom", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("thm44-coatom", label, checked, HOLDS)


def check_thm_45_greatest(corpus, label="corpus", bound=None) -> CheckReport:
    """SD-join: a complement with a greatest element is an interval; dually a
    complement of an SD-meet lattice with a least element is an interval."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        sides = _sides(L, "thm4.5")
        if not sides:
            continue
        for C in maximal_complements_oracle(L, bound):
            for K, tag in sides:
                if len(minimal_elements(K.dual, C)) == 1:
                    checked += 1
                    if not _is_interval(K, C):
                        w = _witness(L, tag, C=C)
                        return CheckReport("thm45-greatest", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("thm45-greatest", label, checked, HOLDS)


def check_thm_51_55(corpus, label="corpus", bound=None) -> CheckReport:
    """SD lattices: C is an interval whenever it has a greatest or least
    element, contains an atom or coatom, or has an element comparable to all
    of C."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        if not is_sd(L):
            continue
        for C in maximal_complements_oracle(L, bound):
            triggers = (
                len(minimal_elements(L.dual, C)) == 1
                or len(minimal_elements(L, C)) == 1
                or (L.atoms | L.coatoms) & C
                or any(all(L.leq[a, b] or L.leq[b, a] for b in C) for a in C)
            )
            if not triggers:
                continue
            checked += 1
            if not _is_interval(L, C):
                w = _witness(L, "thm5.1/5.5", C=C)
                return CheckReport("thm51-55-interval", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("thm51-55-interval", label, checked, HOLDS)


# -- sublattice-quantified lemmas ----------------------------------------------------


def sublattice_complements(L: Lattice, seed: int = 0, samples: int = 60):
    """Nonempty complements of proper sublattices of L, deduplicated.

    Exhaustive over all subsets for small lattices; for larger ones, the
    complements of the maximal sublattices plus seeded random generated
    sublattices.
    """
    full = L.full_mask()
    if L.n <= EXHAUSTIVE_SUBLATTICE_LIMIT:
        return [
            frozenset(bits(full & ~mask)) for mask in range(1, full) if is_sublattice(L, bits(mask))
        ]
    everything = frozenset(range(L.n))
    seen = set()
    for C in maximal_complements_oracle(L, bound=L.n):
        seen.add(C)
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
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        sides = _sides(L, "lemma4.2")
        if not sides:
            continue
        for C in sublattice_complements(L, seed=seed):
            for x in C:
                for K, tag in sides:
                    if x != K.bottom:
                        checked += 1
                        if _lemma42_fails(K, C, x):
                            w = _witness(L, tag, C=C, element=x)
                            return CheckReport("lemma42-scj", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("lemma42-scj", label, checked, HOLDS)


def check_lemma_54(corpus, label="corpus", seed: int = 0) -> CheckReport:
    """SD lattices: in a sublattice complement C, if u1 is a strict canonical
    meetand of x, t in C is comparable to all of C ∩ [x, u2], x < t <= u1, u2
    and u2 ≰ u1, then [x, u2] meets the sublattice."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        if not is_sd(L):
            continue
        for C in sublattice_complements(L, seed=seed):
            cset = frozenset(C)
            cmask = L.mask_of(cset)
            for x in cset:
                try:
                    scms = strict_canonical_meetands(L, cset, x)
                except NoCanonicalRep:
                    continue
                for u1 in scms:
                    for u2 in cset:
                        if L.leq[u2, u1]:
                            continue
                        # candidates for t: strictly above x, below both u's
                        mid = [
                            t
                            for t in cset
                            if x != t and L.leq[x, t] and L.leq[t, u1] and L.leq[t, u2]
                        ]
                        box = list(bits(L.interval_mask(x, u2) & cmask))
                        good_t = [
                            t
                            for t in mid
                            if all(L.leq[t, b] or L.leq[b, t] for b in box)
                        ]
                        if not good_t:
                            continue
                        checked += 1
                        if _lemma54_fails(L, cmask, x, u2):
                            w = _witness(
                                L, "lemma5.4", C=C, x=x, u1=u1, u2=u2, t=good_t[0]
                            )
                            return CheckReport("lemma54-bridge", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("lemma54-bridge", label, checked, HOLDS)


# -- witness replay ------------------------------------------------------------------


def _not_interval(L: Lattice, C, w) -> bool:
    return not _is_interval(L, C)


def _not_convex(L: Lattice, C, w) -> bool:
    return not is_convex_subset(L, C)


def _observation_reproduces(L: Lattice, C, w) -> bool:
    rerun = observation_suite(L, frozenset(w["sublattice"]))
    return rerun.status == COUNTEREXAMPLE and rerun.witness["observation"] == w["observation"]


# Witness tag -> predicate(L, C, witness), True when the violation reproduces.
# A "-dual" tag runs its primal predicate on L.dual, as its checker did.
REPLAY = {
    "hyp1": _not_interval,
    "hyp2": lambda L, C, w: _hyp2_fails(L, C),
    "hyp2-dual": lambda L, C, w: _hyp2_fails(L.dual, C),
    "hyp3": _not_convex,
    "hyp4": lambda L, C, w: _hyp4_fails(L, L.mask_of(C), w["element"]),
    "hyp4-convexity": _not_convex,
    "q2": lambda L, C, w: _q2_fails(L, C),
    "thm4.4": lambda L, C, w: _thm44_fails(L, C),
    "thm4.5": _not_interval,
    "thm4.5-dual": lambda L, C, w: _not_interval(L.dual, C, w),
    "thm5.1/5.5": _not_interval,
    "lemma4.2": lambda L, C, w: _lemma42_fails(L, C, w["element"]),
    "lemma4.2-dual": lambda L, C, w: _lemma42_fails(L.dual, C, w["element"]),
    "lemma5.4": lambda L, C, w: _lemma54_fails(L, L.mask_of(C), w["x"], w["u2"]),
    "observation-suite": _observation_reproduces,
    "distributive-baseline": lambda L, C, w: _distributive_fails(L, C),
    "bounded-baseline": _not_interval,
}


def reverify_witness(report: CheckReport) -> bool:
    """Re-run the failed assertion on the serialized witness.

    Returns True when the violation reproduces (i.e. the witness is genuine).
    Holds/Skipped reports have nothing to reverify.
    """
    if report.status != COUNTEREXAMPLE or not report.witness:
        return False
    w = report.witness
    claim = w.get("claim", "")
    if claim.startswith("6.4"):
        from .cdim2 import lemma_suite_64_65
        from .geometry import build_cg

        G = build_cg(w["m"], w["chains"], verify=False)
        rerun = lemma_suite_64_65(G)
        return rerun.status == COUNTEREXAMPLE and rerun.witness["claim"] == claim
    if claim not in REPLAY:
        raise ValueError(f"unknown witness claim {claim!r}")
    return bool(REPLAY[claim](from_cover_text(w["lattice"]), frozenset(w.get("complement", [])), w))


# -- baseline sweeps -------------------------------------------------------------


def check_distributive_baseline(corpus, label="corpus", bound=None) -> CheckReport:
    """Distributive lattices: complements are intervals [a, b] with a the
    unique internal join-irreducible and b the unique internal
    meet-irreducible."""
    checked = 0
    for item in corpus:
        L = _lattice_of(item)
        if not is_distributive(L):
            continue
        for C in maximal_complements_oracle(L, bound):
            checked += 1
            if _distributive_fails(L, C):
                w = _witness(L, "distributive-baseline", C=C)
                return CheckReport("distributive-baseline", label, checked, COUNTEREXAMPLE, w)
    return CheckReport("distributive-baseline", label, checked, HOLDS)


def bounded_interval_baseline(corpus, label="corpus", bound=None):
    """Doubled (bounded) lattices: complements must be intervals; the number
    of internal join-irreducibles is reported, not asserted (doubling can
    produce complements with several, unlike the distributive case).

    Returns (CheckReport, multiplicity histogram).
    """
    checked = 0
    histogram: dict = {}
    for item in corpus:
        L = _lattice_of(item)
        info = L.irreducibles
        for C in maximal_complements_oracle(L, bound):
            checked += 1
            if not _is_interval(L, C):
                w = _witness(L, "bounded-baseline", C=C)
                return (
                    CheckReport("bounded-baseline", label, checked, COUNTEREXAMPLE, w),
                    histogram,
                )
            k = len(info.ji & C)
            histogram[k] = histogram.get(k, 0) + 1
    return CheckReport("bounded-baseline", label, checked, HOLDS), histogram
