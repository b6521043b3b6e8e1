"""The general observations on maximal-sublattice complements, as a suite."""
from __future__ import annotations

import pytest

from latmax.checks import observation_suite, reverify_witness
from latmax.corpus import boolean, chain, doubled_sequences
from latmax.lattice import canonical_join_rep, canonical_meet_rep, from_cover_relations, from_cover_text
from latmax.sublattice import is_sublattice, maximal_complements_oracle


def _complement_pairs(L, bound=16):
    everything = frozenset(range(L.n))
    for C in maximal_complements_oracle(L, bound=bound):
        yield everything - C, C


def test_suite_holds_on_small_corpus(small_corpus):
    for name, L in small_corpus.items():
        for M, C in _complement_pairs(L):
            rep = observation_suite(L, M)
            assert rep.holds, (name, sorted(C), rep.witness)


def test_suite_holds_on_cdim2_geometries(cdim2_through_m6):
    for G in cdim2_through_m6[:400]:
        L = G.lattice
        for M, C in _complement_pairs(L, bound=32):
            rep = observation_suite(L, M)
            assert rep.holds, (G, sorted(C), rep.witness)


def test_suite_holds_on_doubled():
    for L in doubled_sequences(depth=2, seed=21, count=12):
        if L.n > 18:
            continue
        for M, C in _complement_pairs(L, bound=18):
            assert observation_suite(L, M).holds


def test_suite_flags_reducible_extreme():
    # A complement containing the bottom has a join-reducible minimal
    # element; the suite stops there and the witness replays.
    B2 = boolean(2)
    rep = observation_suite(B2, frozenset({1, 2, 3}))
    assert not rep.holds
    assert rep.witness["observation"] == "3.3-irreducible-extremes"
    assert reverify_witness(rep)


def test_suite_flags_component_violation():
    # Two interior chain points straddle a cut element: not one component.
    L = chain(4)
    rep = observation_suite(L, frozenset({0, 2, 4}))
    assert not rep.holds
    assert rep.witness["observation"] == "3.1-component"
    assert reverify_witness(rep)


def test_suite_names_the_lowest_violating_element():
    # C = {7, 8} is an antichain of two join-reducible elements, each minimal
    # in C: both violate 3.3, and the witness names the lower id.
    covers = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 7), (4, 8), (5, 8), (5, 9)]
    covers += [(6, 9), (6, 10), (7, 10), (8, 11), (9, 11), (9, 12), (10, 12), (11, 13), (12, 13)]
    L = from_cover_relations(14, covers)
    rep = observation_suite(L, set(range(14)) - {7, 8})
    assert rep.witness["observation"] == "3.3-irreducible-extremes"
    assert rep.witness["element"] == 7
    assert reverify_witness(rep)


# One (cover list, M) per violation branch past 3.1 and 3.3 that a search
# reached: every oracle complement, its one-element flips and random subsets
# of small named, two-chain and doubled lattices.  The search reached
# neither 3.4 nor the two 3.6 convexity branches.
B3 = "8\n0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n"
VIOLATIONS = [
    ("3.2-doubly-irreducible", "3\n0 1\n1 2\n", [0]),
    ("3.5-disconnected", B3, [0, 2, 5, 7]),
    ("3.6-m0-dichotomy", "7\n0 1\n0 2\n1 3\n2 3\n2 4\n3 5\n4 5\n5 6\n", [0, 1, 4, 6]),
    ("3.6-dual-dichotomy", "7\n0 1\n1 2\n1 3\n2 4\n3 4\n3 5\n4 6\n5 6\n", [0, 2, 5, 6]),
    ("3.7-saturation", "6\n0 1\n1 2\n1 3\n2 4\n3 4\n4 5\n", [0, 2, 3, 5]),
    ("3.7-dual-saturation", "7\n0 1\n1 2\n1 3\n2 4\n3 4\n4 5\n5 6\n", [0, 2, 3, 5, 6]),
    ("3.8-greatest-subcover", B3, [0, 4, 5, 6, 7]),
    ("3.8-least-cover", "7\n0 1\n0 2\n0 3\n1 4\n2 4\n2 5\n3 5\n4 6\n5 6\n", [0, 1, 3, 6]),
]


@pytest.mark.parametrize("observation, text, M", VIOLATIONS, ids=[v[0] for v in VIOLATIONS])
def test_suite_flags_each_reached_violation(observation, text, M):
    rep = observation_suite(from_cover_text(text), M)
    assert rep.status == "CounterexampleFound"
    assert rep.witness["observation"] == observation
    assert rep.instances_checked == int(observation[2])
    assert reverify_witness(rep)


def test_chain4_interval_removal_is_closed(small_corpus):
    """With w <= x <= y <= z, x a canonical joinand of z and y a canonical
    meetand of w, the lattice minus [x, y] is closed under both operations."""
    for name, L in small_corpus.items():
        for z in range(L.n):
            cj = canonical_join_rep(L, z)
            if not cj:
                continue
            for x in cj:
                for y in range(L.n):
                    if not (L.leq[x, y] and L.leq[y, z]):
                        continue
                    for w in range(L.n):
                        if not L.leq[w, x]:
                            continue
                        cm = canonical_meet_rep(L, w)
                        if not cm or y not in cm:
                            continue
                        keep = frozenset(range(L.n)) - L.interval(x, y)
                        assert not keep or is_sublattice(L, keep), (name, w, x, y, z)


def test_obs_on_lattice_without_two_atoms():
    # Diamond on top of a stem (single atom): the suite must hold for the
    # genuine maximal sublattices.
    L = from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    for M, C in _complement_pairs(L):
        assert observation_suite(L, M).holds
