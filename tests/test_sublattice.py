"""Sublattice generation, the oracle, frattini, bounds, strict joinands."""
from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import brute_max_complements, closure_scheme_b, full_rescan_oracle, random_cover_lattice
from latmax import sublattice
from latmax.corpus import all_cdim2_geometries, boolean, chain, doubled_sequences, glued, m3, n5
from latmax.geometry import build_cg
from latmax.lattice import InvariantViolation, from_cover_relations, is_sd_join, to_cover_text
from latmax.sublattice import (
    EmptyGenerator,
    NoCanonicalRep,
    OracleBoundExceeded,
    UndefinedBound,
    complement_bounds,
    frattini,
    generate_sublattice,
    is_maximal_sublattice,
    is_sublattice,
    maximal_complements_oracle,
    maximal_sublattices,
    strict_canonical_joinands,
    strict_canonical_meetands,
)
from test_checks import K_CHAIN_COUNTEREXAMPLES


def test_generate_already_closed(named_lattices):
    L = named_lattices["chain3"]
    assert generate_sublattice(L, {L.bottom, L.top}) == {L.bottom, L.top}


def test_generate_boolean_square_from_three(named_lattices):
    B2 = named_lattices["b2"]
    assert generate_sublattice(B2, {0, 1, 2}) == {0, 1, 2, 3}


def test_generate_rejects_empty(named_lattices):
    with pytest.raises(EmptyGenerator):
        generate_sublattice(named_lattices["b2"], set())


def test_both_iteration_schemes_agree(small_corpus):
    rng = random.Random(5)
    lattices = list(small_corpus.values())
    for _ in range(1000):
        L = lattices[rng.randrange(len(lattices))]
        gens = rng.sample(range(L.n), rng.randint(1, max(1, L.n // 2)))
        assert generate_sublattice(L, gens) == closure_scheme_b(L, gens)
    # Doubled lattices often add two elements in one later round, whose own
    # meet and join the closure must still take.
    doubled = doubled_sequences(depth=2, seed=13, count=8)
    for _ in range(1000):
        L = doubled[rng.randrange(len(doubled))]
        gens = rng.sample(range(L.n), rng.randint(1, max(1, L.n // 2)))
        assert generate_sublattice(L, gens) == closure_scheme_b(L, gens)


def test_is_maximal_examples(named_lattices):
    c3 = named_lattices["chain3"]  # 0 < 1 < 2 < 3
    assert is_maximal_sublattice(c3, {0, 1, 3})
    assert not is_maximal_sublattice(c3, {0, 3})  # adding 1 stays proper
    B2 = named_lattices["b2"]
    assert is_maximal_sublattice(B2, {0, 1, 3})
    assert not is_maximal_sublattice(B2, set(range(B2.n)))


def test_oracle_three_chain():
    L = chain(2)
    assert maximal_complements_oracle(L) == [frozenset({1})]


def test_oracle_boolean_square(named_lattices):
    B2 = named_lattices["b2"]
    assert maximal_complements_oracle(B2) == [frozenset({1}), frozenset({2})]
    # the independent exhaustive subset scan agrees
    assert brute_max_complements(B2) == maximal_complements_oracle(B2)


def test_oracle_respects_bound():
    with pytest.raises(OracleBoundExceeded):
        maximal_complements_oracle(boolean(3), bound=4)


def test_oracle_bound_env_override(monkeypatch):
    monkeypatch.setenv("LATMAX_ORACLE_BOUND", "4")
    with pytest.raises(OracleBoundExceeded):
        maximal_complements_oracle(boolean(3))
    monkeypatch.setenv("LATMAX_ORACLE_BOUND", "30")
    assert maximal_complements_oracle(boolean(3))


def test_oracle_matches_subset_scan(small_corpus):
    for name, L in small_corpus.items():
        if L.n > 12:
            continue
        assert maximal_complements_oracle(L, bound=16) == brute_max_complements(L), name


def test_oracle_matches_subset_scan_random_lattices():
    rng = random.Random(2718)
    hits = 0
    while hits < 40:
        L = random_cover_lattice(rng, rng.randint(3, 8))
        if L is None:
            continue
        hits += 1
        assert maximal_complements_oracle(L, bound=12) == brute_max_complements(L)


def test_oracle_matches_subset_scan_on_doubled():
    for L in doubled_sequences(depth=2, seed=13, count=8):
        if L.n <= 12:
            assert maximal_complements_oracle(L, bound=14) == brute_max_complements(L)


def test_every_oracle_output_is_maximal(small_corpus):
    for name, L in small_corpus.items():
        everything = frozenset(range(L.n))
        for C in maximal_complements_oracle(L, bound=16):
            assert is_maximal_sublattice(L, everything - C), name


def test_frattini_chain_examples():
    for length in (2, 3, 5):
        L = chain(length)
        assert frattini(L) == {L.bottom, L.top}


def test_frattini_boolean_square(named_lattices):
    B2 = named_lattices["b2"]
    assert frattini(B2) == {B2.bottom, B2.top}


def test_maximal_sublattices_are_complements(named_lattices):
    B2 = named_lattices["b2"]
    assert set(maximal_sublattices(B2)) == {frozenset({0, 1, 3}), frozenset({0, 2, 3})}


def test_complement_bounds_three_chain():
    L = chain(2)
    b = complement_bounds(L, {0, 2}, 1)
    assert (b.m_over, b.m_under) == (2, 0)


def test_complement_bounds_undefined():
    L = chain(2)
    with pytest.raises(UndefinedBound):
        complement_bounds(L, {2}, 1)
    with pytest.raises(ValueError):
        complement_bounds(L, {0, 2}, 2)


def test_complement_bounds_on_generated_geometries():
    for G in all_cdim2_geometries(4, verify=False)[:6]:
        L = G.lattice
        everything = frozenset(range(L.n))
        for C in maximal_complements_oracle(L, bound=32):
            M = everything - C
            for c in C:
                b = complement_bounds(L, M, c)
                above = [m for m in M if L.leq[c, m] and m != c]
                below = [m for m in M if L.leq[m, c] and m != c]
                assert b.m_over == L.meet_of(above)
                assert b.m_under == L.join_of(below)


def test_strict_canonical_joinands_interval_case(named_lattices):
    # N5 with 0 < 1 < 4 and 0 < 2 < 3 < 4: top has joinands {1, 2}; inside
    # C = {2, 3, 4} only the interval [2, 4] stays, so 2 is the strict one.
    N5 = named_lattices["n5"]
    assert strict_canonical_joinands(N5, {2, 3, 4}, 4) == {2}
    # a join-irreducible element is its own (strict) joinand
    assert strict_canonical_joinands(N5, {2, 3}, 3) == {3}


def test_strict_canonical_joinands_error_paths(named_lattices):
    M3 = named_lattices["m3"]
    with pytest.raises(NoCanonicalRep):
        strict_canonical_joinands(M3, {4}, 4)
    B2 = named_lattices["b2"]
    with pytest.raises(ValueError):
        strict_canonical_joinands(B2, {1}, 2)


def test_strict_joinands_nonempty_on_maximal_complements():
    for G in all_cdim2_geometries(5, verify=False)[:30]:
        L = G.lattice
        assert is_sd_join(L)
        for C in maximal_complements_oracle(L, bound=32):
            for x in C:
                assert strict_canonical_joinands(L, C, x), (G, sorted(C), x)


def test_empty_scj_certifies_non_membership(named_lattices):
    # When every canonical joinand's interval leaves C, the result is empty:
    # by the strictness lemma such an x cannot lie in a sublattice complement.
    N5 = named_lattices["n5"]
    assert strict_canonical_joinands(N5, {4}, 4) == frozenset()


def test_strict_meetands_dual(named_lattices):
    # dual picture: bottom's canonical meetands are {1, 3}; inside
    # C = {0, 1, 2} only the interval [0, 1] stays, so 1 is strict.
    N5 = named_lattices["n5"]
    assert strict_canonical_meetands(N5, {0, 1, 2}, 0) == {1}
    assert strict_canonical_meetands(N5, {2, 3}, 2) == {2}


def test_is_sublattice_rejects_open_sets(named_lattices):
    B2 = named_lattices["b2"]
    assert not is_sublattice(B2, {1, 2})
    assert is_sublattice(B2, {0, 1})
    assert not is_sublattice(B2, set())


def test_oracle_on_glued_lattice(named_lattices):
    G = named_lattices["glued_b2_n5"]
    got = maximal_complements_oracle(G, bound=16)
    assert got == brute_max_complements(G)
    # every complement confined to one component (cut element at 3)
    for C in got:
        assert all(a <= 3 for a in C) or all(a >= 3 for a in C)


def test_oracle_m3_atoms(named_lattices):
    M3 = named_lattices["m3"]
    assert maximal_complements_oracle(M3) == brute_max_complements(M3)


def test_oracle_degenerate_sizes():
    assert maximal_complements_oracle(chain(1)) == []
    one = from_cover_relations(1, [])
    assert maximal_complements_oracle(one) == []
    assert frattini(chain(1)) == {0, 1}
    assert frattini(one) == {0}


def test_generate_singleton():
    L = boolean(2)
    assert generate_sublattice(L, {1}) == {1}


def _pairwise_closed(L, S):
    return bool(S) and all(L.meet[a, b] in S and L.join[a, b] in S for a in S for b in S)


def _subsets(n):
    return (frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n))


def test_is_sublattice_matches_pairwise_check(small_corpus):
    for name, L in small_corpus.items():
        if L.n > 10:
            continue
        for S in _subsets(L.n):
            assert is_sublattice(L, S) == _pairwise_closed(L, S), (name, sorted(S))


def test_is_maximal_sublattice_matches_definition(small_corpus):
    doubled = {}
    for seed in (0, 7):
        for L in doubled_sequences(depth=3, seed=seed, count=120):
            if L.n <= 10:
                doubled.setdefault(to_cover_text(L), (f"doubled-seed{seed}", L))
    for name, L in [*small_corpus.items(), *doubled.values()]:
        if L.n > 10:
            continue
        everything = frozenset(range(L.n))
        for S in _subsets(L.n):
            expected = (
                S != everything
                and _pairwise_closed(L, S)
                and all(closure_scheme_b(L, S | {x}) == everything for x in everything - S)
            )
            assert is_maximal_sublattice(L, S) == expected, (name, sorted(S))


def test_sublattice_predicates_accept_numpy_elements():
    L = chain(3)
    assert is_sublattice(L, np.array([0, 1]))
    assert generate_sublattice(L, np.array([1, 2])) == {1, 2}
    assert is_maximal_sublattice(L, np.array([0, 1, 3]))


def _reference_corpus(cdim2_through_m6):
    yield from (G.lattice for G in cdim2_through_m6)
    for seed in (0, 7):
        yield from doubled_sequences(depth=3, seed=seed, count=120)
    for chains, _, _ in K_CHAIN_COUNTEREXAMPLES:
        yield build_cg(6, chains).lattice


def test_oracle_equals_the_full_rescan_reference(cdim2_through_m6):
    # The resumable scan must pick the very violation a full rescan picks,
    # so the two searches return the same complements in the same order.
    for L in _reference_corpus(cdim2_through_m6):
        assert maximal_complements_oracle(L, bound=L.n) == full_rescan_oracle(L), to_cover_text(L)


def test_oracle_self_check_failure_raises(monkeypatch):
    monkeypatch.setattr(sublattice, "is_maximal_sublattice", lambda L, M: False)
    with pytest.raises(InvariantViolation, match="leaves no maximal sublattice"):
        maximal_complements_oracle(boolean(2))
