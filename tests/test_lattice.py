from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    are_isomorphic,
    interval_set,
    naive_glb,
    naive_is_sd_join,
    naive_lub,
    random_cover_lattice,
)
from latmax.corpus import chain, chain_products, doubled_sequences, glued
from latmax.lattice import (
    CyclicInput,
    Interval,
    NotALattice,
    from_cover_relations,
    from_cover_text,
    indecomposable_components,
    is_convex_subset,
    is_distributive,
    is_lower_semimodular,
    is_sd,
    is_sd_join,
    is_sd_meet,
    mask_of,
    to_cover_text,
)


def test_two_chain_smallest_lattice():
    L = from_cover_relations(2, [(0, 1)])
    assert (L.bottom, L.top) == (0, 1)
    assert L.covers == ((1,), ())


def test_boolean_square_tables():
    L = from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert L.meet[1, 2] == 0
    assert L.join[1, 2] == 3


def test_m3_is_a_lattice_but_not_sd_join(named_lattices):
    M3 = named_lattices["m3"]
    assert not is_sd_join(M3)
    # brute-force SD scan agrees
    assert naive_is_sd_join(M3) is False
    # the witnessing triple: a∨b = a∨c = top but a∨(b∧c) = a
    a, b, c = 1, 2, 3
    assert M3.join[a, b] == M3.join[a, c] == M3.top
    assert M3.join[a, M3.meet[b, c]] == a


def test_not_a_lattice_reports_pair():
    # two maximal elements: pair (1, 2) has no lub
    with pytest.raises(NotALattice) as err:
        from_cover_relations(3, [(0, 1), (0, 2)])
    assert err.value.pair is not None


def test_cyclic_input_rejected():
    with pytest.raises(CyclicInput):
        from_cover_relations(3, [(0, 1), (1, 2), (2, 0)])


def test_tables_match_naive_glb_lub(small_corpus):
    for name, L in small_corpus.items():
        assert L.n <= 16, name
        for a in range(L.n):
            for b in range(L.n):
                assert L.meet[a, b] == naive_glb(L.leq, a, b), (name, a, b)
                assert L.join[a, b] == naive_lub(L.leq, a, b), (name, a, b)


def test_chains_are_distributive_hence_sd():
    L = chain(4)
    assert is_distributive(L) and is_sd(L)


def test_n5_sd_both_ways(named_lattices):
    N5 = named_lattices["n5"]
    assert is_sd_join(N5) and is_sd_meet(N5)
    assert not is_distributive(N5)


def test_product_of_three_chains_distributive():
    assert is_distributive(chain_products([3, 3]))


def test_lower_semimodularity():
    assert is_lower_semimodular(from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    # N5 fails: one pair has 0 = a∧c not a subcover of c
    N5 = from_cover_relations(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
    assert not is_lower_semimodular(N5)


def test_sd_scan_matches_naive_on_small_corpus(small_corpus):
    for name, L in small_corpus.items():
        assert is_sd_join(L) == naive_is_sd_join(L), name


def test_every_element_is_join_of_ji_and_meet_of_mi(small_corpus):
    for name, L in small_corpus.items():
        info = L.irreducibles
        for x in range(L.n):
            ji_below = [j for j in info.ji if L.leq[j, x]]
            mi_above = [m for m in info.mi if L.leq[x, m]]
            assert L.join_of(ji_below + [L.bottom]) == x, (name, x)
            assert L.meet_of(mi_above + [L.top]) == x, (name, x)


def test_convexity_basics(named_lattices):
    L = named_lattices["chain3"]
    assert is_convex_subset(L, [])
    assert is_convex_subset(L, interval_set(L, 1, 2))
    assert not is_convex_subset(L, {L.bottom, L.top})


def test_components_of_chain():
    comps = indecomposable_components(chain(3))
    assert comps == [Interval(0, 1), Interval(1, 2), Interval(2, 3)]


def test_components_of_boolean_square(named_lattices):
    B2 = named_lattices["b2"]
    assert indecomposable_components(B2) == [Interval(B2.bottom, B2.top)]


def test_components_of_glued_sum(named_lattices):
    G = named_lattices["glued_b2_n5"]
    assert len(indecomposable_components(G)) == 2


def test_cover_text_round_trip(small_corpus):
    for name, L in small_corpus.items():
        R = from_cover_text(to_cover_text(L))
        assert R.n == L.n and np.array_equal(R.leq, L.leq), name


def test_cover_text_accepts_comments():
    L = from_cover_text("# a chain\n2\n0 1  # the only cover\n")
    assert L.n == 2 and L.top == 1


def test_heights():
    N5 = from_cover_relations(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
    assert list(N5.heights) == [0, 1, 1, 2, 3]


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_random_cover_lattices_have_consistent_tables(n, seed):
    L = random_cover_lattice(random.Random(seed), n)
    if L is None:
        return
    for a in range(L.n):
        for b in range(L.n):
            assert L.meet[a, b] == naive_glb(L.leq, a, b)
            assert L.join[a, b] == naive_lub(L.leq, a, b)
    assert is_sd_join(L) == naive_is_sd_join(L)


def test_lemma_l_plus_plus_cross_joins(small_corpus):
    """On SD-join lattices: y = ∨_i ∧_j a_i^j and all cross-joins equal z force z = y."""
    rng = random.Random(20240803)
    for name, L in small_corpus.items():
        if not is_sd_join(L):
            continue
        for _ in range(300):
            nblocks = rng.randint(1, 3)
            blocks = [
                [rng.randrange(L.n) for _ in range(rng.randint(1, 3))]
                for _ in range(nblocks)
            ]
            y = L.join_of([L.meet_of(blk) for blk in blocks])
            cross = set()
            _all_cross_joins(L, blocks, 0, L.bottom, cross)
            if len(cross) == 1:
                assert cross.pop() == y, (name, blocks)


def _all_cross_joins(L, blocks, i, acc, out):
    if i == len(blocks):
        out.add(acc)
        return
    for a in blocks[i]:
        _all_cross_joins(L, blocks, i + 1, int(L.join[acc, a]), out)
        if len(out) > 1:
            return


def test_components_reassemble_by_glued_sum(named_lattices):
    for name in ("chain3", "glued_b2_n5", "n5"):
        L = named_lattices[name]
        parts = []
        for iv in indecomposable_components(L):
            ids = sorted(interval_set(L, iv.lo, iv.hi))
            pos = {e: i for i, e in enumerate(ids)}
            import numpy as np

            sub = np.zeros((len(ids), len(ids)), dtype=bool)
            for a in ids:
                for b in ids:
                    sub[pos[a], pos[b]] = L.leq[a, b]
            from latmax.lattice import Lattice

            parts.append(Lattice(sub))
        assert are_isomorphic(glued(parts), L), name


def test_glued_sum_orders_parts():
    G = glued([chain(1), chain(1), chain(1)])
    assert G.n == 4
    assert is_distributive(G)
    assert len(indecomposable_components(G)) == 3


def test_cover_text_golden():
    B2 = from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert to_cover_text(B2) == "4\n0 1\n0 2\n1 3\n2 3\n"


def test_mask_of_numpy_integers_gives_python_int():
    m = mask_of([np.int64(70), np.int32(3)])
    assert type(m) is int and m == 1 << 70 | 1 << 3


def test_convex_subset_of_numpy_array():
    L = chain(80)
    assert not is_convex_subset(L, np.array([10, 70]))
    assert is_convex_subset(L, np.arange(10, 71))


def test_packed_masks_match_their_flatnonzero_definitions(small_corpus):
    lattices = list(small_corpus.values()) + doubled_sequences(depth=3, seed=7, count=30)
    for L in lattices + [L.dual for L in lattices]:
        leq, cov = L.leq, L.cover_matrix
        assert L.down_masks == [mask_of(np.flatnonzero(leq[:, a]).tolist()) for a in range(L.n)]
        assert L.up_masks == [mask_of(np.flatnonzero(leq[a]).tolist()) for a in range(L.n)]
        assert L.covers == tuple(tuple(int(b) for b in np.flatnonzero(cov[a])) for a in range(L.n))
        assert L.lower_covers == tuple(
            tuple(int(b) for b in np.flatnonzero(cov[:, a])) for a in range(L.n)
        )
        assert all(type(b) is int for row in L.covers + L.lower_covers for b in row)
