"""The Lattice.dual view against a freshly validated transposed lattice."""
from __future__ import annotations

import weakref

import numpy as np
import pytest

from latmax.corpus import all_cdim2_geometries, boolean, chain, doubled_sequences
from latmax.lattice import Lattice, bits, mask_of, minimal_elements
from latmax.sublattice import maximal_complements_oracle


@pytest.fixture(scope="module")
def dual_corpus(named_lattices):
    out = list(named_lattices.values())
    out += [L for L in doubled_sequences(depth=2, seed=21, count=12) if L.n <= 18]
    for m in range(1, 5):
        out += [G.lattice for G in all_cdim2_geometries(m, verify=False)]
    return out


def test_dual_matches_transposed_lattice(dual_corpus):
    for L in dual_corpus:
        D, ref = L.dual, Lattice(L.leq.T)
        assert np.array_equal(D.leq, ref.leq)
        assert np.array_equal(D.meet, ref.meet) and np.array_equal(D.join, ref.join)
        assert (D.bottom, D.top) == (ref.bottom, ref.top)
        assert D.down_masks == ref.down_masks and D.up_masks == ref.up_masks
        assert D.covers == ref.covers and D.lower_covers == ref.lower_covers
        assert D.irreducibles == ref.irreducibles


def test_dual_shares_arrays_and_double_dual_is_primal(dual_corpus):
    for L in dual_corpus:
        D = L.dual
        assert D is L.dual
        assert np.shares_memory(D.leq, L.leq) and D.meet is L.join and D.join is L.meet
        # The cover structure is L's own, with the roles swapped.
        assert D.covers is L.lower_covers and D.lower_covers is L.covers
        assert D.irreducibles.ji is L.irreducibles.mi and D.irreducibles.mi is L.irreducibles.ji
        assert D.irreducibles.lower_star is L.irreducibles.upper_star
        assert np.shares_memory(D.cover_matrix, L.cover_matrix)
        DD = D.dual
        assert np.array_equal(DD.leq, L.leq) and DD.meet is L.meet
        assert (DD.bottom, DD.top, DD.down_masks) == (L.bottom, L.top, L.down_masks)
        assert DD.covers is L.covers and DD.lower_covers is L.lower_covers


def test_oracle_complements_are_self_dual(dual_corpus):
    for L in dual_corpus:
        assert set(maximal_complements_oracle(L)) == set(maximal_complements_oracle(L.dual))


def test_dual_view_holds_no_cycle():
    L = boolean(3)
    r = weakref.ref(L)
    L.dual.dual.irreducibles  # populate the views' own caches too
    del L
    assert r() is None  # freed by reference counting alone, no gc.collect()


def test_bit_helpers_round_trip():
    for ids in ([], [0], [3, 1, 64], list(range(0, 200, 7))):
        assert list(bits(mask_of(ids))) == sorted(ids)


def test_minimal_elements_and_maxima_via_dual():
    L = chain(4)
    assert minimal_elements(L, {1, 3}) == [1]
    assert minimal_elements(L.dual, {1, 3}) == [3]
    # S is read once, so a one-shot iterable gives the same answer as a list.
    assert minimal_elements(chain(2), (x for x in [1, 2])) == minimal_elements(chain(2), [1, 2]) == [1]
    B = boolean(2)
    assert sorted(minimal_elements(B, {1, 2})) == sorted(minimal_elements(B.dual, {1, 2}))
