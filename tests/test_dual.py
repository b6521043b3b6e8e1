"""The Lattice.dual view against a freshly validated transposed lattice."""
from __future__ import annotations

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from latmax.corpus import all_cdim2_geometries, boolean, chain, doubled_sequences
from latmax.lattice import Lattice, bits, mask_of, minimal_elements
from latmax.sublattice import maximal_complements_oracle

SRC = Path(__file__).resolve().parents[1] / "src" / "latmax"


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
    for L in dual_corpus[:9]:
        D = L.dual
        assert D is L.dual
        assert np.shares_memory(D.leq, L.leq) and D.meet is L.join and D.join is L.meet
        DD = D.dual
        assert np.array_equal(DD.leq, L.leq) and DD.meet is L.meet
        assert (DD.bottom, DD.top, DD.down_masks) == (L.bottom, L.top, L.down_masks)


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


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements, so no check may rest on one.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
