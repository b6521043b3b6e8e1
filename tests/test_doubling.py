"""Day doubling as the bounded-lattice generator."""
from __future__ import annotations

import numpy as np
import pytest

from helpers import are_isomorphic, loop_doubled_order
from latmax import lattice
from latmax.corpus import boolean, chain, doubled_sequences, n5
from latmax.lattice import Interval, InvariantViolation, double_interval, is_distributive, is_sd


def test_doubling_singleton_in_chain_extends_chain():
    L = chain(2)
    D = double_interval(L, Interval(1, 1))
    assert D.n == L.n + 1
    # still a chain: every element comparable to every other
    assert all(D.leq[a, b] or D.leq[b, a] for a in range(D.n) for b in range(D.n))


def test_doubling_atom_of_boolean_square_gives_pentagon():
    D = double_interval(boolean(2), Interval(1, 1))
    assert are_isomorphic(D, n5())


def test_doubling_element_count():
    B3 = boolean(3)
    iv = Interval(B3.bottom, B3.top)
    assert double_interval(B3, iv).n == B3.n + B3.n
    atom = next(iter(B3.atoms))
    assert double_interval(B3, Interval(atom, B3.top)).n == B3.n + 4


def test_doubled_lattices_are_sd():
    for L in doubled_sequences(depth=3, seed=7, count=25):
        assert is_sd(L)
    # a fresh doubling of a distributive lattice stays SD
    B2 = boolean(2)
    for lo in range(B2.n):
        for hi in range(B2.n):
            if B2.leq[lo, hi]:
                assert is_sd(double_interval(B2, Interval(lo, hi)))


def test_doubling_pool_is_deterministic():
    a = [L.n for L in doubled_sequences(depth=2, seed=3, count=10)]
    b = [L.n for L in doubled_sequences(depth=2, seed=3, count=10)]
    assert a == b


def test_doubling_whole_lattice_is_product_with_two_chain():
    L = chain(1)
    D = double_interval(L, Interval(L.bottom, L.top))
    assert D.n == 4 and is_distributive(D)
    assert are_isomorphic(D, boolean(2))


def test_doubling_projection_check_catches_a_wrong_table(monkeypatch):
    # Doubling {1} in the 3-chain 0 < 1 < 2 numbers the outside elements 0, 2
    # first.  Swapping those two ids still gives a valid lattice, but its
    # tables no longer project onto the host's.
    L = chain(2)
    assert double_interval(L, Interval(1, 1)).n == 4
    real = lattice.Lattice
    swap = np.ix_([1, 0, 2, 3], [1, 0, 2, 3])
    monkeypatch.setattr(lattice, "Lattice", lambda leq: real(np.asarray(leq)[swap]))
    with pytest.raises(InvariantViolation, match="projection"):
        double_interval(L, Interval(1, 1))


def test_doubling_order_matches_the_loop_construction():
    for L in doubled_sequences(depth=3, seed=7, count=30):
        for lo, hi in zip(*np.nonzero(L.leq)):
            iv = Interval(int(lo), int(hi))
            assert np.array_equal(double_interval(L, iv).leq, loop_doubled_order(L, iv))


@pytest.mark.parametrize("lo, hi, bad", [(-1, -1, -1), (0, 9, 9), (5, 5, 5)])
def test_doubling_refuses_an_id_outside_the_lattice(lo, hi, bad):
    with pytest.raises(ValueError, match=rf"^element id {bad} is not in 0\.\.4$"):
        double_interval(n5(), Interval(lo, hi))
