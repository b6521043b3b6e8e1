from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    are_isomorphic,
    block_scan_is_sd_join,
    interval_set,
    naive_glb,
    naive_is_sd_join,
    naive_lub,
    pair_loop_is_convex_subset,
    random_cover_lattice,
    random_moore_lattice,
)
from latmax.corpus import chain, chain_products, doubled_sequences, glued, n5, random_cdim_k
from latmax.lattice import (
    CyclicInput,
    Interval,
    Lattice,
    NotALattice,
    double_interval,
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
    # A repeated cover pair builds the same lattice.
    again = from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (0, 1), (2, 3)])
    assert np.array_equal(again.leq, L.leq) and again.covers == L.covers


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


def test_bowtie_has_no_unique_glb():
    # 0 and 1 have the two incomparable lower bounds 2 and 3.
    covers = [(4, 2), (4, 3), (2, 0), (2, 1), (3, 0), (3, 1), (0, 5), (1, 5)]
    with pytest.raises(NotALattice, match=r"^no unique glb for \(0, 1\)$") as err:
        from_cover_relations(6, covers)
    assert err.value.pair == (0, 1)


def test_supplied_tables_give_the_computed_lattice(small_corpus):
    # Any integer type holds ids, in either byte order.
    for name, L in small_corpus.items():
        for dtype in (np.int32, ">i4", np.uint8):
            K = Lattice(L.leq, tables=(L.meet.astype(dtype), L.join.astype(dtype)))
            for table in ("meet", "join"):
                got = getattr(K, table)
                assert got.dtype == np.int32 and not got.flags.writeable, name
                assert np.array_equal(got, getattr(L, table)), name
            assert (K.bottom, K.top) == (L.bottom, L.top), name
            assert np.array_equal(K.cover_matrix, L.cover_matrix), name


def _planted(L, fault):
    """L's meet and join tables with one entry broken."""
    meet, join = L.meet.copy(), L.join.copy()
    n = L.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if fault == "meet":
        # A common lower bound that is not the greatest one.
        a, b = next((a, b) for a, b in pairs if meet[a, b] != L.bottom)
        meet[a, b] = L.bottom
    elif fault == "one-side":
        # 2 lies below 4 and has as many elements below it as meet(1, 4) = 1,
        # but it does not lie below 1: the entry disagrees with meet[1, 4].
        meet[4, 1] = 2
    elif fault == "join":
        # A common upper bound that is not the least one, below the diagonal.
        a, b = next((a, b) for a, b in pairs if join[a, b] != L.top)
        join[b, a] = L.top
    elif fault == "negative":
        meet[0, 1] = -1
    elif fault == "past-the-last-id":
        join[1, 0] = n
    elif fault == "unsigned-past-the-last-id":
        meet, join = meet.astype(np.uint8), join.astype(np.uint8)
        meet[2, 3] = 200
    elif fault == "big-endian-negative":
        meet, join = meet.astype(">i4"), join.astype(">i4")
        join[3, 2] = -1
    elif fault == "wrong-shape":
        join = join[:, :4]
    elif fault == "not-integer":
        meet = meet.astype(float)
    return meet, join


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("meet", NotALattice, "no unique glb for (1, 4)"),
        ("one-side", NotALattice, "no unique glb for (1, 4)"),
        ("join", NotALattice, "no unique lub for (0, 1)"),
        ("negative", ValueError, "meet table entry -1 at (0, 1) is not in 0..4"),
        ("past-the-last-id", ValueError, "join table entry 5 at (1, 0) is not in 0..4"),
        ("unsigned-past-the-last-id", ValueError, "meet table entry 200 at (2, 3) is not in 0..4"),
        ("big-endian-negative", ValueError, "join table entry -1 at (3, 2) is not in 0..4"),
        ("wrong-shape", ValueError, "join table must have shape (5, 5), got (5, 4)"),
        ("not-integer", ValueError, "meet table must hold element ids, got float64"),
    ],
)
def test_supplied_tables_are_certified(fault, error, message):
    # N5 here: 0 < 1 < 4 and 0 < 2 < 3 < 4, so meet(1, 4) = 1 and
    # join(0, 1) = 1 are the first entries off the bottom and the top;
    # putting the bottom or the top in their place, an id outside 0..4, or a
    # table of the wrong shape or type must be refused.
    L = n5()
    assert L.meet[1, 4] == 1 and L.join[0, 1] == 1
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        Lattice(L.leq, tables=_planted(L, fault))
    if error is NotALattice:
        assert err.value.pair == tuple(int(x) for x in re.findall(r"\d+", message))


def test_supplied_tables_cannot_make_a_lattice_of_the_bowtie():
    # 0 and 1 have the two incomparable lower bounds 2 and 3, so no table
    # entry passes for them, and they are the first pair off the diagonal.
    leq = np.eye(6, dtype=bool)
    for lo, his in {4: (0, 1, 2, 3, 5), 2: (0, 1, 5), 3: (0, 1, 5), 0: (5,), 1: (5,)}.items():
        leq[lo, list(his)] = True
    for z in (2, 3, 4):
        meet, join = np.full((6, 6), z), np.full((6, 6), 5)
        np.fill_diagonal(meet, range(6))
        np.fill_diagonal(join, range(6))
        with pytest.raises(NotALattice, match=r"^no unique glb for \(0, 1\)$") as err:
            Lattice(leq, tables=(meet, join))
        assert err.value.pair == (0, 1)


def test_cyclic_input_rejected():
    with pytest.raises(CyclicInput):
        from_cover_relations(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CyclicInput, match="^cover relation contains a cycle$"):
        from_cover_relations(2, [(0, 1), (0, 0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Lattice(np.ones((2, 3), dtype=bool)), "order matrix must be square, got (2, 3)"),
        (lambda: Lattice(np.zeros((0, 0), dtype=bool)), "empty carrier has no bottom/top"),
        (lambda: double_interval(n5(), Interval(1, 2)), "not an interval: Interval(lo=1, hi=2)"),
        (lambda: glued([]), "glued sum needs at least one part"),
        # Cover pairs follow the id rule: a float or a bool is no element id.
        (lambda: from_cover_relations(2, [(0.5, 1)]), "cover pair (0.5, 1) out of range for n=2"),
        (lambda: from_cover_relations(2, [(True, 0)]), "cover pair (True, 0) out of range for n=2"),
    ],
    ids=["non-square", "empty", "not-an-interval", "empty-glued-sum", "float-cover", "bool-cover"],
)
def test_malformed_lattice_input_is_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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


def test_sd_join_matches_the_triple_scan_on_wider_inputs():
    # The κ^σ test against the triple scan of the definition: seeded random
    # intersection-closed families (many are not SD-join), 3- and 4-chain
    # geometries, doubled lattices, and the dual of each.  The block scan is
    # itself held to the naive scan where that is cheap.
    rng = random.Random(11)
    lattices = [random_moore_lattice(rng, rng.randint(3, 6), rng.randint(2, 9)) for _ in range(600)]
    lattices += [random_cdim_k(rng.randint(3, 6), 3 + s % 2, seed=s).lattice for s in range(120)]
    lattices += doubled_sequences(depth=3, seed=0, count=120)
    not_sd_join = 0
    for L in lattices:
        for K in (L, L.dual):
            expected = block_scan_is_sd_join(K)
            if K.n <= 10:
                assert naive_is_sd_join(K) == expected, to_cover_text(K)
            assert is_sd_join(K) == expected, to_cover_text(K)
            not_sd_join += not expected
    assert not_sd_join >= 400


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


def test_mask_of_names_a_negative_id():
    with pytest.raises(ValueError, match="element id -2 is negative"):
        mask_of([0, 3, -2])


def _reference_cover_matrix(leq):
    """a ≺ b: a < b with no c strictly between, one boolean row at a time."""
    n = len(leq)
    strict = leq & ~np.eye(n, dtype=bool)
    return np.array([[strict[a, b] and not (strict[a] & strict[:, b]).any() for b in range(n)] for a in range(n)])


def test_cover_matrix_matches_the_definition(small_corpus):
    lattices = [*small_corpus.values(), *doubled_sequences(depth=3, seed=7, count=10), chain(40)]
    lattices += [random_cdim_k(8, k, seed=k).lattice for k in (2, 3)]
    for L in lattices + [L.dual for L in lattices]:
        assert np.array_equal(L.cover_matrix, _reference_cover_matrix(L.leq))


def _chain_missing(n, a, b):
    leq = np.triu(np.ones((n, n), dtype=bool))
    leq[a, b] = False
    return leq


@pytest.mark.parametrize(
    "leq, message",
    [
        (_chain_missing(3, 0, 2), "not transitive"),
        (_chain_missing(60, 5, 50), "not transitive"),
        (np.ones((2, 2), dtype=bool), "not antisymmetric"),
        (np.array([[0, 1], [0, 1]], dtype=bool), "not reflexive"),
        # Two axioms fail; the checks run reflexive, antisymmetric, transitive.
        (np.array([[1, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=bool), "not reflexive"),
        (np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]], dtype=bool), "not antisymmetric"),
    ],
)
def test_order_axioms_are_checked(leq, message):
    with pytest.raises(ValueError, match=f"order relation is {message}"):
        Lattice(leq)


def test_convexity_equals_the_pair_loop_on_every_subset(small_corpus):
    for name, L in small_corpus.items():
        for mask in range(1 << L.n):
            S = [a for a in range(L.n) if mask >> a & 1]
            assert is_convex_subset(L, S) == pair_loop_is_convex_subset(L, S), (name, S)


@pytest.mark.parametrize("ids, message", [([0, 7], "7 is not in 0..3"), ([2, -1], "-1 is not in 0..3")])
def test_convexity_names_an_id_outside_the_lattice(ids, message):
    with pytest.raises(ValueError, match=f"element id {message}"):
        is_convex_subset(chain(3), ids)


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
