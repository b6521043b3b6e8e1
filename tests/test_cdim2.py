"""The linear-time complement enumeration and its classification."""
from __future__ import annotations

import json
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_decompose_and_run, scalar_fast_complements
from latmax.cdim2 import (
    SHAPE_CHAIN1,
    SHAPE_CHAIN2,
    SHAPE_UNION,
    Complement,
    Complements,
    NoCaseMatches,
    classify_complement,
    complements_to_json,
    decompose_and_run,
    fast_complements,
    materialize,
)
from latmax.checks import check_lemma_64_65
from latmax.corpus import random_permutation
from latmax.geometry import BadPermutation, ChainSpec, build_cg
from latmax.sublattice import is_maximal_sublattice, maximal_complements_oracle

PAPER_PERM = (3, 6, 7, 10, 1, 8, 9, 5, 2, 4)
IDENT10 = tuple(range(1, 11))

# The nine complements of the worked example, as (j, shape, closure, maxima).
PAPER_COMPLEMENTS = [
    (2, "IntervalChain1", "Type1", {1, 2}, [{1, 2}]),
    (4, "IntervalChain1", "Type1", {1, 2, 3, 4}, [{1, 2, 3, 4}]),
    (5, "IntervalChain1", "Type1", {1, 3, 5}, [{1, 2, 3, 4, 5}]),
    (5, "IntervalChain2", "Type1", {1, 3, 5}, [{1, 3, 5, 6, 7, 8, 9, 10}]),
    (6, "IntervalChain1", "Type2", {3, 6}, [{1, 2, 3, 4, 5, 6}]),
    (
        8,
        "UnionBothChains",
        "Type3",
        {1, 3, 6, 7, 8},
        [{1, 2, 3, 4, 5, 6, 7, 8}, {1, 3, 6, 7, 8, 10}],
    ),
    (9, "IntervalChain1", "Type1", {1, 3, 6, 7, 8, 9}, [{1, 2, 3, 4, 5, 6, 7, 8, 9}]),
    (9, "IntervalChain2", "Type1", {1, 3, 6, 7, 8, 9}, [{1, 3, 6, 7, 8, 9, 10}]),
    (10, "IntervalChain2", "Type1", {3, 6, 7, 10}, [{3, 6, 7, 10}]),
]


def test_golden_worked_example():
    comps, ops = fast_complements(10, PAPER_PERM)
    got = []
    for c in comps:
        lo, his = c.endpoint_sets(IDENT10, PAPER_PERM)
        got.append((c.j, c.shape, c.case, set(lo), [set(h) for h in his]))
    want = [(j, s, t, lo, his) for j, s, t, lo, his in PAPER_COMPLEMENTS]
    assert got == want
    assert ops.comparisons <= 12 * 10


def test_reversed_two_chain():
    comps, _ = fast_complements(2, (2, 1))
    got = [c.endpoint_sets((1, 2), (2, 1)) for c in comps]
    assert [(set(lo), [set(h) for h in his]) for lo, his in got] == [
        ({1}, [{1}]),
        ({2}, [{2}]),
    ]


def test_identity_chain_yields_interior_singletons():
    comps = decompose_and_run(4, ((1, 2, 3, 4), (1, 2, 3, 4)))
    G = build_cg(4, [(1, 2, 3, 4), (1, 2, 3, 4)])
    got = {materialize(G, c) for c in comps}
    interior = {
        frozenset({G.set_index[frozenset(range(1, k + 1))]}) for k in (1, 2, 3)
    }
    assert got == interior
    assert all(c.case == "Type2" for c in comps)


def test_bad_permutation():
    with pytest.raises(BadPermutation):
        fast_complements(3, (1, 2, 2))


@pytest.mark.parametrize(
    "m, phi",
    [
        (3, (1, 2, 2)),  # repeated point
        (2, (1, 3)),  # out of range
        (2, (0, 1)),
        (3, (1, 2)),  # too short
        (2, (1, 2, 3)),  # too long
        (0, ()),  # empty ground set
        (2, (1.7, 2.2)),  # floats
        (2, (1.0, 2.0)),
        (2, (True, 2)),  # a bool reads as 1
        (1, (True,)),
        (2, ("1", "2")),
        (2, [[1, 2]]),
        (2, (2**70, 1)),  # past int64
        (2, [1, [2]]),  # ragged
    ],
)
def test_malformed_permutation_rejected(m, phi):
    identity = tuple(range(1, m + 1))
    calls = [lambda: fast_complements(m, phi), lambda: decompose_and_run(m, (identity, phi))]
    try:
        chain = ChainSpec(phi)
    except BadPermutation:
        pass  # floats, bools and strings are refused before m is known
    else:
        # One validator: every entry point gives the same message.
        calls += [lambda: chain.validate(m), lambda: build_cg(m, [identity, phi])]
    messages = set()
    for call in calls:
        with pytest.raises(BadPermutation) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("chain", [(1.5, 2), (True, 2), ("1", "2")])
def test_chainspec_rejects_non_integer_points(chain):
    with pytest.raises(BadPermutation):
        ChainSpec(chain)


def test_chainspec_validate_rejects_empty_ground_set():
    with pytest.raises(BadPermutation):
        ChainSpec(()).validate(0)


def test_op_counter_is_linear():
    rng = random.Random(0)
    for m in (10, 100, 1000):
        _, ops = fast_complements(m, random_permutation(m, rng))
        assert ops.comparisons <= 12 * m
        assert ops.set_ops == 3 * m


def test_oracle_equivalence_small_exhaustive(cdim2_through_m6):
    for G in cdim2_through_m6:
        perm = G.chains[1].perm
        comps, _ = fast_complements(G.m, perm)
        fast_sets = {materialize(G, c) for c in comps}
        assert len(fast_sets) == len(comps)
        oracle = set(maximal_complements_oracle(G.lattice, bound=40))
        assert fast_sets == oracle, (G.m, perm)


def test_oracle_equivalence_m9_random():
    rng = random.Random(1234)
    for _ in range(60):
        perm = random_permutation(9, rng)
        G = build_cg(9, [tuple(range(1, 10)), perm], verify=False)
        comps, _ = fast_complements(9, perm)
        fast_sets = {materialize(G, c) for c in comps}
        assert fast_sets == set(maximal_complements_oracle(G.lattice, bound=64)), perm


def test_oracle_equivalence_seeded_m8_to_25():
    # One random geometry per m, up to n = 173 elements; the oracle's
    # resumable scan keeps this to a few seconds.
    rng = random.Random(2025)
    for m in range(8, 26):
        perm = random_permutation(m, rng)
        G = build_cg(m, [tuple(range(1, m + 1)), perm])
        comps, _ = fast_complements(m, perm)
        fast_sets = [materialize(G, c) for c in comps]
        oracle = maximal_complements_oracle(G.lattice, bound=G.lattice.n)
        assert len(set(fast_sets)) == len(fast_sets) == len(oracle), perm
        assert set(fast_sets) == set(oracle), perm


@pytest.mark.slow
def test_oracle_equivalence_exhaustive_m8():
    # All 40,320 permutations with m = 8; opt in with ``pytest -m slow``.
    identity = tuple(range(1, 9))
    for perm in permutations(identity):
        G = build_cg(8, [identity, perm])
        comps, _ = fast_complements(8, perm)
        fast_sets = {materialize(G, c) for c in comps}
        assert fast_sets == set(maximal_complements_oracle(G.lattice, bound=G.lattice.n)), perm


@pytest.mark.slow
@pytest.mark.parametrize("m", [40, 60, 80, 120])
def test_fast_complements_are_maximal_past_the_oracle(m):
    # Soundness where the oracle does not reach (n = 427 to 3,523): the rest
    # of every materialized descriptor is a maximal sublattice.
    perm = random_permutation(m, random.Random(7000 + m))
    G = build_cg(m, [tuple(range(1, m + 1)), perm])
    everything = frozenset(range(G.lattice.n))
    comps, _ = fast_complements(m, perm)
    for c in comps:
        assert is_maximal_sublattice(G.lattice, everything - materialize(G, c)), (m, c.j)


def test_decompose_equals_fast_on_identity_first_chain():
    rng = random.Random(9)
    for _ in range(80):
        m = rng.randint(1, 9)
        perm = random_permutation(m, rng)
        direct, _ = fast_complements(m, perm)
        via_blocks = decompose_and_run(m, (tuple(range(1, m + 1)), perm))
        assert [
            (c.j, c.shape, c.case, c.c1_len, c.c2_len) for c in direct
        ] == [(c.j, c.shape, c.case, c.c1_len, c.c2_len) for c in via_blocks]


def test_decompose_arbitrary_chains_against_oracle():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 7)
        c1 = list(range(1, m + 1))
        c2 = list(range(1, m + 1))
        rng.shuffle(c1)
        rng.shuffle(c2)
        G = build_cg(m, [tuple(c1), tuple(c2)], verify=False)
        got = {materialize(G, c) for c in decompose_and_run(m, (tuple(c1), tuple(c2)))}
        assert got == set(maximal_complements_oracle(G.lattice, bound=40)), (c1, c2)


def test_classification_matches_branches(cdim2_through_m6):
    for G in cdim2_through_m6:
        comps, _ = fast_complements(G.m, G.chains[1].perm)
        for c in comps:
            assert classify_complement(G, materialize(G, c)) == c.case


def test_classify_rejects_non_complement():
    G = build_cg(3, [(1, 2, 3), (3, 2, 1)])
    with pytest.raises((NoCaseMatches, ValueError)):
        classify_complement(G, frozenset({G.lattice.bottom, G.lattice.top}))


def test_paper_example_classes():
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    by_key = {(c.j, c.shape): c for c in comps}
    assert by_key[(5, "IntervalChain1")].case == "Type1"
    assert by_key[(6, "IntervalChain1")].case == "Type2"
    assert by_key[(8, "UnionBothChains")].case == "Type3"
    # the Type2 witness: (6) lies on the second chain
    lo = G.point_closure(6)
    assert G.chain_member[lo][1]


def test_at_most_two_maximal_elements(cdim2_through_m6):
    for G in cdim2_through_m6:
        L = G.lattice
        for C in maximal_complements_oracle(L, bound=40):
            maxima = [a for a in C if not any(b != a and L.leq[a, b] for b in C)]
            assert len(maxima) <= 2


def test_cor_68_lower_cover_in_sublattice(cdim2_through_m6):
    """Every element of every complement has a lower cover inside M."""
    for G in cdim2_through_m6:
        L = G.lattice
        for C in maximal_complements_oracle(L, bound=40):
            for a in C:
                assert any(m not in C for m in L.lower_covers[a]), (G.m, sorted(C), a)


def test_extremes_are_irreducible(cdim2_through_m6):
    for G in cdim2_through_m6[:200]:
        L = G.lattice
        info = L.irreducibles
        comps, _ = fast_complements(G.m, G.chains[1].perm)
        for c in comps:
            cset = materialize(G, c)
            minima = [a for a in cset if not any(b != a and L.leq[b, a] for b in cset)]
            maxima = [a for a in cset if not any(b != a and L.leq[a, b] for b in cset)]
            assert all(a in info.ji for a in minima)
            assert all(a in info.mi for a in maxima)


def test_lemma_suite_64_65_small():
    checked = 0
    for m in range(2, 6):
        for perm in permutations(range(1, m + 1)):
            G = build_cg(m, [tuple(range(1, m + 1)), perm], verify=False)
            rep = check_lemma_64_65([G])
            assert rep.holds, (perm, rep.witness)
            if not G.has_trivial_intersection():
                assert rep.instances_checked == 0
            checked += rep.instances_checked
    assert checked == 421


def test_lemma_suite_64_65_random():
    rng = random.Random(8)
    corpus = []
    for _ in range(40):
        m = rng.randint(6, 9)
        corpus.append(build_cg(m, [tuple(range(1, m + 1)), random_permutation(m, rng)], verify=False))
    rep = check_lemma_64_65(corpus)
    assert rep.holds, rep.witness
    assert rep.instances_checked == 263


def test_json_round_trip():
    comps, _ = fast_complements(10, PAPER_PERM)
    text = complements_to_json(comps, IDENT10, PAPER_PERM)
    back = json.loads(text)
    assert json.dumps(back) == text
    assert back[0]["j"] == 2 and back[0]["class"] == "Type1"
    assert len(back) == 9


def test_singleton_blocks_contribute_cut_singletons():
    # blocks {1,2},{3},{4}: the cut {1,2,3} is doubly irreducible
    comps = decompose_and_run(4, ((1, 2, 3, 4), (2, 1, 3, 4)))
    G = build_cg(4, [(1, 2, 3, 4), (2, 1, 3, 4)])
    got = {materialize(G, c) for c in comps}
    assert frozenset({G.set_index[frozenset({1, 2, 3})]}) in got
    assert got == set(maximal_complements_oracle(G.lattice, bound=32))
    cut = next(c for c in comps if c.j == 3)
    assert cut.case == "Type2"


def test_fast_complements_m1_empty():
    comps, ops = fast_complements(1, (1,))
    assert comps == [] and ops.set_ops == 3


def test_decompose_m1_empty():
    assert decompose_and_run(1, ((1,), (1,))) == []


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=25)
def test_fast_equals_oracle_property(m, rnd):
    perm = list(range(1, m + 1))
    rnd.shuffle(perm)
    perm = tuple(perm)
    G = build_cg(m, [tuple(range(1, m + 1)), perm], verify=False)
    comps, _ = fast_complements(m, perm)
    fast_sets = {materialize(G, c) for c in comps}
    assert fast_sets == set(maximal_complements_oracle(G.lattice, bound=64))


def test_interval_maxima_are_least_mi_on_chain():
    """Each emitted interval tops out exactly at M_i(j) on its chain."""
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    for c in comps:
        chains = {"IntervalChain1": (0,), "IntervalChain2": (1,), "UnionBothChains": (0, 1)}
        for i in chains[c.shape]:
            assert G.chain_prefix_of_point(i, c.j) == G.least_mi_on_chain(i, c.j)


def test_classification_on_decomposed_arbitrary_chains():
    rng = random.Random(5150)
    for _ in range(120):
        m = rng.randint(2, 8)
        c1 = list(range(1, m + 1))
        c2 = list(range(1, m + 1))
        rng.shuffle(c1)
        rng.shuffle(c2)
        G = build_cg(m, [tuple(c1), tuple(c2)], verify=False)
        for c in decompose_and_run(m, (tuple(c1), tuple(c2))):
            assert classify_complement(G, materialize(G, c)) == c.case


# -- the columnar result -------------------------------------------------------


def test_complements_sequence_protocol():
    comps, _ = fast_complements(10, PAPER_PERM)
    assert isinstance(comps, Complements) and len(comps) == 9
    items = list(comps)
    assert comps == items and items == comps and comps == tuple(items)
    assert comps[:-1] == items[:-1] and isinstance(comps[:-1], Complements)
    assert comps[::-1] == items[::-1]
    assert comps[-1] == items[-1] == Complement(10, "IntervalChain2", "Type1", 10, 4)
    assert comps != items[1:] and comps[1:] != items[:-1]
    assert comps == fast_complements(10, PAPER_PERM)[0] == pickle.loads(pickle.dumps(comps))
    assert comps != [(c.j,) for c in items]
    with pytest.raises(IndexError):
        comps[9]
    for c in (comps[0], items[5]):
        assert all(type(v) is int for v in (c.j, c.c1_len, c.c2_len))


def test_complements_are_immutable():
    comps, _ = fast_complements(10, PAPER_PERM)
    with pytest.raises(AttributeError):
        comps.j = comps.c1_len
    with pytest.raises(ValueError):
        comps.j[0] = 5
    with pytest.raises(ValueError):
        comps[:3].kind[0] = 0


# -- differential and metamorphic checks against the scalar references ---------


def _descriptors(comps):
    return [(c.j, c.shape, c.case, c.c1_len, c.c2_len) for c in comps]


def test_vectorized_equals_scalar_exhaustive():
    for m in range(1, 8):
        for perm in permutations(range(1, m + 1)):
            comps, ops = fast_complements(m, perm)
            assert _descriptors(comps) == _descriptors(scalar_fast_complements(m, perm)), perm
            assert ops.set_ops == 3 * m and ops.comparisons <= 12 * m


def test_vectorized_equals_scalar_random():
    rng = random.Random(77)
    for m in [rng.randint(8, 400) for _ in range(100)] + [10**3, 10**4, 10**5]:
        perm = random_permutation(m, rng)
        comps, ops = fast_complements(m, perm)
        assert comps == scalar_fast_complements(m, perm), m
        assert ops.set_ops == 3 * m and ops.comparisons <= 12 * m


def test_relabel_equals_block_splitting_exhaustive():
    for m in range(1, 6):
        chains = list(permutations(range(1, m + 1)))
        for a in chains:
            for b in chains:
                assert decompose_and_run(m, (a, b)) == block_decompose_and_run(m, (a, b)), (a, b)


def test_relabel_equals_block_splitting_shared_prefixes():
    """Chains that agree on common prefixes split into many blocks."""
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(2, 60)
        a = list(random_permutation(m, rng))
        b = []
        cuts = sorted(rng.sample(range(1, m), rng.randint(0, m - 1)))
        for lo, hi in zip([0] + cuts, cuts + [m]):
            block = a[lo:hi]
            rng.shuffle(block)
            b += block
        chains = (tuple(a), tuple(b))
        assert decompose_and_run(m, chains) == block_decompose_and_run(m, chains), chains


def test_relabeling_both_chains_renames_only_the_points():
    """Renaming every point by sigma on both chains keeps each descriptor's
    kind and prefix lengths and maps its point j to sigma(j)."""
    rng = random.Random(77)
    cases = 0
    for m in range(1, 7):
        for chain2 in permutations(range(1, m + 1)):
            for _ in range(3):
                chain1 = random_permutation(m, rng)
                sigma = dict(zip(range(1, m + 1), random_permutation(m, rng)))
                renamed = [tuple(sigma[p] for p in chain) for chain in (chain1, chain2)]
                before = decompose_and_run(m, (chain1, chain2))
                after = decompose_and_run(m, renamed)
                assert [sigma[j] for j in before.j.tolist()] == after.j.tolist(), (chain1, chain2, sigma)
                for column in ("kind", "c1_len", "c2_len"):
                    assert getattr(before, column).tolist() == getattr(after, column).tolist()
                cases += 1
    assert cases == 2619


def _by_endpoint_sets(m, chains):
    """{((j), maxima, case): descriptor} over ``decompose_and_run(m, chains)``."""
    out = {}
    for c in decompose_and_run(m, chains):
        lo, maxima = c.endpoint_sets(*chains)
        key = (lo, frozenset(maxima), c.case)
        assert key not in out, (chains, key)
        out[key] = c
    return out


def test_chain_swap_keeps_complements_and_mirrors_shapes():
    """Swapping the two chains keeps the set of ((j), maxima, case) and
    mirrors the shape label, except where C1(j) = C2(j): that single
    interval is labelled chain 1 in either order.  Every pair of chains is
    a renaming of some (identity, phi), so the identity first covers them."""
    mirror = {SHAPE_CHAIN1: SHAPE_CHAIN2, SHAPE_CHAIN2: SHAPE_CHAIN1, SHAPE_UNION: SHAPE_UNION}
    ties = 0
    for m in range(1, 7):
        ident = tuple(range(1, m + 1))
        for phi in permutations(ident):
            fwd, back = _by_endpoint_sets(m, (ident, phi)), _by_endpoint_sets(m, (phi, ident))
            assert fwd.keys() == back.keys(), phi
            for key, c in fwd.items():
                if set(ident[: c.c1_len]) == set(phi[: c.c2_len]):
                    assert c.shape == back[key].shape == SHAPE_CHAIN1, (phi, c)
                    ties += 1
                else:
                    assert back[key].shape == mirror[c.shape], (phi, c)
    assert ties > 0


def test_inverse_permutation_counts_agree_at_scale():
    """(id, phi) and (id, phi^-1) generate isomorphic geometries."""
    m = 10**5
    perm = random_permutation(m, random.Random(41))
    inv = [0] * m
    for k, p in enumerate(perm, 1):
        inv[p - 1] = k
    comps, ops = fast_complements(m, perm)
    comps_inv, _ = fast_complements(m, tuple(inv))
    assert len(comps) == len(comps_inv)
    assert ops.set_ops == 3 * m and ops.comparisons <= 12 * m
