"""The linear-time complement enumeration and its classification."""
from __future__ import annotations

import json
import pickle
import random
import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_decompose_and_run, least_mi_on_chain, scalar_fast_complements
from latmax.cdim2 import (
    C1_TYPE2,
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
    verify_complements,
)
from latmax.checks import check_lemma_64_65
from latmax.corpus import all_cdim2_geometries, random_permutation
from latmax.geometry import BadPermutation, ChainSpec, _padded_permutation, build_cg
from latmax.lattice import bits
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


_REPEATS = "not a permutation of 1..3: point 2 repeats"
_TOO_BIG = "not a permutation of 1..2: point 3 is out of range"
_ZERO = "not a permutation of 1..2: point 0 is out of range"
_SHORT = "not a permutation of 1..3: 2 points given"
_LONG = "not a permutation of 1..2: 3 points given"
_EMPTY = "ground set must be nonempty"
_FLOATS = "points must be integers, got float64"
_A_BOOL = "points must be integers, got a bool"
_ALL_BOOL = "points must be integers, got bool"
_STRINGS = "points must be integers, got <U1"
_HUGE = "not a permutation of 1..2: a point lies past the int64 range"
_SHAPE = "not a permutation of 1..2: an array of shape (1, 2) given"


_MALFORMED = [
    (3, (1, 2, 2), _REPEATS),  # repeated point
    (2, (1, 3), _TOO_BIG),  # out of range
    (2, (0, 1), _ZERO),
    (3, (1, 2), _SHORT),  # too short
    (2, (1, 2, 3), _LONG),  # too long
    (0, (), _EMPTY),  # empty ground set
    (2, (1.7, 2.2), _FLOATS),  # floats
    (2, (1.0, 2.0), _FLOATS),
    (2, (True, 2), _A_BOOL),  # a bool reads as 1
    (1, (True,), _ALL_BOOL),
    (2, ("1", "2"), _STRINGS),
    (2, [[1, 2]], _SHAPE),
    (2, (2**70, 1), _HUGE),  # past int64
    (2, [1, [2]], "points must be integers, got [2]"),  # ragged
    (2, (True, False), _ALL_BOOL),  # all bools: numpy reads a bool array
    (2, (2, np.True_), _A_BOOL),
    # The same faults as lists.
    (3, [1, 2, 2], _REPEATS),
    (2, [1, 3], _TOO_BIG),
    (2, [0, 1], _ZERO),
    (3, [1, 2], _SHORT),
    (2, [1, 2, 3], _LONG),
    (0, [], _EMPTY),
    (2, [1.7, 2.2], _FLOATS),
    (2, [1.0, 2.0], _FLOATS),
    (2, [True, 2], _A_BOOL),
    (1, [True], _ALL_BOOL),
    (2, [True, False], _ALL_BOOL),
    (2, ["1", "2"], _STRINGS),
    (2, [2**70, 1], _HUGE),
    # Arrays, and numpy scalars in a tuple.
    (2, np.array([1.0, 2.0]), _FLOATS),
    (2, np.array([True, False]), _ALL_BOOL),
    (2, np.array([[1, 2]]), _SHAPE),
    (3, (np.int32(1), np.int32(2), np.int32(2)), _REPEATS),
]


# Case ids read m-phi<index>, as pytest names an (m, phi) pair.
@pytest.mark.parametrize(
    "m, phi, message", _MALFORMED, ids=[f"{m}-phi{k}" for k, (m, _, _) in enumerate(_MALFORMED)]
)
def test_malformed_permutation_rejected(m, phi, message):
    # One validator: every entry point gives the same message.
    identity = tuple(range(1, m + 1))
    calls = [
        lambda: fast_complements(m, phi),
        lambda: decompose_and_run(m, (identity, phi)),
        lambda: ChainSpec(phi).validate(m),
        lambda: build_cg(m, [identity, phi]),
    ]
    for call in calls:
        with pytest.raises(BadPermutation) as info:
            call()
        assert str(info.value) == message


class _Index:
    """A point that is no int but converts to one, as operator.index asks."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_index_points_read_alike_by_every_entry_point():
    # ChainSpec takes what operator.index takes; so do the tuple and list
    # reads of the fast path, even where numpy would promote the mix to
    # float64 or object.
    phi = (np.uint64(2), np.int64(3), _Index(1))
    plain = (2, 3, 1)
    ChainSpec(phi).validate(3)
    for chain in (phi, list(phi)):
        assert fast_complements(3, chain)[0] == fast_complements(3, plain)[0]
        assert decompose_and_run(3, (chain, (1, 2, 3))) == decompose_and_run(3, (plain, (1, 2, 3)))


# A ground set size is an int: a bool, or what operator.index refuses, is
# refused by every entry point before a point is read.
_NOT_A_SIZE = [
    (3.0, "ground set size 3.0 is not an integer"),
    ("3", "ground set size '3' is not an integer"),
    (True, "ground set size True is not an integer"),
]


@pytest.mark.parametrize("m, message", _NOT_A_SIZE, ids=["float", "str", "bool"])
def test_non_integer_ground_set_size_rejected(m, message):
    chain = (1, 2, 3)
    calls = [
        lambda: fast_complements(m, chain),
        lambda: decompose_and_run(m, (chain, chain)),
        lambda: ChainSpec(chain).validate(m),
        lambda: build_cg(m, [chain, chain]),
    ]
    for call in calls:
        with pytest.raises(BadPermutation) as info:
            call()
        assert str(info.value) == message


def test_numpy_int_ground_set_size_is_accepted():
    m, chains = np.int64(3), ((1, 2, 3), (3, 1, 2))
    assert fast_complements(m, chains[1])[0] == fast_complements(3, chains[1])[0]
    assert decompose_and_run(m, chains) == decompose_and_run(3, chains)
    assert build_cg(m, chains).lattice.n == build_cg(3, chains).lattice.n


@given(st.integers(1, 60).flatmap(lambda m: st.permutations(range(1, m + 1))), st.data())
@settings(max_examples=60)
def test_every_chain_form_reads_alike(perm, data):
    # A tuple, a list and an int64 array of one permutation read to the same
    # (perm, positions), and so does a tuple or list mixing numpy ints and
    # __index__ points with plain ints.
    m = len(perm)
    positions = [0] * (m + 1)
    for k, p in enumerate(perm, 1):
        positions[p] = k
    kinds = data.draw(st.lists(st.sampled_from([int, np.int64, np.uint32, _Index]), min_size=m, max_size=m))
    mixed = tuple(kind(p) for kind, p in zip(kinds, perm))
    for chain in (tuple(perm), list(perm), np.array(perm, dtype=np.int64), mixed, list(mixed)):
        got, pos = _padded_permutation(m, chain)
        assert got.dtype == pos.dtype == np.int64
        assert (got.tolist(), pos.tolist()) == (perm, positions)


@pytest.mark.parametrize("chain", [(1.5, 2), (True, 2), ("1", "2")])
def test_chainspec_rejects_non_integer_points(chain):
    with pytest.raises(BadPermutation):
        ChainSpec(chain).validate(2)


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
        comps, _ = fast_complements(G.m, G.chains[1].perm)
        v = verify_complements(G, comps, bound=40)
        assert v.ok, (G.chains[1].perm, v)


def test_verify_complements_sees_missing_repeated_and_mistagged():
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    assert verify_complements(G, comps).ok
    truncated = verify_complements(G, comps[:-1])
    assert not truncated.ok and truncated.oracle - truncated.fast == {materialize(G, comps[-1])}
    repeated = verify_complements(G, [*comps, comps[0]])
    assert (repeated.listed, len(repeated.fast), len(repeated.oracle)) == (10, 9, 9)
    assert repeated.fast == repeated.oracle and not repeated.ok
    # j = 2 is [(2), C1(2)] of Type1; tagging it Type2 keeps its set.
    kind = comps.kind.copy()
    kind[0] = C1_TYPE2
    mistagged = verify_complements(G, Complements(comps.m, comps.j, kind, comps.c1_len, comps.c2_len))
    assert mistagged.sets_agree and mistagged.misclassified == (2,) and not mistagged.ok


def test_verify_complements_counts_a_set_that_fits_no_case():
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    # [C1(0) ∧ C2(0), C1(10)] is the whole lattice, whose minimum is no point closure.
    whole = Complement(1, SHAPE_CHAIN1, "Type1", 10, 0)
    with pytest.raises(NoCaseMatches, match="minimum is not a point closure"):
        classify_complement(G, materialize(G, whole))
    v = verify_complements(G, [*comps, whole])
    assert v.misclassified == (1,) and not v.ok
    # The top X is no point closure either: its last point on chain 1, 10,
    # has (10) = {3, 6, 7, 10}.
    with pytest.raises(NoCaseMatches, match="minimum is not a point closure"):
        classify_complement(G, {G.lattice.top})


def test_verify_complements_reads_no_member_sets():
    # Verification works on ids and chain coordinates; the frozensets of
    # the members are built only when something asks for them.
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    assert verify_complements(G, comps).ok
    assert "family" not in vars(G) and "set_index" not in vars(G)


def test_oracle_equivalence_m9_random():
    rng = random.Random(1234)
    for _ in range(60):
        perm = random_permutation(9, rng)
        G = build_cg(9, [tuple(range(1, 10)), perm], verify=False)
        comps, _ = fast_complements(9, perm)
        assert verify_complements(G, comps, bound=64).ok, perm


def test_oracle_equivalence_seeded_m8_to_25():
    # One random geometry per m, up to n = 173 elements; the oracle's forced
    # moves and resumable scan keep this to a second or two.
    rng = random.Random(2025)
    for m in range(8, 26):
        perm = random_permutation(m, rng)
        G = build_cg(m, [tuple(range(1, m + 1)), perm])
        comps, _ = fast_complements(m, perm)
        assert verify_complements(G, comps).ok, perm


@pytest.mark.slow
def test_oracle_equivalence_exhaustive_m8():
    # All 40,320 permutations with m = 8; opt in with ``pytest -m slow``.
    identity = tuple(range(1, 9))
    for perm in permutations(identity):
        G = build_cg(8, [identity, perm])
        comps, _ = fast_complements(8, perm)
        assert verify_complements(G, comps).ok, perm


@pytest.mark.slow
@pytest.mark.parametrize("m", [30, 40, 50, 60])
def test_oracle_equivalence_seeded_m30_to_60(m):
    # Three geometries per m, up to n = 1,065 elements: the fast path against
    # the oracle where the oracle still reaches.
    rng = random.Random(1000 + m)
    for _ in range(3):
        perm = random_permutation(m, rng)
        G = build_cg(m, [tuple(range(1, m + 1)), perm])
        comps, _ = fast_complements(m, perm)
        assert verify_complements(G, comps).ok, perm


@pytest.mark.slow
def test_fast_complements_are_complete_at_m80():
    # Completeness at n = 1,471: the oracle finds exactly the fast path's
    # complements, and each is tagged with its case.
    perm = random_permutation(80, random.Random(7080))
    G = build_cg(80, [tuple(range(1, 81)), perm])
    comps, _ = fast_complements(80, perm)
    assert verify_complements(G, comps).ok


@pytest.mark.slow
@pytest.mark.parametrize("m", [40, 60, 80, 120])
def test_fast_complements_are_maximal_past_the_oracle(m):
    # Soundness at n = 427 to 3,523: the rest of every materialized
    # descriptor is a maximal sublattice.  The oracle reaches m = 80 too (the
    # completeness check above); at m = 120 its memory is the wall, so this
    # is the only check there.
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


def _random_chain_pairs(seed, count, max_m):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, max_m)
        c1 = list(range(1, m + 1))
        c2 = list(range(1, m + 1))
        rng.shuffle(c1)
        rng.shuffle(c2)
        yield m, (tuple(c1), tuple(c2))


def test_decompose_arbitrary_chains_against_oracle():
    for m, chains in _random_chain_pairs(31, 60, 7):
        G = build_cg(m, chains, verify=False)
        assert verify_complements(G, decompose_and_run(m, chains)).ok, chains


def test_classify_rejects_non_complement():
    G = build_cg(3, [(1, 2, 3), (3, 2, 1)])
    with pytest.raises((NoCaseMatches, ValueError)):
        classify_complement(G, frozenset({G.lattice.bottom, G.lattice.top}))


@pytest.mark.parametrize("C", [{99}, {1, 99}], ids=["alone", "beside-an-element"])
def test_classify_names_an_element_id_past_the_lattice(C):
    G = build_cg(3, [(1, 2, 3), (3, 1, 2)])
    with pytest.raises(ValueError, match="element id 99 is not in 0..5"):
        classify_complement(G, C)


@pytest.mark.parametrize("c1_len, c2_len, bad", [(7, 0, 7), (0, -1, -1)])
def test_materialize_names_a_prefix_length_past_the_chains(c1_len, c2_len, bad):
    G = build_cg(3, [(1, 2, 3), (3, 1, 2)])
    with pytest.raises(ValueError, match=f"prefix length {bad} is not in 0..3"):
        materialize(G, Complement(1, SHAPE_CHAIN1, "Type1", c1_len, c2_len))


@pytest.mark.parametrize("c1_len, c2_len, bad", [(-1, 2, -1), (9, 2, 9), (2, 5, 5), (2, True, True)])
def test_endpoint_sets_names_a_prefix_length_past_the_chains(c1_len, c2_len, bad):
    # A bare Complement carries no m: -1 once read as C1 = {1, 2, 3}, and 9
    # as all four points.
    comp = Complement(2, SHAPE_CHAIN1, "Type1", c1_len, c2_len)
    with pytest.raises(ValueError, match=f"^prefix length {bad} is not in 0\\.\\.4$"):
        comp.endpoint_sets((1, 2, 3, 4), (2, 1, 4, 3))


@pytest.mark.parametrize(
    "chains, message",
    [
        (((1, 2, 3), (5,)), "1 points given"),
        (((1, 1, 2), (1, 2, 3)), "point 1 repeats"),
        (((1, 2, 3), (2, 1)), "2 points given"),
    ],
    ids=["chain2-past-m", "chain1-repeats", "chain2-shorter-than-c2-len"],
)
def test_endpoint_sets_refuses_a_chain_that_is_no_permutation(chains, message):
    # m is chain 1's point count; both chains are read against it.
    comp = Complement(1, SHAPE_CHAIN1, "Type1", 1, 3)
    with pytest.raises(BadPermutation, match=f"^not a permutation of 1\\.\\.3: {message}$"):
        comp.endpoint_sets(*chains)


@pytest.mark.parametrize("count", [1, 3])
def test_decompose_and_run_refuses_other_than_two_chains(count):
    chains = [(1, 2, 3), (2, 3, 1), (3, 1, 2)][:count]
    with pytest.raises(ValueError, match=f"^decompose_and_run needs two chains, {count} given$"):
        decompose_and_run(3, chains)


def test_verify_complements_refuses_descriptors_on_another_m():
    G = build_cg(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    comps, _ = fast_complements(3, (2, 1, 3))
    with pytest.raises(ValueError, match="^the descriptors are on 3 points, the geometry on 4$"):
        verify_complements(G, comps)
    # Bare descriptors carry no m: each is checked as it is read.
    assert not verify_complements(G, list(comps)).ok


def test_materialize_and_endpoint_sets_refuse_an_unknown_shape():
    G = build_cg(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    comp = Complement(2, "Bogus", "Type1", 2, 2)
    message = "^shape 'Bogus' is not one of IntervalChain1, IntervalChain2, UnionBothChains$"
    with pytest.raises(ValueError, match=message):
        materialize(G, comp)
    with pytest.raises(ValueError, match=message):
        comp.endpoint_sets(*G.chains)


THREE_CHAINS = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


@pytest.mark.parametrize(
    "chains, call, message",
    [
        (THREE_CHAINS, lambda G: materialize(G, Complement(1, SHAPE_CHAIN1, "Type1", 1, 1)), "materialization needs a two-chain geometry"),
        (THREE_CHAINS, lambda G: classify_complement(G, [1]), "classification needs a two-chain geometry"),
        ([(1, 2, 3), (3, 1, 2)], lambda G: classify_complement(G, []), "empty complement"),
    ],
    ids=["materialize-three-chains", "classify-three-chains", "classify-empty"],
)
def test_materialize_and_classify_name_their_input_fault(chains, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(build_cg(3, chains))


def test_classify_tags_exactly_the_oracle_complements():
    # Every nonempty subset of the 33 two-chain geometries with m <= 4: an
    # oracle complement gets the tag the fast path lists, any other set
    # raises NoCaseMatches.
    subsets = tagged = 0
    for m in range(1, 5):
        for G in all_cdim2_geometries(m, verify=False):
            comps, _ = fast_complements(m, G.chains[1].perm)
            expected = {materialize(G, c): c.case for c in comps}
            assert set(expected) == set(maximal_complements_oracle(G.lattice))
            for mask in range(1, 1 << G.lattice.n):
                C = frozenset(bits(mask))
                try:
                    tag = classify_complement(G, C)
                except NoCaseMatches:
                    tag = None
                assert tag == expected.get(C), (G.chains[1].perm, sorted(C))
                subsets += 1
                tagged += tag is not None
    assert (subsets, tagged) == (10_411, 109)


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
    v = verify_complements(G, comps, bound=32)
    assert frozenset({G.set_index[frozenset({1, 2, 3})]}) in v.fast
    assert v.ok
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
    assert verify_complements(G, comps, bound=64).ok


def test_interval_maxima_are_least_mi_on_chain():
    """Each emitted interval tops out exactly at M_i(j) on its chain."""
    G = build_cg(10, [IDENT10, PAPER_PERM])
    comps, _ = fast_complements(10, PAPER_PERM)
    for c in comps:
        chains = {"IntervalChain1": (0,), "IntervalChain2": (1,), "UnionBothChains": (0, 1)}
        for i in chains[c.shape]:
            assert G.chain_prefix_of_point(i, c.j) == least_mi_on_chain(G, i, c.j)


def test_classification_on_decomposed_arbitrary_chains():
    # verify_complements confirms each case tag through classify_complement.
    for m, chains in _random_chain_pairs(5150, 120, 8):
        G = build_cg(m, chains, verify=False)
        v = verify_complements(G, decompose_and_run(m, chains))
        assert v.misclassified == () and v.ok, chains


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


# (column, value, message) on the 4-point geometry, the other columns of the
# one descriptor being j = 2, kind 0 and prefix lengths 2 and 2.  Kind -1
# once read as the union, and kind 7 raised a bare IndexError.
RANGE_FAULTS = [
    ("j", 0, "point 0 is not in 1..4"),
    ("j", 5, "point 5 is not in 1..4"),
    ("j", 2.0, "point 2.0 is not in 1..4"),
    ("j", True, "point True is not in 1..4"),
    ("kind", -1, "kind code -1 is not in 0..4"),
    ("kind", 7, "kind code 7 is not in 0..4"),
    ("c1_len", -1, "prefix length -1 is not in 0..4"),
    ("c1_len", 5, "prefix length 5 is not in 0..4"),
    ("c2_len", -1, "prefix length -1 is not in 0..4"),
    ("c2_len", 9, "prefix length 9 is not in 0..4"),
]


@pytest.mark.parametrize("column, value, message", RANGE_FAULTS, ids=[f"{c}-{v!r}" for c, v, _ in RANGE_FAULTS])
def test_complements_refuses_a_value_outside_its_range(column, value, message):
    columns = {"j": [2], "kind": [0], "c1_len": [2], "c2_len": [2], column: [value]}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Complements(4, *(np.array(columns[name]) for name in ("j", "kind", "c1_len", "c2_len")))


@pytest.mark.parametrize(
    "columns",
    [
        ([2, 3], [0], [2], [2]),
        ([2], [0], [2], [2, 3]),
        ([[2]], [[0]], [[2]], [[2]]),
        (2, 0, 2, 2),
    ],
    ids=["long-j", "long-c2_len", "2-D", "0-D"],
)
def test_complements_refuses_columns_not_1d_of_one_length(columns):
    with pytest.raises(ValueError, match="^descriptor columns must be 1-D and of one length, got shapes "):
        Complements(4, *map(np.array, columns))


@pytest.mark.parametrize("m", [0, -3, True, 2.0, "4"])
def test_complements_refuses_a_ground_set_size_that_is_no_positive_int(m):
    with pytest.raises(ValueError, match="is not a positive integer$"):
        Complements(m, np.array([1]), np.array([0]), np.array([1]), np.array([1]))


def test_complements_copies_its_columns():
    # The caller's arrays stay writable, and a later write to them does not
    # reach the descriptors.
    j, kind = np.array([2, 4]), np.array([0, 0])
    comps = Complements(4, j, kind, j, np.array([2, 4]))
    j[0] = 99
    kind[0] = -1
    assert comps == [Complement(2, SHAPE_CHAIN1, "Type1", 2, 2), Complement(4, SHAPE_CHAIN1, "Type1", 4, 4)]
    assert not comps.j.flags.writeable and comps.m == 4


def test_complements_carries_m_through_slices_and_pickles():
    comps, _ = fast_complements(10, PAPER_PERM)
    assert comps.m == comps[2:5].m == comps[:0].m == pickle.loads(pickle.dumps(comps)).m == 10
    assert pickle.loads(pickle.dumps(comps[::2])) == comps[::2]
    first = "Complement(j=2, shape='IntervalChain1', case='Type1', c1_len=2, c2_len=9)"
    assert repr(comps[:1]) == f"Complements(m=10, [{first}])"
    # Equal columns on another ground set are other descriptors.
    assert Complements(11, *comps._columns()) != comps
    assert Complements(10, *comps._columns()) == comps


def test_a_pickle_with_altered_columns_is_refused_on_load():
    comps, _ = fast_complements(10, PAPER_PERM)
    cls, (m, j, kind, c1_len, c2_len) = comps.__reduce__()

    class Forged:
        def __init__(self, *args):
            self.args = args

        def __reduce__(self):
            return cls, self.args

    bad_kind = kind.copy()
    bad_kind[3] = 7
    bad_c2 = c2_len.copy()
    bad_c2[0] = 11
    for args, message in [
        ((m, j, bad_kind, c1_len, c2_len), "kind code 7 is not in 0..4"),
        ((m, j, kind, c1_len, bad_c2), "prefix length 11 is not in 0..10"),
        ((9, j, kind, c1_len, c2_len), "point 10 is not in 1..9"),
        ((m, j[1:], kind, c1_len, c2_len), "descriptor columns must be 1-D and of one length"),
    ]:
        blob = pickle.dumps(Forged(*args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            pickle.loads(blob)


def test_enumerations_make_columns_the_constructor_takes():
    # The fast path builds without the check; its columns must pass it.
    rng = random.Random(85)
    for m in [*range(1, 7), *(rng.randint(7, 300) for _ in range(40)), 10**4]:
        perm = random_permutation(m, rng)
        fast, _ = fast_complements(m, perm)
        relabeled = decompose_and_run(m, (random_permutation(m, rng), perm))
        for comps in (fast, relabeled, fast[1::2]):
            assert Complements(comps.m, *comps._columns()) == comps and comps.m == m


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


@pytest.mark.slow
def test_vectorized_equals_scalar_at_a_million():
    m = 10**6
    perm = random_permutation(m, random.Random(78))
    comps, ops = fast_complements(m, perm)
    assert comps == scalar_fast_complements(m, perm)
    assert ops.set_ops == 3 * m and ops.comparisons == 2 * (m - 1) + 5 * m


def _check_block_sum(m1, m2, seed, glue):
    """fast_complements on the block sum phi1 ⊕ (phi2 + m1) lists phi1's
    columns, then (m1, C1_TYPE2, m1, m1) exactly when phi1 ends with m1 and
    phi2 starts with 1 (the glue element is then doubly irreducible), then
    phi2's columns with j and both prefix lengths shifted by m1."""
    rng = np.random.default_rng(seed)
    phi1, phi2 = rng.permutation(m1) + 1, rng.permutation(m2) + 1
    if glue:
        phi1 = np.append(phi1[phi1 != m1], m1)
        phi2 = np.append(1, phi2[phi2 != 1])
    whole, _ = fast_complements(m1 + m2, np.concatenate([phi1, phi2 + m1]))
    first, _ = fast_complements(m1, phi1)
    second, _ = fast_complements(m2, phi2)
    middle = [[m1], [C1_TYPE2], [m1], [m1]] if glue else [[]] * 4
    for column, a, mid, b, shift in zip(
        whole._columns(), first._columns(), middle, second._columns(), (m1, 0, m1, m1)
    ):
        assert np.array_equal(column, np.concatenate([a, mid, b + shift]))
    assert len(whole) == len(first) + glue + len(second)


@pytest.mark.parametrize("glue", [False, True], ids=["random-halves", "glued-halves"])
def test_block_sum_lists_both_blocks(glue):
    _check_block_sum(60_000, 40_000, seed=81, glue=glue)


@pytest.mark.slow
@pytest.mark.parametrize("glue", [False, True], ids=["random-halves", "glued-halves"])
def test_block_sum_lists_both_blocks_at_a_million(glue):
    _check_block_sum(500_000, 500_000, seed=82, glue=glue)


def test_output_columns_keep_their_dtypes():
    rng = random.Random(79)
    for m in (1, 2, 10, 1000):
        perm = random_permutation(m, rng)
        fast, _ = fast_complements(m, perm)
        assert fast.j is fast.c1_len
        relabeled = decompose_and_run(m, (random_permutation(m, rng), perm))
        for comps in (fast, relabeled):
            assert [column.dtype for column in comps._columns()] == [
                np.int64, np.int8, np.int64, np.int64
            ]


def _traced(call, *args):
    """(result, transient peak, retained) of call(*args): the bytes it
    allocates, as tracemalloc counts them, above what was allocated before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, retained - before


def test_fast_path_memory_budget_at_m100000():
    # Bytes per point at m = 10^5 on chains given as lists and as tuples
    # (the form the CLI passes): each pass frees its arrays, and
    # decompose_and_run gathers from positions padded with a leading 0, so
    # the transient peak stays within 40 (fast_complements) and 48
    # (decompose_and_run).  What is kept is the columns alone: 17
    # bytes per descriptor (int64 j = c1_len, int8 kind, int64 c2_len), and
    # 25 once j and c1_len differ.
    m = 10**5
    rng = random.Random(80)
    a, b = (random_permutation(m, rng) for _ in range(2))
    for form in (list, tuple):
        (fast, _), fast_peak, fast_kept = _traced(fast_complements, m, form(a))
        relabeled, relabel_peak, relabel_kept = _traced(decompose_and_run, m, [form(b), form(a)])
        assert fast_peak <= 40 * m and relabel_peak <= 48 * m, (form, fast_peak / m, relabel_peak / m)
        # Besides the columns, a few Python objects: the arrays' headers, the
        # Complements and the OpCounter.
        assert 17 * len(fast) <= fast_kept <= 17 * len(fast) + 4096, (form, fast_kept)
        assert 25 * len(relabeled) <= relabel_kept <= 25 * len(relabeled) + 4096, (form, relabel_kept)


def test_fast_path_leaves_its_inputs_alone():
    # Both calls take an int64 array as it is, without a copy, and build the
    # columns in place: no column may be, or share memory with, an input,
    # and no input may change.
    m = 1000
    rng = random.Random(83)
    a, b = (np.array(random_permutation(m, rng), dtype=np.int64) for _ in range(2))
    for chains in ((a, b), (a.tolist(), b.tolist())):
        kept = [np.array(chain) for chain in chains]
        fast, _ = fast_complements(m, chains[1])
        relabeled = decompose_and_run(m, chains)
        for column in fast._columns() + relabeled._columns():
            assert not any(np.shares_memory(column, chain) for chain in chains)
        assert all(map(np.array_equal, chains, kept))


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


def test_relabeling_renames_the_fast_path_at_m100000():
    """decompose_and_run(m, [sigma, sigma∘phi]) is fast_complements(m, phi)
    with every point j renamed to sigma(j), on the same m."""
    m = 10**5
    rng = np.random.default_rng(86)
    sigma, phi = rng.permutation(m) + 1, rng.permutation(m) + 1
    fast, _ = fast_complements(m, phi)
    renamed = Complements(m, sigma[fast.j - 1], fast.kind, fast.c1_len, fast.c2_len)
    assert decompose_and_run(m, [sigma.tolist(), sigma[phi - 1].tolist()]) == renamed
    assert len(fast) > m // 2


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
