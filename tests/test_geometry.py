"""Chain-generated geometries: family construction, chain indices, lemma 6.3."""
from __future__ import annotations

import os
import random
import re
import resource
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from helpers import TopOnly, cdim, intersection_closure, least_mi_on_chain, reference_geometry
import latmax
from latmax import geometry
from latmax.corpus import random_cdim_k, random_permutation
from latmax.geometry import BadPermutation, build_cg, format_cg_text, parse_cg_text
from latmax.lattice import InvariantViolation, indecomposable_components


PAPER_PERM = (3, 6, 7, 10, 1, 8, 9, 5, 2, 4)


@pytest.fixture(scope="module")
def paper_geometry():
    return build_cg(10, [tuple(range(1, 11)), PAPER_PERM])


def test_single_chain_gives_a_chain():
    G = build_cg(3, [(1, 2, 3)])
    assert [sorted(s) for s in G.family] == [[], [1], [1, 2], [1, 2, 3]]
    assert cdim(G) == 1


def test_bad_permutation_rejected():
    with pytest.raises(BadPermutation):
        build_cg(3, [(1, 2, 2)])
    with pytest.raises(BadPermutation):
        build_cg(3, [])


def test_many_copies_of_one_chain_give_that_chain():
    # Eight chains on 6 points: the build's work grows with the family, 7
    # sets here, and not with the (m+1)^k cells of the chain coordinates.
    G = build_cg(6, [tuple(range(1, 7))] * 8)
    assert [sorted(s) for s in G.family] == [list(range(1, q + 1)) for q in range(7)]
    assert G.chain_elements == (tuple(range(7)),) * 8
    assert [G.point_closure(x) for x in range(1, 7)] == list(range(1, 7))


def _family_inputs():
    """(m, chains): two fixed pairs, every two-chain geometry with m <= 5, and
    seeded random geometries with 1-4 chains and m <= 8."""
    yield 4, [(1, 2, 3, 4), (4, 3, 2, 1)]
    yield 4, [(1, 2, 3, 4), (2, 4, 1, 3)]
    for m in range(1, 6):
        identity = tuple(range(1, m + 1))
        for perm in permutations(identity):
            yield m, [identity, perm]
    rng = random.Random(1173)
    for _ in range(300):
        m = rng.randint(1, 8)
        yield m, [random_permutation(m, rng) for _ in range(rng.randint(1, 4))]


def test_family_matches_independent_intersection_closure():
    for m, chains in _family_inputs():
        G = build_cg(m, chains)
        prefixes = {frozenset(c[:k]) for c in chains for k in range(m + 1)}
        assert set(G.family) == intersection_closure(prefixes), (m, chains)


def _differential_inputs():
    """(m, chains): every two-chain geometry with m <= 6, 300 seeded random
    geometries with 1-4 chains and m <= 7, 20 seeded two-chain ones with
    m = 9-16, whose points no longer fit one byte of the id sort key, and 20
    seeded ones with 5-8 chains and m <= 12."""
    for m in range(1, 7):
        identity = tuple(range(1, m + 1))
        for perm in permutations(identity):
            yield m, [identity, perm]
    rng = random.Random(2026)
    for _ in range(300):
        m = rng.randint(1, 7)
        yield m, [random_permutation(m, rng) for _ in range(rng.randint(1, 4))]
    for _ in range(20):
        m = rng.randint(9, 16)
        yield m, [tuple(range(1, m + 1)), random_permutation(m, rng)]
    for _ in range(20):
        m = rng.randint(1, 12)
        yield m, [random_permutation(m, rng) for _ in range(rng.randint(5, 8))]


def assert_matches_the_set_build(m, chains):
    """The chain-coordinate build equals the point-set build, id for id."""
    G, want = build_cg(m, chains), reference_geometry(m, chains)
    assert G.family == want.family
    for table in ("leq", "meet", "join"):
        got, expected = getattr(G.lattice, table), getattr(want.lattice, table)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), table
        assert not got.flags.writeable, table
    assert G.chain_elements == want.chain_elements
    assert G.chain_member == want.chain_member
    assert (G.lattice.bottom, G.lattice.top) == (want.lattice.bottom, want.lattice.top)


# The differential inputs in two parts by their number of chain coordinates,
# (m+1)^k: those few enough that a grid holding every cell would be small,
# and the many-chain ones past 2^18 cells, whose members are found only chain
# by chain.  Each input falls in one part.
CELL_PARTS = pytest.mark.parametrize(
    "many_cells", [False, True], ids=["grid-while-small", "chain-by-chain"]
)


def _differential_part(many_cells):
    part = [
        (m, chains) for m, chains in _differential_inputs() if ((m + 1) ** len(chains) > 2**18) == many_cells
    ]
    assert part
    return part


@CELL_PARTS
def test_coordinate_build_matches_the_set_build(many_cells):
    for m, chains in _differential_part(many_cells):
        assert_matches_the_set_build(m, chains)


@pytest.mark.slow
@pytest.mark.parametrize("m", [40, 80, 120])
def test_coordinate_build_matches_the_set_build_at_the_dense_reach(m):
    perm = random_permutation(m, random.Random(7000 + m))
    assert_matches_the_set_build(m, [tuple(range(1, m + 1)), perm])


@CELL_PARTS
def test_point_closure_is_the_meet_of_its_chain_prefixes(many_cells):
    for m, chains in _differential_part(many_cells):
        G = build_cg(m, chains, verify=False)
        for x in range(1, m + 1):
            prefixes = [G.chain_prefix_of_point(i, x) for i in range(len(chains))]
            assert G.point_closure(x) == G.lattice.meet_of(prefixes), (m, chains, x)


@pytest.mark.slow
def test_dense_build_peak_memory():
    # build_cg(verify=True) at m = 120 (n = 3,523) in a child process, whose
    # peak resident set size the kernel reports in KiB.  The point-set
    # build peaked at about 1,055 MB there.
    code = (
        "import random\n"
        "from latmax.corpus import random_permutation\n"
        "from latmax.geometry import build_cg\n"
        "perm = random_permutation(120, random.Random(7120))\n"
        "build_cg(120, [tuple(range(1, 121)), perm], verify=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(latmax.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=600)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 < 800


def test_paper_geometry_shape(paper_geometry):
    G = paper_geometry
    assert cdim(G) == 2
    assert G.has_trivial_intersection()
    # the closures referenced by the worked example
    assert G.element_set(G.point_closure(2)) == {1, 2}
    assert G.element_set(G.point_closure(4)) == {1, 2, 3, 4}
    assert G.element_set(G.point_closure(5)) == {1, 3, 5}
    assert G.element_set(G.point_closure(6)) == {3, 6}
    assert G.element_set(G.point_closure(8)) == {1, 3, 6, 7, 8}
    assert G.element_set(G.point_closure(9)) == {1, 3, 6, 7, 8, 9}
    assert G.element_set(G.point_closure(10)) == {3, 6, 7, 10}


def test_chain_prefix_boundaries(paper_geometry):
    G = paper_geometry
    empty = G.set_index[frozenset()]
    full = G.set_index[frozenset(range(1, 11))]
    assert G.chain_prefix(0, empty) == empty
    assert G.chain_prefix(1, full) == full
    # C2(5) is the 8-point prefix of the second chain
    assert G.element_set(G.chain_prefix_of_point(1, 5)) == {1, 3, 5, 6, 7, 8, 9, 10}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda G: G.element_set(-1), "element id -1 is not in 0..5"),
        (lambda G: G.element_set(6), "element id 6 is not in 0..5"),
        (lambda G: G.chain_prefix(0, -1), "element id -1 is not in 0..5"),
        (lambda G: G.point_closure(0), "point 0 is not in 1..3"),
        (lambda G: G.chain_prefix_of_point(0, -1), "point -1 is not in 1..3"),
        (lambda G: G.successor(0, 9), "point 9 is not in 1..3"),
        (lambda G: G.chain_prefix_of_point(-1, 1), "chain index -1 is not in 0..1"),
        (lambda G: G.chain_prefix_of_point(2, 1), "chain index 2 is not in 0..1"),
        (lambda G: G.successor(-1, 1), "chain index -1 is not in 0..1"),
        (lambda G: G.chain_prefix(2, 0), "chain index 2 is not in 0..1"),
        (lambda G: G.point_closure(True), "point True is not in 1..3"),
        (lambda G: G.successor(0, 2.0), "point 2.0 is not in 1..3"),
    ],
    ids=[
        "element-set-negative",
        "element-set-past-top",
        "chain-prefix",
        "point-closure",
        "prefix-of-point",
        "successor",
        "prefix-of-point-negative-chain",
        "prefix-of-point-past-last-chain",
        "successor-negative-chain",
        "chain-prefix-past-last-chain",
        "point-closure-bool",
        "successor-float",
    ],
)
def test_accessors_name_a_bad_id_or_point(call, message):
    # element_set(-1) used to return the top's points and chain_prefix(0, -1)
    # the top's id; the point accessors raised a bare KeyError.  A chain index
    # of -1 answered for the last chain and one past it raised a bare
    # IndexError; point_closure(True) answered for point 1 and
    # successor(0, 2.0) returned (3, True).
    G = build_cg(3, [(1, 2, 3), (3, 1, 2)])
    assert G.lattice.n == 6
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(G)


def test_successor_refuses_a_geometry_without_two_chains():
    # On three chains successor(2, 1) used to compare against chain -1, the
    # last one, and answer (None, False).
    G = build_cg(3, [(1, 2, 3), (3, 1, 2), (2, 3, 1)])
    for i in (0, 2):
        with pytest.raises(ValueError, match="^successor needs a two-chain geometry, this one has 3 chains$"):
            G.successor(i, 1)
    assert build_cg(3, [(1, 2, 3), (3, 1, 2)]).successor(0, 1) == (2, False)


def test_least_mi_on_single_chain():
    G = build_cg(3, [(1, 2, 3)])
    # on a chain every proper prefix is meet-irreducible
    for x in (1, 2):
        assert least_mi_on_chain(G, 0, x) == G.chain_prefix_of_point(0, x)
    with pytest.raises(TopOnly):
        least_mi_on_chain(G, 0, 3)


def test_point_closure_first_points():
    for m in (2, 4, 6):
        perm = tuple(range(m, 0, -1))
        G = build_cg(m, [tuple(range(1, m + 1)), perm])
        assert G.element_set(G.point_closure(1)) == {1}
        assert G.element_set(G.point_closure(perm[0])) == {perm[0]}


def test_point_closure_injective_and_intersection_formula():
    rng = random.Random(77)
    for _ in range(100):
        m = rng.randint(2, 9)
        G = build_cg(m, [tuple(range(1, m + 1)), random_permutation(m, rng)], verify=False)
        closures = [G.point_closure(x) for x in range(1, m + 1)]
        assert len(set(closures)) == m
        for x in range(1, m + 1):
            want = G.lattice.meet[
                G.chain_prefix_of_point(0, x), G.chain_prefix_of_point(1, x)
            ]
            assert G.point_closure(x) == want
        assert set(closures) <= set(G.lattice.irreducibles.ji)


def test_cdim_blocks():
    # k mutually reversed chains on distinct blocks force an antichain of k
    G = build_cg(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    assert cdim(G) == 2
    G1 = build_cg(4, [(1, 2, 3, 4), (1, 2, 3, 4)])
    assert cdim(G1) == 1
    # k cyclic rotations of (1..k) generate the full powerset: cdim = k
    for k in (3, 4):
        base = list(range(1, k + 1))
        rotations = [tuple(base[i:] + base[:i]) for i in range(k)]
        Gk = build_cg(k, rotations)
        assert Gk.lattice.n == 2**k
        assert cdim(Gk) == k


def test_trivial_intersection_examples():
    assert not build_cg(3, [(1, 2, 3), (1, 2, 3)]).has_trivial_intersection()
    assert build_cg(3, [(1, 2, 3), (3, 2, 1)]).has_trivial_intersection()
    # common chain elements are cut elements of the lattice view
    G = build_cg(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    cuts = {iv.lo for iv in indecomposable_components(G.lattice)}
    assert G.set_index[frozenset({1, 2})] in cuts


@pytest.mark.parametrize(
    "text, message", [("", "empty geometry input"), ("3\n1 2 3\n", "first line must be `m k`")]
)
def test_malformed_geometry_text_is_named(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_cg_text(text)


def test_cg_text_round_trip():
    text = format_cg_text(4, [(1, 2, 3, 4), (2, 4, 1, 3)])
    m, chains = parse_cg_text(text)
    assert m == 4 and [c.perm for c in chains] == [(1, 2, 3, 4), (2, 4, 1, 3)]


def test_cg_text_writes_only_checked_chains():
    # A chain is checked as every entry point checks it, and written as the
    # ints that check read.
    with pytest.raises(BadPermutation, match=r"^not a permutation of 1\.\.3: point 1 repeats$"):
        format_cg_text(3, [(1, 1, 1), (3, 2, 1)])
    with pytest.raises(BadPermutation, match=r"^points must be integers, got float64$"):
        format_cg_text(2, [(1.0, 2.0)])
    assert format_cg_text(3, [np.array([3, 1, 2]), (np.int32(2), 3, 1)]) == "3 2\n3 1 2\n2 3 1\n"


# -- lemma 6.3 structural facts -------------------------------------------------


def _mi_or_none(G, i, x):
    try:
        return least_mi_on_chain(G, i, x)
    except TopOnly:
        return None


def lemma_63_assertions(G):
    L = G.lattice
    for x in range(1, G.m + 1):
        cx = G.point_closure(x)
        c1, c2 = (G.chain_prefix_of_point(i, x) for i in (0, 1))
        m1, m2 = _mi_or_none(G, 0, x), _mi_or_none(G, 1, x)
        # (1) closure as meet of prefixes / least meet-irreducibles
        assert cx == L.meet[c1, c2]
        if m1 is not None and m2 is not None:
            assert cx == L.meet[m1, m2]
            for d1 in sorted(L.interval(cx, m1)):
                for d2 in sorted(L.interval(cx, m2)):
                    assert L.meet[d1, d2] == cx
            # (2) the two intervals meet only at the closure
            assert L.interval(cx, m1) & L.interval(cx, m2) == {cx}
        assert L.interval(cx, c1) & L.interval(cx, c2) == {cx}
        # (6) the down set of a chain prefix splits at the closure
        for i, ci in ((0, c1), (1, c2)):
            pos = G._pos(i, x)
            prev = G.chain_elements[i][pos - 1]
            down_ci = L.interval(L.bottom, ci)
            upper = L.interval(cx, ci)
            lower = L.interval(L.bottom, prev)
            assert upper | lower == down_ci
            assert not (upper & lower)
        # (7) a point whose prefix is the whole set closes onto the other chain
        for i in (0, 1):
            if G.chain_prefix_of_point(i, x) == L.top:
                assert G.chain_member[cx][1 - i]
    # (5) prefixes of nonbottom elements are prefixes of dominated points
    for a in range(L.n):
        if a == L.bottom:
            continue
        for i in (0, 1):
            ci = G.chain_prefix(i, a)
            js = [
                j
                for j in G.element_set(a)
                if G.chain_prefix_of_point(i, j) == ci and L.leq[G.point_closure(j), a]
            ]
            assert js, (a, i)


def test_lemma_63_exhaustive_small(cdim2_through_m6):
    for G in cdim2_through_m6:
        lemma_63_assertions(G)


def test_lemma_63_random_larger():
    rng = random.Random(424242)
    for _ in range(60):
        m = rng.randint(8, 12)
        G = build_cg(m, [tuple(range(1, m + 1)), random_permutation(m, rng)], verify=False)
        lemma_63_assertions(G)


def test_random_cdim_k_builds_verified():
    G = random_cdim_k(6, 3, seed=9)
    assert G.m == 6 and len(G.chains) == 3
    assert cdim(G) <= 3


def _plant(G, fault, monkeypatch):
    """Break one fact that ConvexGeometry._verify checks, on the geometry of
    the chains 1 2 and 2 1, whose elements are {}, {1}, {2} and {1, 2}."""
    points, chains = G._points, G.chain_elements
    if fault == "meet":
        G._points = points.copy()
        G._points[0] = True
    elif fault == "meet-too-small":
        meet = G.lattice.meet.copy()
        meet[1, 3] = meet[3, 1] = 0
        monkeypatch.setattr(G.lattice, "meet", meet)
    elif fault == "join":
        join = G.lattice.join.copy()
        join[1, 2] = join[2, 1] = 1
        monkeypatch.setattr(G.lattice, "join", join)
    elif fault == "sd-join":
        monkeypatch.setattr(geometry, "is_sd_join", lambda L: False)
    elif fault == "semimodular":
        monkeypatch.setattr(geometry, "is_lower_semimodular", lambda L: False)
    elif fault == "cover":
        # Each point counted twice: every cover then adds two.
        G._points = np.repeat(points, 2, axis=1)
    elif fault == "irreducible":
        G.chain_elements = (chains[0], chains[0])
    elif fault == "prefixes":
        G.chain_elements = (chains[1], chains[0])


@pytest.mark.parametrize(
    "fault, message",
    [
        ("meet", "meet of 0 and 1 is not their intersection"),
        ("meet-too-small", "meet of 1 and 3 is not their intersection"),
        ("join", "join of 1 and 2 does not contain their union"),
        ("sd-join", "must satisfy SD-join"),
        ("semimodular", "must be lower semimodular"),
        ("cover", "cover 0 < 1 does not add exactly one point"),
        ("irreducible", "a meet-irreducible lies on no generating chain"),
        ("prefixes", "element 1 is not the meet of its chain prefixes"),
    ],
)
def test_verify_reports_each_planted_fault(fault, message, monkeypatch):
    G = build_cg(2, [(1, 2), (2, 1)])
    assert [sorted(s) for s in G.family] == [[], [1], [2], [1, 2]]
    _plant(G, fault, monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        G._verify()
