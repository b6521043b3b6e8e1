"""Canonical join/meet representations and the kappa machinery."""
from __future__ import annotations

import random
import re

import pytest

from helpers import (
    brute_canonical_join_rep,
    brute_canonical_meet_rep,
    loop_kappa_bijection_check,
    random_moore_lattice,
)
from latmax.corpus import all_cdim2_geometries, boolean, chain, n5
from latmax.lattice import (
    canonical_join_rep,
    canonical_meet_rep,
    is_sd,
    is_sd_join,
    is_sd_meet,
    kappa,
    kappa_bijection_check,
    kappa_sigma,
    minimal_elements,
)


@pytest.fixture(scope="module")
def moore_families():
    """Seeded random intersection-closed families and their duals.

    Many of them are not semidistributive, so elements without a canonical
    representation and partial kappa maps are common.
    """
    rng = random.Random(15)
    out = {}
    for k in range(300):
        L = random_moore_lattice(rng, rng.randint(3, 6), rng.randint(2, 9))
        out[f"moore{k}"], out[f"moore{k}_dual"] = L, L.dual
    return out


def test_boolean_top_canonical_rep(named_lattices):
    B2 = named_lattices["b2"]
    assert canonical_join_rep(B2, B2.top) == {1, 2}
    assert canonical_meet_rep(B2, B2.bottom) == {1, 2}


def test_join_irreducible_is_its_own_rep(small_corpus):
    for name, L in small_corpus.items():
        for j in L.irreducibles.ji:
            assert canonical_join_rep(L, j) == {j}, (name, j)


def test_bottom_rep_is_empty(named_lattices):
    L = named_lattices["b3"]
    assert canonical_join_rep(L, L.bottom) == frozenset()
    assert canonical_meet_rep(L, L.top) == frozenset()


def test_m3_top_has_no_canonical_rep(named_lattices):
    assert canonical_join_rep(named_lattices["m3"], 4) is None


def test_canonical_reps_match_brute_force(small_corpus, moore_families):
    no_rep = 0
    for name, L in {**small_corpus, **moore_families}.items():
        for x in range(L.n):
            rep = canonical_join_rep(L, x)
            assert rep == brute_canonical_join_rep(L, x), (name, x)
            assert canonical_meet_rep(L, x) == brute_canonical_meet_rep(L, x), (name, x)
            no_rep += rep is None
    assert no_rep >= 300


def test_canonical_reps_match_brute_force_on_geometries():
    for G in all_cdim2_geometries(4, verify=False):
        L = G.lattice
        for x in range(L.n):
            assert canonical_join_rep(L, x) == brute_canonical_join_rep(L, x)


def test_sd_join_iff_canonical_rep_total(small_corpus):
    for name, L in small_corpus.items():
        total = all(canonical_join_rep(L, x) is not None for x in range(L.n))
        assert total == is_sd_join(L), name
        total_m = all(canonical_meet_rep(L, x) is not None for x in range(L.n))
        assert total_m == is_sd_meet(L), name


def test_kappa_on_three_chain():
    L = chain(2)  # 0 < 1 < 2
    assert kappa(L, 1) == 0


def test_kappa_on_boolean_square(named_lattices):
    B2 = named_lattices["b2"]
    assert kappa(B2, 1) == 2
    assert kappa(B2, 2) == 1


def test_kappa_absent_on_m3(named_lattices):
    M3 = named_lattices["m3"]
    for atom in (1, 2, 3):
        assert kappa(M3, atom) is None


def test_kappa_requires_join_irreducible(named_lattices):
    with pytest.raises(ValueError):
        kappa(named_lattices["b2"], 3)


@pytest.mark.parametrize("rep, x", [(canonical_join_rep, -1), (canonical_join_rep, 7), (canonical_meet_rep, 5)])
def test_canonical_rep_refuses_an_id_outside_the_lattice(rep, x):
    L = n5()
    with pytest.raises(ValueError, match=rf"^element id {x} is not in 0\.\.4$"):
        rep(L, x)
    # A valid id still works.
    assert rep(L, L.bottom if rep is canonical_join_rep else L.top) == frozenset()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda L: L.interval(-1, -1), "element id -1 is not in 0..4"),
        (lambda L: L.interval(0, 9), "element id 9 is not in 0..4"),
        (lambda L: L.interval_mask(9, 4), "element id 9 is not in 0..4"),
        (lambda L: L.meet_of([-1, 0]), "element id -1 is not in 0..4"),
        (lambda L: L.join_of([0, -1]), "element id -1 is not in 0..4"),
        (lambda L: L.join_of([0, 5]), "element id 5 is not in 0..4"),
        (lambda L: L.interval(True, 4), "element id True is not in 0..4"),
        (lambda L: L.interval(1.0, 4), "element id 1.0 is not in 0..4"),
        (lambda L: L.join_of([0, False]), "element id False is not in 0..4"),
        (lambda L: minimal_elements(L, [0, 7]), "element id 7 is not in 0..4"),
        (lambda L: (canonical_join_rep(L, 1), canonical_join_rep(L, True)), "element id True is not in 0..4"),
        (lambda L: kappa(L, True), "element id True is not in 0..4"),
        (lambda L: kappa(L, 9), "element id 9 is not in 0..4"),
        (lambda L: kappa_sigma(L, True), "element id True is not in 0..4"),
        (lambda L: kappa_sigma(L, -1), "element id -1 is not in 0..4"),
    ],
    ids=[
        "interval-negative",
        "interval-past-top",
        "interval-mask",
        "meet-of",
        "join-of-negative",
        "join-of-past-top",
        "interval-bool",
        "interval-float",
        "join-of-bool",
        "minimal-elements",
        "cached-canonical-rep-bool",
        "kappa-bool",
        "kappa-past-top",
        "kappa-sigma-bool",
        "kappa-sigma-negative",
    ],
)
def test_accessors_name_an_id_outside_the_lattice(call, message):
    # numpy would read a negative id from the end, so these used to answer
    # for the top (interval(-1, -1) was {4}, meet_of([-1, 0]) was 0); a bool
    # passed as 0 or 1 (interval(True, 4) was {1, 4}), and interval(1.0, 4)
    # raised a bare TypeError.  kappa(L, True) answered kappa(L, 1), and
    # kappa_sigma(L, True) likewise for 1.
    L = n5()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(L)
    assert L.interval(1, 4) == {1, 4} and L.meet_of([1, 2]) == 0 and L.join_of([1, 3]) == 4


def test_kappa_direct_enumeration_agrees(small_corpus, moore_families):
    """kappa equals the unique greatest element of K(j) computed by raw scan."""
    partial = 0
    for name, L in {**small_corpus, **moore_families}.items():
        info = L.irreducibles
        for j in info.ji:
            jstar = info.lower_star[j]
            K = [u for u in range(L.n) if L.leq[jstar, u] and not L.leq[j, u]]
            greatest = [u for u in K if all(L.leq[v, u] for v in K)]
            expect = greatest[0] if len(greatest) == 1 else None
            assert kappa(L, j) == expect, (name, j)
            partial += expect is None
    assert partial >= 100


def test_kappa_bijection_check_matches_loop_reference(small_corpus, moore_families):
    bijective = 0
    for name, L in {**small_corpus, **moore_families}.items():
        expect = loop_kappa_bijection_check(L)
        assert kappa_bijection_check(L) == expect, name
        bijective += expect
    assert 100 <= bijective <= len(small_corpus) + len(moore_families) - 100


def test_kappa_bijection_examples(named_lattices):
    assert kappa_bijection_check(named_lattices["b2"])
    assert not kappa_bijection_check(named_lattices["m3"])
    assert kappa_bijection_check(named_lattices["n5"])


def test_kappa_total_iff_sd_meet(small_corpus):
    for name, L in small_corpus.items():
        total = all(kappa(L, j) is not None for j in L.irreducibles.ji)
        assert total == is_sd_meet(L), name
        total_sigma = all(kappa_sigma(L, m) is not None for m in L.irreducibles.mi)
        assert total_sigma == is_sd_join(L), name


def test_kappa_laws_on_sd_lattices(small_corpus):
    """On SD lattices kappa and kappa_sigma invert each other and
    j∨κ(j) = κ(j)^* , j∧κ(j) = j_*."""
    for name, L in small_corpus.items():
        if not is_sd(L):
            continue
        info = L.irreducibles
        assert kappa_bijection_check(L), name
        for j in info.ji:
            m = kappa(L, j)
            assert kappa_sigma(L, m) == j, (name, j)
            assert L.join[j, m] == info.upper_star[m], (name, j)
            assert L.meet[j, m] == info.lower_star[j], (name, j)


def test_ji_mi_count_characterizes_sd(small_corpus):
    """Among lattices with at least one of the SD laws: |Ji| = |Mi| iff SD."""
    seen_one_sided = 0
    for name, L in small_corpus.items():
        sdj, sdm = is_sd_join(L), is_sd_meet(L)
        if not (sdj or sdm):
            continue
        seen_one_sided += 1
        info = L.irreducibles
        assert (len(info.ji) == len(info.mi)) == (sdj and sdm), name
    assert seen_one_sided >= 3


def test_boolean_cube_kappa_is_complementation():
    B3 = boolean(3)
    for j in B3.irreducibles.ji:
        m = kappa(B3, j)
        assert B3.meet[j, m] == B3.bottom and B3.join[j, m] == B3.top


def test_kappa_sigma_examples(named_lattices):
    B2 = named_lattices["b2"]
    assert kappa_sigma(B2, 1) == 2 and kappa_sigma(B2, 2) == 1
    N5 = named_lattices["n5"]
    # kappa and kappa_sigma invert each other across the pentagon
    for j in N5.irreducibles.ji:
        assert kappa_sigma(N5, kappa(N5, j)) == j


def test_kappa_sigma_requires_meet_irreducible(named_lattices):
    with pytest.raises(ValueError):
        kappa_sigma(named_lattices["b2"], 0)
