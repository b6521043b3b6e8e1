"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""
from __future__ import annotations

import random
import time
from itertools import permutations

import pytest

from latmax import cli
from latmax.cdim2 import fast_complements, materialize, verify_complements
from latmax.checks import (
    check_distributive_baseline,
    check_hyp2_sd_join,
    check_hyp3_convex,
    check_hyp4_cover,
    check_lemma_42,
    check_lemma_54,
    check_q2_irreducibles,
    check_thm_44_gist,
    check_thm_45_greatest,
    check_thm_51_55,
    observation_suite,
)
from latmax.corpus import (
    all_cdim2_geometries,
    boolean,
    chain,
    chain_products,
    doubled_sequences,
    glued,
    m3,
    n5,
    random_permutation,
)
from latmax.geometry import build_cg
from latmax.lattice import is_sd, is_sd_join, is_sd_meet, kappa, kappa_bijection_check, kappa_sigma

PAPER_PERM = (3, 6, 7, 10, 1, 8, 9, 5, 2, 4)


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sweep_corpus():
    """Every two-chain geometry for m <= 7, keyed by (m, perm)."""
    out = []
    for m in range(1, 8):
        identity = tuple(range(1, m + 1))
        for perm in permutations(identity):
            out.append((m, perm, build_cg(m, [identity, perm], verify=False)))
    return out


@pytest.fixture(scope="module")
def sweep_verifications(sweep_corpus):
    """(verify_complements of every sweep geometry, seconds taken)."""
    t0 = time.perf_counter()
    verifications = [verify_complements(G, fast_complements(m, perm)[0]) for m, perm, G in sweep_corpus]
    return verifications, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sd_corpus():
    doubles = doubled_sequences(depth=3, seed=1202, count=220)
    assert len(doubles) >= 200
    return [n5()] + doubles


def test_criterion_1_golden_example(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["cg-complements", "--perm", "3 6 7 10 1 8 9 5 2 4"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        expected_first = [
            "{(2)}",
            "{(4)}",
            "[(5),C1(5)]",
            "[(5),C2(5)]",
            "[(6),C1(6)]",
            "[(8),C1(8)] u [(8),C2(8)]",
            "[(9),C1(9)]",
            "[(9),C2(9)]",
            "{(10)}",
        ]
        lines = out.splitlines()
        labels_ok = [ln.split("\t")[0] for ln in lines] == expected_first
        # byte-exact element sets: compare the materialized complements with
        # the paper's nine, via the lattice view
        G = build_cg(10, [tuple(range(1, 11)), PAPER_PERM])
        comps, _ = fast_complements(10, PAPER_PERM)
        got = [
            frozenset(frozenset(G.element_set(e)) for e in materialize(G, c))
            for c in comps
        ]
        iv = lambda lo, hi: frozenset(
            frozenset(s)
            for s in G.family
            if set(lo) <= set(s) <= set(hi)
        )
        expected_sets = [
            iv({1, 2}, {1, 2}),
            iv({1, 2, 3, 4}, {1, 2, 3, 4}),
            iv({1, 3, 5}, {1, 2, 3, 4, 5}),
            iv({1, 3, 5}, {1, 3, 5, 6, 7, 8, 9, 10}),
            iv({3, 6}, {1, 2, 3, 4, 5, 6}),
            iv({1, 3, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8})
            | iv({1, 3, 6, 7, 8}, {1, 3, 6, 7, 8, 10}),
            iv({1, 3, 6, 7, 8, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
            iv({1, 3, 6, 7, 8, 9}, {1, 3, 6, 7, 8, 9, 10}),
            iv({3, 6, 7, 10}, {3, 6, 7, 10}),
        ]
        _line(
            1,
            "golden-example",
            rc == 0 and labels_ok and got == expected_sets and elapsed < 1.0,
            f"nine complements, {elapsed*1000:.0f}ms",
        )


def test_criterion_2_oracle_equivalence(sweep_verifications, capsys):
    verifications, elapsed = sweep_verifications
    mismatches = sum(not v.sets_agree for v in verifications)
    with capsys.disabled():
        _line(
            2,
            "oracle-equivalence-sweep",
            mismatches == 0,
            f"{len(verifications)} permutations (m<=7), {mismatches} mismatches, {elapsed:.1f}s",
        )


def test_criterion_3_classification_totality(sweep_verifications, capsys):
    verifications, _ = sweep_verifications
    total = sum(v.listed for v in verifications)
    bad = sum(len(v.misclassified) for v in verifications)
    with capsys.disabled():
        _line(3, "classification-totality", bad == 0, f"{total} complements, {bad} misfits")


def test_criterion_4_linearity(capsys):
    rng = random.Random(20250809)
    ratios = []
    wall_at_largest = None
    for m in (10, 100, 1000, 10_000, 100_000):
        perm = random_permutation(m, rng)
        t0 = time.perf_counter()
        _, ops = fast_complements(m, perm)
        dt = time.perf_counter() - t0
        ratios.append(ops.comparisons / m)
        if m == 100_000:
            wall_at_largest = dt
    ok = all(r <= 12 for r in ratios) and wall_at_largest < 1.0
    with capsys.disabled():
        _line(
            4,
            "operation-count-linearity",
            ok,
            f"comparisons/m max {max(ratios):.2f} <= 12, wall(1e5)={wall_at_largest*1000:.0f}ms < 1s",
        )


def test_criterion_5_cdim2_hypothesis_suite(sweep_corpus, capsys):
    geoms = [G for _, _, G in sweep_corpus]
    reports = [
        check_hyp2_sd_join(geoms, label="all cdim2 m<=7"),
        check_hyp3_convex(geoms, label="all cdim2 m<=7"),
        check_hyp4_cover(geoms, label="all cdim2 m<=7"),
        check_q2_irreducibles(geoms, label="all cdim2 m<=7"),
    ]
    with capsys.disabled():
        detail = ", ".join(f"{r.claim}:{r.status}({r.instances_checked})" for r in reports)
        _line(5, "cdim2-hypothesis-suite", all(r.holds for r in reports), detail)


def test_criterion_6_theorem_suite(sweep_corpus, sd_corpus, capsys):
    geoms = [G for _, _, G in sweep_corpus]
    reports = [
        check_thm_44_gist(geoms, label="cdim2 m<=7 (SD-join)"),
        check_thm_45_greatest(geoms, label="cdim2 m<=7 (SD-join)"),
        check_thm_51_55(sd_corpus, label="SD corpus"),
        check_lemma_54(sd_corpus, label="SD corpus"),
        check_lemma_42(sd_corpus, label="SD corpus"),
    ]
    with capsys.disabled():
        detail = ", ".join(f"{r.claim}:{r.status}({r.instances_checked})" for r in reports)
        _line(6, "section-4-5-theorem-suite", all(r.holds for r in reports), detail)


def test_criterion_7_distributive_baseline(capsys):
    corpus = [boolean(k) for k in range(1, 5)]
    corpus += [
        chain_products(d)
        for d in [(2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 2, 2), (3, 3, 2), (4, 4, 3)]
    ]
    from latmax.lattice import is_distributive

    all_distributive = all(is_distributive(L) for L in corpus)
    rep = check_distributive_baseline(corpus, label="chain products + booleans")
    with capsys.disabled():
        _line(
            7,
            "distributive-baseline",
            rep.holds and all_distributive,
            f"{rep.instances_checked} complements, unique internal JI/MI everywhere",
        )


def test_criterion_8_structural_invariants(capsys):
    from test_geometry import lemma_63_assertions

    failures = 0
    checked_geoms = 0
    for m in range(1, 7):
        for G in all_cdim2_geometries(m):  # verified builds
            checked_geoms += 1
            lemma_63_assertions(G)
            comps, _ = fast_complements(G.m, G.chains[1].perm)
            everything = frozenset(range(G.lattice.n))
            for c in comps:
                rep = observation_suite(G.lattice, everything - materialize(G, c))
                if not rep.holds:
                    failures += 1
    rng = random.Random(88)
    for _ in range(1000):
        m = rng.randint(2, 12)
        G = build_cg(m, [tuple(range(1, m + 1)), random_permutation(m, rng)])
        checked_geoms += 1
        lemma_63_assertions(G)
        comps, _ = fast_complements(G.m, G.chains[1].perm)
        everything = frozenset(range(G.lattice.n))
        for c in comps:
            rep = observation_suite(G.lattice, everything - materialize(G, c))
            if not rep.holds:
                failures += 1
    with capsys.disabled():
        _line(
            8,
            "structural-invariants",
            failures == 0,
            f"{checked_geoms} geometries (m<=6 exhaustive + 1000 random m<=12), 0 violations"
            if failures == 0
            else f"{failures} violations",
        )


def test_criterion_9_kappa_machinery(sd_corpus, capsys):
    corpus = [
        chain(2),
        chain(4),
        boolean(2),
        boolean(3),
        m3(),
        n5(),
        chain_products([3, 3]),
        chain_products([2, 2, 2]),
        glued([boolean(2), n5()]),
    ]
    corpus += [L for L in sd_corpus if L.n <= 12]
    corpus += [G.lattice for G in all_cdim2_geometries(4, verify=False)]
    violations = 0
    checked = 0
    for L in corpus:
        if L.n > 12:
            continue
        sdj, sdm = is_sd_join(L), is_sd_meet(L)
        if sdj or sdm:
            checked += 1
            if kappa_bijection_check(L) != (sdj and sdm):
                violations += 1
        if sdj and sdm:
            info = L.irreducibles
            for j in info.ji:
                mm = kappa(L, j)
                if (
                    mm is None
                    or kappa_sigma(L, mm) != j
                    or L.join[j, mm] != info.upper_star[mm]
                    or L.meet[j, mm] != info.lower_star[j]
                ):
                    violations += 1
    with capsys.disabled():
        _line(
            9,
            "kappa-machinery",
            violations == 0,
            f"{checked} one-sided-SD lattices, kappa laws clean",
        )
