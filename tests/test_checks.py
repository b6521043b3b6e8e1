"""Hypothesis/theorem checkers, baselines, and witness replay."""
from __future__ import annotations

import pytest

from helpers import subset_loop_sublattice_complements, unpruned_lemma54_instances
from latmax.checks import (
    EXHAUSTIVE_SUBLATTICE_LIMIT,
    _lemma54_instances,
    bounded_interval_baseline,
    check_distributive_baseline,
    check_hyp1_sd_interval,
    check_hyp2_sd_join,
    check_hyp3_convex,
    check_hyp4_cover,
    check_lemma_42,
    check_lemma_54,
    check_q2_irreducibles,
    check_thm_44_gist,
    check_thm_45_greatest,
    check_thm_51_55,
    reverify_witness,
    sublattice_complements,
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
)
from latmax.geometry import build_cg
from latmax.lattice import from_cover_text, is_sd
from latmax.report import CheckReport
from latmax.sublattice import DEFAULT_ORACLE_BOUND, maximal_complements_oracle

# A 14-element bounded lattice (three doublings from a distributive base)
# whose complement {1, 10, 11} is an interval with two internal
# join-irreducibles: the doubling phenomenon that separates bounded from
# distributive behaviour.
MULTI_JI_BOUNDED = """14
0 1\n0 2\n1 3\n2 3\n4 0\n4 5\n4 10\n5 2\n5 12\n6 7\n6 8\n7 4\n7 9\n8 9\n9 5\n10 11\n10 12\n11 1\n11 13\n12 13\n13 3
"""


# Convex geometries on three and four chains (m = 6) that refute hyp2 and
# hyp4, which hold on every two-chain geometry.  Per geometry: the chains,
# then hyp2's (instances, minima, complement) and hyp4's (instances,
# element).  The instance counts also pin the order of the checkers' sweeps.
K_CHAIN_COUNTEREXAMPLES = [
    (
        [(1, 2, 3, 4, 5, 6), (2, 4, 6, 5, 3, 1), (6, 3, 5, 4, 2, 1)],
        (2, [2, 3, 4], [2, 3, 4, 7, 8, 9, 10, 12, 14, 16, 17, 19, 23]),
        (6, 8),
    ),
    (
        [(1, 2, 3, 4, 5, 6), (6, 4, 3, 5, 2, 1), (4, 5, 6, 3, 2, 1), (1, 3, 2, 5, 4, 6)],
        (5, [3, 4], [3, 4, 8, 9, 10, 13, 14, 15, 18, 20]),
        (17, 10),
    ),
]


@pytest.mark.parametrize(
    "chains, hyp2, hyp4", K_CHAIN_COUNTEREXAMPLES, ids=["3-chain", "4-chain"]
)
def test_k_chain_geometries_refute_hyp2_and_hyp4(chains, hyp2, hyp4):
    G = build_cg(6, chains)

    rep = check_hyp2_sd_join([G], label="k-chain")
    assert rep.status == "CounterexampleFound"
    assert (rep.instances_checked, rep.witness["minima"], rep.witness["complement"]) == hyp2
    assert reverify_witness(rep) is True

    rep = check_hyp4_cover([G], label="k-chain")
    assert rep.status == "CounterexampleFound"
    assert (rep.instances_checked, rep.witness["element"]) == hyp4
    assert rep.witness["complement"] == hyp2[2]
    assert reverify_witness(rep) is True


def test_hypothesis_checkers_hold_on_small_cdim2(cdim2_through_m6):
    sub = cdim2_through_m6[:200]
    for fn in (check_hyp2_sd_join, check_hyp3_convex, check_hyp4_cover, check_q2_irreducibles):
        rep = fn(sub, label="cdim2-small")
        assert rep.holds, rep.to_json()
        assert rep.instances_checked > 0


def test_thm_checkers_hold_on_small_cdim2(cdim2_through_m6):
    sub = cdim2_through_m6[:200]
    for fn in (check_thm_44_gist, check_thm_45_greatest):
        rep = fn(sub, label="cdim2-small")
        assert rep.holds


def test_sd_checkers_hold_on_mixed_corpus():
    corpus = [n5(), m3(), boolean(2), chain(3)] + doubled_sequences(depth=2, seed=2, count=20)
    for fn in (check_hyp1_sd_interval, check_thm_51_55, check_lemma_42, check_lemma_54):
        rep = fn(corpus, label="sd-mixed")
        assert rep.holds, rep.to_json()


def test_non_sd_lattices_are_skipped_not_failed():
    rep = check_hyp1_sd_interval([m3()], label="m3-only")
    assert rep.holds and rep.instances_checked == 0


def test_distributive_baseline_chen_rival():
    corpus = [boolean(k) for k in range(1, 5)] + [
        chain_products(d) for d in [(2, 2), (3, 3), (4, 4), (2, 2, 2), (4, 4, 3)]
    ]
    rep = check_distributive_baseline(corpus, label="distributive")
    assert rep.holds and rep.instances_checked > 20


def test_bounded_baseline_reports_ji_multiplicity():
    L = from_cover_text(MULTI_JI_BOUNDED)
    assert is_sd(L)
    rep, hist = bounded_interval_baseline([L], label="bounded-one")
    assert rep.holds
    assert hist.get(2, 0) >= 1  # the doubling phenomenon: two internal JIs
    # the complement in question is still an interval, so hyp1 is untouched
    assert check_hyp1_sd_interval([L]).holds


def test_bounded_baseline_on_doubled_corpus():
    corpus = [L for L in doubled_sequences(depth=2, seed=6, count=25) if L.n <= 16]
    rep, hist = bounded_interval_baseline(corpus, label="doubled")
    assert rep.holds
    assert sum(hist.values()) == rep.instances_checked


def test_sublattice_complements_exhaustive_small():
    L = chain(2)
    got = set(sublattice_complements(L))
    # proper sublattices of the 3-chain: every nonempty proper subset that is
    # closed; complements thereof
    assert frozenset({1}) in got and frozenset({0, 1}) in got
    assert frozenset() not in got


def test_sublattice_complements_equal_the_subset_loop(named_lattices):
    lattices = list(named_lattices.values())
    lattices += [g.lattice for m in range(1, 5) for g in all_cdim2_geometries(m, verify=False)]
    for seed in (0, 7):
        lattices += doubled_sequences(depth=3, seed=seed, count=120)
    small = [L for L in lattices if L.n <= EXHAUSTIVE_SUBLATTICE_LIMIT]
    assert len(small) > 150
    for L in small:
        # same complements in the same order
        assert sublattice_complements(L) == subset_loop_sublattice_complements(L)


@pytest.mark.parametrize("seed", [0, 7])
def test_lemma54_instances_equal_the_unpruned_loop(seed):
    # the CLI's SD corpus for `check lemma54 --seed <seed>`
    doubles = doubled_sequences(depth=3, seed=seed, count=120)
    corpus = [n5()] + [L for L in doubles if L.n <= DEFAULT_ORACLE_BOUND]
    got = list(_lemma54_instances(corpus, seed=0))
    assert len(got) > 1000
    assert got == list(unpruned_lemma54_instances(corpus, seed=0))


def test_star_import_brings_the_baselines():
    namespace = {}
    exec("from latmax.checks import *", namespace)
    assert {"check_distributive_baseline", "bounded_interval_baseline"} <= set(namespace)


def test_report_json_round_trip():
    rep = check_hyp3_convex(all_cdim2_geometries(3, verify=False), label="m3")
    back = CheckReport.from_json(rep.to_json())
    assert back == rep


def test_reverify_on_synthetic_counterexamples():
    # Force a violation by lying to the checker machinery: build a witness by
    # hand for hyp3 and confirm the replay rejects an honest complement.
    from latmax.checks import _witness

    L = chain(4)
    fake = CheckReport(
        "hyp3-convex", "synthetic", 1, "CounterexampleFound",
        _witness(L, "hyp3", C={1, 3}),
    )
    assert reverify_witness(fake)  # {1,3} is indeed non-convex in the chain
    honest = CheckReport(
        "hyp3-convex", "synthetic", 1, "CounterexampleFound",
        _witness(L, "hyp3", C={1, 2}),
    )
    assert not reverify_witness(honest)


def test_reverify_ignores_holds():
    rep = check_hyp3_convex([boolean(2)], label="b2")
    assert rep.holds and not reverify_witness(rep)


def test_all_cdim2_count_is_m_factorial():
    assert len(all_cdim2_geometries(3, verify=False)) == 6
    assert len(all_cdim2_geometries(4, verify=False)) == 24


def test_glued_inherits_complements_from_parts():
    G = glued([boolean(2), boolean(2)])
    got = maximal_complements_oracle(G, bound=8)
    assert len(got) == 4  # two atoms per diamond block


def test_reverify_lemma_suite_witness_path():
    # A lemma 6.4/6.5 witness names its geometry by m and chains, and the
    # replay rebuilds that geometry; the lemma holds on it, so no honest
    # witness reproduces, while one whose complement leaves all of the
    # lattice as a sublattice refutes 6.4(3).
    from latmax.checks import _lemma64_instances, _witness

    G = build_cg(3, [(1, 2, 3), (3, 2, 1)], verify=False)
    instances = list(_lemma64_instances([G]))
    assert instances
    for host, tag, C, w in instances:
        witness = _witness(host, tag, C, **w)
        assert witness["m"] == 3 and witness["chains"] == [[1, 2, 3], [3, 2, 1]]
        assert "lattice" not in witness
        fake = CheckReport("lemma-6.4-6.5", "synthetic", 1, "CounterexampleFound", witness)
        assert not reverify_witness(fake)
    fake = CheckReport(
        "lemma-6.4-6.5",
        "synthetic",
        1,
        "CounterexampleFound",
        {"claim": "6.4(3)", "m": 3, "chains": [[1, 2, 3], [3, 2, 1]], "complement": [], "j": 2},
    )
    assert reverify_witness(fake)
