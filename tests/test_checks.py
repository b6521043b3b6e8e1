"""Hypothesis/theorem checkers, baselines, and witness replay."""
from __future__ import annotations

import random

import pytest

from helpers import (
    per_instance_lemma54_instances,
    per_instance_lemma_42,
    per_instance_lemma_54,
    subset_loop_sublattice_complements,
    unpruned_lemma54_instances,
)
from latmax import checks
from latmax.checks import (
    EXHAUSTIVE_SUBLATTICE_LIMIT,
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
    sd_corpus,
)
from latmax.geometry import build_cg
from latmax.lattice import InvariantViolation, _joinand_intervals, bits, from_cover_text, is_sd, mask_of
from latmax.checks import CheckReport
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


def _mixed_sd_corpus():
    return [n5(), m3(), boolean(2), chain(3)] + doubled_sequences(depth=2, seed=2, count=20)


def test_sd_checkers_hold_on_mixed_corpus():
    corpus = _mixed_sd_corpus()
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
    # closed; complements thereof, as masks
    assert mask_of({1}) in got and mask_of({0, 1}) in got
    assert mask_of(set()) not in got


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
    got = list(per_instance_lemma54_instances(corpus))
    assert len(got) > 1000
    assert got == list(unpruned_lemma54_instances(corpus))


# The lemma 4.2 and 5.4 screens, each against the per-instance sweep it
# replaced: the whole report, status, count and witness, must agree.
SCREENS = ((check_lemma_42, per_instance_lemma_42), (check_lemma_54, per_instance_lemma_54))
SCREEN_CORPORA = {
    "sd-seed0": lambda: sd_corpus(seed=0, count=120)[0],
    "sd-seed7": lambda: sd_corpus(seed=7, count=120)[0],
    "sd-mixed": _mixed_sd_corpus,
}


@pytest.mark.parametrize("corpus", sorted(SCREEN_CORPORA))
def test_screens_equal_the_per_instance_sweeps(corpus):
    lattices = SCREEN_CORPORA[corpus]()
    for screen, reference in SCREENS:
        rep = screen(lattices, label=corpus)
        assert rep.holds and rep.instances_checked > 0
        assert rep == reference(lattices, label=corpus)


def _plant_masks(monkeypatch, rng):
    """Make checks.sublattice_complements mix random nonempty masks, which
    need not complement a sublattice, into about one lattice in seven; a
    lattice keeps its list for the rest of the test."""
    exact, planted = checks.sublattice_complements, {}

    def mixed(L):
        if id(L) not in planted:
            masks = exact(L)
            if rng.random() < 0.15:
                for _ in range(rng.randint(1, 2)):
                    masks.insert(rng.randint(0, len(masks)), rng.randrange(1, L.full_mask() + 1))
            planted[id(L)] = (L, masks)  # holding L keeps its id from being reused
        return list(planted[id(L)][1])

    monkeypatch.setattr(checks, "sublattice_complements", mixed)


def _plant_meetand(L, x, u1):
    """Add u1 > x as a false canonical meetand of x to the joinand table of
    L.dual, which the screens and the per-instance sweeps both read.

    Lemma 5.4 holds for every set C once u1 is a true canonical meetand, so
    only a false one lets its sweeps fail.  An extra meetand can only keep a
    lemma 4.2 instance from failing, so a lemma 4.2 witness stays genuine.
    """
    table = list(_joinand_intervals(L.dual))
    if all(u != u1 for u, _ in table[x]):
        table[x] = tuple(sorted([*table[x], (u1, L.interval_mask(x, u1))]))
    L.dual._joinand_intervals = tuple(table)


# Planted runs, and the smallest number of them in which each lemma must
# find a counterexample.
PLANTED_RUNS, PLANTED_FAILURES = 80, 20


def test_screens_equal_the_per_instance_sweeps_on_planted_failures(monkeypatch):
    # The planted masks and meetands make both lemmas fail, so the
    # counterexample path and its count are compared as well.
    rng = random.Random(24)
    pool = sd_corpus(seed=3, count=60)[0] + _mixed_sd_corpus()
    for L in pool:
        if is_sd(L) and rng.random() < 0.5:
            x = rng.choice([x for x in range(L.n) if x != L.top])
            _plant_meetand(L, x, rng.choice(list(bits(L.up_masks[x] & ~(1 << x)))))
    _plant_masks(monkeypatch, rng)
    found = [0, 0]
    for _ in range(PLANTED_RUNS):
        lattices = rng.sample(pool, 6)
        for i, (screen, reference) in enumerate(SCREENS):
            rep = screen(lattices, label="planted")
            assert rep == reference(lattices, label="planted")
            if not rep.holds:
                found[i] += 1
                assert reverify_witness(rep) is True
    assert min(found) >= PLANTED_FAILURES, found


def _chain_with_a_false_meetand():
    # 2 as a meetand of 0 in chain(4) makes (x, u1, u2, t) = (0, 2, 3, 1) an
    # instance, and [0, 3] lies inside all of chain(4).
    L = chain(4)
    _plant_meetand(L, 0, 2)
    return L


# (screen, tag, lattice, a mask on which the lemma fails, the witness's
# entries past the complement); the top of B2 has no strict canonical
# joinand in {3}.
PLANTED_FAILURE = [
    (check_lemma_42, "lemma4.2", boolean(2), 0b1000, {"element": 3}),
    (check_lemma_54, "lemma5.4", _chain_with_a_false_meetand(), 0b11111, {"x": 0, "u1": 2, "u2": 3, "t": 1}),
]


@pytest.mark.parametrize("screen, tag, L, cmask, extra", PLANTED_FAILURE, ids=["lemma42", "lemma54"])
def test_a_screen_refuses_a_failure_its_replay_denies(monkeypatch, screen, tag, L, cmask, extra):
    monkeypatch.setattr(checks, "sublattice_complements", lambda K: [cmask])
    rep = screen([L])
    assert (rep.status, rep.instances_checked) == ("CounterexampleFound", 1)
    assert rep.witness == checks._witness(L, tag, cmask, **extra)
    assert reverify_witness(rep)
    monkeypatch.setattr(checks, "REPLAY", {**checks.REPLAY, tag: lambda L, cmask, w: False})
    with pytest.raises(InvariantViolation, match="does not confirm"):
        screen([L])


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
        _witness(L, "hyp3", mask_of({1, 3})),
    )
    assert reverify_witness(fake)  # {1,3} is indeed non-convex in the chain
    honest = CheckReport(
        "hyp3-convex", "synthetic", 1, "CounterexampleFound",
        _witness(L, "hyp3", mask_of({1, 2})),
    )
    assert not reverify_witness(honest)


@pytest.mark.parametrize(
    "host", [{}, {"chains": [[1, 2, 3], [3, 2, 1]]}], ids=["no-host", "chains-without-m"]
)
def test_reverify_refuses_a_witness_that_names_no_host(host):
    witness = {"claim": "hyp3", "complement": [1], **host}
    fake = CheckReport("hyp3-convex", "synthetic", 1, "CounterexampleFound", witness)
    with pytest.raises(ValueError, match="^a witness needs 'lattice', or 'm' and 'chains'$"):
        reverify_witness(fake)


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
    for host, tag, cmask, w in instances:
        witness = _witness(host, tag, cmask, **w)
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
