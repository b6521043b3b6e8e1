"""Witness replay: every tag in REPLAY reproduces a real violation and
rejects an honest witness, and every tag a checker can emit has an entry."""
from __future__ import annotations

import random

import pytest

from helpers import FROZENSET_REPLAY
from latmax import checks
from latmax.checks import REPLAY, _witness, reverify_witness
from latmax.corpus import all_cdim2_geometries, boolean, cdim2_corpus, chain, doubled_sequences, n5, sd_corpus
from latmax.geometry import ConvexGeometry
from latmax.lattice import bits, mask_of
from latmax.checks import CheckReport
from latmax.sublattice import maximal_complements_oracle

# On chain(4) (0 < 1 < 2 < 3 < 4), C = {1, 3} is neither convex nor an
# interval, while C = {2} is an honest complement for every claim below.
# Complements are given as masks.
CHAIN_TAGS = (
    "hyp1", "hyp2", "hyp2-dual", "hyp3", "q2", "thm4.4",
    "thm4.5", "thm4.5-dual", "thm5.1/5.5", "distributive-baseline",
    "bounded-baseline",
)

# tag -> (violating witness, honest witness)
CASES = {
    **{tag: ((chain(4), mask_of({1, 3}), {}), (chain(4), mask_of({2}), {})) for tag in CHAIN_TAGS},
    "hyp4": ((chain(4), mask_of({1, 3}), {"element": 3}), (chain(4), mask_of({2}), {"element": 2})),
    "lemma4.2": ((boolean(2), mask_of({3}), {"element": 3}), (chain(4), mask_of({2}), {"element": 2})),
    "lemma4.2-dual": ((boolean(2), mask_of({0}), {"element": 0}), (chain(4), mask_of({2}), {"element": 2})),
    "lemma5.4": (
        (chain(4), mask_of(range(5)), {"x": 0, "u2": 4}),
        (chain(4), mask_of({2}), {"x": 1, "u2": 3}),
    ),
}



def _lemma64_cases():
    """tag -> (violating, honest) for the lemma 6.4/6.5 tags.

    The first instance of each tag on the m = 4 geometries is honest.  With
    C = {top} instead, the rest is no sublattice (the two coatoms join to
    the top), which violates 6.4(1a), 6.4(1b) and 6.4(2); with a maximal
    complement instead, the rest is a maximal sublattice, which violates
    6.4(3) and 6.4(3').
    """
    first = {}
    for G, tag, cmask, w in checks._lemma64_instances(all_cdim2_geometries(4, verify=False)):
        first.setdefault(tag, (G, cmask, w))
    cases = {}
    for tag, (G, cmask, w) in first.items():
        L = G.lattice
        bad = mask_of(maximal_complements_oracle(L)[0] if tag.startswith("6.4(3") else {L.top})
        cases[tag] = ((G, bad, w), (G, cmask, w))
    return cases


LEMMA64_TAGS = ("6.4(1a)", "6.4(1b)", "6.4(2)", "6.4(3)", "6.4(3')")
CASES.update(_lemma64_cases())


def _report(tag, host, cmask, extra):
    return CheckReport(tag, "synthetic", 1, "CounterexampleFound", _witness(host, tag, cmask, **extra))


def _observation_witnesses():
    # On chain(4), M = {0, 2, 4} leaves C = {1, 3}, which breaks an
    # observation; M = {0, 1, 3, 4} is a maximal sublattice, so the same
    # claim is honest there.
    from latmax.checks import observation_suite

    bad = observation_suite(chain(4), {0, 2, 4})
    assert bad.status == "CounterexampleFound"
    honest = dict(bad.witness, sublattice=[0, 1, 3, 4], complement=[2])
    return bad, CheckReport("observation-suite", "synthetic", 1, "CounterexampleFound", honest)


@pytest.mark.parametrize("tag", sorted(REPLAY))
def test_replay_reproduces_violations_and_rejects_honest_witnesses(tag):
    if tag == "observation-suite":
        bad, honest = _observation_witnesses()
    else:
        bad, honest = (_report(tag, *case) for case in CASES[tag])
    assert reverify_witness(bad) is True
    assert reverify_witness(honest) is False


def test_lemma64_replay_checks_where_the_closure_lies():
    # Each honest instance turns violating when (j) moves off the chain the
    # clause puts it on: (1) lies on chain 1, and a 6.4(1b) closure lies on
    # exactly one chain.
    (_, honest_1a), (_, honest_1b) = CASES["6.4(1a)"], CASES["6.4(1b)"]
    G, cmask, w = honest_1a
    assert reverify_witness(_report("6.4(1a)", G, cmask, dict(w, j=1)))
    G, cmask, w = honest_1b
    assert reverify_witness(_report("6.4(1b)", G, cmask, dict(w, x_chain=3 - w["x_chain"])))


def test_unknown_tag_raises():
    with pytest.raises(ValueError):
        reverify_witness(_report("no-such-claim", chain(4), mask_of({2}), {}))


class _RecordingTable(dict):
    """REPLAY as a dict that records every tag looked up in it."""

    def __init__(self, table):
        super().__init__(table)
        self.looked_up = set()

    def __getitem__(self, tag):
        self.looked_up.add(tag)
        return super().__getitem__(tag)


def test_every_emitted_tag_has_a_replay_entry(monkeypatch):
    """Every tag a sweep tests has a REPLAY entry, and every entry but the
    observation suite's (its witnesses come from checks.observation_suite)
    is reached by some checker."""
    table = _RecordingTable(checks.REPLAY)
    monkeypatch.setattr(checks, "REPLAY", table)
    geometries = all_cdim2_geometries(3, verify=False)
    lattices = [n5(), boolean(2), chain(3)] + doubled_sequences(depth=2, seed=2, count=8)
    for fn in (
        checks.check_hyp2_sd_join,
        checks.check_hyp3_convex,
        checks.check_hyp4_cover,
        checks.check_q2_irreducibles,
        checks.check_thm_44_gist,
        checks.check_thm_45_greatest,
    ):
        assert fn(geometries).holds
    for fn in (
        checks.check_hyp1_sd_interval,
        checks.check_thm_51_55,
        checks.check_lemma_42,
        checks.check_lemma_54,
        checks.check_distributive_baseline,
    ):
        assert fn(lattices).holds
    assert checks.bounded_interval_baseline(lattices)[0].holds
    assert checks.check_lemma_64_65(all_cdim2_geometries(4, verify=False)).holds
    assert set(LEMMA64_TAGS) <= table.looked_up
    assert table.looked_up <= set(REPLAY), sorted(table.looked_up - set(REPLAY))
    assert set(REPLAY) - table.looked_up == {"observation-suite"}


# Random nonempty subsets tested per lattice, beside the oracle's complements
# and their one-element flips.
RANDOM_SUBSETS = 8
REFERENCE_CORPORA = {
    "cdim2-m<=5": lambda: cdim2_corpus(max_m=5)[0],
    "sd-seed0": lambda: sd_corpus(seed=0, count=120)[0],
    "sd-seed7": lambda: sd_corpus(seed=7, count=120)[0],
}


def _outcome(fails, host, C, w):
    """The verdict of fails, or the type and message of the error it raises."""
    try:
        return bool(fails(host, C, w))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc).__name__, str(exc)


def _reference_instances(L, rng):
    """(mask, whether it is an oracle complement): every complement of the
    oracle, each of its nonempty one-element flips, and random nonempty
    subsets of L."""
    for C in maximal_complements_oracle(L):
        cmask = mask_of(C)
        yield cmask, True
        for a in range(L.n):
            if cmask ^ 1 << a:
                yield cmask ^ 1 << a, False
    for _ in range(RANDOM_SUBSETS):
        yield rng.randrange(1, L.full_mask() + 1), False


@pytest.mark.parametrize("corpus", sorted(REFERENCE_CORPORA))
def test_mask_predicates_agree_with_the_frozenset_reference(corpus):
    """Every REPLAY predicate, on the mask of C, gives the verdict (or
    raises the error) of the frozenset predicate it replaced."""
    assert set(FROZENSET_REPLAY) == set(REPLAY)
    rng = random.Random(corpus)
    tested = set()
    for host in REFERENCE_CORPORA[corpus]():
        G = host if isinstance(host, ConvexGeometry) else None
        L = host.lattice if G else host
        for cmask, honest in _reference_instances(L, rng):
            C = frozenset(bits(cmask))
            w = {
                # mostly an element of C, whose absence lemma 4.2 reports
                "element": rng.choice(sorted(C)) if rng.random() < 0.8 else rng.randrange(L.n),
                "x": rng.randrange(L.n),
                "u2": rng.randrange(L.n),
                "sublattice": list(bits(L.full_mask() & ~cmask)),
                "observation": "3.5-disconnected",
            }
            if G:
                w.update(j=rng.randint(1, G.m), x_chain=rng.choice((1, 2)))
            for tag, fails in REPLAY.items():
                on_geometry = tag.startswith("6.4")
                if (on_geometry and not G) or (tag == "observation-suite" and not honest):
                    continue
                target = G if on_geometry else L
                got = _outcome(fails, target, cmask, w)
                assert got == _outcome(FROZENSET_REPLAY[tag], target, C, w), (tag, sorted(C), w)
                tested.add(tag)
    lattice_tags = {tag for tag in REPLAY if not tag.startswith("6.4")}
    assert tested == (set(REPLAY) if corpus.startswith("cdim2") else lattice_tags)
