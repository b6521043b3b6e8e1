"""Witness replay: every tag in REPLAY reproduces a real violation and
rejects an honest witness, and every tag a checker can emit has an entry."""
from __future__ import annotations

import pytest

from latmax import checks
from latmax.checks import REPLAY, _witness, reverify_witness
from latmax.corpus import all_cdim2_geometries, boolean, chain, doubled_sequences, n5
from latmax.report import CheckReport

# On chain(4) (0 < 1 < 2 < 3 < 4), C = {1, 3} is neither convex nor an
# interval, while C = {2} is an honest complement for every claim below.
CHAIN_TAGS = (
    "hyp1", "hyp2", "hyp2-dual", "hyp3", "hyp4-convexity", "q2", "thm4.4",
    "thm4.5", "thm4.5-dual", "thm5.1/5.5", "distributive-baseline",
    "bounded-baseline",
)

# tag -> (violating witness, honest witness)
CASES = {
    **{tag: ((chain(4), {1, 3}, {}), (chain(4), {2}, {})) for tag in CHAIN_TAGS},
    "hyp4": ((chain(4), {1, 3}, {"element": 3}), (chain(4), {2}, {"element": 2})),
    "lemma4.2": ((boolean(2), {3}, {"element": 3}), (chain(4), {2}, {"element": 2})),
    "lemma4.2-dual": ((boolean(2), {0}, {"element": 0}), (chain(4), {2}, {"element": 2})),
    "lemma5.4": (
        (chain(4), set(range(5)), {"x": 0, "u2": 4}),
        (chain(4), {2}, {"x": 1, "u2": 3}),
    ),
}


def _report(tag, L, C, extra):
    return CheckReport(tag, "synthetic", 1, "CounterexampleFound", _witness(L, tag, C=C, **extra))


def _observation_witnesses():
    # On chain(4), M = {0, 2, 4} leaves C = {1, 3}, which breaks an
    # observation; M = {0, 1, 3, 4} is a maximal sublattice, so the same
    # claim is honest there.
    from latmax.sublattice import observation_suite

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


def test_unknown_tag_raises():
    with pytest.raises(ValueError):
        reverify_witness(_report("no-such-claim", chain(4), {2}, {}))


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
    observation suite's (its witnesses come from sublattice.observation_suite)
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
    assert table.looked_up <= set(REPLAY), sorted(table.looked_up - set(REPLAY))
    assert set(REPLAY) - table.looked_up == {"observation-suite"}
