"""Witness replay: every tag in REPLAY reproduces a real violation and
rejects an honest witness, and every tag a checker can emit has an entry."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

from latmax.checks import REPLAY, _witness, reverify_witness
from latmax.corpus import boolean, chain
from latmax.report import CheckReport

CHECKS_SRC = Path(__file__).resolve().parents[1] / "src" / "latmax" / "checks.py"

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


def _emitted_tags():
    """Tag literals the checkers pass to _witness, directly or through _sides."""
    tags = set()
    for node in ast.walk(ast.parse(CHECKS_SRC.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in ("_witness", "_sides"):
            continue
        arg = node.args[1]
        if isinstance(arg, ast.Constant):
            tags.add(arg.value)
            if node.func.id == "_sides":
                tags.add(arg.value + "-dual")
        else:
            # a non-literal tag must be the loop variable over _sides(...)
            assert isinstance(arg, ast.Name) and arg.id == "tag", ast.dump(arg)
    return tags


def test_every_emitted_tag_has_a_replay_entry():
    tags = _emitted_tags()
    assert tags <= set(REPLAY), sorted(tags - set(REPLAY))
    # observation-suite witnesses come from sublattice.observation_suite
    assert set(REPLAY) - tags == {"observation-suite"}
