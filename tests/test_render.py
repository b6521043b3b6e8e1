"""The column renderer of ``cg-complements`` against the set-by-set reference."""
from __future__ import annotations

import json
import random

import pytest

from helpers import reference_complements_json, reference_complements_text
from latmax import cli
from latmax.cdim2 import complements_to_json, complements_to_text, decompose_and_run
from latmax.geometry import ChainSpec, format_cg_text


def _chains(rng, m, identity_first):
    chain1 = list(range(1, m + 1))
    if not identity_first:
        rng.shuffle(chain1)
    chain2 = list(range(1, m + 1))
    rng.shuffle(chain2)
    return tuple(chain1), tuple(chain2)


def _assert_matches_reference(m, chains):
    comps = decompose_and_run(m, chains)
    assert complements_to_text(comps, *chains) == reference_complements_text(comps, *chains)
    assert complements_to_json(comps, *chains) == reference_complements_json(comps, *chains)


@pytest.mark.parametrize("identity_first", [True, False], ids=["identity", "arbitrary"])
def test_renderer_matches_reference_m1_to_60(identity_first):
    rng = random.Random(1200 + identity_first)
    for m in range(1, 61):
        for _ in range(3):
            _assert_matches_reference(m, _chains(rng, m, identity_first))


def test_renderer_matches_reference_at_m500():
    _assert_matches_reference(500, _chains(random.Random(1212), 500, identity_first=False))


SMALLEST = [((1,), (1,)), ((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 1), (2, 1))]


@pytest.mark.parametrize("chains", SMALLEST)
def test_renderer_smallest_inputs(chains):
    _assert_matches_reference(len(chains[0]), chains)


def test_renderer_takes_chain_specs():
    chains = ((3, 1, 2, 4), (2, 4, 1, 3))
    comps = decompose_and_run(4, chains)
    specs = [ChainSpec(c) for c in chains]
    assert complements_to_text(comps, *specs) == reference_complements_text(comps, *chains)
    assert complements_to_json(comps, *specs) == reference_complements_json(comps, *chains)


def test_renderer_takes_a_slice_and_chain_iterators():
    # A Complements slice, and chains given as iterators, as the set-by-set
    # renderer took them.
    chains = ((3, 1, 2, 4, 6, 5), (2, 4, 1, 6, 3, 5))
    comps = decompose_and_run(6, chains)[1:-1]
    for render, reference in (
        (complements_to_text, reference_complements_text),
        (complements_to_json, reference_complements_json),
    ):
        assert render(comps, *map(iter, chains)) == reference(comps, *chains)


def test_empty_result_renders_as_no_lines_and_an_empty_array():
    comps = decompose_and_run(1, ((1,), (1,)))
    assert complements_to_text(comps, (1,), (1,)) == ""
    assert complements_to_json(comps, (1,), (1,)) == "[]"


def test_every_line_trivial_on_two_equal_chains(capsys):
    # Two equal chains give a chain lattice: every complement is one {(j)}.
    m = 7
    rc = cli.main(["cg-complements", "--perm", " ".join(map(str, range(1, m + 1)))])
    out = capsys.readouterr().out
    assert rc == 0
    prefixes = [",".join(map(str, range(1, j + 1))) for j in range(1, m)]
    assert out.splitlines() == [f"{{({j})}}\t({j})={{{p}}}" for j, p in enumerate(prefixes, 1)]


def test_cli_json_at_m500_matches_reference_and_round_trips(tmp_path, capsys):
    m = 500
    chains = _chains(random.Random(1213), m, identity_first=False)
    path = tmp_path / "geom.cg"
    path.write_text(format_cg_text(m, chains))
    outputs = {}
    for mode in ("text", "json"):
        rc = cli.main(["cg-complements", "--file", str(path)] + (["--json"] if mode == "json" else []))
        outputs[mode] = capsys.readouterr().out
        assert rc == 0
    comps = decompose_and_run(m, chains)
    assert outputs["text"] == reference_complements_text(comps, *chains)
    assert outputs["json"] == reference_complements_json(comps, *chains) + "\n"
    text = outputs["json"].rstrip("\n")
    assert json.dumps(json.loads(text)) == text
