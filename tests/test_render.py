"""The column renderer of ``cg-complements`` against the set-by-set reference."""
from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from helpers import reference_complements_json, reference_complements_text
from latmax import cdim2, cli
from latmax.cdim2 import Complements, complements_to_json, complements_to_text, decompose_and_run, fast_complements
from latmax.geometry import BadPermutation, ChainSpec, format_cg_text


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
    # With 99, 100, 999 and 1000 on either side of a change in the points'
    # widest decimal token.
    rng = random.Random(1212)
    for m in (500, 99, 100, 999, 1000):
        _assert_matches_reference(m, _chains(rng, m, identity_first=False))


@pytest.mark.parametrize("identity_first", [True, False], ids=["identity", "arbitrary"])
def test_renderer_matches_reference_across_block_edges(monkeypatch, identity_first):
    # A block holds 100 // m descriptors, one past m = 50, so each m from 1 to
    # 60 has block edges at its own stride through the descriptors.
    monkeypatch.setattr(cdim2, "_BLOCK_CELLS", 100)
    rng = random.Random(2800 + identity_first)
    for m in range(1, 61):
        for _ in range(2):
            _assert_matches_reference(m, _chains(rng, m, identity_first))


@pytest.mark.parametrize("part", [slice(5, -3), slice(6, None, 3)], ids=["slice", "strided"])
def test_renderer_takes_a_slice_that_starts_inside_a_block(monkeypatch, part):
    # Blocks of four descriptors: the part starts inside the second block of
    # the whole result, and the renderer cuts it into blocks of its own.
    m = 40
    monkeypatch.setattr(cdim2, "_BLOCK_CELLS", 4 * m)
    chains = _chains(random.Random(2810), m, identity_first=False)
    comps = decompose_and_run(m, chains)[part]
    assert complements_to_text(comps, *chains) == reference_complements_text(comps, *chains)
    assert complements_to_json(comps, *chains) == reference_complements_json(comps, *chains)


def test_renderer_matches_reference_at_m2000_in_many_blocks():
    m = 2000
    chains = _chains(random.Random(2820), m, identity_first=False)
    comps = decompose_and_run(m, chains)
    assert len(comps) > 10 * (cdim2._BLOCK_CELLS // m)
    assert complements_to_text(comps, *chains) == reference_complements_text(comps, *chains)
    assert complements_to_json(comps, *chains) == reference_complements_json(comps, *chains)


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


PAPER_PERM = (3, 6, 7, 10, 1, 8, 9, 5, 2, 4)
PAPER_TEXT = (
    "{(2)}\t(2)={1,2}\n"
    "{(4)}\t(4)={1,2,3,4}\n"
    "[(5),C1(5)]\t(5)={1,3,5}\tC1(5)={1,2,3,4,5}\n"
    "[(5),C2(5)]\t(5)={1,3,5}\tC2(5)={1,3,5,6,7,8,9,10}\n"
    "[(6),C1(6)]\t(6)={3,6}\tC1(6)={1,2,3,4,5,6}\n"
    "[(8),C1(8)] u [(8),C2(8)]\t(8)={1,3,6,7,8}\tC1(8)={1,2,3,4,5,6,7,8}\tC2(8)={1,3,6,7,8,10}\n"
    "[(9),C1(9)]\t(9)={1,3,6,7,8,9}\tC1(9)={1,2,3,4,5,6,7,8,9}\n"
    "[(9),C2(9)]\t(9)={1,3,6,7,8,9}\tC2(9)={1,3,6,7,8,9,10}\n"
    "{(10)}\t(10)={3,6,7,10}\n"
)
PAPER_JSON = (
    '[{"j": 2, "shape": "IntervalChain1", "class": "Type1", "intervals": [[[1, 2], [1, 2]]]}, '
    '{"j": 4, "shape": "IntervalChain1", "class": "Type1", "intervals": [[[1, 2, 3, 4], [1, 2, 3, 4]]]}, '
    '{"j": 5, "shape": "IntervalChain1", "class": "Type1", "intervals": [[[1, 3, 5], [1, 2, 3, 4, 5]]]}, '
    '{"j": 5, "shape": "IntervalChain2", "class": "Type1", "intervals": [[[1, 3, 5], [1, 3, 5, 6, 7, 8, 9, 10]]]}, '
    '{"j": 6, "shape": "IntervalChain1", "class": "Type2", "intervals": [[[3, 6], [1, 2, 3, 4, 5, 6]]]}, '
    '{"j": 8, "shape": "UnionBothChains", "class": "Type3", "intervals": '
    "[[[1, 3, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8]], [[1, 3, 6, 7, 8], [1, 3, 6, 7, 8, 10]]]}, "
    '{"j": 9, "shape": "IntervalChain1", "class": "Type1", "intervals": [[[1, 3, 6, 7, 8, 9], [1, 2, 3, 4, 5, 6, 7, 8, 9]]]}, '
    '{"j": 9, "shape": "IntervalChain2", "class": "Type1", "intervals": [[[1, 3, 6, 7, 8, 9], [1, 3, 6, 7, 8, 9, 10]]]}, '
    '{"j": 10, "shape": "IntervalChain2", "class": "Type1", "intervals": [[[3, 6, 7, 10], [3, 6, 7, 10]]]}]'
)


def test_renderers_build_no_complement(monkeypatch):
    # The renderers read the columns only: a Complement built anywhere in
    # them would raise here.
    comps, _ = fast_complements(10, PAPER_PERM)

    def no_complement(*args):
        raise AssertionError("a renderer built a Complement")

    monkeypatch.setattr(cdim2, "Complement", no_complement)
    chains = (tuple(range(1, 11)), PAPER_PERM)
    assert complements_to_text(comps, *chains) == PAPER_TEXT
    assert complements_to_json(comps, *chains) == PAPER_JSON


@pytest.mark.parametrize("length", [-1, 5, 7])
@pytest.mark.parametrize("column", ["c1_len", "c2_len"])
def test_renderer_names_a_prefix_length_outside_0_to_m(column, length):
    # Point 2 of the 4-point geometry, with one prefix length out of range:
    # Complements refuses it where it is built, so no renderer can see it.
    lengths = {"c1_len": 2, "c2_len": 2, column: length}
    with pytest.raises(ValueError, match=rf"^prefix length {length} is not in 0\.\.4$"):
        Complements(4, np.array([2]), np.array([0]), np.array([lengths["c1_len"]]), np.array([lengths["c2_len"]]))


@pytest.mark.parametrize("chains", [((1, 2, 3), (2, 1, 3)), ((1, 2, 3, 4), (2, 1, 3, 5, 4))], ids=["short", "long-chain-2"])
def test_renderer_refuses_chains_of_another_m(chains):
    # The descriptors carry m = 4; chains of any other length do not host them.
    comps = decompose_and_run(4, ((1, 2, 3, 4), (2, 1, 4, 3)))
    for render in (complements_to_text, complements_to_json):
        with pytest.raises(BadPermutation, match=r"^not a permutation of 1\.\.4: \d points given$"):
            render(comps, *chains)


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


@pytest.mark.parametrize(
    "j, kind, message",
    [
        (2, 7, "kind code 7 is not in 0..4"),
        (2, -1, "kind code -1 is not in 0..4"),
        (9, 0, "point 9 is not in 1..4"),
        (0, 0, "point 0 is not in 1..4"),
    ],
    ids=["kind-7", "kind-minus-1", "point-9", "point-0"],
)
def test_renderer_names_a_kind_code_or_point_outside_its_range(j, kind, message):
    # Point j of the 4-point geometry with prefix lengths 2 and 2: refused
    # where the descriptors are built, before any renderer reads them.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Complements(4, np.array([j]), np.array([kind]), np.array([2]), np.array([2]))
