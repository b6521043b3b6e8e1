"""CLI behaviours: output formats, exit codes, round trips."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latmax
from latmax import checks, cli
from latmax.corpus import boolean
from latmax.geometry import ConvexGeometry, build_cg, format_cg_text
from latmax.lattice import InvariantViolation, to_cover_text
from latmax.report import CheckReport
from latmax.sublattice import maximal_complements_oracle

PAPER_ARGS = ["cg-complements", "--perm", "3 6 7 10 1 8 9 5 2 4"]

PAPER_LINES = [
    "{(2)}\t(2)={1,2}",
    "{(4)}\t(4)={1,2,3,4}",
    "[(5),C1(5)]\t(5)={1,3,5}\tC1(5)={1,2,3,4,5}",
    "[(5),C2(5)]\t(5)={1,3,5}\tC2(5)={1,3,5,6,7,8,9,10}",
    "[(6),C1(6)]\t(6)={3,6}\tC1(6)={1,2,3,4,5,6}",
    "[(8),C1(8)] u [(8),C2(8)]\t(8)={1,3,6,7,8}\tC1(8)={1,2,3,4,5,6,7,8}\tC2(8)={1,3,6,7,8,10}",
    "[(9),C1(9)]\t(9)={1,3,6,7,8,9}\tC1(9)={1,2,3,4,5,6,7,8,9}",
    "[(9),C2(9)]\t(9)={1,3,6,7,8,9}\tC2(9)={1,3,6,7,8,9,10}",
    "{(10)}\t(10)={3,6,7,10}",
]


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_paper_example_text_output(capsys):
    rc, out, _ = run_cli(capsys, *PAPER_ARGS)
    assert rc == 0
    assert out.splitlines() == PAPER_LINES


def test_paper_example_with_verify(capsys):
    rc, out, _ = run_cli(capsys, *PAPER_ARGS, "--verify", "--oracle-bound", "64")
    assert rc == 0
    assert "verified against oracle: 9 complements agree" in out


def test_json_verify_keeps_stdout_json(capsys):
    rc, out, err = run_cli(capsys, "cg-complements", "--perm", "2 1", "--verify", "--json")
    assert rc == 0
    assert [row["j"] for row in json.loads(out)] == [1, 2]
    assert "verified against oracle: 2 complements agree" in err


def test_two_element_example(capsys):
    rc, out, _ = run_cli(capsys, "cg-complements", "--perm", "2 1")
    assert rc == 0
    assert out.splitlines() == ["{(1)}\t(1)={1}", "{(2)}\t(2)={2}"]


def test_json_output_parses(capsys):
    rc, out, _ = run_cli(capsys, *PAPER_ARGS, "--json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 9
    assert rows[4] == {
        "j": 6,
        "shape": "IntervalChain1",
        "class": "Type2",
        "intervals": [[[3, 6], [1, 2, 3, 4, 5, 6]]],
    }


def test_parse_error_exit_code(capsys):
    rc, _, err = run_cli(capsys, "cg-complements", "--perm", "1 2 2")
    assert rc == 2 and "parse error" in err
    rc, _, err = run_cli(capsys, "cg-complements", "--perm", "banana")
    assert rc == 2


def test_geometry_file_input(tmp_path, capsys):
    p = tmp_path / "geom.txt"
    p.write_text("4 2\n1 2 3 4\n2 1 4 3\n")
    rc, out, _ = run_cli(capsys, "cg-complements", "--file", str(p), "--verify")
    assert rc == 0
    assert "verified" in out


def test_lattice_file_oracle(tmp_path, capsys):
    p = tmp_path / "lat.txt"
    p.write_text("4\n0 1\n0 2\n1 3\n2 3\n")
    rc, out, _ = run_cli(capsys, "oracle", "--file", str(p))
    assert rc == 0
    assert "# 2 complements" in out
    assert "# frattini sublattice" in out


def test_oracle_json_on_perm(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--perm", "2 1 3", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["complements"] == [["{1}"], ["{2}"]]
    assert data["frattini"] == ["{}", "{1,2}", "{1,2,3}"]


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # Sabotage the enumeration to force a disagreement with the oracle.
    import latmax.cli as cli_mod

    real = cli_mod.decompose_and_run

    def truncated(m, chains):
        return real(m, chains)[:-1]

    monkeypatch.setattr(cli_mod, "decompose_and_run", truncated)
    rc, _, err = run_cli(capsys, "cg-complements", "--perm", "2 1 3 4", "--verify")
    assert rc == 3
    assert "VERIFY MISMATCH" in err


def test_check_command_all_small(capsys):
    rc, out, _ = run_cli(capsys, "check", "hyp3", "--max-m", "4")
    assert rc == 0
    rep = CheckReport.from_json(out.strip().splitlines()[-1])
    assert rep.holds


def test_check_all_matches_its_golden_output(capsys):
    # One line per claim of checks.CLAIMS: ids, labels, counts and order.
    golden = Path(__file__).parent / "golden" / "check_all_max_m4_random8_seed0.txt"
    rc, out, _ = run_cli(capsys, "check", "all", "--max-m", "4", "--random", "8", "--seed", "0")
    assert rc == 0
    assert out == golden.read_text()


def test_cli_takes_its_claims_from_the_claim_table():
    assert cli.CHECKS is checks.CLAIMS
    tree = ast.parse(Path(cli.__file__).read_text())
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not constants & set(checks.CLAIMS)


def test_check_unknown_claim(capsys):
    rc, _, err = run_cli(capsys, "check", "nonsense")
    assert rc == 2 and "unknown claim" in err


def test_check_counterexample_exit_code(capsys, tmp_path, monkeypatch):
    import latmax.cli as cli_mod

    def failing(corpus, label="x"):
        return CheckReport("stub", label, 1, "CounterexampleFound", {"claim": "stub"})

    monkeypatch.setitem(cli_mod.CHECKS, "hyp3", (failing, cli_mod.CHECKS["hyp3"][1]))
    out_file = tmp_path / "witness.json"
    rc, out, err = run_cli(
        capsys, "check", "hyp3", "--max-m", "2", "--out", str(out_file)
    )
    assert rc == 4
    assert out_file.exists()
    assert CheckReport.from_json(out_file.read_text()).status == "CounterexampleFound"


def test_bench_rows_and_assertion(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--sizes", "10,100", "--seed", "1")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("m=")]
    assert len(lines) == 2
    assert "linearity ok" in out


def test_dot_output_for_geometry(capsys):
    rc, out, _ = run_cli(capsys, "dot", "--perm", "2 1 3")
    assert rc == 0
    assert out.startswith("digraph hasse {")
    assert 'fillcolor="lightblue"' in out  # Type1 singleton complements shaded
    assert "penwidth=2.5" in out  # meet-irreducibles outlined
    assert "rank=same" in out


def test_dot_file_output(tmp_path, capsys):
    target = tmp_path / "g.dot"
    rc, out, _ = run_cli(capsys, "dot", "--perm", "2 1", "--out", str(target))
    assert rc == 0 and target.exists()
    assert target.read_text().startswith("digraph hasse {")


def test_missing_input_is_parse_error(capsys):
    rc, _, err = run_cli(capsys, "cg-complements")
    assert rc == 2


def test_both_inputs_rejected(tmp_path, capsys):
    p = tmp_path / "geom.txt"
    p.write_text("2 2\n1 2\n2 1\n")
    rc, _, err = run_cli(capsys, "cg-complements", "--perm", "2 1", "--file", str(p))
    assert rc == 2 and "mutually exclusive" in err


def test_geometry_file_with_nonidentity_first_chain(tmp_path, capsys):
    p = tmp_path / "geom.txt"
    p.write_text("4 2\n2 1 3 4\n4 3 1 2\n")
    rc, out, _ = run_cli(capsys, "cg-complements", "--file", str(p), "--verify")
    assert rc == 0 and "verified" in out


def test_oracle_accepts_multichain_geometry_file(tmp_path, capsys):
    # user-supplied chain files can probe geometries beyond cdim 2
    p = tmp_path / "geom3.txt"
    p.write_text("3 3\n1 2 3\n2 3 1\n3 1 2\n")
    rc, out, _ = run_cli(capsys, "oracle", "--file", str(p))
    assert rc == 0
    # cyclic rotations generate the cube 2^3: six atom/coatom intervals
    assert "# 6 complements" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--perm", "1.5 2"], "cannot parse"),
        (["--perm", "1 3"], "not a permutation"),
        (["--perm", "1 1"], "not a permutation"),
        (["--perm", ""], "empty permutation"),
        (["--perm", " , "], "empty permutation"),
        (["--file", "3 2\n1 2 3\n2 1\n"], "not a permutation"),
        (["--file", "0 1\n1\n"], "nonempty"),
        (["--file", "0 2\n"], "ground set must be nonempty"),
        (["--perm", "99999999999999999999 1"], "not a permutation"),
        (["--file", "4\n0 1\n0 2\n1 3\n2 3\n"], "cg-complements needs a geometry input"),
        (["--file", "3 3\n1 2 3\n2 3 1\n3 1 2\n"], "cg-complements needs exactly two chains"),
        (["check", "nonsense"], "unknown claim(s): ['nonsense']"),
    ],
)
def test_malformed_geometry_exit_code(argv, message, tmp_path, capsys):
    if argv[0] == "--file":
        path = tmp_path / "geom.txt"
        path.write_text(argv[1])
        argv = ["--file", str(path)]
    if argv[0].startswith("--"):
        argv = ["cg-complements", *argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert "parse error" in err and message in err
    assert "Traceback" not in err


def test_cover_line_with_three_ids(tmp_path, capsys):
    path = tmp_path / "lattice.txt"
    path.write_text("3\n0 1\n# the next cover line is malformed\n0 1 2\n")
    rc, out, err = run_cli(capsys, "oracle", "--file", str(path))
    assert rc == 2 and out == ""
    assert "line 4 ('0 1 2'): a cover line needs two element ids" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n0 x\n", "line 2 ('0 x'): expected an element id, got 'x'"),
        ("x\n", "line 1 ('x'): expected the element count, got 'x'"),
        ("3 2\n1 2 3\n1 2 x\n", "line 3 ('1 2 x'): expected a point, got 'x'"),
    ],
    ids=["cover-line", "cover-header", "chain-line"],
)
def test_non_integer_token_names_its_line_and_field(text, message, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "oracle", "--file", str(path))
    assert rc == 2 and out == ""
    assert message in err and "invalid literal" not in err
    assert "Traceback" not in err


def test_negative_element_count_is_named(tmp_path, capsys):
    path = tmp_path / "lattice.txt"
    path.write_text("-1\n")
    rc, out, err = run_cli(capsys, "oracle", "--file", str(path))
    assert rc == 2 and out == ""
    assert "element count must be nonnegative, got -1" in err
    assert "cycle" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["cg-complements", "--perm", "2 1 3", "--verify", "--oracle-bound", "3"], 2),
        (["cg-complements", "--perm", "2 1 3", "--verify", "--oracle-bound", "0"], 2),
        (["oracle", "--perm", "2 1 3", "--oracle-bound", "0"], 0),
        (["dot", "--file", "B3", "--oracle-bound", "4"], 0),
    ],
    ids=["verify-below-n", "verify-zero", "oracle-zero", "dot-cover-list"],
)
def test_oracle_bound_overflow_exits_2_from_every_command(argv, printed, tmp_path, capsys):
    b3 = tmp_path / "b3.txt"
    b3.write_text(to_cover_text(boolean(3)))
    rc, out, err = run_cli(capsys, *[str(b3) if a == "B3" else a for a in argv])
    assert rc == 2
    assert "oracle bound exceeded" in err and "Traceback" not in err
    # Complements printed before the oracle ran stay on stdout.
    assert out.splitlines() == ["{(1)}\t(1)={1}", "{(2)}\t(2)={2}"][:printed]


def test_oracle_has_no_default_bound(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--perm", "3 6 7 10 1 8 9 5 2 4")
    assert rc == 0
    assert out.startswith("# 9 complements of maximal sublattices\n")


THREE_CHAINS = [(1, 2, 3, 4, 5, 6), (2, 4, 6, 5, 3, 1), (6, 3, 5, 4, 2, 1)]


@pytest.mark.parametrize(
    "text, L",
    [
        (to_cover_text(boolean(5)), boolean(5)),
        (format_cg_text(6, THREE_CHAINS), build_cg(6, THREE_CHAINS).lattice),
    ],
    ids=["b5-cover-list", "3-chain-geometry"],
)
def test_dot_shades_other_inputs_through_the_oracle(text, L, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, out, _ = run_cli(capsys, "dot", "--file", str(path))
    assert rc == 0
    shaded = set().union(*maximal_complements_oracle(L))
    assert L.n > 18 and shaded
    assert out.count('fillcolor="lightgray"') == len(shaded)


def test_check_runs_its_corpus_without_a_bound(capsys):
    rc, out, _ = run_cli(capsys, "check", "hyp3", "--max-m", "6")
    assert rc == 0
    assert CheckReport.from_json(out.strip()).holds


@pytest.mark.parametrize("argv", [["dot", "--perm", "2 1", "--json"], ["check", "hyp3", "--dedupe"]])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _long_chain(m, k, token):
    points = [str(p) for p in range(1, m + 1)]
    points[k] = token
    return " ".join(points)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--perm", _long_chain(10**5, 9, "7")], "point 7 repeats"),
        (["--perm", _long_chain(10**5, 500, "x")], "'x' is not an integer"),
        (["--file", f"{10**5} 2\n{_long_chain(10**5, 0, '1')}\n{_long_chain(10**5, 500, 'x')}\n"],
         "expected a point, got 'x'"),
    ],
    ids=["perm-repeat", "perm-token", "file-token"],
)
def test_malformed_long_input_gets_a_short_message(argv, named, tmp_path, capsys):
    if argv[0] == "--file":
        path = tmp_path / "geom.txt"
        path.write_text(argv[1])
        argv = ["--file", str(path)]
    rc, out, err = run_cli(capsys, "cg-complements", *argv)
    assert rc == 2 and out == ""
    assert named in err and len(err.encode()) < 300


def test_self_check_fault_is_not_a_parse_error(monkeypatch):
    def broken(self):
        raise InvariantViolation("planted")

    monkeypatch.setattr(ConvexGeometry, "_verify", broken)
    with pytest.raises(InvariantViolation, match="planted"):
        cli.main(["oracle", "--perm", "2 1"])


def test_module_entry_point_reports_a_parse_error():
    env = dict(os.environ, PYTHONPATH=str(Path(latmax.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "latmax.cli", "cg-complements", "--perm", "1 1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["parse error: not a permutation of 1..2: point 1 repeats"]


def test_python_O_prints_the_same_output():
    # `python -O` strips assert statements; tests/test_dual.py checks that
    # the package has none, and this checks that the output agrees.
    env = dict(os.environ, PYTHONPATH=str(Path(latmax.__file__).parents[1]))
    for argv in (["check", "all", "--max-m", "3", "--random", "3"], [*PAPER_ARGS, "--verify"]):
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "latmax.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            for flags in ([], ["-O"])
        )
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout and plain.stdout


def test_bench_json_records(capsys):
    rc, out, err = run_cli(capsys, "bench", "--sizes", "10,100", "--seed", "1", "--json")
    assert rc == 0
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r["m"] for r in records] == [10, 100]
    for r in records:
        assert set(r) == {
            "m", "complements", "comparisons", "set_ops", "wall_s", "python", "numpy", "cpu_count",
        }
        assert r["set_ops"] == 3 * r["m"] and r["comparisons"] <= 12 * r["m"]
        assert r["wall_s"] >= 0
    assert "linearity ok" in err


@pytest.mark.parametrize("sizes", ["10,x", "", "10,,20", "0", "-5"])
def test_bench_rejects_bad_sizes(capsys, sizes):
    rc, out, err = run_cli(capsys, "bench", "--sizes", sizes)
    assert rc == 2 and not out
    assert err.startswith("parse error:") and "Traceback" not in err
