"""CLI: golden output, exit codes, and WG1 round-trips through files."""

import re
import shlex
from pathlib import Path

import pytest

from wordgrid.cli import main
from wordgrid.core import Grid, Word, infer_alphabet, parse_grid, serialize_grid
from wordgrid.occurrence import count_word
from wordgrid.solver import SolveConfig, solve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- tallies

def test_lines_tallies(capsys):
    code, out, _ = run(capsys, "lines", "-n", "3", "-d", "2")
    assert code == 0
    assert out == "weight 1: 6\nweight 2: 2\ntotal 8\n"


def test_lines_listing(capsys):
    code, out, _ = run(capsys, "lines", "-n", "3", "-d", "2", "--list")
    assert code == 0
    assert len(out.splitlines()) == 8
    assert "1,1 ; 1,1" in out


@pytest.mark.parametrize("extra", [["--weight", "5"], ["--weight", "0", "--list"]])
def test_lines_weight_outside_dimension_exits_1(capsys, extra):
    code, out, err = run(capsys, "lines", "-n", "3", "-d", "2", *extra)
    assert code == 1
    assert out == ""
    assert "weight" in err


def test_segments_total(capsys):
    code, out, _ = run(capsys, "segments", "-n", "5", "-d", "2", "-k", "2")
    assert code == 0
    assert out == "total 72\n"


# ---------------------------------------------------------------- construct / count

def test_construct_writes_wg1_and_count_reads_it_back(capsys, tmp_path):
    grid_file = tmp_path / "amm.wg1"
    code, out, _ = run(capsys, "construct", "--word", "AMM", "--out", str(grid_file))
    assert code == 0
    assert "provenance cross(M)" in out
    assert "guaranteed 5" in out
    assert "achieved 5" in out
    parsed = parse_grid(grid_file.read_text())
    assert serialize_grid(parsed) == grid_file.read_text()

    code, out, _ = run(capsys, "count", "--word", "AMM", "--grid", str(grid_file))
    assert code == 0
    assert out.splitlines()[0] == "total 5"
    assert "weight 1: 4" in out
    assert "weight 2: 1" in out


def test_count_matches_listing(capsys, tmp_path):
    grid_file = tmp_path / "amm.wg1"
    run(capsys, "construct", "--word", "AMM", "--out", str(grid_file))
    code, out, _ = run(capsys, "count", "--word", "AMM", "--grid", str(grid_file),
                       "--matches")
    assert code == 0
    assert len([ln for ln in out.splitlines() if ";" in ln]) == 5


def test_construct_specific_methods(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--word", "AMAAM", "--method", "quad",
                       "--letters", "A,M", "--out", str(tmp_path / "q.wg1"))
    assert code == 0
    assert "guaranteed 8" in out
    code, out, _ = run(capsys, "construct", "--word", "AM", "--method", "parity",
                       "-d", "3", "--out", str(tmp_path / "p.wg1"))
    assert code == 0
    assert "achieved 16" in out
    code, out, _ = run(capsys, "construct", "--word", "AMM", "--method", "cross")
    assert code == 1  # cross without --letter


def test_construct_counterpoint_is_uncertified(capsys, tmp_path):
    out_file = tmp_path / "c.wg1"
    code, out, _ = run(capsys, "construct", "--word", "AMM", "--method",
                       "counterpoint", "-d", "3", "--out", str(out_file))
    assert code == 0
    assert "non-certified" in out
    assert parse_grid(out_file.read_text()).d == 3


@pytest.mark.parametrize("argv", [
    ["--word", "AMAM", "--method", "best", "-d", "9"],
    ["--word", "AMM", "--method", "counterpoint", "-d", "40"],
])
def test_construct_over_serialize_cap_refuses_before_printing(capsys, tmp_path, argv):
    out_file = tmp_path / "big.wg1"
    for extra in ([], ["--out", str(out_file)]):
        code, out, err = run(capsys, "construct", *argv, *extra)
        assert code == 1
        assert out == ""
        assert "above the dense cap 65536" in err
    assert not out_file.exists()


# ---------------------------------------------------------------- bounds / f1

def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--word", "AMM")
    assert code == 0
    assert "rule non-palindrome: 6" in out
    assert "lower 5" in out
    assert "upper 6" in out
    assert "exact 5 (two-block)" in out


def test_bounds_unknown_exact(capsys):
    code, out, _ = run(capsys, "bounds", "--word", "ABC")
    assert code == 0
    assert "exact unknown" in out


def test_f1_with_witness(capsys):
    code, out, _ = run(capsys, "f1", "--word", "ABCD", "-n", "7", "--witness")
    assert code == 0
    assert out == "value 2\nwitness ABCDCBA\n"


def test_f1_long_distinct_letter_word(capsys):
    code, out, _ = run(capsys, "f1", "--word", "ABCDEFGHIJ", "-n", "12", "--witness")
    assert code == 0
    assert out == "value 1\nwitness AAABCDEFGHIJ\n"


# ---------------------------------------------------------------- solve

def test_solve_word(capsys):
    code, out, _ = run(capsys, "solve", "--word", "AMM")
    assert code == 0
    assert out.startswith("optimum 5\n")


def test_solve_enumerate_prints_witness_grids(capsys):
    code, out, _ = run(capsys, "solve", "--word", "AMM", "--enumerate")
    assert code == 0
    assert "classes 6" in out
    assert "WG1 d=2 n=3 sigma=AM" in out


def test_solve_budget_exhaustion_exits_3(capsys):
    code, out, _ = run(capsys, "solve", "--word", "AAMMM", "--node-budget", "3")
    assert code == 3
    assert out.startswith("interval ")


def test_solve_stats_prints_tallies_after_the_result(capsys):
    code, out, _ = run(capsys, "solve", "--word", "AMM", "--stats")
    assert code == 0
    text = "optimum 5\nclasses unknown\nwitnesses 1\nWG1 d=2 n=3 sigma=AM\nAAA\nAMM\nAMM\n"
    assert out.startswith(text)
    tail = out[len(text):].splitlines()
    assert tail[:3] == ["nodes 30", "bound_prunes 19", "symmetry_prunes 3"]
    assert len(tail) == 4 and re.fullmatch(r"elapsed \d+\.\d{3}s", tail[3])


def test_solve_word_set(capsys):
    code, out, _ = run(capsys, "solve", "--words", "AM,MA")
    assert code == 0
    assert out.startswith("optimum 4\n")


def test_solve_needs_exactly_one_word_source(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1
    code, _, err = run(capsys, "solve", "--word", "AM", "--words", "AM,MA")
    assert code == 1


# ---------------------------------------------------------------- estimate

def test_estimate_requires_seed(capsys):
    code, _, err = run(capsys, "estimate", "--word", "AMM", "-d", "4",
                       "--samples", "100")
    assert code == 1
    assert "--seed" in err


def test_estimate_reports_fraction_and_radius(capsys):
    code, out, _ = run(capsys, "estimate", "--word", "AMM", "-d", "4",
                       "--samples", "2000", "--seed", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("fraction 0.")
    assert lines[1].startswith("radius 0.")
    assert lines[2] == "samples 2000"


def test_estimate_is_seed_deterministic(capsys):
    args = ("estimate", "--word", "AMM", "-d", "4", "--samples", "500",
            "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_estimate_grid_file_needs_no_dimension(capsys, tmp_path):
    grid_file = tmp_path / "amm.wg1"
    run(capsys, "construct", "--word", "AMM", "-d", "3", "--out", str(grid_file))
    args = ("estimate", "--word", "AMM", "--grid", str(grid_file),
            "--samples", "300", "--seed", "5")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.startswith("fraction ")
    code_d, out_d, _ = run(capsys, *args, "-d", "7")
    assert (code_d, out_d) == (code, out)


def test_estimate_without_grid_or_dimension_exits_1(capsys):
    code, out, err = run(capsys, "estimate", "--word", "AMM", "--samples", "100",
                         "--seed", "1")
    assert code == 1
    assert out == ""
    assert "usage:" in err and "-d" in err


# ---------------------------------------------------------------- verify

def test_verify_fast_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fast")
    assert code == 0
    lines = out.splitlines()
    assert all("status=PASS" in ln for ln in lines[:-1])
    assert lines[-1].startswith("suite=fast checks=")
    assert lines[-1].endswith("failed=0")
    assert any("check=optimum-amm-2d" in ln for ln in lines)
    assert any("check=line-tallies" in ln for ln in lines)


# ---------------------------------------------------------------- unfold

def write_cube(tmp_path, grid):
    path = tmp_path / "cube.wg1"
    path.write_text(serialize_grid(grid))
    return str(path)


def test_unfold_constant_cube(capsys, tmp_path):
    grid = Grid(n=3, d=3, alphabet=infer_alphabet("A"), cells=bytes(27))
    path = write_cube(tmp_path, grid)
    code, out, _ = run(capsys, "unfold", path)
    assert code == 0
    assert out == (
        "    AAA\n    AAA\n    AAA\n"
        "AAA AAA AAA AAA\nAAA AAA AAA AAA\nAAA AAA AAA AAA\n"
        "    AAA\n    AAA\n    AAA\n"
        "center A\n"
    )


def test_unfold_solver_witness_annotated(capsys, tmp_path):
    w = Word.from_string("AMM")
    res = solve(w, 3, 3, SolveConfig(enumerate_witnesses=True))
    path = write_cube(tmp_path, res.witnesses[0])
    code, out, _ = run(capsys, "unfold", path, "--word", "AMM")
    assert code == 0
    assert out.endswith("f = 28\n")


def test_unfold_rejects_wrong_shape(capsys, tmp_path):
    grid = Grid(n=3, d=2, alphabet=infer_alphabet("A"), cells=bytes(9))
    path = tmp_path / "flat.wg1"
    path.write_text(serialize_grid(grid))
    code, _, err = run(capsys, "unfold", str(path))
    assert code == 1
    assert "unfold requires d=3 n=3" in err


def test_unfold_faces_cover_full_surface(capsys, tmp_path):
    # label the 26 boundary cells with distinct letters: the net must show
    # all 26, as 54 cells with corner/edge/face multiplicities 3/2/1
    from wordgrid.core import Alphabet, all_points, point_index
    letters = tuple(chr(ord("a") + i) for i in range(26))
    boundary = [p for p in all_points(3, 3) if p != (2, 2, 2)]
    cells = bytearray(27)
    for i, p in enumerate(boundary):
        cells[point_index(p, 3, 3)] = i
    cells[point_index((2, 2, 2), 3, 3)] = 0  # center reuses 'a', not on the net
    grid = Grid(n=3, d=3, alphabet=Alphabet(letters), cells=bytes(cells))
    path = write_cube(tmp_path, grid)
    code, out, _ = run(capsys, "unfold", path)
    assert code == 0
    net = "".join(ch for ch in out.split("center")[0] if ch.islower())
    assert len(net) == 54
    assert set(net) == set(letters)


# ---------------------------------------------------------------- errors

def test_bad_grid_file_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.wg1"
    path.write_text("WG1 d=2 n=3 sigma=AM\nAM\n")
    code, _, err = run(capsys, "count", "--word", "AM", "--grid", str(path))
    assert code == 1
    assert "error:" in err


def test_bad_sigma_exits_1_with_line_number(capsys, tmp_path):
    path = tmp_path / "bad.wg1"
    path.write_text("# repeated letter\nWG1 d=2 n=2 sigma=AA\nAA\nAA\n")
    code, out, err = run(capsys, "count", "--word", "AA", "--grid", str(path))
    assert code == 1
    assert out == ""
    assert "error: line 2:" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "count", "--word", "AM",
                       "--grid", str(tmp_path / "absent.wg1"))
    assert code == 1


def test_unknown_method_letter_errors(capsys):
    code, _, err = run(capsys, "construct", "--word", "AMM", "--method", "cross",
                       "--letter", "Z")
    assert code == 1


# ---------------------------------------------------------------- README

def readme_examples() -> list:
    """The `$ wordgrid ...` commands of README.md's example block, with the text shown."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("A few examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        assert command.startswith("$ wordgrid ")
        argv = shlex.split(command)[2:]
        examples.append(pytest.param(argv, "".join(line + "\n" for line in shown), id=argv[0]))
    return examples


@pytest.mark.parametrize("argv,shown", readme_examples())
def test_readme_example_prints_what_readme_shows(capsys, argv, shown):
    assert run(capsys, *argv)[:2] == (0, shown)
