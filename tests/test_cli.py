"""CLI: golden output, exit codes, and WG1 round-trips through files."""

import contextlib
import io
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from wordgrid import constructions
from wordgrid.cli import main
from wordgrid.core import Grid, Word, infer_alphabet, parse_grid, serialize_grid
from wordgrid.occurrence import count_word
from wordgrid.solver import SolveConfig, solve
from wordgrid.verify import CHECKS


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
    assert out == ("1,1 ; 0,1\n2,1 ; 0,1\n3,1 ; 0,1\n1,1 ; 1,0\n1,2 ; 1,0\n1,3 ; 1,0\n"
                   "1,1 ; 1,1\n1,3 ; 1,-1\n")
    code, out, _ = run(capsys, "lines", "-n", "3", "-d", "2", "--weight", "2", "--list")
    assert code == 0
    assert out == "1,1 ; 1,1\n1,3 ; 1,-1\n"


@pytest.mark.parametrize("extra", [["--weight", "5"], ["--weight", "0", "--list"]])
def test_lines_weight_outside_dimension_exits_1(capsys, extra):
    code, out, err = run(capsys, "lines", "-n", "3", "-d", "2", *extra)
    assert code == 1
    assert out == ""
    assert "weight" in err


@pytest.mark.parametrize("argv", [["lines", "-n", "2", "-d", "9000"],
                                  ["segments", "-n", "3", "-d", "9000", "-k", "2"],
                                  ["bounds", "--word", "AMM", "-d", "9000"],
                                  ["construct", "--word", "AMM", "--method", "counterpoint",
                                   "-d", "10000"]])
def test_tally_too_long_to_print_exits_1_before_any_output(capsys, argv):
    # each refusal names what is too long: the lines tallies run past 4,300
    # digits from weight 1273 on, and the layered grid's cell count is printed
    # as a power, not in decimal
    messages = {
        "lines": "weight 1273 has too many digits to print",
        "segments": "total has too many digits to print",
        "bounds": "rule non-palindrome-d has too many digits to print",
        "construct": "grid has 3^10000 cells, above the dense cap 65536",
    }
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {messages[argv[0]]}\n"


def test_segments_total(capsys):
    code, out, _ = run(capsys, "segments", "-n", "5", "-d", "2", "-k", "2")
    assert code == 0
    assert out == "total 72\n"


def test_segments_listing(capsys):
    code, out, _ = run(capsys, "segments", "-n", "3", "-d", "2", "-k", "2", "--list")
    assert code == 0
    assert out == ("1,1 ; 0,1 ; k=2\n1,2 ; 0,1 ; k=2\n2,1 ; 0,1 ; k=2\n2,2 ; 0,1 ; k=2\n"
                   "3,1 ; 0,1 ; k=2\n3,2 ; 0,1 ; k=2\n1,1 ; 1,0 ; k=2\n1,2 ; 1,0 ; k=2\n"
                   "1,3 ; 1,0 ; k=2\n1,1 ; 1,1 ; k=2\n1,2 ; 1,1 ; k=2\n1,2 ; 1,-1 ; k=2\n"
                   "1,3 ; 1,-1 ; k=2\n2,1 ; 1,0 ; k=2\n2,2 ; 1,0 ; k=2\n2,3 ; 1,0 ; k=2\n"
                   "2,1 ; 1,1 ; k=2\n2,2 ; 1,1 ; k=2\n2,2 ; 1,-1 ; k=2\n2,3 ; 1,-1 ; k=2\n")


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


@pytest.mark.parametrize("extra", [["--method", "rows"], ["--method", "cross", "--letter", "M"],
                                   ["--method", "quad", "--letters", "A,M"],
                                   ["--method", "stripe"]],
                         ids=["rows", "cross", "quad", "stripe"])
def test_construct_2d_method_refuses_another_dimension(capsys, extra):
    code, out, err = run(capsys, "construct", "--word", "AMM", *extra, "-d", "3")
    assert (code, out) == (1, "")
    assert "d=2" in err and "d=3" in err
    for dims in ([], ["-d", "2"]):
        code, out, _ = run(capsys, "construct", "--word", "AMM", *extra, *dims)
        assert code == 0 and out.endswith("\n")


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


@pytest.mark.parametrize("flag, value, field", [("--time-budget", "nan", "time"),
                                                 ("--time-budget", "0", "time"),
                                                 ("--node-budget", "0", "node")])
def test_solve_refuses_a_budget_that_is_not_positive(capsys, flag, value, field):
    # a NaN time budget would never expire: the search would run to its end
    code, out, err = run(capsys, "solve", "--word", "ABCD", "-d", "3", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {field} budget must be positive\n"


def test_solve_refuses_an_empty_word_by_its_length(capsys):
    # the trailing comma gives an empty word
    code, out, err = run(capsys, "solve", "--words", "AMM,")
    assert (code, out, err) == (1, "", "error: words must have length >= 2\n")


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
    code_d, out_d, _ = run(capsys, *args, "-d", "3")
    assert (code_d, out_d) == (code, out)


def test_estimate_grid_file_refuses_another_dimension(capsys, tmp_path):
    grid_file = tmp_path / "amm.wg1"
    run(capsys, "construct", "--word", "AMM", "-d", "3", "--out", str(grid_file))
    code, out, err = run(capsys, "estimate", "--word", "AMM", "--grid", str(grid_file),
                         "-d", "7", "--samples", "300", "--seed", "5")
    assert (code, out) == (1, "")
    assert "d=3" in err and "d=7" in err


def test_estimate_readme_example_is_pinned(capsys):
    # the draws replay CPython's randrange; a change to it on any Python fails here
    code, out, _ = run(capsys, "estimate", "--word", "AMM", "-d", "12",
                       "--samples", "20000", "--seed", "7")
    assert (code, out) == (0, "fraction 0.278450\nradius 0.011509\nsamples 20000\n")


def replay_dense_fraction(grid: Grid, symbols: tuple, samples: int, seed: int) -> float:
    """The estimator's draws made with randrange and read point by point."""
    rng, n, d = random.Random(seed), grid.n, grid.d
    hits = 0
    for _ in range(samples):
        raw = [rng.randrange(n + 2) for _ in range(d)]
        while all(x < n for x in raw):
            raw = [rng.randrange(n + 2) for _ in range(d)]
        start = [x + 1 if x < n else (1 if x == n else n) for x in raw]
        step = [0 if x < n else (1 if x == n else -1) for x in raw]
        reading = tuple(grid.at(tuple(p + i * v for p, v in zip(start, step))) for i in range(n))
        hits += reading in (symbols, symbols[::-1])
    return hits / samples


def test_estimate_grid_file_matches_randrange_replay(capsys, tmp_path):
    cells = bytes(random.Random("cells").choices(range(2), k=4**3))
    grid = Grid(n=4, d=3, alphabet=infer_alphabet("AM"), cells=cells)
    path = tmp_path / "g.wg1"
    path.write_text(serialize_grid(grid), encoding="utf-8")
    code, out, _ = run(capsys, "estimate", "--word", "AMMA", "--grid", str(path),
                       "--samples", "3000", "--seed", "12")
    want = replay_dense_fraction(grid, Word.from_string("AMMA", grid.alphabet).symbols, 3000, 12)
    assert code == 0
    assert out.splitlines()[0] == f"fraction {want:.6f}"


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


def test_verify_reports_a_raising_check_as_failed_and_runs_the_rest(capsys, monkeypatch):
    # every 3x3 grid counts one line short, so a cross grid falls below its
    # certificate and ConstructionResult raises inside the check
    real = constructions.count_word

    def short(w, grid, *args, **kwargs):
        report = real(w, grid, *args, **kwargs)
        return SimpleNamespace(total=report.total - ((grid.n, grid.d) == (3, 2)))

    monkeypatch.setattr(constructions, "count_word", short)
    code, out, _ = run(capsys, "verify", "--suite", "fast")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == len([c for c in CHECKS if c.fast]) + 1
    cert = next(ln for ln in lines if "check=construction-certificates" in ln)
    assert re.search(r"got=\[raised AssertionError: cross\(A\) built a grid achieving \d+, "
                     r"below its certificate \d+\]", cert)
    assert cert.endswith("status=FAIL")
    assert "check=line-tallies" in lines[0] and lines[0].endswith("status=PASS")
    assert lines[-1].startswith("suite=fast checks=") and not lines[-1].endswith("failed=0")


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


def test_grid_files_are_utf8_under_the_c_locale(tmp_path):
    # with UTF-8 mode and locale coercion off, the locale's encoding is ASCII
    grid = tmp_path / "accent.wg1"
    grid.write_bytes("WG1 d=2 n=2 sigma=Aé\nAé\néA\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cli = [sys.executable, "-m", "wordgrid.cli"]
    done = subprocess.run([*cli, "count", "--word", "AA", "--grid", str(grid)],
                          env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"total 1\nweight 1: 0\nweight 2: 1\n", b"")

    # the C locale decodes argv as ASCII, so the word reaches main() from code
    out = tmp_path / "out.wg1"
    write = ("import sys; from wordgrid.cli import main; "
             "sys.exit(main(['construct', '--word', '\\u00e9AA', '--out', sys.argv[1]]))")
    done = subprocess.run([sys.executable, "-c", write, str(out)],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    text = out.read_bytes().decode("utf-8")
    assert text.startswith("WG1 d=2 n=3 sigma=") and "é" in text
    assert parse_grid(text).alphabet.letters == ("é", "A")


def test_letters_and_printed_grids_are_utf8_under_the_c_locale():
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    want = ("provenance cross(é)\nguaranteed 3\nachieved 3\n"
            "WG1 d=2 n=3 sigma=éA\néAA\nAAA\nAAA\n").encode("utf-8")
    # argv bytes the C locale cannot decode reach the parser as surrogate escapes
    argv = [b"construct", b"--word", "éAA".encode("utf-8"), b"--method", b"cross",
            b"--letter", "é".encode("utf-8")]
    done = subprocess.run([os.fsencode(sys.executable), b"-m", b"wordgrid.cli", *argv],
                          env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, b"")
    # the same call from code, printing the grid to stdout
    call = ("import sys; from wordgrid.cli import main; sys.exit(main(['construct', "
            "'--word', '\\u00e9AA', '--method', 'cross', '--letter', '\\u00e9']))")
    done = subprocess.run([sys.executable, "-c", call], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, b"")


def test_main_prints_to_a_redirected_string_stream():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["construct", "--word", "éAA", "--method", "cross", "--letter", "é"])
    assert code == 0
    assert out.getvalue().endswith("WG1 d=2 n=3 sigma=éA\néAA\nAAA\nAAA\n")


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
