"""Acceptance gate: the twelve criteria, one pass/fail line each.

Every criterion delegates to a named check in wordgrid.verify so that the
CLI `verify` command and this gate cannot drift apart. Budgets are wall-clock
ceilings pinned here; a criterion fails on a wrong value or a blown budget.
"""

import time
from types import SimpleNamespace

import wordgrid.verify as verify_mod
from wordgrid.solver import solve as real_solve
from wordgrid.verify import (
    CheckResult,
    check_antisymmetric_sweep,
    check_construction_certificates,
    check_high_dim_properties,
    check_line_tallies,
    check_optimum_amm_2d,
    check_optimum_amm_3d,
    check_oracle_equivalence,
    check_palindrome_sweep,
    check_parity_meets_ceiling,
    check_row_optimum,
    check_segment_tallies,
    check_two_block_sweep,
    check_worker_determinism,
)


def _gate(num: int, budget_s: float, *checks) -> None:
    start = time.perf_counter()
    results: list[CheckResult] = [run() for run in checks]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed <= budget_s
    names = "+".join(r.check_id for r in results)
    print(f"criterion {num:02d} [{names}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s of {budget_s:.0f}s)")
    for r in results:
        if r.detail:
            print(f"  {r.check_id}: {r.detail}")
        assert r.passed, f"criterion {num}: expected [{r.expected}] got [{r.got}]"
    assert elapsed <= budget_s, f"criterion {num}: {elapsed:.1f}s over {budget_s}s"


def test_criterion_01_line_and_segment_tallies():
    _gate(1, 10.0, check_line_tallies, check_segment_tallies)


def test_criterion_02_optimum_amm_2d():
    _gate(2, 1.0, check_optimum_amm_2d)


def test_criterion_03_optimum_amm_3d_with_classes():
    _gate(3, 600.0, check_optimum_amm_3d)


def test_criterion_04_two_block_sweep():
    _gate(4, 300.0, check_two_block_sweep)


def test_criterion_05_palindrome_sweep():
    _gate(5, 300.0, check_palindrome_sweep)


def test_criterion_06_antisymmetric_sweep():
    _gate(6, 60.0, check_antisymmetric_sweep)


def test_criterion_07_parity_meets_ceiling():
    _gate(7, 120.0, check_parity_meets_ceiling)


def test_criterion_08_construction_certificates():
    _gate(8, 120.0, check_construction_certificates)


def test_criterion_09_oracle_equivalence():
    _gate(9, 300.0, check_oracle_equivalence)


def test_criterion_10_row_optimum_bounds():
    _gate(10, 300.0, check_row_optimum)


def test_criterion_11_high_dimensional_properties():
    _gate(11, 600.0, check_high_dim_properties)


def test_criterion_11_fails_when_no_flip_line_is_counted(monkeypatch):
    monkeypatch.setattr(verify_mod, "count_flip_lines", lambda w, d: (0, 0))
    assert check_high_dim_properties().got == (
        "failed: flip lines d=40: 0 of 0 read AMM; flip lines d=80: 0 of 0 read AMM")


def test_criterion_12_worker_determinism():
    _gate(12, 300.0, check_worker_determinism)


def _solve_missing(monkeypatch, misses: set[str]) -> None:
    """Make verify's solve miss the named words and solve the rest."""
    def solve(w, n, d, *args):
        return SimpleNamespace(optimum=-1) if w.text in misses else real_solve(w, n, d, *args)

    monkeypatch.setattr(verify_mod, "solve", solve)


def test_solver_sweeps_list_the_first_three_misses_in_case_order(monkeypatch):
    _solve_missing(monkeypatch, {"AMM", "AAMM", "AMMMM", "AAMMM"})
    assert check_two_block_sweep().got == (
        "failed: AMM: -1 != 5; AAMM: -1 != 8; AMMMM: -1 != 9")
    # binary words of length 3, then 4, then the seeded ABC words
    _solve_missing(monkeypatch, {"MAM", "AMMA", "CAA", "ABA"})
    assert check_oracle_equivalence().got == (
        "failed: MAM: -1 != 6; AMMA: -1 != 6; CAA: -1 != 5")
