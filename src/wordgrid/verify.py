"""Named verification checks with expected and measured values.

Each check states what it verifies and how the expected value is obtained
(closed form, independent oracle, or frozen hand-checked instance). The fast
suite runs in seconds; the full suite adds the solver sweeps and the
high-dimensional property checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .bounds import (exact_formula_d, f1_exact, f1_subadditivity_check, product_grid, sandwich_2d,
                     upper_bound_d)
from .constructions import (
    _candidates,
    counterpoint_grid,
    cross_grid,
    flip_line_points,
    parity_grid,
    quad_grid,
    sample_counter_point,
    sample_odd_flip_set,
    sigma_parity_check,
    stripe_grid,
)
from .core import Word, word_stats
from .lines import count_lines, count_segments, enumerate_lines, enumerate_segments, sample_line
from .occurrence import count_segments_word, count_word, estimate_fraction
from .solver import SolveConfig, solve, solve_oracle

W = Word.from_string


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: str
    got: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class Check:
    check_id: str
    fast: bool
    run: Callable[[], CheckResult]


def _sweep(check_id: str, expected: str, failures: list[str], detail: str = "") -> CheckResult:
    got = expected if not failures else f"failed: {'; '.join(failures[:3])}"
    return CheckResult(check_id, expected, got, detail)


def _optima(check_id: str, expected: str, cases: list[tuple[Word, int]]) -> CheckResult:
    """Solve each (word, expected optimum) on the n x n grid and list the misses."""
    failures = []
    for w, want in cases:
        got = solve(w, w.n, 2).optimum
        if got != want:
            failures.append(f"{w.text}: {got} != {want}")
    return _sweep(check_id, expected, failures)


# ------------------------------------------------------------------ criterion 1

def check_line_tallies() -> CheckResult:
    failures = []
    for n in range(2, 7):
        for d in range(1, 6):
            per_weight, total = count_lines(n, d)
            seen: dict[int, int] = {}
            for ln in enumerate_lines(n, d):
                seen[ln.weight] = seen.get(ln.weight, 0) + 1
            if seen != per_weight or sum(seen.values()) != total:
                failures.append(f"(n={n},d={d})")
    return _sweep("line-tallies", "enumeration matches closed form, n=2..6 d=1..5", failures)


def check_segment_tallies() -> CheckResult:
    failures = []
    for n in range(2, 7):
        for d in range(1, 4):
            for k in range(2, n + 1):
                want = ((3 * n - 2 * k + 2) ** d - n**d) // 2
                if count_segments(n, d, k) != want:
                    failures.append(f"(n={n},d={d},k={k})")
                if sum(1 for _ in enumerate_segments(n, d, k)) != want:
                    failures.append(f"enum (n={n},d={d},k={k})")
    return _sweep("segment-tallies",
                  "enumeration matches closed form, n=2..6 d=1..3 k=2..n", failures)


# --------------------------------------------------------------- criteria 2 & 3

def check_optimum_amm_2d() -> CheckResult:
    res = solve(W("AMM"), 3, 2)
    return CheckResult("optimum-amm-2d", "optimum 5", f"optimum {res.optimum}")


def check_optimum_amm_3d() -> CheckResult:
    cfg = SolveConfig(enumerate_witnesses=True)
    res = solve(W("AMM"), 3, 3, cfg)
    return CheckResult("optimum-amm-3d", "optimum 28, 3 classes",
                       f"optimum {res.optimum}, {res.classes} classes")


# ------------------------------------------------------------------ criterion 4

def check_two_block_sweep() -> CheckResult:
    cases = [(W("A" * k + "M" * (n - k)), max(2 * (n - k) + 1, 4 * k))
             for n in range(2, 6) for k in range(1, n // 2 + 1)]
    return _optima("two-block-sweep", "solver matches max(2(n-k)+1, 4k), n=2..5", cases)


# ------------------------------------------------------------------ criterion 5

def check_palindrome_sweep() -> CheckResult:
    # the length-3 alternating palindrome resolves to 6 = max(n, 2k)+2, not
    # n+2: the 6-line grid AMA/MMM/AMA is hand-verifiable and the symmetry
    # defect ceiling matches, so the larger value is asserted
    words = [W("".join(half) + "".join(half[: n // 2][::-1]))
             for n in range(2, 6) for half in itertools.product("AM", repeat=(n + 1) // 2)]
    cases = [(w, max(w.n, 2 * word_stats(w).kmax) + 2) for w in words] + [(W("AMA"), 6)]
    return _optima("palindrome-sweep",
                   "solver matches max(n, 2k)+2 on binary palindromes, n<=5", cases)


# ------------------------------------------------------------------ criterion 6

def _antisymmetric_words(n: int) -> list[Word]:
    words = []
    for half in itertools.product("AM", repeat=n // 2):
        tail = "".join("M" if c == "A" else "A" for c in reversed(half))
        words.append(W("".join(half) + tail))
    return words


def check_antisymmetric_sweep() -> CheckResult:
    cases = [(w, 2 * n) for n in (2, 4) for w in _antisymmetric_words(n)]
    return _optima("antisymmetric-sweep",
                   "solver gives 2n on binary antisymmetric words, n<=5", cases)


# ------------------------------------------------------------------ criterion 7

def check_parity_meets_ceiling() -> CheckResult:
    # all words for n <= 8; the alternating word for larger sides
    cases: list[tuple[Word, int]] = []
    for n in (2, 4, 6, 8):
        words = _antisymmetric_words(n)
        d = 1
        while n**d <= 10**6:
            cases.extend((w, d) for w in words)
            d += 1
    for n in (10, 12, 20, 100, 1000):
        w = W("AM" * (n // 2))
        d = 1
        while n**d <= 10**6:
            cases.append((w, d))
            d += 1
    failures = []
    for w, d in cases:
        n = w.n
        want = ((n + 2) ** d - (n - 2) ** d) // 4
        r = parity_grid(w, d)
        ceiling = upper_bound_d(w, d)
        formula = exact_formula_d(w, d)
        if not (r.achieved == want == ceiling == r.guaranteed
                and formula == (want, "antisymmetric")):
            failures.append(f"{w.text} d={d}")
    return _sweep("parity-meets-ceiling",
                  "construction count equals ceiling on all feasible sizes", failures)


# ------------------------------------------------------------------ criterion 8

def construction_catalog() -> list[Word]:
    rng = random.Random(88)
    return [W("".join(rng.choice("AMB") for _ in range(rng.randint(2, 7))))
            for _ in range(50)]


def check_construction_certificates() -> CheckResult:
    # ConstructionResult refuses achieved < guaranteed, so building every
    # candidate is the check; a refusal fails it through run_suite
    for w in construction_catalog():
        _candidates(w, 2)
    frozen = [
        (cross_grid(W("BAACA"), "A").guaranteed >= 7, "cross BAACA"),
        (cross_grid(W("ABACA"), "A").guaranteed >= 8, "cross ABACA"),
        (quad_grid(W("AMAAM"), "A", "M").guaranteed >= 8, "quad AMAAM"),
        (stripe_grid(W("AMAAM")).guaranteed >= 7, "stripe AMAAM"),
    ]
    return _sweep("construction-certificates",
                  "achieved >= guaranteed on the 50-word catalog and frozen instances",
                  [name for ok, name in frozen if not ok])


# ------------------------------------------------------------------ criterion 9

def check_oracle_equivalence() -> CheckResult:
    rng = random.Random(99)
    words = [W("".join(bits)) for n in (3, 4) for bits in itertools.product("AM", repeat=n)]
    words += [W("".join(rng.choice("ABC") for _ in range(3))) for _ in range(20)]
    return _optima("oracle-equivalence",
                   "search equals exhaustive tensor count on small instances",
                   [(w, solve_oracle(w, w.n, 2)) for w in words])


# ----------------------------------------------------------------- criterion 10

def check_row_optimum() -> CheckResult:
    failures = []
    rng = random.Random(404)
    for trial in range(25):
        k = rng.randint(2, 4)
        n = rng.randint(k, 9 if trial < 20 else 10)
        w = W("".join(rng.choice("ABC") for _ in range(k)))
        syms = sorted(set(w.symbols))
        fwd, bwd = w.symbols, w.symbols[::-1]
        brute = max(
            sum(1 for i in range(n - k + 1) if row[i:i + k] in (fwd, bwd))
            for row in itertools.product(syms, repeat=n)
        )
        if f1_exact(w, n).value != brute:
            failures.append(f"{w.text} n={n}")
    for w in (W("AB"), W("ABC"), W("ABCD")):
        for n in range(w.n, 13):
            if not f1_subadditivity_check(w, n):
                failures.append(f"subadditivity {w.text} n={n}")
    for _ in range(30):
        k = rng.randint(2, 4)
        n = rng.randint(k, 9)
        w = W("".join(rng.choice("ABC") for _ in range(k)))
        lower, upper = sandwich_2d(w, n)
        counted = count_segments_word(w, product_grid(w, n))
        if not lower <= counted <= upper:
            failures.append(f"sandwich {w.text} n={n}")
    ratio = f1_exact(W("ABCD"), 30).value / 30
    if abs(ratio - 1 / 3) > 0.15 / 3:
        failures.append(f"density {ratio:.3f}")
    return _sweep("row-optimum",
                  "row DP matches brute force; growth and sandwich bounds hold",
                  failures)


# ----------------------------------------------------------------- criterion 11

def check_high_dim_properties() -> CheckResult:
    failures = []
    rng = random.Random(7171)
    combos = [(n, d) for n in (3, 4, 5) for d in range(3, 9)]
    per_combo = 10_000 // len(combos) + 1
    for n, d in combos:
        checked = 0
        while checked < per_combo:
            ln = sample_line(n, d, rng)
            if ln.weight % 2 == 0:
                continue
            if not sigma_parity_check(ln, n):
                failures.append(f"sigma (n={n},d={d})")
                break
            checked += 1
    w = W("AMM")
    for d in (40, 80):
        g = counterpoint_grid(w, d)
        for _ in range(500):
            p = sample_counter_point(3, d, rng)
            flips = sample_odd_flip_set(p, 3, rng)
            reading = tuple(g.at(q) for q in flip_line_points(p, flips, 3))
            if reading not in (w.symbols, w.symbols[::-1]):
                failures.append(f"flip line d={d}")
                break
    frac, radius = estimate_fraction(w, counterpoint_grid(w, 12),
                                     samples=100_000, rng=random.Random(2718))
    return _sweep("high-dim-properties", "parity sides and flip lines hold; fraction measured",
                  failures, detail=f"fraction {frac:.4f} +- {radius:.4f} at n=3 d=12")


# ----------------------------------------------------------------- criterion 12

def check_worker_determinism() -> CheckResult:
    failures = []
    instances = [
        (W("AMM"), 3, 2, True),
        (W("AMM"), 3, 3, True),
        (W("AAAAM"), 5, 2, False),
        (W("AAAMM"), 5, 2, False),
    ]
    for w, n, d, enum in instances:
        texts = {
            solve(w, n, d, SolveConfig(workers=k, enumerate_witnesses=enum)).canonical_text()
            for k in (1, 2, 8)
        }
        if len(texts) != 1:
            failures.append(f"{w.text} n={n} d={d}")
    return _sweep("worker-determinism",
                  "canonical output identical across 1, 2, 8 workers", failures)


CHECKS: tuple[Check, ...] = (
    Check("line-tallies", True, check_line_tallies),
    Check("segment-tallies", True, check_segment_tallies),
    Check("optimum-amm-2d", True, check_optimum_amm_2d),
    Check("optimum-amm-3d", False, check_optimum_amm_3d),
    Check("two-block-sweep", False, check_two_block_sweep),
    Check("palindrome-sweep", False, check_palindrome_sweep),
    Check("antisymmetric-sweep", False, check_antisymmetric_sweep),
    Check("parity-meets-ceiling", True, check_parity_meets_ceiling),
    Check("construction-certificates", True, check_construction_certificates),
    Check("oracle-equivalence", False, check_oracle_equivalence),
    Check("row-optimum", False, check_row_optimum),
    Check("high-dim-properties", False, check_high_dim_properties),
    Check("worker-determinism", False, check_worker_determinism),
)


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    selected = [c for c in CHECKS if suite == "full" or c.fast]
    return [_run(c) for c in selected]


def _run(check: Check) -> CheckResult:
    """The check's result, or a failed one naming the exception it raised."""
    try:
        return check.run()
    except Exception as exc:  # a raising check fails; the suite goes on
        return CheckResult(check.check_id, "no exception",
                           f"raised {type(exc).__name__}: {exc}")
