"""Counting symmetric grids by line class against the dense count and the
closed forms it replaces; construction grids built only when read; the
pinned samples against the exact fractions the class count gives.

The reference for every class count is `count_word` on the materialized
grid, read through `segment_table`; where that table is over the cap, the
parity closed form `_parity_achieved` or the line total of a constant grid.
"""

import hashlib
import itertools
import math
import re
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wordgrid import core, lines, verify
from wordgrid.bounds import bracket
from wordgrid.constructions import (
    DENSE_CAP,
    _candidates,
    _constant_result,
    _parity_achieved,
    _parity_letters,
    best_construction,
    counterpoint_grid,
    parity_grid,
)
from wordgrid.core import Alphabet, Grid, Word, word_stats
from wordgrid.lines import DEFAULT_LINE_CAP, count_lines, line_class_table
from wordgrid.occurrence import count_word, count_word_set

W = Word.from_string


def cns_rank(values) -> int:
    """The combinatorial-number-system rank of a multiset of 0-based values,
    as `core._profile_classes` defines it: sorted, sum_j C(a_j + j, j + 1)."""
    return sum(math.comb(a + j, j + 1) for j, a in enumerate(sorted(values)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_class_table_ranks_every_step_of_every_class(n):
    for d in range(1, 6):
        counts, codes, idx, starts, reps = line_class_table(n, d)
        rows = len(counts)
        assert rows == math.comb(n + d + 1, d) - math.comb(n + d - 1, d)
        assert len({tuple(c) for c in counts.tolist()}) == rows  # each class once
        assert (counts.sum(axis=1) == d).all()
        for r in range(1, d + 1):
            signs = counts[starts[r - 1]:starts[r], n:]
            assert (signs.sum(axis=1) == r).all()
            # two codes per line: weight r's classes hold twice its lines
            assert int(codes[starts[r - 1]:starts[r]].sum()) == 2 * count_lines(n, d)[0][r]
        for c, row in enumerate(counts.tolist()):
            assert codes[c] == math.factorial(d) // math.prod(map(math.factorial, row))
            for i in range(n):
                values = [x for x in range(n) for _ in range(row[x])]
                values += [i] * row[n] + [n - 1 - i] * row[n + 1]
                assert idx[c, i] == cns_rank(values), (n, d, c, i)
        assert len(reps) == math.comb(n + d - 1, d)
        step, row = np.divmod(reps, rows)
        assert (idx[row, step] == np.arange(len(reps))).all()


def dense_reference(cache, w: Word, g: Grid, kind: str):
    """Dense count of a construction grid, kept per word symbols: words that
    differ only in letter names have the same symbols, so the same cells."""
    key = (w.symbols, kind, g.d)
    if key not in cache:
        report = count_word(w, g.to_dense())
        cache[key] = report.total, report.per_weight
    return cache[key]


def test_class_count_equals_the_dense_count_on_every_construction():
    # every parity, constant and counterpoint grid of every {A,M,B} word of
    # length 2..5 at each d >= 3 with n^d <= DENSE_CAP; where the line table
    # is over the cap (n = 2 from d = 12), the closed forms stand in
    cache, cases, closed = {}, 0, 0
    for n in range(2, 6):
        for letters in itertools.product("AMB", repeat=n):
            w = W("".join(letters))
            st = word_stats(w)
            for d in itertools.takewhile(lambda d: n**d <= DENSE_CAP, itertools.count(3)):
                grids = []
                if st.kmax == n:
                    grids.append(("constant", _constant_result(w, d).built))
                elif st.binary and st.antisymmetric:
                    grids.append(("parity", parity_grid(w, d).built))
                if n >= 3:
                    grids.append(("counterpoint", counterpoint_grid(w, d)))
                for kind, g in grids:
                    assert g.permutation_invariant and not g.dense
                    got = count_word(w, g)
                    if count_lines(n, d)[1] <= DEFAULT_LINE_CAP:
                        want = dense_reference(cache, w, g, kind)
                    else:
                        per_weight = count_lines(n, d)[0]
                        if kind == "parity":  # odd weights read w, once each side
                            per_weight = {r: c if r % 2 else 0 for r, c in per_weight.items()}
                            assert sum(per_weight.values()) == \
                                _parity_achieved(n, d, _parity_letters(w)[2])
                        want = sum(per_weight.values()), per_weight
                        closed += 1
                    assert (got.total, got.per_weight) == want, (w.text, kind, d)
                    cases += 1
    assert (cases, closed) == (1926, 45)


def test_class_count_of_a_word_set_equals_the_dense_count():
    for text, others, d in (("AMM", ["MAM", "MMA"], 6), ("ABCA", ["ACBA", "BBCA"], 4),
                            ("AMAMM", ["MMAMA", "AAMMM"], 5)):
        w = W(text)
        g = counterpoint_grid(w, d)
        words = [w] + [W(t, w.alphabet) for t in others]
        for subset in (words[:2], words):
            got = count_word_set(subset, g)
            want = count_word_set(subset, g.to_dense())
            assert (got.total, got.per_weight) == (want.total, want.per_weight), (text, d)
            assert got.total >= count_word(w, g).total


def test_class_count_equals_the_parity_closed_form_on_criterion_7_cases():
    # criterion 7's sides n <= 20 (n^d <= 10^6), all of them here in about a second;
    # its n = 100 and 1000 cases build a letter per profile class at n^2 or n^3 / 6
    def words(n):
        if n > 8:
            return [W("AM" * (n // 2))]
        return [W("".join(half) + "".join("M" if c == "A" else "A" for c in reversed(half)))
                for half in itertools.product("AM", repeat=n // 2)]
    cases = 0
    for n in (2, 4, 6, 8, 10, 12, 20):
        for w in words(n):
            for d in itertools.takewhile(lambda d: n**d <= 10**6, itertools.count(1)):
                r = parity_grid(w, d)
                assert count_word(w, r.built).total == r.achieved == \
                    ((n + 2) ** d - (n - 2) ** d) // 4, (w.text, d)
                cases += 1
    assert cases == 241


def test_class_count_reads_letters_outside_the_word_alphabet_of_the_grid():
    # a grid over more letters than the word, and a word whose letters are
    # renamed into the grid's alphabet, as `_word_symbols` does for dense grids
    ab = Alphabet(("X", "A", "M"))
    rule = lambda p: 1 + sum(p) % 2 if max(p) < 3 else 0  # noqa: E731
    g = Grid.symmetric(3, 4, ab, rule)
    for text in ("AMA", "MAM", "XAX", "AMM"):
        w = W(text)
        assert count_word(w, g) == count_word(w, g.to_dense()), text
    with pytest.raises(ValueError, match="outside the grid alphabet"):
        count_word(W("ABA"), g)


def test_class_count_refuses_listing_matches():
    g = counterpoint_grid(W("AMM"), 3)
    with pytest.raises(ValueError, match="dense grid or a line stream"):
        count_word(W("AMM"), g, collect_matches=True)
    streamed = count_word(W("AMM"), g, lines=lines.enumerate_lines(3, 3), collect_matches=True)
    assert streamed.total == count_word(W("AMM"), g).total == len(streamed.matches)


def test_amm_at_d_40_is_counted_exactly_and_quickly():
    w = W("AMM")
    start = time.perf_counter()
    report = count_word(w, counterpoint_grid(w, 40))
    elapsed = time.perf_counter() - start
    assert report.total == 1_663_866_754_590_880_731_391_590_400  # far past 2^63
    assert sum(report.per_weight.values()) == report.total
    # the table took 0.07 s and the count 0.01 s on a 2-CPU machine
    assert elapsed < 5, elapsed
    assert best_construction(w, 40).achieved == report.total
    total = count_lines(3, 40)[1]
    assert f"{report.total / total:.6f}" == "0.365888"


def test_class_table_is_sized_before_anything_is_built(monkeypatch):
    monkeypatch.setattr(core, "_tables", OrderedDict())
    # the rows C(n+d+1, d) - C(n+d-1, d) pass the cap at AMM d = 103
    assert lines._class_table_fits(3, 102) and not lines._class_table_fits(3, 103)
    assert math.comb(3 + 103 + 1, 103) - math.comb(3 + 103 - 1, 103) > DEFAULT_LINE_CAP
    # the profile classes C(n+d-1, d) pass it first when n is far above d
    assert math.comb(4000 + 2 - 1, 2) > DEFAULT_LINE_CAP
    assert not lines._class_table_fits(4000, 2)
    w = W("AMM")
    start = time.perf_counter()
    for d in (103, 9000):
        with pytest.raises(ValueError, match=f"table cap {DEFAULT_LINE_CAP}"):
            count_word(w, counterpoint_grid(w, d))
        assert best_construction(w, d).achieved == 0
    assert time.perf_counter() - start < 1
    # a smaller cap refuses a table that fits the default one, and the
    # construction falls back to 0 without building it
    monkeypatch.setattr(lines, "DEFAULT_LINE_CAP", 1000)
    assert len(line_class_table(3, 10)[0]) == 935
    with pytest.raises(ValueError, match="table cap 1000"):
        count_word(w, counterpoint_grid(w, 11))  # 1,287 rows
    assert best_construction(w, 11).achieved == 0
    assert list(core._tables) == [("line_class_table", 3, 10)]


# ---------------------------------------------------------------- lazy grids

def test_criterion_7_and_bracket_materialize_no_grid(monkeypatch):
    calls = []
    to_dense = Grid.to_dense

    def counted(self, cap=None):
        calls.append((self.n, self.d))
        return to_dense(self, cap)

    monkeypatch.setattr(Grid, "to_dense", counted)
    assert verify.check_parity_meets_ceiling().passed
    # bracket's lower end is the best construction's count, by line class at d >= 3
    for text in ("AMM", "ABCA", "AMAMM", "AM", "AAA", "AMAM"):
        for d in (3, 4, 5):
            assert bracket(W(text), d).lower == best_construction(W(text), d).achieved
    assert calls == []
    r = best_construction(W("AMM"), 3)
    assert r.grid is r.grid and calls == [(3, 3)]  # materialized on the first read, once


# sha256 of the `.grid` cells, concatenated in case order, taken when the
# builders still materialized their grids, so reading them lazily moves no
# byte; the cases are the (word, d) with n^d <= DENSE_CAP that the parity,
# constant and counterpoint tests use
GRID_DIGESTS = {
    "parity": "512db9df03bfb6d1d22d0a92ac29bc6dbb0be5b8a9094e8f42373c455274e602",
    "constant": "83f93640fbe3c899ab20bfe1ed1ce660b7e4314d47fab1ccc9552fe2128cd119",
    "counterpoint": "23ed86e1b5dcc1be125e403054603eaecac98ad3547023b5268c1487714ef5df",
}


def antisymmetric_words(n: int) -> list[Word]:
    return [W("".join(half) + "".join("M" if c == "A" else "A" for c in reversed(half)))
            for half in itertools.product("AM", repeat=n // 2)]


def test_lazy_grid_reads_the_same_cells_as_before():
    results = {
        "parity": [parity_grid(w, d) for n in (2, 4, 6, 8, 10) for w in antisymmetric_words(n)
                   for d in range(1, 13) if n**d <= 4096],
        "constant": [_constant_result(W("A" * n), d) for n in range(2, 6) for d in (2, 3, 4)],
        "counterpoint": [best_construction(W(text), d) for text, d in
                         (("AMM", 3), ("ABC", 5), ("ABCA", 4), ("AMAMM", 6), ("AMM", 10))]
        + [_candidates(W("".join(letters)), d)[-1] for n in range(3, 6)
           for letters in itertools.product("ABM", repeat=n) for d in (3, 4)],
    }
    for kind, rs in results.items():
        assert all(r.provenance == kind for r in rs)
        assert all(not r.built.dense and r.built.permutation_invariant for r in rs)
        digest = hashlib.sha256(b"".join(r.grid.cells for r in rs)).hexdigest()
        assert (len(rs), digest) == ({"parity": 240, "constant": 12, "counterpoint": 707}[kind],
                                     GRID_DIGESTS[kind])


def test_lazy_grid_above_the_cap_stays_procedural():
    for r in (parity_grid(W("AM"), 17), _constant_result(W("AAA"), 11),
              best_construction(W("AMM"), 11)):
        assert r.built.n**r.built.d > DENSE_CAP
        assert r.grid is r.built and not r.grid.dense and r.grid.permutation_invariant
    # a 2-D builder's dense grid reads as it was built
    r = best_construction(W("AMM"), 2)
    assert r.grid is r.built and r.grid.dense


# ---------------------------------------------------------------- pinned samples

ROOT = Path(__file__).resolve().parents[1]


def exact_fraction(w: Word, grid: Grid) -> Fraction:
    return Fraction(count_word(w, grid).total, count_lines(grid.n, grid.d)[1])


def test_pinned_samples_contain_the_exact_fractions():
    # README's estimate example
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shown = re.search(r"\$ wordgrid estimate --word AMM -d 12 .*\n"
                      r"fraction (\S+)\nradius (\S+)\n", readme)
    exact = exact_fraction(W("AMM"), counterpoint_grid(W("AMM"), 12))
    assert f"{float(exact):.6f}" == "0.279126"
    assert abs(exact - Fraction(shown[1])) <= Fraction(shown[2])
    # tests/estimates.txt, in the order the CI step writes it; the grid files
    # it samples are the best ABBA grid at d = 3, the AMAM parity grid at
    # d = 4 and the 2-D layered grid of A^65 M^65
    long = "A" * 65 + "M" * 65
    cases = [("AMA", counterpoint_grid(W("AMA"), 12)),
             ("AMMA", counterpoint_grid(W("AMMA"), 9)),
             ("ABBA", best_construction(W("ABBA"), 3).grid),
             ("AMAM", parity_grid(W("AMAM"), 4).grid),
             ("AMM", counterpoint_grid(W("AMM"), 40)),
             ("AMMAM", counterpoint_grid(W("AMMAM"), 12)),
             (long, counterpoint_grid(W(long), 3)),
             (long, counterpoint_grid(W(long), 2))]
    pinned = re.findall(r"fraction (\S+)\nradius (\S+)\n",
                        (ROOT / "tests" / "estimates.txt").read_text(encoding="utf-8"))
    assert len(pinned) == len(cases)
    for (text, grid), (fraction, radius) in zip(cases, pinned):
        exact = exact_fraction(W(text), grid)
        assert abs(exact - Fraction(fraction)) <= Fraction(radius), (text[:5], grid.d)
    assert f"{float(exact_fraction(W('AMMA'), cases[1][1])):.6f}" == "0.624120"
    # verify full's sampled fraction at n = 3, d = 12, rounded to 4 places
    full = (ROOT / "tests" / "verify_full.txt").read_text(encoding="utf-8")
    fraction, radius = re.search(r"fraction (\S+) \+- (\S+) at n=3 d=12", full).groups()
    exact = exact_fraction(W("AMM"), counterpoint_grid(W("AMM"), 12))
    assert abs(exact - Fraction(fraction)) <= Fraction(radius)
