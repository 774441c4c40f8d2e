"""Symmetric grids: the per-profile paths against the pointwise reference.

The reference wraps the same rule as a plain `Grid.procedural`, which
`to_dense` and `estimate_fraction` read point by point.
"""

import itertools
import random
import tracemalloc
from collections import OrderedDict

import pytest

from wordgrid.constructions import (
    DENSE_CAP,
    _constant_result,
    _parity_rule,
    counterpoint_grid,
    parity_grid,
)
from wordgrid import core
from wordgrid.core import Alphabet, Grid, Word
from wordgrid.occurrence import estimate_fraction

W = Word.from_string


def pointwise(g: Grid) -> Grid:
    return Grid.procedural(g.n, g.d, g.alphabet, g.rule)


def antisymmetric_words(n: int) -> list[Word]:
    words = []
    for half in itertools.product("AM", repeat=n // 2):
        tail = "".join("M" if c == "A" else "A" for c in reversed(half))
        words.append(W("".join(half) + tail))
    return words


def dimensions(n: int, max_cells: int) -> range:
    return range(1, next(d for d in itertools.count(1) if n**d > max_cells))


COUNTERPOINT_WORDS = {3: ("AMM", "ABC", "AMA"), 4: ("AMMA", "ABCA", "AMAM"),
                      5: ("AMAMM", "ABCDE", "AABAA")}


def test_symmetric_grid_is_marked_and_keeps_its_rule():
    rule = lambda p: sum(p) % 2  # noqa: E731
    g = Grid.symmetric(3, 4, Alphabet(("A", "M")), rule)
    assert g.permutation_invariant and not g.dense and g.rule is rule
    assert g.at((1, 2, 3, 3)) == rule((1, 2, 3, 3))
    assert not Grid.procedural(3, 4, Alphabet(("A", "M")), rule).permutation_invariant
    assert not g.to_dense().permutation_invariant
    with pytest.raises(ValueError, match="procedural"):
        Grid(n=2, d=1, alphabet=Alphabet(("A",)), cells=bytes(2), permutation_invariant=True)
    with pytest.raises(ValueError, match="dense cap"):
        g.to_dense(cap=80)


@pytest.mark.parametrize("letter", [5, 256, -1])
@pytest.mark.parametrize("make", [Grid.procedural, Grid.symmetric])
def test_rule_letters_outside_the_alphabet_are_refused_on_every_path(make, letter):
    # on a symmetric grid `to_dense` reads `_cells_by_profile` and the estimator
    # the profile reader; on any other rule grid both read point by point
    g = make(3, 2, Alphabet(("A", "M")), lambda p: letter if p == (1, 1) else 0)
    paths = [lambda: g.at((1, 1)), g.to_dense,
             lambda: estimate_fraction(W("AMM"), g, 2000, random.Random(3))]
    for path in paths:
        with pytest.raises(ValueError, match="cell letter index out of alphabet range"):
            path()
    assert g.at((1, 2)) == 0


@pytest.mark.parametrize("n", sorted(COUNTERPOINT_WORDS))
def test_counterpoint_to_dense_matches_pointwise(n):
    for text in COUNTERPOINT_WORDS[n]:
        for d in dimensions(n, 4096):
            g = counterpoint_grid(W(text), d)
            assert g.permutation_invariant
            assert g.to_dense().cells == pointwise(g).to_dense().cells, (text, d)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_parity_to_dense_matches_pointwise(n):
    for w in antisymmetric_words(n):
        for d in dimensions(n, DENSE_CAP):
            want = Grid.procedural(n, d, w.alphabet, _parity_rule(w)).to_dense().cells
            assert parity_grid(w, d).grid.cells == want, (w.text, d)


def test_constant_to_dense_matches_pointwise():
    for text, d in (("AA", 5), ("AAA", 4), ("BBBB", 3), ("AA", 17), ("AAA", 11)):
        w = W(text)
        g = _constant_result(w, d).grid
        assert g.dense == (w.n**d <= DENSE_CAP)
        rule = _constant_result(w, 20).grid.rule  # n^20 cells: left procedural
        want = Grid.procedural(w.n, d, w.alphabet, rule).to_dense().cells
        assert g.to_dense().cells == want == bytes(w.n**d)


def test_parity_grid_class_map_memory_is_bounded(monkeypatch):
    # n=100 d=2: 5,050 classes for 10,000 cells; a dict of sorted-point tuples
    # per call peaked at 0.72 MB here, the cached numpy map at 0.33 MB cold
    w = W("AM" * 50)
    monkeypatch.setattr(core, "_tables", OrderedDict())
    for _ in ("cold", "warm"):
        tracemalloc.start()
        try:
            g = parity_grid(w, 2).grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.dense and peak < 500_000, peak


@pytest.mark.parametrize("text,d,samples", [
    ("AMM", 3, 1000), ("AMM", 12, 1000), ("AMM", 40, 500), ("AMMAM", 12, 500),
    ("ABCA", 6, 1000),
    # a mixed-radix profile key, sum of c_j (d+1)^j, would pass 2^63 here
    ("ABCDEFGHIJKL", 40, 400),
])
def test_estimate_fraction_matches_pointwise(text, d, samples):
    w = W(text)
    g = counterpoint_grid(w, d)
    for seed in (1, 2, 31337):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = estimate_fraction(w, g, samples, rng)
        want = estimate_fraction(w, pointwise(g), samples, ref_rng)
        assert got == want, (seed, got, want)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n,d", [(3, 2), (3, 7), (4, 5), (5, 12), (3, 40)])
def test_estimate_fraction_on_arbitrary_symmetric_rules_matches_pointwise(n, d):
    # the construction rules are also symmetric under mirroring one coordinate,
    # which hides a '-' read as '+'; a rule of the sorted point alone is not
    ab = Alphabet(("A", "M"))
    rule = lambda p: random.Random(str(sorted(p))).randrange(2)  # noqa: E731
    g = Grid.symmetric(n, d, ab, rule)
    w = Word.from_string("AM" + "M" * (n - 2), ab)
    for seed in (1, 2):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = estimate_fraction(w, g, 3000, rng)
        assert got == estimate_fraction(w, pointwise(g), 3000, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate()


def test_estimate_fraction_on_symmetric_parity_grid_matches_pointwise():
    w = W("AMAM")
    g = parity_grid(w, 9).grid  # 4^9 cells: left procedural
    assert g.permutation_invariant
    for seed in (4, 5):
        got = estimate_fraction(w, g, 2000, random.Random(seed))
        assert got == estimate_fraction(w, pointwise(g), 2000, random.Random(seed))


def test_estimate_fraction_memory_does_not_grow_with_samples():
    w = W("AMM")
    g = counterpoint_grid(w, 40)
    peaks = []
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            estimate_fraction(w, g, samples, random.Random(8))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_estimate_fraction_memory_grows_with_n_squared_not_n_cubed():
    # n=200: a one-hot (n+2, n^2) int64 symbol-to-profile matrix peaked at
    # 73 MB here; the per-symbol adds into the chunk's (1, n, n) profiles at 5 MB
    w = W("A" * 100 + "M" * 100)
    g = parity_grid(w, 3).grid  # 200^3 cells: left procedural
    assert g.permutation_invariant
    tracemalloc.start()
    try:
        got = estimate_fraction(w, g, 10, random.Random(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak
    assert got == estimate_fraction(w, pointwise(g), 10, random.Random(3))
