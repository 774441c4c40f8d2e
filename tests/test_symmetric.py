"""Symmetric grids: the per-profile paths against the pointwise reference.

The reference wraps the same rule as a plain `Grid.procedural`, which
`to_dense` and `estimate_fraction` read point by point.
"""

import dataclasses
import itertools
import random
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from wordgrid.constructions import (
    DENSE_CAP,
    _constant_result,
    _counterpoint_rules,
    _parity_batch,
    _parity_letters,
    _parity_rule,
    counterpoint_grid,
    parity_grid,
)
from wordgrid import constructions, core
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
    batch = lambda counts: counts[:, 1::2].sum(axis=1) % 2  # noqa: E731
    with pytest.raises(ValueError, match="procedural"):
        Grid(n=2, d=1, alphabet=Alphabet(("A",)), cells=bytes(2), batch_rule=batch)
    for cap in (80, float("nan")):  # 81 cells; NaN is no cap
        with pytest.raises(ValueError, match="above the dense cap"):
            g.to_dense(cap=cap)
    with_batch = Grid.symmetric(3, 4, Alphabet(("A", "M")), rule, batch)
    assert with_batch.batch_rule is batch and with_batch.rule is rule
    assert with_batch.to_dense().batch_rule is None
    # a rule grid with a batch rule is a symmetric grid
    direct = Grid(n=3, d=4, alphabet=Alphabet(("A", "M")), rule=rule, batch_rule=batch)
    assert direct.permutation_invariant and direct == with_batch


def test_derived_batch_rule_calls_the_rule_once_per_distinct_profile_per_call():
    calls = []

    def rule(p):
        calls.append(p)
        return sum(p) % 3

    batch = Grid.symmetric(4, 3, Alphabet(("A", "B", "C")), rule).batch_rule
    counts = np.array([[1, 0, 2, 0], [0, 0, 0, 3], [1, 0, 2, 0], [0, 3, 0, 0], [0, 0, 0, 3]])
    for _ in ("first call", "second call"):
        calls.clear()
        assert batch(counts).tolist() == [1, 0, 1, 0, 0]
        assert calls == [(1, 3, 3), (4, 4, 4), (2, 2, 2)]


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


@pytest.mark.parametrize("make", [
    Grid.procedural, Grid.symmetric,
    # a batch rule giving 1.5 on the profile of (1, 1) and 0 elsewhere
    lambda n, d, ab, rule: Grid.symmetric(n, d, ab, rule,
                                          lambda counts: np.where(counts[:, 0] == 2, 1.5, 0)),
])
def test_rule_letters_that_are_not_integers_are_refused_on_every_path(make):
    g = make(3, 2, Alphabet(("A", "M")), lambda p: 1.5 if p == (1, 1) else 0)
    paths = [lambda: g.at((1, 1)), g.to_dense,
             lambda: estimate_fraction(W("AMM"), g, 2000, random.Random(3))]
    for path in paths:
        with pytest.raises(ValueError, match="cell letter index must be an integer"):
            path()
    assert g.at((1, 2)) == 0


@pytest.mark.parametrize("batch,message", [
    (lambda counts: np.where(counts[:, 0] == 2, 5, 0), "out of alphabet range"),
    (lambda counts: np.zeros(len(counts) + 1, dtype=int), "batch rule gave shape"),
    (lambda counts: 0, "batch rule gave shape"),
])
def test_batch_letters_are_checked_like_rule_letters(batch, message):
    g = Grid.symmetric(3, 2, Alphabet(("A", "M")), lambda p: 0, batch)
    for path in (g.to_dense, lambda: estimate_fraction(W("AMM"), g, 2000, random.Random(3))):
        with pytest.raises(ValueError, match=message):
            path()


def test_batch_rule_replaces_the_rule_calls():
    w = W("AMMAM")
    rule, batch = _counterpoint_rules(w, 6)
    calls = []
    g = Grid.symmetric(5, 6, w.alphabet, lambda p: calls.append(p) or rule(p), batch)
    assert g.to_dense().cells == pointwise(g).to_dense().cells
    calls.clear()
    got = estimate_fraction(w, g, 3000, random.Random(6))
    assert not calls
    assert got == estimate_fraction(w, pointwise(g), 3000, random.Random(6))


def profile_rows(n, d):
    """Every profile class of [n]^d, enumerated apart from `core._profile_classes`,
    in blocks of (sorted points, count rows)."""
    classes = itertools.combinations_with_replacement(range(1, n + 1), d)
    while block := list(itertools.islice(classes, max(1, 2**16 // n))):
        counts = np.zeros((len(block), n), dtype=np.int64)
        np.add.at(counts, (np.arange(len(block)).repeat(d), np.array(block).ravel() - 1), 1)
        yield block, counts


def assert_batch_is_the_rule(rule, batch, n, d):
    for points, counts in profile_rows(n, d):
        got = batch(counts)
        assert np.issubdtype(got.dtype, np.integer), (n, d)
        assert got.tolist() == [rule(p) for p in points], (n, d)


def test_parity_batch_is_the_rule_on_every_profile_class():
    # every word n <= 8 and the alternating words above, at every d of
    # criterion 7 (n^d <= 10^6)
    cases = [(w, n) for n in (2, 4, 6, 8) for w in antisymmetric_words(n)]
    cases += [(W("AM" * (n // 2)), n) for n in (10, 12, 20, 100, 1000)]
    for w, n in cases:
        for d in dimensions(n, 10**6):
            letters = _parity_letters(w)
            assert_batch_is_the_rule(_parity_rule(letters), _parity_batch(letters), n, d)


@pytest.mark.parametrize("text", ["AMM", "ABC", "AMMA", "ABCA", "AMAMM", "AMA", "ABBA",
                                  "AMMAM", "ABCDE", "ABCDEFG"])
def test_counterpoint_batch_is_the_rule_on_every_profile_class(text):
    w = W(text)
    for d in dimensions(w.n, 10**6 * w.n):  # n^(d-1) <= 10^6
        assert_batch_is_the_rule(*_counterpoint_rules(w, d), w.n, d)
    if text == "AMM":
        for d in (40, 80):
            assert_batch_is_the_rule(*_counterpoint_rules(w, d), w.n, d)


def test_construction_grids_carry_their_batch_rules():
    grids = [counterpoint_grid(W("AMM"), 40), parity_grid(W("AMAM"), 9).grid,
             _constant_result(W("AAA"), 11).grid]
    for g in grids:
        assert g.permutation_invariant and g.batch_rule is not None
    const = grids[2]
    assert_batch_is_the_rule(const.rule, const.batch_rule, 3, 11)


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
            rule = _parity_rule(_parity_letters(w))
            want = Grid.procedural(n, d, w.alphabet, rule).to_dense().cells
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
    # per call peaked at 0.72 MB here, the cached numpy map at 0.33 MB cold.
    # The batch rule reads count rows in blocks: unblocked, n=100 d=2 would
    # build a 5050 x 100 int64 matrix. At d = 1 the rule is read cell by cell
    for w, d in ((W("AM" * 50), 2), (W("AM" * 500), 1)):
        monkeypatch.setattr(core, "_tables", OrderedDict())
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                g = parity_grid(w, d).grid
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert g.dense and peak < 500_000, (w.n, d, peak)


def spy(f, calls):
    """f, recording each argument it is called with in `calls`."""
    def spied(x):
        calls.append(x)
        return f(x)
    return spied


def test_one_dimensional_symmetric_to_dense_reads_the_rule_cell_by_cell(monkeypatch):
    # at d = 1 every point is its own profile class: the rule is called once
    # per cell, and no class map, count row or batch call is made; at
    # n = 65,536 the count rows took 83 s
    rule_calls, batch_calls = [], []
    monkeypatch.setattr(core, "_tables", OrderedDict())
    user = lambda p: p[0] % 3  # noqa: E731
    g = Grid.symmetric(9, 1, Alphabet(("A", "B", "C")), spy(user, rule_calls))
    g = dataclasses.replace(g, batch_rule=spy(g.batch_rule, batch_calls))
    assert g.to_dense().cells == bytes(x % 3 for x in range(1, 10))
    assert rule_calls == [(x,) for x in range(1, 10)]

    rule_calls.clear()
    rule, batch = constructions._parity_rule, constructions._parity_batch
    monkeypatch.setattr(constructions, "_parity_rule",
                        lambda letters: spy(rule(letters), rule_calls))
    monkeypatch.setattr(constructions, "_parity_batch",
                        lambda letters: spy(batch(letters), batch_calls))
    w = W("AM" * 32768)
    r = parity_grid(w, 1)
    assert r.grid.dense and r.achieved == 1
    assert rule_calls == [(x,) for x in range(1, w.n + 1)]
    assert r.grid.cells == bytes(x % 2 for x in range(1, w.n + 1))  # M at odd x
    assert not batch_calls and not core._tables


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
