"""Tests for word-occurrence counting, word sets, segments, and estimation."""

import itertools
import random
import re

import numpy as np
import pytest

from wordgrid import occurrence
from wordgrid.constructions import counterpoint_grid
from wordgrid.core import Alphabet, Grid, Word, all_points, all_symmetries, apply_symmetry
from wordgrid.lines import (
    DEFAULT_LINE_CAP,
    CanonicalLine,
    _draw_line_code,
    count_lines,
    enumerate_lines,
    enumerate_segments,
    line_points,
    segment_points,
)
from wordgrid.occurrence import (
    _dense_reader,
    _match,
    _probes,
    _symmetric_reader,
    count_segments_word,
    count_word,
    count_word_set,
    estimate_fraction,
    hoeffding_radius,
    is_diagonal_latin,
    line_contains,
)

MANY_GRID = Grid.from_rows(["AAA", "AMM", "AMM"])  # five AMM lines
LATIN4 = Grid.from_rows(["1234", "3412", "4321", "2143"], Alphabet(tuple("1234")))


def random_grid(rng, n, d, letters="AM"):
    cells = bytes(rng.randrange(len(letters)) for _ in range(n**d))
    return Grid(n=n, d=d, alphabet=Alphabet(tuple(letters)), cells=cells)


def random_antisymmetric_word(rng, n):
    # binary, w_i != w_{n-i+1} everywhere; needs even n
    half = [rng.choice("AM") for _ in range(n // 2)]
    tail = ["M" if ch == "A" else "A" for ch in reversed(half)]
    return Word.from_string("".join(half + tail), Alphabet(("A", "M")))


# ---------------------------------------------------------------- line_contains

def test_line_contains_examples():
    w = Word.from_string("AMM")
    row2 = CanonicalLine((2, 1), (0, 1), 1)
    assert line_contains(w, MANY_GRID, row2)
    all_a = Grid.from_rows(["AAA", "AAA", "AAA"], Alphabet(("A", "M")))
    for line in enumerate_lines(3, 2):
        assert not line_contains(w, all_a, line)
    pal = Word.from_string("AMA")
    grid = Grid.from_rows(["AMA", "MMM", "AMA"])
    assert line_contains(pal, grid, CanonicalLine((1, 1), (0, 1), 1))


def test_line_contains_length_mismatch():
    with pytest.raises(ValueError, match="^word length 2 != grid side 3$"):
        line_contains(Word.from_string("AM"), MANY_GRID, CanonicalLine((1, 1), (0, 1), 1))


def test_count_word_length_mismatch():
    # count_word is count_word_set of one word, whose per-word check names the length
    with pytest.raises(ValueError, match="^word length 4 != grid side 3$"):
        count_word(Word.from_string("AMMA"), MANY_GRID)
    with pytest.raises(ValueError, match="^word length 2 != grid side 3$"):
        count_word_set([Word.from_string("AMM"), Word.from_string("AM")], MANY_GRID)


def test_word_outside_grid_alphabet_rejected():
    with pytest.raises(ValueError):
        count_word(Word.from_string("XYZ"), MANY_GRID)


# ---------------------------------------------------------------- count_word

def test_count_word_many_grid():
    rep = count_word(Word.from_string("AMM"), MANY_GRID)
    assert rep.total == 5
    assert rep.per_weight == {1: 4, 2: 1}  # rows 2,3 + columns 2,3 + main diagonal


def test_count_word_constant_word():
    for n in (2, 3, 4, 5):
        g = Grid(n=n, d=2, alphabet=Alphabet(("A",)), cells=bytes(n * n))
        w = Word(Alphabet(("A",)), (0,) * n)
        assert count_word(w, g).total == 2 * n + 2


def test_count_word_2x2():
    g = Grid.from_rows(["AM", "AM"])
    assert count_word(Word.from_string("AM"), g).total == 4


def test_count_word_collects_matches():
    rep = count_word(Word.from_string("AMM"), MANY_GRID, collect_matches=True)
    assert rep.total == 5 and len(rep.matches) == 5
    assert CanonicalLine((1, 1), (1, 1), 2) in rep.matches
    for line in rep.matches:
        assert line_contains(Word.from_string("AMM"), MANY_GRID, line)


def test_count_word_stream_partition():
    w = Word.from_string("AMM")
    lines = list(enumerate_lines(3, 2))
    whole = count_word(w, MANY_GRID).total
    parts = [lines[0:3], lines[3:5], lines[5:]]
    assert sum(count_word(w, MANY_GRID, lines=part).total for part in parts) == whole


def test_count_word_refuses_tables_over_the_cap():
    g = Grid(n=3, d=11, alphabet=Alphabet(("A", "M")), cells=bytes(3**11))
    assert count_lines(3, 11)[1] == 24_325_489 > DEFAULT_LINE_CAP
    with pytest.raises(ValueError, match="estimate_fraction"):
        count_word(Word.from_string("AMM"), g)
    with pytest.raises(ValueError, match="estimate_fraction"):
        count_word(Word.from_string("AMM"), g, collect_matches=True)
    with pytest.raises(ValueError, match="table cap"):
        count_segments_word(Word.from_string("AM"), g)


def test_count_word_procedural_needs_stream():
    g = Grid.procedural(3, 2, Alphabet(("A", "M")), lambda p: 0)
    with pytest.raises(ValueError):
        count_word(Word.from_string("AAA"), g)
    rep = count_word(Word.from_string("AAA"), g, lines=enumerate_lines(3, 2))
    assert rep.total == 8


def test_count_word_stream_refuses_lines_of_another_dimension_on_every_grid_kind():
    g = Grid.procedural(3, 2, Alphabet(("A", "M")), lambda p: 0)
    stray = [CanonicalLine((1, 1, 1), (0, 0, 1), 1)]
    for grid in (g, g.to_dense()):
        with pytest.raises(ValueError, match="point has 3 coordinates, expected 2"):
            count_word(Word.from_string("AAA"), grid, lines=stray)


# ---------------------------------------------------------------- table kernel vs line stream

def planted_words(rng, g, count):
    """Readings of random lines of g (so each word occurs), plus one palindrome."""
    lines = list(enumerate_lines(g.n, g.d))
    texts = []
    for line in rng.sample(lines, min(count, len(lines))):
        texts.append("".join(g.letter_at(q) for q in line_points(line, g.n)))
    half = texts[0][: (g.n + 1) // 2]
    texts.append(half + half[: g.n // 2][::-1])
    return [Word.from_string(t, g.alphabet) for t in texts]


def assert_same_report(got, want):
    """Same counts as the stream; same matched lines too when got collected them."""
    assert (got.total, got.per_weight) == (want.total, want.per_weight)
    assert got.matches is None or got.matches == want.matches


def test_table_counts_match_line_stream():
    rng = random.Random(42)
    for n in range(2, 6):
        for d in range(1, 5):
            for letters in ("A", "AM", "AMX"):
                g = random_grid(rng, n, d, letters)
                words = planted_words(rng, g, 2)
                for w in words:
                    stream = count_word(w, g, lines=enumerate_lines(n, d), collect_matches=True)
                    assert_same_report(count_word(w, g, collect_matches=True), stream)
                    assert_same_report(count_word(w, g), stream)
                stream = count_word_set(words, g, lines=enumerate_lines(n, d), collect_matches=True)
                assert stream.total >= 1
                assert_same_report(count_word_set(words, g, collect_matches=True), stream)
                assert_same_report(count_word_set(words, g), stream)


@pytest.mark.parametrize("n, d", [(3, 5), (4, 4), (5, 3)])
def test_collected_matches_keep_line_order_across_weights(n, d):
    # the line table is grouped by weight, so the listing is rebuilt in
    # enumerate_lines order; matches here interleave three or more weights
    rng = random.Random(1000 * n + d)
    parity = Grid(n=n, d=d, alphabet=Alphabet(("A", "M")),
                  cells=bytes(sum(p) % 2 for p in all_points(n, d)))
    lines = list(enumerate_lines(n, d))
    for g in (parity, random_grid(rng, n, d), random_grid(rng, n, d, "AMX")):
        # one word read by a line of each weight, so every weight matches
        words = []
        for r in range(1, d + 1):
            line = rng.choice([line for line in lines if line.weight == r])
            text = "".join(g.letter_at(q) for q in line_points(line, n))
            words.append(Word.from_string(text, g.alphabet))
        if g is parity:
            words += [Word.from_string(("AM" * n)[:n], g.alphabet),
                      Word.from_string("A" * n, g.alphabet)]
        want = count_word_set(words, g, lines=lines, collect_matches=True)
        assert sum(1 for r in want.per_weight.values() if r) >= 3
        weights = [line.weight for line in want.matches]
        assert weights != sorted(weights)  # the stream order is not the table's
        got = count_word_set(words, g, collect_matches=True)
        assert (got.total, got.per_weight, got.matches) == (want.total, want.per_weight,
                                                             want.matches)
        for w in words:
            want = count_word(w, g, lines=lines, collect_matches=True)
            got = count_word(w, g, collect_matches=True)
            assert (got.total, got.per_weight, got.matches) == (want.total, want.per_weight,
                                                                 want.matches)


def test_segment_counts_match_segment_walk():
    rng = random.Random(43)
    for n in range(2, 6):
        for d in range(1, 4):
            g = random_grid(rng, n, d, "AMX"[: rng.randint(1, 3)])
            for k in range(2, n + 1):
                segs = list(enumerate_segments(n, d, k))
                readings = ["".join(g.letter_at(q) for q in segment_points(seg, n)) for seg in segs]
                for text in (readings[0], readings[-1], readings[0][0] * k):
                    w = Word.from_string(text, g.alphabet)
                    want = sum(1 for r in readings if r in (text, text[::-1]))
                    assert count_segments_word(w, g) == want, (n, d, k, text)


# ---------------------------------------------------------------- invariances

def test_reversal_symmetry():
    rng = random.Random(31)
    for _ in range(50):
        n, d = rng.choice([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
        g = random_grid(rng, n, d)
        text = "".join(rng.choice("AM") for _ in range(n))
        w = Word.from_string(text, Alphabet(("A", "M")))
        assert count_word(w, g).total == count_word(w.reversed_word(), g).total


def test_symmetry_invariance():
    rng = random.Random(32)
    w = Word.from_string("AMM")
    for _ in range(10):
        g = random_grid(rng, 3, 2)
        base = count_word(w, g).total
        for sym in all_symmetries(2):
            assert count_word(w, apply_symmetry(g, sym)).total == base


def test_renaming_invariance():
    rng = random.Random(33)
    for _ in range(30):
        n, d = rng.choice([(3, 2), (4, 2), (2, 3)])
        g = random_grid(rng, n, d, letters="AMX")
        text = "".join(rng.choice("AMX") for _ in range(n))
        w = Word.from_string(text, Alphabet(tuple("AMX")))
        renamed = {"A": "Q", "M": "R", "X": "S"}
        g2 = Grid(n=n, d=d, alphabet=Alphabet(tuple("QRS")), cells=g.cells)
        w2 = Word.from_string("".join(renamed[ch] for ch in text), Alphabet(tuple("QRS")))
        assert count_word(w, g).total == count_word(w2, g2).total


def test_mixed_alphabet_orders_translate():
    # same letters, different index order: counts must agree
    g = Grid.from_rows(["AMM", "MAM", "MMA"], Alphabet(("M", "A")))
    w = Word.from_string("AMM", Alphabet(("A", "M")))
    direct = Word.from_string("AMM", Alphabet(("M", "A")))
    assert count_word(w, g).total == count_word(direct, g).total


def test_antisymmetric_ceiling():
    rng = random.Random(34)
    for _ in range(40):
        n, d = rng.choice([(2, 2), (4, 2), (2, 3), (4, 3), (2, 4)])
        g = random_grid(rng, n, d)
        w = random_antisymmetric_word(rng, n)
        cap = ((n + 2) ** d - (n - 2) ** d) // 4
        assert count_word(w, g).total <= cap


def test_total_bounded_by_line_count():
    rng = random.Random(35)
    for _ in range(30):
        n, d = rng.choice([(2, 2), (3, 2), (3, 3)])
        g = random_grid(rng, n, d)
        text = "".join(rng.choice("AM") for _ in range(n))
        w = Word.from_string(text, Alphabet(("A", "M")))
        assert count_word(w, g).total <= count_lines(n, d)[1]


# ---------------------------------------------------------------- word sets

def test_diagonal_latin_square_reaches_ceiling():
    perms = [
        Word.from_string("".join(p), LATIN4.alphabet)
        for p in itertools.permutations("1234")
    ]
    rep = count_word_set(perms, LATIN4)
    assert rep.total == 10 == 2 * 4 + 2


def test_word_set_singleton_and_dedup():
    w = Word.from_string("AM")
    g = Grid.from_rows(["AM", "AM"])
    assert count_word_set([w], g).total == count_word(w, g).total
    both = [w, Word.from_string("MA", Alphabet(("A", "M")))]
    assert count_word_set(both, g).total == 4  # no double counting
    with pytest.raises(ValueError):
        count_word_set([], g)


def test_is_diagonal_latin():
    assert is_diagonal_latin(LATIN4)
    plain = Grid.from_rows(["1234", "2143", "3412", "4321"], Alphabet(tuple("1234")))
    assert not is_diagonal_latin(plain)  # Latin but main diagonal repeats
    with pytest.raises(ValueError):
        is_diagonal_latin(Grid.from_rows(["AB", "BA"], Alphabet(tuple("ABC"))))


def test_is_diagonal_latin_matches_line_walk():
    def by_walk(g):
        return all(len({g.at(q) for q in line_points(line, g.n)}) == g.n
                   for line in enumerate_lines(g.n, 2))

    rows = LATIN4.rows()
    grids = [Grid.from_rows([rows[i] for i in perm], LATIN4.alphabet)
             for perm in itertools.permutations(range(4))]
    rng = random.Random(41)
    grids += [random_grid(rng, n, 2, "ABCDE"[:n]) for n in (2, 3, 4, 5) for _ in range(30)]
    grids.append(Grid.procedural(4, 2, LATIN4.alphabet, LATIN4.at))
    verdicts = [is_diagonal_latin(g) for g in grids]
    assert verdicts == [by_walk(g) for g in grids]
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------- segments

def test_count_segments_word_degenerates_to_lines():
    rng = random.Random(36)
    for _ in range(200):
        n, d = rng.choice([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
        g = random_grid(rng, n, d)
        text = "".join(rng.choice("AM") for _ in range(n))
        w = Word.from_string(text, Alphabet(("A", "M")))
        assert count_segments_word(w, g) == count_word(w, g).total


def test_count_segments_word_small():
    g = Grid.from_rows(["AB", "AB"])
    assert count_segments_word(Word.from_string("AB"), g) == 4
    # k > n is refused by the segment table's count
    with pytest.raises(ValueError, match=r"^segment length k=3 out of \[2, n=2\]$"):
        count_segments_word(Word.from_string("ABC"), g)
    with pytest.raises(ValueError, match=r"^segment length k=4 out of \[2, n=3\]$"):
        count_segments_word(Word.from_string("AMMA"), MANY_GRID)


def test_segments_in_stacked_rows():
    # G(i, j) = G'(j) stacks an optimal 1-d grid; rows alone give f1 * n copies
    word = Word.from_string("AB")
    row = "ABAB"
    g = Grid.from_rows([row] * 4)
    n, k = 4, 2
    assert count_segments_word(word, g) >= 3 * (3 * n - 4 * k)


# ---------------------------------------------------------------- estimation

def test_estimate_fraction_constant():
    g = Grid.from_rows(["AA", "AA"], Alphabet(("A", "M")))
    frac, radius = estimate_fraction(Word.from_string("AA", g.alphabet), g, 500, random.Random(1))
    assert frac == 1.0
    assert radius == pytest.approx(hoeffding_radius(500))


def test_estimate_fraction_parity_grid():
    # n=2, d=5 parity coloring: exactly the odd-weight lines read AM
    ab = Alphabet(("A", "M"))
    g = Grid.procedural(2, 5, ab, lambda p: sum(p) % 2)
    w = Word.from_string("AM", ab)
    exact = count_word(w, g.to_dense()).total
    assert exact == 256
    assert count_lines(2, 5)[1] == 496
    frac, radius = estimate_fraction(w, g, 10_000, random.Random(77))
    assert abs(frac - 256 / 496) < radius


@pytest.mark.parametrize("text, d", [("AMM", 4), ("AMAM", 3), ("AMM", 8), ("AMA", 4),
                                     ("ABBA", 3)])
def test_estimate_fraction_dense_matches_pointwise(text, d):
    # dense grids read a drawn line by flat index and symmetric grids by
    # profile class; the reference wraps the same letters as a procedural grid,
    # read point by point. The random grid (its alphabet in the other order)
    # is not symmetric, so it catches a misplaced coordinate; the materialized
    # counterpoint grid is the CLI's --grid case, and the counterpoint grid
    # itself the layered one. A palindrome leaves one probe to match.
    w = Word.from_string(text)
    n = w.n
    flipped = "".join(w.alphabet.letters[::-1])
    grids = [random_grid(random.Random(f"{text} {d}"), n, d, letters=flipped),
             counterpoint_grid(w, d).to_dense(), counterpoint_grid(w, d)]
    for g in grids:
        assert g.dense or g.permutation_invariant
        ref = Grid.procedural(n, d, g.alphabet, g.at)
        for seed in (3, 4, 5):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = estimate_fraction(w, g, 2_000, rng)
            assert got == estimate_fraction(w, ref, 2_000, ref_rng), seed
            assert rng.getstate() == ref_rng.getstate()


class CountingRandom(random.Random):
    """A `random.Random` that counts its `getrandbits` calls; the stream is unchanged."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [2, 3, 5, 130])
def test_match_reads_short_and_tall_chunks_alike(n):
    # fewer rows than probe positions compares whole rows, more compares
    # columns; both are the rows whose reading is a probe, planted or not
    rng = random.Random(n)
    cells = bytes(range(3)) + bytes(rng.randrange(3) for _ in range(4 * n))
    for rows in (0, 1, n - 1, n, n + 1, 3 * n):
        idx = np.array([[rng.randrange(4 * n) for _ in range(n)] for _ in range(rows)],
                       dtype=np.int64).reshape(rows, n)
        row = tuple(rng.randrange(2) for _ in range(n))
        for probes in (_probes([row]), _probes([row, tuple(cells[:n])])):
            hits = set(rng.sample(range(rows), rows // 2))
            for r in hits:  # plant a probe in half the rows
                idx[r] = [cells.index(a) for a in probes[0]]
            want = [tuple(cells[i] for i in r) in probes for r in idx.tolist()]
            got = _match(cells, np.asfortranarray(idx), probes)
            assert got.dtype == bool and got.tolist() == want, (rows, probes)


def test_estimate_fraction_reads_one_draw_stream():
    # one stream per estimate, not one per chunk: 270 calls at this seed when
    # each of the 25 chunks of BATCH_VALUES values ended its own stream
    w = Word.from_string("AMM")
    g = counterpoint_grid(w, 40)
    rng, ref = CountingRandom(40), random.Random(40)
    assert estimate_fraction(w, g, 10_000, rng) == estimate_fraction(w, g, 10_000, ref)
    assert rng.getstate() == ref.getstate()
    assert rng.calls <= 60, rng.calls


def test_estimate_fraction_draws_one_line_chunks_in_long_rounds():
    # n = 130: n^2 > BATCH_VALUES, so each symmetric chunk is one line; rounds
    # of one line's d words made 85,140 getrandbits calls at this seed
    w = Word.from_string("A" * 65 + "M" * 65)
    rng, ref = CountingRandom(7), random.Random(7)
    got = estimate_fraction(w, counterpoint_grid(w, 3), 2_000, rng)
    assert got == (0.986, hoeffding_radius(2_000))  # as tests/estimates.txt pins it
    for _ in range(2_000):
        _draw_line_code(130, 3, ref)
    assert rng.getstate() == ref.getstate()
    assert rng.calls <= 400, rng.calls


def test_estimate_fraction_sizes_dense_chunks_by_n(monkeypatch):
    # a dense chunk holds (lines, n) flat indices, so a 200 x 200 grid reads
    # BATCH_VALUES // 200 = 81 lines per chunk, not the one line an (n, n)
    # profile buffer per line would allow
    chunks = []

    def spy(grid):
        read = _dense_reader(grid)

        def counted(codes):
            chunks.append(len(codes))
            return read(codes)
        return counted
    monkeypatch.setattr(occurrence, "_dense_reader", spy)
    w = Word.from_string("A" * 100 + "M" * 100)
    estimate_fraction(w, counterpoint_grid(w, 2).to_dense(), 2_000, random.Random(6))
    assert len(chunks) == 25 and set(chunks[:-1]) == {81} and sum(chunks) == 2_000


@pytest.mark.parametrize("samples", [2.5, 1e3, float("nan")])
def test_estimate_fraction_refuses_sample_counts_that_are_not_integers(samples):
    # dense, symmetric and pointwise grids; NaN passes a `samples < 1` test
    w = Word.from_string("AMM")
    grids = [counterpoint_grid(w, 2).to_dense(), counterpoint_grid(w, 2),
             Grid.procedural(3, 2, w.alphabet, lambda p: 0)]
    message = re.escape(f"sample count must be an integer, not {samples!r}")
    for g in grids:
        with pytest.raises(TypeError, match=message):
            estimate_fraction(w, g, samples, random.Random(1))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="need at least one sample"):
                estimate_fraction(w, g, bad, random.Random(1))
        # an integer type other than int is an integer
        assert estimate_fraction(w, g, np.int64(50), random.Random(1)) == estimate_fraction(
            w, g, 50, random.Random(1))


def test_probes_are_each_row_then_its_reversal_without_repeats():
    assert _probes([(0, 1, 1)]) == [(0, 1, 1), (1, 1, 0)]
    assert _probes([(0, 1, 0)]) == [(0, 1, 0)]  # a palindrome reads one way
    # a row already present as another's reversal keeps its first place
    assert _probes([(0, 1, 1), (1, 1, 0), (2, 0, 1)]) == [(0, 1, 1), (1, 1, 0), (2, 0, 1),
                                                          (1, 0, 2)]


def walk_code(grid, code):
    """Letters along a drawn line, decoded by hand: a value x < n is the
    numeral x+1, n is '+' (1 upward) and n+1 is '-' (n downward)."""
    n = grid.n
    p = [x + 1 if x < n else (1 if x == n else n) for x in code]
    v = [0 if x < n else (1 if x == n else -1) for x in code]
    return [grid.at(tuple(pj + i * vj for pj, vj in zip(p, v))) for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_readers_match_pointwise_walk_on_every_code(n):
    # every drawn code with a sign, read unoriented, as estimate_fraction reads it
    letters = "ABCD"[:n]
    for d in range(1, 5):
        rng = random.Random(f"{n} {d}")
        codes = np.array([c for c in itertools.product(range(n + 2), repeat=d)
                          if max(c) >= n])
        dense = random_grid(rng, n, d, letters)
        classes = {q: rng.randrange(n)
                   for q in itertools.combinations_with_replacement(range(1, n + 1), d)}
        symmetric = Grid.symmetric(n, d, dense.alphabet, lambda p: classes[tuple(sorted(p))])
        for grid, reader in ((dense, _dense_reader), (symmetric, _symmetric_reader)):
            want = [walk_code(grid, code) for code in codes.tolist()]
            cells, idx = reader(grid)(codes)
            got = np.frombuffer(cells, dtype=np.uint8)[idx]
            assert got.tolist() == want, (n, d, reader.__name__)


def test_estimate_fraction_procedural_smoke():
    ab = Alphabet(("A", "M", "X"))
    g = Grid.procedural(3, 8, ab, lambda p: (p[0] + 2 * p[1] + p[7]) % 3)
    w = Word.from_string("AMX", ab)
    frac, radius = estimate_fraction(w, g, 2_000, random.Random(9))
    assert 0.0 <= frac <= 1.0 and radius > 0
