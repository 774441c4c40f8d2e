"""Tests for core types: indexing, word stats, symmetries, and the WG1 codec."""

import itertools
import math
import random
import time
from collections import OrderedDict

import numpy as np
import pytest

from wordgrid import core
from wordgrid.core import (
    Alphabet,
    Grid,
    GridFormatError,
    GridSymmetry,
    Word,
    all_points,
    all_symmetries,
    apply_symmetry,
    index_point,
    infer_alphabet,
    parse_grid,
    point_index,
    serialize_grid,
    symmetry_cell_tables,
    word_stats,
)
from wordgrid.lines import segment_table


# ---------------------------------------------------------------- indexing

def test_point_index_corners():
    assert point_index((1, 1), 3, 2) == 0
    assert point_index((3, 3), 3, 2) == 8
    assert point_index((2, 1, 3), 3, 3) == 11


def test_point_index_bijection_exhaustive():
    for n in range(1, 5):
        for d in range(1, 5):
            pts = list(all_points(n, d))
            assert len(pts) == n**d
            for idx, p in enumerate(pts):
                assert point_index(p, n, d) == idx
                assert index_point(idx, n, d) == p


def test_point_index_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        point_index((0, 1), 3, 2)
    with pytest.raises(ValueError):
        point_index((1, 4), 3, 2)
    with pytest.raises(ValueError):
        point_index((1, 1, 1), 3, 2)
    with pytest.raises(ValueError):
        index_point(27, 3, 3)


# ---------------------------------------------------------------- alphabet / word

def test_alphabet_rules():
    a = Alphabet(("A", "M"))
    assert a.index("A") == 0 and a.index("M") == 1
    assert "A" in a and "X" not in a
    with pytest.raises(ValueError):
        Alphabet(("A", "A"))
    with pytest.raises(ValueError):
        Alphabet(tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZa"))
    with pytest.raises(ValueError):
        Alphabet(("A", " "))


def test_word_from_string():
    w = Word.from_string("AMM")
    assert w.alphabet.letters == ("A", "M")
    assert w.symbols == (0, 1, 1)
    assert w.text == "AMM"
    assert w.reversed_word().text == "MMA"
    assert infer_alphabet("MAM").letters == ("M", "A")
    # an empty word has no letters, but its error names the length, not the alphabet
    for short in ("A", ""):
        with pytest.raises(ValueError, match=r"^words must have length >= 2$"):
            Word.from_string(short)


def test_word_stats_amm():
    st = word_stats(Word.from_string("AMM"))
    assert st.counts == (1, 2)
    assert st.kmax == 2
    assert st.s == 1  # only the middle M pairs with itself
    assert not st.palindrome and st.binary and not st.antisymmetric
    assert st.t_set("A", "M") == frozenset({1})
    assert st.t_set("M", "A") == frozenset({3})
    assert st.t_set("M", "M") == frozenset({2})


def test_word_stats_special_shapes():
    pal = word_stats(Word.from_string("AMA"))
    assert pal.palindrome and pal.s == 3
    anti = word_stats(Word.from_string("AM"))
    assert anti.antisymmetric and anti.s == 0 and anti.binary


def test_word_stats_invariants_random():
    rng = random.Random(411)
    for _ in range(200):
        n = rng.randint(2, 12)
        text = "".join(rng.choice("ABC") for _ in range(n))
        st = word_stats(Word.from_string(text))
        assert sum(st.counts) == n
        assert 0 <= st.s <= n
        assert st.palindrome == (st.s == n)
        if st.antisymmetric:
            assert st.s == 0
        for a, m in itertools.product(st.word.alphabet.letters, repeat=2):
            assert st.t(a, m) == st.t(m, a)
            for i in st.t_set(a, m):
                assert (n - i + 1) in st.t_set(m, a)


# ---------------------------------------------------------------- grids

def test_grid_from_rows_and_at():
    g = Grid.from_rows(["AMM", "MAM", "MMA"])
    assert g.n == 3 and g.d == 2
    assert g.letter_at((1, 1)) == "A"
    assert g.letter_at((1, 2)) == "M"
    assert g.letter_at((3, 3)) == "A"
    assert g.rows() == ["AMM", "MAM", "MMA"]


def test_grid_cell_count_checked():
    ab = Alphabet(("A",))
    with pytest.raises(ValueError):
        Grid(n=2, d=2, alphabet=ab, cells=bytes(3))
    with pytest.raises(ValueError):
        Grid(n=2, d=2, alphabet=ab, cells=bytes([0, 0, 0, 1]))


def test_procedural_grid_matches_dense():
    ab = Alphabet(("A", "B"))
    rule = lambda p: (p[0] + p[1]) % 2
    g = Grid.procedural(3, 2, ab, rule)
    assert not g.dense
    dense = g.to_dense()
    for p in all_points(3, 2):
        assert g.at(p) == dense.at(p)
    with pytest.raises(ValueError):
        g.at((0, 1))
    for cap in (8, float("nan")):
        with pytest.raises(ValueError, match="above the dense cap"):
            g.to_dense(cap=cap)


@pytest.mark.parametrize("make", [Grid.procedural, Grid.symmetric])
def test_rule_grid_refuses_points_of_the_wrong_dimension_like_dense(make):
    ab = Alphabet(("A", "B"))
    g = make(3, 2, ab, lambda p: sum(p) % 2)
    for p in ((1,), (1, 2, 3)):
        for grid in (g, g.to_dense()):
            with pytest.raises(ValueError, match=f"point has {len(p)} coordinates, expected 2"):
                grid.at(p)
    for grid in (g, g.to_dense()):
        with pytest.raises(ValueError, match=r"coordinate 4 out of \[1, 3\] in point \(1, 4\)"):
            grid.at((1, 4))


# ---------------------------------------------------------------- profile classes

def _reference_cells_by_profile(n, d, rule):
    """The dict build the cached class map replaced: each level's classes keyed
    by sorted-point tuples, rebuilt on every call."""
    ids = np.zeros(1, dtype=np.int32)
    reps = [()]
    for j in range(d):
        grown = {}
        step = np.array([[grown.setdefault(tuple(sorted(rep + (x,))), len(grown))
                          for x in range(1, n + 1)] for rep in reps], dtype=np.int32)
        reps = list(grown)
        if j < d - 1:
            ids = step[ids].ravel()
    letters = np.array([rule(rep) for rep in reps], dtype=np.uint8)
    return letters[step][ids].tobytes()


def _sorted_point_rule(letters):
    # any function of the sorted point is a symmetric rule
    return lambda p: hash(tuple(sorted(p))) % letters


CLASS_MAP_SIZES = sorted({(n, d) for n in range(1, 65) for d in range(1, 13) if n**d <= 4096}
                         | {(1, 5), (2, 16), (16, 4), (256, 2), (65536, 1)})


@pytest.mark.parametrize("n,d", CLASS_MAP_SIZES)
def test_cells_by_profile_matches_dict_reference(n, d):
    rule = _sorted_point_rule(5)
    letters = Alphabet(tuple("ABCDE"))
    assert Grid.symmetric(n, d, letters, rule).to_dense().cells == _reference_cells_by_profile(
        n, d, rule)


@pytest.mark.parametrize("n,d", [(1, 5), (3, 4), (4, 1), (2, 9), (6, 3)])
def test_profile_classes_are_sorted_ranked_and_read_only(n, d):
    reps, step, ids = core._profile_classes(n, d)
    assert len(reps) == math.comb(n + d - 1, d)
    assert sorted(map(tuple, reps.tolist())) == list(itertools.combinations_with_replacement(
        range(1, n + 1), d))
    assert step.shape == (math.comb(n + d - 2, d - 1), n) and len(ids) == n ** (d - 1)
    for a in (reps, step, ids):
        assert a.dtype == np.int32 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # every cell's class is the class of its sorted point
    cls = step[ids].ravel()
    index = {tuple(p): c for c, p in enumerate(reps.tolist())}
    assert [index[tuple(sorted(p))] for p in all_points(n, d)] == cls.tolist()


def _held_bytes():
    return sum(size for _, size in core._tables.values())


def test_to_dense_calls_the_rule_once_per_class_cold_and_warm(monkeypatch):
    for n, d in ((3, 5), (2, 16), (7, 3), (1, 4)):
        calls = []

        def rule(p):
            calls.append(p)
            return sum(p) % 3

        g = Grid.symmetric(n, d, Alphabet(("A", "B", "C")), rule)
        monkeypatch.setattr(core, "_tables", OrderedDict())
        built = []
        for _ in ("cold", "warm"):
            calls.clear()
            dense = g.to_dense()
            assert len(calls) == len(set(calls)) == math.comb(n + d - 1, d)
            assert all(list(p) == sorted(p) for p in calls)
            assert dense.cells == Grid.procedural(n, d, g.alphabet, rule).to_dense().cells
            assert list(core._tables) == [("_profile_classes", n, d)]
            built.append(core._tables["_profile_classes", n, d][0])
        assert built[1] is built[0]  # the warm call read the cold call's map


def test_profile_class_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(core, "_tables", OrderedDict())
    monkeypatch.setattr(core, "TABLE_CACHE_BYTES", 100_000)
    for n in range(2, 41):  # the (40, 2) map alone is 13 KB, all of them 180 KB
        core._profile_classes(n, 2)
        assert _held_bytes() <= core.TABLE_CACHE_BYTES
        assert next(reversed(core._tables)) == ("_profile_classes", n, 2)
    assert ("_profile_classes", 2, 2) not in core._tables


def test_cached_tables_of_every_kind_share_one_byte_budget(monkeypatch):
    monkeypatch.setattr(core, "_tables", OrderedDict())
    monkeypatch.setattr(core, "TABLE_CACHE_BYTES", 150_000)
    calls = [  # bytes cached by each call in the comments
        lambda: core._profile_classes(30, 3),  # 118,920
        lambda: symmetry_cell_tables(3, 3),  # 5,184
        lambda: segment_table(5, 4, 5),  # 35,560: the class map goes
        lambda: Grid.symmetric(9, 4, Alphabet(("A", "B")), lambda p: p[0] % 2).to_dense(),
        lambda: core._profile_classes(30, 3),  # the symmetry and segment tables go
        lambda: symmetry_cell_tables(2, 5),  # 491,520: over the budget alone, kept alone
        lambda: segment_table(6, 3, 4),
    ]
    evicted = []
    for call in calls:
        order = list(core._tables)
        call()
        gone = [key for key in order if key not in core._tables]
        assert gone == order[: len(gone)]  # least recently used first
        evicted += [key[0] for key in gone]
        newest = next(reversed(core._tables))
        assert _held_bytes() <= core.TABLE_CACHE_BYTES or list(core._tables) == [newest]
        for table, size in core._tables.values():
            arrays = table if isinstance(table, tuple) else (table,)
            assert size == sum(a.nbytes for a in arrays)
            assert not any(a.flags.writeable for a in arrays)
    assert evicted == ["_profile_classes", "symmetry_cell_tables", "segment_table",
                       "_profile_classes", "_profile_classes", "symmetry_cell_tables"]
    assert list(core._tables) == [("segment_table", 6, 3, 4)]


def test_profile_classes_refuse_ids_past_int32():
    # C(65537, 2) classes overflow int32; refused before anything is allocated
    with pytest.raises(ValueError, match="int32"):
        core._profile_classes(65536, 2)


def _fresh_profile_classes(n, d):
    """`core._profile_classes`'s loop from j = 0, as it ran before it resumed
    from a smaller cached table: the reference the resumed tables must equal."""
    table = [np.arange(n, dtype=np.int64)]
    reps = np.zeros((1, 0), dtype=np.int32)
    ids = np.zeros(1, dtype=np.int32)
    for j in range(d):
        if j:
            table.append(np.cumsum(table[-1]))
        below = np.full((len(reps), 1, j + 1), -1, dtype=np.int32)
        above = np.full((len(reps), 1, j + 1), n, dtype=np.int32)
        below[:, 0, 1:] = above[:, 0, :j] = reps
        x = np.arange(n, dtype=np.int32)[:, None]
        grown = np.maximum(below, np.minimum(above, x)).reshape(-1, j + 1)
        ranks = sum(t[col] for t, col in zip(table, grown.T))
        step = ranks.astype(np.int32).reshape(len(reps), n)
        reps = np.empty((math.comb(n + j, j + 1), j + 1), dtype=np.int32)
        reps[ranks] = grown
        if j < d - 1:
            ids = step[ids].ravel()
    reps += 1
    return reps, step, ids


# n <= 8 at d <= 8, (2, 16) and (256, 2): the dimensions built for each side
RESUMED_SIZES = {n: range(1, 9) for n in range(1, 9)} | {2: range(1, 17), 256: range(1, 3)}


@pytest.mark.parametrize("n", sorted(RESUMED_SIZES))
def test_resumed_profile_classes_match_a_fresh_build(monkeypatch, n):
    dims = list(RESUMED_SIZES[n])
    want = {d: _fresh_profile_classes(n, d) for d in dims}

    def check(d):
        got = core._profile_classes(n, d)
        for a, b in zip(got, want[d], strict=True):
            assert a.dtype == np.int32 and not a.flags.writeable, (n, d)
            assert np.array_equal(a, b), (n, d)

    # rising d: each table resumes from the one before it
    monkeypatch.setattr(core, "_tables", OrderedDict())
    for d in dims:
        check(d)
    # falling d: the larger tables in the cache are never read
    monkeypatch.setattr(core, "_tables", OrderedDict())
    for d in reversed(dims):
        check(d)
    # a tiny budget keeps only the newest table: (n, d - 2) built after
    # (n, d - 1) evicts it, so (n, d) resumes from (n, d - 2)
    monkeypatch.setattr(core, "TABLE_CACHE_BYTES", 1)
    for d in dims[2:]:
        monkeypatch.setattr(core, "_tables", OrderedDict())
        core._profile_classes(n, d - 1)
        core._profile_classes(n, d - 2)
        assert list(core._tables) == [("_profile_classes", n, d - 2)]
        check(d)
        assert list(core._tables) == [("_profile_classes", n, d)]


def test_one_sided_grids_of_high_dimension_materialize(monkeypatch):
    # a class map built by nested calls per dimension would pass the
    # recursion limit here
    monkeypatch.setattr(core, "_tables", OrderedDict())
    one = Alphabet(("A",))
    assert Grid.symmetric(1, 600, one, lambda p: 0).to_dense().cells == bytes(1)
    # (1, 3000) resumed from a (1, 2999) table: one class, one prefix
    tables = [np.ones((1, 2999), dtype=np.int32), np.zeros((1, 1), dtype=np.int32),
              np.zeros(1, dtype=np.int32)]
    for a in tables:
        a.flags.writeable = False
    core._tables["_profile_classes", 1, 2999] = tuple(tables), sum(a.nbytes for a in tables)
    assert Grid.symmetric(1, 3000, one, lambda p: 0).to_dense().cells == bytes(1)
    reps, step, ids = core._tables["_profile_classes", 1, 3000][0]
    assert reps.tolist() == [[1] * 3000] and step.tolist() == [[0]] and ids.tolist() == [0]


def test_one_sided_grid_of_dimension_3000_materializes_cold(monkeypatch):
    # one gather per coordinate ranks the grown rows: cold, (1, 3000) takes
    # 0.08 s on a 2-CPU machine, against 7.7 s with j + 1 index calls at
    # coordinate j
    monkeypatch.setattr(core, "_tables", OrderedDict())
    start = time.perf_counter()
    assert Grid.symmetric(1, 3000, Alphabet(("A",)), lambda p: 0).to_dense().cells == bytes(1)
    assert time.perf_counter() - start < 2.0
    reps, step, ids = core._tables["_profile_classes", 1, 3000][0]
    assert reps.tolist() == [[1] * 3000] and step.tolist() == [[0]] and ids.tolist() == [0]


def test_word_stats_cache_is_bounded():
    assert word_stats.cache_info().maxsize is not None
    assert word_stats.cache_info().maxsize <= 4096


# ---------------------------------------------------------------- symmetries

def test_identity_and_transpose():
    g = Grid.from_rows(["AM", "AM"])
    ident = GridSymmetry.identity(2)
    assert apply_symmetry(g, ident).cells == g.cells
    swap = GridSymmetry((1, 0), (False, False))
    assert apply_symmetry(g, swap).rows() == ["AA", "MM"]


def test_symmetry_group_order():
    # a generic grid separates all group elements
    rng = random.Random(7)
    for d in (1, 2, 3):
        cells = bytes(rng.randrange(4) for _ in range(3**d))
        g = Grid(n=3, d=d, alphabet=Alphabet(tuple("ABCD")), cells=cells)
        group = all_symmetries(d)
        images = {apply_symmetry(g, s).cells for s in group}
        order = 2**d * [1, 1, 2, 6][d]
        assert len(group) == order
        assert len(images) == order


def test_symmetry_composition_law():
    rng = random.Random(8)
    cells = bytes(rng.randrange(4) for _ in range(9))
    g = Grid(n=3, d=2, alphabet=Alphabet(tuple("ABCD")), cells=cells)
    group = all_symmetries(2)
    for g1, g2 in itertools.product(group, repeat=2):
        lhs = apply_symmetry(apply_symmetry(g, g1), g2)
        rhs = apply_symmetry(g, g1.compose(g2))
        assert lhs.cells == rhs.cells


def test_symmetry_inverse_and_identity():
    for d in (1, 2, 3):
        ident = GridSymmetry.identity(d)
        for s in all_symmetries(d):
            assert s.compose(s.inverse()) == ident
            assert s.inverse().compose(s) == ident
            assert s.compose(ident) == s


def _reference_tables(n, d):
    """Each group element's flat cell map, one point at a time."""
    pts = list(all_points(n, d))
    return [[point_index(g.apply_point(p, n), n, d) for p in pts] for g in all_symmetries(d)]


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3),
                                  (3, 4), (2, 5), (3, 5), (2, 6)])
def test_symmetry_cell_tables_match_reference(n, d):
    tables = symmetry_cell_tables(n, d)
    assert tables.dtype == np.int32 and not tables.flags.writeable
    assert tables.shape == (2**d * math.factorial(d), n**d)
    assert tables.tolist() == _reference_tables(n, d)


@pytest.mark.parametrize("n, d", [(3, 3), (2, 4)])
def test_apply_symmetry_matches_per_point_reference(n, d):
    rng = random.Random(n * 10 + d)
    cells = bytes(rng.randrange(3) for _ in range(n**d))
    g = Grid(n=n, d=d, alphabet=Alphabet(tuple("ABC")), cells=cells)
    for s in all_symmetries(d):
        want = bytes(cells[point_index(s.apply_point(p, n), n, d)] for p in all_points(n, d))
        assert apply_symmetry(g, s).cells == want, s


def test_apply_symmetry_rejects_procedural():
    g = Grid.procedural(3, 2, Alphabet(("A",)), lambda p: 0)
    with pytest.raises(ValueError):
        apply_symmetry(g, GridSymmetry.identity(2))


# ---------------------------------------------------------------- WG1 codec

def test_parse_simple_document():
    g = parse_grid("WG1 d=2 n=2 sigma=AM\nAM\nMA\n")
    assert g.rows() == ["AM", "MA"]
    assert g.alphabet.letters == ("A", "M")


def test_parse_skips_comments():
    g = parse_grid("# witness grid\n# second note\nWG1 d=2 n=2 sigma=AM\nAM\nMA\n")
    assert g.rows() == ["AM", "MA"]


def test_serialize_is_canonical():
    g = Grid.from_rows(["AMM", "MAM", "MMA"])
    text = serialize_grid(g)
    assert text == "WG1 d=2 n=3 sigma=AM\nAMM\nMAM\nMMA\n"
    assert serialize_grid(parse_grid(text)) == text


def test_roundtrip_random_grids():
    rng = random.Random(99)
    for n, d in [(2, 1), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)]:
        letters = tuple("AMXQ")[: rng.randint(2, 4)]
        cells = bytes(rng.randrange(len(letters)) for _ in range(n**d))
        g = Grid(n=n, d=d, alphabet=Alphabet(letters), cells=cells)
        text = serialize_grid(g)
        back = parse_grid(text)
        assert back == g
        assert serialize_grid(back) == text


def test_roundtrip_non_ascii_alphabet():
    text = "WG1 d=3 n=2 sigma=αβ\nαβ\nββ\nβα\nαα\n"
    g = parse_grid(text)
    assert g.alphabet.letters == ("α", "β")
    assert g.cells == bytes([0, 1, 1, 1, 1, 0, 0, 0])
    assert g.rows() == ["αβ", "ββ", "βα", "αα"]
    assert serialize_grid(g) == text
    with pytest.raises(GridFormatError, match="line 3: letter 'A' not in declared alphabet 'αβ'"):
        parse_grid("WG1 d=2 n=2 sigma=αβ\nαβ\nAβ\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GridFormatError, match="line 1"):
        parse_grid("WG2 d=2 n=2 sigma=AM\nAM\nMA\n")
    with pytest.raises(GridFormatError, match="expected 9 cells"):
        parse_grid("WG1 d=2 n=3 sigma=AM\nAMAMAMAM\n")
    with pytest.raises(GridFormatError, match="line 4"):
        parse_grid("WG1 d=2 n=3 sigma=AM\nAMA\nMAM\nAM\n")
    with pytest.raises(GridFormatError, match="line 3"):
        parse_grid("WG1 d=2 n=2 sigma=AM\nAM\nMX\n")
    with pytest.raises(GridFormatError, match="line 2"):
        parse_grid("# note\nWG1 d=2 nope\nAM\nMA\n")
    with pytest.raises(GridFormatError):
        parse_grid("# only a comment\n")
    with pytest.raises(GridFormatError, match="line 2: alphabet letters must be distinct"):
        parse_grid("# note\nWG1 d=2 n=2 sigma=AA\nAA\nAA\n")
    with pytest.raises(GridFormatError, match="line 2: alphabet must have 1..26 letters"):
        parse_grid("# note\nWG1 d=2 n=2 sigma=\nAA\nAA\n")


@pytest.mark.parametrize("d", [5000, 3_000_000])
def test_huge_header_is_refused_by_line_count(d):
    # 10^d runs past CPython's 4,300-digit int-to-str limit; the count is decided
    # from the document's one data line, and the message names the powers
    text = f"WG1 d={d} n=10 sigma=AM\nAM\n"
    with pytest.raises(GridFormatError) as info:
        parse_grid(text)
    assert str(info.value) == f"line 3: expected 10^{d} cells (10^{d - 1} lines of 10), got 1 lines"


def test_line_count_message_prints_powers_up_to_4300_digits():
    with pytest.raises(GridFormatError) as info:
        parse_grid("WG1 d=4300 n=10 sigma=AM\n")
    assert str(info.value) == f"line 2: expected 10^4300 cells ({10 ** 4299} lines of 10), got 0 lines"
    with pytest.raises(GridFormatError, match=r"^line 5: expected 27 cells \(9 lines of 3\), got 2 lines$"):
        parse_grid("# note\nWG1 d=3 n=3 sigma=AM\nAMA\nMAM\n")
