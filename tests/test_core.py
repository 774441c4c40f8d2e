"""Tests for core types: indexing, word stats, symmetries, and the WG1 codec."""

import itertools
import math
import random

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        Word.from_string("A")


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
    with pytest.raises(ValueError):
        g.to_dense(cap=8)


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
