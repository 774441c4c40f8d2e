"""Property tests: WG1 round trip, and counts that do not change under the symmetry group."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid.core import (Alphabet, Grid, Word, all_symmetries, apply_symmetry,  # noqa: E402
                           parse_grid, serialize_grid)
from wordgrid.occurrence import count_word  # noqa: E402

LETTERS = ("A", "M", "X", "é")  # one letter outside ASCII


@st.composite
def grids_and_words(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, len(LETTERS)))
    alphabet = Alphabet(tuple(draw(st.permutations(LETTERS)))[:size])
    cells = bytes(draw(st.lists(st.integers(0, size - 1), min_size=n**d, max_size=n**d)))
    symbols = tuple(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
    return Grid(n=n, d=d, alphabet=alphabet, cells=cells), Word(alphabet, symbols)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(grids_and_words())
def test_wg1_round_trip(case):
    g, _ = case
    text = serialize_grid(g)
    assert parse_grid(text) == g
    assert serialize_grid(parse_grid(text)) == text


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(grids_and_words())
def test_count_invariant_under_symmetry(case):
    g, w = case
    want = count_word(w, g).total
    for s in all_symmetries(g.d):
        assert count_word(w, apply_symmetry(g, s)).total == want, (s, serialize_grid(g), w.text)
