"""Property test: the line-table count agrees with the line stream on random grids."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid.core import Alphabet, Grid, Word  # noqa: E402
from wordgrid.lines import enumerate_lines  # noqa: E402
from wordgrid.occurrence import count_word, count_word_set  # noqa: E402


@st.composite
def grids_and_words(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    cells = draw(st.binary(min_size=n**d, max_size=n**d)).translate(bytes(i % size for i in range(256)))
    symbols = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(symbols, min_size=1, max_size=3))
    alphabet = Alphabet(tuple("AMX"[:size]))
    return Grid(n=n, d=d, alphabet=alphabet, cells=cells), [Word(alphabet, r) for r in rows]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(grids_and_words())
def test_table_count_agrees_with_line_stream(case):
    g, words = case
    got = count_word_set(words, g, collect_matches=True)
    want = count_word_set(words, g, lines=enumerate_lines(g.n, g.d), collect_matches=True)
    assert (got.total, got.per_weight, got.matches) == (want.total, want.per_weight, want.matches)
    single = count_word(words[0], g, collect_matches=True)
    stream = count_word(words[0], g, lines=enumerate_lines(g.n, g.d), collect_matches=True)
    assert (single.total, single.per_weight, single.matches) == (stream.total, stream.per_weight,
                                                                 stream.matches)
