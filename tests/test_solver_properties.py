"""Property test: the branch-and-bound optimum equals the exhaustive oracle's."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid.core import Word  # noqa: E402
from wordgrid.solver import solve, solve_oracle  # noqa: E402

# (n, d, letters): every case keeps the oracle's letters^(n^d) tensor small
SIZES = [(3, 2, "ABC"), (2, 2, "ABC"), (2, 3, "ABC"), (4, 2, "AM")]


@st.composite
def words_and_sizes(draw):
    n, d, letters = draw(st.sampled_from(SIZES))
    text = "".join(draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n)))
    return Word.from_string(text), n, d


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(words_and_sizes())
def test_solve_matches_oracle(case):
    w, n, d = case
    r = solve(w, n, d)
    assert r.complete and r.lower == r.upper == solve_oracle(w, n, d), (w.text, n, d)
