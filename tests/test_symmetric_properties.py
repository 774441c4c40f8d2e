"""Property test: the rules marked symmetric do not change when coordinates are permuted."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid.constructions import (  # noqa: E402
    _constant_result, _parity_letters, _parity_rule, counterpoint_grid)
from wordgrid.core import Word  # noqa: E402


@st.composite
def rules_and_points(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 8))
    kinds = ["constant"] + ["counterpoint"] * (n >= 3) + ["parity"] * (n % 2 == 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "counterpoint":
        word = Word.from_string("".join(draw(st.lists(st.sampled_from("ABC"), min_size=n,
                                                      max_size=n))))
        rule = counterpoint_grid(word, d).rule
    elif kind == "parity":
        half = draw(st.lists(st.sampled_from("AM"), min_size=n // 2, max_size=n // 2))
        tail = ["M" if c == "A" else "A" for c in reversed(half)]
        rule = _parity_rule(_parity_letters(Word.from_string("".join(half + tail))))
    else:
        rule = _constant_result(Word.from_string("A" * n), 20).grid.rule  # procedural at 2^20
    point = draw(st.lists(st.integers(1, n), min_size=d, max_size=d))
    return rule, tuple(point), tuple(draw(st.permutations(point)))


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(rules_and_points())
def test_symmetric_rules_ignore_coordinate_order(case):
    rule, point, permuted = case
    assert rule(point) == rule(permuted)
