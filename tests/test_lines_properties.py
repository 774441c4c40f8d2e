"""Property test: the batched line draws, in arrays of any size, replay the scalar draws."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid import lines  # noqa: E402


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(st.integers(2, 9), st.integers(1, 16), st.integers(1, 300),
                  st.integers(1, 400), st.integers(0, 2**32))
def test_batched_draws_replay_the_scalar_draws(n, d, count, rows, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    arrays = list(lines._draw_line_codes(n, d, rng, count, rows))
    assert [len(a) for a in arrays] == [min(rows, count - i) for i in range(0, count, rows)]
    got = [row for a in arrays for row in a.tolist()]
    assert got == [lines._draw_line_code(n, d, ref) for _ in range(count)]
    assert rng.getstate() == ref.getstate()
