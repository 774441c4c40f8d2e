"""Property tests: WG1 round trip, the codec against its line-by-line reference, and counts
that do not change under the symmetry group."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wordgrid.core import (WG1_MAGIC, Alphabet, Grid, GridFormatError, Word,  # noqa: E402
                           all_symmetries, apply_symmetry, parse_grid, serialize_grid)
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


# ---------------------------------------------------------------- codec against the line walk

def _reference_parse(text: str) -> Grid:
    """The line-by-line parser that the vectorized `parse_grid` replaced."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines):
        raise GridFormatError(f"line {pos + 1}: missing WG1 header")
    header = lines[pos]
    parts = header.split()
    if len(parts) != 4 or parts[0] != WG1_MAGIC:
        raise GridFormatError(f"line {pos + 1}: bad header {header!r}")
    fields = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        d = int(fields["d"])
        n = int(fields["n"])
        sigma = fields["sigma"]
    except (KeyError, ValueError):
        raise GridFormatError(f"line {pos + 1}: header must carry d=, n=, sigma=") from None
    if d < 1 or n < 1:
        raise GridFormatError(f"line {pos + 1}: need d >= 1 and n >= 1")
    try:
        alphabet = Alphabet(tuple(sigma))
    except ValueError as exc:
        raise GridFormatError(f"line {pos + 1}: {exc}") from None
    data_lines = lines[pos + 1 :]
    expected_lines = n ** (d - 1)
    if len(data_lines) != expected_lines:
        raise GridFormatError(
            f"line {pos + 1 + len(data_lines) + 1}: expected {n ** d} cells "
            f"({expected_lines} lines of {n}), got {len(data_lines)} lines"
        )
    body = "".join(data_lines)
    if any(len(row) != n for row in data_lines) or not set(body) <= set(sigma):
        for off, row in enumerate(data_lines):  # report the first bad line
            lineno = pos + 2 + off
            if len(row) != n:
                raise GridFormatError(f"line {lineno}: expected {n} cells, got {len(row)}")
            for ch in row:
                if ch not in alphabet:
                    raise GridFormatError(f"line {lineno}: letter {ch!r} not in declared alphabet {sigma!r}")
    cells = body.translate({ord(ch): i for i, ch in enumerate(sigma)}).encode("latin-1")
    return Grid(n=n, d=d, alphabet=alphabet, cells=cells)


POOL = ("A", "M", "Z", "é", "ÿ", "𝔸")  # ASCII, Latin-1 and astral letters
STRAY = POOL + ("?", "\n", "\r", " ", "#", "\ud800")  # what a mutation may insert
MUTATIONS = ("none", "delete", "insert", "foreign", "no final newline", "extra newline",
             "crlf", "comments", "drop line", "repeat line")


@st.composite
def wg1_grids(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, len(POOL)))
    alphabet = Alphabet(tuple(draw(st.permutations(POOL)))[:size])
    cells = bytes(draw(st.lists(st.integers(0, size - 1), min_size=n**d, max_size=n**d)))
    return Grid(n=n, d=d, alphabet=alphabet, cells=cells)


@st.composite
def wg1_documents(draw):
    """A serialized grid, then one mutation of its text."""
    g = draw(wg1_grids())
    text = serialize_grid(g)
    mutation = draw(st.sampled_from(MUTATIONS))
    body = text.index("\n") + 1
    at = draw(st.integers(draw(st.sampled_from((0, body))), len(text) - 1))  # anywhere, or in the body
    body_at = draw(st.integers(body, len(text) - 1))
    lines = text.split("\n")[:-1]
    row = draw(st.integers(1, len(lines) - 1))
    if mutation == "delete":
        text = text[:at] + text[at + 1 :]
    elif mutation == "insert":
        text = text[:at] + draw(st.sampled_from(STRAY)) + text[at:]
    elif mutation == "foreign" and text[body_at] != "\n":
        outside = [ch for ch in POOL + ("?",) if ch not in g.alphabet]
        text = text[:body_at] + draw(st.sampled_from(outside)) + text[body_at + 1 :]
    elif mutation == "no final newline":
        text = text[:-1]
    elif mutation == "extra newline":
        text += "\n"
    elif mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "comments":
        text = "# note\n" * draw(st.integers(1, 3)) + text
    elif mutation == "drop line":
        text = "\n".join(lines[:row] + lines[row + 1 :]) + "\n"
    elif mutation == "repeat line":
        text = "\n".join(lines[: row + 1] + lines[row:]) + "\n"
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except GridFormatError as exc:
        return f"GridFormatError: {exc}"


@hypothesis.settings(derandomize=True, max_examples=600, deadline=None)
@hypothesis.given(wg1_documents())
def test_parse_matches_line_walk_reference(text):
    assert _outcome(parse_grid, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("text", [
    "", "\n", "#", "# only a comment\n", "# a\n# b", "# a\n\n", "WG1 d=1 n=2 sigma=AM",
    "WG1 d=1 n=2 sigma=AM\n", "WG1 d=1 n=2 sigma=AM\n\n", "WG1 d=1 n=2 sigma=AM\nAM",
    "WG1 d=1 n=2 sigma=AM\nAM\n\n", "WG1 d=1 n=1 sigma=A\nA\n", "WG1 d=3 n=1 sigma=A\nA\n",
    "WG1 d=2 n=2 sigma=AM\r\nAM\r\nMA\r\n", "WG1 d=0 n=2 sigma=AM\n", "WG1 d=2 n=x sigma=AM\n",
    "WG1 d=2 n=2 sigma=AM extra\nAM\nMA\n", "WG1 d=2 n=2 sigma=𝔸é\n𝔸é\né𝔸\n",
    "WG1 d=2 n=2 sigma=𝔸é\n𝔸é\né\ud800\n", "WG1 d=40 n=2 sigma=AM\nAM\n",
])
def test_parse_edge_documents_match_line_walk_reference(text):
    assert _outcome(parse_grid, text) == _outcome(_reference_parse, text)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(wg1_grids())
def test_serialize_is_header_and_rows(g):
    header = f"WG1 d={g.d} n={g.n} sigma={''.join(g.alphabet.letters)}"
    assert serialize_grid(g) == "\n".join([header] + g.rows()) + "\n"
