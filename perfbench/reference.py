"""Expected values that do not come from the path the benchmark times.

The line and segment tables here are built in numpy straight from the
{numeral, +, -}^d encoding, without the package's enumerators, and the
closed forms are written out from their definitions. The benchmark checks
these tables against the package's slow stream path once per run, so a
mismatch in either shows up as a failed check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def line_total(n: int, d: int) -> int:
    return ((n + 2) ** d - n**d) // 2


def line_tally(n: int, d: int) -> dict[int, int]:
    """Lines per direction weight r: C(d, r) * 2^(r-1) * n^(d-r)."""
    return {r: math.comb(d, r) * 2 ** (r - 1) * n ** (d - r) for r in range(1, d + 1)}


def segment_total(n: int, d: int, k: int) -> int:
    return ((3 * n - 2 * k + 2) ** d - n**d) // 2


def ceiling_d(text: str, d: int) -> int:
    """Most lines any d-dimensional grid can match: every line, or only the
    odd-weight ones when the word is not a palindrome."""
    n = len(text)
    if text == text[::-1]:
        return ((n + 2) ** d - n**d) // 2
    return ((n + 2) ** d - (n - 2) ** d) // 4


def parity_count(n: int, d: int) -> int:
    """Lines of the parity grid of a binary antisymmetric word: its ceiling."""
    return ((n + 2) ** d - (n - 2) ** d) // 4


def row_optimum_distinct(k: int, n: int) -> int:
    """Most windows reading a k-letter word with distinct letters in a row of
    n cells: consecutive readings alternate direction and share one cell."""
    return 1 + (n - k) // (k - 1)


def row_windows(row: str, word: str) -> int:
    k = len(word)
    return sum(1 for i in range(len(row) - k + 1) if row[i:i + k] in (word, word[::-1]))


def hoeffding_radius(samples: int) -> float:
    return math.sqrt(math.log(2 / 0.01) / (2 * samples))


def _codes(symbols: int, d: int) -> np.ndarray:
    """All sequences over range(symbols) of length d, one per row."""
    grids = np.indices((symbols,) * d, dtype=np.int32)
    return grids.reshape(d, -1).T


def _strides(n: int, d: int) -> np.ndarray:
    return n ** np.arange(d - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def line_table(n: int, d: int) -> np.ndarray:
    """Flat cell indices of every line, one row each.

    Symbol a < n fixes a coordinate at a, n sweeps up, n+1 sweeps down; a
    line is kept once, with its first sign sweeping up.
    """
    codes = _codes(n + 2, d)
    signed = codes >= n
    has_sign = signed.any(axis=1)
    first = signed.argmax(axis=1)
    keep = has_sign & (codes[np.arange(len(codes)), first] == n)
    c = codes[keep][:, :, None]
    steps = np.arange(n)
    coords = np.where(c == n, steps, np.where(c == n + 1, n - 1 - steps, c))
    return np.einsum("ldi,d->li", coords, _strides(n, d))


@lru_cache(maxsize=None)
def segment_table(n: int, d: int, k: int) -> np.ndarray:
    """Flat cell indices of every length-k segment, one row each.

    Per coordinate: n numerals, then n-k+1 upward starts, then n-k+1
    downward starts; a segment is kept once, with its first sign upward.
    """
    ups = n - k + 1
    codes = _codes(n + 2 * ups, d)
    signed = codes >= n
    has_sign = signed.any(axis=1)
    first = signed.argmax(axis=1)
    keep = has_sign & (codes[np.arange(len(codes)), first] < n + ups)
    codes = codes[keep]
    steps = np.arange(k)
    c = codes[:, :, None]
    up_start = c - n
    down_start = c - (n + ups) + (k - 1)
    coords = np.where(c < n, c, np.where(c < n + ups, up_start + steps, down_start - steps))
    return np.einsum("ldi,d->li", coords, _strides(n, d))


KEY_BASE = 16


def _key(symbols) -> int:
    return sum(int(s) * KEY_BASE**j for j, s in enumerate(symbols))


def reading_keys(cells: bytes, idx: np.ndarray) -> np.ndarray:
    """One integer per row of idx, encoding the letters read along it."""
    if idx.shape[1] >= 16:
        raise ValueError("readings longer than 15 cells overflow the key")
    readings = np.frombuffer(cells, dtype=np.uint8)[idx]
    if readings.size and readings.max() >= KEY_BASE:
        raise ValueError(f"letter indices must stay below {KEY_BASE}")
    return readings.astype(np.int64) @ (KEY_BASE ** np.arange(idx.shape[1], dtype=np.int64))


def count_matching(keys: np.ndarray, probes) -> int:
    """Rows whose reading, either way, equals one of the probe symbol rows."""
    wanted = sorted({_key(p) for probe in probes for p in (probe, probe[::-1])})
    return int(np.isin(keys, wanted).sum())


def line_keys(cells: bytes, n: int, d: int) -> np.ndarray:
    return reading_keys(cells, line_table(n, d))


def count_lines_reading(cells: bytes, n: int, d: int, probes) -> int:
    return count_matching(line_keys(cells, n, d), probes)


def count_segments_reading(cells: bytes, n: int, d: int, probe: tuple[int, ...]) -> int:
    return count_matching(reading_keys(cells, segment_table(n, d, len(probe))), [probe])


def replay_fraction(rule, symbols: tuple[int, ...], d: int, samples: int, rng) -> float:
    """Hits over samples for the estimator's line draws, evaluated directly.

    Each draw picks d symbols from {1..n, +, -} and rejects draws without a
    sign; a draw whose first sign is '-' is mirrored. The reading of the
    line p, p+v, ... through the grid rule is compared with the word.
    """
    n = len(symbols)
    back = symbols[::-1]
    hits = 0
    for _ in range(samples):
        while True:
            raw = [rng.randrange(n + 2) for _ in range(d)]
            if any(x >= n for x in raw):
                break
        first = next(x for x in raw if x >= n)
        if first == n + 1:
            raw = [x if x < n else (2 * n + 1 - x) for x in raw]
        start = [x + 1 if x < n else (1 if x == n else n) for x in raw]
        step = [0 if x < n else (1 if x == n else -1) for x in raw]
        reading = tuple(rule(tuple(p + i * v for p, v in zip(start, step))) for i in range(n))
        if reading == symbols or reading == back:
            hits += 1
    return hits / samples
