"""High-dimensional grids: exact parity counts and sampled measurements."""

import random

from wordgrid import (
    Word,
    classify_point,
    count_flip_lines,
    counterpoint_grid,
    estimate_fraction,
    parity_grid,
    sample_line,
    sigma_parity_check,
    upper_bound_d,
)

# For binary words whose reversal flips every letter, the parity construction
# is optimal in every dimension: its exact count equals the ceiling.

w = Word.from_string("AM")
for d in (3, 7, 19):
    r = parity_grid(w, d)
    print(f"d={d}: parity count {r.achieved} == ceiling {upper_bound_d(w, d)}")

# For other words there is a layered construction driven by per-point
# coordinate statistics. Every point lands in exactly one assignment branch.

w = Word.from_string("AMM")
grid = counterpoint_grid(w, 12)
rng = random.Random(5)
for _ in range(5):
    p = tuple(rng.randint(1, 3) for _ in range(12))
    print(p, "->", classify_point(p, 3, 12), "->", grid.letter_at(p))

# Odd-weight lines split into a near side and a far side by the parity of a
# per-point statistic; this drives the construction's correctness.

checks = 0
for _ in range(2000):
    ln = sample_line(4, 5, rng)
    if ln.weight % 2 == 1:
        assert sigma_parity_check(ln, 4)
        checks += 1
print("parity side checks passed:", checks)

# Anchor points with the right boundary statistics spray lines that read the
# word: flip any odd subset of at least 0.49 of their boundary coordinates.
# Every such line is counted exactly, by line class.

total, reading = count_flip_lines(w, 40)
print(f"flip lines reading AMM at d=40: {reading} / {total}")

# At 3^12 cells the full line census is still feasible to sample: the grid
# reads AMM along a sizable fraction of all lines, measured with a
# distribution-free confidence radius.

fraction, radius = estimate_fraction(w, grid, samples=50_000, rng=random.Random(99))
print(f"fraction of lines reading AMM at d=12: {fraction:.4f} +- {radius:.4f}")
