"""Row-only occupancy: exact DP values, growth, and 2-D consequences."""

from wordgrid import (
    Word,
    count_segments_word,
    f1_exact,
    f1_subadditivity_check,
    product_grid,
    sandwich_2d,
)

# f1(w, n) is the largest number of occurrences of w (either direction) a
# single row of length n can hold. A DP over (position, state) on the prefix
# automaton of w and its reversal (at most 2k-1 states) gives the exact value
# plus a witness row.

w = Word.from_string("ABCD")
for n in (4, 7, 10, 40):
    value, witness = f1_exact(w, n)
    shown = witness if n <= 12 else witness[:12] + "..."
    print(f"n={n}: f1 = {value}  witness {shown}")

# For words with distinct letters, extending the row by one period gains at
# most one occurrence.

assert all(f1_subadditivity_check(w, n) for n in range(4, 13))
print("subadditivity holds for ABCD on lengths 4..12")

# Adjacent occurrences share an endpoint (...ABCDCBA...), so the packing
# density settles near 1/(k-1) for a k-letter word with distinct letters.

value, _ = f1_exact(w, 400)
print(f"density at n=400: {value / 400:.4f} (limit 1/3 = {1 / 3:.4f})")

# Stacking an optimal row n times gives a 2-D grid whose row occurrences
# alone are n * f1. The sandwich brackets the full 2-D segment count in
# terms of f1 values.

n = 8
lo, hi = sandwich_2d(w, n)
grid = product_grid(w, n)
total = count_segments_word(w, grid)
print(f"2-D segment count at n={n}: {lo} <= {total} <= {hi}")
assert lo <= total <= hi
