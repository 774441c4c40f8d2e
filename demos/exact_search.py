"""Exact optima by branch and bound, with witnesses and symmetry classes."""

from wordgrid import SolveConfig, Word, serialize_grid, solve, solve_oracle, solve_set

# The solver fills cells in a fixed order, bounding each partial grid by how
# many lines could still read the word. For small boards an exhaustive
# tensor count provides an independent oracle.

w = Word.from_string("AMM")
res = solve(w, 3, 2)
print("f(AMM, 3x3):", res.optimum, "oracle:", solve_oracle(w, 3, 2))

# Asking for all optimal grids groups them up to rotation and reflection.

res = solve(w, 3, 2, SolveConfig(enumerate_witnesses=True))
print("optimal classes:", res.classes)
print(res.canonical_text(), end="")

# The 3x3x3 cube: 28 lines read AMM, in exactly 3 inequivalent ways.

res = solve(w, 3, 3, SolveConfig(enumerate_witnesses=True))
print("f(AMM, 3x3x3):", res.optimum, "classes:", res.classes)
print(serialize_grid(res.witnesses[0]), end="")

# Word sets: ask for lines reading any of the 24 orderings of ABCD and the
# search finds a diagonal Latin square (all 10 lines are permutations).

import itertools

perms = [Word.from_string("".join(p)) for p in itertools.permutations("ABCD")]
res = solve_set(perms, 4, 2)
print("diagonal Latin square lines:", res.optimum)
print(serialize_grid(res.witnesses[0]), end="")

# Budgets turn the solver into an anytime method: it reports a closed
# interval instead of pretending to be done.

res = solve(Word.from_string("AAMMM"), 5, 2, SolveConfig(node_budget=3))
print("budget result: complete" if res.complete else
      f"budget result: interval [{res.lower}, {res.upper}]")
