"""
Cross-checking the constructions against a blind search
=======================================================

The enumerator builds theories from known recipes.  The brute-force oracle
knows none of them: it walks every partition of the group that keeps the
identity alone, prunes branches whose span cannot close under convolution,
and keeps the partitions whose block sums do close.  On small groups the
two must agree set-for-set, and they do.
"""

import time

from supercharacters import (
    BudgetExhaustedError,
    GroupSpec,
    all_theories,
    brute_force_count,
    brute_force_enumerate,
    canonical_key,
    predicted_counts,
)

for g in [
    GroupSpec.cp(7),
    GroupSpec.klein(),
    GroupSpec.cp_c2(5),
    GroupSpec.c2_cubed(),
    GroupSpec.cp_c2_c2(3),
]:
    start = time.perf_counter()
    searched = {canonical_key(t) for t in brute_force_enumerate(g)}
    elapsed = time.perf_counter() - start
    constructed = {canonical_key(r.theory) for r in all_theories(g)}
    status = "agree" if searched == constructed else "DISAGREE"
    print(f"{g.family:>8} (order {g.order:>2}): search found {len(searched):>3}, "
          f"constructions found {len(constructed):>3} -> {status}  [{elapsed:.2f}s]")

# Beyond order 100 the search can take more than a second, so exhaustive search
# demands an explicit node budget.  Without one the oracle refuses outright; with one
# it raises once the budget runs dry, reporting how far it got.  One node
# places a block together with its images under the power maps x -> x^m; the
# full search of C29xC2xC2 (order 116) takes 398 of them.
g = GroupSpec.cp_c2_c2(29)
try:
    brute_force_count(g)
except ValueError as e:
    print("\nno budget:", e)

try:
    brute_force_count(g, budget=200)
except BudgetExhaustedError as e:
    print(f"budget of 200: exhausted after {e.nodes} placements, "
          f"{e.found} theories already confirmed")

# A generous budget lets the search finish.  The power maps permute the
# blocks of every theory, so a block's images are blocks too and are placed
# with it; the search reaches p = 7 and 13, where p - 1 has a factor 3
# (l = 1), and p = 19, where it has 3^2 (l = 2).
for p in (5, 7, 13, 19):
    g = GroupSpec.cp_c2_c2(p)
    start = time.perf_counter()
    count = brute_force_count(g, budget=100_000)
    print(f"full search of C{p}xC2xC2: {count} theories, closed form "
          f"{predicted_counts(p).total} [{time.perf_counter() - start:.1f}s]")
