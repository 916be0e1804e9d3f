"""The type path against the mask path on every type antichain with n, m <= N (default 5).

For each antichain T of types (a, b) over n x's and m y's, Reisner's
check, Duval's check and ``reduced_homology_ranks`` run on the type
complex (n, m, T) as given, raw: a block that no type uses keeps its
size, so the rank cache sees it unnormalized.  They run again on the
complex whose facets are every set of each type in T, built as the
sweep builds it for the shelling checks, by ``ideals.complex_of_primes``
from the listed primes of the types (n - a, m - b), and the two must
agree, witnesses included.

The type path runs twice.  First each complex starts cold: the rank
cache and the first-failure memo of ``complexes`` are emptied before
it, and what it fills is kept aside.  Then every complex runs again
with both caches holding all that the first pass kept, so each answer
also comes from memo entries made by other complexes' walks, in
another order, and must be the same.

Run from the repository root:

    PYTHONPATH=src python tests/check_type_path.py [N]

It prints one line of counts and exits 1 at the first disagreement.
The tier-1 test ``test_the_type_path_matches_the_mask_path`` makes the
same comparison for n, m <= 4.
"""

import sys
from itertools import combinations

from mixedprod import complexes, duval_scm, homology, reduced_homology_ranks, reisner_cm
from mixedprod.ideals import VariableUniverse, complex_of_primes
from mixedprod.kernels import list_types


def type_antichains(max_n, max_m):
    """(universe, types) for every antichain of types (a, b) with n <= max_n, m <= max_m."""
    for n in range(max_n + 1):
        for m in range(0 if n else 1, max_m + 1):
            types = [(a, b) for a in range(n + 1) for b in range(m + 1)]
            for k in range(1, min(n, m) + 2):     # an antichain has at most min(n, m) + 1 types
                for chosen in combinations(types, k):
                    if not any(s != t and s[0] <= t[0] and s[1] <= t[1]
                               for s in chosen for t in chosen):
                        yield VariableUniverse(n, m), chosen


CHECKS = (("reisner_cm", reisner_cm), ("duval_scm", duval_scm),
          ("reduced_homology_ranks", reduced_homology_ranks))


def main(bound):
    filled_memo, filled_ranks, answers = {}, {}, []
    for u, chosen in type_antichains(bound, bound):
        prime_types = [(u.n - a, u.m - b) for a, b in chosen]
        masks = complex_of_primes(u, list_types(prime_types, u.n, u.m))
        c = (u.n, u.m, chosen)
        complexes._first_failures.clear()
        homology._ranks_cache.clear()
        cold = [check(c) for _, check in CHECKS]
        filled_memo.update(complexes._first_failures)
        filled_ranks.update(homology._ranks_cache)
        for (name, check), by_type in zip(CHECKS, cold):
            by_mask = check(masks)
            if by_type != by_mask:
                print(f"{name} on {u.n}+{u.m} types {list(chosen)}: "
                      f"type path {by_type!r} on a cold memo, mask path {by_mask!r}")
                return 1
        answers.append((c, cold))
    complexes._first_failures.update(filled_memo)
    homology._ranks_cache.update(filled_ranks)
    for c, cold in answers:
        for (name, check), by_cold in zip(CHECKS, cold):
            by_warm = check(c)
            if by_warm != by_cold:
                print(f"{name} on {c!r}: {by_warm!r} after the whole pass, "
                      f"{by_cold!r} on a cold memo")
                return 1
    print(f"{len(answers)} type antichains with n, m <= {bound}: "
          "Reisner, Duval and the reduced homology ranks agree on the raw type complex, "
          "on a cold memo and after the whole pass, and on its listed facets")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
