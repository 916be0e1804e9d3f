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
cache is emptied before it, and what it fills is kept aside.  Then
every complex runs again with the cache holding all that the first
pass kept, so each answer also comes from ranks that other complexes'
checks made, in another order, and must be the same.

Last, the empty-face lemma of ``complexes``: walked over every face
type, at Reisner's bound and at every bound d from 1 to the smallest
facet dimension, each complex fails first at its empty face or not at
all, and at Reisner's bound as ``reisner_cm`` says.

Run from the repository root:

    PYTHONPATH=src python tests/check_type_path.py [N]

It prints one line of counts and exits 1 at the first disagreement.
The tier-1 tests ``test_the_type_path_matches_the_mask_path`` and
``test_a_type_complex_fails_first_at_its_empty_face`` make the same
comparisons for n, m <= 4.
"""

import sys

from mixedprod import complexes, duval_scm, homology, reduced_homology_ranks, reisner_cm
from mixedprod.ideals import complex_of_primes
from mixedprod.kernels import list_types
from test_complexes import _face_type_walk, type_antichains

CHECKS = (("reisner_cm", reisner_cm), ("duval_scm", duval_scm),
          ("reduced_homology_ranks", reduced_homology_ranks))


def main(bound):
    filled, answers = {}, []
    for u, chosen in type_antichains(bound, bound):
        prime_types = [(u.n - a, u.m - b) for a, b in chosen]
        masks = complex_of_primes(u, list_types(prime_types, u.n, u.m))
        c = (u.n, u.m, chosen)
        homology._ranks_cache.clear()
        cold = [check(c) for _, check in CHECKS]
        filled.update(homology._ranks_cache)
        for (name, check), by_type in zip(CHECKS, cold):
            by_mask = check(masks)
            if by_type != by_mask:
                print(f"{name} on {u.n}+{u.m} types {list(chosen)}: "
                      f"type path {by_type!r} on a cold rank cache, mask path {by_mask!r}")
                return 1
        answers.append((c, cold))
    homology._ranks_cache.update(filled)
    for c, cold in answers:
        for (name, check), by_cold in zip(CHECKS, cold):
            by_warm = check(c)
            if by_warm != by_cold:
                print(f"{name} on {c!r}: {by_warm!r} after the whole pass, "
                      f"{by_cold!r} on a cold rank cache")
                return 1
    bounds = 0
    for c, (cm, _, _) in answers:
        for d in [None, *range(1, min(a + b for a, b in c[2]))]:
            found = _face_type_walk(c, d, complexes._failing_degree)
            if found is not None and found[:2] != (0, 0):
                print(f"{c!r} at bound {d}: the face-type walk fails first at {found!r}, "
                      f"not at the empty face")
                return 1
            if d is None and cm != ((True, None) if found is None else (False, ([], found[2]))):
                print(f"{c!r}: the face-type walk finds {found!r}, reisner_cm says {cm!r}")
                return 1
            bounds += 1
    print(f"{len(answers)} type antichains with n, m <= {bound}: "
          "Reisner, Duval and the reduced homology ranks agree on the raw type complex, "
          "on a cold rank cache and after the whole pass, and on its listed facets; "
          f"at {bounds} bounds each fails first at its empty face or not at all")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
