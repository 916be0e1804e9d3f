"""The type path against the mask path on every type antichain with n, m <= N (default 5).

The type path ranks a type complex by the hook formula of ``homology``,
from its facet types, listing no cell and eliminating no map; the mask
path lists the facets and eliminates every relative boundary map.  At
N = 5 the formula is checked against elimination on all 3,381 type
antichains.

For each antichain T of types (a, b) over n x's and m y's, Reisner's
check, Duval's check and ``reduced_homology_ranks`` run on the type
complex (n, m, T) as given, raw: a block that no type uses keeps its
size.  They run again on the complex whose facets are every set of each
type in T, built as the sweep builds it for the shelling checks, by
``ideals.complex_of_primes`` from the listed primes of the types
(n - a, m - b), and the two must agree, witnesses included.

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

from mixedprod import complexes, duval_scm, reduced_homology_ranks, reisner_cm
from mixedprod.ideals import complex_of_primes
from mixedprod.kernels import list_types
from test_complexes import _face_type_walk, type_antichains

CHECKS = (("reisner_cm", reisner_cm), ("duval_scm", duval_scm),
          ("reduced_homology_ranks", reduced_homology_ranks))


def main(bound):
    answers = []
    for u, chosen in type_antichains(bound, bound):
        prime_types = [(u.n - a, u.m - b) for a, b in chosen]
        masks = complex_of_primes(u, list_types(prime_types, u.n, u.m))
        c = (u.n, u.m, chosen)
        by_types = [check(c) for _, check in CHECKS]
        for (name, check), by_type in zip(CHECKS, by_types):
            by_mask = check(masks)
            if by_type != by_mask:
                print(f"{name} on {u.n}+{u.m} types {list(chosen)}: "
                      f"type path {by_type!r}, mask path {by_mask!r}")
                return 1
        answers.append((c, by_types))
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
          "Reisner, Duval and the reduced homology ranks agree on the raw type complex "
          "and on its listed facets; "
          f"at {bounds} bounds each fails first at its empty face or not at all")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
