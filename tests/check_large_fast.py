"""The fast oracle on seeded random specs past the vertex cap, 17 <= n + m <= 120 (default 3,000).

Each spec has s <= 6 summands, drawn with q in 0..n and r in 0..m and
then normalized.  ``check_spec`` runs at the ``fast`` level with the
default vertex cap of 16, so every spec is past it.  The six checks on
types must run and agree with the closed forms on every spec, and the
one check that lists facets, the shelling order of a sequentially CM
spec, must be skipped under the vertex cap there and nowhere else.

Run from the repository root:

    PYTHONPATH=src python tests/check_large_fast.py [COUNT]

It prints one line of counts and exits 1 at the first spec that breaks
one of these rules.
"""

import random
import sys

from mixedprod import VariableUniverse, normalize
from mixedprod.sweep import ORACLE_CHECKS, check_spec

TYPE_CHECKS = set(ORACLE_CHECKS["fast"]) - {"shelling_order"}


def random_specs(count, seed=26):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(17, 120)
        n = rng.randint(0, size)
        m = size - n
        pairs = [(rng.randint(0, n), rng.randint(0, m)) for _ in range(rng.randint(1, 6))]
        yield normalize(VariableUniverse(n, m), [p for p in pairs if p != (0, 0)] or [(n, m)])


def main(count):
    scm = 0
    for spec in random_specs(count):
        record = check_spec(spec, "fast")
        listed = record["verdicts"]["sequentially_cm"]
        skipped = [s["reason"] for s in record["skipped"]]
        if (record["mismatches"] or set(record["oracle"]) != TYPE_CHECKS
                or skipped != (["vertex cap"] if listed else [])):
            print(f"{spec}: oracle {record['oracle']}, skipped {skipped}, "
                  f"mismatches {record['mismatches']}")
            return 1
        scm += listed
    print(f"{count} random specs with 17 <= n + m <= 120: the six type checks agree "
          f"with the closed forms; {scm} SCM specs skip the shelling order at the vertex cap")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
