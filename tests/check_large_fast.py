"""The fast and full oracles on seeded random specs past the vertex cap, 17 <= n + m <= 120 (default 3,000).

Each spec has s <= 6 summands, drawn with q in 0..n and r in 0..m and
then normalized.  ``check_spec`` runs at the ``fast`` level and again at
``full``; the vertex cap is the constant ``sweep.VERTEX_CAP``, 16, so
every spec is past it.  At both levels the six checks on types, and no
other, must run and agree with the closed forms on every spec.  Where a
check lists facets, ``skip_reasons`` must give exactly ``["vertex cap"]``:
at ``fast`` on a sequentially CM spec (the shelling order), at ``full``
on every spec; elsewhere it must give nothing.

Run from the repository root:

    PYTHONPATH=src python tests/check_large_fast.py [COUNT]

It prints one line of counts and exits 1 at the first spec that breaks
one of these rules.
"""

import random
import sys

from mixedprod import VariableUniverse, normalize
from mixedprod.sweep import ORACLE_CHECKS, check_spec, skip_reasons

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
        for level in ("fast", "full"):
            record = check_spec(spec, level)
            listed = level == "full" or record["verdicts"]["sequentially_cm"]
            skipped = skip_reasons(record, level)
            if (record["mismatches"] or set(record["oracle"]) != TYPE_CHECKS
                    or skipped != (["vertex cap"] if listed else [])):
                print(f"{spec} at {level}: oracle {record['oracle']}, skipped {skipped}, "
                      f"mismatches {record['mismatches']}")
                return 1
        scm += record["verdicts"]["sequentially_cm"]
    print(f"{count} random specs with 17 <= n + m <= 120: the six type checks agree "
          f"with the closed forms at fast and at full; {scm} SCM specs skip the shelling "
          f"order at fast, and every spec the checks that list facets at full, at the vertex cap")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
