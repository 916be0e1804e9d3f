"""The fast and full oracles on seeded random specs past the vertex cap, 17 <= n + m <= 120 (default 3,000).

Each spec has s <= 6 summands, drawn with q in 0..n and r in 0..m and
then normalized.  ``check_spec`` runs at the ``fast`` level and again at
``full``; the vertex cap is the constant ``sweep.VERTEX_CAP``, 16, so
every spec is past it.  The six checks on types, at ``full`` with
Reisner's and Duval's, and no other, must run and agree with the closed
forms on every spec.  Where a check lists facets, ``skip_reasons`` must
give exactly ``["vertex cap"]``: on a sequentially CM spec (the
shelling order), and at ``full`` on a CM spec too (the shelling
search); elsewhere it must give nothing.

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
RAN = {"fast": TYPE_CHECKS, "full": TYPE_CHECKS | {"cm_reisner", "scm_duval"}}


def random_specs(count, seed=26):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(17, 120)
        n = rng.randint(0, size)
        m = size - n
        pairs = [(rng.randint(0, n), rng.randint(0, m)) for _ in range(rng.randint(1, 6))]
        yield normalize(VariableUniverse(n, m), [p for p in pairs if p != (0, 0)] or [(n, m)])


def main(count):
    scm = cm = 0
    for spec in random_specs(count):
        for level in ("fast", "full"):
            record = check_spec(spec, level)
            verdicts = record["verdicts"]
            listed = verdicts["sequentially_cm"] or level == "full" and verdicts["cohen_macaulay"]
            skipped = skip_reasons(record, level)
            if (record["mismatches"] or set(record["oracle"]) != RAN[level]
                    or skipped != (["vertex cap"] if listed else [])):
                print(f"{spec} at {level}: oracle {record['oracle']}, skipped {skipped}, "
                      f"mismatches {record['mismatches']}")
                return 1
        scm += verdicts["sequentially_cm"]
        cm += verdicts["cohen_macaulay"]
    print(f"{count} random specs with 17 <= n + m <= 120: the six type checks agree "
          f"with the closed forms at fast and at full, and Reisner's and Duval's at full; "
          f"the {scm} SCM specs skip the shelling order, and the {cm} CM ones among them "
          f"the shelling search too, at the vertex cap")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
