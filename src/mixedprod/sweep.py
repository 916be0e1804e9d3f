"""Exhaustive verification sweeps: closed forms against brute-force oracles.

Every normalized spec within the configured bounds is enumerated and
each closed-form statement is compared against an independent oracle:

  - the dual formula against minimal-hitting-set Alexander duality:
    the ideal is the sum of its summands I_q J_r, each every set of q
    x's and r y's, so it is S_n x S_m invariant with the summand types
    as its types, and the prime types follow from them by the orbit
    rule (``kernels.transversal_types``), one representative
    transversal per type, without listing the generators,
  - the primary decomposition against the prime types, each group's
    types against the blocks they meet,
  - the CM verdict against purity + strong connectivity (fast) and
    against Reisner's criterion (full), on the type complex read at its
    empty face off the terms of the hook formula (``homology``), with no
    link, no elimination and no binomial, at any size,
  - the sequential-CM verdict against the pure-skeleton test (Duval's,
    the same reading once per facet size),
  - the unmixedness verdict against equal component sizes,
  - the facet partition block by block against the facet types, the
    complements of the prime types,
  - the intersection bound against the facet types: sets of types
    (A, B) and (A', B') meet in at most min(A, A') + min(B, B')
    vertices, and some pair meets in exactly that many,
  - each "sequentially CM" verdict against a shelling order of the
    facets (a nonpure shelling proves sequential CM, Bjorner and Wachs
    1996).

``kernels.list_types`` is one-to-one on type antichains, so a listing
of the closed form equals the oracle's exactly when their types do:
the first six checks compare types, at any size.  Reisner's and
Duval's checks take the type complex (n, m, facet types), at any size
too.  Only the shelling checks list the facets, as bitmasks, and the
vertex cap (``VERTEX_CAP``, 16) keeps them off larger specs.  Within it
the facets, an antichain of subsets of at most 16 vertices, number at
most C(16, 8) = 12,870 (Sperner), so no generator count gates the
listing.  Mismatch records give types.

One helper in ``check_spec`` records each check's outcome: any
disagreement as a mismatch, and for an oracle check its entry in the
record's ``oracle``, an agreement flag or the oracle's own verdict, as
the helper's docstring says.  ``run_sweep`` checks every spec and
collects the mismatches of all of them; the CLI's ``sweep`` exits 2
after the whole run when any were found.  ``perturb=True`` deliberately
breaks the CM closed form so the harness can demonstrate it detects
bugs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from . import complexes, ideals, kernels, products
from .products import MixedProductSpec

# The shelling checks list facets, subsets of the n + m vertices:
# check_spec skips them above this many vertices.  Past 19,
# C(cap, cap // 2) facets would exceed products.GENERATOR_CAP, and the
# listing would need a generator gate.
VERTEX_CAP = 16
# The skip reason of the shelling search past complexes.SHELLING_FACET_CAP facets.
FACET_CAP_SKIP = f"shellable (facet cap {complexes.SHELLING_FACET_CAP})"
CHUNK = 16   # specs handed to a pool worker at a time

ORACLE_LEVELS = ("none", "fast", "full")
# The oracle checks each level runs, in the order check_spec runs them.
ORACLE_CHECKS = {
    "none": (),
    "fast": ("dual_generators", "primary_decomposition", "unmixed", "facet_partition",
             "intersection_bound", "cm_strongly_connected", "shelling_order"),
}
ORACLE_CHECKS["full"] = ORACLE_CHECKS["fast"] + ("cm_reisner", "scm_duval", "shellable")


@dataclass(frozen=True)
class SweepConfig:
    max_n: int = 4
    max_m: int = 4
    max_s: int = 3
    oracle_level: str = "fast"
    workers: int = 1
    perturb: bool = False

    def __post_init__(self):
        if self.max_n < 1 or self.max_m < 1 or self.max_s < 1:
            raise ideals.InvalidInput("sweep bounds must be >= 1")
        _check_level(self.oracle_level)


def _check_level(level):
    if level not in ORACLE_LEVELS:
        raise ideals.InvalidInput(f"oracle level must be one of {ORACLE_LEVELS}")


@dataclass
class SweepResult:
    configs_checked: int = 0
    mismatches: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    records: list = field(default_factory=list)
    elapsed: float = 0.0


def enumerate_specs(max_n, max_m, max_s):
    """All normalized specs in lexicographic (n, m, s, q-list, r-list) order."""
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            universe = ideals.VariableUniverse(n, m)
            # s distinct q's in 0..n and r's in 0..m; larger s yield
            # nothing, and asking itertools for them costs O(s) each
            for s in range(1, min(max_s, n + 1, m + 1) + 1):
                for qs in combinations(range(n + 1), s):
                    for rs_inc in combinations(range(m + 1), s):
                        rs = tuple(reversed(rs_inc))
                        if qs[0] == 0 and rs[0] == 0:
                            continue  # the unit summand I0*J0
                        yield MixedProductSpec(universe, tuple(zip(qs, rs)))


def spec_as_dict(spec):
    return {"n": spec.universe.n, "m": spec.universe.m,
            "pairs": [list(p) for p in spec.summands]}


def check_spec(spec: MixedProductSpec, oracle_level: str = "fast",
               perturb: bool = False) -> dict:
    """Run every applicable cross-check on one spec.

    Returns a record with the closed-form verdicts and the lists of
    mismatches and skipped (capped) oracle checks.  The checks on types
    and the homology checks run at any size; the shelling checks are
    skipped with the reason "vertex cap" above ``VERTEX_CAP`` vertices,
    and the shelling search above ``complexes.SHELLING_FACET_CAP``
    facets, a skip that only ``skip_reasons`` lists.  An oracle level outside
    ``ORACLE_LEVELS`` raises InvalidInput.
    """
    _check_level(oracle_level)
    mismatches = []
    skipped = []
    oracle = {}
    profile = spec.profile
    unmixed = products.is_unmixed_closed_form(spec)
    cm = products.is_cm_closed_form(spec, perturb=perturb)
    scm = products.is_scm_closed_form(spec)

    def check(name, outcome, witness=None, closed=None, found=None):
        """Record check ``name``: its mismatch, if any, and for an oracle check ``oracle[name]``.

        ``oracle[name]`` is ``outcome``, of one of two kinds.  With
        ``closed`` a closed form's ``Verdict``, it is the oracle's own
        verdict (True: the property holds), a mismatch when the two
        differ, recorded as the two booleans.  Otherwise it is an
        agreement flag (True: the closed form passed), a mismatch when
        false, recorded with ``closed`` and ``found`` as the two sides,
        their tuples as lists.
        """
        if isinstance(closed, products.Verdict):
            closed, found = closed.holds, outcome
            agrees = closed == outcome
        else:
            agrees = outcome
        if name in ORACLE_CHECKS["full"]:     # not a structural identity
            oracle[name] = outcome
        if not agrees:
            mismatches.append({"spec": spec_as_dict(spec), "check": name,
                               "closed_form": _as_lists(closed), "oracle": _as_lists(found),
                               "witness": repr(witness) if witness is not None else None})

    # structural identities need no enumeration
    try:
        check("profile_roundtrip", products.spec_from_profile(profile) == spec)
    except ideals.InvalidInput as exc:  # a profile no spec has
        check("profile_roundtrip", False, str(exc))
    dual = spec.dual
    check("dual_involution", dual.dual == spec)
    check("cm_implies_unmixed", unmixed.holds or not cm.holds, closed=cm.holds, found=unmixed.holds)
    check("cm_implies_scm", scm.holds or not cm.holds, closed=cm.holds, found=scm.holds)

    if oracle_level in ("fast", "full"):
        universe = spec.universe
        n, m = universe.n, universe.m
        # the one transversal computation, from the summand types that
        # define the ideal: the dual's generators are the minimal primes,
        # whose complements are the facets of the complex
        prime_types = kernels.transversal_types(spec.summands, n, m)
        check("dual_generators", list(dual.summands) == prime_types,
              closed=dual.summands, found=prime_types)

        # the union is the prime types, and each group's types meet the blocks it names
        px, pxy, py = groups = products.decomposition_types(spec)
        check("primary_decomposition",
              sorted(px + pxy + py) == prime_types and all(b == 0 for _, b in px)
              and all(a and b for a, b in pxy) and all(a == 0 for a, _ in py),
              closed=groups, found=prime_types)

        check("unmixed", len({a + b for a, b in prime_types}) == 1, unmixed.witness,
              closed=unmixed)

        # one block per facet type, the complements of the prime types,
        # x-counts rising as q_bar does
        facet_types = [(n - a, m - b) for a, b in reversed(prime_types)]
        block_types = list(zip(profile.q_bar, profile.r_bar))
        check("facet_partition", block_types == facet_types,
              closed=block_types, found=facet_types)

        check("intersection_bound", *_intersection_bound(profile, facet_types))
        check("cm_strongly_connected", _strongly_connected(facet_types), cm.witness, closed=cm)

        # the shelling checks alone list the facets, one per prime, a
        # generator of the dual, and are capped as listings
        full = oracle_level == "full"
        listing = scm.holds or full and cm.holds
        if listing and universe.size > VERTEX_CAP:
            skipped.append({"spec": spec_as_dict(spec), "reason": "vertex cap"})
            listing = False
        if listing:
            complex_ = ideals.complex_of_primes(universe, kernels.list_types(prime_types, n, m))
        if listing and scm.holds:
            order = products.shell_blocks(profile.sigma, products.facet_partition(spec))
            try:
                ok, witness = complexes.verify_shelling_order(complex_, order)
            except ideals.InvalidInput as exc:  # not a permutation of the facets
                ok, witness = False, str(exc)
            check("shelling_order", ok, witness, closed=True, found=False)

        if full:
            type_complex = (n, m, tuple(facet_types))
            check("cm_reisner", *complexes.reisner_cm(type_complex), closed=cm)
            check("scm_duval", *complexes.duval_scm(type_complex), closed=scm)
            if listing and cm.holds and len(complex_.masks) <= complexes.SHELLING_FACET_CAP:
                status = complexes.find_shelling(complex_).status
                check("shellable", status == "shellable", closed=True, found=status)

    return {
        "spec": spec_as_dict(spec),
        "profile": profile_as_dict(profile),
        "verdicts": {"unmixed": unmixed.holds, "cohen_macaulay": cm.holds,
                     "sequentially_cm": scm.holds},
        "oracle": oracle,
        "mismatches": mismatches,
        "skipped": skipped,
    }


def _as_lists(value):
    """``value`` with its tuples and lists, at any depth, as lists, as JSON reads them back."""
    return [_as_lists(v) for v in value] if isinstance(value, (list, tuple)) else value


def _intersection_bound(profile, types):
    """dim(F cap G) <= q(i) + r(j) - 1 for F in block i, G in block j, i < j.

    Block k is every set of type ``types[k]`` (the profile's blocks
    only; the facet partition check reports the rest), so a pair of
    blocks is compared by type (module docstring).  The witness is the
    first failing pair of block numbers, from 1, and their types.
    """
    for (i, (a, b)), (j, (c, d)) in combinations(enumerate(types[:len(profile.q_bar)]), 2):
        if min(a, c) + min(b, d) > profile.q_bar[i] + profile.r_bar[j]:
            return False, (i + 1, j + 1, [a, b], [c, d])
    return True, None


def _strongly_connected(types):
    """Whether the complex of every set of each type in ``types`` is pure and strongly connected.

    One type's sets are joined by single swaps, and two types of one
    size share a ridge only when their x-counts differ by one, so the
    x-counts, sorted, must step by one.
    """
    xs = sorted(a for a, _ in types)
    return len({a + b for a, b in types}) == 1 and all(y == x + 1 for x, y in zip(xs, xs[1:]))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Enumerate and check every spec within bounds; the records come in enumeration order."""
    start = time.monotonic()
    result = SweepResult()
    specs = list(enumerate_specs(config.max_n, config.max_m, config.max_s))
    check = partial(check_spec, oracle_level=config.oracle_level, perturb=config.perturb)
    # a pool starts all its workers at once: no more than the cores, or the chunks
    workers = min(config.workers, os.cpu_count() or 1, -(-len(specs) // CHUNK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(check, specs, chunksize=CHUNK))
    else:
        records = [check(s) for s in specs]
    for record in records:
        result.configs_checked += 1
        result.mismatches.extend(record["mismatches"])
        result.skipped.extend(record["skipped"])
        result.records.append(record)
    result.elapsed = time.monotonic() - start
    return result


def oracle_coverage(config: SweepConfig, records) -> list[str]:
    """One line per oracle check of the level: the specs it ran on, of how many, and why not more.

    Example: ``shellable 215 of 326 CM specs (facet cap 10)``.  A cap is
    named, with its value, only where its reason in ``skip_reasons`` kept
    the check off some record.
    """
    lines = []
    for name in ORACLE_CHECKS[config.oracle_level]:
        ran = sum(name in r["oracle"] for r in records)
        pool, what = records, "specs"
        if name == "shelling_order":
            pool, what = [r for r in records if r["verdicts"]["sequentially_cm"]], "SCM specs"
        elif name == "shellable":
            pool, what = [r for r in records if r["verdicts"]["cohen_macaulay"]], "CM specs"
        reasons = {reason for r in pool if name not in r["oracle"]
                   for reason in skip_reasons(r, config.oracle_level)}
        causes = [f"vertex cap {VERTEX_CAP}"] if "vertex cap" in reasons else []
        if FACET_CAP_SKIP in reasons:
            causes.append(f"facet cap {complexes.SHELLING_FACET_CAP}")
        lines.append(f"{name} {ran} of {len(pool)} {what}"
                     + (f" ({', '.join(causes)})" if causes else ""))
    return lines


def skip_reasons(record, level) -> list[str]:
    """Why checks of ``level`` did not run on ``record``: its ``skipped`` reasons, then the facet cap's.

    At ``full`` the shelling search runs on every CM spec that no cap in
    ``skipped`` stopped, unless it has too many facets: ``FACET_CAP_SKIP``,
    a reason the record leaves out of ``skipped``.
    """
    reasons = [s["reason"] for s in record["skipped"]]
    if (level == "full" and not reasons and record["verdicts"]["cohen_macaulay"]
            and "shellable" not in record["oracle"]):
        reasons.append(FACET_CAP_SKIP)
    return reasons


def profile_as_dict(profile):
    return {
        "s_prime": profile.s_prime,
        "q_bar": list(profile.q_bar),
        "r_bar": list(profile.r_bar),
        "sigma": list(profile.sigma),
        "height": profile.height,
        "dim": profile.dim_ring,
    }
