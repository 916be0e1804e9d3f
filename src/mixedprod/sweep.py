"""Exhaustive verification sweeps: closed forms against brute-force oracles.

Every normalized spec within the configured bounds is enumerated and
each closed-form statement is compared against an independent oracle:

  - the dual formula against minimal-hitting-set Alexander duality:
    the ideal is the sum of its summands I_q J_r, each every set of q
    x's and r y's, so it is S_n x S_m invariant with the summand types
    as its types, and the prime types follow from them by the orbit
    rule (``kernels.transversal_types``), one representative
    transversal per type, without listing the generators,
  - the primary decomposition against the dual's minimal primes, each
    group against the blocks its primes meet,
  - the CM verdict against purity + strong connectivity (fast) and
    against Reisner link homology (full),
  - the sequential-CM verdict against the pure-skeleton test,
  - the unmixedness verdict against equal component sizes,
  - the facet partition block by block against the facet types, the
    complements of the prime types, each block every set of one type,
  - the intersection bound against the blocks' facets, which learns from
    the facet partition check that each block is an S_n x S_m orbit and
    then compares each block's first facet alone,
  - each "sequentially CM" verdict against a shelling order of the
    facets (a nonpure shelling proves sequential CM, Bjorner and Wachs
    1996).

Both tiers stay on bitmasks from the spec to the verdict.  The
closed-form listings (generators of the dual, the decomposition's
components, the facet blocks and the shelling order) come as masks from
the same ``products`` functions the CLI prints.  They are compared with
the primes and facet blocks listed from the prime types
(``kernels.list_types``) as sorted mask lists and
become vertex lists (``ideals.vertex_lists``) only in a mismatch record
or a witness, vertex names only in the CLI.

Any disagreement is recorded as a mismatch; the sweep exits nonzero on
the first nonempty mismatch list.  ``perturb=True`` deliberately breaks
the CM closed form so the harness can demonstrate it detects bugs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from . import complexes, ideals, kernels, products
from .ideals import vertex_lists
from .products import MixedProductSpec

# The oracles enumerate subsets of the n + m vertices; check_spec, their
# one entry point, skips them above this many vertices.
VERTEX_CAP = 16
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
    cap_vertices: int = VERTEX_CAP
    cap_facets: int = complexes.SHELLING_FACET_CAP

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


def _mismatch(spec, check, closed, oracle, witness=None):
    return {
        "spec": spec_as_dict(spec),
        "check": check,
        "closed_form": closed,
        "oracle": oracle,
        "witness": repr(witness) if witness is not None else None,
    }


def spec_as_dict(spec):
    return {"n": spec.universe.n, "m": spec.universe.m,
            "pairs": [list(p) for p in spec.summands]}


def check_spec(spec: MixedProductSpec, oracle_level: str = "fast",
               perturb: bool = False,
               cap_vertices: int = VERTEX_CAP,
               cap_facets: int = complexes.SHELLING_FACET_CAP) -> dict:
    """Run every applicable cross-check on one spec.

    Returns a record with the closed-form verdicts and the lists of
    mismatches and skipped (capped) oracle checks.  The oracles are
    skipped with the reason "vertex cap" above ``cap_vertices`` vertices,
    and with "generator cap" when the spec or its dual expands to more
    than ``products.GENERATOR_CAP`` generators.  An oracle level outside
    ``ORACLE_LEVELS`` raises InvalidInput.
    """
    _check_level(oracle_level)
    mismatches = []
    skipped = []
    profile = spec.profile
    unmixed = products.is_unmixed_closed_form(spec)
    cm = products.is_cm_closed_form(spec, perturb=perturb)
    scm = products.is_scm_closed_form(spec)

    # structural identities need no enumeration
    if products.spec_from_profile(profile) != spec:
        mismatches.append(_mismatch(spec, "profile_roundtrip", None, None))
    dual = spec.dual
    if dual.dual != spec:
        mismatches.append(_mismatch(spec, "dual_involution", None, None))
    if cm.holds and not unmixed.holds:
        mismatches.append(_mismatch(spec, "cm_implies_unmixed", cm.holds, unmixed.holds))
    if cm.holds and not scm.holds:
        mismatches.append(_mismatch(spec, "cm_implies_scm", cm.holds, scm.holds))

    oracle = {}
    dual_closed = None
    if oracle_level in ("fast", "full"):
        if spec.universe.size > cap_vertices:
            skipped.append({"spec": spec_as_dict(spec), "reason": "vertex cap"})
        else:
            try:
                # both or neither: the spec fits the cap while its dual may not
                products.check_generator_count(spec)
                dual_closed = products.generator_sets(dual)
            except ideals.ResourceCapExceeded:
                skipped.append({"spec": spec_as_dict(spec), "reason": "generator cap"})
    if dual_closed is not None:
        universe = spec.universe
        n, m = universe.n, universe.m
        # the one transversal computation, from the summand types that
        # define the ideal: the dual's generators are the minimal primes,
        # whose complements are the facets of the complex
        prime_types = kernels.transversal_types(spec.summands, n, m)
        primes = kernels.list_types(prime_types, n, m)
        oracle["dual_generators"] = sorted(dual_closed) == primes
        if not oracle["dual_generators"]:
            mismatches.append(_mismatch(spec, "dual_generators",
                                        vertex_lists(dual_closed), vertex_lists(primes)))

        # the union is the primes, and each group's primes meet the blocks it names
        decomp = products.closed_form_primary_decomposition(spec)
        x_block = (1 << n) - 1
        oracle["primary_decomposition"] = (
            decomp.components == primes
            and all(not p & ~x_block for p in decomp.px)
            and all(p & x_block and p & ~x_block for p in decomp.pxy)
            and all(not p & x_block for p in decomp.py))
        if not oracle["primary_decomposition"]:
            groups = [vertex_lists(g) for g in (decomp.px, decomp.pxy, decomp.py)]
            mismatches.append(_mismatch(spec, "primary_decomposition",
                                        groups, vertex_lists(primes)))

        sizes = {p.bit_count() for p in primes}
        oracle["unmixed"] = len(sizes) == 1
        if unmixed.holds != oracle["unmixed"]:
            mismatches.append(_mismatch(spec, "unmixed", unmixed.holds,
                                        oracle["unmixed"], unmixed.witness))

        complex_ = ideals.complex_of_primes(universe, primes, prime_types)
        # one block per facet type, the complements of the prime types,
        # x-counts rising as q_bar does
        facet_blocks = [kernels.list_types([(n - a, m - b)], n, m)
                        for a, b in reversed(prime_types)]
        blocks = products.facet_partition(spec)
        oracle["facet_partition"] = [sorted(b) for b in blocks] == facet_blocks
        if not oracle["facet_partition"]:
            mismatches.append(_mismatch(spec, "facet_partition",
                                        [vertex_lists(b) for b in blocks],
                                        [vertex_lists(b) for b in facet_blocks]))

        bound_ok, bound_witness = _intersection_bound(profile, blocks, oracle["facet_partition"])
        oracle["intersection_bound"] = bound_ok
        if not bound_ok:
            mismatches.append(_mismatch(spec, "intersection_bound", None, None, bound_witness))

        pure = complexes.is_pure(complex_)
        strong = pure and complexes.is_strongly_connected(complex_)
        oracle["cm_strongly_connected"] = strong
        if cm.holds != strong:
            mismatches.append(_mismatch(spec, "cm_strongly_connected",
                                        cm.holds, strong, cm.witness))

        if scm.holds:
            order = products.shell_blocks(profile.sigma, blocks)
            ok, witness = complexes.verify_shelling_order(complex_, order)
            oracle["shelling_order"] = ok
            if not ok:
                mismatches.append(_mismatch(spec, "shelling_order", True, False, witness))

        if oracle_level == "full":
            ok, witness = complexes.reisner_cm(complex_)
            oracle["cm_reisner"] = ok
            if cm.holds != ok:
                mismatches.append(_mismatch(spec, "cm_reisner", cm.holds, ok, witness))

            ok, witness = complexes.duval_scm(complex_)
            oracle["scm_duval"] = ok
            if scm.holds != ok:
                mismatches.append(_mismatch(spec, "scm_duval", scm.holds, ok, witness))

            if cm.holds and len(complex_.masks) <= cap_facets:
                result = complexes.find_shelling(complex_, cap_facets)
                oracle["shellable"] = result.status == "shellable"
                if result.status != "shellable":
                    mismatches.append(_mismatch(spec, "shellable", True, result.status))

    return {
        "spec": spec_as_dict(spec),
        "profile": profile_as_dict(profile),
        "verdicts": {"unmixed": unmixed.holds, "cohen_macaulay": cm.holds,
                     "sequentially_cm": scm.holds},
        "oracle": oracle,
        "mismatches": mismatches,
        "skipped": skipped,
    }


def _intersection_bound(profile, blocks, orbits):
    """dim(F cap G) <= q(i) + r(j) - 1 for F in block i, G in block j, i < j.

    ``blocks`` holds the facets of each block as bitmasks; the witness
    is the first failing pair, as sorted vertex lists.  ``orbits`` is the
    facet partition check's verdict: when it holds, block k is every set
    of one type, an S_n x S_m orbit, and some permutation p takes any F
    of block i to its first facet F0 and block j to itself, so a failing
    pair (F, G) gives the failing pair (F0, p(G)).  Block i then fails
    against block j exactly when F0 does, the first failing pair has F0
    in it either way, and F0 alone is compared.  Otherwise every pair is.
    """
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            limit = profile.q_bar[i] + profile.r_bar[j]
            for f in blocks[i][:1] if orbits else blocks[i]:
                for g in blocks[j]:
                    if (f & g).bit_count() > limit:
                        return False, (i + 1, j + 1, list(kernels.bit_indices(f)),
                                       list(kernels.bit_indices(g)))
    return True, None


def run_sweep(config: SweepConfig) -> SweepResult:
    """Enumerate and check every spec within bounds; the records come in enumeration order."""
    start = time.monotonic()
    result = SweepResult()
    specs = list(enumerate_specs(config.max_n, config.max_m, config.max_s))
    check = partial(check_spec, oracle_level=config.oracle_level, perturb=config.perturb,
                    cap_vertices=config.cap_vertices, cap_facets=config.cap_facets)
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

    Example: ``shellable 215 of 311 CM specs (facet cap 10)``.  Each skip
    reason found among the records is named with its cap.
    """
    caps = {"vertex cap": config.cap_vertices, "generator cap": products.GENERATOR_CAP}
    lines = []
    for name in ORACLE_CHECKS[config.oracle_level]:
        ran = sum(name in r["oracle"] for r in records)
        pool, what = records, "specs"
        if name == "shelling_order":
            pool, what = [r for r in records if r["verdicts"]["sequentially_cm"]], "SCM specs"
        elif name == "shellable":
            pool, what = [r for r in records if r["verdicts"]["cohen_macaulay"]], "CM specs"
        reasons = {skip["reason"] for r in pool for skip in r["skipped"]}
        causes = [f"{reason} {cap}" for reason, cap in caps.items() if reason in reasons]
        if name == "shellable" and any(map(shelling_capped, pool)):
            causes.append(f"facet cap {config.cap_facets}")
        lines.append(f"{name} {ran} of {len(pool)} {what}"
                     + (f" ({', '.join(causes)})" if causes else ""))
    return lines


def shelling_capped(record) -> bool:
    """Whether the facet cap kept the shelling search off a ``full`` level record.

    The search runs on every CM spec that no cap in ``skipped`` stopped,
    unless it has too many facets, a skip that ``skipped`` does not list.
    """
    return (record["verdicts"]["cohen_macaulay"] and not record["skipped"]
            and "shellable" not in record["oracle"])


def profile_as_dict(profile):
    return {
        "s_prime": profile.s_prime,
        "q_bar": list(profile.q_bar),
        "r_bar": list(profile.r_bar),
        "sigma": list(profile.sigma),
        "height": profile.height,
        "dim": profile.dim_ring,
    }
