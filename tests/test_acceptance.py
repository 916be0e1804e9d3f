"""Acceptance suite: every headline criterion at its stated tolerance.

All checks are exact (set equality / boolean agreement, zero tolerance)
over the exhaustive enumeration of normalized specs with n, m <= 4 and
every s (842 specs).  One PASS line is printed per criterion (run with
-s to see them).
"""

import hashlib
import json
import time
from itertools import combinations

import pytest

from mixedprod import (
    VariableUniverse,
    alexander_dual,
    closed_form_dual,
    closed_form_primary_decomposition,
    duval_scm,
    expand_generators,
    facet_partition,
    find_shelling,
    is_cm_closed_form,
    is_scm_closed_form,
    is_unmixed_closed_form,
    minimal_primes,
    normalize,
    qr_profile,
    reduced_homology_ranks,
    reisner_cm,
    spec_from_profile,
    stanley_reisner_complex,
)
from mixedprod.cli import main as cli_main
from mixedprod.ideals import (
    ideal_product,
    ideal_sum,
    minimalize,
    vertex_lists,
)
from mixedprod.products import generator_sets
from mixedprod.sweep import SweepConfig, enumerate_specs, run_sweep

MAX_N, MAX_M = 4, 4
MAX_S = min(MAX_N, MAX_M) + 1   # every s: no normalized spec has more summands

# The SHA-256 of the records as ``sweep --json`` prints them (canonical
# JSON, one line each): of this suite's full sweep, and of the
# ``--perturb`` full sweep of n, m <= 3, whose records carry Reisner
# witnesses.  Either digest changes with any verdict, oracle result or
# witness, so a change to the oracles' internals must leave both alone.
# Recompute with
#   python -m mixedprod.cli sweep --max-n 4 --max-m 4 --max-s 5 --oracle full --json | sha256sum
#   python -m mixedprod.cli sweep --max-n 3 --max-m 3 --max-s 4 --oracle full --perturb --json | sha256sum
FULL_SWEEP_SHA256 = "e85688e65683e9c90b0c9b3613986efbe13e8fda61464c882d7b0a7b06f38a8c"
PERTURBED_SWEEP_SHA256 = "bcf3d52b68b07685fe3bcf6f4d30deb228902d67cf667d137e6d3c55c96e0316"


@pytest.fixture(scope="module")
def full_sweep():
    start = time.monotonic()
    result = run_sweep(SweepConfig(MAX_N, MAX_M, MAX_S, "full"))
    result.elapsed = time.monotonic() - start
    return result


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def _mismatches(sweep, *checks):
    return [mm for mm in sweep.mismatches if mm["check"] in checks]


def test_criterion_1_dual_closed_form():
    start = time.monotonic()
    bad = []
    count = 0
    for spec in enumerate_specs(MAX_N, MAX_M, MAX_S):
        count += 1
        if expand_generators(closed_form_dual(spec)) != alexander_dual(expand_generators(spec)):
            bad.append(spec)
    elapsed = time.monotonic() - start
    report(1, not bad and elapsed < 60,
           f"({count} specs, {len(bad)} disagreements, {elapsed:.1f}s < 60s)")


def test_criterion_2_primary_decomposition():
    bad = [spec for spec in enumerate_specs(MAX_N, MAX_M, MAX_S)
           if vertex_lists(closed_form_primary_decomposition(spec).components)
           != minimal_primes(expand_generators(spec))]
    report(2, not bad, f"({len(bad)} disagreements)")


def test_oracle_input_matches_generic_ideal_arithmetic():
    # The oracles' input is the summand types: the sum of the I_q * J_r
    # holds every set of q x's and r y's for each summand (q, r).
    # ``generator_sets`` lists exactly those sets, each once, and they
    # must be the minimal generators that generic ideal arithmetic
    # builds, so the summand types are the ideal's types.
    start = time.monotonic()
    bad = []
    count = 0
    for spec in enumerate_specs(MAX_N, MAX_M, MAX_S):
        count += 1
        u = spec.universe
        xs, ys = range(u.n), range(u.n, u.size)
        total = None
        for q, r in spec.summands:
            term = ideal_product(minimalize(u, combinations(xs, q)),
                                 minimalize(u, combinations(ys, r)))
            total = term if total is None else ideal_sum(total, term)
        listed = generator_sets(spec)
        if len(set(listed)) != len(listed) or set(listed) != total.generators:
            bad.append(spec)
    elapsed = time.monotonic() - start
    report("oracle input", not bad and count == 842,
           f"({count} specs, {len(bad)} disagreements, {elapsed:.2f}s)")


def test_criterion_3_cm_equivalence(full_sweep):
    bad = _mismatches(full_sweep, "cm_reisner", "cm_strongly_connected", "shellable")
    ok = not bad and not full_sweep.skipped and full_sweep.elapsed < 600
    report(3, ok,
           f"({full_sweep.configs_checked} specs, {len(bad)} disagreements, "
           f"{full_sweep.elapsed:.1f}s < 600s)")


def test_criterion_4_scm_equivalence(full_sweep):
    bad = _mismatches(full_sweep, "scm_duval")
    report(4, not bad, f"({len(bad)} disagreements)")


def test_criterion_5_complete_bipartite_family():
    bad = []
    for n in range(1, 5):
        for m in range(1, 5):
            spec = normalize(VariableUniverse(n, m), [(1, 1)])
            cm = is_cm_closed_form(spec).holds
            scm = is_scm_closed_form(spec).holds
            if cm != (n == 1 and m == 1) or scm != (min(n, m) == 1):
                bad.append(("closed", n, m, cm, scm))
            complex_ = stanley_reisner_complex(expand_generators(spec))
            if reisner_cm(complex_)[0] != cm or duval_scm(complex_)[0] != scm:
                bad.append(("oracle", n, m))
    report(5, not bad, f"(I1*J1 for n,m <= 4; {len(bad)} disagreements)")


def test_criterion_6_constructive_shelling(full_sweep):
    bad = _mismatches(full_sweep, "shelling_order")
    scm = [r for r in full_sweep.records if r["verdicts"]["sequentially_cm"]]
    shelled = sum(r["oracle"].get("shelling_order", False) for r in scm)
    report(6, not bad and shelled == len(scm),
           f"({len(bad)} failed shelling orders, {shelled} of {len(scm)} SCM specs shelled)")


def test_criterion_7_structural_identities(full_sweep):
    bad = _mismatches(full_sweep, "profile_roundtrip", "dual_involution",
                      "facet_partition", "intersection_bound", "unmixed")
    roundtrip_bad = [s for s in enumerate_specs(MAX_N, MAX_M, MAX_S)
                     if spec_from_profile(qr_profile(s)) != s]
    report(7, not bad and not roundtrip_bad,
           f"({len(bad)} sweep mismatches, {len(roundtrip_bad)} round-trip failures)")


def test_criterion_8_homology_self_checks():
    from mixedprod import boundary_matrix, make_complex

    failures = []
    triangle = make_complex(VariableUniverse(3, 0), [{0, 1}, {1, 2}, {0, 2}])
    if reduced_homology_ranks(triangle) != {-1: 0, 0: 0, 1: 1}:
        failures.append("triangle ranks")
    full = make_complex(VariableUniverse(4, 0), [{0, 1, 2, 3}])
    for d in range(1, 4):
        low = boundary_matrix(full, d - 1)
        high = boundary_matrix(full, d)
        # each d-face's boundary, mapped through del_{d-1}, must vanish
        for row in high.rows:
            image = {}
            for j, a in row.items():
                for k, b in low.rows[j].items():
                    image[k] = image.get(k, 0) + a * b
            if any(image.values()):
                failures.append(f"dd!=0 at d={d}")
    cone = make_complex(VariableUniverse(4, 0), [{0, 1, 3}, {1, 2, 3}, {0, 2, 3}])
    if any(reduced_homology_ranks(cone).values()):
        failures.append("cone not acyclic")
    from mixedprod.homology import _faces_by_dim
    by_dim = _faces_by_dim(triangle)
    ranks = reduced_homology_ranks(triangle)
    euler_faces = sum((-1) ** d * len(fs) for d, fs in by_dim.items() if d >= 0) - 1
    euler_ranks = sum((-1) ** d * r for d, r in ranks.items() if d >= 0) - ranks[-1]
    if euler_faces != euler_ranks:
        failures.append("euler relation")
    report(8, not failures, f"({failures or 'dd=0, euler, cone, triangle all exact'})")


def test_criterion_9_perturb_harness(capsys):
    code = cli_main(["sweep", "--max-n", "2", "--max-m", "2", "--max-s", "2",
                     "--oracle", "fast", "--perturb"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(9, code == 2 and "MISMATCH" in out,
               f"(exit code {code}, mismatches reported)")


def test_sweep_has_no_mismatches_at_all(full_sweep):
    assert full_sweep.mismatches == []
    count = sum(1 for _ in enumerate_specs(MAX_N, MAX_M, MAX_S))
    assert full_sweep.configs_checked == count == 842


def _records_sha256(records):
    text = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_records_are_pinned(full_sweep):
    assert _records_sha256(full_sweep.records) == FULL_SWEEP_SHA256
    perturbed = run_sweep(SweepConfig(3, 3, 4, "full", perturb=True))
    assert sum(m["check"] == "cm_reisner" for m in perturbed.mismatches) > 0
    assert _records_sha256(perturbed.records) == PERTURBED_SWEEP_SHA256
