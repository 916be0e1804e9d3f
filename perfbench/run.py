"""Benchmark of mixedprod, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) for S seconds of
whole passes, give or take half a pass, checks every output, prints each metric on a
line of its own and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, measured without spans; with --trace 1 each pass
is run twice on the same inputs, untraced and traced, and the metrics
are the per-layer ones, per traced pass, plus the tracing overhead.
The spans of a traced run are written to perfbench/out/.

mixedprod is imported from src/ of the checkout this file sits in, with
MIXEDPROD_CAP_VERTICES and MIXEDPROD_PURE unset.  The run refuses
python -O, which strips the assert statements of mixedprod.products and
so would measure a different program, and exits 2 without a result when
src/mixedprod is missing.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
UNSET = ("MIXEDPROD_CAP_VERTICES", "MIXEDPROD_PURE")
HARD_LIMIT_S = 170      # the run gives up, without a result, past this
SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "oracle_checks": "count",
    "peak_rss_mb": "MB",
}

ORACLE_CHECKS = ["dual_generators", "primary_decomposition", "unmixed", "facet_partition",
                 "intersection_bound", "cm_strongly_connected", "shelling_order",
                 "cm_reisner", "scm_duval", "shellable"]

# Times how long a fresh interpreter takes to import mixedprod and draw
# the workload's inputs.  argv: src, perfbench, workload, seed.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import mixedprod, workloads
workloads.make(sys.argv[3], int(sys.argv[4])).next_pass()
print(time.perf_counter() - t0)
"""

# Times a fixed set-up that does not involve mixedprod: a fresh
# interpreter importing standard modules.  Run alternately with the set-up
# above, it tracks the host's speed at starting Python code, which drifts
# by a fifth over minutes.  Set-up times are scaled by
# IMPORT_REF_S / (its median), IMPORT_REF_S being about that median on the
# host that measured results/BENCH_seed.json.
REFERENCE_SNIPPET = """
import time
t0 = time.perf_counter()
import csv, decimal, difflib, email.parser, fractions, http.client, ipaddress
import logging, optparse, tarfile, unittest, uuid, xml.dom.minidom, zipfile
print(time.perf_counter() - t0)
"""
IMPORT_REF_S = 0.075


# per-layer work counts, summed over a traced pass
WORK_COUNTS = ["products.expand_generators.generators", "products.facet_partition.facets",
               "kernels.minimal_hitting_sets.input_sets", "homology.faces.faces",
               "homology.boundary_matrix.entries", "kernels.rank_int.entries"]
# entry points: any time no layer below them claims lands in their self time
OUTER_LAYERS = ("cli.main", "sweep.run_sweep", "sweep.check_spec")
RATIOS = ["ideals.alexander_dual.repeat_ratio", "complexes.make_complex.kept_ratio",
          "complexes.find_shelling.inconclusive_ratio", "homology.reduced_homology_ranks.hit_ratio"]


def per_layer_units():
    """Per-layer metric name -> unit, in the order they are printed."""
    import spans
    units = {}
    for name in spans.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in WORK_COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    for check in ORACLE_CHECKS:
        units[f"sweep.oracle.{check}.ran"] = "count"
    units["sweep.shellable.coverage"] = "ratio"
    units["cli.probes.defects"] = "count"
    units["trace.overhead"] = "ratio"
    units["trace.self_coverage"] = "ratio"
    return units


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def provenance():
    import mixedprod
    digest = hashlib.sha256()
    package = os.path.dirname(mixedprod.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(package, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "mixedprod_file": os.path.relpath(mixedprod.__file__, ROOT),
        "backend": mixedprod.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "unset": list(UNSET),
    }


def measure_setup(workload, seed, deadline):
    """Median set-up time, raw and scaled to the reference host speed."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            die(f"set-up failed: {done.stderr.strip()[-500:]}")
        return float(done.stdout)

    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(fresh([REFERENCE_SNIPPET]))
        times.append(fresh([SETUP_SNIPPET, SRC, HERE, workload, str(seed)]))
    setup = statistics.median(times)
    return setup, setup * IMPORT_REF_S / statistics.median(reference), statistics.median(reference)


def percentile(values, pct):
    """Nearest-rank percentile, stepping down until ten samples lie beyond it."""
    ordered = sorted(values)
    for p in [pct] + [q for q in (99, 98, 95, 90, 85, 75, 50) if q < pct]:
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            break
    return p, ordered[rank - 1], len(ordered) - rank


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def run_passes(workload, seconds, traced, deadline):
    """Whole passes for about ``seconds``; checks run between passes.

    A new pass starts only while the time so far plus half the last pass
    stays below ``seconds``, so the timed total ends within half a pass
    of it.  Runs make at least two passes, so that the tail percentiles
    keep ten items beyond them and a traced run runs each mode first once.
    """
    rows = []
    timed = last = 0.0
    while len(rows) < 2 or timed + last / 2 < seconds:
        started = timed
        inputs = workload.next_pass()
        row = {}
        # traced runs alternate which mode goes first, so drift in host
        # speed does not all land on one side of trace.overhead
        modes = [False, True] if traced else [False]
        for mode in (modes if len(rows) % 2 == 0 else modes[::-1]):
            t0 = time.perf_counter()
            raw = workload.execute(inputs, mode, deadline)
            wall = time.perf_counter() - t0
            timed += wall
            result = workload.summarize(inputs, raw)
            result.wall = wall
            row[mode] = result
        rows.append(row)
        last = timed - started
    return rows


def report_failures(passes):
    failures = [f for p in passes for f in p.failures]
    defects = [d for p in passes for d in p.probe_defects]
    attempted = sum(p.attempted for p in passes)
    print(f"fail_frac = {(len(failures) + len(defects)) / attempted:.6g} "
          f"({len(failures)} failed and {len(defects)} known-defect probes of {attempted} attempted)")
    for name in sorted(set(defects)):
        print(f"  known defect reproduced: {name} x{defects.count(name)}")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    return attempted, len(failures)


def end_to_end(workload, passes, setup):
    """End-to-end metrics; times are scaled to the reference host speed.

    Each pass's item times and wall time (less its calibration samples)
    are multiplied by the pass's ``scale()``; the raw figures are
    printed beside the scaled ones.
    """
    from workloads import CAL_REF_S
    items = [t for p in passes for t in p.item_s]
    scaled = [t * p.scale() for p in passes for t in p.item_s]
    walls = [p.wall - sum(p.cal_s) for p in passes]
    wall = sum(walls)
    scaled_wall = sum(w * p.scale() for w, p in zip(walls, passes))
    pct, tail, beyond = percentile(scaled, workload.tail_pct)
    samples = [c for p in passes for c in p.cal_s]
    print(f"{len(passes)} passes, {len(items)} items, {wall:.3f} s timed; "
          f"{len(samples)} calibration samples, mean {statistics.mean(samples) * 1000:.4f} ms "
          f"against {CAL_REF_S * 1000:.4f} ms for the reference host")
    metrics = {
        "setup_s": setup[1],
        "throughput_per_s": len(items) / scaled_wall,
        "item_p50_ms": statistics.median(scaled) * 1000,
        "item_tail_ms": tail * 1000,
        "oracle_checks": statistics.mean(p.oracle_checks for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"setup_s": f"median of {SETUP_REPEATS} fresh interpreters; raw {setup[0]:.6g} s, "
                        f"reference set-up {setup[2]:.6g} s against {IMPORT_REF_S:g} s",
             "throughput_per_s": f"raw {len(items) / wall:.6g}",
             "item_p50_ms": f"{len(items)} items; raw {statistics.median(items) * 1000:.6g}",
             "item_tail_ms": f"p{pct}, {len(items)} items, {beyond} beyond it; "
                             f"raw {percentile(items, pct)[1] * 1000:.6g}",
             "oracle_checks": "verdicts per pass, mean over passes"}
    return metrics, notes


def per_layer(rows, out_path):
    import spans
    traced = [row[True] for row in rows]
    plain = [row[False] for row in rows]
    runs = len(traced)
    calls = [0] * len(spans.NAMES)
    self_s = [0.0] * len(spans.NAMES)
    counts = {}
    missing = set()
    with gzip.open(out_path, "wt", compresslevel=1) as out:
        out.write("# pass child span layer start end parent item\n")
        for index, result in enumerate(traced):
            for child, trace in enumerate(result.traces):
                missing.update(trace["missing"])
                for k in range(len(spans.NAMES)):
                    calls[k] += trace["calls"][k]
                    self_s[k] += trace["self_s"][k]
                for key, value in trace["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                for span, (layer, parent, item, start, end) in enumerate(trace["spans"]):
                    out.write(f"{index} {child} {span} {spans.NAMES[layer]} "
                              f"{start:.9f} {end:.9f} {parent} {item}\n")

    def ratio(num, den):
        return num / den if den else 0.0

    at = spans.INDEX
    metrics = {}
    for k, name in enumerate(spans.NAMES):
        metrics[f"{name}.calls"] = calls[k] / runs
        metrics[f"{name}.self_s"] = self_s[k] / runs
    for name in WORK_COUNTS:
        metrics[name] = counts.get(name, 0) / runs
    metrics["ideals.alexander_dual.repeat_ratio"] = ratio(
        counts.get("ideals.alexander_dual.repeats", 0), calls[at["ideals.alexander_dual"]])
    metrics["complexes.make_complex.kept_ratio"] = ratio(
        counts.get("complexes.make_complex.output_facets", 0),
        counts.get("complexes.make_complex.input_facets", 0))
    metrics["complexes.find_shelling.inconclusive_ratio"] = ratio(
        counts.get("complexes.find_shelling.inconclusive", 0), calls[at["complexes.find_shelling"]])
    metrics["homology.reduced_homology_ranks.hit_ratio"] = ratio(
        counts.get("homology.reduced_homology_ranks.hits", 0),
        calls[at["homology.reduced_homology_ranks"]])
    for check in ORACLE_CHECKS:
        metrics[f"sweep.oracle.{check}.ran"] = sum(p.oracle_ran.get(check, 0) for p in traced) / runs
    metrics["sweep.shellable.coverage"] = ratio(
        sum(p.oracle_ran.get("shellable", 0) for p in traced), sum(p.cm_specs for p in traced))
    metrics["cli.probes.defects"] = sum(len(p.probe_defects) for p in traced) / runs
    metrics["trace.overhead"] = ratio(sum(p.wall for p in traced), sum(p.wall for p in plain))
    inner = sum(t for name, t in zip(spans.NAMES, self_s) if name not in OUTER_LAYERS)
    metrics["trace.self_coverage"] = ratio(inner, sum(p.work_s for p in traced))
    notes = {"trace.overhead": "traced / untraced wall time of the same passes",
             "trace.self_coverage": "self times of the layers below "
                                    f"{', '.join(OUTER_LAYERS)} / traced time inside the program"}
    if missing:
        print(f"missing wrap points (their layers read 0): {', '.join(sorted(missing))}")
    print(f"{runs} traced passes; values are per traced pass; spans in {os.path.relpath(out_path, ROOT)}")
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + HARD_LIMIT_S
    if sys.flags.optimize:
        die("refusing to run under python -O: it strips the assert statements in "
            "mixedprod.products, so it would measure a different program")
    if not os.path.isfile(os.path.join(SRC, "mixedprod", "__init__.py")):
        die(f"no mixedprod package under {SRC}")
    for var in UNSET:
        os.environ.pop(var, None)
    sys.path[:0] = [SRC, HERE]
    import mixedprod
    if not os.path.abspath(mixedprod.__file__).startswith(SRC + os.sep):
        die(f"imported mixedprod from {mixedprod.__file__}, not from {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    sys.stdout.flush()
    try:
        if args.trace:
            # no pass takes calibration samples, so the untraced and traced
            # passes do the same work apart from the spans
            workloads.CALIBRATE = False
            workload = workloads.make(args.workload, args.seed)
            rows = run_passes(workload, args.seconds, True, deadline)
            passes = [row[False] for row in rows] + [row[True] for row in rows]
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            out_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.txt.gz")
            metrics, notes = per_layer(rows, out_path)
            units = per_layer_units()
        else:
            setup = measure_setup(args.workload, args.seed, deadline)
            workload = workloads.make(args.workload, args.seed)
            passes = [row[False] for row in run_passes(workload, args.seconds, False, deadline)]
            metrics, notes = end_to_end(workload, passes, setup)
            units = END_TO_END
    except (workloads.Timeout, subprocess.TimeoutExpired) as exc:
        die(f"run passed its {HARD_LIMIT_S} s limit: {exc}")
    except workloads.Unmeasurable as exc:
        die(f"workload cannot be timed: {exc}")
    attempted, failed = report_failures(passes)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
