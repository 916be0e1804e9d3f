"""Command-line interface.

Subcommands: classify | dual | decompose | facets | oracle | sweep.
Specs are given as --n/--m block sizes plus --pairs "q:r,q:r,...".
Output is UTF-8 text, or canonical JSON with --json (sweep mode emits
one JSON object per spec, JSON lines).

Exit codes: 0 success / no mismatch, 1 invalid input (usage errors included),
output closed by its reader (sweep records with stdout closed too) or a
failed write, 2 mismatch found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import complexes, ideals, products, sweep
from .ideals import MixedProdError, VariableUniverse
from .sweep import SweepConfig

# Lowest accepted value of each numeric option.
MINIMUM = {"max_n": 1, "max_m": 1, "max_s": 1, "workers": 1}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with a one-line error, as other invalid input does."""

    def error(self, message):
        raise ideals.InvalidInput(message)


def parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        q, _, r = chunk.partition(":")
        try:
            pairs.append((int(q), int(r)))
        except ValueError:
            raise ideals.InvalidInput(f"cannot parse summand {chunk!r}; expected q:r")
    return pairs


def _spec_from_args(args):
    universe = VariableUniverse(args.n, args.m)
    return products.normalize(universe, parse_pairs(args.pairs))


def _names(universe, masks):
    """The sets of ``masks`` as lists of vertex names, in lex order."""
    return [[universe.var_name(i) for i in vs] for vs in ideals.vertex_lists(masks)]


def _unlisted_skips(record, level):
    """The facet cap's skip of the shelling search, which a record leaves out of ``skipped``."""
    if level == "full" and sweep.shelling_capped(record):
        return [f"shellable (facet cap {complexes.SHELLING_FACET_CAP})"]
    return []


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_classify(args):
    spec = _spec_from_args(args)
    universe = spec.universe
    oracle, skipped, unlisted, mismatched = {}, [], [], False
    if args.oracle != "none":
        record = sweep.check_spec(spec, args.oracle)
        oracle = record["oracle"]
        skipped = [s["reason"] for s in record["skipped"]]
        unlisted = _unlisted_skips(record, args.oracle)
        mismatched = bool(record["mismatches"])
    report = products.classify(spec)
    payload = {
        "spec": sweep.spec_as_dict(spec),
        "profile": sweep.profile_as_dict(report.profile),
        "verdicts": {
            "unmixed": report.unmixed.holds,
            "cohen_macaulay": report.cohen_macaulay.holds,
            "sequentially_cm": report.sequentially_cm.holds,
        },
        "witnesses": {
            "unmixed": report.unmixed.witness,
            "cohen_macaulay": report.cohen_macaulay.witness,
            "sequentially_cm": report.sequentially_cm.witness,
        },
        "oracle": oracle or None,
        "skipped": skipped,
        "timing": round(time.monotonic() - args.t0, 3) if args.timing else None,
    }
    if args.json:
        _emit(payload)
    else:
        p = report.profile
        print(f"spec: n={universe.n} m={universe.m} "
              + " + ".join(f"I{q}J{r}" for q, r in spec.summands))
        print(f"profile: s'={p.s_prime} q_bar={list(p.q_bar)} r_bar={list(p.r_bar)} "
              f"sigma={list(p.sigma)} height={p.height} dim={p.dim_ring}")
        for name, verdict in [("unmixed", report.unmixed),
                              ("cohen_macaulay", report.cohen_macaulay),
                              ("sequentially_cm", report.sequentially_cm)]:
            line = f"{name}: {str(verdict.holds).lower()}"
            if verdict.witness is not None:
                line += f"  (witness: {verdict.witness})"
            print(line)
        for name, ok in sorted(oracle.items()):
            print(f"oracle {name}: {str(ok).lower()}")
        for reason in skipped + unlisted:
            print(f"oracle skipped: {reason}")
        if args.timing:
            print(f"timing: {payload['timing']} s")
    return 2 if mismatched else 0


def cmd_dual(args):
    spec = _spec_from_args(args)
    dual = spec.dual
    payload = {"spec": sweep.spec_as_dict(spec), "dual": sweep.spec_as_dict(dual)}
    if args.expand:
        products.check_listing_size(spec.universe, dual.summands, "generators")
        payload["generators"] = _names(spec.universe, products.generator_sets(dual))
    if args.json:
        _emit(payload)
    else:
        print("dual: " + " + ".join(f"I{q}J{r}" for q, r in dual.summands))
        if args.expand:
            print("generators: " + ", ".join("*".join(g) for g in payload["generators"]))
    return 0


def cmd_decompose(args):
    spec = _spec_from_args(args)
    universe = spec.universe
    # the dual's generators are the minimal primes
    products.check_listing_size(universe, spec.dual.summands, "components")
    decomp = products.closed_form_primary_decomposition(spec)
    h = spec.profile.height
    payload = {
        "spec": sweep.spec_as_dict(spec),
        "height": h,
        "px": _names(universe, decomp.px),
        "pxy": _names(universe, decomp.pxy),
        "py": _names(universe, decomp.py),
    }
    if args.json:
        _emit(payload)
    else:
        for label in ("px", "pxy", "py"):
            comps = payload[label]
            print(f"{label} ({len(comps)} components): "
                  + "; ".join("(" + ",".join(c) + ")" for c in comps))
        print(f"height: {h}")
    return 0


def cmd_facets(args):
    spec = _spec_from_args(args)
    universe = spec.universe
    profile = spec.profile
    products.check_listing_size(universe, zip(profile.q_bar, profile.r_bar), "facets")
    blocks = products.facet_partition(spec)
    payload = {
        "spec": sweep.spec_as_dict(spec),
        "blocks": [_names(universe, b) for b in blocks],
    }
    if args.json:
        _emit(payload)
    else:
        for k, b in enumerate(payload["blocks"], 1):
            print(f"block {k} ({len(b)} facets): "
                  + " ".join("{" + ",".join(f) + "}" for f in b))
    return 0


def cmd_oracle(args):
    spec = _spec_from_args(args)
    record = sweep.check_spec(spec, "full")
    if args.json:
        _emit(record)
    else:
        skipped = ([s["reason"] for s in record["skipped"]]
                   + _unlisted_skips(record, "full"))
        for name, ok in sorted(record["oracle"].items()):
            print(f"{name}: {str(ok).lower()}")
        for reason in skipped:
            print(f"skipped: {reason}")
        if record["mismatches"]:
            print(f"MISMATCHES: {len(record['mismatches'])}")
        elif not skipped:
            print("all oracles agree with the closed forms")
    return 2 if record["mismatches"] else 0


def cmd_sweep(args):
    config = SweepConfig(max_n=args.max_n, max_m=args.max_m, max_s=args.max_s,
                         oracle_level=args.oracle, workers=args.workers,
                         perturb=args.perturb)
    if args.json and not args.out and sys.stdout is None:
        # as with a closed pipe, records that reach no reader end the run with 1
        raise MixedProdError("stdout is closed; give --out to keep the records")
    try:
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        raise MixedProdError(f"cannot write --out {args.out}: {exc.strerror}") from None
    with out or contextlib.nullcontext():
        result = sweep.run_sweep(config)
        if out is not None or args.json:
            for record in result.records:   # to stdout when out is None
                print(json.dumps(record, sort_keys=True, separators=(",", ":")), file=out)
    summary = (f"checked {result.configs_checked} specs, "
               f"{len(result.mismatches)} mismatches, "
               f"{len(result.skipped)} skipped, {result.elapsed:.1f}s")
    stream = sys.stderr if args.json else sys.stdout
    print(summary, file=stream)
    for line in sweep.oracle_coverage(config, result.records):
        print(line, file=stream)
    if not args.json:
        for mm in result.mismatches:
            print(f"MISMATCH {mm['check']}: spec={mm['spec']} "
                  f"closed={mm['closed_form']} oracle={mm['oracle']} witness={mm['witness']}")
    return 2 if result.mismatches else 0


def build_parser():
    parser = _Parser(
        prog="mixedprod",
        description="Mixed product ideals: classification, duality, decomposition, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_args(p):
        p.add_argument("--n", type=int, required=True, help="number of x-variables")
        p.add_argument("--m", type=int, required=True, help="number of y-variables")
        p.add_argument("--pairs", required=True, help="summands as q:r,q:r,...")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="closed-form verdicts, optionally cross-checked")
    spec_args(p)
    p.add_argument("--oracle", choices=sweep.ORACLE_LEVELS, default="none")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual", help="closed-form Alexander dual")
    spec_args(p)
    p.add_argument("--expand", action="store_true", help="also print the dual's generators")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("decompose", help="closed-form primary decomposition")
    spec_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("facets", help="facet partition of the Stanley-Reisner complex")
    spec_args(p)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("oracle", help="run every oracle cross-check on one spec")
    spec_args(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="exhaustive closed-form vs oracle verification")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--max-m", type=int, default=4, dest="max_m")
    p.add_argument("--max-s", type=int, default=3, dest="max_s")
    p.add_argument("--oracle", choices=sweep.ORACLE_LEVELS, default="fast")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--perturb", action="store_true",
                   help="flip one closed-form condition (harness self-test)")
    p.add_argument("--json", action="store_true", help="JSON-lines records on stdout")
    p.add_argument("--out", help="write JSON-lines records to this file")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.t0 = time.monotonic()
        for name, low in MINIMUM.items():
            if getattr(args, name, low) < low:
                raise ideals.InvalidInput(f"--{name.replace('_', '-')} must be at least {low}")
        code = args.func(args)
        if sys.stdout is not None:      # None when started with stdout closed
            sys.stdout.flush()          # a closed pipe shows here, not in the exit-time flush
        return code
    except MixedProdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, or the
        # interpreter's own flush at exit fails on the same pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # A write that failed (a full disk): one line, and stdout on
        # devnull so that the exit-time flush of what is left stays quiet.
        print(f"error: {exc}", file=sys.stderr)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
