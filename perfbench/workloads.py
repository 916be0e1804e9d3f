"""The four workloads: seeded inputs, one pass of each, and its checks.

Every pass runs in a child forked from the benchmark process, which
has imported ``mixedprod`` but never run an oracle, so no cache state
carries from one pass to the next; ``oracle_cold`` forks once per spec
so none carries between specs either.  Each workload is a closed loop
with one caller and ``workers=1``.  A pass returns one item time per
spec (sweeps, ``oracle_cold``) or per CLI call (``cli_mix``), and the
parent checks every output after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import pickle
import random
import select
import signal
import statistics
import time
from itertools import combinations
from math import comb

from mixedprod import cli, products, sweep
from mixedprod.ideals import VariableUniverse
from mixedprod.products import MixedProductSpec

import check
from spans import Tracer


class Timeout(Exception):
    """The run passed its hard deadline; the child was killed."""


class Unmeasurable(Exception):
    """The program no longer runs the way a workload times it."""


# Scaled times are those of a host on which calibrate() takes CAL_REF_S,
# about its median on the host that measured results/BENCH_seed.json.
CAL_REF_S = 0.7e-3
CAL_EVERY_S = 0.05      # item time between two calibration samples
CALIBRATE = True        # traced runs turn it off: their times are not scaled


def calibrate():
    """Seconds for a fixed task of frozenset, set and sort work.

    The task resembles the oracles' face handling, so host speed moves
    it and the program alike.  It runs with the collector off, so it
    never pays for the program's garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        faces = set()
        for f in combinations(range(9), 4):
            face = frozenset(f)
            for v in f:
                faces.add(face - {v})
        ordered = sorted(faces, key=sorted)[:60]
        [f for f in ordered if not any(f < g for g in ordered)]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples taken between items of an untraced pass.

    On a shared host CPU speed can drift by a third over seconds to
    minutes; sampled in the same process between items, the task above
    tracks that drift in the program closely.  End-to-end times are
    scaled by CAL_REF_S over the mean sample (see Pass.scale).
    """

    def __init__(self, tracer):
        # spans would charge the samples to a layer
        self.on = tracer is None and CALIBRATE
        self.samples = [calibrate()] if self.on else []
        self.since = 0.0

    def after(self, seconds):
        self.since += seconds
        if self.on and self.since >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self.since = 0.0


def run_forked(job, tracer_wanted, deadline):
    """Run ``job(tracer)`` in a forked child and return its result.

    The child records spans only when ``tracer_wanted``.  A child that
    raises returns the formatted exception; one that is still running at
    ``deadline`` (a ``time.monotonic`` value) is killed.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            tracer = None
            if tracer_wanted:
                tracer = Tracer()
                tracer.install()
            try:
                out = {"ok": True, "result": job(tracer)}
            # the child must report and _exit whatever happens: an escaping
            # exception would run the parent's code on in the child
            except BaseException as exc:
                out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            if tracer is not None:
                tracer.uninstall()
                out["trace"] = tracer.result()
            with os.fdopen(w, "wb") as f:
                pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                raise Timeout("child still running at the deadline")
            chunk = os.read(r, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    if not chunks:
        return {"ok": False, "error": "child exited without a result"}
    return pickle.loads(b"".join(chunks))


def _spec(n, m, pairs):
    return MixedProductSpec(VariableUniverse(n, m), tuple(pairs))


def _compact(record):
    spec = record["spec"]
    return ((spec["n"], spec["m"], tuple(tuple(p) for p in spec["pairs"])),
            record["oracle"], len(record["mismatches"]), len(record["skipped"]),
            record["verdicts"])


class Pass:
    """What one pass measured, after its outputs were checked."""

    def __init__(self):
        self.item_s = []
        self.work_s = 0.0       # time inside the program, measured in the child
        self.attempted = 0
        self.failures = []      # reasons, one per failed spec or call
        self.oracle_checks = 0
        self.oracle_ran = {}    # oracle check name -> specs it ran on
        self.cm_specs = 0
        self.probe_defects = []
        self.traces = []
        self.cal_s = []         # calibration samples taken during the pass

    def scale(self):
        """Host-speed factor: CAL_REF_S over the mean calibration sample."""
        return CAL_REF_S / statistics.mean(self.cal_s) if self.cal_s else 1.0

    def add_trace(self, out):
        if "trace" in out:
            self.traces.append(out["trace"])

    def check_record(self, level, key, oracle, mismatches, skipped, verdicts):
        """Check one ``check_spec`` record made at oracle level ``level``."""
        self.attempted += 1
        self.oracle_checks += len(oracle)
        for name in oracle:
            self.oracle_ran[name] = self.oracle_ran.get(name, 0) + 1
        self.cm_specs += bool(verdicts["cohen_macaulay"])
        n, m, pairs = key
        unmixed = len({a + b for a, b in check.corners(n, m, pairs)}) == 1
        reason = None
        if mismatches:
            reason = f"{mismatches} mismatches"
        elif skipped:
            reason = f"{skipped} oracle checks skipped"
        elif not oracle or check.oracle_disagreements(oracle, verdicts):
            reason = f"oracle {oracle} contradicts verdicts {verdicts}"
        elif verdicts["unmixed"] != unmixed:
            reason = f"unmixed verdict {verdicts['unmixed']}, reference {unmixed}"
        else:
            missing = check.missing_oracles(n, m, pairs, level, oracle, verdicts["cohen_macaulay"])
            if missing:
                reason = f"oracle checks not run: {missing}"
        if reason:
            self.failures.append(f"{key}: {reason}")


class SweepWorkload:
    """``run_sweep`` over every normalized spec within fixed bounds.

    The spec set is exhaustive, so the seed does not change it.
    """

    def __init__(self, seed, max_n, max_m, max_s, level):
        self.config = sweep.SweepConfig(max_n, max_m, max_s, level, workers=1)
        # the highest percentile with ten specs beyond it in a single pass
        self.tail_pct = 98 if level == "full" else 99
        self.expected = set(check.normalized_specs(max_n, max_m, max_s))

    def next_pass(self):
        return self.config

    def execute(self, config, trace, deadline):
        return run_forked(lambda tracer: _sweep_job(config, tracer), trace, deadline)

    def summarize(self, config, out):
        result = Pass()
        result.add_trace(out)
        if not out["ok"]:
            result.attempted = len(self.expected)
            result.failures = [f"run_sweep raised {out['error']}"] * len(self.expected)
            return result
        job = out["result"]
        result.work_s = job["wall"]
        result.cal_s = job["cal"]
        seen = set()
        if len(job["times"]) != len(job["records"]):
            raise Unmeasurable(f"run_sweep made {len(job['records'])} records but "
                               f"{len(job['times'])} calls through sweep.check_spec")
        for record in job["records"]:
            result.check_record(config.oracle_level, *record)
            seen.add(record[0])
        missing = len(self.expected - seen) + len(job["records"]) - len(seen)
        result.attempted += missing
        result.failures += [f"{missing} specs missing or repeated"] * missing
        result.item_s = job["times"]
        return result


def _timed_check_spec(tracer, times, speed):
    """Wrap ``sweep.check_spec`` to time each spec; returns an undo function."""
    original = sweep.check_spec
    count = itertools.count()

    def timed(*args, **kwargs):
        if tracer is not None:
            tracer.set_item(next(count))
        t0 = time.perf_counter()
        record = original(*args, **kwargs)
        times.append(time.perf_counter() - t0)
        speed.after(times[-1])
        return record

    sweep.check_spec = timed
    return lambda: setattr(sweep, "check_spec", original)


def _sweep_job(config, tracer):
    times = []
    speed = Speed(tracer)
    undo = _timed_check_spec(tracer, times, speed)
    try:
        t0 = time.perf_counter()
        result = sweep.run_sweep(config)
        wall = time.perf_counter() - t0
    finally:
        undo()
    return {"wall": wall, "times": times, "cal": speed.samples,
            "records": [_compact(r) for r in result.records]}


def cost_proxy(n, m, pairs):
    """Rough cost of the full oracles on a spec: sum over faces G of 2^|G|.

    Reisner's criterion builds one link per face F, with one face per
    face G containing F, so this counts the faces of all links; it
    tracks the work of ``reisner_cm`` and, through the skeleta, of
    ``duval_scm``.
    """
    tops = [(n - a, m - b) for a, b in check.corners(n, m, pairs)]
    return sum(comb(n, a) * comb(m, b) * 2 ** (a + b)
               for a in range(n + 1) for b in range(m + 1)
               if any(a <= x and b <= y for x, y in tops))


class OracleColdWorkload:
    """``check_spec(spec, "full")`` on specs with n + m = 9, each in a fresh fork.

    The 758 specs (n, m <= 5, s <= 3) are sorted by ``cost_proxy`` and
    cut into ``PANEL`` equal strata; the panel is the middle spec of
    each, and every pass checks the whole panel in an order drawn from
    the seed.  The panel is fixed because per-spec cost spans two
    decades and the proxy predicts it only to within about 50%: drawing
    one spec per stratum from the seed moved the median over 48 specs
    by 17% (quartile distance over median) between seeds, more than any
    bound on the per-spec median allows.  With 40 strata, two passes gave
    too few specs near the tail percentile: it moved by 15% between seeds.
    """

    tail_pct = 85
    PANEL = 50

    def __init__(self, seed):
        self.rng = random.Random(seed)
        pool = [s for s in check.normalized_specs(5, 5, 3) if s[0] + s[1] == 9]
        pool.sort(key=lambda s: (cost_proxy(*s), s))
        size = len(pool) / self.PANEL
        self.panel = [pool[round((i + 0.5) * size)] for i in range(self.PANEL)]

    def next_pass(self):
        specs = list(self.panel)
        self.rng.shuffle(specs)
        return specs

    def execute(self, specs, trace, deadline):
        return [run_forked(lambda tracer: _cold_job(key, tracer), trace, deadline)
                for key in specs]

    def summarize(self, specs, outs):
        result = Pass()
        for key, out in zip(specs, outs):
            result.add_trace(out)
            if not out["ok"]:
                result.attempted += 1
                result.failures.append(f"{key}: check_spec raised {out['error']}")
                continue
            seconds, record, cal = out["result"]
            result.cal_s += cal
            result.check_record("full", *record)
            result.item_s.append(seconds)
            result.work_s += seconds
        return result


def _cold_job(key, tracer):
    if tracer is not None:
        tracer.set_item(0)
    spec = _spec(*key)
    speed = Speed(tracer)
    t0 = time.perf_counter()
    record = sweep.check_spec(spec, "full")
    seconds = time.perf_counter() - t0
    speed.after(CAL_EVERY_S)
    return seconds, _compact(record), speed.samples


def _cli_call(command, n, m, pairs, flags=(), as_json=True):
    argv = [command, "--n", str(n), "--m", str(m),
            "--pairs", ",".join(f"{q}:{r}" for q, r in pairs), *flags]
    if as_json:
        argv.append("--json")
    return {"argv": argv, "command": command, "n": n, "m": m, "pairs": pairs,
            "json": as_json, "expand": "--expand" in flags,
            "oracle": flags[flags.index("--oracle") + 1] if "--oracle" in flags else None}


# Known defects, run in every cli_mix pass.  A probe is answered right
# by exit 1 with a one-line error, or by exit 0 with a right output (for
# the oracle probe: one that reports the skipped oracle).
PROBES = {
    "decompose_cap_valueerror": _cli_call("decompose", 20000, 1, [(10000, 1)]),
    "dual_expand_cap_valueerror": _cli_call("dual", 20000, 1, [(10000, 1)], ["--expand"]),
    "classify_negative_cap_silent_skip": _cli_call(
        "classify", 2, 2, [(1, 1)], ["--oracle", "full", "--cap-vertices", "-1"]),
    "decompose_size_blind_cap": _cli_call("decompose", 500, 1, [(2, 1)]),
}

LARGE = 10 ** 6     # classify and dual: n, m log-uniform in 1..LARGE
SMALL = 8           # decompose, facets, dual --expand: n, m <= SMALL
ORACLE_SMALL = 3    # classify --oracle fast: n, m <= ORACLE_SMALL
SIZE_BITS = 10      # enumerations list 1 .. 2**SIZE_BITS - 1 sets

# call kind -> calls per pass; the enumerating kinds get one call per
# output-size class (see CliMixWorkload._enumerations)
MIX = {
    "classify": 60,
    "dual": 45,
    "decompose": SIZE_BITS,
    "facets": SIZE_BITS,
    "dual_expand": SIZE_BITS,
    "classify_oracle": 10,
    "invalid": 6,
}
ENUMERATING = ("decompose", "facets", "dual_expand")
ENUMERATION_DRAWS = 600     # about what filling every class takes on average


class CliMixWorkload:
    """Seeded in-process ``cli.main(argv)`` calls with captured output.

    Draws leave out n, m > SMALL for the enumerating subcommands, and
    outputs of 2**SIZE_BITS sets or more: there ``expand_generators`` is
    quadratic and ``decompose`` caps the number of components but not
    their size, so one call can run for minutes or fill memory.  The
    fixed ``PROBES`` keep those defects in view.
    """

    tail_pct = 99.5

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._library = {}

    def _pairs(self, n, m):
        pairs, s = [], self.rng.randint(1, 6)
        while len(pairs) < s:
            p = (self.rng.randint(0, n + 1), self.rng.randint(0, m + 1))
            if p != (0, 0):
                pairs.append(p)
        return pairs

    def _log_uniform(self):
        return max(1, round(10 ** self.rng.uniform(0, 6)))

    def _valid(self, size):
        """n, m <= size and pairs that normalize to a proper nonzero ideal."""
        while True:
            n, m = self.rng.randint(1, size), self.rng.randint(1, size)
            pairs = self._pairs(n, m)
            try:
                return n, m, pairs, check.normalize(n, m, pairs)
            except check.Refused:
                pass

    def _enumerations(self):
        """Per output-size class k = 1..SIZE_BITS, one spec for each enumerating
        kind, whose enumeration lists between 2**(k-1) and 2**k - 1 sets.

        Drawing one spec per size class keeps every pass's cost mix the
        same; uniform draws made the calls per second vary by 25% between
        seeds.  A fixed number of draws is sorted into the classes, so
        that drawing, which set-up times, costs the same for every seed;
        drawing each spec until it fell in its class took from 507 to 721
        draws on seeds 1-5.  A class still short after those draws (rare)
        is filled that way.
        """
        classes = {bits: [] for bits in range(1, SIZE_BITS + 1)}

        def draw():
            n, m, pairs, spec = self._valid(SMALL)
            return check.prime_count(n, m, check.corners(n, m, spec)).bit_length(), (n, m, pairs)

        for _ in range(ENUMERATION_DRAWS):
            bits, key = draw()
            if bits in classes and len(classes[bits]) < len(ENUMERATING):
                classes[bits].append(key)
        for bits, found in classes.items():
            while len(found) < len(ENUMERATING):
                got, key = draw()
                if got == bits:
                    found.append(key)
        return classes

    def _call(self, kind, index, enumerations):
        rng = self.rng
        command, flags, as_json = kind, (), rng.random() < 0.5
        if kind in ("classify", "dual", "invalid"):
            n, m = self._log_uniform(), self._log_uniform()
            pairs = self._pairs(n, m)
        elif kind == "classify_oracle":
            n, m, pairs, _ = self._valid(ORACLE_SMALL)
            command, flags, as_json = "classify", ("--oracle", "fast"), True
        else:
            n, m, pairs = enumerations[index + 1][ENUMERATING.index(kind)]
        if kind == "dual_expand":
            command, flags = "dual", ("--expand",)
        if kind == "invalid":
            command = rng.choice(["classify", "dual", "decompose", "facets"])
            if index % 3 == 0:
                pairs = pairs + [(0, 0)]
            elif index % 3 == 1:
                pairs = [(n + 1 + rng.randrange(3), r) for _, r in pairs]
            else:
                call = _cli_call(command, n, m, pairs, flags, as_json)
                call["argv"][call["argv"].index("--pairs") + 1] += ",1:x"
                call["pairs"] = None
                return call
        return _cli_call(command, n, m, pairs, flags, as_json)

    def next_pass(self):
        enumerations = self._enumerations()
        calls = [self._call(kind, i, enumerations)
                 for kind, count in MIX.items() for i in range(count)]
        calls += [dict(call, probe=name) for name, call in PROBES.items()]
        self.rng.shuffle(calls)
        return calls

    def library(self, n, m, pairs):
        key = (n, m, pairs)
        if key not in self._library:
            spec = _spec(n, m, pairs)
            self._library[key] = (products.is_cm_closed_form(spec).holds,
                                  products.is_scm_closed_form(spec).holds)
        return self._library[key]

    def execute(self, calls, trace, deadline):
        return run_forked(lambda tracer: _cli_job([c["argv"] for c in calls], tracer),
                          trace, deadline)

    def summarize(self, calls, out):
        result = Pass()
        result.add_trace(out)
        if not out["ok"]:
            result.attempted = len(calls)
            result.failures = [f"cli pass raised {out['error']}"] * len(calls)
            return result
        result.cal_s = out["result"]["cal"]
        for call, (seconds, code, stdout, stderr, exc) in zip(calls, out["result"]["calls"]):
            result.attempted += 1
            result.item_s.append(seconds)
            result.work_s += seconds
            if "probe" in call:
                if not _probe_answered(call, code, stdout, stderr, exc, self.library):
                    result.probe_defects.append(call["probe"])
                continue
            reason = (f"uncaught {exc}" if exc else
                      check.check_cli(call, code, stdout, stderr, self.library))
            if reason:
                result.failures.append(f"{' '.join(call['argv'])}: {reason}")
            elif call["oracle"] and code == 0:
                oracle = _json_field(stdout, "oracle")
                result.oracle_checks += len(oracle)
                for name in oracle:
                    result.oracle_ran[name] = result.oracle_ran.get(name, 0) + 1
                result.cm_specs += bool(_json_field(stdout, "verdicts")["cohen_macaulay"])
        return result


def _json_field(stdout, key):
    return json.loads(stdout)[key]


def _probe_answered(call, code, stdout, stderr, exc, library):
    """True if the program answers the probe as it should."""
    if exc or code not in (0, 1):
        return False
    if code == 1 or not call["oracle"]:
        # with pairs=None, check_cli expects exit 1 with a one-line error
        return check.check_cli(dict(call, pairs=None) if code == 1 else call,
                               code, stdout, stderr, library) is None
    payload = json.loads(stdout)
    return payload["oracle"] is not None or any(
        "skip" in key and value for key, value in payload.items())


def _cli_job(argvs, tracer):
    results = []
    speed = Speed(tracer)
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.set_item(i)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as error:
            code = None
            exc = f"{type(error).__name__}: {str(error)[:200]}"
        results.append((time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), exc))
        speed.after(results[-1][0])
    return {"calls": results, "cal": speed.samples}


def make(name, seed):
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name == "sweep_full":
        return SweepWorkload(seed, 4, 4, 3, "full")
    if name == "sweep_fast":
        return SweepWorkload(seed, 5, 5, 3, "fast")
    if name == "oracle_cold":
        return OracleColdWorkload(seed)
    if name == "cli_mix":
        return CliMixWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["sweep_full", "oracle_cold", "sweep_fast", "cli_mix"]
