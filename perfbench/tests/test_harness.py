"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pytest  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mixedprod import homology, ideals, products, sweep  # noqa: E402


def deadline():
    return time.monotonic() + 60


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    first = workloads.make(name, 7)
    again = workloads.make(name, 7)
    assert [first.next_pass() for _ in range(3)] == [again.next_pass() for _ in range(3)]


def test_seeds_draw_different_inputs():
    assert workloads.make("cli_mix", 1).next_pass() != workloads.make("cli_mix", 2).next_pass()
    a = workloads.make("oracle_cold", 1).next_pass()
    b = workloads.make("oracle_cold", 2).next_pass()
    assert a != b and sorted(a) == sorted(b)


def test_every_wrap_point_resolves_and_uninstalls():
    originals = {(module, fn): getattr(sys.modules["mixedprod." + module], fn)
                 for module, fns in spans.LAYERS.values() for fn in fns}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patched}
        for name, (module, fns) in spans.LAYERS.items():
            for fn in fns:
                assert ("mixedprod." + module, fn) in patched
        # callers that bound the functions by name see the wrappers too
        assert ("mixedprod.complexes", "_faces_by_dim") in patched
        assert ("mixedprod.complexes", "reduced_homology_ranks") in patched
    finally:
        tracer.uninstall()
    for (module, fn), original in originals.items():
        assert getattr(sys.modules["mixedprod." + module], fn) is original


def test_missing_wrap_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(homology, "_faces_by_dim")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["homology._faces_by_dim"]


def test_traced_pass_attributes_time_to_layers():
    workload = workloads.SweepWorkload(0, 2, 2, 2, "full")
    out = workload.execute(workload.config, True, deadline())
    result = workload.summarize(workload.config, out)
    assert not result.failures
    (trace,) = result.traces
    calls = dict(zip(spans.NAMES, trace["calls"]))
    assert calls["sweep.run_sweep"] == 1
    assert calls["sweep.check_spec"] == len(workload.expected)
    assert calls["complexes.reisner_cm"] > 0 and calls["kernels.rank_int"] > 0
    assert sum(trace["self_s"]) == pytest.approx(result.work_s, rel=0.05)


@pytest.mark.parametrize("level", ["fast", "full"])
def test_perturbed_closed_form_fails_the_sweep(level):
    workload = workloads.SweepWorkload(0, 2, 2, 2, level)
    clean = workload.summarize(workload.config, workload.execute(workload.config, False, deadline()))
    assert clean.attempted == len(workload.expected) and not clean.failures
    broken = sweep.SweepConfig(2, 2, 2, level, workers=1, perturb=True)
    result = workload.summarize(broken, workload.execute(broken, False, deadline()))
    assert result.attempted == len(workload.expected)
    assert len(result.failures) / result.attempted > 0


def test_a_skipped_oracle_fails_the_record():
    workload = workloads.SweepWorkload(0, 3, 3, 2, "full")
    out = workload.execute(workload.config, False, deadline())
    assert not workload.summarize(workload.config, out).failures
    ran = {}
    for record in out["result"]["records"]:
        for name in record[1]:
            ran[name] = ran.get(name, 0) + 1
    assert ran["shelling_order"] > 0 and ran["shellable"] > 0
    for name in ran:
        dropped = [(key, {k: v for k, v in oracle.items() if k != name}, *rest)
                   for key, oracle, *rest in out["result"]["records"]]
        result = workload.summarize(workload.config, {**out, "result": {**out["result"],
                                                                        "records": dropped}})
        assert len(result.failures) == ran[name], name


def test_sweep_that_bypasses_the_timed_check_spec_cannot_be_measured():
    workload = workloads.SweepWorkload(0, 2, 2, 2, "fast")
    out = workload.execute(workload.config, False, deadline())
    out["result"]["times"].pop()
    with pytest.raises(workloads.Unmeasurable):
        workload.summarize(workload.config, out)


def test_shelling_reference_matches_the_library():
    for n, m, pairs in check.normalized_specs(5, 5, 3):
        order = products.shelling_order(workloads._spec(n, m, pairs))
        assert check.has_shelling_order(n, m, pairs) == (order is not None), (n, m, pairs)


def test_reference_matches_brute_force():
    for n, m, pairs in check.normalized_specs(3, 3, 3):
        spec = workloads._spec(n, m, pairs)
        primes = ideals.minimal_primes(products.expand_generators(spec))
        types = sorted({(sum(i < n for i in p), sum(i >= n for i in p)) for p in primes})
        assert check.corners(n, m, pairs) == types
        assert check.prime_count(n, m, types) == len(primes)


def test_normalized_specs_match_the_sweep_enumeration():
    expected = {(s.universe.n, s.universe.m, s.summands) for s in sweep.enumerate_specs(4, 4, 3)}
    assert set(check.normalized_specs(4, 4, 3)) == expected
    assert len(check.normalized_specs(4, 4, 3)) == 805


def _cli(argv):
    result = workloads._cli_job([argv], None)["calls"][0]
    return result[1:4]


def _call(command, n, m, pairs, as_json, **flags):
    argv = [command, "--n", str(n), "--m", str(m),
            "--pairs", ",".join(f"{q}:{r}" for q, r in pairs)]
    argv += [f"--{k}" for k, v in flags.items() if v] + (["--json"] if as_json else [])
    call = {"argv": argv, "command": command, "n": n, "m": m, "pairs": pairs, "json": as_json,
            "expand": flags.get("expand", False), "oracle": False}
    return call, argv


def _library(n, m, pairs):
    spec = workloads._spec(n, m, pairs)
    return products.is_cm_closed_form(spec).holds, products.is_scm_closed_form(spec).holds


@pytest.mark.parametrize("command,flags", [("classify", {}), ("dual", {}), ("dual", {"expand": True}),
                                           ("decompose", {}), ("facets", {})])
@pytest.mark.parametrize("as_json", [False, True])
def test_cli_check_accepts_right_and_rejects_wrong_answers(command, flags, as_json):
    for n, m, pairs in [(3, 2, [(1, 2), (2, 1)]), (4, 3, [(2, 0), (0, 3), (5, 1)]), (2, 2, [(1, 1)])]:
        call, argv = _call(command, n, m, pairs, as_json, **flags)
        code, out, err = _cli(argv)
        assert check.check_cli(call, code, out, err, _library) is None, (argv, out)
        # the same output is wrong for a spec with one more x-variable
        wrong = dict(call, n=n + 1)
        assert check.check_cli(wrong, code, out, err, _library) is not None, (argv, out)
        assert check.check_cli(call, 1, "", "error: nope\n", _library) is not None


def test_cli_check_expects_one_line_errors():
    call, argv = _call("classify", 2, 2, [(3, 3)], False)
    code, out, err = _cli(argv)
    assert code == 1 and check.check_cli(call, code, out, err, _library) is None
    assert check.check_cli(call, 1, "", "error: a\nerror: b\n", _library) is not None
    assert check.check_cli(call, 0, "", "", _library) is not None


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
