"""CLI surface: commands, exit codes, JSON determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedprod
from mixedprod import VariableUniverse, normalize
from mixedprod.cli import main, parse_pairs
from mixedprod.ideals import InvalidInput
from mixedprod.sweep import ORACLE_CHECKS, SweepConfig, check_spec, oracle_coverage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pairs():
    assert parse_pairs("1:2,2:1") == [(1, 2), (2, 1)]
    with pytest.raises(InvalidInput):
        parse_pairs("nope")


def test_classify_worked_example(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--m", "2", "--pairs", "1:2,2:1")
    assert code == 0
    assert "cohen_macaulay: true" in out
    assert "sequentially_cm: true" in out
    assert "unmixed: true" in out


def test_classify_disjoint_edges(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--m", "2", "--pairs", "1:1")
    assert code == 0
    assert "cohen_macaulay: false" in out
    assert "sequentially_cm: false" in out
    assert "unmixed: true" in out


def test_classify_with_oracle(capsys):
    code, out, _ = run(capsys, "classify", "--n", "1", "--m", "3", "--pairs", "1:1",
                       "--oracle", "full")
    assert code == 0
    assert "sequentially_cm: true" in out
    assert "oracle scm_duval: true" in out


def test_classify_json_deterministic(capsys):
    code, out1, _ = run(capsys, "classify", "--n", "2", "--m", "2",
                        "--pairs", "1:2,2:1", "--json")
    assert code == 0
    _, out2, _ = run(capsys, "classify", "--n", "2", "--m", "2",
                     "--pairs", "1:2,2:1", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdicts"] == {"cohen_macaulay": True, "sequentially_cm": True,
                                   "unmixed": True}
    assert payload["profile"]["q_bar"] == [0, 1, 2]
    assert payload["timing"] is None


def test_classify_timing_in_text_mode(capsys):
    argv = ["classify", "--n", "2", "--m", "2", "--pairs", "1:2,2:1", "--timing"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert re.fullmatch(r"timing: \d+(\.\d+)? s", out.splitlines()[-1])
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and len(out.splitlines()) == 1
    assert json.loads(out)["timing"] >= 0


def test_classify_invalid_input(capsys):
    code, _, err = run(capsys, "classify", "--n", "2", "--m", "2", "--pairs", "bogus")
    assert code == 1 and "error:" in err


def test_classify_non_proper(capsys):
    code, _, err = run(capsys, "classify", "--n", "2", "--m", "2", "--pairs", "0:0")
    assert code == 1 and "error:" in err


def test_dual_single_summand(capsys):
    code, out, _ = run(capsys, "dual", "--n", "3", "--m", "2", "--pairs", "2:1")
    assert code == 0
    assert "dual: I0J2 + I2J0" in out


def test_dual_twice_round_trips(capsys):
    _, out, _ = run(capsys, "dual", "--n", "3", "--m", "2", "--pairs", "2:1", "--json")
    dual = json.loads(out)["dual"]
    pairs = ",".join(f"{q}:{r}" for q, r in dual["pairs"])
    _, out2, _ = run(capsys, "dual", "--n", "3", "--m", "2", "--pairs", pairs, "--json")
    assert json.loads(out2)["dual"]["pairs"] == [[2, 1]]


def test_dual_expand(capsys):
    code, out, _ = run(capsys, "dual", "--n", "1", "--m", "1", "--pairs", "1:1", "--expand")
    assert code == 0
    assert "x1, y1" in out


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "2", "--m", "2", "--pairs", "1:1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["px"] == [["x1", "x2"]]
    assert payload["py"] == [["y1", "y2"]]
    assert payload["height"] == 2


def test_decompose_six_components(capsys):
    _, out, _ = run(capsys, "decompose", "--n", "2", "--m", "2", "--pairs", "1:2,2:1",
                    "--json")
    payload = json.loads(out)
    total = len(payload["px"]) + len(payload["pxy"]) + len(payload["py"])
    assert total == 6 and payload["height"] == 2


def test_facets(capsys):
    code, out, _ = run(capsys, "facets", "--n", "2", "--m", "2", "--pairs", "1:1",
                       "--json")
    assert code == 0
    assert json.loads(out)["blocks"] == [[["y1", "y2"]], [["x1", "x2"]]]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--m", "2", "--pairs", "1:1")
    assert code == 0
    assert "all oracles agree" in out


def test_oracle_reports_the_shelling_search_the_facet_cap_skips(capsys):
    # I6J6 is CM with 12 facets, past the facet cap of 10
    argv = ["oracle", "--n", "6", "--m", "6", "--pairs", "6:6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "shellable:" not in out
    assert out.splitlines()[-1] == "skipped: shellable (facet cap 10)"
    # records keep the skip out of their skipped list
    _, out, _ = run(capsys, *argv, "--json")
    record = json.loads(out)
    assert "shellable" not in record["oracle"] and record["skipped"] == []


@pytest.mark.parametrize("pairs, level, skip", [
    ("6:6", "full", True),      # CM, 12 facets
    ("6:6", "fast", False),     # the fast level has no shelling search
    ("1:1", "full", False),     # not CM: no shelling search is due
])
def test_classify_reports_the_shelling_search_the_facet_cap_skips(capsys, pairs, level, skip):
    argv = ["classify", "--n", "6", "--m", "6", "--pairs", pairs, "--oracle", level]
    reasons = ["shellable (facet cap 10)"] if skip else []
    code, out, _ = run(capsys, *argv)
    skipped = [line for line in out.splitlines() if "skipped" in line]
    assert code == 0 and skipped == [f"oracle skipped: {reason}" for reason in reasons]
    # the JSON lists the skip too, unlike the record
    _, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out)["skipped"] == reasons


def test_sweep_clean_exit_zero(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "2", "--max-m", "2", "--max-s", "2",
                       "--oracle", "fast")
    assert code == 0
    assert "0 mismatches" in out


def test_sweep_perturb_exit_two(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "2", "--max-m", "2", "--max-s", "2",
                       "--oracle", "fast", "--perturb")
    assert code == 2
    assert "MISMATCH" in out


def test_sweep_json_lines(capsys, tmp_path):
    out_file = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "sweep", "--max-n", "1", "--max-m", "1", "--max-s", "1",
                     "--oracle", "none", "--out", str(out_file))
    assert code == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 3  # I1, J1, I1J1 at n=m=1
    assert all("verdicts" in r for r in records)


def test_sweep_workers(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "2", "--max-m", "2", "--max-s", "1",
                       "--oracle", "fast", "--workers", "2")
    assert code == 0
    assert "0 mismatches" in out


@pytest.mark.parametrize("argv", [["decompose"], ["dual", "--expand"], ["facets"]])
def test_huge_enumeration_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "20000", "--m", "1", "--pairs", "10000:1")
    assert code == 1 and not out
    assert err.startswith("error: more than the cap") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--max-n", "0", "--max-m", "1"],
    ["sweep", "--max-n", "1", "--max-m", "1", "--max-s", "-2"],
    ["sweep", "--max-n", "1", "--max-m", "1", "--workers", "-3"],
    ["sweep", "--max-n", "1", "--max-m", "1", "--workers", "0"],
])
def test_out_of_range_options_are_one_line_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: --") and len(err.splitlines()) == 1


def test_classify_reports_skipped_oracle(capsys):
    # the checks on types run at any size; the vertex cap skips the rest
    # on these 17 vertices
    argv = ["classify", "--n", "9", "--m", "8", "--pairs", "1:1", "--oracle", "full"]
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    type_checks = set(ORACLE_CHECKS["fast"]) - {"shelling_order"}
    assert code == 0 and set(payload["oracle"]) == type_checks
    assert payload["skipped"] == ["vertex cap"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[5:] == [
        f"oracle {name}: {str(payload['oracle'][name]).lower()}" for name in sorted(type_checks)
    ] + ["oracle skipped: vertex cap"]
    _, out, _ = run(capsys, *argv[:-2], "--json")
    assert json.loads(out)["oracle"] is None and json.loads(out)["skipped"] == []


def test_caps_only_on_commands_that_read_them(capsys):
    # the caps are constants: no command reads a cap option
    spec = ["--n", "2", "--m", "2", "--pairs", "1:1"]
    for argv in (["classify", *spec], ["dual", *spec], ["decompose", *spec], ["facets", *spec],
                 ["oracle", *spec], ["sweep", "--max-n", "1", "--max-m", "1"]):
        code, out, err = run(capsys, *argv, "--cap-vertices", "3")
        assert code == 1 and not out
        assert err == "error: unrecognized arguments: --cap-vertices 3\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--workers", "abc"],
    ["classify", "--n", "2", "--m", "2"],
    ["classify", "--n", "2", "--m", "2", "--pairs", "1:1", "--oracle", "most"],
    ["nope"],
    [],
])
def test_usage_errors_are_one_line_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_decompose_caps_printed_variables(capsys):
    # 500 components of 499 variables each: few components, a huge listing
    code, out, err = run(capsys, "decompose", "--n", "500", "--m", "1", "--pairs", "2:1")
    assert code == 1 and not out
    assert err == "error: more than the cap of 100000 variables in the components\n"
    # the primes hold 100,100 variables, the generators of the spec itself 45,047
    code, out, err = run(capsys, "decompose", "--n", "2", "--m", "15", "--pairs", "0:7,2:0")
    assert code == 1 and err == "error: more than the cap of 100000 variables in the components\n"
    code, out, _ = run(capsys, "decompose", "--n", "8", "--m", "8", "--pairs", "2:6,6:2",
                       "--json")
    payload = json.loads(out)
    components = payload["px"] + payload["pxy"] + payload["py"]
    assert code == 0 and len(components) == 3152
    assert sum(map(len, components)) == 18928


def test_dual_expand_caps_printed_variables(capsys):
    # 500 generators of 499 variables each: few generators, a huge listing
    code, out, err = run(capsys, "dual", "--n", "500", "--m", "1", "--pairs", "2:1",
                         "--expand")
    assert code == 1 and not out
    assert err == "error: more than the cap of 100000 variables in the generators\n"
    # the dual's generators hold 100,100 variables, those of the spec itself 45,047
    code, out, err = run(capsys, "dual", "--n", "2", "--m", "15", "--pairs", "0:7,2:0",
                         "--expand")
    assert code == 1 and err == "error: more than the cap of 100000 variables in the generators\n"
    code, out, _ = run(capsys, "dual", "--n", "8", "--m", "8", "--pairs", "1:5,5:1",
                       "--expand", "--json")
    generators = json.loads(out)["generators"]
    assert code == 0 and len(generators) == 4902
    assert sum(map(len, generators)) == 39216


def test_sweep_reports_oracle_coverage(capsys):
    argv = ["sweep", "--max-n", "2", "--max-m", "2", "--max-s", "2", "--oracle", "full"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("checked 37 specs")
    assert lines[1:] == [
        "dual_generators 37 of 37 specs",
        "primary_decomposition 37 of 37 specs",
        "unmixed 37 of 37 specs",
        "facet_partition 37 of 37 specs",
        "intersection_bound 37 of 37 specs",
        "cm_strongly_connected 37 of 37 specs",
        "shelling_order 36 of 36 SCM specs",
        "cm_reisner 37 of 37 specs",
        "scm_duval 37 of 37 specs",
        "shellable 30 of 30 CM specs",
    ]
    # a cap is named only beside a check it kept off some spec: past
    # n, m <= 2, CM specs have more facets than the shelling search takes
    code, out, err = run(capsys, "sweep", "--max-n", "4", "--max-m", "4", "--max-s", "5",
                         "--oracle", "full", "--json")
    assert code == 0 and all(json.loads(line) for line in out.splitlines())
    assert err.splitlines()[-4:] == [
        "shelling_order 671 of 671 SCM specs",
        "cm_reisner 842 of 842 specs",
        "scm_duval 842 of 842 specs",
        "shellable 215 of 326 CM specs (facet cap 10)",
    ]
    # and past 16 vertices, the vertex cap keeps the checks that list facets off
    specs = [normalize(VariableUniverse(n, m), [(n, m)]) for n, m in ((9, 8), (4, 4))]
    records = [check_spec(spec, "full") for spec in specs]
    assert oracle_coverage(SweepConfig(9, 8, 1, "full"), records)[-4:] == [
        "shelling_order 1 of 2 SCM specs (vertex cap 16)",
        "cm_reisner 1 of 2 specs (vertex cap 16)",
        "scm_duval 1 of 2 specs (vertex cap 16)",
        "shellable 1 of 2 CM specs (vertex cap 16)",
    ]


@pytest.mark.parametrize("name", ["missing/x.jsonl", "."])
def test_sweep_out_unwritable_is_a_one_line_error(capsys, monkeypatch, tmp_path, name):
    path = tmp_path / name   # a missing directory, or a directory
    monkeypatch.setattr(mixedprod.sweep, "run_sweep", None)   # no spec may run
    code, out, err = run(capsys, "sweep", "--max-n", "1", "--max-m", "1", "--out", str(path))
    assert code == 1 and not out
    assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1


def test_facets_caps_printed_variables(capsys):
    # 21 vertices, a short listing: two blocks of one facet each
    code, out, _ = run(capsys, "facets", "--n", "11", "--m", "10", "--pairs", "1:1")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run(capsys, "facets", "--n", "21", "--m", "1", "--pairs", "21:1")
    assert code == 0
    # 20 vertices, eleven blocks of 1,847,560 variables in all
    pairs = ",".join(f"{q}:{11 - q}" for q in range(1, 11))
    code, out, err = run(capsys, "facets", "--n", "10", "--m", "10", "--pairs", pairs)
    assert code == 1 and not out
    assert err == "error: more than the cap of 100000 variables in the facets\n"


SWEEP_JSON = [sys.executable, "-m", "mixedprod.cli", "sweep", "--max-n", "4", "--max-m", "4",
              "--oracle", "none", "--json"]


def _cli_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixedprod.__file__)))


def test_closed_pipe_ends_without_a_traceback():
    # the 805 records outgrow the pipe buffer, so the writer meets the closed end
    proc = subprocess.Popen(SWEEP_JSON, env=_cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["spec"]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_closed_stdout_ends_without_a_traceback():
    # started with no stdout at all, as `>&-` in a shell does: the records
    # would reach no reader, so the run fails as on a closed pipe
    proc = subprocess.run(SWEEP_JSON, env=_cli_env(), stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: stdout is closed; give --out to keep the records\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["classify", "--n", "2", "--m", "2", "--pairs", "1:1"],
    SWEEP_JSON[3:],
    SWEEP_JSON[3:-1] + ["--out", "/dev/full"],
], ids=["classify", "sweep-json", "sweep-out"])
def test_a_failed_write_is_a_one_line_error(argv):
    # stdout, and --out where given, on a full device: each write fails
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mixedprod.cli", *argv], env=_cli_env(),
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


# (valid, malformed) values; the oracle-running calls get the small block sizes only.
SMALL = (["1", "2", "3"], ["0", "-1", "abc", "", "2.5"])
ANY = (SMALL[0] + ["8", "1000000"], SMALL[1])
PAIRS = (["1:1", "1:2,2:1", "0:1", "2:1", "3:0,0:3", "1:1,1:1", "1000000:1", "5:5"],
         ["0:0", "-1:2", "q:r", "1", ""])
MAX_S = (["1", "3", "1000000"], ["0", "-2", "x"])
WORKERS = (["1"], ["0", "-3", "abc"])
STRAY = ["--json", "--expand", "--timing", "--perturb", "--bogus", "--help", "-h",
         "--n", "--pairs=1:1", "--max-s", "extra"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["classify", "dual", "decompose", "facets", "oracle",
                                    "sweep", "nope"]))
    often = st.sampled_from([True, True, True, False])

    def option(name, values):
        valid, malformed = values
        return [[name, draw(st.sampled_from(valid if draw(often) else malformed))]] \
            if draw(often) else []

    level = draw(st.sampled_from(["none", "fast", "full", "most"]))
    runs_oracles = command in ("oracle", "sweep") or (command == "classify" and level != "none")
    sizes = SMALL if runs_oracles else ANY
    if command == "sweep":
        groups = (option("--max-n", sizes) + option("--max-m", sizes) + option("--max-s", MAX_S)
                  + [["--oracle", level]] + option("--workers", WORKERS))
    else:
        groups = option("--n", sizes) + option("--m", sizes) + option("--pairs", PAIRS)
        if command == "classify":
            groups.append(["--oracle", level])
    if command == "dual" and draw(often):
        groups.append(["--expand"])
    if not draw(often):
        groups += [[stray] for stray in draw(st.lists(st.sampled_from(STRAY), min_size=1,
                                                      max_size=2))]
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_ends_in_an_exit_code_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:     # --help, -h
            code = exc.code
            assert code in (0, 1), argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1 and err.getvalue():
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
