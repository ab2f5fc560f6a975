"""CLI surface: records, formats, exit codes, and the verify front end."""

import argparse
import contextlib
import csv
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from numsgp import campaign, cli, properties, tree
from numsgp.errors import (EmbeddingDimTooSmall, IsTrivial, NotMaxGenerated,
                           NotSymmetric, PreconditionViolation)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_info_record(capsys):
    code, rec = run_json(capsys, "info", "3,5,7")
    assert code == 0
    assert rec["schema_version"] == "1"
    assert rec["command"] == "info"
    assert rec["input"] == [3, 5, 7]
    r = rec["result"]
    assert r["min_generators"] == [3, 5, 7]
    assert r["genus"] == 3
    assert r["frobenius"] == 4
    assert r["pf"] == [2, 4]
    assert r["is_max_generated"] is True
    assert r["is_symmetric"] is False
    assert rec["provenance"].startswith("numsgp.")


def test_info_field_order_fixed(capsys):
    _, out, _ = run(capsys, "info", "3,5,7")
    keys = list(json.loads(out).keys())
    assert keys == ["schema_version", "command", "input", "result",
                    "provenance"]


def test_info_trivial(capsys):
    code, rec = run_json(capsys, "info", "1")
    assert code == 0
    r = rec["result"]
    assert r["frobenius"] == -1
    assert r["pf"] is None
    assert r["is_max_generated"] is None


def test_info_round_trip(capsys):
    _, rec = run_json(capsys, "info", "9,12,14,31")
    gens = ",".join(map(str, rec["result"]["min_generators"]))
    _, rec2 = run_json(capsys, "info", gens)
    assert rec2["result"] == rec["result"]


def test_info_whitespace_and_duplicates(capsys):
    code, rec = run_json(capsys, "info", " 7 , 3 ,5, 3 ")
    assert code == 0
    assert rec["result"]["min_generators"] == [3, 5, 7]


def test_exit_codes(capsys):
    assert run(capsys, "info", "4,6")[0] == 3          # non-coprime
    assert run(capsys, "info", "3;5")[0] == 2          # parse error
    assert run(capsys, "info", "0,3")[0] == 2          # nonpositive
    assert run(capsys, "info", "")[0] == 2             # empty
    assert run(capsys, "check", "bogus", "3,5,7")[0] == 2
    assert run(capsys, "check", "pf_formula", "3,4")[0] == 4
    assert run(capsys, "check", "wilf", "1")[0] == 4   # trivial
    assert run(capsys, "construct", "to-symmetric", "7,11,16,17,19")[0] == 4
    assert run(capsys, "construct", "notiz-family", "3,6")[0] == 4
    assert run(capsys, "construct", "notiz-family", "x")[0] == 2
    with pytest.raises(SystemExit):
        cli.main(["construct", "bad-kind", "2,3"])
    capsys.readouterr()
    # an entry is an optional sign and ASCII digits: int()'s underscores
    # and other scripts' digits are not integers here
    for text, code, err in (
            ("3_0,7", 2, "error: not an integer: '3_0'\n"),
            ("\uff13,\uff15", 2, "error: not an integer: '\uff13'\n"),
            ("3,\u0665", 2, "error: not an integer: '\u0665'\n"),
            ("-3", 2, "error: generators must be positive, got -3\n"),
            ("0", 2, "error: generators must be positive, got 0\n"),
            (",3", 2, "error: not an integer: ''\n"),
            ("3,,5", 2, "error: not an integer: ''\n"),
            ("3;5", 2, "error: not an integer: '3;5'\n"),
            ("3,5,", 0, ""), ("+3, 5 ", 0, ""), ("003,5", 0, "")):
        assert run(capsys, "info", text)[::2] == (code, err), text
    _, rec = run_json(capsys, "info", "+3, 5 ")
    assert rec["input"] == [3, 5]
    assert run(capsys, "construct", "notiz-family", "4,5_0") == (
        2, "", "error: notiz-family takes two integers 'm,f'\n")
    # so do the integer options: argparse rejects the rest, naming the
    # option and the type int, before any campaign runs
    for option, argv in (
            ("--max-genus", ["--max-genus", "1_0"]),
            ("--max-genus", ["--max-genus", "abc"]),
            ("--jobs", ["--max-genus", "3", "--jobs", "\uff12"])):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv, "--format", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "numsgp verify: error: argument %s: invalid int value: %r"
            % (option, argv[-1]))


def test_error_message_names_precondition(capsys):
    code, _, err = run(capsys, "check", "pf_formula", "3,4")
    assert code == 4
    assert "NotMaxGenerated" in err


#: One semigroup per property on which `check` evaluates and passes.
CHECK_FIXTURES = {
    "wilf": "3,5,7", "wilf_equality": "2,7",
    "apery_reflected_gaps": "7,11,16,17,19", "frobenius_formula": "3,5,7",
    "pf_formula": "4,6,7,9", "type": "2,3", "canonical_gens": "3,4",
    "reflection_bijection": "3,5,7", "correspondence": "3,5",
    "closed_gap_wilf": "4,6,7,9", "sym_generators": "3,4",
    "genus_bound": "3,5", "inequality_chain": "3,5,7",
}


def test_check_passing_properties(capsys):
    for prop, gens in CHECK_FIXTURES.items():
        code, rec = run_json(capsys, "check", prop, gens)
        assert code == 0, (prop, gens, rec)
        assert rec["command"] == "check:%s" % prop


#: Whole `check` outputs, by argv: the exit code, stdout and stderr.
#: Rewrite the file only with an output change that is meant.
CHECK_GOLDEN = {tuple(case["argv"]): case for case in json.loads(
    (Path(__file__).parent / "check_golden.json").read_text(encoding="utf-8"))}
#: The fixtures, every property on the trivial semigroup, and <3, 7, 8>,
#: which is in neither family.
GOLDEN_ARGVS = (
    [("check", p, g) for p, g in CHECK_FIXTURES.items()]
    + [("check", p, "1") for p in properties.PROPERTIES]
    + [("check", p, "3,7,8")
       for p in ("frobenius_formula", "sym_generators", "correspondence")])


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_check_golden_output(argv, capsys):
    case = CHECK_GOLDEN[argv]
    assert run(capsys, *argv) == (case["exit"], case["stdout"],
                                  case["stderr"])


def test_check_hyphenated_name(capsys):
    code, rec = run_json(capsys, "check", "pf-formula", "3,5,7")
    assert code == 0
    assert rec["result"]["holds"] is True


def test_check_genus_bound_interval_informational(capsys):
    # the bound fails on <4,5,6,7> but is not asserted there
    code, rec = run_json(capsys, "check", "genus_bound", "4,5,6,7")
    assert code == 0
    assert rec["result"]["bound_holds"] is False
    assert rec["result"]["asserted"] is False


def test_check_wilf_rationals_exact(capsys):
    _, rec = run_json(capsys, "check", "wilf", "3,4,5")
    r = rec["result"]
    assert r["margin"] == {"num": 0, "den": 1}
    assert r["lhs"] == {"num": 2, "den": 3}
    assert r["holds"] is True


def test_construct_close_gap(capsys):
    code, rec = run_json(capsys, "construct", "close-gap", "3,5,7")
    assert code == 0
    r = rec["result"]
    assert r["min_generators"] == [3, 4, 5]
    assert r["wilf"]["holds"] is True
    assert r["distinguished_set"] == [1, 2]
    assert r["pf_match"] is True


def test_construct_to_from_symmetric(capsys):
    _, rec = run_json(capsys, "construct", "to-symmetric", "3,5,7")
    assert rec["result"]["min_generators"] == [3, 5]
    assert rec["result"]["is_symmetric"] is True
    _, rec = run_json(capsys, "construct", "from-symmetric", "3,5")
    assert rec["result"]["min_generators"] == [3, 5, 7]
    assert rec["result"]["is_max_generated"] is True
    # down to the trivial semigroup
    _, rec = run_json(capsys, "construct", "from-symmetric", "2,3")
    assert rec["result"]["min_generators"] == [1]
    assert rec["result"]["is_max_generated"] is None


def test_construct_notiz_family(capsys):
    code, rec = run_json(capsys, "construct", "notiz-family", "4,5")
    assert code == 0
    assert rec["result"]["min_generators"] == [4, 6, 7, 9]
    assert rec["result"]["is_max_generated"] is True
    _, rec = run_json(capsys, "construct", "notiz-family", "4,7")
    assert rec["result"]["min_generators"] == [4, 9, 10, 11]
    assert rec["result"]["genus"] == 6
    assert rec["result"]["is_max_generated"] is False


def test_table_format(capsys):
    code, out, _ = run(capsys, "info", "3,5,7", "--format", "table")
    assert code == 0
    assert "genus: 3" in out
    assert "min_generators: [3, 5, 7]" in out
    # a Fraction in a record is written as JSON in every format
    code, out, _ = run(capsys, "check", "wilf", "3,4,5", "--format", "table")
    assert code == 0
    assert 'lhs: {"num": 2, "den": 3}' in out.splitlines()


def test_csv_format(capsys):
    code, out, _ = run(capsys, "info", "2,3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    assert any(ln.startswith("genus,1") for ln in lines)
    code, out, _ = run(capsys, "construct", "close-gap", "3,5,7",
                       "--format", "csv")
    assert code == 0
    rows = dict(csv.reader(io.StringIO(out)))
    assert json.loads(rows["wilf"])["margin"] == {"num": 0, "den": 1}


@pytest.mark.parametrize("argv", [("info", "3,5,7"),
                                  ("check", "wilf", "3,5,7"),
                                  ("check", "correspondence", "3,5")])
def test_csv_lines_end_in_newline(argv, capsys):
    # every line numsgp prints ends in "\n", csv records included
    _, rec = run_json(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "value"]
    assert {k: json.loads(v) for k, v in rows[1:]} == rec["result"]


def test_json_flag_shorthand(capsys):
    code, out, _ = run(capsys, "check", "wilf", "2,3", "--json")
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def _format_of(out):
    first = out.splitlines()[0]
    if first.startswith("{"):
        return "jsonl"
    return "csv" if first.startswith(("field,", "genus,")) else "table"


@pytest.mark.parametrize("argv", [("info", "3,5,7"),
                                  ("check", "wilf", "3,5,7"),
                                  ("construct", "close-gap", "3,5,7"),
                                  ("verify", "--max-genus", "3")])
def test_json_is_a_spelling_of_format_jsonl(argv, capsys):
    # --json sets the same option as --format jsonl, so the last of the
    # two given wins, as for any repeated option
    cases = [((), "table" if argv[0] == "verify" else "jsonl"),
             (("--json",), "jsonl"),
             (("--json", "--format", "table"), "table"),
             (("--format", "table", "--json"), "jsonl")]
    cases += [(("--format", fmt), fmt) for fmt in ("jsonl", "table", "csv")]
    for options, want in cases:
        code, out, err = run(capsys, *argv, *options)
        assert (code, err, _format_of(out)) == (0, "", want), options


def test_verify_table_output(capsys):
    code, out, _ = run(capsys, "verify", "--max-genus", "6")
    assert code == 0
    assert "genus  count  maxgen  symmetric" in out
    assert "result: PASS" in out
    assert "total     50" in out


def test_verify_table_widens_past_genus_21(capsys):
    # genus 22 has 103,246 semigroups: each column widens to its widest
    # entry, and a report whose entries fit is printed as it always was
    def table(counts, maxgen, symmetric):
        report = campaign.CampaignReport(
            max_genus=len(counts) - 1, properties=("wilf",),
            counts_by_genus=counts, maxgen_counts_by_genus=maxgen,
            symmetric_counts_by_genus=symmetric,
            checked=(("wilf", sum(counts) - 1),), property_failures=(),
            wall_time=0.5)
        cli._print_verify_table(report)
        return capsys.readouterr().out.splitlines()

    lines = table((1, 1234567, 2), (1, 12, 3456789), (1, 1, 7654321))
    assert lines[:5] == ["genus    count   maxgen  symmetric",
                         "    0        1        1          1",
                         "    1  1234567       12          1",
                         "    2        2  3456789    7654321",
                         "total  1234570"]
    assert table((1, 1, 2), (1, 1, 2), (1, 1, 1))[:5] == [
        "genus  count  maxgen  symmetric",
        "    0      1       1          1",
        "    1      1       1          1",
        "    2      2       2          1",
        "total      4"]


def test_verify_genus_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-genus", "0")
    assert code == 0
    assert "result: PASS" in out


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--max-genus", "5", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts_by_genus"] == [1, 1, 2, 4, 7, 12]
    assert rep["passed"] is True
    assert rep["property_failures"] == []


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--max-genus", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "genus,count,maxgen_count,symmetric_count"
    assert lines[1] == "0,1,1,1"
    assert lines[-1] == "4,7,3,3"


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--max-genus", "7",
                     "--properties", "wilf,correspondence",
                     "--jobs", "2", "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["max_genus"] == 7
    assert rep["properties"] == ["wilf", "correspondence"]
    assert rep["passed"] is True
    assert "wall_time" in rep


def test_verify_bad_property(capsys):
    code, _, err = run(capsys, "verify", "--max-genus", "5",
                       "--properties", "bogus")
    assert code == 2
    assert "unknown property" in err


UNKNOWN = ("error: unknown property %r; known: "
           + ", ".join(properties.PROPERTIES) + "\n")


def test_unknown_property_anywhere_in_the_list(capsys):
    # every name is read before "all" is honoured, and check and verify
    # quote an unknown name as it was typed
    for props in ("all,nope", "nope,all", "wilf, nope"):
        assert run(capsys, "verify", "--max-genus", "3",
                   "--properties", props) == (2, "", UNKNOWN % "nope"), props
    assert run(capsys, "verify", "--max-genus", "3",
               "--properties", "nope-x") == (2, "", UNKNOWN % "nope-x")
    assert run(capsys, "check", "nope-x", "3,5,7") == (
        2, "", UNKNOWN % "nope-x")
    # the name is read before the generators, which here are invalid (3)
    assert run(capsys, "check", "nope", "2,4") == (2, "", UNKNOWN % "nope")
    assert run(capsys, "check", "all", "3,5") == (2, "", UNKNOWN % "all")


def test_verify_hyphenated_names(capsys):
    code, out, err = run(capsys, "verify", "--max-genus", "6", "--json",
                         "--properties", "pf-formula,wilf-equality")
    assert (code, err) == (0, "")
    assert json.loads(out)["properties"] == ["wilf_equality", "pf_formula"]


def test_verify_failure_output(capsys, monkeypatch):
    # a failing campaign exits 1 in every format; the table lists each
    # witness under its property after the FAIL line
    for row in properties.ROWS:
        if row.name == "type":
            monkeypatch.setattr(row, "holds", lambda s: False)
    argv = ("verify", "--max-genus", "3", "--properties", "type")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert re.sub(r"\(\d+\.\d\ds\)", "(T)", out).splitlines()[-9:] == [
        "properties: type",
        "checked: type=6",
        "result: FAIL, 6 failure(s) (T)",
        "  type: <2,3>",
        "  type: <2,5>",
        "  type: <2,7>",
        "  type: <3,4,5>",
        "  type: <3,5,7>",
        "  type: <4,5,6,7>"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["property_failures"] == [
        ["type", w] for w in ([2, 3], [2, 5], [2, 7], [3, 4, 5], [3, 5, 7],
                              [4, 5, 6, 7])]
    assert run(capsys, *argv, "--format", "csv")[0] == 1


def test_verify_count_identity_witness_is_a_genus(capsys, monkeypatch):
    # <3, 5>, the one semigroup with (g, c, m, a_e) = (4, 8, 3, 5), left
    # out of the symmetric tally breaks the count identity at genus 3,
    # whose witness line reads like a generator list, in this process and
    # from pool workers
    real = properties.scalar_domains

    def unsymmetric_3_5(g, c, m, ae):
        key = real(g, c, m, ae)
        return (key & ~properties.SYMMETRIC if (g, c, m, ae) == (4, 8, 3, 5)
                else key)

    monkeypatch.setattr(campaign, "scalar_domains", unsymmetric_3_5)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    forked = multiprocessing.get_start_method() == "fork"
    for jobs in ("1", "2") if forked else ("1",):
        code, out, _ = run(capsys, "verify", "--max-genus", "8",
                           "--properties", "correspondence", "--jobs", jobs)
        assert code == 1, jobs
        lines = out.splitlines()
        assert lines[-2].startswith("result: FAIL, 1 failure(s) (")
        assert lines[-1] == "  correspondence: <3>"


def test_verify_empty_property_list(tmp_path, capsys):
    # no name at all is a usage error, not a run of every property; the
    # --out file is neither created nor emptied
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    for props in (",", "", " , "):
        for out in (tmp_path / "fresh.json", kept):
            code, stdout, err = run(capsys, "verify", "--max-genus", "3",
                                    "--properties", props, "--out", str(out))
            assert (code, stdout, err) == (
                2, "", "error: empty property list\n"), props
    assert not (tmp_path / "fresh.json").exists()
    assert kept.read_text() == "earlier report\n"


def test_verify_bound_too_large(capsys):
    code, _, _ = run(capsys, "verify", "--max-genus", "99")
    assert code == 2


def test_conductor_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "100")
    code, _, err = run(capsys, "info", "23,29")
    assert code == 3
    assert "ConductorCapExceeded" in err
    monkeypatch.delenv("NUMSGP_MAX_CONDUCTOR")
    assert run(capsys, "info", "23,29")[0] == 0


def _no_campaign(*args):
    pytest.fail("the campaign ran")


def test_verify_out_unwritable(tmp_path, capsys, monkeypatch):
    # the path is checked before the campaign runs: usage error, one line
    bad = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--max-genus", "5",
                         "--out", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert run(capsys, "verify", "--max-genus", "5",
               "--out", str(tmp_path))[0] == 2
    # an empty path is a path that cannot be opened, not a missing --out
    monkeypatch.setattr(campaign, "run_campaign", _no_campaign)
    assert run(capsys, "verify", "--max-genus", "5", "--out", "") == (
        2, "", "error: cannot write : No such file or directory\n")


def test_verify_out_kept_on_failed_run(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    assert run(capsys, "verify", "--max-genus", "99",
               "--out", str(path))[0] == 2
    assert path.read_text() == "earlier report\n"
    assert run(capsys, "verify", "--max-genus", "3",
               "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["max_genus"] == 3
    # a path that did not exist is not left behind as an empty file
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "verify", "--max-genus", "99",
               "--out", str(fresh))[0] == 2
    assert not fresh.exists()


def test_verify_out_device(capsys):
    # a device is written to, never emptied, and the table still prints
    code, out, err = run(capsys, "verify", "--max-genus", "5",
                         "--out", os.devnull)
    assert (code, err) == (0, "")
    assert "result: PASS" in out


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_verify_out_own_stdout_file_kept(tmp_path):
    # --out naming the file this process's stdout appends to adds the
    # report after what the file held instead of emptying it
    log = tmp_path / "log"
    log.write_text("earlier line\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    with open(log, "a") as fh:
        subprocess.run([sys.executable, "-m", "numsgp.cli", "verify",
                        "--max-genus", "3", "--out", "/dev/stdout"],
                       stdout=fh, env=env, check=True, timeout=60)
    first, rest = log.read_text().split("\n", 1)
    assert first == "earlier line"
    rep, _ = json.JSONDecoder().raw_decode(rest)
    assert (rep["max_genus"], rep["passed"]) == (3, True)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_verify_out_fifo(tmp_path, capsys):
    path = tmp_path / "report.fifo"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        path.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    code, _, err = run(capsys, "verify", "--max-genus", "5",
                       "--jobs", "2", "--out", str(path))
    reader.join(60)
    assert (code, err) == (0, "")
    rep = json.loads(received[0])
    assert (rep["max_genus"], rep["passed"]) == (5, True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_verify_out_write_error(capsys):
    # a write that fails after the run is reported like an open failure
    code, out, err = run(capsys, "verify", "--max-genus", "5",
                         "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1


def _cli_process(argv, **kw):
    # stdout block-buffered, as a pipe's or a file's is by default, so that
    # a failed write leaves output behind for the interpreter's exit flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "numsgp.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kw)


def test_stdout_closed_pipe():
    # a reader that leaves after one byte of a record far larger than a
    # pipe's buffer: a usage error with one line, not an internal error
    proc = _cli_process(["info", "701,1100,1350"], stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(60) == 2
    assert err == b"error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_full_device(tmp_path):
    # stdout on a full device: exit 2 and one line, and an --out report
    # written before stdout failed stays whole
    path = tmp_path / "report.json"
    for argv in (["info", "3,5,7"], ["verify", "--max-genus", "6"],
                 ["verify", "--max-genus", "6", "--out", str(path)]):
        with open("/dev/full", "w") as full:
            proc = _cli_process(argv, stdout=full)
            err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (
            2, b"error: cannot write stdout: No space left on device\n"), \
            argv
    rep = json.loads(path.read_text())
    assert (rep["counts_by_genus"], rep["passed"]) == (
        [1, 1, 2, 4, 7, 12, 23], True)


def test_stdout_failure_in_process(capsys, monkeypatch):
    # an in-process stdout without a file descriptor is reported on and
    # left in place
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    full = Full()
    monkeypatch.setattr(sys, "stdout", full)
    assert cli.main(["info", "3,5,7"]) == 2
    assert sys.stdout is full
    assert capsys.readouterr().err == (
        "error: cannot write stdout: No space left on device\n")


def test_verify_interrupted(tmp_path, capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(campaign, "run_campaign", interrupted)
    code, out, err = run(capsys, "verify", "--max-genus", "5")
    assert (code, out, err) == (130, "", "error: interrupted\n")
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--max-genus", "5",
                         "--out", str(path))
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert not path.exists()


def _raise_in_wilf(monkeypatch):
    def broken(s):
        raise RuntimeError("broken check")

    for row in properties.ROWS:
        if row.name == "wilf":
            monkeypatch.setattr(row, "holds", broken)


INTERNAL = "error: internal: RuntimeError: broken check\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_internal_error(jobs, tmp_path, capsys, monkeypatch):
    # an exception inside a check is exit 5, not the verdict exit 1; at
    # jobs 2 it is raised in a pool worker, which sees the broken row only
    # when forked
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked")
    _raise_in_wilf(monkeypatch)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--max-genus", "8",
                         "--jobs", str(jobs), "--out", str(path))
    assert (code, out, err) == (5, "", INTERNAL)
    assert not path.exists()


def test_check_internal_error(capsys, monkeypatch):
    _raise_in_wilf(monkeypatch)
    assert run(capsys, "check", "wilf", "3,5,7") == (5, "", INTERNAL)


def test_conductor_cap_env_invalid(capsys, monkeypatch):
    for raw in ("abc", "0", "-7", "1_000", "\uff15"):
        monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", raw)
        code, out, err = run(capsys, "info", "3,5,7")
        assert code == 2
        assert out == ""
        assert err == ("error: NUMSGP_MAX_CONDUCTOR must be a positive "
                       "integer, got %r\n" % raw)


_MAXGEN_ONLY = {"frobenius_formula", "pf_formula", "type",
                "reflection_bijection", "closed_gap_wilf", "inequality_chain"}


def _precondition(prop, s):
    """The exception `check prop` raises on s, or None where it evaluates."""
    if s.is_trivial:
        return IsTrivial
    mg = s.min_generators[-1] == 2 * s.genus + 1
    sym = s.frobenius + 1 == 2 * s.genus
    if prop in _MAXGEN_ONLY and not mg:
        return NotMaxGenerated
    if prop == "inequality_chain" and len(s.min_generators) <= 2:
        return EmbeddingDimTooSmall
    if prop == "sym_generators" and not sym:
        return NotSymmetric
    if prop == "correspondence" and not (mg or sym):
        return NotSymmetric
    return None


def test_check_domain_sweep():
    # every property on every semigroup of genus <= 9: inside the domain the
    # check passes, outside it raises that domain's precondition violation
    nodes = list(tree.walk(9))
    assert len(nodes) == 274
    for s in nodes:
        gens = list(s.min_generators)
        for prop in properties.PROPERTIES:
            want = _precondition(prop, s)
            if want is None:
                code, rec = cli.cmd_check(prop, gens)
                assert code == 0, (prop, gens, rec)
                assert rec["result"]["holds"] is True, (prop, gens)
                if prop == "correspondence":
                    # <2, 2g+1> is on both sides; it reports the first
                    mg = s.min_generators[-1] == 2 * s.genus + 1
                    assert rec["result"]["direction"] == (
                        "to_symmetric" if mg else "from_symmetric")
                continue
            with pytest.raises(PreconditionViolation) as info:
                cli.cmd_check(prop, gens)
            assert type(info.value) is want, (prop, gens)


#: Calls through one parser: every subcommand and format, then, amid calls
#: that parse, usage errors that raise SystemExit(2) inside parse_args and
#: --help, which raises SystemExit(0).
PARSER_SEQUENCE = (
    ("info", "3,5,7"),
    ("info", "3,5,7", "--format", "table"),
    ("info", "2,3", "--format", "csv"),
    ("check", "wilf", "3,5,7"),
    ("check", "canonical_gens", "3,4", "--format", "table"),
    ("check", "correspondence", "3,5", "--format", "csv"),
    ("check", "no_such_property", "3,5,7"),
    ("construct", "close-gap", "3,5,7"),
    ("construct", "notiz-family", "4,7", "--json"),
    ("construct", "no-such-kind", "3,5"),
    ("check", "wilf"),
    ("info", "-3"),
    ("--help",),
    ("verify", "--help"),
    ("info", "3,5,7"),
    ("verify", "--max-genus", "6", "--format", "csv"),
    ("verify", "--max-genus", "5", "--json"),
    ("verify", "--max-genus", "4"),
    (),
    ("no-such-subcommand", "3,5"),
    ("info", "3,5,7", "--format", "xml"),
    ("verify", "--max-genus", "x"),
    ("check", "wilf", "3,5,7", "--json"),
    ("info", "6,9"),
    ("check", "frobenius_formula", "3,7,8"),
    ("construct", "to-symmetric", "3,5,7", "--format", "table"),
    ("construct", "from-symmetric", "3,4", "--format", "csv"),
    ("info", "3,5,7", "--no-such-flag"),
)


def _call(argv):
    """Exit code, stdout and stderr of one main() call, wall time removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = re.sub(r'"wall_time": [^,}]*|\(\d+\.\d+s\)', "", out.getvalue())
    return code, text, err.getvalue()


def _fresh_call(argv):
    cli._build_parser.cache_clear()
    return _call(argv)


def test_shared_parser_matches_a_fresh_one():
    # a failed parse or --help leaves the shared parser as a new one
    fresh = [_fresh_call(argv) for argv in PARSER_SEQUENCE]
    assert [code for code, _, _ in fresh] == [
        0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 2, 2, 0, 0,
        0, 0, 0, 0, 2, 2, 2, 2, 0, 3, 4, 0, 0, 2]
    # seven argparse rejections, and two --help pages
    assert sum(err.startswith("usage: ") for _, _, err in fresh) == 7
    assert sum(out.startswith("usage: ") for _, out, _ in fresh) == 2
    for _ in range(2):
        assert [_call(argv) for argv in PARSER_SEQUENCE] == fresh


def test_parser_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    try:
        assert _call(("check", "wilf", "3,5,7"))[0] == 0
        assert len(built) == 6  # numsgp, the --format parent, 4 subcommands
        assert _call(("info", "3,5,7"))[0] == 0
        assert _call(("info", "3,5,7", "--no-such-flag"))[0] == 2
        assert len(built) == 6
    finally:
        cli._build_parser.cache_clear()


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import numsgp.cli\n"
        "print(len(built), numsgp.cli._build_parser.cache_info().currsize)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.split() == ["0", "0"]


def test_import_loads_no_pool_machinery():
    # a shared campaign's pool and block counter load multiprocessing,
    # ctypes and the pool modules, a few ms each process; importing the
    # CLI loads none of them
    script = ("import sys, numsgp.cli\n"
              "print(*sorted({'ctypes', 'multiprocessing',\n"
              "               'multiprocessing.pool',\n"
              "               'multiprocessing.sharedctypes'} & set(sys.modules)))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.split() == []
