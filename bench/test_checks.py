"""The benchmark's checks accept correct output and reject tampered output.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import random
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import (Mismatch, check_campaign, check_record,  # noqa: E402
                    check_same_report, expected_check, info_from_apery,
                    info_from_oracle, info_sylvester, load_oracle)
from inputs import PROPERTIES, Inputs, oracle_bound_ok  # noqa: E402

NM = run.load_program()
ORACLE = load_oracle(run.ROOT)


def cli_record(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = NM.cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def report10():
    report = NM.campaign.run_campaign(10, "all", 1)
    return report.to_json_dict(include_wall_time=False)


def test_campaign_report_passes(report10):
    check_campaign(report10, 10, PROPERTIES)
    check_same_report(report10, json.loads(json.dumps(report10)))


@pytest.mark.parametrize("tamper", [
    lambda r: r["counts_by_genus"].__setitem__(7, 40),
    lambda r: r["maxgen_counts_by_genus"].__setitem__(4, 99),
    lambda r: r["symmetric_counts_by_genus"].__setitem__(3, 0),
    lambda r: r["checked"].__setitem__("wilf", r["checked"]["wilf"] - 1),
    lambda r: r.__setitem__("passed", False),
    lambda r: r["property_failures"].append(["wilf", [3, 5, 7]]),
    lambda r: r["properties"].pop(),
])
def test_tampered_report_fails(report10, tamper):
    bad = json.loads(json.dumps(report10))
    tamper(bad)
    with pytest.raises(Mismatch):
        check_campaign(bad, 10, PROPERTIES)
    with pytest.raises(Mismatch):
        check_same_report(report10, bad)


def test_reports_at_two_worker_counts_agree():
    one = NM.campaign.run_campaign(12, ["wilf"], 1)
    two = NM.campaign.run_campaign(12, ["wilf"], 2)
    check_same_report(one.to_json_dict(False), two.to_json_dict(False))


def test_independent_infos_agree_with_the_oracle():
    rng = random.Random(0)
    for _ in range(150):
        a = rng.randint(2, 20)
        gens = sorted({a} | {rng.randint(a + 1, 3 * a) for _ in range(3)})
        if gcd(*gens) != 1:
            continue
        want = info_from_oracle(ORACLE.invariants(gens))
        got = info_from_apery(gens)
        assert {k: want[k] for k in got} == got
    for a, b in ((2, 3), (3, 7), (5, 13), (11, 29)):
        want = info_from_oracle(ORACLE.invariants([a, b]))
        got = info_sylvester(a, b)
        assert {k: want[k] for k in got} == got


def test_oracle_inputs_stay_bounded():
    # no coprime pair: the oracle would search up to 6 * 10 * 15 and more
    assert not oracle_bound_ok([6, 10, 15])
    assert oracle_bound_ok([6, 10, 15, 7])
    with pytest.raises(ValueError):
        Inputs(1, ORACLE)._info([6, 10, 15])


def _tamper_result(text, key, value):
    record = json.loads(text)
    record["result"][key] = value
    return json.dumps(record)


def test_tampered_info_record_fails():
    inputs = Inputs(3, ORACLE)
    for kind in ("small", "pair", "large"):
        argv, expected = inputs.info_query(kind)
        if callable(expected):
            expected = expected()
        code, text = cli_record(argv)
        check_record(code, text, argv, expected)
        record = json.loads(text)["result"]
        for key, value in (("frobenius", record["frobenius"] + 1),
                           ("genus", record["genus"] - 1),
                           ("apery", record["apery"][:-1] + [0]),
                           ("pf", record["pf"] + [0])):
            with pytest.raises(Mismatch):
                check_record(code, _tamper_result(text, key, value), argv,
                             expected)
        with pytest.raises(Mismatch):
            check_record(3, text, argv, expected)


@pytest.mark.parametrize("prop", PROPERTIES)
def test_tampered_check_record_fails(prop):
    argv, expected = Inputs(5, ORACLE).check_query(prop)
    code, text = cli_record(argv)
    check_record(code, text, argv, expected)
    for key, value in expected.items():
        flipped = (not value if isinstance(value, bool)
                   else None if value is not None else 0)
        with pytest.raises(Mismatch):
            check_record(code, _tamper_result(text, key, flipped), argv,
                         expected)


def test_large_wilf_expectation():
    inputs = Inputs(8, ORACLE)
    argv, info = inputs.info_query("large")
    wargv, expected = inputs.wilf_of(argv)
    code, text = cli_record(wargv)
    check_record(code, text, wargv, expected)
    assert expected == expected_check("wilf", info())
    assert expected["holds"] is True


def test_session_counts_a_wrong_output_as_incorrect(monkeypatch):
    inputs = Inputs(4, ORACLE)
    argv, expected = inputs.info_query("small")
    session = run.Session(NM)
    session.query(argv, expected)
    assert session.mismatches == [] and session.failed == 0

    real_main = NM.cli.main

    def lying_main(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(args)
        print(_tamper_result(buf.getvalue(), "genus", 0))
        return code

    monkeypatch.setattr(NM.cli, "main", lying_main)
    fresh = run.Session(NM)
    fresh.query(argv, expected)
    assert fresh.mismatches and fresh.failed == 0
    session.query(argv, expected)  # differs from the output verified before
    assert session.mismatches


def test_session_counts_a_crash_as_failed(monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(NM.campaign, "run_campaign", broken)
    session = run.Session(NM)
    session.campaign(5, "all", 1)
    assert session.failed == 1 and session.attempted == 1
    assert session.mismatches == []
