"""Acceptance gate: nine criteria, one visible pass/fail line each.

Each test covers one criterion end to end and prints its verdict straight
to the terminal (bypassing capture) so a plain pytest run shows the lines.
"""

import json
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest

import subset_oracle as oracle
from numsgp import campaign, maxgen, tree
from numsgp.core import _bit_positions, from_generators

GENUS_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001,
                1693, 2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246]


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): FAIL" % (num, name))
        raise
    else:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): PASS" % (num, name))


@pytest.fixture(scope="module")
def report18():
    return campaign.run_campaign(18, "all", jobs=1)


def fail_names(report):
    return sorted({name for name, _ in report.property_failures})


def test_criterion_1_named_fixtures(capsys):
    with criterion(capsys, 1, "named fixtures"):
        start = time.perf_counter()
        s = from_generators([7, 11, 16, 17, 19])
        assert s.genus == 13
        rg = maxgen._rg_mask(s, s.frobenius)
        assert _bit_positions(rg) == [5, 8, 10, 12, 15]
        for m in range(3, 11):
            t = maxgen.notiz_family(m, m + 1)
            assert t.min_generators == (m,) + tuple(
                x for x in range(m + 2, 2 * m + 2) if x != 2 * m)
            assert t.genus == m
            assert t.min_generators[-1] == 2 * t.genus + 1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_reflected_gap_equivalence(capsys, report18):
    with criterion(capsys, 2, "reflected-gap equivalence"):
        fails = fail_names(report18)
        assert "apery_reflected_gaps" not in fails
        assert "frobenius_formula" not in fails
        checked = dict(report18.checked)
        assert checked["apery_reflected_gaps"] == sum(GENUS_COUNTS[:19]) - 1
        # spot check: the three verdicts agree on a non-example too
        rep = maxgen.reflected_gap_report(from_generators([7, 11, 16, 17, 19]))
        assert rep["cond_i"] is rep["cond_ii"] is rep["cond_iii"] is False


def test_criterion_3_symmetric_correspondence(capsys, report18):
    with criterion(capsys, 3, "symmetric correspondence"):
        assert "correspondence" not in fail_names(report18)
        mg = report18.maxgen_counts_by_genus
        sym = report18.symmetric_counts_by_genus
        for g in range(18):
            assert mg[g] == sym[g + 1], g


def test_criterion_4_dual_identities(capsys, report18):
    with criterion(capsys, 4, "dual identities"):
        fails = fail_names(report18)
        for name in ("pf_formula", "type", "canonical_gens"):
            assert name not in fails, name
        # the shift-everything shortcut overshoots by exactly a_e - a_1
        s = from_generators([3, 5, 7])
        f = s.frobenius
        assert maxgen.canonical_ideal(s) == (0, 2)
        window = range(0, s.frobenius + 8)
        full_shift = {u - 3 for u in window if u in s and u >= 3}
        dropped = {u - 3 for u in window if u in s and u >= 3 and u != 7}
        assert full_shift - dropped == {4}
        assert f - 4 in s
        assert dropped == {z for z in window
                           if f - z not in s and z <= max(dropped)}


def test_criterion_5_wilf_inequality(capsys, report18):
    with criterion(capsys, 5, "wilf inequality"):
        fails = fail_names(report18)
        assert "wilf" not in fails
        assert "wilf_equality" not in fails
        assert dict(report18.checked)["wilf"] == sum(GENUS_COUNTS[:19]) - 1
        # equality families land on margin exactly zero, exact arithmetic
        for gens in ([2, 3], [2, 9], [3, 4, 5], [4, 5, 6, 7]):
            rep = maxgen.wilf_report(from_generators(gens))
            assert rep["holds"] and rep["count_form_holds"]
            assert rep["margin"] == Fraction(0) and isinstance(
                rep["margin"], Fraction)
        assert maxgen.wilf_report(
            from_generators([3, 5, 7]))["margin"] == Fraction(1, 15)


def test_criterion_6_gap_closure(capsys, report18):
    with criterion(capsys, 6, "gap closure"):
        assert "closed_gap_wilf" not in fail_names(report18)
        seen = 0
        for s in tree.walk(12):
            if s.is_trivial or not maxgen.is_max_generated(s):
                continue
            gens = s.min_generators
            a1, ae = gens[0], gens[-1]
            if ae <= 2 * a1:
                continue
            t = maxgen.close_largest_gap(s)
            assert t.min_generators == tuple(sorted(gens[:-1] + (ae - a1,)))
            assert t.embedding_dimension == s.embedding_dimension
            d = maxgen.distinguished_set_for_closed(s)
            assert d == tuple(sorted(t.pseudo_frobenius()))
            assert oracle.is_distinguished(d, t.min_generators)
            seen += 1
        assert seen > 100


def test_criterion_7_enumeration_counts(capsys, report18):
    with criterion(capsys, 7, "enumeration counts"):
        live = oracle.count_by_genus(8)
        assert live == GENUS_COUNTS[:9]
        assert list(report18.counts_by_genus) == GENUS_COUNTS[:19]
        serial = campaign.run_campaign(12, "all", jobs=1)
        parallel = campaign.run_campaign(12, "all", jobs=4)
        assert (serial.to_json(include_wall_time=False)
                == parallel.to_json(include_wall_time=False))


def test_criterion_8_performance(capsys):
    with criterion(capsys, 8, "performance"):
        tracemalloc.start()
        walked = sum(1 for _ in tree.walk(15))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 512 * 1024  # streams nodes, never a full list
        assert walked == sum(GENUS_COUNTS[:16])
        report = campaign.run_campaign(22, "all", jobs=4)
        assert report.wall_time < 60.0
        assert report.property_failures == ()
        assert list(report.counts_by_genus) == GENUS_COUNTS
        assert sum(report.counts_by_genus) == 258582


def test_criterion_9_genus_lower_bound(capsys, report18):
    with criterion(capsys, 9, "genus lower bound"):
        assert "genus_bound" not in fail_names(report18)
        for m in range(2, 13):
            t = from_generators(range(m, 2 * m))
            assert t.frobenius == m - 1
            holds = maxgen.genus_lower_bound_check(t)
            assert holds == (m < 3), m
