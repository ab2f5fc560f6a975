"""The plain-value verdicts against the slower paths beside them.

A campaign checks a row with a plain-value verdict (properties.Row.plain)
on the values its walk holds for a node, without building the node;
`check` calls the same verdict through holds(s) on a built Semigroup and
prints a report beside it.  These tests compare, for every such row, the
verdict on the walk's values with holds on the built node, with the
verdict the report shows, and with the statement computed naively by
tests/subset_oracle.py.
"""

from collections import Counter

import pytest

import subset_oracle as oracle
from numsgp import cli, core, maxgen, properties, tree
from numsgp.core import from_generators
from test_campaign import RECORD_VERDICTS
from test_cli import CHECK_FIXTURES

PLAIN_ROWS = [r for r in properties.ROWS if r.plain is not None]


def test_plain_rows():
    # every row that reads only the walk's values has a plain verdict
    assert [r.name for r in PLAIN_ROWS] == [
        "wilf", "wilf_equality", "apery_reflected_gaps", "frobenius_formula",
        "canonical_gens", "reflection_bijection", "sym_generators",
        "genus_bound"]
    assert [r.name for r in PLAIN_ROWS if r.reads_masks] == ["canonical_gens"]


def _applies(row, s):
    key = properties.domains(s)
    return bool(row.domain & key) and (not row.applies
                                       or bool(row.applies & key))


def _plain_values(s, pf):
    return (s.genus, s.conductor, s.min_generators, s.gap_mask, s.mirror,
            pf)


def _shown(row, s):
    """The verdict the `check` report of row shows for s, read off its
    fields: reflected_gap_report's equivalent, the canonical ideal against
    PF (and the generators on a_e = 2g + 1), or the record fields that
    equal the verdict."""
    if row.name == "apery_reflected_gaps":
        return maxgen.reflected_gap_report(s)["equivalent"]
    if row.name == "canonical_gens":
        offsets = list(maxgen.canonical_ideal(s))
        gens = s.min_generators
        ok = offsets == sorted(s.frobenius - p for p in s.pseudo_frobenius())
        if gens[-1] == 2 * s.genus + 1:
            ok = ok and offsets == [a - gens[0] for a in gens[:-1]]
        return ok
    shown = set(RECORD_VERDICTS[row.name](row.record(s)))
    assert len(shown) == 1, (row.name, s)
    return shown.pop()


def _agree(row, s, pf):
    """The plain verdict on s's values with pf, holds on s and on the same
    semigroup built by from_generators, and the report's verdict, which
    must all be one value; returns it."""
    built = from_generators(s.min_generators)
    verdicts = {row.plain(*_plain_values(s, pf)), row.holds(s),
                row.holds(built), _shown(row, built)}
    assert len(verdicts) == 1, (row.name, s)
    return verdicts.pop()


@pytest.mark.parametrize("masks", [False, True])
def test_plain_verdicts_match_the_built_node(masks):
    # every nontrivial node of tree.walk(12): with carried masks the plain
    # verdict gets the mask the walk carries; without them the verdicts
    # that read no mask get None, as in a campaign, and canonical_gens's
    # holds computes the mask from the gap mask
    seen = Counter()
    for s in tree.walk(12, core._naturals(masks)):
        if s.is_trivial:
            continue
        for row in PLAIN_ROWS:
            if not _applies(row, s):
                continue
            pf = s._mirrored_pf_bits
            if pf is None and row.reads_masks:
                pf = core._mirrored_pf_mask(s)
            assert _agree(row, s, pf), (row.name, s)
            seen[row.name] += 1
    assert seen.keys() == {r.name for r in PLAIN_ROWS}
    assert seen["wilf"] == seen["apery_reflected_gaps"] == 1412


@pytest.mark.parametrize("gens", sorted(
    set(CHECK_FIXTURES.values()) | {"1001,1003"}))
def test_plain_verdicts_on_inputs(gens, capsys):
    # the `check` fixtures and a large two-generator input, which carry no
    # mask: each applicable plain verdict holds, agrees with holds, with
    # the report and with `check`'s exit code
    s = from_generators(int(a) for a in gens.split(","))
    for row in PLAIN_ROWS:
        if not _applies(row, s):
            continue
        pf = core._mirrored_pf_mask(s) if row.reads_masks else None
        assert _agree(row, s, pf), (row.name, gens)
        if row.name in CHECK_FIXTURES and CHECK_FIXTURES[row.name] == gens:
            assert cli.main(["check", row.name, gens]) == 0
            capsys.readouterr()


def _oracle_verdicts(gens):
    """Each plain row's statement on <gens>, from the naive invariants of
    subset_oracle, and the three descriptions of a_e = 2g + 1."""
    inv = oracle.invariants(gens)
    g, f, m = inv["genus"], inv["frobenius"], inv["multiplicity"]
    mingens = inv["min_generators"]
    e, ae, c = len(mingens), mingens[-1], f + 1
    gaps, members = set(inv["gaps"]), inv["members"]
    rg = oracle.reflected_gaps(gens, f)
    conds = (ae == 2 * g + 1,
             {m + x for x in rg} == set(inv["apery"]) - {0, f + m},
             ae == f + m and len(rg) == m - 2)
    offsets = oracle.canonical_offsets(gens)
    canonical = offsets == sorted(f - p for p in inv["pf"])
    if ae == 2 * g + 1:
        canonical = canonical and offsets == [a - m for a in mingens[:-1]]
    top = 2 * g + 1
    return {
        "wilf": g * e <= (e - 1) * c,
        "wilf_equality": e * (c - g) == c,
        "apery_reflected_gaps": conds[0] == conds[1] == conds[2],
        "frobenius_formula": f == ae - m,
        "canonical_gens": canonical,
        "reflection_bijection":
            {top - n for n in range(1, top) if n in members} == gaps,
        "sym_generators": ae < f,
        "genus_bound": ((g - 1) * (e - 1) >= (m - 2) * e
                        and e + g >= 2 * m - 1),
    }, conds, rg


def test_plain_verdicts_match_subset_oracle():
    # every nontrivial semigroup of genus <= 7, so every one with F <= 7,
    # on the values of a walk with carried masks: each plain verdict and
    # reflected_gap_report's three conditions and RG(F) equal the naive
    # statements
    nodes = 0
    for s in tree.walk(7, core._naturals(True)):
        if s.is_trivial:
            continue
        gens = list(s.min_generators)
        want, conds, rg = _oracle_verdicts(gens)
        for row in PLAIN_ROWS:
            if _applies(row, s):
                got = row.plain(*_plain_values(s, s._mirrored_pf_bits))
                assert got == want[row.name], (row.name, gens)
        report = maxgen.reflected_gap_report(s)
        assert (report["cond_i"], report["cond_ii"], report["cond_iii"]) \
            == conds, gens
        assert list(report["rg_f"]) == rg, gens
        nodes += 1
    assert nodes == sum(oracle.count_by_genus(7)) - 1


def test_check_computes_no_pf_mask_unless_a_row_reads_it(monkeypatch,
                                                        capsys):
    # `check` on a large input computes the mirrored PF mask, a reversal
    # of a million bits, only for canonical_gens, the row that reads it;
    # every other property exits with its verdict or its precondition
    calls = []

    def refused(s):
        calls.append(s)
        raise AssertionError("mirrored PF mask computed")

    monkeypatch.setattr(core, "_mirrored_pf_mask", refused)
    monkeypatch.setattr(properties, "_mirrored_pf_mask", refused)
    for prop in properties.PROPERTIES:
        if prop == "canonical_gens":
            continue
        assert cli.main(["check", prop, "1001,1003"]) in (0, 4), prop
        capsys.readouterr()
    assert not calls
    assert cli.main(["check", "canonical_gens", "1001,1003"]) != 0
    assert len(calls) == 1
