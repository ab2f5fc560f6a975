"""Campaign runner: exhaustive results, determinism, and report shape."""

import json
import multiprocessing
import random
from collections import Counter
from itertools import count, product
from pathlib import Path

import pytest

from numsgp import campaign, cli, core, maxgen, properties, tree
from numsgp.errors import BoundTooLarge, UnknownProperty
from test_cli import CHECK_FIXTURES

# oracle-confirmed per-genus tallies (see subset_oracle.py), g = 0..8
MAXGEN_COUNTS = [1, 1, 2, 3, 3, 6, 8, 7, 15]
SYMMETRIC_COUNTS = [1, 1, 1, 2, 3, 3, 6, 8, 7]


@pytest.fixture(scope="module")
def report12():
    return campaign.run_campaign(12, "all", jobs=1)


def test_all_properties_pass_exhaustively(report12):
    assert report12.passed
    assert report12.property_failures == ()
    assert report12.counts_by_genus == \
        (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)


def test_tallies_match_oracle(report12):
    assert list(report12.maxgen_counts_by_genus[:9]) == MAXGEN_COUNTS
    assert list(report12.symmetric_counts_by_genus[:9]) == SYMMETRIC_COUNTS


def test_correspondence_count_identity(report12):
    mg = report12.maxgen_counts_by_genus
    sym = report12.symmetric_counts_by_genus
    for g in range(report12.max_genus):
        assert mg[g] == sym[g + 1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_correspondence_counts_row_evaluations(jobs, monkeypatch):
    # checked counts row evaluations, not nodes: correspondence runs once
    # on the trivial semigroup and twice on each <2, 2g+1>, from each side
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    for max_genus, want in ((1, 3), (2, 6), (5, 26), (10, 150), (14, 501)):
        rep = campaign.run_campaign(max_genus, ["correspondence"], jobs)
        mg, sym = rep.maxgen_counts_by_genus, rep.symmetric_counts_by_genus
        assert dict(rep.checked)["correspondence"] == want == (
            sum(mg) + sum(sym) - 1), max_genus


def test_every_applicable_check_ran(report12):
    checked = dict(report12.checked)
    nontrivial = report12.total - 1
    # the tallies count the trivial semigroup as both max-generated
    # (a_e = 1 = 2g+1) and symmetric (F+1 = 0 = 2g); the per-node checks
    # run on nontrivial semigroups only
    mg_nontrivial = sum(report12.maxgen_counts_by_genus) - 1
    sym_nontrivial = sum(report12.symmetric_counts_by_genus) - 1
    assert checked["wilf"] == nontrivial
    assert checked["apery_reflected_gaps"] == nontrivial
    assert checked["canonical_gens"] == nontrivial
    assert checked["frobenius_formula"] == mg_nontrivial
    assert checked["pf_formula"] == mg_nontrivial
    assert checked["type"] == mg_nontrivial
    assert checked["reflection_bijection"] == mg_nontrivial
    assert checked["closed_gap_wilf"] == mg_nontrivial
    # correspondence covers both families, re-checking the <2, 2g+1>
    # semigroups (which are both) from each side, plus the boundary pair
    # rooted at the trivial semigroup
    assert checked["correspondence"] == 1 + mg_nontrivial + sym_nontrivial
    # the rows with an applicability test count only the nodes it admits
    nodes = [s for s in tree.walk(12) if not s.is_trivial]
    mg = [s for s in nodes if s.min_generators[-1] == 2 * s.genus + 1]
    sym = [s for s in nodes if s.frobenius + 1 == 2 * s.genus]
    assert checked["wilf_equality"] == sum(
        s.multiplicity == 2 or s.frobenius == s.multiplicity - 1
        for s in nodes)
    assert checked["genus_bound"] == sum(
        s.frobenius > s.multiplicity for s in nodes)
    assert checked["sym_generators"] == sum(
        s.multiplicity >= 3 for s in sym)
    assert checked["inequality_chain"] == sum(
        len(s.min_generators) > 2 for s in mg)


def test_single_property_run():
    rep = campaign.run_campaign(9, ["wilf"], jobs=1)
    assert rep.properties == ("wilf",)
    assert dict(rep.checked).keys() == {"wilf"}
    assert rep.passed


def test_property_subset_and_order():
    rep = campaign.run_campaign(6, ["type", "wilf"], jobs=1)
    # registry order, not request order
    assert rep.properties == ("wilf", "type")
    assert rep.passed


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        campaign.run_campaign(4, ["bogus"])
    with pytest.raises(UnknownProperty):
        properties.resolve(["wilf", "nope"])
    # "all" selects every property only once every other name is known
    for selection in (["all", "nope"], ["nope", "all"]):
        with pytest.raises(UnknownProperty, match="'nope'"):
            campaign.run_campaign(5, selection)


def test_resolve_all():
    assert properties.resolve("all") == properties.PROPERTIES
    assert properties.resolve(None) == properties.PROPERTIES
    assert properties.resolve(["all"]) == properties.PROPERTIES


def test_registry_reads_every_name():
    # one rule for a name: hyphens read as underscores, anything else is
    # UnknownProperty quoting the name as given, for check() as for resolve()
    assert properties.resolve("pf-formula") == ("pf_formula",)
    assert properties.resolve(["type", "wilf-equality", "type"]) == (
        "wilf_equality", "type")
    assert properties.resolve([]) == ()
    s = core.from_generators([2, 7])
    assert (properties.check("wilf-equality", s)
            == properties.check("wilf_equality", s))
    for name in ("nope", "nope-x", "all"):
        with pytest.raises(UnknownProperty, match="property %r;" % name):
            properties.check(name, s)
    with pytest.raises(UnknownProperty, match="'nope-x'"):
        properties.resolve(["wilf", "nope-x"])


def test_bad_bounds():
    with pytest.raises(ValueError):
        campaign.run_campaign(-1)
    with pytest.raises(ValueError):
        campaign.run_campaign(4, "all", jobs=0)
    with pytest.raises(BoundTooLarge):
        campaign.run_campaign(99)


def test_parallel_serial_byte_identical():
    rep1 = campaign.run_campaign(12, "all", jobs=1)
    rep4 = campaign.run_campaign(12, "all", jobs=4)
    a = json.dumps(rep1.to_json_dict(include_wall_time=False), sort_keys=True)
    b = json.dumps(rep4.to_json_dict(include_wall_time=False), sort_keys=True)
    assert a == b


def test_parallel_small_bounds(monkeypatch):
    # genus 5 runs in this process; genus 6 is the smallest bound that
    # starts a pool: the root and the one unit <2, 3>
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    rep = campaign.run_campaign(5, "all", jobs=2)
    assert rep.counts_by_genus == (1, 1, 2, 4, 7, 12)
    assert rep.passed
    rep = campaign.run_campaign(6, "all", jobs=2)
    assert rep.counts_by_genus == (1, 1, 2, 4, 7, 12, 23)
    assert rep.passed


def _item_count(max_genus):
    """The number of items of a shared campaign: the nodes of genus
    <= G - 5."""
    return sum(1 for _ in tree.walk(max_genus - campaign.UNIT_MARGIN))


def test_pool_no_larger_than_work(monkeypatch):
    sizes = []

    class FakePool:
        """Records its size and runs its workers one after another in this
        process, on the block counter it was handed."""

        def __init__(self, n, initializer, initargs):
            assert initializer is campaign._init_worker
            sizes.append(n)
            monkeypatch.setattr(campaign, "_claimed", *initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items, chunksize=1):
            return [fn(*x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert [_item_count(g) for g in (6, 7, 8, 9)] == [2, 4, 8, 15]
    for cpus, max_genus, jobs, want in (
            (8, 0, 8, []), (8, 5, 64, []), (8, 6, 64, [2]), (8, 7, 64, [4]),
            (8, 8, 64, [8]), (8, 9, 64, [8]), (8, 12, 3, [3]),
            (3, 12, 64, [3]), (1, 12, 64, []), (None, 12, 64, [])):
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: cpus)
        sizes.clear()
        rep = campaign.run_campaign(max_genus, "all", jobs)
        assert sizes == want, (cpus, max_genus, jobs)
        assert rep.to_json(include_wall_time=False) == campaign.run_campaign(
            max_genus, "all", 1).to_json(include_wall_time=False)


def _frontier(max_genus):
    """The nodes above the units and the units, as generator tuples, read
    from the item list."""
    above, units = [], []
    for s, a in campaign._items(max_genus):
        if a is None:
            above.append(s.min_generators)
        else:
            units.append(core._remove_generator(s, a).min_generators)
    return above, units


def claimed_shares(max_genus, jobs, seed, start=None):
    """The (start, depth) pairs of jobs shares of the tree up to max_genus
    that claim their blocks from one counter, as pool workers do, each list
    in its share's order.  The shares take turns one pair at a time in an
    order drawn from random.Random(seed)."""
    claim = count().__next__
    shares = [campaign._share(max_genus, claim, start) for _ in range(jobs)]
    units = [[] for _ in shares]
    rng = random.Random(seed)
    live = list(range(jobs))
    while live:
        k = rng.choice(live)
        try:
            units[k].append(next(shares[k]))
        except StopIteration:
            live.remove(k)
    return units


def expanded(units):
    """The nodes of (start, depth) pairs, as tree.walk reaches them."""
    return [t for s, depth in units for t in tree.walk(depth, s)]


def walked(units, max_genus):
    """The nodes campaign._tally walks from (start, depth) pairs, each one
    built by a plan that reads every node."""
    nodes = []

    def record(s):
        nodes.append(s)
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "plan", lambda names, key: ((), ((0, record),)))
        campaign._tally(units, max_genus, ("wilf",))
    return nodes


def _fields(s):
    return (s.min_generators, s.conductor, s.gap_mask, s.mirror,
            s._mirrored_pf_bits)


def test_campaign_walk_matches_tree_walk(monkeypatch):
    # the plain-value walk of campaign._tally, in this process and shared
    # by 2 or 3 pool workers claiming blocks in turn, reaches the nodes
    # tree.walk reaches, each with the same generators, conductor, gap
    # masks and carried PF mask, with masks and without; and a selection
    # of plain-value rows, which builds no node, keys the same scalars
    for max_genus in (0, 1, 2, 6, 11, 16):
        for masks in (False, True):
            root = core._naturals(masks)
            want = Counter(map(_fields, tree.walk(max_genus, root)))
            got = walked([(root, max_genus)], max_genus)
            assert Counter(map(_fields, got)) == want, (max_genus, masks)
            if max_genus <= campaign.UNIT_MARGIN:
                continue
            for jobs in (2, 3):
                shares = claimed_shares(max_genus, jobs, jobs + masks, root)
                got = [s for share in shares
                       for s in walked(share, max_genus)]
                assert Counter(map(_fields, got)) == want, (max_genus, masks,
                                                            jobs)
    keyed = Counter()
    real = properties.scalar_domains

    def recorded(g, c, m, ae):
        keyed[g, c, m, ae] += 1
        return real(g, c, m, ae)

    monkeypatch.setattr(campaign, "scalar_domains", recorded)
    assert campaign.run_campaign(16, ["wilf"], 1).passed
    assert keyed == Counter((s.genus, s.conductor, s.multiplicity,
                             s.min_generators[-1]) for s in tree.walk(16))


#: The rows that apply to every nontrivial semigroup and read only its
#: plain values: a selection with them builds no node.
EVERY_NODE_ROWS = {"wilf", "apery_reflected_gaps", "canonical_gens"}


def test_node_built_only_where_a_row_reads_it(monkeypatch):
    # the walk builds a node as a Semigroup exactly where a selected row
    # that reads the node applies to it, at every genus, in this process
    # and in the shares of a pool: a selection of plain-value rows, the
    # rows of every node among them, builds none, and all builds only the
    # trivial semigroup and the MAXGEN and SYMMETRIC nodes
    built = Counter()

    class Counted(core.Semigroup):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built[self.genus] += 1

    monkeypatch.setattr(campaign, "Semigroup", Counted)
    nodes = list(tree.walk(10))
    selections = [(p,) for p in properties.PROPERTIES]
    selections += [(), ("wilf", "type"), ("wilf", "canonical_gens"),
                   tuple(EVERY_NODE_ROWS), properties.PROPERTIES]
    for names in selections:
        readers = [r for r in properties.ROWS
                   if r.name in names and r.plain is None]
        want = Counter()
        for s in nodes:
            key = properties.domains(s)
            if any(r.domain & key and (not r.applies or r.applies & key)
                   for r in readers):
                want[s.genus] += 1
        built.clear()
        rep = campaign.run_campaign(10, names, 1)
        assert rep.passed
        assert built == want, names
        built.clear()
        for share in claimed_shares(10, 2, 0, properties.root(names)):
            campaign._tally(share, 10, names)
        assert built == want, names
        if not readers:
            assert not want, names
        if set(names) <= EVERY_NODE_ROWS:
            assert not readers, names
        if names == properties.PROPERTIES:
            # the root, for correspondence, and the two domains
            assert want == Counter(
                s.genus for s in nodes
                if properties.domains(s) & (properties.TRIVIAL
                                            | properties.MAXGEN
                                            | properties.SYMMETRIC))
        if names == ("type",):
            assert [want[g] for g in range(11)] == [
                n - (g == 0) for g, n in enumerate(rep.maxgen_counts_by_genus)]


def test_scalar_failure_witness_builds_no_node(monkeypatch):
    # a plain-value verdict that fails every node of genus 10: the
    # witnesses are the nodes' minimal generators, read off the walk
    # without building a node, in this process and in pool workers
    fails_at_10 = properties._plain_row(
        "wilf", properties.ALL, lambda g, c, gens, gaps, mirror, pf: g != 10,
        None, None).holds
    for row in properties.ROWS:
        if row.name == "wilf":
            monkeypatch.setattr(row, "holds", fails_at_10)

    def refused(*args):
        raise AssertionError("a plain-value row built a node")

    monkeypatch.setattr(campaign, "Semigroup", refused)
    want = sorted(t.min_generators for t in tree.walk(10) if t.genus == 10)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    forked = multiprocessing.get_start_method() == "fork"
    for jobs in (1, 2) if forked else (1,):
        rep = campaign.run_campaign(10, ["wilf"], jobs)
        assert _failed(rep, "wilf") == want, jobs
        assert dict(rep.checked)["wilf"] == rep.total - 1


def test_shares_partition_the_tree():
    # every node lands in exactly one share, a node above the units alone
    # and a unit with its subtree to the bound, however the shares
    # interleave their claims, with carried masks or without; and the
    # frontier depends on the genus bound alone: the units are the nodes
    # of genus G - 5 and the items above them the nodes of lower genus,
    # each listed once
    for max_genus in range(6, 17):
        whole = Counter(s.min_generators for s in tree.walk(max_genus))
        deep = max_genus - campaign.UNIT_MARGIN
        above, units = _frontier(max_genus)
        assert Counter(above) == Counter(s.min_generators for s in
                                         tree.walk(deep - 1)), max_genus
        assert Counter(units) == Counter(s.min_generators for s in
                                         tree.walk(deep)
                                         if s.genus == deep), max_genus
        for masks in (False, True):
            for jobs in (1, 2, 3, 5):
                seed = max_genus * 100 + jobs * 10 + masks
                shares = claimed_shares(max_genus, jobs, seed,
                                        core._naturals(masks))
                for s, depth in (pair for share in shares for pair in share):
                    assert depth == (max_genus if s.genus == deep
                                     else s.genus), s
                    assert (s._mirrored_pf_bits is not None) == masks
                nodes = Counter(s.min_generators for share in shares
                                for s in expanded(share))
                assert nodes == whole, (max_genus, masks, jobs)


def test_no_items_up_to_the_margin():
    # a bound of UNIT_MARGIN or less runs in this process: there is
    # nothing to share
    for max_genus in range(campaign.UNIT_MARGIN + 1):
        assert list(campaign._items(max_genus)) == []


def test_each_unit_is_built_once(monkeypatch):
    # every share builds the nodes above the units, but a unit only in the
    # share that claimed it, and it walks the unit's subtree on plain
    # values, with no node built for a wilf campaign: J (E - 1) + U
    # Semigroups built and J (E - 1) + (T - E) child steps (core._child)
    # in all, for E nodes of genus below G - 5, U of genus G - 5 and T in
    # the tree, however the shares interleave their claims
    calls = Counter()
    build = core._remove_generator
    step = core._child

    def built(s, a):
        calls["built"] += 1
        return build(s, a)

    def stepped(*args):
        calls["step"] += 1
        return step(*args)

    def node(*args):
        calls["node"] += 1
        return core.Semigroup(*args)

    monkeypatch.setattr(campaign, "_remove_generator", built)
    monkeypatch.setattr(tree, "_remove_generator", built)
    monkeypatch.setattr(core, "_child", stepped)
    monkeypatch.setattr(campaign, "_child", stepped)
    monkeypatch.setattr(campaign, "Semigroup", node)
    for max_genus in (12, 16):
        genera = Counter(s.genus for s in tree.walk(max_genus))
        whole = sum(genera.values())
        units = genera[max_genus - campaign.UNIT_MARGIN]
        expanded = sum(n for g, n in genera.items()
                       if g < max_genus - campaign.UNIT_MARGIN)
        for jobs in (2, 3):
            for seed in range(3):
                calls.clear()
                shares = claimed_shares(max_genus, jobs, seed)
                assert sum(map(len, shares)) == expanded + units
                assert calls["built"] == (jobs * (expanded - 1)
                                          + units), (max_genus, jobs, seed)
                parts = [campaign._tally(share, max_genus, ("wilf",))
                         for share in shares]
                assert sum(sum(part[0]) for part in parts) == whole
                assert calls["step"] == (jobs * (expanded - 1)
                                         + whole - expanded), (max_genus,
                                                               jobs, seed)
                assert calls["built"] == jobs * (expanded - 1) + units
                assert calls["node"] == 0


def test_unseen_domain_key_is_planned(monkeypatch):
    # a domain key no row was written for is planned when a node first has
    # it: an unused flag in every nontrivial key leaves the report as it was
    assert not any((row.domain | row.applies) & 1 << 16
                   for row in properties.ROWS)
    want = campaign.run_campaign(10, "all", 1).to_json(include_wall_time=False)
    real = properties.scalar_domains

    def with_unused_flag(g, c, m, ae):
        key = real(g, c, m, ae)
        return key if key == properties.TRIVIAL else key | 1 << 16

    monkeypatch.setattr(campaign, "scalar_domains", with_unused_flag)
    got = campaign.run_campaign(10, "all", 1).to_json(include_wall_time=False)
    assert got == want


def unsymmetric_3_5(g, c, m, ae):
    """properties.scalar_domains with <3, 5> left out of SYMMETRIC."""
    key = properties.scalar_domains(g, c, m, ae)
    if (g, c, m, ae) == (4, 8, 3, 5):
        return key & ~properties.SYMMETRIC
    return key


def test_broken_count_identity_filed_under_correspondence(monkeypatch):
    # <3, 5> (genus 4) left out of the symmetric tally breaks the count
    # identity at genus 3; the witness is the genus, under correspondence,
    # in this process and from pool workers.  (g, c, m, a_e) = (4, 8, 3, 5)
    # is <3, 5> alone: m = 3 and a_e = 5 leave <3, 4>, <3, 5> and <3, 4, 5>
    monkeypatch.setattr(campaign, "scalar_domains", unsymmetric_3_5)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    forked = multiprocessing.get_start_method() == "fork"
    for jobs in (1, 2) if forked else (1,):
        rep = campaign.run_campaign(8, ["wilf", "correspondence"], jobs)
        assert rep.property_failures == (("correspondence", (3,)),), jobs
        assert campaign.run_campaign(8, ["wilf"], jobs).passed


def test_frontier_deepens_with_the_bound():
    # units (the nodes of genus G - 5) and above-frontier nodes at three
    # genus bounds
    for max_genus, units, above in ((16, 343, 478), (19, 1693, 2414),
                                    (21, 4806, 6964)):
        items = Counter(a is None for _, a in campaign._items(max_genus))
        assert (items[False], items[True]) == (units, above), max_genus


def test_refined_frontier_byte_identical(monkeypatch):
    # the genus-16 frontier: 343 units at genus 11 under 478 nodes
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    reports = {campaign.run_campaign(16, "all", jobs).to_json(
        include_wall_time=False) for jobs in (1, 2, 3)}
    assert len(reports) == 1


def test_refined_frontier_failures_merge(monkeypatch):
    # witnesses from three workers merge into the jobs-1 failure list; the
    # workers see the broken row only when forked
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked")
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    for row in properties.ROWS:
        if row.name == "type":
            monkeypatch.setattr(row, "holds", lambda s: False)
    # three shares that take turns claiming each find failing nodes
    for share in claimed_shares(16, 3, 0):
        assert any(s.min_generators[-1] == 2 * s.genus + 1
                   for s in expanded(share) if not s.is_trivial)
    one = campaign.run_campaign(16, ["type"], 1)
    three = campaign.run_campaign(16, ["type"], 3)
    assert len(one.property_failures) == dict(one.checked)["type"]
    assert three.property_failures == one.property_failures


def test_pool_capped_by_the_cpus(monkeypatch):
    # any jobs asks for at most min(jobs, CPUs, nodes of genus <= G - 5),
    # counted without building more nodes than that or any unit, and
    # G <= 5 starts no pool
    sizes = []
    built = Counter()

    class Asked(Exception):
        pass

    class FakePool:
        """Records its size and starts nothing."""

        def __init__(self, n, initializer, initargs):
            sizes.append(n)
            raise Asked

    walk = tree.walk

    def counted(max_genus, start=None):
        for s in walk(max_genus, start):
            built["nodes"] += 1
            yield s

    step = core._remove_generator
    genera = []

    def recorded(s, a):
        child = step(s, a)
        genera.append(child.genus)
        return child

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(tree, "walk", counted)
    monkeypatch.setattr(tree, "_remove_generator", recorded)
    monkeypatch.setattr(campaign, "_remove_generator", recorded)
    for cpus in (2, 6):
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: cpus)
        for max_genus in (2, 5):
            for jobs in (3, 10_000):
                assert campaign.run_campaign(max_genus, ["wilf"], jobs).passed
        for max_genus in (6, 7, 12, 13, 16, 19, 21):
            items = _item_count(max_genus)
            deep = max_genus - campaign.UNIT_MARGIN
            for jobs in (3, 10_000):
                built.clear()
                genera.clear()
                with pytest.raises(Asked):
                    campaign.run_campaign(max_genus, ["wilf"], jobs)
                assert sizes.pop() == min(jobs, cpus, items)
                assert built["nodes"] <= cpus
                assert all(g < deep for g in genera)
    assert not sizes


#: Whole campaign reports without wall_time, by bound and property
#: selection.  Rewrite the file only with an output change that is meant.
VERIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "verify_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", VERIFY_GOLDEN,
    ids=lambda c: "%d-%s" % (c["max_genus"], c["properties"]))
def test_verify_golden_report(case, monkeypatch):
    # checked and the three count columns, at jobs 1 and from a real pool
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        report = campaign.run_campaign(
            case["max_genus"], case["properties"].split(","), jobs)
        assert report.to_json(include_wall_time=False) == case["report"], jobs


def test_report_json_shape(report12):
    d = report12.to_json_dict()
    assert d["max_genus"] == 12
    assert d["passed"] is True
    assert d["property_failures"] == []
    assert set(d["checked"]) == set(properties.PROPERTIES)
    assert "wall_time" in d
    assert "wall_time" not in report12.to_json_dict(include_wall_time=False)
    # round-trips through json
    assert json.loads(report12.to_json())["counts_by_genus"] == \
        list(report12.counts_by_genus)


def test_wall_time_positive(report12):
    assert report12.wall_time > 0


def _failed(rep, name):
    return [w for p, w in rep.property_failures if p == name]


def _reaches_both_commands(prop, fixture, monkeypatch, capsys):
    """Assert that a fault already in place fails prop's campaign to genus
    12 at jobs 1 and 2 with the same witnesses, each a nontrivial node, and
    `check prop fixture`."""
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    reports = [campaign.run_campaign(12, [prop], jobs) for jobs in (1, 2)]
    assert reports[0].property_failures == reports[1].property_failures
    witnesses = _failed(reports[0], prop)
    assert witnesses and all(len(w) >= 2 for w in witnesses)
    if fixture is not None:
        assert cli.main(["check", prop, fixture]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["holds"] is False


def test_broken_rg_mask_is_caught(monkeypatch, capsys):
    # RG(F) with its lowest bit dropped: the apery_reflected_gaps verdict
    # and reflected_gap_report read RG(F) as the gap mask AND the mirror
    # in maxgen._reflected_gap_verdicts, so the fault clears the lowest
    # such bit of the mirror that the shared helper is handed
    real = maxgen._reflected_gap_verdicts

    def drop_lowest_bit(g, c, gens, gaps, mirror):
        rgf = gaps & mirror
        return real(g, c, gens, gaps, mirror ^ (rgf & -rgf))

    monkeypatch.setattr(maxgen, "_reflected_gap_verdicts", drop_lowest_bit)
    _reaches_both_commands("apery_reflected_gaps", "3,5,7", monkeypatch,
                           capsys)


def _patch_step(monkeypatch, fault):
    """Put fault(real, *args) in place of the child step core._child, in
    tree.walk and the units that it and _remove_generator build, and in
    the campaign walk; a pool forked after this inherits it."""
    real = core._child

    def step(*args):
        return fault(real, *args)

    monkeypatch.setattr(core, "_child", step)
    monkeypatch.setattr(campaign, "_child", step)


def test_broken_carried_mirror_is_caught(monkeypatch):
    # a child step that marks 0 as a gap in the mirror it carries: the
    # canonical_gens verdict checks the mirror-read offsets against the
    # carried PF mask, which the child step builds from the gap mask, in
    # this process and in pool workers
    def zero_as_gap(real, *args):
        gens, c, gaps, mirror, pf = real(*args)
        return gens, c, gaps, mirror | 1 << (c - 1), pf

    _patch_step(monkeypatch, zero_as_gap)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    reports = [campaign.run_campaign(10, ["canonical_gens"], jobs)
               for jobs in (1, 2)]
    assert reports[0].property_failures == reports[1].property_failures
    witnesses = _failed(reports[0], "canonical_gens")
    assert witnesses and all(len(w) >= 2 for w in witnesses)


@pytest.mark.parametrize("prop", ["canonical_gens", "apery_reflected_gaps"])
def test_broken_carried_mask_is_caught(prop, monkeypatch, capsys):
    # a wrong mask read on every node: the PF mask a child step hands down
    # with 0 marked pseudo-Frobenius (bit F of the mirrored mask), or the
    # Apery mask, which no node carries, with c + m marked, above every
    # Apery element, where maxgen._reflected_gap_verdicts looks it up.
    # The row's independent side, the mirror-read canonical offsets or
    # RG(F) + m, catches it in this process and in pool workers alike,
    # and `check` catches the Apery fault, which it shares
    def corrupted(real, *args):
        gens, c, gaps, mirror, pf = real(*args)
        return gens, c, gaps, mirror, pf | 1 << (c - 1)

    def apery_mask(gaps, m):
        return core._apery_mask(gaps, m) | 1 << (gaps.bit_length() + m)

    if prop == "canonical_gens":
        _patch_step(monkeypatch, corrupted)
        _reaches_both_commands(prop, None, monkeypatch, capsys)
    else:
        monkeypatch.setattr(maxgen, "_apery_mask", apery_mask)
        _reaches_both_commands(prop, "3,5,7", monkeypatch, capsys)


#: The rows whose verdicts read the carried mirrored PF mask.
MASK_READERS = {"canonical_gens"}


def test_masks_carried_only_when_a_row_reads_them(monkeypatch):
    # a walk builds the mask, on every node, only for a selection with a
    # row that reads it; the same holds for a pool worker's share
    carried = Counter()
    build, step = core._remove_generator, core._child

    def built(s, a):
        t = build(s, a)
        carried[t._mirrored_pf_bits is not None] += 1
        return t

    def stepped(*args):
        child = step(*args)
        carried[child[4] is not None] += 1
        return child

    monkeypatch.setattr(tree, "_remove_generator", built)
    monkeypatch.setattr(campaign, "_remove_generator", built)
    monkeypatch.setattr(campaign, "_child", stepped)
    selections = [(p,) for p in properties.PROPERTIES]
    selections += [("wilf", "genus_bound"), ("wilf", "type"),
                   properties.PROPERTIES]
    for names in selections:
        has = bool(MASK_READERS.intersection(names))
        carried.clear()
        assert campaign.run_campaign(8, names, jobs=1).passed
        assert carried.keys() == {has}, names
        carried.clear()
        monkeypatch.setattr(campaign, "_claim", count().__next__)
        for _ in range(2):
            campaign._worker(8, names)
        assert carried.keys() == {has}, names


def test_dropped_member_bit_moves_the_genus_counts(monkeypatch):
    # the genus is derived from the gap mask, not handed down from the
    # parent: a child step that loses a member (here 0, marked a gap, which
    # every descendant inherits) puts its whole subtree one genus too deep,
    # in this process and in pool workers
    max_genus = 10

    def drop_zero(real, *args):
        gens, c, gaps, mirror, pf = real(*args)
        if gaps.bit_count() >= max_genus - 1:
            return gens, c, gaps, mirror, pf
        return gens, c, gaps | 1, mirror, pf

    _patch_step(monkeypatch, drop_zero)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    forked = multiprocessing.get_start_method() == "fork"
    for jobs in (1, 2) if forked else (1,):
        rep = campaign.run_campaign(max_genus, [], jobs)
        assert rep.counts_by_genus != \
            (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204), jobs


def test_broken_reverse_is_caught(monkeypatch, capsys):
    # no check a campaign runs mirrors a mask, in this process or in pool
    # workers: canonical_gens reads the carried PF mask, which is already
    # mirrored.  `check reflection_bijection` compares the mirror that
    # core._reverse builds for a from_generators result with the forward
    # gap mask, so an off-by-one reversal fails it
    real = core._reverse

    def refused(*args, **kwargs):
        raise AssertionError("a campaign reversed a mask")

    def off_by_one(v, n):
        return real(v, n + 1)

    monkeypatch.setattr(core, "_reverse", refused)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        assert campaign.run_campaign(12, "all", jobs).passed
    monkeypatch.setattr(core, "_reverse", off_by_one)
    assert cli.main(["check", "reflection_bijection", "3,5,7"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["holds"] is False


def test_subset_failures_filed_by_name(monkeypatch):
    # with a proper subset selected, witnesses and checked counts land under
    # the name of the property they belong to
    alone = {p: dict(campaign.run_campaign(10, [p], jobs=1).checked)[p]
             for p in ("wilf", "type")}
    for row in properties.ROWS:
        if row.name == "type":
            monkeypatch.setattr(row, "holds", lambda s: False)
    rep = campaign.run_campaign(10, ["wilf", "type"], jobs=1)
    assert rep.properties == ("wilf", "type")
    assert {p for p, _ in rep.property_failures} == {"type"}
    assert len(_failed(rep, "type")) == alone["type"]
    assert dict(rep.checked) == alone


@pytest.mark.parametrize("clause", ["genus_and_frobenius", "wilf_on_t",
                                    "frobenius", "genus"])
def test_broken_closed_gap_clause_is_caught(clause, monkeypatch, capsys):
    # each inner clause of the closed_gap_wilf verdict fails on its own: a
    # closure that returns S itself keeps the genus, and a Wilf test that
    # fails every T fails each node whose T is nontrivial.  On an interval
    # S = <m, ..., 2m - 1>, m >= 4, a_e <= 2 a_1 skips the PF clause, and
    # a closure that adds m - 2 keeps F = a_e - a_1 at the right genus,
    # while one that adds m - 1 and m - 2 lowers F but drops the genus by
    # two, so each breaks one clause.  A campaign in this process and in
    # pool workers, and `check`, all report it
    nodes = [s for s in tree.walk(10) if not s.is_trivial
             and s.min_generators[-1] == 2 * s.genus + 1]
    fixture = CHECK_FIXTURES["closed_gap_wilf"]
    if clause == "genus_and_frobenius":
        monkeypatch.setattr(maxgen, "close_largest_gap", lambda s: s)
    elif clause == "wilf_on_t":
        nodes = [s for s in nodes
                 if not maxgen.close_largest_gap(s).is_trivial]
        monkeypatch.setattr(maxgen, "_wilf_holds", lambda s: False)
    else:
        added = (2,) if clause == "frobenius" else (1, 2)
        real = maxgen.close_largest_gap

        def is_interval(s):
            m = s.multiplicity
            return m >= 4 and s.min_generators == tuple(range(m, 2 * m))

        def close(s):
            if not is_interval(s):
                return real(s)
            m = s.multiplicity
            return core.from_generators(
                [m - k for k in added] + list(range(m, 2 * m)))

        nodes = [s for s in nodes if is_interval(s)]
        assert len(nodes) == 8
        for s in nodes:
            t = close(s)
            ae_minus_a1 = s.multiplicity - 1
            if clause == "frobenius":
                assert t.genus == s.genus - 1
                assert t.frobenius == ae_minus_a1
            else:
                assert t.genus == s.genus - 2
                assert t.frobenius < ae_minus_a1
        monkeypatch.setattr(maxgen, "close_largest_gap", close)
        fixture = "4,5,6,7"
    want = sorted(s.min_generators for s in nodes)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    forked = multiprocessing.get_start_method() == "fork"
    for jobs in (1, 2) if forked else (1,):
        rep = campaign.run_campaign(10, ["closed_gap_wilf"], jobs)
        assert _failed(rep, "closed_gap_wilf") == want, jobs
    assert cli.main(["check", "closed_gap_wilf", fixture]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["holds"] is False


@pytest.mark.parametrize("prop", properties.PROPERTIES)
def test_single_definition_reaches_both_commands(prop, monkeypatch, capsys):
    # a verdict broken in the registry fails the campaign and `check` alike
    for row in properties.ROWS:
        if row.name == prop:
            monkeypatch.setattr(row, "holds", lambda s: False)
    rep = campaign.run_campaign(8, [prop], jobs=1)
    assert _failed(rep, prop)
    assert cli.main(["check", prop, CHECK_FIXTURES[prop]]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["holds"] is False


#: Each row's `check` record fields that must all equal its verdict.
RECORD_VERDICTS = {
    "wilf": lambda r: (r["holds"], r["count_form_holds"]),
    "wilf_equality": lambda r: (r["margin_zero"],),
    "apery_reflected_gaps": lambda r: (r["equivalent"],),
    "frobenius_formula": lambda r: (
        r["frobenius"] == r["largest_generator"] - r["multiplicity"],),
    "pf_formula": lambda r: (r["pf"] == r["expected"],),
    "type": lambda r: (r["type"] == r["embedding_dimension"] - 1,),
    "reflection_bijection": lambda r: (r["image"] == r["gaps"],),
    "sym_generators": lambda r: (r["largest_generator"] < r["frobenius"],),
    "genus_bound": lambda r: (r["bound_holds"] and r["count_form_holds"],),
    "inequality_chain": lambda r: (r["mult_form_holds"]
                                   and r["symmetric_form_holds"]
                                   and r["wilf_holds"],),
}
#: Rows whose verdict has clauses the record leaves out: the verdict
#: implies what the record shows, not the other way round.
RECORD_IMPLIED = {
    "canonical_gens": lambda r: r["offsets"] == r["expected"],
    "correspondence": lambda r: r["round_trip"],
    "closed_gap_wilf": lambda r: ((r["wilf"] is None or r["wilf"]["holds"])
                                  and r["pf_match"] is not False),
}


def test_check_records_agree_with_the_verdicts():
    # `check` takes its verdict from holds and its fields from record, two
    # computations per row; they agree on every applicable row of every
    # node of genus <= 10
    rows = [r for r in properties.ROWS if r.record is not None]
    assert ({r.name for r in rows}
            == RECORD_VERDICTS.keys() | RECORD_IMPLIED.keys())
    seen = Counter()
    for s in tree.walk(10):
        key = properties.domains(s)
        for row in rows:
            if not row.domain & key or not (not row.applies
                                             or row.applies & key):
                continue
            holds, record = row.holds(s), row.record(s)
            where = (row.name, s.min_generators)
            if row.name in RECORD_VERDICTS:
                assert all(v == holds
                           for v in RECORD_VERDICTS[row.name](record)), where
            else:
                assert not holds or RECORD_IMPLIED[row.name](record), where
            seen[row.name] += 1
    assert seen.keys() == {r.name for r in rows}
