"""Genus-tree enumeration: counts, completeness against the subset oracle,
and the bounded-memory traversal contract."""

import tracemalloc

import pytest

import kunz_oracle
import subset_oracle as oracle
from numsgp import campaign, tree
from numsgp.core import _remove_generator, from_generators
from numsgp.errors import BoundTooLarge

# full sequence of counts by genus through 15, confirmed by the subset
# oracle for g <= 8 and frozen beyond
COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857]


def children(s):
    """One child per removable generator, ascending in the removed value."""
    return [_remove_generator(s, a)
            for a in s.min_generators if a > s.frobenius]


def test_root():
    (r,) = tree.walk(0)
    assert r.is_trivial
    assert tuple(a for a in r.min_generators if a > r.frobenius) == (1,)


def test_children_examples():
    (r,) = tree.walk(0)
    kids = children(r)
    assert [c.min_generators for c in kids] == [(2, 3)]

    kids = children(kids[0])
    assert [c.min_generators for c in kids] == [(3, 4, 5), (2, 5)]

    kids = children(from_generators([3, 4, 5]))
    assert [c.min_generators for c in kids] == \
        [(4, 5, 6, 7), (3, 5, 7), (3, 4)]


def test_children_genus_and_removables():
    (r,) = tree.walk(0)
    s = children(children(r)[0])[0]
    assert s.genus == 2
    kids = children(s)
    assert [a for a in s.min_generators if a > s.frobenius] == [3, 4, 5]
    assert len(kids) == 3
    for child in kids:
        assert child.genus == s.genus + 1
    # the walk visits the same children, the smallest removed generator,
    # whose child keeps the other two removable, first
    walked = [x for x in tree.walk(s.genus + 1, s) if x.genus == s.genus + 1]
    assert walked == kids

    # the whole walk is the preorder that visits children in that order
    def preorder(s, max_genus):
        yield s
        if s.genus < max_genus:
            for child in children(s):
                yield from preorder(child, max_genus)

    assert ([x.min_generators for x in tree.walk(9)]
            == [x.min_generators for x in preorder(r, 9)])


def test_counts_match_the_kunz_census():
    # every genus count of the walk, and of its symmetric and a_e = 2g + 1
    # columns, against an enumeration of Apery sets that shares no code
    # with the tree; the a_e = 2g + 1 semigroups of genus g are as many as
    # the symmetric ones of genus g + 1
    report = campaign.run_campaign(18, [], 1)
    counts, symmetric = kunz_oracle.census(18)
    assert list(report.counts_by_genus) == counts
    assert list(report.symmetric_counts_by_genus) == symmetric
    assert list(report.maxgen_counts_by_genus[:18]) == symmetric[1:]


def test_largest_generator_bound():
    # the abstract's first claim: a_e <= 2g + 1 on every nontrivial
    # semigroup; the nodes that attain it are the campaign's a_e = 2g + 1
    # column, genus by genus
    attained = [0] * 17
    for s in tree.walk(16):
        if s.is_trivial:
            continue
        assert s.min_generators[-1] <= 2 * s.genus + 1, s.min_generators
        attained[s.genus] += s.min_generators[-1] == 2 * s.genus + 1
    report = campaign.run_campaign(16, [], 1)
    assert attained[1:] == list(report.maxgen_counts_by_genus[1:])


def test_counts_by_genus():
    counts = [0] * 16
    total = 0
    for s in tree.walk(15):
        counts[s.genus] += 1
        total += 1
    assert counts == COUNTS
    assert total == sum(COUNTS)


def test_count_zero_and_one():
    assert sum(1 for _ in tree.walk(0)) == 1
    assert sum(1 for _ in tree.walk(1)) == 2


def test_bound_too_large():
    # the depth guard sits in front of the walk, in run_campaign
    with pytest.raises(BoundTooLarge):
        campaign.run_campaign(tree.MAX_GENUS + 1)
    assert campaign.run_campaign(0).total == 1


def test_no_duplicates():
    walked = [s.min_generators for s in tree.walk(9)]
    assert len(set(walked)) == len(walked) == sum(COUNTS[:10])


def test_matches_subset_oracle_bag():
    # bag equality on canonical generator lists, genus by genus
    by_genus = {}
    for s in tree.walk(8):
        by_genus.setdefault(s.genus, []).append(tuple(s.min_generators))
    for g in range(9):
        expected = sorted(tuple(oracle.semigroup_from_gaps(gs))
                          for gs in oracle.gap_sets_of_genus(g))
        assert sorted(by_genus[g]) == expected


def test_walk_subtree_only():
    s = from_generators([3, 4, 5])
    seen = list(tree.walk(5, s))
    assert all(x.genus <= 5 for x in seen)
    assert seen[0] == s
    # descendants only ever remove elements, so each is a subset of s
    for x in seen:
        for n in range(x.conductor + 1):
            if n in x:
                assert n in s


def test_traversal_memory_stays_bounded():
    # the walk must never materialize the full level sets; peak allocation
    # for genus 15 (6964 semigroups) stays far below what a stored list
    # of them would need
    tracemalloc.start()
    tracemalloc.reset_peak()
    total = sum(1 for _ in tree.walk(15))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total == sum(COUNTS)
    assert peak < 512 * 1024
