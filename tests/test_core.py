"""Core invariants against frozen oracle values and the naive oracle itself.

Frozen expected values were produced by tests/subset_oracle.py; the
differential tests re-run the oracle live on small instances.
"""

import copy
import pickle
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import subset_oracle as oracle
from numsgp import maxgen, properties, tree
from numsgp.core import (
    Semigroup,
    _add_frobenius,
    _apery_mask,
    _apery_round_robin,
    _bit_positions,
    _gaps_from_apery,
    _mirrored_pf_mask,
    _naturals,
    _pf_mask,
    _remove_generator,
    _reverse,
    conductor_cap,
    from_generators,
)
from numsgp.errors import (
    ConductorCapExceeded,
    EmptyInput,
    IsTrivial,
    NonCoprime,
)
from test_campaign import claimed_shares
from test_cli import CHECK_FIXTURES


# (generators, min_generators, F, genus, multiplicity, gaps, apery, pf, sporadic)
FROZEN = [
    ([3, 5, 7], (3, 5, 7), 4, 3, 3, (1, 2, 4), (0, 7, 5), (2, 4), (3,)),
    ([4, 6, 7, 9], (4, 6, 7, 9), 5, 4, 4, (1, 2, 3, 5), (0, 9, 6, 7),
     (2, 3, 5), (4,)),
    ([3, 4], (3, 4), 5, 3, 3, (1, 2, 5), (0, 4, 8), (5,), (3, 4)),
    ([3, 7, 8], (3, 7, 8), 5, 4, 3, (1, 2, 4, 5), (0, 7, 8), (4, 5), (3,)),
    ([2, 3], (2, 3), 1, 1, 2, (1,), (0, 3), (1,), ()),
    ([2, 5], (2, 5), 3, 2, 2, (1, 3), (0, 5), (3,), (2,)),
    ([3, 5, 8], (3, 5), 7, 4, 3, (1, 2, 4, 7), (0, 10, 5), (7,), (3, 5, 6)),
    ([5, 7, 9, 11, 13], (5, 7, 9, 11, 13), 8, 6, 5, (1, 2, 3, 4, 6, 8),
     (0, 11, 7, 13, 9), (2, 4, 6, 8), (5, 7)),
    ([4, 5, 6, 7], (4, 5, 6, 7), 3, 3, 4, (1, 2, 3), (0, 5, 6, 7),
     (1, 2, 3), ()),
]


@pytest.mark.parametrize("gens,mingens,f,g,m,gaps,apery,pf,sporadic", FROZEN)
def test_frozen_invariants(gens, mingens, f, g, m, gaps, apery, pf, sporadic):
    s = from_generators(gens)
    assert s.min_generators == mingens
    assert s.frobenius == f
    assert s.conductor == f + 1
    assert s.genus == g
    assert s.multiplicity == m
    assert s.gaps() == gaps
    assert s.apery_set() == apery
    assert s.pseudo_frobenius() == pf
    assert s.type_number() == len(pf)
    assert s.sporadic_elements() == sporadic


def test_genus13_fixture():
    s = from_generators([7, 11, 16, 17, 19])
    assert s.genus == 13
    assert s.frobenius == 20
    assert s.apery_set() == (0, 22, 16, 17, 11, 19, 27)
    assert s.pseudo_frobenius() == (10, 12, 15, 20)


def test_trivial_semigroup():
    s = from_generators([1])
    assert s.is_trivial
    assert s.min_generators == (1,)
    assert s.frobenius == -1
    assert s.conductor == 0
    assert s.genus == 0
    assert s.multiplicity == 1
    assert s.gaps() == ()
    assert s.sporadic_elements() == ()
    assert s.apery_set() == (0,)
    assert 0 in s and 1 in s and 10**9 in s
    with pytest.raises(IsTrivial):
        s.pseudo_frobenius()
    with pytest.raises(IsTrivial):
        s.is_symmetric()


def test_generators_containing_one_collapse():
    assert from_generators([1, 5]).is_trivial
    assert from_generators([5, 3, 1, 9]).is_trivial


def test_membership():
    s = from_generators([3, 5, 7])
    members = {0, 3, 5, 6, 7}
    for n in range(9):
        assert (n in s) == (n in members or n >= 5)
    assert -1 not in s
    assert 100 in s


def test_input_validation():
    with pytest.raises(EmptyInput):
        from_generators([])
    with pytest.raises(NonCoprime):
        from_generators([4, 6])
    with pytest.raises(NonCoprime):
        from_generators([6])
    with pytest.raises(ValueError):
        from_generators([0, 3])
    with pytest.raises(ValueError):
        from_generators([-2, 3])


def test_duplicates_and_order_normalized():
    a = from_generators([7, 3, 5, 3, 7])
    b = from_generators([3, 5, 7])
    assert a == b
    assert hash(a) == hash(b)
    assert a.min_generators == (3, 5, 7)


def test_redundant_generators_dropped():
    assert from_generators([3, 5, 8]).min_generators == (3, 5)
    assert from_generators([4, 6, 7, 9, 10, 11, 13]).min_generators == (4, 6, 7, 9)
    for gens, mingens in (([3, 4, 7], (3, 4)), ([3, 4, 8], (3, 4)),
                          ([2, 4, 6, 9], (2, 9)), ([5, 10, 7, 14], (5, 7))):
        s = from_generators(gens)
        assert s.min_generators == mingens
        assert s.gap_mask == from_generators(mingens).gap_mask


def test_equality_and_hash():
    s = from_generators([3, 4])
    t = from_generators([3, 4, 7])
    assert s == t
    assert s != from_generators([3, 5])
    assert s != "not a semigroup"
    assert len({s, t}) == 1


def test_sieve_frobenius_above_product_of_small_pair():
    # F exceeds max(a_e, a1*a2); the run-certified doubling must catch it
    s = from_generators([4, 6, 101])
    assert s.frobenius == 103
    assert s.genus == 52
    assert s.min_generators == (4, 6, 101)
    assert s.is_symmetric()


def test_sieve_no_coprime_pair():
    s = from_generators([6, 10, 15])
    assert s.frobenius == 29
    assert s.genus == 15
    assert s.min_generators == (6, 10, 15)


def test_conductor_cap(monkeypatch):
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "500")
    assert conductor_cap() == 500
    with pytest.raises(ConductorCapExceeded):
        from_generators([101, 103])
    with pytest.raises(ConductorCapExceeded):
        from_generators([2, 1201])
    # still fine below the cap
    assert from_generators([2, 499]).frobenius == 497
    monkeypatch.delenv("NUMSGP_MAX_CONDUCTOR")
    assert conductor_cap() == 2**31
    assert from_generators([101, 103]).frobenius == 100 * 102 - 1


def test_large_two_generator():
    # Sylvester: F(<a,b>) = ab - a - b, genus (a-1)(b-1)/2
    s = from_generators([101, 103])
    assert s.frobenius == 101 * 103 - 101 - 103
    assert s.genus == 100 * 102 // 2


def test_mask_from_apery_peak_memory():
    # each doubling shift holds the mask and a few temporaries below c bits
    apery, _ = _apery_round_robin([1001, 1003])
    c = max(apery) - 1001 + 1
    tracemalloc.start()
    try:
        mask = _gaps_from_apery(apery, 1001, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask == from_generators([1001, 1003]).gap_mask
    assert peak < 4 * (c // 8), peak / (c // 8)


def test_from_generators_peak_memory(monkeypatch):
    # the mirror is built by _reverse, which drops each c-bit intermediate
    # once it is read.  Python 3.10 keeps a call's arguments
    # alive until it returns (3.11 hands them over), so the second pass
    # holds them in a wrapper: a temporary passed in would show there.
    from numsgp import core
    reverse = core._reverse
    for wrapped in (reverse, lambda *a, **k: reverse(*a, **k)):
        monkeypatch.setattr(core, "_reverse", wrapped)
        tracemalloc.start()
        try:
            s = from_generators([1001, 1003])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = s.conductor
        assert c == 1002 * 1000
        assert peak < 4 * (c // 8), peak / (c // 8)


def _slot_values(s):
    return [getattr(s, name) for name in Semigroup.__slots__]


def test_pickle_roundtrip():
    built = from_generators([4, 6, 7, 9])
    stepped = _remove_generator(built, 9)
    # a from_generators result carries its Apery table, a tree step does not
    assert built._apery is not None and stepped._apery is None
    # a node of a walk with masks carries its mirrored PF mask
    carried = [s for s in tree.walk(6, _naturals(masks=True))
               if s.genus == 6][-1]
    duplicates = [copy.copy, copy.deepcopy] + [
        lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
        for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for s in (built, stepped, carried):
        for duplicate in duplicates:
            t = duplicate(s)
            assert type(t) is Semigroup and t == s
            assert _slot_values(t) == _slot_values(s)
            assert t.pseudo_frobenius() == s.pseudo_frobenius()


def test_queries_store_nothing():
    # a Semigroup is a value: no query writes to it
    semigroups = [s for s in tree.walk(9) if not s.is_trivial]
    semigroups += [s for s in tree.walk(9, _naturals(masks=True))
                   if not s.is_trivial]
    semigroups += [from_generators(g) for g in
                   ([3, 5, 7], [4, 6, 7, 9], [101, 103], [7, 11, 16, 17, 19])]
    for s in semigroups:
        before = _slot_values(s)
        s.gaps()
        s.sporadic_elements()
        s.apery_set()
        s.pseudo_frobenius()
        s.type_number()
        s.is_symmetric()
        assert _slot_values(s) == before, s


def test_apery_table_shape():
    s = from_generators([3, 5, 7])
    ap = s.apery_set()
    assert isinstance(ap, tuple)
    assert len(ap) == 3
    assert sorted(ap) == [0, 5, 7]
    assert ap == (0, 7, 5)
    # definition: the m elements whose predecessor mod m is a gap
    for w in ap:
        assert w in s
        assert w - len(ap) not in s


def test_remove_generator_children():
    s = from_generators([3, 4, 5])
    kids = sorted(_remove_generator(s, a).min_generators
                  for a in s.min_generators)
    assert kids == [(3, 4), (3, 5, 7), (4, 5, 6, 7)]


def _fields(s):
    return (s.min_generators, s.conductor, s.gap_mask, s.genus,
            s.frobenius, s.multiplicity, s.mirror)


def _child_reference(s, a):
    # the child's minimal generators lie among these (Rosales &
    # Garcia-Sanchez, Numerical Semigroups, 2009)
    gens = set(s.min_generators) - {a}
    gens.update(a + b for b in s.min_generators)
    gens.update((2 * a, 3 * a))
    return from_generators(gens)


def _parent_reference(s):
    return from_generators(s.min_generators + (s.frobenius,))


def test_tree_steps_match_from_generators():
    steps = 0
    for s in tree.walk(15):
        for a in s.min_generators:
            if a > s.frobenius:
                assert _fields(_remove_generator(s, a)) == \
                    _fields(_child_reference(s, a)), (s, a)
                steps += 1
        if not s.is_trivial:
            assert _fields(_add_frobenius(s)) == \
                _fields(_parent_reference(s)), s
            steps += 1
    assert steps > 13000


def test_child_of_the_ordinary_semigroup():
    # a = m only on {0} union [m, oo), whose child is <m + 1, ..., 2m + 1>
    assert _fields(_remove_generator(_naturals(), 1)) == \
        _fields(from_generators([2, 3]))
    for m in range(1, 65):
        s = from_generators(range(m, 2 * m))
        assert _fields(_remove_generator(s, m)) == \
            _fields(from_generators(range(m + 1, 2 * m + 2))), m


def test_tree_generators_ascend_to_at_most_f_plus_m():
    # the child step appends a + m last without sorting: it relies on both
    # (the root, F = -1, has the one generator 1 = m)
    nodes = 0
    for s in tree.walk(16):
        gens = s.min_generators
        assert all(x < y for x, y in zip(gens, gens[1:])), s
        assert gens[-1] <= s.frobenius + s.multiplicity or s.is_trivial, s
        nodes += 1
    assert nodes == 11770


def _assert_carried_masks(s):
    # the one mask a node carries equals that of a Semigroup rebuilt from
    # its four inputs, which computes it from the gap mask; the PF mask
    # travels mirrored, as the canonical ideal's offsets
    rebuilt = Semigroup(s.min_generators, s.conductor, s.gap_mask,
                        s.mirror)
    assert rebuilt._mirrored_pf_bits is None
    assert s._mirrored_pf_bits == _mirrored_pf_mask(rebuilt), s
    assert _pf_mask(s) == _pf_mask(rebuilt), s


def test_carried_masks_match_recomputed_ones():
    # the child step's mirrored PF recurrence on every nontrivial node of
    # a walk with masks to genus 16, as the campaign walks it in one
    # process and shared by 2 or 3 pool workers claiming blocks in turn
    def check(nodes):
        count = 0
        for s in nodes:
            if not s.is_trivial:
                _assert_carried_masks(s)
                count += 1
        assert count == 11769

    check(tree.walk(16, _naturals(masks=True)))
    for jobs in (2, 3):
        check(s for share in claimed_shares(16, jobs, jobs,
                                             _naturals(masks=True))
              for s in share)
    # the ordinary step a = m, from the root, <2, 3>, ..., to m = 64
    s = _naturals(masks=True)
    for m in range(1, 65):
        s = _remove_generator(s, m)
        assert s.min_generators == tuple(range(m + 1, 2 * m + 2))
        _assert_carried_masks(s)


def _reflects_members_onto_gaps(s):
    # {2g+1-n : n in S, 1 <= n <= 2g} = gaps, with sets, as the paper
    # states it; membership is read off the gap mask's binary digits
    top = 2 * s.genus + 1
    c = s.conductor
    digits = bin(s.gap_mask)[:1:-1].ljust(c, "0")
    members = {n for n in range(1, top) if n >= c or digits[n] == "0"}
    gaps = {n for n in range(1, c) if digits[n] == "1"}
    return {top - n for n in members} == gaps


def test_carried_pf_mask_matches_subset_oracle():
    # the mirrored PF mask the child step hands down, on every nontrivial
    # node to genus 12: its bits are the canonical ideal's minimal offsets
    # and {F - p : p in PF} by the naive oracle, and the PF set and type
    # equal those of from_generators, which carries none.  The masks no
    # node carries are checked on the same nodes: the Apery set from the
    # Apery mask equals the oracle's, and the mirror-read
    # reflection_bijection verdict equals the brute-force statement, on
    # a_e = 2g + 1 nodes and off them
    nodes = reflected = maxgen_nodes = 0
    for s in tree.walk(12, _naturals(masks=True)):
        if s.is_trivial:
            continue
        gens = list(s.min_generators)
        pf = s._mirrored_pf_bits
        bits = [i for i in range(pf.bit_length()) if (pf >> i) & 1]
        inv = oracle.invariants(gens)
        assert bits == oracle.canonical_offsets(gens), gens
        assert bits == sorted(inv["frobenius"] - p for p in inv["pf"])
        built = from_generators(gens)
        assert built._mirrored_pf_bits is None
        assert s.pseudo_frobenius() == built.pseudo_frobenius(), gens
        assert s.type_number() == built.type_number(), gens
        assert s.apery_set() == tuple(inv["apery"]), gens
        verdict = properties._reflection_bijection(s)
        assert verdict == _reflects_members_onto_gaps(s), gens
        reflected += verdict
        maxgen_nodes += gens[-1] == 2 * s.genus + 1
        nodes += 1
    assert (nodes, reflected, maxgen_nodes) == (1412, 163, 163)


@pytest.mark.parametrize("gens", sorted(
    set(CHECK_FIXTURES.values()) | {"701,1100,1350", "1001,1003"}))
def test_masks_of_a_built_semigroup(gens):
    # inputs that carry no mask: the Apery mask's elements are the Apery
    # table from_generators builds by round-robin shortest paths, and the
    # mirror-read reflection_bijection verdict is the brute-force one
    s = from_generators(int(a) for a in gens.split(","))
    assert s._mirrored_pf_bits is None
    assert sorted(_bit_positions(_apery_mask(s))) == sorted(s.apery_set())
    assert properties._reflection_bijection(s) == \
        _reflects_members_onto_gaps(s)


def test_tree_step_edges():
    assert _fields(_add_frobenius(from_generators([2, 3]))) == \
        _fields(from_generators([1]))
    # F < m: the multiplicity drops to F, and S union {F} loses F + m and 2F
    s = from_generators([3, 4, 5])
    assert _fields(_add_frobenius(s)) == _fields(from_generators([2, 3]))


def test_tree_steps_round_trip_large():
    sym = from_generators([701, 1100, 1350])
    mg = _add_frobenius(sym)
    assert _fields(mg) == _fields(_parent_reference(sym))
    assert _fields(_remove_generator(mg, sym.frobenius)) == _fields(sym)
    mg = _add_frobenius(from_generators([151, 200]))
    ae = mg.min_generators[-1]
    sym = _remove_generator(mg, ae)
    assert _fields(sym) == _fields(_child_reference(mg, ae))
    assert _fields(_add_frobenius(sym)) == _fields(mg)


def _mirror_reference(s):
    # one bit per gap, set on its own: shares no logic with core._reverse
    return sum(1 << (s.conductor - 1 - n) for n in s.gaps())


def test_mirror_matches_per_bit_reference():
    nodes = [_naturals()]
    for s in tree.walk(14):
        nodes.append(s)
        if not s.is_trivial:
            nodes.append(_add_frobenius(s))
    nodes += [maxgen.notiz_family(m, f)
              for m in range(3, 12) for f in range(m + 1, 60) if f % m]
    for s in nodes:
        assert s.mirror == _mirror_reference(s), s
    assert len(nodes) > 2 * 4106


def test_against_live_oracle_closure():
    for gens in ([5, 8, 9], [7, 9, 11, 13], [10, 11, 12, 13, 14, 15],
                 [2, 101], [9, 14]):
        s = from_generators(gens)
        inv = oracle.invariants(gens)
        assert s.frobenius == inv["frobenius"]
        assert s.genus == inv["genus"]
        assert list(s.min_generators) == inv["min_generators"]
        assert list(s.gaps()) == inv["gaps"]
        assert list(s.apery_set()) == inv["apery"]
        assert list(s.pseudo_frobenius()) == inv["pf"]
        assert list(s.sporadic_elements()) == inv["sporadic"]
        assert s.is_symmetric() == inv["symmetric"]


@st.composite
def generator_lists(draw):
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.integers(2, 40), min_size=n, max_size=n))
    # force coprimality by appending a coprime partner when needed
    d = 0
    for a in gens:
        d = gcd(d, a)
    if d != 1:
        gens.append(d + 1)
    return gens


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_invariant_identities(gens):
    s = from_generators(gens)
    # the interval [0, F] splits into {0}, sporadic elements, and gaps
    assert s.frobenius + 1 == 1 + len(s.sporadic_elements()) + s.genus
    assert s.genus == len(s.gaps())
    if not s.is_trivial:
        ap = s.apery_set()
        assert max(ap) == s.frobenius + s.multiplicity
        assert len(set(ap)) == s.multiplicity
        assert s.embedding_dimension <= s.multiplicity
        assert s.frobenius not in s
        assert s.frobenius in s.pseudo_frobenius()
        # symmetric <=> reflection n -> F - n swaps members and gaps
        f = s.frobenius
        reflex = all((n in s) != (f - n in s) for n in range(f + 1))
        assert s.is_symmetric() == reflex
    # every minimal generator is a member and not a sum of two members
    positives = [n for n in range(1, s.conductor + s.multiplicity + 1)
                 if n in s]
    sums = {a + b for a in positives for b in positives}
    for a in s.min_generators:
        if not s.is_trivial:
            assert a in s
            assert a not in sums


@settings(max_examples=40, deadline=None)
@given(generator_lists())
def test_membership_matches_naive_closure(gens):
    s = from_generators(gens)
    bound = s.conductor + 2 * s.multiplicity
    members = oracle.closure_set(gens, bound)
    for n in range(bound + 1):
        assert (n in s) == (n in members)


@settings(max_examples=80, deadline=None)
@given(generator_lists())
def test_child_step_matches_from_generators(gens):
    # multiplicities and generators far above those of the shallow tree
    s = from_generators(gens)
    for a in s.min_generators:
        if a > s.frobenius:
            assert _fields(_remove_generator(s, a)) == \
                _fields(_child_reference(s, a)), a


def test_conductor_cap_invalid_values(monkeypatch):
    for raw in ("abc", "0", "-3", "1.5", "1_000", "\uff15"):
        monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", raw)
        with pytest.raises(ValueError, match="NUMSGP_MAX_CONDUCTOR"):
            conductor_cap()
        with pytest.raises(ValueError, match="NUMSGP_MAX_CONDUCTOR"):
            from_generators([3, 5, 7])
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", " 12 ")
    assert conductor_cap() == 12
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "")
    assert conductor_cap() == 2**31


def test_conductor_cap_before_construction(monkeypatch):
    # the conductor is at least a_1, so a_1 at the cap is rejected outright
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "503")
    with pytest.raises(ConductorCapExceeded):
        from_generators([503, 509])
    assert from_generators([2, 3]).frobenius == 1
    # F of <100003, 100019> is about 10^10: rejected from the Apery set
    # alone, without building a mask of that many bits
    monkeypatch.delenv("NUMSGP_MAX_CONDUCTOR")
    start = time.perf_counter()
    with pytest.raises(ConductorCapExceeded):
        from_generators([100003, 100019])
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("gens", [
    [1000000007, 1000000009],
    [1000000007, 1000000009, 1000000011],
])
def test_conductor_cap_rejects_large_a1_at_once(gens):
    # an Apery table of a_1 entries would take gigabytes and minutes here;
    # counting the short sums of the other generators proves c >= cap first
    start = time.perf_counter()
    with pytest.raises(ConductorCapExceeded):
        from_generators(gens)
    assert time.perf_counter() - start < 0.5


def test_conductor_cap_two_generators_exact(monkeypatch):
    # c(<a, b>) = (a - 1)(b - 1); the test before the table decides alone
    for a, b in ((2, 3), (3, 4), (101, 103), (1009, 1013)):
        c = (a - 1) * (b - 1)
        monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", str(c))
        with pytest.raises(ConductorCapExceeded):
            from_generators([a, b])
        monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", str(c + 1))
        assert from_generators([a, b]).conductor == c


@pytest.mark.parametrize("gens,frobenius,genus", [
    ([1009, 1013, 1017], 511559, 256032),
    ([2003, 2011, 2017], 582891, 292590),
])
def test_construction_time_bound(gens, frobenius, genus):
    # construction is O(e * a_1 + c), a few ms on these inputs; one
    # quadratic in the conductor takes seconds
    start = time.perf_counter()
    s = from_generators(gens)
    elapsed = time.perf_counter() - start
    assert s.frobenius == frobenius
    assert s.genus == genus
    assert s.min_generators == tuple(gens)
    assert elapsed < 0.5


def _oracle_bound_ok(gens):
    # the oracle closes up to the product of the generators when no two of
    # them are coprime
    return oracle.safe_bound(gens) <= 20000


@st.composite
def construction_inputs(draw):
    """Small generator lists of the shapes the construction treats apart."""
    kind = draw(st.sampled_from(
        ["any", "no_coprime_pair", "redundant", "a1_is_2"]))
    if kind == "no_coprime_pair":
        # pairwise products of pairwise coprime p, q, r
        p, q, r = draw(st.sampled_from(
            [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (3, 5, 7),
             (2, 5, 9), (4, 5, 7)]))
        gens = [p * q, p * r, q * r]
    elif kind == "a1_is_2":
        gens = [2, 2 * draw(st.integers(1, 60)) + 1]
        gens += draw(st.lists(st.integers(3, 130), max_size=3))
    else:
        n = draw(st.integers(1, 5))
        gens = draw(st.lists(st.integers(2, 30), min_size=n, max_size=n))
        d = 0
        for a in gens:
            d = gcd(d, a)
        if d != 1:
            gens.append(d + 1)
    if kind == "redundant" or (kind != "no_coprime_pair"
                               and draw(st.booleans())):
        # sums and multiples of generators add nothing to the semigroup
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens = gens + [a + b, draw(st.integers(2, 4)) * a]
    return gens


@settings(max_examples=150, deadline=None)
@given(construction_inputs())
def test_construction_against_oracle(gens):
    assume(_oracle_bound_ok(gens))
    s = from_generators(gens)
    inv = oracle.invariants(gens)
    f = inv["frobenius"]
    assert list(s.min_generators) == inv["min_generators"]
    assert s.frobenius == f
    assert s.conductor == f + 1
    assert s.genus == inv["genus"]
    assert s.multiplicity == inv["multiplicity"]
    assert s.gap_mask == sum(1 << n for n in inv["gaps"])
    assert list(s.gaps()) == inv["gaps"]
    assert list(s.sporadic_elements()) == inv["sporadic"]
    assert list(s.apery_set()) == inv["apery"]
    if not s.is_trivial:
        assert list(s.pseudo_frobenius()) == inv["pf"]
        assert s.type_number() == inv["type"]
    # the stored Apery set from the construction agrees with a fresh scan
    fresh = Semigroup(s.min_generators, s.conductor, s.gap_mask,
                      s.mirror)
    assert fresh.apery_set() == s.apery_set()


@settings(max_examples=80, deadline=None)
@given(construction_inputs())
def test_conductor_cap_is_exact(gens):
    # the early rejection only fires on a conductor that reaches the cap
    s = from_generators(gens)
    assume(not s.is_trivial)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NUMSGP_MAX_CONDUCTOR", str(s.conductor + 1))
        assert from_generators(gens) == s
        mp.setenv("NUMSGP_MAX_CONDUCTOR", str(s.conductor))
        with pytest.raises(ConductorCapExceeded):
            from_generators(gens)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.integers(1, 200))
def test_sylvester_two_generators(a, k):
    b = a + k
    while gcd(a, b) != 1:
        b += 1
    s = from_generators([a, b])
    f = a * b - a - b
    assert s.min_generators == (a, b)
    assert s.frobenius == f
    assert s.genus == (a - 1) * (b - 1) // 2
    assert s.is_symmetric()
    assert s.pseudo_frobenius() == (f,)
    assert len(s.gaps()) == s.genus
    assert len(s.sporadic_elements()) == f - s.genus
    entries = [0] * a
    for k in range(a):
        entries[k * b % a] = k * b
    assert s.apery_set() == tuple(entries)


def _reverse_reference(v, n):
    out = 0
    for i in range(n):
        if (v >> i) & 1:
            out |= 1 << (n - 1 - i)
    return out


@st.composite
def reverse_inputs(draw):
    n = draw(st.integers(1, 400))
    return draw(st.integers(0, 2**n - 1)), n


@settings(max_examples=300, deadline=None)
@given(reverse_inputs())
def test_reverse_matches_per_bit_reference(vn):
    v, n = vn
    r = _reverse(v, n)
    assert r == _reverse_reference(v, n)
    assert _reverse(r, n) == v


def test_reverse_edges():
    assert _reverse(0, 1) == 0
    assert _reverse(1, 1) == 1
    assert _reverse(0, 7) == 0
    # leading zeros of the result, then of the input
    assert _reverse(1, 5) == 0b10000
    assert _reverse(0b10000, 5) == 1
    assert _reverse(0b0011, 6) == 0b110000
    assert _reverse(0b0110, 4) == 0b0110
    assert _reverse(_reverse(0b101100, 9), 9) == 0b101100
