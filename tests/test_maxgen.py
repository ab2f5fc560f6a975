"""Max-generated constructions and inequalities on frozen fixtures.

Expected values come from tests/subset_oracle.py runs; the heavier
exhaustive confirmations live in test_campaign.py and test_acceptance.py.
"""

from fractions import Fraction

import pytest

import subset_oracle as oracle
from numsgp import core, maxgen, tree
from numsgp.core import _bit_positions, _pf_mask, from_generators
from numsgp.errors import (
    BadParameters,
    ConductorCapExceeded,
    EmbeddingDimTooSmall,
    GapTooSmall,
    IsTrivial,
    NotMaxGenerated,
    NotSymmetric,
)


def S(*gens):
    return from_generators(list(gens))


def reflected_gaps(n, s):
    """RG(n, S) as a tuple, from the mask the campaign checks read."""
    return tuple(_bit_positions(maxgen._rg_mask(s, n)))


def test_is_max_generated():
    assert maxgen.is_max_generated(S(3, 5, 7))
    assert maxgen.is_max_generated(S(4, 6, 7, 9))
    assert maxgen.is_max_generated(S(2, 3))
    assert not maxgen.is_max_generated(S(7, 11, 16, 17, 19))
    assert not maxgen.is_max_generated(S(3, 4))
    with pytest.raises(IsTrivial):
        maxgen.is_max_generated(S(1))


def test_reflection_map():
    assert maxgen.reflection_map(S(2, 3)) == ((2, 1),)
    assert maxgen.reflection_map(S(3, 5, 7)) == ((3, 4), (5, 2), (6, 1))
    pairs = maxgen.reflection_map(S(4, 6, 7, 9))
    assert sorted(b for _, b in pairs) == [1, 2, 3, 5]
    assert sorted(b for _, b in pairs) == list(S(4, 6, 7, 9).gaps())
    with pytest.raises(NotMaxGenerated):
        maxgen.reflection_map(S(3, 4))


def test_to_symmetric():
    sp = maxgen.to_symmetric(S(3, 5, 7))
    assert sp.min_generators == (3, 5)
    assert sp.is_symmetric()
    assert sp.frobenius == 7
    assert sp.genus == 4
    assert maxgen.to_symmetric(S(2, 3)).min_generators == (2, 5)
    assert maxgen.to_symmetric(S(4, 6, 7, 9)).min_generators == (4, 6, 7)
    with pytest.raises(NotMaxGenerated):
        maxgen.to_symmetric(S(7, 11, 16, 17, 19))


def test_from_symmetric():
    assert maxgen.from_symmetric(S(3, 5)).min_generators == (3, 5, 7)
    assert maxgen.from_symmetric(S(2, 5)).min_generators == (2, 3)
    assert maxgen.from_symmetric(S(4, 6, 7)).min_generators == (4, 6, 7, 9)
    # the genus-1 symmetric semigroup maps down to the trivial one
    assert maxgen.from_symmetric(S(2, 3)).is_trivial
    with pytest.raises(NotSymmetric):
        maxgen.from_symmetric(S(3, 5, 7))


def test_round_trips():
    for gens in ([3, 5, 7], [2, 3], [4, 6, 7, 9], [5, 7, 9, 11, 13]):
        s = S(*gens)
        assert maxgen.from_symmetric(maxgen.to_symmetric(s)) == s
    for gens in ([3, 5], [2, 5], [4, 6, 7], [2, 7]):
        sp = S(*gens)
        assert maxgen.to_symmetric(maxgen.from_symmetric(sp)) == sp


def test_frobenius_formula():
    assert maxgen.frobenius_formula_check(S(3, 5, 7))
    assert maxgen.frobenius_formula_check(S(2, 3))
    assert maxgen.frobenius_formula_check(S(4, 6, 7, 9))
    with pytest.raises(NotMaxGenerated):
        maxgen.frobenius_formula_check(S(3, 4))


def test_reflected_gaps():
    s = S(7, 11, 16, 17, 19)
    assert reflected_gaps(s.frobenius, s) == (5, 8, 10, 12, 15)
    assert reflected_gaps(27, s) == (12, 15)
    assert reflected_gaps(4, S(3, 5, 7)) == (2,)
    assert reflected_gaps(1, S(3, 5, 7)) == ()
    assert reflected_gaps(1, S(1)) == ()
    # agree with the naive oracle on a spread of (n, S)
    for gens in ([3, 5, 7], [4, 9, 11], [7, 11, 16, 17, 19]):
        for n in range(1, 30):
            assert list(reflected_gaps(n, S(*gens))) == \
                oracle.reflected_gaps(gens, n)


def test_reflected_gap_report():
    r = maxgen.reflected_gap_report(S(3, 5, 7))
    assert (r["cond_i"], r["cond_ii"], r["cond_iii"]) == (True, True, True)
    assert r["rg_f"] == (2,)
    assert r["rg_f_plus_m"] == ()
    assert r["apery_minus"] == (5,)

    r = maxgen.reflected_gap_report(S(7, 11, 16, 17, 19))
    assert (r["cond_i"], r["cond_ii"], r["cond_iii"]) == (False, False, False)
    # the count half of cond_iii alone is satisfied: |RG(f)| = 5 = m - 2
    assert len(r["rg_f"]) == 5 == 7 - 2
    assert S(7, 11, 16, 17, 19).min_generators[-1] != 20 + 7

    # family <m, f+1..f+m> with f = m+2: a_e = f+m yet not max-generated
    s = maxgen.notiz_family(5, 7)
    r = maxgen.reflected_gap_report(s)
    assert s.min_generators[-1] == s.frobenius + s.multiplicity
    assert not r["cond_i"] and not r["cond_ii"] and not r["cond_iii"]

    with pytest.raises(IsTrivial):
        maxgen.reflected_gap_report(S(1))


def test_canonical_ideal():
    s = S(3, 5, 7)
    f = s.frobenius
    assert maxgen.canonical_ideal(s) == (0, 2)
    assert [z for z in range(6) if f - z not in s] == [0, 2, 3, 5]
    assert f - 6 not in s and f - 100 not in s and f + 1 in s
    # symmetric: K = S, single offset 0
    for gens in ([3, 4], [2, 7], [3, 5]):
        sym = S(*gens)
        assert maxgen.canonical_ideal(sym) == (0,)
        assert all((sym.frobenius - z not in sym) == (z in sym)
                   for z in range(sym.conductor + 3))
    assert maxgen.canonical_ideal(S(4, 6, 7, 9)) == (0, 2, 3)
    assert maxgen.canonical_ideal(S(7, 11, 16, 17, 19)) == (0, 5, 8, 10)
    with pytest.raises(IsTrivial):
        maxgen.canonical_ideal(S(1))


def test_canonical_ideal_invariants():
    for gens in ([3, 5, 7], [4, 6, 7, 9], [7, 11, 16, 17, 19], [4, 9, 11]):
        s = S(*gens)
        offsets = maxgen.canonical_ideal(s)
        assert list(offsets) == oracle.canonical_offsets(gens)
        f = s.frobenius
        assert f - 0 not in s
        assert s.mirror < 1 << (f + 1)
        # base is contained in the ideal, and the ideal in turn is the
        # union of offset + base
        for z in range(f + 2):
            if z in s:
                assert f - z not in s
            in_union = any(z - o in s for o in offsets)
            assert (f - z not in s) == in_union
        # minimality: no offset is another offset plus a positive member
        for o in offsets:
            for o2 in offsets:
                d = o - o2
                assert d <= 0 or d not in s


def test_canonical_offsets_match_pf_reflection():
    for gens in ([3, 5, 7], [4, 6, 7, 9], [3, 4], [7, 11, 16, 17, 19],
                 [4, 9, 11], [5, 8, 9], [6, 10, 15]):
        s = S(*gens)
        f = s.frobenius
        assert list(maxgen.canonical_ideal(s)) == \
            sorted(f - p for p in s.pseudo_frobenius())


def test_shift_display_discrepancy():
    # For S = <3,5,7> the shift {u - a_1 : u in S} minus {-a_1} contains
    # 4 = a_e - a_1, which is not in K; dropping a_e before shifting gives
    # exactly K.  This pins the one-sided mismatch down to element 4.
    s = S(3, 5, 7)
    f = s.frobenius
    bound = 12
    full_shift = {u - 3 for u in range(25) if u in s} - {-3}
    dropped_shift = {u - 3 for u in range(25) if u in s and u != 7} - {-3}
    assert 4 in full_shift
    assert f - 4 in s
    assert {z for z in range(bound) if f - z not in s} == \
        {z for z in dropped_shift if 0 <= z < bound}
    assert full_shift - dropped_shift == {4}


def test_pf_formula():
    assert maxgen.pf_formula_check(S(3, 5, 7))
    assert maxgen.pf_formula_check(S(2, 3))
    assert maxgen.pf_formula_check(S(4, 6, 7, 9))
    assert S(3, 5, 7).pseudo_frobenius() == (2, 4)
    with pytest.raises(NotMaxGenerated):
        maxgen.pf_formula_check(S(3, 4))


def test_type_is_e_minus_one_when_max_generated():
    for gens in ([3, 5, 7], [2, 3], [4, 6, 7, 9], [5, 7, 9, 11, 13]):
        s = S(*gens)
        assert s.type_number() == s.embedding_dimension - 1


def test_wilf_report():
    r = maxgen.wilf_report(S(3, 5, 7))
    assert (r["e"], r["g"], r["f"], r["m"]) == (3, 3, 4, 3)
    assert r["lhs"] == Fraction(3, 5)
    assert r["rhs"] == Fraction(2, 3)
    assert r["margin"] == Fraction(1, 15)
    assert r["holds"] and r["count_form_holds"]

    r = maxgen.wilf_report(S(3, 4, 5))
    assert r["margin"] == 0 and r["holds"]

    r = maxgen.wilf_report(S(2, 3))
    assert r["lhs"] == Fraction(1, 2) == r["rhs"]
    assert r["margin"] == 0

    with pytest.raises(IsTrivial):
        maxgen.wilf_report(S(1))


def test_wilf_report_forms_agree():
    for gens in ([3, 5, 7], [3, 4], [7, 11, 16, 17, 19], [4, 9, 11],
                 [2, 101], [6, 10, 15]):
        r = maxgen.wilf_report(S(*gens))
        assert r["holds"] == r["count_form_holds"]
        assert r["holds"] == (r["margin"] >= 0)


def test_inequality_chain_reads_the_partner_scalars():
    # the symmetric form reads g', m' and e' of S - {a_e} off the child
    # step's generator rule; on every max-generated node with e > 2 of
    # genus <= 16 it equals the bound on the built partner
    checked = 0
    for s in tree.walk(16):
        if (s.is_trivial or s.embedding_dimension <= 2
                or not maxgen.is_max_generated(s)):
            continue
        sp = maxgen.to_symmetric(s)
        assert maxgen.maxgen_inequality_chain(s)["symmetric_form_holds"] \
            == maxgen.genus_lower_bound_check(sp), s
        checked += 1
    assert checked == 485


def test_inequality_chain():
    r = maxgen.maxgen_inequality_chain(S(3, 5, 7))
    assert (r["mult_form_holds"] and r["symmetric_form_holds"]
            and r["wilf_holds"])
    assert maxgen.maxgen_inequality_chain(S(4, 6, 7, 9))["mult_form_holds"]
    # family <m, m+2, ..., 2m+1> at m = 5
    fam = maxgen.notiz_family(5, 6)
    assert (5 - 2) * (fam.embedding_dimension - 1) <= \
        (fam.embedding_dimension - 2) * fam.genus
    assert maxgen.maxgen_inequality_chain(fam)["wilf_holds"]
    with pytest.raises(EmbeddingDimTooSmall):
        maxgen.maxgen_inequality_chain(S(2, 3))
    with pytest.raises(NotMaxGenerated):
        maxgen.maxgen_inequality_chain(S(3, 4))


def test_genus_lower_bound():
    assert maxgen.genus_lower_bound_check(S(3, 5))
    # interval <4,5,6,7>: g = 3 < 1 + 2*4/3
    assert not maxgen.genus_lower_bound_check(S(4, 5, 6, 7))
    assert maxgen.genus_lower_bound_check(S(2, 3))
    with pytest.raises(IsTrivial):
        maxgen.genus_lower_bound_check(S(1))


def test_genus_lower_bound_interval_family():
    # <m, ..., 2m-1> fails the bound exactly when m >= 3
    for m in range(2, 12):
        t = from_generators(list(range(m, 2 * m)))
        assert t.frobenius == m - 1
        assert maxgen.genus_lower_bound_check(t) == (m < 3)


def test_is_distinguished():
    gens = [3, 5, 7]
    s = S(*gens)
    assert oracle.is_distinguished(s.pseudo_frobenius(), gens)
    assert oracle.is_distinguished({1, 2}, [3, 4, 5])
    assert not oracle.is_distinguished({4}, gens)
    assert oracle.is_distinguished(s.gaps(), gens)
    with pytest.raises(ValueError):
        oracle.is_distinguished({3}, gens)
    with pytest.raises(ValueError):
        oracle.is_distinguished({1, 9}, gens)


def test_distinguished_contains_pf_and_bounds_wilf():
    # any distinguished D contains PF(S) and gives g/(F+1) <= d/(d+1)
    for gens in ([3, 5, 7], [4, 6, 7, 9], [4, 9, 11], [7, 11, 16, 17, 19]):
        s = S(*gens)
        pf = set(s.pseudo_frobenius())
        for d in (pf, set(s.gaps())):
            assert oracle.is_distinguished(d, gens)
            assert pf <= d
            assert Fraction(s.genus, s.frobenius + 1) <= \
                Fraction(len(d), len(d) + 1)


def test_close_largest_gap():
    assert maxgen.close_largest_gap(S(3, 5, 7)).min_generators == (3, 4, 5)
    assert maxgen.close_largest_gap(S(4, 5, 6, 7)).min_generators == (3, 4, 5)
    t = maxgen.close_largest_gap(S(4, 6, 7, 9))
    assert t.min_generators == (4, 5, 6, 7)
    assert t.embedding_dimension == 4
    assert maxgen.close_largest_gap(S(2, 3)).is_trivial
    with pytest.raises(NotMaxGenerated):
        maxgen.close_largest_gap(S(3, 4))


def test_close_largest_gap_drops_genus():
    for gens in ([3, 5, 7], [4, 6, 7, 9], [2, 3], [4, 5, 6, 7],
                 [5, 7, 9, 11, 13]):
        s = S(*gens)
        t = maxgen.close_largest_gap(s)
        assert t.genus == s.genus - 1
        assert t.frobenius < s.min_generators[-1] - s.min_generators[0]


def test_distinguished_set_for_closed():
    s = S(3, 5, 7)
    d = maxgen.distinguished_set_for_closed(s)
    t = maxgen.close_largest_gap(s)
    assert d == (1, 2)
    assert d == t.pseudo_frobenius()
    assert oracle.is_distinguished(d, t.min_generators)

    d = maxgen.distinguished_set_for_closed(S(4, 6, 7, 9))
    assert d == (1, 2, 3)
    assert d == maxgen.close_largest_gap(S(4, 6, 7, 9)).pseudo_frobenius()

    with pytest.raises(GapTooSmall):
        maxgen.distinguished_set_for_closed(S(2, 3))
    with pytest.raises(NotMaxGenerated):
        maxgen.distinguished_set_for_closed(S(3, 4))


def test_notiz_family():
    s = maxgen.notiz_family(4, 5)
    assert s.min_generators == (4, 6, 7, 9)
    assert maxgen.is_max_generated(s)

    # frozen from the oracle: genus 6, so 2g+1 = 13 != 11 = a_e
    s = maxgen.notiz_family(4, 7)
    assert s.min_generators == (4, 9, 10, 11)
    assert s.frobenius == 7
    assert s.genus == 6
    assert s.min_generators[-1] == 11 == 7 + 4
    assert not maxgen.is_max_generated(s)

    with pytest.raises(BadParameters):
        maxgen.notiz_family(3, 6)
    with pytest.raises(BadParameters):
        maxgen.notiz_family(2, 3)
    with pytest.raises(BadParameters):
        maxgen.notiz_family(5, 4)


def test_notiz_family_invariants_sweep():
    for m in range(3, 9):
        for f in range(m + 1, 4 * m):
            if f % m == 0:
                continue
            s = maxgen.notiz_family(m, f)
            assert s.frobenius == f
            assert s.multiplicity == m
            assert s.min_generators[-1] == f + m
            assert maxgen.is_max_generated(s) == (f == m + 1)


def test_notiz_family_closed_form_matches_from_generators(monkeypatch):
    # notiz_family builds its result from the closed form; from_generators
    # on the same generators is the reference it must match
    fields = ("min_generators", "conductor", "gap_mask", "genus",
              "frobenius", "multiplicity", "mirror")
    for m in range(3, 25):
        for f in range(m + 1, 120):
            if f % m == 0:
                continue
            s = maxgen.notiz_family(m, f)
            t = from_generators([m] + list(range(f + 1, f + m + 1)))
            for k in fields:
                assert getattr(s, k) == getattr(t, k), (m, f, k)
            assert s.apery_set() == t.apery_set(), (m, f)
            # the constructor derives the genus; this is its closed form
            assert s.genus == f - f // m, (m, f)
    # the conductor cap applies as it does in from_generators
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "50")
    assert maxgen.notiz_family(7, 48).conductor == 49
    with pytest.raises(ConductorCapExceeded):
        maxgen.notiz_family(8, 49)
    with pytest.raises(ConductorCapExceeded):
        from_generators([8] + list(range(50, 58)))


def _notiz_family_per_residue(m, f):
    # the per-residue construction the two-range one replaced: the least
    # member of class r > 0 is its generator in [c, c + m)
    c = f + 1
    apery = [0] + [c + (r - c) % m for r in range(1, m)]
    return core._from_apery(apery, (m,) + tuple(sorted(apery[1:])),
                            core.conductor_cap())


@pytest.mark.parametrize("m, f", [(3, 4), (4, 5), (5, 7), (7, 30),
                                  (100, 101), (1000, 2345)])
def test_notiz_family_matches_per_residue_construction(m, f):
    s = maxgen.notiz_family(m, f)
    t = _notiz_family_per_residue(m, f)
    for k in ("min_generators", "conductor", "gap_mask", "mirror"):
        assert getattr(s, k) == getattr(t, k), k
    assert s.apery_set() == t.apery_set()


def test_notiz_family_cap_checked_before_the_builder(monkeypatch):
    # an over-cap input is refused before the O(m) Apery table is built
    def unreachable(*args):
        raise AssertionError("core._from_apery called")

    monkeypatch.setattr(core, "_from_apery", unreachable)
    monkeypatch.setenv("NUMSGP_MAX_CONDUCTOR", "1000")
    with pytest.raises(ConductorCapExceeded):
        maxgen.notiz_family(10 ** 6, 10 ** 6 + 1)
    with pytest.raises(ConductorCapExceeded):
        maxgen.notiz_family(7, 999)
    with pytest.raises(AssertionError):
        maxgen.notiz_family(7, 998)


def test_interval_tails_are_max_generated():
    # <m, m+2, ..., 2m+1> has genus m and largest generator 2m+1
    for m in range(3, 11):
        s = maxgen.notiz_family(m, m + 1)
        assert s.genus == m
        assert s.min_generators[-1] == 2 * m + 1
        assert maxgen.is_max_generated(s)


# Per-gap reference loops: the implementations the whole-mask reflections
# replaced.  Each bit is tested or set on its own, so they share no logic
# with core._reverse.

def _rg_mask_loop(mask, conductor, n):
    out = 0
    limit = min(n, conductor)
    v = ~mask & ((1 << limit) - 1) & ~1
    while v:
        low = v & -v
        w = n - low.bit_length() + 1
        if not (w >= conductor or (mask >> w) & 1):
            out |= low
        v ^= low
    return out


def _canonical_masks_loop(s):
    c = s.conductor
    mask = ((1 << c) - 1) ^ s.gap_mask
    f = s.frobenius
    k = 0
    v = ~mask & ((1 << c) - 1) & ~1
    while v:
        low = v & -v
        k |= 1 << (f - low.bit_length() + 1)
        v ^= low
    nonmin = 0
    v = mask & ~1
    while v:
        low = v & -v
        nonmin |= k << (low.bit_length() - 1)
        v ^= low
    return k, k & ~nonmin


def _reflection_map_loop(s):
    top = 2 * s.genus + 1
    return tuple((n, top - n) for n in range(1, top) if n in s)


def _pf_loop(s):
    return tuple(p for p in s.gaps()
                 if all(p + a in s for a in s.min_generators))


def _bits(v):
    return [i for i in range(v.bit_length()) if (v >> i) & 1]


def _canonical_offsets(s):
    return maxgen._canonical_offsets(s.min_generators, s.mirror)


def test_reflection_masks_match_subset_oracle():
    for s in tree.walk(6):
        if s.is_trivial:
            continue
        gens = list(s.min_generators)
        f, m = s.frobenius, s.multiplicity
        for n in range(1, f + m + 3):
            assert _bits(maxgen._rg_mask(s, n)) \
                == oracle.reflected_gaps(gens, n), (gens, n)
        offs = _canonical_offsets(s)
        assert _bits(offs) == oracle.canonical_offsets(gens), gens


def test_reflection_masks_match_per_gap_loops():
    nodes = 0
    for s in tree.walk(14):
        if s.is_trivial:
            continue
        nodes += 1
        c = s.conductor
        mask = ((1 << c) - 1) ^ s.gap_mask
        for n in range(1, s.frobenius + s.multiplicity + 2):
            assert maxgen._rg_mask(s, n) == _rg_mask_loop(mask, c, n)
        assert (s.mirror, _canonical_offsets(s)) == \
            _canonical_masks_loop(s)
        pf = _pf_mask(s)
        assert tuple(_bits(pf)) == s.pseudo_frobenius() == _pf_loop(s)
        if maxgen.is_max_generated(s):
            assert maxgen.reflection_map(s) == _reflection_map_loop(s)
    assert nodes == 4106


def test_reflection_masks_large_input():
    # <701, 1100, 1350> has F = 61,599; <151, 200> with its Frobenius
    # number adjoined is max-generated with F = 29,698
    for s in (S(701, 1100, 1350),
              maxgen.from_symmetric(S(151, 200))):
        c, f = s.conductor, s.frobenius
        mask = ((1 << c) - 1) ^ s.gap_mask
        for n in (f, f + s.multiplicity):
            assert maxgen._rg_mask(s, n) == _rg_mask_loop(mask, c, n)
        k, offs = _canonical_masks_loop(s)
        assert _canonical_offsets(s) == offs
        assert s.mirror == k
        assert maxgen.canonical_ideal(s) == tuple(_bits(offs))
    s = maxgen.from_symmetric(S(151, 200))
    assert maxgen.reflection_map(s) == _reflection_map_loop(s)
