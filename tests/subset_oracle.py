"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: plain Python sets, no bitmasks, no
shared code with the package under test.  Slow but obviously correct, which
is the point.  Frozen expected values in the tests were produced by these
functions and then written down.
"""

from itertools import combinations
from math import gcd


def closure(gens, bound):
    """All elements of <gens> that are <= bound, as a sorted list.

    Breadth-first additive closure over a bounded range.
    """
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = s + g
                if t <= bound and t not in members:
                    members.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(members)


def closure_set(gens, bound):
    return set(closure(gens, bound))


def safe_bound(gens):
    """A range bound that provably passes the Frobenius number.

    Any two coprime generators a, b give F <= (a-1)(b-1) - 1; for generator
    sets with no coprime pair, fall back to the product of all generators,
    which exceeds the conductor of any subgroup-free bounded pattern we test.
    """
    best = None
    for a, b in combinations(sorted(set(gens)), 2):
        if gcd(a, b) == 1:
            v = (a - 1) * (b - 1)
            best = v if best is None else min(best, v)
    if best is None:
        prod = 1
        for g in gens:
            prod *= g
        best = prod
    return best + 2 * max(gens) + 2


def frobenius(gens):
    """Largest integer not in <gens>."""
    return invariants(gens)["frobenius"]


def invariants(gens):
    """dict of the standard invariants of <gens>, all computed naively."""
    bound = safe_bound(gens)
    mem = closure_set(gens, bound)
    gaps = [n for n in range(1, bound + 1) if n not in mem]
    f = max(gaps) if gaps else -1
    genus = len(gaps)
    mult = min(m for m in mem if m > 0) if any(m > 0 for m in mem) else 1
    # minimal generators: members that are not a sum of two positive members
    positives = sorted(m for m in mem if 0 < m <= f + mult)
    psums = {a + b for a in positives for b in positives}
    mingens = [m for m in positives if m not in psums]
    if not mingens:
        mingens = [1]
    # Apery set w.r.t. the multiplicity: least member in each residue class
    apery = []
    for r in range(mult):
        n = r
        while n not in mem:
            n += mult
        apery.append(n)
    # pseudo-Frobenius numbers: gaps p with p + s in S for all positive s in S
    pf = [p for p in gaps
          if all(p + s in mem or p + s > f for s in positives)]
    sporadic = sorted(m for m in mem if 0 < m < f)
    return {
        "members": mem,
        "bound": bound,
        "gaps": gaps,
        "frobenius": f,
        "genus": genus,
        "multiplicity": mult,
        "min_generators": mingens,
        "apery": apery,
        "pf": pf,
        "type": len(pf),
        "sporadic": sporadic,
        "symmetric": f + 1 == 2 * genus,
    }


def reflected_gaps(gens, n):
    """Gaps L in [1, n-1] with n - L also a gap."""
    inv = invariants(gens)
    gset = set(inv["gaps"])
    return sorted(l for l in range(1, n) if l in gset and (n - l) in gset)


def is_distinguished(d, gens):
    """True iff every gap a has a member u (0 allowed) with a + u in D.

    D must be a set of gaps; anything else raises ValueError.
    """
    inv = invariants(gens)
    gset = set(inv["gaps"])
    mem = inv["members"]
    d = set(d)
    if not d <= gset:
        raise ValueError("not gaps: %s" % sorted(d - gset))
    return all(any(x - a in mem for x in d if x >= a) for a in gset)


def canonical_offsets(gens):
    """Minimal offsets of the ideal K = {z : F - z not in S}.

    o in K is minimal when no positive s in S has o - s in K.
    """
    inv = invariants(gens)
    f = inv["frobenius"]
    mem = inv["members"]
    gset = set(inv["gaps"])

    def in_k(z):
        if z < 0:
            return False
        if z > f:
            return True
        return (f - z) in gset

    positives = [m for m in mem if m > 0]
    offs = []
    for o in range(0, 2 * f + 2):
        if in_k(o) and not any(in_k(o - s) for s in positives if s <= o):
            offs.append(o)
    return offs


def gap_sets_of_genus(genus):
    """Every numerical-semigroup gap set with the given genus.

    Subset oracle: enumerate genus-sized subsets of [1, 2g-1] (every gap is
    < 2g) and keep those whose complement is additively closed.  Exponential,
    usable up to genus 8 or so.
    """
    if genus == 0:
        return [frozenset()]
    out = []
    universe = range(1, 2 * genus)
    for cand in combinations(universe, genus):
        gset = frozenset(cand)
        top = max(gset)
        mem = [n for n in range(0, 2 * top + 2) if n not in gset]
        ok = True
        for a in mem:
            if a > top:
                break
            for b in mem:
                if b > top:
                    break
                t = a + b
                if t <= top and t in gset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(gset)
    return out


def count_by_genus(max_genus):
    return [len(gap_sets_of_genus(g)) for g in range(max_genus + 1)]


def semigroup_from_gaps(gset):
    """Minimal generators of the semigroup with the given gap set."""
    if not gset:
        return [1]
    top = max(gset)
    bound = top + max(gset) + 2
    mem = {n for n in range(0, 2 * bound) if n not in gset}
    mult = min(m for m in mem if m > 0)
    positives = sorted(m for m in mem if 0 < m <= top + mult)
    psums = {a + b for a in positives for b in positives}
    return [m for m in positives if m not in psums]


if __name__ == "__main__":
    import json
    import sys

    gens = [int(x) for x in sys.argv[1:]]
    inv = invariants(gens)
    inv.pop("members")
    print(json.dumps(inv, default=sorted, indent=1))
