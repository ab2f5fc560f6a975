"""Expected outputs, computed apart from numsgp, and the checks against them.

Nothing here imports numsgp.  Campaign reports are checked against the
published genus counts (OEIS A007323) and against identities the paper
proves; single-semigroup records are checked against the brute-force
oracle in tests/subset_oracle.py, against Sylvester's formulas for two
generators, and against an Apery set computed here by the round-robin
shortest-path method (Boecker & Liptak, Algorithmica 2007).
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

#: Number of numerical semigroups of each genus, OEIS A007323.
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246)


class Mismatch(Exception):
    """An output disagrees with the independently computed expectation."""


def load_oracle(root: Path):
    """The repository's brute-force oracle module, tests/subset_oracle.py."""
    path = root / "tests" / "subset_oracle.py"
    spec = importlib.util.spec_from_file_location("subset_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- campaigns

def check_campaign(report: dict, max_genus: int, properties) -> None:
    """Check a campaign report (to_json_dict without wall_time)."""
    counts = report["counts_by_genus"]
    if counts != list(A007323[:max_genus + 1]):
        raise Mismatch("counts_by_genus differs from A007323: %s" % counts)
    mg = report["maxgen_counts_by_genus"]
    sym = report["symmetric_counts_by_genus"]
    if len(mg) != max_genus + 1 or len(sym) != max_genus + 1:
        raise Mismatch("per-genus tallies have the wrong length")
    for g in range(max_genus):
        if mg[g] != sym[g + 1]:
            raise Mismatch("maxgen count at genus %d is %d but the symmetric"
                           " count at genus %d is %d" % (g, mg[g], g + 1,
                                                         sym[g + 1]))
    if report["properties"] != list(properties):
        raise Mismatch("properties %s, asked for %s"
                       % (report["properties"], list(properties)))
    if report["passed"] is not True or report["property_failures"]:
        raise Mismatch("campaign did not pass: %s"
                       % report["property_failures"][:5])
    checked = report["checked"]
    if sorted(checked) != sorted(properties):
        raise Mismatch("checked covers %s" % sorted(checked))
    if "wilf" in checked and checked["wilf"] != sum(counts) - 1:
        raise Mismatch("wilf checked on %d of %d nontrivial semigroups"
                       % (checked["wilf"], sum(counts) - 1))


def check_same_report(first: dict, second: dict) -> None:
    """Reports of one campaign at two worker counts must be identical."""
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    if a != b:
        raise Mismatch("reports differ between worker counts")


# ---------------------------------------------------------------- records

def check_record(code: int, text: str, argv: list, expected: dict) -> None:
    """Check one `info` or `check` JSON record against expected fields."""
    if code != 0:
        raise Mismatch("%s exited %d" % (" ".join(argv), code))
    record = json.loads(text)
    command = argv[0] if argv[0] == "info" else "check:" + argv[1]
    if record.get("command") != command:
        raise Mismatch("command %r, expected %r"
                       % (record.get("command"), command))
    if record.get("input") != [int(x) for x in argv[-1].split(",")]:
        raise Mismatch("input %r does not echo %r"
                       % (record.get("input"), argv[-1]))
    result = record.get("result")
    if not isinstance(result, dict):
        raise Mismatch("result is not an object")
    for key, want in expected.items():
        if result.get(key) != want:
            raise Mismatch("%s: %s = %r, expected %r"
                           % (" ".join(argv), key, result.get(key), want))


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def info_from_oracle(inv: dict) -> dict:
    """Expected `info` result from subset_oracle.invariants."""
    gens = inv["min_generators"]
    g = inv["genus"]
    return {
        "min_generators": gens,
        "multiplicity": inv["multiplicity"],
        "embedding_dimension": len(gens),
        "genus": g,
        "frobenius": inv["frobenius"],
        "conductor": inv["frobenius"] + 1,
        "gaps": inv["gaps"],
        "sporadic": inv["sporadic"],
        "apery": inv["apery"],
        "pf": inv["pf"],
        "type": inv["type"],
        "is_symmetric": inv["symmetric"],
        "is_max_generated": gens[-1] == 2 * g + 1,
    }


def info_sylvester(a: int, b: int) -> dict:
    """Expected `info` result for <a, b>, a < b coprime, from Sylvester."""
    f = a * b - a - b
    apery = [0] * a
    for k in range(a):
        apery[k * b % a] = k * b
    return {
        "min_generators": [a, b],
        "multiplicity": a,
        "embedding_dimension": 2,
        "genus": (a - 1) * (b - 1) // 2,
        "frobenius": f,
        "conductor": f + 1,
        "apery": apery,
        "pf": [f],
        "type": 1,
        "is_symmetric": True,
        "is_max_generated": b == (a - 1) * (b - 1) + 1,
    }


def apery_round_robin(gens: list) -> list:
    """Apery set of <gens> w.r.t. gens[0], indexed by residue; O(e * a_1).

    Round-robin shortest paths on the residue graph: generator b adds the
    edge r -> r + b (mod a_1) of weight b; within each residue cycle of
    gcd(a_1, b) the walk starts at the current minimum and relaxes once
    around.
    """
    a1 = gens[0]
    inf = float("inf")
    w = [inf] * a1
    w[0] = 0
    for b in gens[1:]:
        d = gcd(a1, b)
        for p in range(d):
            q = min(range(p, a1, d), key=w.__getitem__)
            if w[q] == inf:
                continue
            for _ in range(a1 // d - 1):
                nxt = (q + b) % a1
                v = w[q] + b
                if v < w[nxt]:
                    w[nxt] = v
                q = nxt
    return w


def in_semigroup(x: int, gens: list) -> bool:
    """Whether x lies in the semigroup (or monoid) generated by gens."""
    t = sorted(gens)
    return x >= apery_round_robin(t)[x % t[0]]


def info_from_apery(gens: list) -> dict:
    """Expected `info` result for <gens>, gens ascending with gcd 1."""
    a1 = gens[0]
    ap = apery_round_robin(gens)
    f = max(ap) - a1
    g = sum(x // a1 for x in ap)
    mingens = [x for x in gens if x == a1
               or not in_semigroup(x, [y for y in gens if y != x])]
    members = set(ap)
    pf = sorted(x - a1 for x in ap
                if x and all(x + b not in members for b in mingens[1:]))
    return {
        "min_generators": mingens,
        "multiplicity": a1,
        "embedding_dimension": len(mingens),
        "genus": g,
        "frobenius": f,
        "conductor": f + 1,
        "gaps": sorted(r + k * a1 for r in range(a1)
                       for k in range(ap[r] // a1)),
        "sporadic": [n for n in range(1, f) if n >= ap[n % a1]],
        "apery": ap,
        "pf": pf,
        "type": len(pf),
        "is_symmetric": f + 1 == 2 * g,
        "is_max_generated": mingens[-1] == 2 * g + 1,
    }


def expected_check(prop: str, info: dict, oracle=None) -> dict:
    """Expected `check <prop>` result fields for a semigroup that meets the
    property's precondition, from its expected `info` result.  Every check
    must report holds = true.  The oracle builds the partner semigroups of
    correspondence and closed_gap_wilf.
    """
    gens = info["min_generators"]
    e = len(gens)
    g = info["genus"]
    f = info["frobenius"]
    m = info["multiplicity"]
    ae = gens[-1]
    out = {"holds": True}
    if prop == "wilf":
        out.update(e=e, g=g, f=f, m=m, lhs=_frac(Fraction(g, f + 1)),
                   rhs=_frac(Fraction(e - 1, e)))
    elif prop == "wilf_equality":
        out = {"applicable": m == 2 or f == m - 1}
    elif prop == "apery_reflected_gaps":
        gapset = set(info["gaps"])
        out = {"equivalent": True, "cond_i": ae == 2 * g + 1,
               "rg_f": [x for x in range(1, f)
                        if x in gapset and f - x in gapset],
               "apery_minus": sorted(x for x in info["apery"]
                                     if x not in (0, f + m))}
    elif prop == "frobenius_formula":
        out.update(frobenius=f, largest_generator=ae, multiplicity=m)
    elif prop == "pf_formula":
        out.update(pf=info["pf"])
    elif prop == "type":
        out.update(type=info["type"], embedding_dimension=e)
    elif prop == "canonical_gens":
        out.update(offsets=sorted(f - p for p in info["pf"]))
    elif prop == "reflection_bijection":
        out.update(gaps=info["gaps"], image=info["gaps"])
    elif prop == "correspondence":
        gapset = set(info["gaps"])
        if ae == 2 * g + 1:
            out.update(direction="to_symmetric",
                       partner=oracle.semigroup_from_gaps(gapset | {ae}))
        else:
            out.update(direction="from_symmetric",
                       partner=oracle.semigroup_from_gaps(gapset - {f}))
        out["round_trip"] = True
    elif prop == "closed_gap_wilf":
        gapset = set(info["gaps"]) - {ae - gens[0]}
        out.update(closed=oracle.semigroup_from_gaps(gapset), genus=g - 1)
    elif prop == "sym_generators":
        out.update(applicable=m >= 3, largest_generator=ae, frobenius=f)
    elif prop == "genus_bound":
        out.update(asserted=f > m)
    elif prop == "inequality_chain":
        out.update(mult_form_holds=True, symmetric_form_holds=True,
                   wilf_holds=True)
    else:
        raise ValueError("no expectation for property %r" % prop)
    return out
