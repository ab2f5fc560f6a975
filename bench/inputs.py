"""Seeded inputs for the benchmark workloads, with their expected outputs.

Inputs are drawn from random.Random(seed) and never from numsgp; the
expectations come from bench/checks.py.  Every `check` query is issued
only on a semigroup that meets the property's precondition, so each one
exits 0 with holds = true.
"""

from __future__ import annotations

import random
from functools import partial
from math import gcd

from checks import (apery_round_robin, expected_check, in_semigroup,
                    info_from_apery, info_from_oracle, info_sylvester)

#: Property names, in the order numsgp's campaign registry lists them.
PROPERTIES = (
    "wilf", "wilf_equality", "apery_reflected_gaps", "frobenius_formula",
    "pf_formula", "type", "canonical_gens", "reflection_bijection",
    "correspondence", "closed_gap_wilf", "sym_generators", "genus_bound",
    "inequality_chain",
)

#: Properties whose precondition is a_e = 2g + 1 (inequality_chain also
#: needs e > 2, which every max-generated input drawn here has).
MAXGEN_ONLY = {"frobenius_formula", "pf_formula", "type",
               "reflection_bijection", "closed_gap_wilf", "inequality_chain"}

#: Frobenius-number window and multiplicity range of the large inputs: the
#: window fixes how much work one large query is, whatever the seed.
LARGE_A1 = (600, 800)
LARGE_F = (45000, 47000)


#: Largest search bound allowed for tests/subset_oracle.py.  Its bound is
#: (a - 1)(b - 1) for the best coprime pair a, b of generators, and the
#: product of all generators when no pair is coprime, which can exhaust
#: memory; inputs over this limit are redrawn.
ORACLE_BOUND = 20000


def oracle_bound_ok(gens: list) -> bool:
    return any(gcd(a, b) == 1 and (a - 1) * (b - 1) <= ORACLE_BOUND
               for i, a in enumerate(gens) for b in gens[i + 1:])


def _coprime_gens(rng: random.Random, a1: int, e: int, hi: int) -> list:
    """e distinct generators from a1 and (a1, hi], two of them coprime."""
    while True:
        gens = sorted({a1} | {rng.randint(a1 + 1, hi) for _ in range(e - 1)})
        if len(gens) == e and oracle_bound_ok(gens):
            return gens


def small_gens(rng: random.Random) -> list:
    """a_1 in [3, 40], e in [3, 6], the rest in (a_1, 3 a_1]."""
    a1 = rng.randint(3, 40)
    return _coprime_gens(rng, a1, rng.randint(3, 6), 3 * a1)


def pair_gens(rng: random.Random) -> list:
    """<a, b> with a in [2, 40] and b coprime in (a, 3a)."""
    a = rng.randint(2, 40)
    return _coprime_gens(rng, a, 2, 3 * a - 1)


def pair_gens_small(rng: random.Random, lo: int = 3, hi: int = 12) -> list:
    a = rng.randint(lo, hi)
    return _coprime_gens(rng, a, 2, 2 * a + 3)


def symmetric_gens(rng: random.Random) -> list:
    """A symmetric semigroup: <a, b>, or the gluing <c a, c b, d> of <a, b>
    with N, d in <a, b> not a generator and gcd(c, d) = 1."""
    if rng.random() < 0.5:
        return pair_gens_small(rng)
    a, b = pair_gens_small(rng, lo=2, hi=6)
    c = rng.randint(2, 3)
    while True:
        d = rng.randint(0, 3) * a + rng.randint(0, 3) * b
        gens = sorted([c * a, c * b, d])
        if d not in (0, a, b) and gcd(c, d) == 1 and oracle_bound_ok(gens):
            return gens


def large_gens(rng: random.Random) -> list:
    """Three generators, a_1 in LARGE_A1, conductor in the LARGE_F window."""
    while True:
        a = rng.randint(*LARGE_A1)
        b = rng.randint(a + 1, 2 * a - 1)
        c = rng.randint(b + 1, 2 * a)
        if gcd(gcd(a, b), c) != 1 or in_semigroup(c, [a, b]):
            continue
        f = max(apery_round_robin([a, b, c])) - a
        if LARGE_F[0] <= f <= LARGE_F[1]:
            return [a, b, c]


class Inputs:
    """Draws queries with their expected results from one seeded stream."""

    def __init__(self, seed: int, oracle):
        self.rng = random.Random(seed)
        self.oracle = oracle

    def _info(self, gens: list) -> dict:
        if not oracle_bound_ok(gens):
            raise ValueError("oracle bound too large for %s" % gens)
        return info_from_oracle(self.oracle.invariants(gens))

    def symmetric(self) -> tuple:
        while True:
            gens = symmetric_gens(self.rng)
            info = self._info(gens)
            if info["is_symmetric"]:
                return gens, info

    def maxgen(self) -> tuple:
        """S' union {F(S')} for a symmetric S': a_e = 2g + 1 and e >= 3."""
        while True:
            _, sym = self.symmetric()
            gens = sym["min_generators"] + [sym["frobenius"]]
            if not oracle_bound_ok(gens):
                continue
            info = self._info(gens)
            if info["is_max_generated"] and info["embedding_dimension"] > 2:
                return gens, info

    def check_query(self, prop: str) -> tuple:
        """(argv, expected result fields) of one `check <prop>` query."""
        if prop in MAXGEN_ONLY or (prop == "correspondence"
                                   and self.rng.random() < 0.5):
            gens, info = self.maxgen()
        elif prop in ("sym_generators", "correspondence"):
            gens, info = self.symmetric()
        else:
            gens = small_gens(self.rng)
            info = self._info(gens)
        argv = ["check", prop, ",".join(map(str, gens))]
        return argv, expected_check(prop, info, self.oracle)

    def info_query(self, kind: str) -> tuple:
        """(argv, expected result) of one `info` query: small, pair, large.

        A large query's expectation is a function that computes it when it
        is needed: its gap and sporadic lists hold about 46,000 numbers
        each, and a dozen of them held for the whole run would enlarge the
        process that the jobs-2 campaign workers fork from.
        """
        if kind == "small":
            gens = small_gens(self.rng)
            expected = self._info(gens)
        elif kind == "pair":
            gens = pair_gens(self.rng)
            expected = info_sylvester(*gens)
        else:
            gens = large_gens(self.rng)
            expected = partial(info_from_apery, gens)
        return ["info", ",".join(map(str, gens))], expected

    def wilf_of(self, info_argv: list) -> tuple:
        """`check wilf` on the input of an `info` query."""
        gens = [int(x) for x in info_argv[1].split(",")]
        return (["check", "wilf", info_argv[1]],
                expected_check("wilf", info_from_apery(gens)))

    def shuffle(self, ops: list) -> None:
        self.rng.shuffle(ops)
