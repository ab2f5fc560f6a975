"""Numerical semigroups: construction and the classical invariants.

A numerical semigroup S is a subset of the nonnegative integers containing 0,
closed under addition, with finite complement.  Invariants follow the usual
notation: gaps(S) is the complement, g = #gaps the genus, F the largest gap
(Frobenius number), c = F + 1 the conductor, a_1 < ... < a_e the minimal
generators, e the embedding dimension and m = a_1 the multiplicity.

A Semigroup stores four inputs: the minimal generators, c, the gap mask
(bit n set iff n is a gap; every gap is below c) and the mirror, the gap
mask mirrored over c bits (bit c - 1 - n set iff n is a gap), so the two
masks are the gap set in two coordinates.  The constructor derives
g = #gaps, F = c - 1 and m = a_1 from them; the trivial semigroup of all
nonnegative integers has c = 0, F = -1, g = 0.  The reflections the checks
test (RG(n, S), the canonical ideal K = {z : F - z not in S}, a child
generator's minimality) read the mirror shifted, instead of mirroring the
gap mask again.

A node of a walk from a root that carries it (_naturals(masks=True))
also stores one mask, which the child step hands down in a few big-int
operations: the mirrored PF mask, bit F - p set iff p is in PF(S).  These
are the offsets of the canonical ideal K = {z : F - z not in S}, in the
coordinate of the mirror, so canonical_gens compares the two with no
reversal.  _mirrored_pf_mask() reads the stored mask and otherwise
computes one from the gap mask; no query stores one, and every other mask
(the PF mask, the Apery mask) is computed from the gap mask per call.  For
the child T = S minus {a}, a > F, with conductor c' = a + 1 and gap mask
gaps_T, PF(T) = {a} union {p in PF(S) : a - p not in S}, the mirrored
mask ((pf_S << (c' - c)) & gaps_T) | 1 from the mirrored mask pf_S of S,
shifted as the mirror is.  Proof: a is a gap of T, and a + u > F(T) for
every positive u, so a is in PF(T); it lands on bit F(T) - a = 0.  Any
other gap p of T is a gap of S below a.  If p is in PF(T), then p is in
PF(S), as p + u is in T, a subset of S, for positive u in T, and
p + a > F(S); and a - p, positive and not a, is not in T, so not in S.
Conversely, if p is in PF(S) and a - p is not in S, then for positive u
in T, p + u is in S and is not a, so it is in T.  The shift moves bit
F(S) - p of pf_S to bit a - p = F(T) - p, and a - p, positive and below
a, is a gap of T iff it is a gap of S, which is bit a - p of gaps_T.  The
root's mask is 0; its child <2, 3> gets bit 0, PF = {1}.

from_generators() is Apery-first: it tests lower bounds on c against the
conductor cap, then computes the Apery set with respect to a_1 by
round-robin shortest paths in O(e * a_1) steps (Boecker & Liptak,
Algorithmica 2007).  _from_apery() reads c = max Ap - a_1 + 1 off the
table, checks the cap, and only then builds the gap mask by doubling
shifts, and the mirror; it keeps the table, as a mask rescan costs a
tenth of a large query.  The invariant scans (gaps, sporadic elements,
Apery set, pseudo-Frobenius numbers) work on whole masks and extract bit
positions in one linear pass, so a query costs O(e * a_1 + c).

The genus tree has two steps, each computed by its generator rule
(Rosales & Garcia-Sanchez, Numerical Semigroups, Springer 2009; Fromentin &
Hivert, Math. Comp. 2016):

- child, S minus a minimal generator a > F (_child): a = m only
  on S = {0} union [m, oo), whose child is <m + 1, ..., 2m + 1>; otherwise
  G minus {a}, plus a + m unless it is a sum of two positive members of
  the child; a + m is the largest, as G lies in Ap(S, m) union {m}, <= F + m;
- parent, S union {F} (_add_frobenius): the generators are {F} union G
  minus {F + m, 2F}.

_child() holds the child step once, on plain values: the generators, c,
the two gap masks and the carried PF mask in, the same five of the child
out.  _remove_generator() wraps it for a Semigroup, which is how tree.walk
takes the step, and a campaign walks its subtrees on the plain values and
builds a Semigroup only for a row that reads the node (numsgp.campaign).

Each step carries the mirror with one shift.  The child's new gap a = c' - 1
lands on bit 0 and every old gap moves up by c' - c.  The parent's gaps sit
c - c' too high, and as c' <= F the shift down drops bit 0, the gap F that
the parent lost.  Neither step, nor any check a campaign runs on a node,
mirrors a mask bit by bit: _reverse() builds the mirror of a
from_generators() result, and the PF side of `check canonical_gens` on a
semigroup that carries no mask.
"""

from __future__ import annotations

import os
import re
from itertools import compress
from math import gcd
from typing import Iterable

from .errors import (
    ConductorCapExceeded,
    EmptyInput,
    IsTrivial,
    NonCoprime,
)

DEFAULT_CONDUCTOR_CAP = 2**31

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits, a ValueError for
    anything else: int() alone also reads "3_0" and other scripts' digits.
    Every integer read from outside the library goes through it."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def conductor_cap() -> int:
    """Active conductor bound; NUMSGP_MAX_CONDUCTOR overrides the default.

    Raises ValueError, naming the variable, unless its value is a positive
    integer.
    """
    raw = os.environ.get("NUMSGP_MAX_CONDUCTOR", "").strip()
    if not raw:
        return DEFAULT_CONDUCTOR_CAP
    try:
        cap = _int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("NUMSGP_MAX_CONDUCTOR must be a positive integer, "
                         "got %r" % raw)
    return cap


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
#: Byte b maps to b with its eight bits mirrored.
_MIRRORED_BYTES = bytes(int("{:08b}".format(b)[::-1], 2) for b in range(256))


def _bit_positions(v: int) -> list[int]:
    """Positions of the set bits of v >= 0, ascending, in O(v.bit_length()).

    A v & -v loop copies v once per set bit, which is quadratic for a dense
    mask; it serves only the sparse ones.  Dense masks go through bin(v).
    """
    if v.bit_count() > 8:
        digits = bin(v)[:1:-1].encode().translate(_BINARY_DIGITS)
        return list(compress(range(len(digits)), digits))
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _reverse(v: int, n: int) -> int:
    """v with bits 0..n-1 mirrored (bit i to bit n-1-i), for 0 <= v < 2**n.

    One pass over the bytes of v: mirror the bits of each byte by table,
    read the bytes in the opposite order, and drop the padding bits that
    the byte boundary added at the bottom.  Each n-bit intermediate is
    dropped once read, so with v at most three are alive.
    """
    k = (n + 7) >> 3
    data = v.to_bytes(k, "little").translate(_MIRRORED_BYTES)
    v = int.from_bytes(data, "big")
    del data
    return v >> (8 * k - n)


def _apery_mask(gaps: int, m: int) -> int:
    """Bit n set iff n is in the Apery set with respect to m of the
    semigroup with gap mask gaps and multiplicity m.

    These are 0 and the members n with n - m a gap, all below c + m.  The
    gap mask shifted up by m sets bit n iff n - m is a gap, and each such
    n exceeds m, so it is a member iff it is not a gap.
    """
    ap = gaps << m
    return (ap ^ (ap & gaps)) | 1


def _mirrored_pf_mask(s: Semigroup) -> int:
    """Bit F - p set iff p is a pseudo-Frobenius number of the nontrivial
    S: the minimal offsets of the canonical ideal, as the PF set says they
    are.  A tree node that carries the mask returns it."""
    pf = s._mirrored_pf_bits
    if pf is not None:
        return pf
    return _reverse(_pf_mask(s), s.conductor)


def _pf_mask(s: Semigroup) -> int:
    """Bit p set iff p is a pseudo-Frobenius number of the nontrivial S.

    It suffices to test p + a in S over the minimal generators a, all at
    once: the gaps p with no gap p + a, the gap mask minus the gap mask
    shifted down by a, for each a.  It reads no carried mask.
    """
    gaps = s.gap_mask
    hit = 0
    for a in s.min_generators:
        hit |= gaps >> a
    return gaps ^ (gaps & hit)


class Semigroup:
    """Immutable numerical semigroup: a value that nothing writes to.

    Not constructed directly; use from_generators().  Equality and hashing go
    through the minimal generating set, which is unique.  Beside the four
    inputs (the minimal generators, c, and the gap set as the gap mask and
    its mirror) and the genus, frobenius and multiplicity derived from them
    (see the module docstring) it keeps _from_apery()'s Apery table (None
    after a tree step) and, on a node of a walk with masks, the mirrored PF
    mask (bit F - p for p in PF(S), not bit p) that the child step hands
    down (None elsewhere); these slots are written only when the value is
    built.  Every other invariant is computed per call.
    """

    __slots__ = (
        "min_generators",
        "conductor",
        "gap_mask",
        "genus",
        "frobenius",
        "multiplicity",
        "mirror",
        "_apery",
        "_mirrored_pf_bits",
    )

    def __init__(self, min_generators, conductor, gap_mask, mirror):
        self.min_generators = min_generators
        self.conductor = conductor
        self.gap_mask = gap_mask
        self.mirror = mirror
        self.genus = gap_mask.bit_count()
        self.frobenius = conductor - 1
        self.multiplicity = min_generators[0]
        self._apery = None
        self._mirrored_pf_bits = None

    def __repr__(self) -> str:
        return "Semigroup<%s>" % ", ".join(map(str, self.min_generators))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Semigroup):
            return NotImplemented
        return self.min_generators == other.min_generators

    def __hash__(self) -> int:
        return hash(self.min_generators)

    def __contains__(self, n: int) -> bool:
        if n >= self.conductor:
            return True
        if n < 0:
            return False
        return (self.gap_mask >> n) & 1 == 0

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_generators)

    @property
    def is_trivial(self) -> bool:
        """True for the semigroup of all nonnegative integers."""
        return self.conductor == 0

    def gaps(self) -> tuple[int, ...]:
        """The complement, ascending.  Empty for the trivial semigroup."""
        return tuple(_bit_positions(self.gap_mask))

    def sporadic_elements(self) -> tuple[int, ...]:
        """Elements of S strictly between 0 and F, ascending.

        [1, F] splits into gaps and sporadic elements, so there are F - g
        of them when F >= 0: [1, F - 1] minus the gaps below F.
        """
        if self.frobenius < 1:
            return ()
        return tuple(_bit_positions(
            ((1 << self.conductor) - 2) ^ self.gap_mask))

    def apery_set(self) -> tuple[int, ...]:
        """Apery set of S with respect to m, indexed by residue: entry r is
        the least element of S congruent to r mod m, so entry 0 is 0 and
        the largest entry is F + m."""
        if self._apery is not None:
            return self._apery
        m = self.multiplicity
        entries = [0] * m
        for n in _bit_positions(_apery_mask(self.gap_mask, m)):
            entries[n % m] = n
        return tuple(entries)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps p with p + s in S for every positive s in S, ascending."""
        if self.is_trivial:
            raise IsTrivial("pseudo-Frobenius numbers need a nonempty gap set")
        return tuple(_bit_positions(_pf_mask(self)))

    def type_number(self) -> int:
        """Number of pseudo-Frobenius numbers."""
        if self.is_trivial:
            raise IsTrivial("pseudo-Frobenius numbers need a nonempty gap set")
        return _pf_mask(self).bit_count()

    def is_symmetric(self) -> bool:
        """True iff F + 1 = 2g, i.e. n in S <=> F - n not in S."""
        if self.is_trivial:
            raise IsTrivial("symmetry is undefined without gaps")
        return self.frobenius + 1 == 2 * self.genus


def _naturals(masks: bool = False) -> Semigroup:
    """The semigroup of all nonnegative integers, the root of the genus
    tree; with masks, it carries its mirrored PF mask, which is empty, and
    so does every node of a walk from it."""
    s = Semigroup((1,), 0, 0, 0)
    if masks:
        s._mirrored_pf_bits = 0
    return s


def _apery_round_robin(gens: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """Apery set of <gens> with respect to gens[0], and the minimal generators.

    gens is ascending with gcd 1.  Round-robin shortest paths (Boecker &
    Liptak, Algorithmica 2007): entry r is the least element of the semigroup
    so far in class r mod a_1, and adding a generator b relaxes each cycle
    r -> r + b of the residues once, starting from the cycle's least entry.
    A generator is minimal iff it is not in the semigroup of the smaller
    ones, i.e. iff it lies below its class entry when its turn comes; the
    others change nothing and are skipped.
    """
    a1 = gens[0]
    # every entry is a sum of fewer than a1 generators, so below a1 * a_e
    inf = a1 * gens[-1]
    w = [inf] * a1
    w[0] = 0
    min_gens = [a1]
    for b in gens[1:]:
        r = b % a1
        if b >= w[r]:
            continue
        min_gens.append(b)
        d = gcd(a1, r)
        for p in range(d):
            if p:
                # the cycle through p is the class p mod d; start at its
                # least entry
                cycle = w[p::d]
                n = min(cycle)
                if n == inf:
                    continue
                q = p + d * cycle.index(n)
            else:
                # the cycle through 0 starts at w[0] = 0, its least entry
                q = n = 0
            for _ in range(a1 // d - 1):
                n += b
                q += r
                if q >= a1:
                    q -= a1
                x = w[q]
                if x < n:
                    n = x
                else:
                    w[q] = n
    return w, tuple(min_gens)


def _gaps_from_apery(apery: list[int], a1: int, conductor: int) -> int:
    """Gap mask: n is a gap iff n < apery[n % a1], so iff n = w - k a1 for
    an Apery entry w and k >= 1, and every gap is below the conductor.

    Sets bit w - a1 for each entry w >= a1, then doubles the run of
    multiples of a_1 below each one: after shifts down by a1, 2 a1, 4 a1,
    ... every w - k a1 >= 0 is present.  A shift down drops what falls
    below 0, and bit w - a1 <= c - 1 is the top, so nothing lands past c.
    """
    bits = bytearray((conductor >> 3) + 1)
    for w in filter(a1.__le__, apery):
        w -= a1
        bits[w >> 3] |= 1 << (w & 7)
    mask = int.from_bytes(bits, "little")
    del bits
    step = a1
    while step < conductor:
        mask |= mask >> step
        step <<= 1
    return mask


def _binomial_below(n: int, k: int, bound: int) -> bool:
    """comb(n, k) < bound, without computing a binomial far past bound.

    comb(n, j) grows with j up to j = min(k, n - k), at least doubling while
    j <= n / 3, so the loop stops after about log2(bound) steps.
    """
    count = 1
    for j in range(1, min(k, n - k) + 1):
        count = count * (n + 1 - j) // j
        if count >= bound:
            return False
    return True


def from_generators(values: Iterable[int]) -> Semigroup:
    """Numerical semigroup generated by the given positive integers.

    Raises EmptyInput for an empty list, NonCoprime when the gcd exceeds 1,
    ValueError for nonpositive entries or an invalid NUMSGP_MAX_CONDUCTOR,
    and ConductorCapExceeded when the conductor would reach conductor_cap().
    The cap is checked before the c-bit mask is built, and against lower
    bounds on c before the a_1-entry Apery table is built.  The result's
    min_generators is the unique minimal generating set, which may be
    smaller than the input.
    """
    gens = sorted(set(values))
    if not gens:
        raise EmptyInput("need at least one generator")
    if gens[0] < 1:
        raise ValueError("generators must be positive integers")
    d = 0
    for a in gens:
        d = gcd(d, a)
    if d != 1:
        raise NonCoprime("gcd of generators is %d" % d)
    cap = conductor_cap()
    a1 = gens[0]
    if a1 == 1:
        return _naturals()
    # A lower bound on c, checked before the a1-entry table is built.
    # 1, ..., a1 - 1 are gaps, so c >= a1.  Every Apery element is below
    # a1 * a_e, so the cap can only be reached when a1 * a_e > cap; then,
    # each Apery element is a sum of generators from gens[1:], each at least
    # a2, and at most comb(k + e - 1, k) such sums have k terms or fewer.
    # If that is fewer than the a1 Apery elements, the largest one,
    # c + a1 - 1, is at least (k + 1) a2.  k is the least that makes this
    # bound reach the cap, so the test is exact for two generators, where
    # c = (a1 - 1)(a2 - 1).
    floor = a1
    if a1 * gens[-1] > cap:
        a2 = gens[1]
        k = -(-(cap + a1 - 1) // a2) - 1
        if _binomial_below(k + len(gens) - 1, k, a1):
            floor = (k + 1) * a2 - a1 + 1
    if floor >= cap:
        raise ConductorCapExceeded(
            "conductor at least %d reaches the cap %d" % (floor, cap))
    apery, min_gens = _apery_round_robin(gens)
    return _from_apery(apery, min_gens, cap)


def _from_apery(apery: list[int], min_gens: tuple, cap: int) -> Semigroup:
    """S from its Apery table w.r.t. a_1 = min_gens[0] and its minimal
    generators; c = max Ap - a_1 + 1 is checked against cap first."""
    a1 = min_gens[0]
    conductor = max(apery) - a1 + 1
    if conductor >= cap:
        raise ConductorCapExceeded(
            "conductor %d reaches the cap %d" % (conductor, cap))
    gaps = _gaps_from_apery(apery, a1, conductor)
    s = Semigroup(min_gens, conductor, gaps, _reverse(gaps, conductor))
    s._apery = tuple(apery)
    return s


def _child(gens: tuple, k: int, f: int, gaps: int, mirror: int, pf,
           a: int) -> tuple:
    """The child step on plain values: S minus {a}, for the minimal
    generator a = gens[k] > f = F(S), given S's minimal generators gens,
    gap mask, mirror and carried mirrored PF mask pf (None when S carries
    none).  Returns the child's (gens, c, gaps, mirror, pf).

    The child has conductor a + 1 and its gap mask gains a, so g' = g + 1
    and F' = a; its mirror is S's shifted by c' - c = a - f with the new
    gap a on bit 0, and its PF mask follows by the recurrence in the module
    docstring.  Its minimal generators are those of S but a, which all stay
    minimal, then the ones T = S minus {a} adds.  As a > F, a = m only on
    the ordinary S = {0} union [m, oo), F = m - 1, generated by m, ...,
    2m - 1, whose child {0} union [m + 1, oo) is generated by m + 1, ...,
    2m + 1, so T adds 2m and 2m + 1 (the root, m = 1, gives <2, 3>).
    Otherwise a new generator is a + v for a positive v in S, at most
    F' + m' = a + m, so v = m: T adds t = a + m when t is minimal, and
    nothing else.  t exceeds every generator of S, as those other than m
    lie in Ap(S, m), whose largest entry is F + m, so it goes last.  It is
    minimal iff every u in [1, t) is a gap of T or has t - u a gap: T's
    mirror shifted by t - a = m has bit t - n set iff n is a gap.  The test
    reads bits 1 to t - 1 only.
    """
    shift = a - f
    gaps |= 1 << a
    mirror = (mirror << shift) | 1
    if pf is not None:
        pf = ((pf << shift) & gaps) | 1
    m = gens[0]
    if a == m:
        added = (2 * m, 2 * m + 1)
    else:
        t = a + m
        below = (1 << t) - 2
        added = (t,) if (gaps | (mirror << m)) & below == below else ()
    return gens[:k] + gens[k + 1:] + added, a + 1, gaps, mirror, pf


def _remove_generator(s: Semigroup, a: int) -> Semigroup:
    """S without one minimal generator a, for a > F(S): the child step
    (_child) on a Semigroup, which hands down the mirrored PF mask when S
    carries it."""
    gens = s.min_generators
    gens, c, gaps, mirror, pf = _child(gens, gens.index(a), s.frobenius,
                                       s.gap_mask, s.mirror,
                                       s._mirrored_pf_bits, a)
    child = Semigroup(gens, c, gaps, mirror)
    child._mirrored_pf_bits = pf
    return child


def _add_frobenius(s: Semigroup) -> Semigroup:
    """S union {F} for a nontrivial S: the parent step, inverse of the child
    step.

    F becomes a minimal generator, the gap mask loses bit F, and c drops to
    one past the largest gap left.  Another minimal generator b stays
    minimal unless b = 2F or b = F + v for a positive v in S; as
    b <= F + m, b = 2F or b = F + m.
    """
    f = s.frobenius
    m = s.multiplicity
    gens = sorted([f] + [b for b in s.min_generators
                         if b != f + m and b != 2 * f])
    gaps = s.gap_mask ^ (1 << f)
    conductor = gaps.bit_length()
    return Semigroup(tuple(gens), conductor, gaps,
                     s.mirror >> (s.conductor - conductor))
