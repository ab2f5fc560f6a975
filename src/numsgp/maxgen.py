"""Semigroups whose largest minimal generator equals 2g + 1.

Writing a_1 < ... < a_e for the minimal generators and g for the genus, the
condition a_e = 2g + 1 pins down a lot of structure: n -> 2g+1-n maps the
members of [1, 2g] onto the gaps, F = a_e - m, PF(S) = {a_e - a_i : i < e},
the type is e - 1, and dropping a_e yields a symmetric semigroup of genus
g + 1 (with adjoining the Frobenius number as inverse).  Each of those
statements is exposed here as its own checkable operation, the property
registry in :mod:`numsgp.properties` builds its verdicts on them, and the
derived constructions (canonical ideal, closing the largest gap,
distinguished gap sets, the interval-tail family) live here too.
"""

from __future__ import annotations

from fractions import Fraction

from . import core
from .core import Semigroup, _apery_mask, _bit_positions
from .errors import (
    BadParameters,
    ConductorCapExceeded,
    EmbeddingDimTooSmall,
    GapTooSmall,
    IsTrivial,
    NotMaxGenerated,
    NotSymmetric,
)


def _require_nontrivial(s: Semigroup) -> None:
    if s.is_trivial:
        raise IsTrivial("operation undefined for the full semigroup of "
                        "nonnegative integers")


def is_max_generated(s: Semigroup) -> bool:
    """True iff the largest minimal generator equals 2g + 1."""
    _require_nontrivial(s)
    return s.min_generators[-1] == 2 * s.genus + 1


def _require_max_generated(s: Semigroup) -> None:
    if not is_max_generated(s):
        raise NotMaxGenerated(
            "largest generator %d of %r differs from 2g+1 = %d"
            % (s.min_generators[-1], s, 2 * s.genus + 1))


def _require_symmetric(s: Semigroup) -> None:
    if not s.is_symmetric():
        raise NotSymmetric("%r has F+1 = %d but 2g = %d"
                           % (s, s.frobenius + 1, 2 * s.genus))


def reflection_map(s: Semigroup) -> tuple[tuple[int, int], ...]:
    """Pairs (n, 2g+1-n) for the members n of [1, 2g], ascending in n.

    The second components run through the gaps of S exactly once; this is
    the member/gap bijection that characterizes a_e = 2g + 1.
    """
    _require_max_generated(s)
    top = 2 * s.genus + 1
    members = ((1 << top) - 2) ^ s.gap_mask
    return tuple((n, top - n) for n in _bit_positions(members))


def to_symmetric(s: Semigroup) -> Semigroup:
    """S minus {a_e}: a symmetric semigroup of genus g + 1 with F = a_e."""
    _require_max_generated(s)
    return core._remove_generator(s, s.min_generators[-1])


def from_symmetric(sp: Semigroup) -> Semigroup:
    """S' union {F(S')}: the max-generated semigroup of genus g(S') - 1.

    Inverse of to_symmetric; the two form a bijection between semigroups
    with a_e = 2g + 1 at genus g and symmetric semigroups at genus g + 1.
    """
    _require_symmetric(sp)
    return core._add_frobenius(sp)


def frobenius_formula_check(s: Semigroup) -> bool:
    """F = a_e - m; holds for every max-generated semigroup."""
    _require_max_generated(s)
    return s.frobenius == s.min_generators[-1] - s.multiplicity


def _rg_mask(s: Semigroup, n: int) -> int:
    """Bit L set iff L and n - L are both gaps, for n >= 0.

    The mirror has bit c - 1 - L set iff L is a gap; shifted by n + 1 - c it
    has bit n - L set instead, so RG(n) = gaps AND the shifted mirror.
    """
    c = s.conductor
    mirror = (s.mirror << (n + 1 - c) if n >= c
              else s.mirror >> (c - 1 - n))
    return mirror & s.gap_mask


def _reflected_gap_verdicts(s: Semigroup) -> tuple[bool, bool, bool, int, int]:
    """(cond_i, cond_ii, cond_iii, RG(f) mask, mask of Ap(S) minus {0, f + m}).

    cond_ii compares m + RG(f) with the Apery elements as masks: both sides
    are sets, and each Apery element sits in its own residue class.
    """
    f = s.frobenius
    m = s.multiplicity
    ae = s.min_generators[-1]
    rgf = _rg_mask(s, f)
    # 0 and f + m are always Apery elements; clear both
    ap = _apery_mask(s) ^ 1 ^ (1 << (f + m))
    return (ae == 2 * s.genus + 1, rgf << m == ap,
            ae == f + m and rgf.bit_count() == m - 2, rgf, ap)


def reflected_gap_report(s: Semigroup) -> dict:
    """The three descriptions of a_e = 2g + 1, evaluated independently,
    as a fresh dict:

      cond_i:     a_e = 2g + 1
      cond_ii:    m + RG(f, S) = Ap(S) minus {0, f + m}, as sets
      cond_iii:   a_e = f + m and |RG(f, S)| = m - 2
      equivalent: cond_i, cond_ii and cond_iii agree, as they do on every
                  numerical semigroup; the campaign checks exactly that
      rg_f, rg_f_plus_m, apery_minus: RG(f, S), RG(f + m, S) and Ap(S)
                  minus {0, f + m}, ascending

    where f = F(S) and RG(n, S) = {L in [1, n-1] : L not in S, n - L not in
    S}.  rg_f_plus_m is there because the equivalence proof runs through
    RG(f + m, S) being empty.
    """
    _require_nontrivial(s)
    cond_i, cond_ii, cond_iii, rgf, ap = _reflected_gap_verdicts(s)
    rgfm = _rg_mask(s, s.frobenius + s.multiplicity)
    return {
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "cond_iii": cond_iii,
        "equivalent": cond_i == cond_ii == cond_iii,
        "rg_f": tuple(_bit_positions(rgf)),
        "rg_f_plus_m": tuple(_bit_positions(rgfm)),
        "apery_minus": tuple(_bit_positions(ap)),
    }


def _canonical_offsets(s: Semigroup) -> int:
    """Mask of the minimal offsets of K = {z : F - z not in S}.

    K over [0, F] is the gap mask mirrored over c bits (z to F - z), which
    is the mirror field of S.  An offset o is minimal when no positive
    member u of S has o - u in K.  Shifting K by the minimal generators
    alone marks every non-minimal offset, because K + S is a subset of K:
    if o - u is in K and u = a + u' with a a minimal generator and u' in S,
    then o - a is in K.
    """
    k = s.mirror
    nonmin = 0
    for a in s.min_generators:
        nonmin |= k << a
    return k ^ (k & nonmin)


def canonical_ideal(s: Semigroup) -> tuple[int, ...]:
    """The minimal offsets o of the canonical ideal K, ascending from 0.

    K is the union of o + S over the offsets, and z is in K iff F - z is
    not in S.  The offsets equal {F - p : p in PF(S)}; for a_e = 2g + 1
    they also equal {a_i - a_1 : i < e}, which identifies K with the
    shifted set {u - a_1 : u in S, u != a_e}.  Shifting all of S would
    wrongly include a_e - a_1, which is why the largest generator is
    dropped first.
    """
    _require_nontrivial(s)
    return tuple(_bit_positions(_canonical_offsets(s)))


def pf_formula_check(s: Semigroup) -> bool:
    """PF(S) = {a_e - a_i : 1 <= i <= e-1}; holds whenever a_e = 2g + 1."""
    _require_max_generated(s)
    ae = s.min_generators[-1]
    expected = sorted(ae - a for a in s.min_generators[:-1])
    return list(s.pseudo_frobenius()) == expected


def _wilf_holds(s: Semigroup) -> bool:
    """Wilf's inequality g e <= (e - 1)(F + 1), for nontrivial S."""
    e = len(s.min_generators)
    return s.genus * e <= (e - 1) * (s.frobenius + 1)


def wilf_report(s: Semigroup) -> dict:
    """Wilf's inequality g/(F+1) <= (e-1)/e, evaluated exactly, as a fresh
    dict: e, g, f, m; the Fractions lhs, rhs and margin = rhs - lhs; holds;
    and count_form_holds, the member-count form e * (F + 1 - g) >= F + 1,
    which agrees with holds on every semigroup."""
    _require_nontrivial(s)
    e = len(s.min_generators)
    g = s.genus
    f = s.frobenius
    lhs = Fraction(g, f + 1)
    rhs = Fraction(e - 1, e)
    return {
        "e": e, "g": g, "f": f, "m": s.multiplicity,
        "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
        "holds": _wilf_holds(s),
        "count_form_holds": e * (f + 1 - g) >= f + 1,
    }


def maxgen_inequality_chain(s: Semigroup) -> dict:
    """The inequality forms that bracket Wilf's inequality for a_e = 2g + 1,
    as a fresh dict:

      mult_form_holds:      (m - 2)(e - 1) <= (e - 2) g on S
      symmetric_form_holds: g' >= 1 + (m' - 2) e' / (e' - 1) on S - {a_e}
      wilf_holds:           g e <= (e - 1)(F + 1) on S

    The first two follow from, and together are as strong as, Wilf's
    inequality for max-generated S with e > 2, so all three must agree.
    """
    _require_max_generated(s)
    e = len(s.min_generators)
    if e <= 2:
        raise EmbeddingDimTooSmall(
            "inequality chain needs e > 2, got e = %d" % e)
    return {
        "mult_form_holds":
            (s.multiplicity - 2) * (e - 1) <= (e - 2) * s.genus,
        "symmetric_form_holds": _genus_bound_forms(to_symmetric(s))[0],
        "wilf_holds": _wilf_holds(s),
    }


def _genus_bound_forms(t: Semigroup) -> tuple[bool, bool]:
    """(g - 1)(e - 1) >= (m - 2) e, and its count form e + g >= 2m - 1."""
    e = len(t.min_generators)
    g = t.genus
    m = t.multiplicity
    return (g - 1) * (e - 1) >= (m - 2) * e, e + g >= 2 * m - 1


def genus_lower_bound_check(t: Semigroup) -> bool:
    """Truth value of g >= 1 + (m - 2) e / (e - 1), in integer arithmetic.

    The bound holds whenever F(T) > m(T); for the interval semigroups
    <m, ..., 2m-1> (the only ones with F < m) it fails exactly when m >= 3,
    so this returns the verdict without asserting anything.
    """
    _require_nontrivial(t)
    return _genus_bound_forms(t)[0]


def close_largest_gap(s: Semigroup) -> Semigroup:
    """T = S union {a_e - a_1}, the largest gap of S closed.

    g(T) = g(S) - 1 and T satisfies Wilf's inequality.  When a_e > 2 a_1
    the result keeps the embedding dimension: T = <a_1, ..., a_{e-1},
    a_e - a_1>; otherwise S is the interval <a_1, ..., 2a_1 - 1> and T is
    the interval one multiplicity down.
    """
    _require_max_generated(s)
    # a_e - a_1 = F on every max-generated semigroup
    return core._add_frobenius(s)


def distinguished_set_for_closed(s: Semigroup) -> tuple[int, ...]:
    """D = {a_e - 2a_1} union {a_e - a_i : 2 <= i <= e-1}, sorted.

    D is a distinguished gap set of close_largest_gap(S) and equals its
    pseudo-Frobenius set; defined when a_e > 2 a_1.
    """
    _require_max_generated(s)
    gens = s.min_generators
    ae = gens[-1]
    if ae < 2 * gens[0]:
        raise GapTooSmall("largest generator %d below 2 * %d"
                          % (ae, gens[0]))
    out = {ae - 2 * gens[0]}
    out.update(ae - a for a in gens[1:-1])
    return tuple(sorted(out))


def notiz_family(m: int, f: int) -> Semigroup:
    """The semigroup <m, f+1, f+2, ..., f+m> for f > m >= 3 with m not
    dividing f.

    Its Frobenius number is f and its largest minimal generator is f + m;
    it is max-generated exactly when f = m + 1.  Below c = f + 1 its
    members are the multiples of m, so g = f - floor(f / m).  Core builds
    it from the closed-form Apery table, checked first against the cap.
    """
    if m < 3:
        raise BadParameters("need m >= 3, got m = %d" % m)
    if f <= m:
        raise BadParameters("need f > m, got f = %d, m = %d" % (f, m))
    if f % m == 0:
        raise BadParameters("f = %d is a multiple of m = %d" % (f, m))
    c = f + 1
    cap = core.conductor_cap()
    if c >= cap:
        raise ConductorCapExceeded("conductor %d reaches the cap %d"
                                   % (c, cap))
    # the least member of class r > 0 is its generator in [c, c + m): the
    # table is [c, c + m) rotated so that c + k, the multiple of m, comes
    # first, and that entry is 0
    k = -c % m
    apery = [0, *range(c + k + 1, c + m), *range(c, c + k)]
    return core._from_apery(apery, (m, *range(c, c + k),
                                    *range(c + k + 1, c + m)), cap)
