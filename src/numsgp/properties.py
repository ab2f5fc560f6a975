"""The property registry: each checked identity, defined once.

Both `numsgp verify` (numsgp.campaign) and `numsgp check` (numsgp.cli) run
the rows below, so the exhaustive campaign and the single-semigroup check
give the same verdict.  Property names, in registry order:

  wilf                  g*e <= (e-1)*(F+1) on every semigroup
  wilf_equality         the m=2 and interval families attain equality
  apery_reflected_gaps  the three descriptions of a_e = 2g+1 agree
  frobenius_formula     F = a_e - m when a_e = 2g+1
  pf_formula            PF = {a_e - a_i : i < e} when a_e = 2g+1
  type                  t = e - 1 when a_e = 2g+1
  canonical_gens        canonical-ideal offsets = {F - p : p in PF}, and
                        also = {a_i - a_1 : i < e} when a_e = 2g+1
  reflection_bijection  n -> 2g+1-n maps members of [1,2g] onto the gaps
  correspondence        drop-a_e / adjoin-F round-trips between a_e = 2g+1
                        semigroups and symmetric ones a genus higher
  closed_gap_wilf       T = S + {a_e - a_1} drops the genus by one, keeps
                        e when a_e > 2a_1 (with PF(T) the predicted set),
                        and satisfies Wilf's inequality
  sym_generators        symmetric with m >= 3: all generators below F
  genus_bound           F > m: (g-1)(e-1) >= (m-2)e and e + g >= 2m - 1
  inequality_chain      a_e = 2g+1, e > 2: the multiplicity form and the
                        symmetric-partner form agree with the Wilf verdict

A row has a domain and optional applies flags, both flags of domains(s): it
runs on the nodes of its domain with one of the applies flags, or on all of
them when applies is 0.  M2 and INTERVAL mark the two special families,
<2, 2g+1> and the interval semigroups <m, ..., 2m-1>.  The verdict is
holds(s), and record(s) gives the `check` result fields less holds, with the
provenance string that goes beside them.  Only this module reads the domains
and the names: `check` has one entry, check(), campaigns use resolve(),
root(), plan(), scalar_domains() and count_failures(), and lookup() reads
every name, hyphens as underscores.  A row declares what its verdict
reads.  A row with a plain-value verdict reads only the values a
campaign's walk holds for a node, (g, c, gens, gaps, mirror, pf), and
holds(s) calls it on a built node's; every row has one but those of
pf_formula, type, correspondence, closed_gap_wilf and inequality_chain,
which build semigroups or scan PF sets.  A campaign
keys each node of its walk by scalar_domains() of its scalars, as
domains(s) keys a Semigroup, checks those rows on the plain values, and
builds the node only for the other rows, which read it.  A row marked
reads_masks has a verdict that reads the mirrored PF mask pf, which
root() then has the walk carry; canonical_gens is the one such row.
Records keep Fractions; the CLI encodes them.  Outside its domain a
property is undefined; inside it but not applicable, it holds vacuously.
correspondence has one row per side and one for the trivial semigroup,
whose partner is <2, 3>; a semigroup <2, 2g+1> is on both sides
and is checked from each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import core, maxgen
from .core import Semigroup, _mirrored_pf_mask
from .errors import UnknownProperty

#: Domain flags; domains(s) sets TRIVIAL alone, or ALL plus the others.
TRIVIAL, ALL, MAXGEN, SYMMETRIC = 1, 2, 4, 8
#: Applicability flags; domains(s) sets one of each pair on a nontrivial s.
M2, M_AT_LEAST_3, INTERVAL, F_ABOVE_M = 16, 32, 64, 128


def domains(s: Semigroup) -> int:
    """The domain flags of s, from its scalars (scalar_domains)."""
    return scalar_domains(s.genus, s.conductor, s.multiplicity,
                          s.min_generators[-1])


def scalar_domains(g: int, c: int, m: int, ae: int) -> int:
    """The domain flags of the semigroup of genus g, conductor c,
    multiplicity m and largest minimal generator a_e, which a campaign
    reads off a node it need not build: c = 0 is TRIVIAL, and otherwise
    a_e = 2g+1 is MAXGEN, F+1 = 2g is SYMMETRIC, m = 2 is M2, F < m is
    INTERVAL.  As F >= m - 1 and the gap F is not the member m, INTERVAL
    is F = m - 1, and F_ABOVE_M is its complement."""
    if not c:
        return TRIVIAL
    g2 = 2 * g
    return (ALL | (MAXGEN if ae == g2 + 1 else 0)
            | (SYMMETRIC if c == g2 else 0)
            | (M2 if m == 2 else M_AT_LEAST_3)
            | (INTERVAL if c <= m else F_ABOVE_M))


#: For each domain but TRIVIAL, a function that raises the domain's
#: PreconditionViolation on a semigroup outside it.
REQUIRE = {ALL: maxgen._require_nontrivial,
           MAXGEN: maxgen._require_max_generated,
           SYMMETRIC: maxgen._require_symmetric}


@dataclass
class Row:
    """One identity on one domain; `check` adds holds to record(s)'s fields.

    holds(s) is the verdict on a node.  A row built by _plain_row has a
    plain-value verdict: holds calls plain, the same verdict on the genus,
    conductor, minimal generators, gap mask, mirror and mirrored PF mask
    (g, c, gens, gaps, mirror, pf) of a nontrivial node, and carries it,
    so a campaign calls plain on the values its walk holds for a node it
    does not build.  reads_masks marks a verdict that reads pf; every
    other verdict may get None for it.
    """

    name: str
    domain: int
    holds: Callable[[Semigroup], bool]
    record: Callable[[Semigroup], dict] | None = None
    provenance: str | None = None
    #: the flags of which a node needs one for the row to apply; 0: all
    applies: int = 0
    #: holds reads the mirrored PF mask, which a walk can carry (root())
    reads_masks: bool = False

    @property
    def plain(self) -> Callable[..., bool] | None:
        """The verdict on the plain values (g, c, gens, gaps, mirror, pf)
        of a nontrivial node that holds carries, or None when holds reads
        a built node."""
        return getattr(self.holds, "plain", None)


def _plain_row(name, domain, plain, record, provenance, applies=0,
               reads_masks=False):
    """A row whose verdict reads only a node's plain values: holds calls
    plain on a built node's, with its mirrored PF mask only when the row
    reads_masks, and carries it as holds.plain."""
    def holds(s):
        pf = _mirrored_pf_mask(s) if reads_masks else None
        return plain(s.genus, s.conductor, s.min_generators, s.gap_mask,
                     s.mirror, pf)

    holds.plain = plain
    return Row(name, domain, holds, record, provenance, applies, reads_masks)


# -- verdicts ---------------------------------------------------------------

def _wilf_equality(g, c, gens, gaps, mirror, pf):
    return len(gens) * (c - g) == c


def _sym_generators(g, c, gens, gaps, mirror, pf):
    return gens[-1] < c - 1


def _genus_bound(g, c, gens, gaps, mirror, pf):
    bound, count_form = maxgen._genus_bound_forms(g, gens[0], len(gens))
    return bound and count_form


def _apery_reflected_gaps(g, c, gens, gaps, mirror, pf):
    cond_i, cond_ii, cond_iii, _, _ = maxgen._reflected_gap_verdicts(
        g, c, gens, gaps, mirror)
    return cond_i == cond_ii == cond_iii


def _type(s):
    return s.type_number() == len(s.min_generators) - 1


def _canonical_gens(g, c, gens, gaps, mirror, pf):
    offs = maxgen._canonical_offsets(gens, mirror)
    if offs != pf:
        return False
    if gens[-1] != 2 * g + 1:
        return True
    want = 0
    for a in gens[:-1]:
        want |= 1 << (a - gens[0])
    return offs == want


def _reflection_bijection(g, c, gens, gaps, mirror, pf):
    # the mirror shifted to top + 1 bits has bit top - n for each gap n
    top = 2 * g + 1
    members = ((1 << top) - 2) ^ gaps
    return mirror << (top + 1 - c) == members


def _trivial_partner(s):
    sp = core._remove_generator(s, 1)
    return (sp.frobenius == 1 and sp.genus == 1
            and core._add_frobenius(sp) == s)


def _to_symmetric(s):
    g = s.genus
    ae = s.min_generators[-1]
    sp = maxgen.to_symmetric(s)
    # F(S') + 1 = 2 g(S') is settled before from_symmetric needs it
    return (sp.frobenius == ae and sp.genus == g + 1
            and sp.conductor == 2 * g + 2
            and sp.multiplicity == s.multiplicity
            and maxgen.from_symmetric(sp) == s)


def _from_symmetric(s):
    g = s.genus
    sm = maxgen.from_symmetric(s)
    # not maxgen.to_symmetric: the partner of <2, 3> is the trivial semigroup
    return (sm.genus == g - 1 and sm.min_generators[-1] == 2 * g - 1
            and core._remove_generator(sm, s.frobenius) == s)


def _closed_gap_wilf(s):
    gens = s.min_generators
    a1, ae = gens[0], gens[-1]
    t = maxgen.close_largest_gap(s)
    if not (t.genus == s.genus - 1 and t.frobenius < ae - a1):
        return False
    if not t.is_trivial and not maxgen._wilf_holds(t):
        return False
    return ae <= 2 * a1 or (
        len(t.min_generators) == len(gens)
        and t.pseudo_frobenius() == maxgen.distinguished_set_for_closed(s))


def _inequality_chain(s):
    r = maxgen.maxgen_inequality_chain(s)
    return (r["mult_form_holds"] and r["symmetric_form_holds"]
            and r["wilf_holds"])


def count_failures(names: tuple, mg: list, sym: list) -> list:
    """(position in names, (g,)) for each genus g at which the merged
    campaign tallies break a count identity of names: correspondence pairs
    the a_e = 2g + 1 semigroups of genus g with the symmetric ones of genus
    g + 1, as the per-node round-trips imply."""
    if "correspondence" not in names:
        return []
    i = names.index("correspondence")
    return [(i, (g,)) for g in range(len(mg) - 1) if mg[g] != sym[g + 1]]


# -- check records ------------------------------------------------------------

def _wilf_equality_record(s):
    margin = maxgen.wilf_report(s)["margin"]
    return {"applicable": bool(domains(s) & (M2 | INTERVAL)), "margin": margin,
            "margin_zero": margin == 0}


def _frobenius_formula_record(s):
    return {"frobenius": s.frobenius,
            "largest_generator": s.min_generators[-1],
            "multiplicity": s.multiplicity}


def _pf_formula_record(s):
    ae = s.min_generators[-1]
    return {"pf": list(s.pseudo_frobenius()),
            "expected": sorted(ae - a for a in s.min_generators[:-1])}


def _type_record(s):
    return {"type": s.type_number(),
            "embedding_dimension": s.embedding_dimension}


def _canonical_gens_record(s):
    return {"offsets": list(maxgen.canonical_ideal(s)),
            "expected": sorted(s.frobenius - p for p in s.pseudo_frobenius())}


def _reflection_bijection_record(s):
    pairs = maxgen.reflection_map(s)
    return {"pairs": [list(p) for p in pairs],
            "image": sorted(b for _, b in pairs), "gaps": list(s.gaps())}


def _to_symmetric_record(s):
    sp = maxgen.to_symmetric(s)
    return {"direction": "to_symmetric", "partner": list(sp.min_generators),
            "round_trip": maxgen.from_symmetric(sp) == s}


def _from_symmetric_record(s):
    sm = maxgen.from_symmetric(s)
    return {"direction": "from_symmetric", "partner": list(sm.min_generators),
            "round_trip": core._remove_generator(sm, s.frobenius) == s}


def _closed_gap_wilf_record(s):
    gens = s.min_generators
    t = maxgen.close_largest_gap(s)
    out = {"closed": list(t.min_generators), "genus": t.genus,
           "wilf": None if t.is_trivial else maxgen.wilf_report(t),
           "distinguished_set": None, "pf_match": None}
    if gens[-1] > 2 * gens[0]:
        d = maxgen.distinguished_set_for_closed(s)
        out["distinguished_set"] = list(d)
        out["pf_match"] = d == t.pseudo_frobenius()
    return out


def _sym_generators_record(s):
    return {"applicable": bool(domains(s) & M_AT_LEAST_3),
            "largest_generator": s.min_generators[-1],
            "frobenius": s.frobenius}


def _genus_bound_record(s):
    return {"bound_holds": maxgen.genus_lower_bound_check(s),
            "count_form_holds": maxgen._genus_bound_forms(
                s.genus, s.multiplicity, s.embedding_dimension)[1],
            "asserted": bool(domains(s) & F_ABOVE_M)}


ROWS = (
    _plain_row("wilf", ALL, maxgen._wilf_form, maxgen.wilf_report,
               "numsgp.maxgen.wilf_report"),
    _plain_row("wilf_equality", ALL, _wilf_equality, _wilf_equality_record,
               "numsgp.maxgen.wilf_report", applies=M2 | INTERVAL),
    _plain_row("apery_reflected_gaps", ALL, _apery_reflected_gaps,
               maxgen.reflected_gap_report,
               "numsgp.maxgen.reflected_gap_report"),
    _plain_row("frobenius_formula", MAXGEN, maxgen._frobenius_form,
               _frobenius_formula_record,
               "numsgp.maxgen.frobenius_formula_check"),
    Row("pf_formula", MAXGEN, maxgen.pf_formula_check, _pf_formula_record,
        "numsgp.maxgen.pf_formula_check"),
    Row("type", MAXGEN, _type, _type_record, "numsgp.core.type_number"),
    _plain_row("canonical_gens", ALL, _canonical_gens,
               _canonical_gens_record, "numsgp.maxgen.canonical_ideal",
               reads_masks=True),
    _plain_row("reflection_bijection", MAXGEN, _reflection_bijection,
               _reflection_bijection_record, "numsgp.maxgen.reflection_map"),
    Row("correspondence", TRIVIAL, _trivial_partner),
    Row("correspondence", MAXGEN, _to_symmetric, _to_symmetric_record,
        "numsgp.maxgen.to_symmetric"),
    Row("correspondence", SYMMETRIC, _from_symmetric, _from_symmetric_record,
        "numsgp.maxgen.from_symmetric"),
    Row("closed_gap_wilf", MAXGEN, _closed_gap_wilf, _closed_gap_wilf_record,
        "numsgp.maxgen.close_largest_gap"),
    _plain_row("sym_generators", SYMMETRIC, _sym_generators,
               _sym_generators_record, "numsgp.maxgen", applies=M_AT_LEAST_3),
    _plain_row("genus_bound", ALL, _genus_bound, _genus_bound_record,
               "numsgp.maxgen.genus_lower_bound_check", applies=F_ABOVE_M),
    # the record raises EmbeddingDimTooSmall for e <= 2, outside the chain.
    # On a_e = 2g+1, e > 2 iff m >= 3: <a, b> has 2g = (a-1)(b-1), so
    # b = 2g+1 forces a = 2
    Row("inequality_chain", MAXGEN, _inequality_chain,
        maxgen.maxgen_inequality_chain,
        "numsgp.maxgen.maxgen_inequality_chain", applies=M_AT_LEAST_3),
)

PROPERTIES = tuple(dict.fromkeys(row.name for row in ROWS))


def lookup(text) -> str:
    """The property text names, hyphens read as underscores; any other
    text raises UnknownProperty, which quotes it as given."""
    name = str(text).replace("-", "_")
    if name not in PROPERTIES:
        raise UnknownProperty("unknown property %r; known: %s"
                              % (text, ", ".join(PROPERTIES)))
    return name


def resolve(selection) -> tuple[str, ...]:
    """The properties of a selection, in registry order: None, "all", one
    name, or an iterable of names, [] selecting none.  Every entry but
    "all" is looked up, so "all" hides no unknown name."""
    if selection is None or isinstance(selection, str):
        selection = ["all" if selection is None else selection]
    wanted = {name if name == "all" else lookup(name) for name in selection}
    return tuple(p for p in PROPERTIES if "all" in wanted or p in wanted)


def root(names: tuple) -> Semigroup:
    """The root of a campaign's walk over the properties names: one that
    carries the mirrored PF mask down the tree when a row of names reads
    it, and a bare one otherwise, as carrying it costs each node a few
    big-int operations that only that row repays."""
    return core._naturals(any(r.reads_masks for r in ROWS if r.name in names))


def plan(names: tuple, key: int) -> tuple:
    """The rows of the properties names that apply to the nodes with domain
    key, in registry order, as (plains, reads): the (position in names,
    plain) of each row with a plain-value verdict, and the (position in
    names, holds) of each other row."""
    index = {name: i for i, name in enumerate(names)}
    rows = [(index[r.name], r.holds, r.plain) for r in ROWS
            if r.name in index and r.domain & key
            and (not r.applies or r.applies & key)]
    return (tuple((i, plain) for i, _, plain in rows if plain),
            tuple((i, holds) for i, holds, plain in rows if not plain))


def check(name: str, s: Semigroup) -> tuple[bool, dict, str]:
    """The verdict of property name on s, its record and the provenance:
    the conjunction over the rows whose domain contains s, and the first
    one's record with the verdict written in as holds.  Outside every
    domain this raises the last row's precondition violation (NotSymmetric
    for correspondence); the trivial-semigroup row is left to campaigns, so
    every property raises IsTrivial on <1>.  name goes through lookup()."""
    name = lookup(name)
    key = domains(s)
    rows = [r for r in ROWS if r.name == name and r.domain != TRIVIAL]
    rows_in = [r for r in rows if r.domain & key]
    if not rows_in:
        REQUIRE[rows[-1].domain](s)
    ok = all(r.holds(s) for r in rows_in if not r.applies or r.applies & key)
    record = rows_in[0].record(s)
    record["holds"] = ok
    return ok, record, rows_in[0].provenance
