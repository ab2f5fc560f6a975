"""Exhaustive verification campaigns over the genus tree.

A campaign walks every numerical semigroup up to a genus bound and runs a
selection of named checks on each node.  Checks are pure and per-node, so
subtrees are independent work units: the walk is split at a fixed frontier
genus and the subtrees are handed to a process pool, with results merged by
plain addition.  The merged report is byte-identical for any worker count,
and failures carry the minimal generator list of the offending semigroup as
a witness.

Check registry (names accepted by run_campaign and the CLI):

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
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from multiprocessing import Pool

from . import tree
from .core import (Semigroup, _add_gap_member, _apery_mask,
                   _extended_mask, _pf_mask, _remove_generator, _reverse)
from .errors import BoundTooLarge, UnknownProperty
from .maxgen import _canonical_masks, _rg_mask

PROPERTIES = (
    "wilf",
    "wilf_equality",
    "apery_reflected_gaps",
    "frobenius_formula",
    "pf_formula",
    "type",
    "canonical_gens",
    "reflection_bijection",
    "correspondence",
    "closed_gap_wilf",
    "sym_generators",
    "genus_bound",
    "inequality_chain",
)

_INDEX = {name: i for i, name in enumerate(PROPERTIES)}

_WILF = 1 << _INDEX["wilf"]
_WILF_EQ = 1 << _INDEX["wilf_equality"]
_ARG = 1 << _INDEX["apery_reflected_gaps"]
_FROB = 1 << _INDEX["frobenius_formula"]
_PF = 1 << _INDEX["pf_formula"]
_TYPE = 1 << _INDEX["type"]
_CANON = 1 << _INDEX["canonical_gens"]
_REFL = 1 << _INDEX["reflection_bijection"]
_CORR = 1 << _INDEX["correspondence"]
_CLOSED = 1 << _INDEX["closed_gap_wilf"]
_SYMGEN = 1 << _INDEX["sym_generators"]
_GBOUND = 1 << _INDEX["genus_bound"]
_CHAIN = 1 << _INDEX["inequality_chain"]

#: Subtrees rooted at this genus become independent work units.
SPLIT_GENUS = 11


@dataclass(frozen=True)
class CampaignReport:
    """Merged result of one campaign run.

    checked counts how many semigroups each property was applicable to;
    property_failures holds (property name, witness generator tuple) pairs,
    sorted, and is empty exactly when the campaign passed.
    """

    max_genus: int
    properties: tuple[str, ...]
    counts_by_genus: tuple[int, ...]
    maxgen_counts_by_genus: tuple[int, ...]
    symmetric_counts_by_genus: tuple[int, ...]
    checked: tuple[tuple[str, int], ...]
    property_failures: tuple[tuple[str, tuple[int, ...]], ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.property_failures

    @property
    def total(self) -> int:
        return sum(self.counts_by_genus)

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "max_genus": self.max_genus,
            "properties": list(self.properties),
            "counts_by_genus": list(self.counts_by_genus),
            "maxgen_counts_by_genus": list(self.maxgen_counts_by_genus),
            "symmetric_counts_by_genus": list(self.symmetric_counts_by_genus),
            "checked": {name: n for name, n in self.checked},
            "property_failures": [[name, list(w)]
                                  for name, w in self.property_failures],
            "passed": self.passed,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_wall_time), indent=2)


def _eval_node(s: Semigroup, sel: int, checked: list, failures: list) -> None:
    """Run every selected applicable check on one semigroup."""
    gens = s.min_generators
    g = s.genus
    f = s.frobenius
    if f < 0:
        # the full semigroup: only the correspondence boundary applies,
        # pairing it with the symmetric semigroup <2,3> one genus up
        if sel & _CORR:
            checked[8] += 1
            sp = _remove_generator(s, 1)
            if not (sp.frobenius == 1 and sp.genus == 1
                    and _add_gap_member(sp, 1) == s):
                failures.append((8, gens))
        return

    e = len(gens)
    m = s.multiplicity
    ae = gens[-1]
    mask = s.members_mask
    c = f + 1
    is_mg = ae == 2 * g + 1
    is_sym = c == 2 * g
    sp = None

    if sel & _WILF:
        checked[0] += 1
        if g * e > (e - 1) * c:
            failures.append((0, gens))

    if sel & _WILF_EQ and (m == 2 or f == m - 1):
        checked[1] += 1
        if e * (c - g) != c:
            failures.append((1, gens))

    if sel & _ARG:
        checked[2] += 1
        rgf = _rg_mask(mask, c, f)
        cond_iii = ae == f + m and rgf.bit_count() == m - 2
        cond_ii = rgf << m == _apery_mask(s) & ~1 & ~(1 << (f + m))
        if not (is_mg == cond_ii and is_mg == cond_iii):
            failures.append((2, gens))

    if is_mg:
        if sel & _FROB:
            checked[3] += 1
            if f != ae - m:
                failures.append((3, gens))
        if sel & (_PF | _TYPE):
            pf = s.pseudo_frobenius()
            if sel & _PF:
                checked[4] += 1
                if list(pf) != sorted(ae - a for a in gens[:-1]):
                    failures.append((4, gens))
            if sel & _TYPE:
                checked[5] += 1
                if len(pf) != e - 1:
                    failures.append((5, gens))
        if sel & _REFL:
            checked[7] += 1
            top = 2 * g + 1
            members = _extended_mask(mask, c, top - c) & ~1
            if _reverse(members, top + 1) != ((1 << c) - 1) ^ mask:
                failures.append((7, gens))
        if sel & (_CORR | _CHAIN):
            sp = _remove_generator(s, ae)
        if sel & _CORR:
            checked[8] += 1
            if not (sp.frobenius == ae and sp.genus == g + 1
                    and sp.conductor == 2 * g + 2
                    and sp.multiplicity == m
                    and _add_gap_member(sp, ae) == s):
                failures.append((8, gens))
        if sel & _CLOSED:
            checked[9] += 1
            a1 = gens[0]
            x = ae - a1
            t = _add_gap_member(s, x)
            te = len(t.min_generators)
            ok = t.genus == g - 1 and t.frobenius < x
            if ok and t.frobenius >= 0:
                ok = t.genus * te <= (te - 1) * (t.frobenius + 1)
            if ok and ae > 2 * a1:
                want = {ae - 2 * a1}
                want.update(ae - a for a in gens[1:-1])
                ok = te == e and set(t.pseudo_frobenius()) == want
            if not ok:
                failures.append((9, gens))
        if sel & _CHAIN and e > 2:
            checked[12] += 1
            ep = len(sp.min_generators)
            mult_ok = (m - 2) * (e - 1) <= (e - 2) * g
            sym_ok = ((sp.genus - 1) * (ep - 1)
                      >= (sp.multiplicity - 2) * ep)
            wilf_ok = g * e <= (e - 1) * c
            if not (mult_ok and sym_ok and wilf_ok):
                failures.append((12, gens))

    if sel & _CANON:
        checked[6] += 1
        _, offs = _canonical_masks(s)
        ok = offs == _reverse(_pf_mask(s), c)
        if ok and is_mg:
            a1 = gens[0]
            want = 0
            for a in gens[:-1]:
                want |= 1 << (a - a1)
            ok = offs == want
        if not ok:
            failures.append((6, gens))

    if is_sym:
        if sel & _CORR:
            checked[8] += 1
            sm = _add_gap_member(s, f)
            if not (sm.genus == g - 1 and sm.min_generators[-1] == 2 * g - 1
                    and _remove_generator(sm, f) == s):
                failures.append((8, gens))
        if sel & _SYMGEN and m >= 3:
            checked[10] += 1
            if ae >= f:
                failures.append((10, gens))

    if sel & _GBOUND and f > m:
        checked[11] += 1
        if ((g - 1) * (e - 1) < (m - 2) * e
                or e + g < 2 * m - 1):
            failures.append((11, gens))


def _tally(s: Semigroup, counts: list, mg: list, sym: list) -> None:
    g = s.genus
    counts[g] += 1
    if s.min_generators[-1] == 2 * g + 1:
        mg[g] += 1
    if s.frobenius + 1 == 2 * g:
        sym[g] += 1


def _subtree_task(args: tuple) -> tuple:
    start, max_genus, sel = args
    n = max_genus + 1
    counts = [0] * n
    mg = [0] * n
    sym = [0] * n
    checked = [0] * len(PROPERTIES)
    failures: list = []
    for s in tree.walk(max_genus, start):
        _tally(s, counts, mg, sym)
        _eval_node(s, sel, checked, failures)
    return counts, mg, sym, checked, failures


def resolve_properties(properties) -> tuple[str, ...]:
    """Normalize a property selection to registry order; 'all' means all."""
    if properties is None or properties == "all":
        return PROPERTIES
    if isinstance(properties, str):
        properties = [properties]
    requested = set()
    for name in properties:
        if name == "all":
            return PROPERTIES
        if name not in _INDEX:
            raise UnknownProperty(
                "unknown property %r; known: %s"
                % (name, ", ".join(PROPERTIES)))
        requested.add(name)
    return tuple(p for p in PROPERTIES if p in requested)


def run_campaign(max_genus: int, properties="all", jobs: int = 1) -> CampaignReport:
    """Check the selected properties on every semigroup of genus <= max_genus.

    jobs > 1 distributes frontier subtrees over a process pool; the report
    (wall time aside) does not depend on the worker count.
    """
    if max_genus < 0:
        raise ValueError("max_genus must be nonnegative")
    if max_genus > tree.MAX_GENUS:
        raise BoundTooLarge("genus bound %d exceeds the supported depth %d"
                            % (max_genus, tree.MAX_GENUS))
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    names = resolve_properties(properties)
    sel = 0
    for name in names:
        sel |= 1 << _INDEX[name]

    t0 = time.perf_counter()
    n = max_genus + 1
    counts = [0] * n
    mg = [0] * n
    sym = [0] * n
    checked = [0] * len(PROPERTIES)
    failures: list = []

    split = min(max_genus, SPLIT_GENUS)
    roots = []
    for s in tree.walk(split):
        if s.genus == split:
            roots.append(s)
        else:
            _tally(s, counts, mg, sym)
            _eval_node(s, sel, checked, failures)
    payloads = [(s, max_genus, sel) for s in roots]
    if jobs == 1:
        results = map(_subtree_task, payloads)
    else:
        with Pool(jobs) as pool:
            results = pool.map(_subtree_task, payloads, chunksize=1)
    for tc, tmg, tsym, tch, tfail in results:
        for i in range(n):
            counts[i] += tc[i]
            mg[i] += tmg[i]
            sym[i] += tsym[i]
        for i in range(len(PROPERTIES)):
            checked[i] += tch[i]
        failures.extend(tfail)

    if "correspondence" in names:
        # per-node round-trips imply it, but assert the count identity too
        for g in range(max_genus):
            if mg[g] != sym[g + 1]:
                failures.append((_INDEX["correspondence"], (g,)))

    failures = sorted((PROPERTIES[i], tuple(w)) for i, w in failures)
    return CampaignReport(
        max_genus=max_genus,
        properties=names,
        counts_by_genus=tuple(counts),
        maxgen_counts_by_genus=tuple(mg),
        symmetric_counts_by_genus=tuple(sym),
        checked=tuple((PROPERTIES[i], checked[i])
                      for i in range(len(PROPERTIES))
                      if PROPERTIES[i] in names),
        property_failures=tuple(failures),
        wall_time=time.perf_counter() - t0,
    )
