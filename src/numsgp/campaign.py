"""Exhaustive verification campaigns over the genus tree.

A campaign walks every numerical semigroup up to a genus bound G and runs
a selection of named checks on each node.  It is one fold: _tally walks
each of its subtrees depth first on plain values, a stack of (minimal
generators, c, gap mask, mirror, mirrored PF mask) tuples that
core._child, the child step, extends, and reads each node's genus g,
m and a_e off its tuple.  It keys the node by properties.scalar_domains,
counts it by genus under that key and calls the key's rows that have a
plain-value verdict on g and the tuple.  It builds the node as a
Semigroup only when a row of its key reads the node, so every
level is walked alike: a selection of plain-value rows, wilf and
apery_reflected_gaps among them, builds no node at any genus, and all
builds only the trivial semigroup and the nodes of the MAXGEN and
SYMMETRIC domains.  The parts are summed column-wise once and the
failures sorted, so the report is byte-identical for any worker count;
failures carry the minimal generator list of the offending semigroup as
a witness, which the tuple holds.

One worker tallies the whole tree in this process.  More workers,
min(jobs, CPUs, items) of them, share the tree.  The frontier rule is
_items's: the items are the nodes of genus below G - UNIT_MARGIN, each
alone, and the nodes of genus G - UNIT_MARGIN with their subtrees, in walk
order, so the biggest subtrees tend to come first; a bound of UNIT_MARGIN
or less has no items and runs in this process.  Every worker walks the
nodes above the units and numbers the items as it goes.  Whenever it
passes the end of its current block it claims the next block of BLOCK
consecutive items from a counter the pool shares, and it tallies only the
items of the blocks it claimed, a node above the units alone and a unit
with its subtree to G.  A worker that finishes early claims more, so none
sits idle while another has a block left to start, and only integers
cross the pool.  A campaign in this process imports none of
multiprocessing.

The checks themselves are the rows of :mod:`numsgp.properties`, which
also reads run_campaign's selection of names.  Every walk of a campaign
starts from properties.root(names), which carries the mirrored PF mask
down the tree only for a selection with a row that reads it.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from itertools import islice

from . import tree
from .core import Semigroup, _child, _remove_generator
from .errors import BoundTooLarge
from .properties import (MAXGEN, SYMMETRIC, TRIVIAL, count_failures, plan,
                         resolve, root, scalar_domains)

#: The units of a shared campaign are the nodes this far above the bound.
UNIT_MARGIN = 5

#: A worker of a shared campaign claims this many items at a time.
BLOCK = 16

#: The block counter of the pool this process works in, set by _init_worker.
_claimed = None


@dataclass(frozen=True)
class CampaignReport:
    """Merged result of one campaign run.

    checked counts each property's row evaluations, one per applicable
    node and row: correspondence checks each <2, 2g+1> from both sides.
    property_failures holds sorted (property name, witness) pairs, empty
    exactly when the campaign passed; a witness is a minimal generator
    tuple, or (g,) for a broken correspondence count identity at genus g.
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


def _tally(units, max_genus: int, names: tuple[str, ...]) -> tuple:
    """Tally the semigroups of genus <= max_genus in units, (start, depth)
    pairs, each the subtree of the Semigroup start to genus depth, walked
    on plain values as the module docstring says, and run the checks of
    names that apply to each.

    Returns (counts, mg, sym, checked, failures): the per-genus counts of
    all nodes, of the a_e = 2g + 1 ones and of the symmetric ones; how many
    row evaluations each of names had, one per applicable node and row; and
    (position in names, witness) pairs.  Each domain key is planned when a
    node first has it, to the rows that apply to it, and its entry counts
    the nodes with that key by genus.  The columns are summed from those
    counts by flag, so the trivial semigroup, whose key is TRIVIAL, is
    counted in both mg (1 = 2*0 + 1) and sym (F + 1 = 0 = 2g); checked is
    summed from them by plan, each row of a key's plan once per node.
    """
    plans = {}
    failures: list = []
    keyed, child, node = scalar_domains, _child, Semigroup
    for start, depth in units:
        stack = [(start.min_generators, start.conductor, start.gap_mask,
                  start.mirror, start._mirrored_pf_bits)]
        pop = stack.pop
        push = stack.append
        while stack:
            gens, c, gaps, mirror, pf = pop()
            g = gaps.bit_count()
            m = gens[0]
            ae = gens[-1]
            key = keyed(g, c, m, ae)
            try:
                plains, reads, census = plans[key]
            except KeyError:
                plains, reads, census = plans[key] = _plan(names, key,
                                                           max_genus)
            census[g] += 1
            for i, plain in plains:
                if not plain(g, c, gens, gaps, mirror, pf):
                    failures.append((i, gens))
            if reads:
                s = node(gens, c, gaps, mirror)
                s._mirrored_pf_bits = pf
                for i, holds in reads:
                    if not holds(s):
                        failures.append((i, gens))
            if g < depth:
                f = c - 1
                k = len(gens)
                for a in reversed(gens):
                    k -= 1
                    if a <= f:
                        break
                    push(child(gens, k, f, gaps, mirror, pf, a))
    columns = ([sum(c[g] for key, (_, _, c) in plans.items() if key & flags)
                for g in range(max_genus + 1)]
               for flags in (~0, TRIVIAL | MAXGEN, TRIVIAL | SYMMETRIC))
    checked = [0] * len(names)
    for plains, reads, census in plans.values():
        for i, _ in plains + reads:
            checked[i] += sum(census)
    return (*columns, checked, failures)


def _plan(names: tuple[str, ...], key: int, max_genus: int) -> tuple:
    """The entry of _tally for domain key: properties.plan()'s (plains,
    reads), and the count by genus of the nodes with the key."""
    return (*plan(names, key), [0] * (max_genus + 1))


def _items(max_genus: int, start=None):
    """The items of a shared campaign up to max_genus, in walk order (see
    the module docstring): (s, None) for each node s above the units, and
    (s, a) for each unit s minus {a}, which is not built here.  start is
    the tree's root, as for tree.walk."""
    deep = max_genus - UNIT_MARGIN
    for s in tree.walk(deep - 1, start):
        yield s, None
        if s.genus == deep - 1:
            f = s.frobenius
            for a in s.min_generators:
                if a > f:
                    yield s, a


def _share(max_genus: int, claim, start=None):
    """One share of the genus tree up to max_genus from the root start, as
    _tally's (start, depth) pairs: the items of the blocks it claims, each
    node above the units alone, as (s, s.genus), and each unit, built only
    here, with its subtree, as (unit, max_genus).  claim() returns the
    number of the next block no share has claimed; block b holds the items
    numbered b * BLOCK to b * BLOCK + BLOCK - 1."""
    first = end = 0
    for n, (s, a) in enumerate(_items(max_genus, start)):
        if n == end:
            first = claim() * BLOCK
            end = first + BLOCK
        if n < first:
            continue
        if a is None:
            yield s, s.genus
        else:
            yield _remove_generator(s, a), max_genus


def _claim() -> int:
    """The next block number of this pool's counter."""
    with _claimed.get_lock():
        b = _claimed.value
        _claimed.value = b + 1
    return b


def _init_worker(claimed) -> None:
    """Set up a pool worker: keep the pool's block counter, and ignore
    Ctrl-C, as the parent's KeyboardInterrupt ends the pool."""
    global _claimed
    _claimed = claimed
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker(max_genus: int, names: tuple[str, ...]) -> tuple:
    """The tally of one pool worker's share.  Pool workers get the property
    names, not the plan: pickling the plan's functions costs more than
    building it."""
    return _tally(_share(max_genus, _claim, root(names)), max_genus, names)


def run_campaign(max_genus: int, properties="all", jobs: int = 1) -> CampaignReport:
    """Check the selected properties on every semigroup of genus <= max_genus.

    jobs > 1 shares the tree among a process pool as the module docstring
    says.  The report (wall time aside) does not depend on the worker count.
    """
    if max_genus < 0:
        raise ValueError("max_genus must be nonnegative")
    if max_genus > tree.MAX_GENUS:
        raise BoundTooLarge("genus bound %d exceeds the supported depth %d"
                            % (max_genus, tree.MAX_GENUS))
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    names = resolve(properties)

    t0 = time.perf_counter()
    start = root(names)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        workers = sum(1 for _ in islice(_items(max_genus, start), workers))
    if workers <= 1:
        parts = [_tally([(start, max_genus)], max_genus, names)]
    else:
        # a campaign in this process needs none of multiprocessing
        from multiprocessing import Pool, Value
        with Pool(workers, _init_worker, (Value("q", 0),)) as pool:
            parts = pool.starmap(_worker, [(max_genus, names)] * workers)
    columns = list(zip(*parts))
    counts, mg, sym, checked = ([sum(c) for c in zip(*column)]
                                for column in columns[:4])
    failures = [f for part in columns[4] for f in part]

    failures.extend(count_failures(names, mg, sym))
    failures = sorted((names[i], tuple(w)) for i, w in failures)
    return CampaignReport(
        max_genus=max_genus,
        properties=names,
        counts_by_genus=tuple(counts),
        maxgen_counts_by_genus=tuple(mg),
        symmetric_counts_by_genus=tuple(sym),
        checked=tuple(zip(names, checked)),
        property_failures=tuple(failures),
        wall_time=time.perf_counter() - t0,
    )
