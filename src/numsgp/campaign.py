"""Exhaustive verification campaigns over the genus tree.

A campaign walks every numerical semigroup up to a genus bound and runs a
selection of named checks on each node.  It is one fold: _tally counts
any iterable of semigroups by genus and runs the checks on each.  The
parts are summed column-wise once and the failures sorted, so the report
is byte-identical for any worker count; failures carry the minimal
generator list of the offending semigroup as a witness.

One worker tallies tree.walk in this process.  More workers, min(jobs,
CPUs, items) of them, share the tree.  The frontier rule is _items's: the
items are the nodes of genus below G - UNIT_MARGIN, each alone, and the
nodes of genus G - UNIT_MARGIN with their subtrees, in walk order, so the
biggest subtrees tend to come first; a bound of UNIT_MARGIN or less has no
items and runs in this process.  Every worker walks the nodes above the
units and numbers the items as it goes.  Whenever it passes the end of its
current block it claims the next block of BLOCK consecutive items from a
counter the pool shares, and it tallies only the items of the blocks it
claimed.  A worker that finishes early claims more, so none sits idle while
another has a block left to start, and only integers cross the pool.

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
from multiprocessing import Pool, Value

from . import tree
from .core import _remove_generator
from .errors import BoundTooLarge
from .properties import (MAXGEN, SYMMETRIC, TRIVIAL, count_failures, domains,
                         plan, resolve, root)

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


def _tally(nodes, max_genus: int, names: tuple[str, ...]) -> tuple:
    """Tally an iterable of semigroups of genus <= max_genus and run the
    checks of names that apply to each.

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
    for s in nodes:
        key = domains(s)
        try:
            steps, census = plans[key]
        except KeyError:
            steps, census = plans[key] = (plan(names, key),
                                          [0] * (max_genus + 1))
        census[s.genus] += 1
        for i, holds in steps:
            if not holds(s):
                failures.append((i, s.min_generators))
    columns = ([sum(c[g] for key, (_, c) in plans.items() if key & flags)
                for g in range(max_genus + 1)]
               for flags in (~0, TRIVIAL | MAXGEN, TRIVIAL | SYMMETRIC))
    checked = [0] * len(names)
    for steps, census in plans.values():
        for i, _ in steps:
            checked[i] += sum(census)
    return (*columns, checked, failures)


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
    """The nodes of one share of the genus tree up to max_genus from the
    root start: the items of the blocks it claims, each unit built and
    walked only here.  claim() returns the number of the next block no
    share has claimed; block b holds the items numbered b * BLOCK to
    b * BLOCK + BLOCK - 1."""
    first = end = 0
    for n, (s, a) in enumerate(_items(max_genus, start)):
        if n == end:
            first = claim() * BLOCK
            end = first + BLOCK
        if n < first:
            continue
        if a is None:
            yield s
        else:
            yield from tree.walk(max_genus, _remove_generator(s, a))


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
        parts = [_tally(tree.walk(max_genus, start), max_genus, names)]
    else:
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
