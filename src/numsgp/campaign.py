"""Exhaustive verification campaigns over the genus tree.

A campaign walks every numerical semigroup up to a genus bound and runs a
selection of named checks on each node.  It is one fold: _tally counts
any iterable of semigroups by genus and runs the checks on each.  The walk
is split at a fixed frontier genus; the nodes below it make one part, and
each frontier subtree makes another, tallied in this process or by a
process pool with the same function.  The parts are summed column-wise
once, so the report is byte-identical for any worker count, and failures
carry the minimal generator list of the offending semigroup as a witness.

The checks themselves, and the names accepted by run_campaign and the CLI,
are the rows of :mod:`numsgp.properties`.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

from . import tree
from .core import Semigroup
from .errors import BoundTooLarge, UnknownProperty
from .properties import (DOMAIN_KEYS, MAXGEN, PROPERTIES, ROWS, SYMMETRIC,
                         TRIVIAL, correspondence_count_failures, domains)

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


def _tally(nodes, max_genus: int, names: tuple[str, ...]) -> tuple:
    """Tally an iterable of semigroups of genus <= max_genus and run the
    checks of names that apply to each.

    Returns (counts, mg, sym, checked, failures): the per-genus counts of
    all nodes, of the a_e = 2g + 1 ones and of the symmetric ones; how many
    nodes each of names applied to; and (position in names, witness) pairs.
    The trivial semigroup is tallied as both a_e = 2g + 1 (1 = 2*0 + 1) and
    symmetric (F + 1 = 0 = 2g).
    """
    index = {name: i for i, name in enumerate(names)}
    rows = [(index[r.name], r.domain, r.applies, r.holds)
            for r in ROWS if r.name in index]
    plan = {key: tuple((i, applies, holds)
                       for i, domain, applies, holds in rows if domain & key)
            for key in DOMAIN_KEYS}
    n = max_genus + 1
    counts = [0] * n
    mg = [0] * n
    sym = [0] * n
    checked = [0] * len(names)
    failures: list = []
    for s in nodes:
        key = domains(s)
        g = s.genus
        counts[g] += 1
        if key & (TRIVIAL | MAXGEN):
            mg[g] += 1
        if key & (TRIVIAL | SYMMETRIC):
            sym[g] += 1
        for i, applies, holds in plan[key]:
            if applies is None or applies(s):
                checked[i] += 1
                if not holds(s):
                    failures.append((i, s.min_generators))
    return counts, mg, sym, checked, failures


def _subtree(max_genus: int, names: tuple[str, ...],
             start: Semigroup) -> tuple:
    """The tally of the subtree rooted at start.  Pool workers get the
    property names, not the plan: pickling the plan's functions for every
    work unit costs more than building the plan again."""
    return _tally(tree.walk(max_genus, start), max_genus, names)


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
        if name not in PROPERTIES:
            raise UnknownProperty(
                "unknown property %r; known: %s"
                % (name, ", ".join(PROPERTIES)))
        requested.add(name)
    return tuple(p for p in PROPERTIES if p in requested)


def run_campaign(max_genus: int, properties="all", jobs: int = 1) -> CampaignReport:
    """Check the selected properties on every semigroup of genus <= max_genus.

    jobs > 1 distributes frontier subtrees over a process pool of at most
    one worker per subtree; the report (wall time aside) does not depend on
    the worker count.
    """
    if max_genus < 0:
        raise ValueError("max_genus must be nonnegative")
    if max_genus > tree.MAX_GENUS:
        raise BoundTooLarge("genus bound %d exceeds the supported depth %d"
                            % (max_genus, tree.MAX_GENUS))
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    names = resolve_properties(properties)

    t0 = time.perf_counter()
    split = min(max_genus, SPLIT_GENUS)
    top = list(tree.walk(split))
    roots = [s for s in top if s.genus == split]
    parts = [_tally((s for s in top if s.genus < split), max_genus, names)]
    task = partial(_subtree, max_genus, names)
    workers = min(jobs, len(roots))
    if workers == 1:
        parts.extend(map(task, roots))
    else:
        # workers ignore Ctrl-C; the parent's KeyboardInterrupt ends the pool
        with Pool(workers, signal.signal,
                  (signal.SIGINT, signal.SIG_IGN)) as pool:
            parts.extend(pool.map(task, roots, chunksize=1))
    columns = list(zip(*parts))
    counts, mg, sym, checked = ([sum(c) for c in zip(*column)]
                                for column in columns[:4])
    failures = [f for part in columns[4] for f in part]

    if "correspondence" in names:
        failures.extend((names.index("correspondence"), (g,))
                        for g in correspondence_count_failures(mg, sym))

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
