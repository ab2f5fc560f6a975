#!/usr/bin/env python3
"""Benchmark of numsgp: campaign throughput at jobs 1 and 2, single-query
latency, and per-layer costs.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; numsgp is imported from the checkout's
src/ directory and the oracle from tests/subset_oracle.py.  Each run repeats
whole rounds of the workload's operations until --seconds have passed (and
at least a minimum number of rounds), checks every output, and prints as
its last line one JSON object with correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Workloads, metrics and reference figures are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import layers  # noqa: E402  (bench/ is sys.path[0] when run as a script)
from checks import (Mismatch, check_campaign, check_record,  # noqa: E402
                    check_same_report, load_oracle)
from clock import Clock  # noqa: E402
from inputs import PROPERTIES, Inputs  # noqa: E402
from spans import Tracer, span_cost_ns  # noqa: E402

#: verify workloads: campaign genus, properties, `check` queries per round
#: (the single-query counterpart of the campaign's properties), and the
#: fewest rounds, so that each wall-time median has at least five passes.
#: The work of the seeded `check` inputs varies from seed to seed: the sum
#: of the query times had a coefficient of variation of 5.7% over eight
#: seeds with 130 all-property queries, 2.0% with 520, and 1.5% with 120
#: `check wilf` queries.
VERIFY = {
    "verify-all": (19, "all", 520, 5),
    "verify-walk": (21, ("wilf",), 120, 5),
}

#: queries workload, per round: one small `verify --jobs 1` and `--jobs 2`
#: each at QUERY_VERIFY_GENUS, in alternating order; then, in a seeded
#: order, small `info`, two-generator `info`, large three-generator `info`
#: and `check wilf` on the first large inputs; then, in a seeded order,
#: small `check` queries cycling through the properties.  The verify calls
#: always follow a small query, so their neighbours do not depend on the
#: seed.
QUERY_MIX = {"check": 60, "small": 12, "pair": 8, "large": 12, "large_wilf": 4}
QUERY_VERIFY_GENUS = 16
QUERY_MIN_ROUNDS = 3

#: Fresh-interpreter imports timed per run for setup_s.
SETUP_REPEATS = 9

LAYERS = ("campaign", "cli", "core", "maxgen")


def load_program():
    """Import numsgp from the checkout; exit non-zero when it is absent."""
    if not (ROOT / "src" / "numsgp" / "__init__.py").is_file():
        sys.exit("error: no numsgp sources under %s" % (ROOT / "src"))
    if not (ROOT / "tests" / "subset_oracle.py").is_file():
        sys.exit("error: no tests/subset_oracle.py under %s" % ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numsgp
    from numsgp import campaign, cli, core, maxgen, tree
    if Path(numsgp.__file__).resolve().parent != ROOT / "src" / "numsgp":
        sys.exit("error: numsgp imported from %s" % numsgp.__file__)
    return argparse.Namespace(campaign=campaign, cli=cli, core=core,
                              maxgen=maxgen, tree=tree)


class Session:
    """Runs operations, times them, checks their outputs, and counts."""

    def __init__(self, nm, clock: Clock | None = None):
        self.nm = nm
        self.clock = clock or Clock()
        self.round = 0
        self.latency: list = []          # (timing, round) per query
        self.wall = {1: [], 2: []}       # timings of campaigns, by jobs
        self.nodes = 0
        self.timings: list = []          # every timed call, in order
        self.attempted = 0
        self.failed = 0
        self.errors: list = []           # failed operations
        self.mismatches: list = []       # outputs that failed a check
        self._verified: dict = {}

    def _timed(self, fn, *args):
        result, timing = self.clock.time(fn, *args)
        self.timings.append(timing)
        return result, timing

    def _same_as_verified(self, key, output, verify) -> None:
        """Check output fully the first time, by equality afterwards."""
        if key in self._verified:
            if output != self._verified[key]:
                raise Mismatch("output of %s changed between rounds" % (key,))
        else:
            verify()
            self._verified[key] = output

    def query(self, argv: list, expected: dict | None = None,
              campaign_args: tuple | None = None) -> None:
        """One in-process `numsgp <argv>` call with stdout captured."""
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code, timing = self._timed(self.nm.cli.main, argv)
        except Exception as exc:  # a crash is a failed operation
            self.failed += 1
            self.errors.append("%s raised %r" % (" ".join(argv), exc))
            return
        if code != 0:
            self.failed += 1
            self.errors.append("%s exited %d" % (" ".join(argv), code))
            return
        text = buf.getvalue()
        try:
            if campaign_args is None:
                self.latency.append((timing, self.round))
                self._same_as_verified(
                    tuple(argv), text,
                    lambda: check_record(code, text, argv, expected()
                                         if callable(expected) else expected))
            else:
                report = json.loads(text)
                report.pop("wall_time")
                self._campaign_done(report, timing, *campaign_args)
        except (Mismatch, ValueError, KeyError) as exc:
            self.mismatches.append(str(exc))

    def campaign(self, genus: int, properties, jobs: int) -> None:
        """One run_campaign pass."""
        self.attempted += 1
        try:
            report, timing = self._timed(self.nm.campaign.run_campaign,
                                         genus, properties, jobs)
        except Exception as exc:
            self.failed += 1
            self.errors.append("run_campaign(%d, %r, %d) raised %r"
                               % (genus, properties, jobs, exc))
            return
        try:
            self._campaign_done(report.to_json_dict(include_wall_time=False),
                                timing, genus, properties, jobs)
        except Mismatch as exc:
            self.mismatches.append(str(exc))

    def _campaign_done(self, report: dict, timing: tuple, genus: int,
                       properties, jobs: int) -> None:
        self.wall[jobs].append(timing)
        self.nodes = sum(report["counts_by_genus"])
        names = PROPERTIES if properties == "all" else tuple(properties)
        key = ("campaign", genus, names)
        if key in self._verified:
            check_same_report(self._verified[key], report)
        else:
            check_campaign(report, genus, names)
            self._verified[key] = report


def build_rounds(workload: str, seed: int, inputs: Inputs):
    """(function of the round number giving its operations, min rounds)."""
    if workload in VERIFY:
        genus, properties, n_checks, min_rounds = VERIFY[workload]
        names = PROPERTIES if properties == "all" else properties
        checks = [inputs.check_query(names[i % len(names)])
                  for i in range(n_checks)]

        def ops(r):
            order = (1, 2) if (r + seed) % 2 == 0 else (2, 1)
            out = [("campaign", genus, properties, jobs) for jobs in order]
            return out + [("query", argv, exp) for argv, exp in checks]
        return ops, min_rounds

    checks = [("query",) + inputs.check_query(PROPERTIES[i % len(PROPERTIES)])
              for i in range(QUERY_MIX["check"])]
    infos = []
    for kind in ("small", "pair"):
        infos += [("query",) + inputs.info_query(kind)
                  for _ in range(QUERY_MIX[kind])]
    large = [inputs.info_query("large") for _ in range(QUERY_MIX["large"])]
    infos += [("query",) + q for q in large]
    infos += [("query",) + inputs.wilf_of(argv)
              for argv, _ in large[:QUERY_MIX["large_wilf"]]]
    inputs.shuffle(checks)
    inputs.shuffle(infos)
    verify = {}
    for jobs in (1, 2):
        argv = ["verify", "--max-genus", str(QUERY_VERIFY_GENUS),
                "--properties", "all", "--jobs", str(jobs), "--json"]
        verify[jobs] = ("verify", argv, jobs)

    def ops(r):
        order = (1, 2) if (r + seed) % 2 == 0 else (2, 1)
        return [verify[jobs] for jobs in order] + infos + checks
    return ops, QUERY_MIN_ROUNDS


def run_op(session: Session, op: tuple) -> None:
    if op[0] == "campaign":
        session.campaign(*op[1:])
    elif op[0] == "query":
        session.query(op[1], op[2])
    else:
        session.query(op[1], campaign_args=(QUERY_VERIFY_GENUS, "all",
                                            op[2]))


def measure(session: Session, ops, seconds: float, min_rounds: int) -> int:
    """Run whole rounds until the time is up and min_rounds are done."""
    deadline = perf_counter() + seconds
    rounds = 0
    with session.clock.running():
        while rounds < min_rounds or perf_counter() < deadline:
            session.round = rounds
            for op in ops(rounds):
                run_op(session, op)
            rounds += 1
    return rounds


def scaled_times(session: Session) -> tuple:
    """Query latencies, queries per second of query time in each round,
    and campaign wall times by jobs, all at the reference host speed."""
    scaled = session.clock.scaled
    lat, by_round = [], defaultdict(list)
    for timing, rnd in session.latency:
        lat.append(scaled(timing))
        by_round[rnd].append(lat[-1])
    rates = [len(done) / sum(done) for done in by_round.values()]
    wall = {jobs: [scaled(w) for w in session.wall[jobs]] for jobs in (1, 2)}
    return lat, rates, wall


def raw_medians(session: Session) -> str:
    """The unscaled medians, printed for a reader beside the result."""
    timings = (("wall_j1", session.wall[1]), ("wall_j2", session.wall[2]),
               ("query", [t for t, _ in session.latency]))
    parts = ["%s %.4f s" % (name, statistics.median(end - start
                                                    for start, end, *_ in ts))
             for name, ts in timings if ts]
    return "raw medians: %s; %s" % (", ".join(parts),
                                     session.clock.summary())


def end_to_end(session: Session, setup: list) -> dict:
    lat, rates, wall = scaled_times(session)
    j1 = statistics.median(wall[1])
    j2 = statistics.median(wall[2])
    return {
        "wall_s_j1": (j1, "s"),
        "wall_s_j2": (j2, "s"),
        "nodes_per_s_j1": (session.nodes / j1, "1/s"),
        "nodes_per_s_j2": (session.nodes / j2, "1/s"),
        "query_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "query_ms_p90": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "queries_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def patch_targets(nm) -> list:
    """The public calls wrapped in spans during traced rounds.

    run_campaign is one opaque span (muted inside, and its workers are not
    traced); inside cli.main the spans cover the constructor, the
    Semigroup invariants and the maxgen entry points cli calls.  The first
    two targets are the only ones patched around a campaign: a muted span
    still costs a call, and a campaign makes millions of them.
    """
    targets = [(nm.cli, "main", "cli.main", False),
               (nm.campaign, "run_campaign", "campaign.run_campaign", True),
               (nm.cli, "from_generators", "core.from_generators", False)]
    for method in ("gaps", "sporadic_elements", "apery_set",
                   "pseudo_frobenius"):
        targets.append((nm.core.Semigroup, method,
                        "core.Semigroup." + method, False))
    for fn in ("wilf_report", "reflected_gap_report", "canonical_ideal",
               "reflection_map", "to_symmetric", "from_symmetric",
               "frobenius_formula_check", "pf_formula_check",
               "close_largest_gap", "distinguished_set_for_closed",
               "genus_lower_bound_check", "maxgen_inequality_chain",
               "is_max_generated"):
        targets.append((nm.maxgen, fn, "maxgen." + fn, False))
    return targets


def traced_run(nm, session: Session, tracer: Tracer, ops, seconds: float,
               workload: str, seed: int, inputs: Inputs):
    """The workload with every other operation traced, then the probes.

    Operation i of round r is traced when i + r + seed is even, so over an
    even number of rounds each operation runs as often traced as untraced,
    close together in time; the overhead compares the two sums of times
    scaled to the reference host speed (bench/clock.py).
    """
    targets = patch_targets(nm)
    timings = {True: [], False: []}
    deadline = perf_counter() + seconds
    rounds = 0
    with session.clock.running():
        while rounds < 2 or rounds % 2 or perf_counter() < deadline:
            for i, op in enumerate(ops(rounds)):
                traced = (i + rounds + seed) % 2 == 0
                before = len(session.timings)
                patch = targets if op[0] == "query" else targets[:2]
                with (tracer.patched(patch) if traced
                      else contextlib.nullcontext()):
                    run_op(session, op)
                timings[traced] += session.timings[before:]
            rounds += 1
    traced_rounds = rounds / 2

    op_time = {traced: sum(map(session.clock.scaled, ts))
               for traced, ts in timings.items()}
    by_name = tracer.self_times()
    total = sum(ns for ns, _ in by_name.values())
    by_layer = {layer: 0 for layer in LAYERS}
    for name, (ns, _) in by_name.items():
        by_layer[name.split(".", 1)[0]] += ns
    metrics = {
        "trace.overhead_pct": ((op_time[True] - op_time[False])
                               / op_time[False] * 100, "%"),
        "trace.span_cost_us": (span_cost_ns() / 1e3, "us"),
    }
    for layer in LAYERS:
        metrics["self_ms_per_round." + layer] = (
            by_layer[layer] / traced_rounds / 1e6, "ms")

    print("self time by span over %d rounds, half of them traced:" % rounds)
    for name, (ns, count) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
        print("  %-36s %10.1f ms %6d spans %5.1f%%"
              % (name, ns / 1e6, count, ns / total * 100))

    probes = layer_probes(nm, session, workload, inputs)
    for name, value in probes.items():
        metrics[name] = value
    tracer.dump(OUT / ("trace-%s-seed%d.json" % (workload, seed)),
                {"workload": workload, "seed": seed, "self_ns": by_name})
    return metrics


def layer_probes(nm, session: Session, workload: str, inputs: Inputs) -> dict:
    genus = VERIFY[workload][0] if workload in VERIFY else QUERY_VERIFY_GENUS
    _, _, wall = scaled_times(session)
    j1 = statistics.median(wall[1])
    j2 = statistics.median(wall[2])
    maxgen_gens = [inputs.maxgen()[0] for _ in range(12)]
    symmetric_gens = [inputs.symmetric()[0] for _ in range(12)]
    out = {
        "tree.walk_nodes_per_s": (layers.walk_nodes_per_s(nm.tree, genus),
                                  "1/s"),
        "campaign.speedup_j2": (j1 / j2, "ratio"),
        "campaign.pool_startup_ms": (layers.pool_startup_ms(nm.campaign),
                                     "ms"),
    }
    found = {}
    found.update(layers.from_generators_ms(nm.core))
    found.update(layers.cache_cold_us(nm.tree))
    found.update(layers.eval_us(nm.campaign, PROPERTIES))
    found.update(layers.maxgen_us(nm.core, nm.maxgen, maxgen_gens,
                                  symmetric_gens))
    found.update(layers.cli_ms(ROOT))
    for name, value in found.items():
        out[name] = (value, "ms" if "_ms" in name else "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(VERIFY) + ["queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nm = load_program()
    oracle = load_oracle(ROOT)
    calib = layers.calib_ms()
    clock = Clock()
    setup = [] if args.trace else layers.import_s(ROOT, SETUP_REPEATS, clock)
    inputs = Inputs(args.seed, oracle)
    ops, min_rounds = build_rounds(args.workload, args.seed, inputs)

    session = Session(nm, clock)
    if args.trace:
        metrics = traced_run(nm, session, Tracer(), ops, args.seconds / 2,
                             args.workload, args.seed, inputs)
        metrics["host.calib_ms"] = (calib, "ms")
    else:
        rounds = measure(session, ops, args.seconds, min_rounds)
        metrics = end_to_end(session, setup)
        lat = scaled_times(session)[0]
        p90 = statistics.quantiles(lat, n=10)[-1]
        print("rounds %d, queries %d (%d beyond p90), campaigns %d + %d, "
              "host.calib_ms %.2f"
              % (rounds, len(lat), sum(1 for x in lat if x > p90),
                 len(session.wall[1]), len(session.wall[2]), calib))
        print(raw_medians(session))

    for err in (session.errors + session.mismatches)[:10]:
        print("error: %s" % err, file=sys.stderr)
    result = {
        "correct": not session.mismatches,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
