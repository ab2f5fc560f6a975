"""Per-layer probes: each one times a single layer of numsgp on its own.

The probes run untraced, after the workload, in every --trace 1 run.
Timings are medians of a few repeats; every probe input is fixed or drawn
from the run's seed.
"""

from __future__ import annotations

import copy
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

#: Three-generator inputs of growing multiplicity: the from_generators
#: scaling curve (the largest is the ROADMAP's <1009,1013,1019>).
CURVE = ((127, 131, 137), (251, 257, 263), (503, 509, 521),
         (1009, 1013, 1019))

#: Genus of the per-property evaluation probes: about 7k nodes, so one
#: single-property campaign takes about a tenth of a second.
EVAL_GENUS = 15

#: Genus of the cache-cold Apery / pseudo-Frobenius probes.
NODE_GENUS = 15

#: maxgen entry points timed one call at a time.
MAXGEN_FNS = ("reflected_gap_report", "canonical_ideal", "wilf_report",
              "close_largest_gap", "to_symmetric", "from_symmetric")


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def calib_ms() -> float:
    """A fixed pure-Python loop: tracks machine speed, not the program."""
    def loop():
        x = 0
        for i in range(200000):
            x += i * i % 7
        return x
    return _median_s(loop, 3) * 1e3


def walk_nodes_per_s(tree, genus: int) -> float:
    nodes = sum(1 for _ in tree.walk(genus))
    return nodes / _median_s(lambda: sum(1 for _ in tree.walk(genus)), 3)


def from_generators_ms(core) -> dict:
    return {"core.from_generators_ms.a1_%d" % gens[0]:
            _median_s(lambda: core.from_generators(gens), 3) * 1e3
            for gens in CURVE}


def cache_cold_us(tree) -> dict:
    """Apery set and PF per node on freshly walked nodes (empty caches)."""
    out = {}
    for method in ("apery_set", "pseudo_frobenius"):
        times = []
        for _ in range(3):
            nodes = [s for s in tree.walk(NODE_GENUS) if s.genus > 0]
            calls = [getattr(s, method) for s in nodes]
            start = perf_counter()
            for call in calls:
                call()
            times.append((perf_counter() - start) / len(nodes))
        out["core.%s_us" % method] = statistics.median(times) * 1e6
    return out


def eval_us(campaign, properties) -> dict:
    """Per-property evaluation cost per visited node: a single-property
    campaign minus the walk-only campaign, over the nodes visited.

    The divisor is the visited count, not `checked`: nine properties apply
    to at most 693 of the 6,964 nodes (wilf_equality to 29), so a
    millisecond of noise in the difference would read as microseconds to
    tens of microseconds per checked node.  Both sides take the fastest of
    seven interleaved passes: noise only ever adds time.
    """
    times: dict = {p: [] for p in properties}
    base = []
    for _ in range(7):
        start = perf_counter()
        report = campaign.run_campaign(EVAL_GENUS, [], 1)
        base.append(perf_counter() - start)
        for p in properties:
            start = perf_counter()
            campaign.run_campaign(EVAL_GENUS, [p], 1)
            times[p].append(perf_counter() - start)
    walk = min(base)
    return {"campaign.eval_us.%s" % p:
            (min(times[p]) - walk) / report.total * 1e6 for p in properties}


def pool_startup_ms(campaign) -> float:
    """A jobs-2 campaign at genus 2: two one-node work units."""
    return _median_s(lambda: campaign.run_campaign(2, ["wilf"], 2), 5) * 1e3


def maxgen_us(core, maxgen, maxgen_gens: list, symmetric_gens: list) -> dict:
    """Per-call cost of each maxgen entry point on fresh semigroups."""
    mg = [core.from_generators(g) for g in maxgen_gens]
    sym = [core.from_generators(g) for g in symmetric_gens]
    out = {}
    for name in MAXGEN_FNS:
        fn = getattr(maxgen, name)
        base = sym if name == "from_symmetric" else mg
        times = []
        for _ in range(3):
            # copies start with empty Apery / gap / PF caches
            fresh = [copy.copy(s) for s in base for _ in range(20)]
            start = perf_counter()
            for s in fresh:
                fn(s)
            times.append((perf_counter() - start) / len(fresh))
        out["maxgen.%s_us" % name] = statistics.median(times) * 1e6
    return out


def _subprocess_s(argv: list, env: dict, cwd) -> tuple:
    start = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=True)
    elapsed = perf_counter() - start
    return elapsed, proc.stdout


def program_env(root) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


IMPORT_ARGV = [sys.executable, "-c", "import numsgp.cli"]


def import_s(root, repeats: int, clock) -> list:
    """Times of fresh interpreters importing numsgp.cli: the CPU time of
    each, which leaves out time the hypervisor took, scaled to the
    reference host speed."""
    env = program_env(root)
    _subprocess_s(IMPORT_ARGV, env, root)  # writes the bytecode caches
    timings = []
    with clock.running():
        for _ in range(repeats):
            before = _children_cpu_s()
            _, (start, end, _, _) = clock.time(_subprocess_s, IMPORT_ARGV,
                                               env, root)
            timings.append((start, end, _children_cpu_s() - before, None))
    return [clock.scaled(t) for t in timings]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_ms(root) -> dict:
    """Import of numsgp.cli minus a bare interpreter start, and the cold
    start of `numsgp info 3,5,7` in a fresh interpreter."""
    env = program_env(root)
    bare, imported, cold = [], [], []
    for _ in range(5):
        bare.append(_subprocess_s([sys.executable, "-c", "pass"],
                                  env, root)[0])
        imported.append(_subprocess_s(IMPORT_ARGV, env, root)[0])
        elapsed, out = _subprocess_s(
            [sys.executable, "-m", "numsgp.cli", "info", "3,5,7"], env, root)
        record = json.loads(out)
        if record["result"]["frobenius"] != 4:
            raise RuntimeError("numsgp info 3,5,7 gave %r" % record)
        cold.append(elapsed)
    return {
        "cli.import_ms": (statistics.median(imported)
                          - statistics.median(bare)) * 1e3,
        "cli.cold_start_ms": statistics.median(cold) * 1e3,
    }
