"""A catalog of mutations of numsgp, each with the tests that must kill it.

Run from the root of a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each entry of MUTANTS is (file, old text, new text, test ids).  The runner
first checks that every old text occurs exactly once in its file and that
the named tests pass on an unmutated copy.  Then, for each mutant, it
copies src/ and tests/ to a temporary directory, replaces the old text
with the new one there, and runs the named tests with pytest; every one of
them must fail.  It exits 1 if a mutant survives any of its tests, if an
old text has gone stale, or if a test fails unmutated, and 0 otherwise.
pytest does not collect this file.  A change that mends a fault adds its
mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = {
    # the Apery mask read off the gap mask shifted by m - 1, not m
    "apery shifted by m - 1": (
        "src/numsgp/core.py",
        "ap = gaps << s.multiplicity",
        "ap = gaps << (s.multiplicity - 1)",
        ["tests/test_core.py::test_carried_pf_mask_matches_subset_oracle",
         "tests/test_maxgen.py::test_reflected_gap_report"]),
    # the reflection n -> 2g + 1 - n read as n -> 2g - n off the mirror
    "mirror shift off by one": (
        "src/numsgp/properties.py",
        "s.mirror << (top + 1 - c) == members",
        "s.mirror << (top - c) == members",
        ["tests/test_core.py::test_carried_pf_mask_matches_subset_oracle",
         "tests/test_core.py::test_masks_of_a_built_semigroup[2,3]"]),
    # the PF recurrence keeps p with a - p in S
    "PF recurrence without its member filter": (
        "src/numsgp/core.py",
        "child._mirrored_pf_bits = ((pf << (a + 1 - c)) & gaps) | 1",
        "child._mirrored_pf_bits = (pf << (a + 1 - c)) | 1",
        ["tests/test_core.py::test_carried_masks_match_recomputed_ones",
         "tests/test_core.py::test_carried_pf_mask_matches_subset_oracle"]),
    # a + m joins the generators exactly when it is not minimal
    "minimality test inverted": (
        "src/numsgp/core.py",
        "& below == below:",
        "& below != below:",
        ["tests/test_tree.py::test_children_examples",
         "tests/test_core.py::test_tree_steps_match_from_generators"]),
    # bits of the child's mirror at t and above enter the minimality test
    "minimality test without & below": (
        "src/numsgp/core.py",
        "if (gaps | (mirror << m) | 1) & below == below:",
        "if gaps | (mirror << m) | 1 == below:",
        ["tests/test_campaign.py::test_broken_carried_mirror_is_caught"]),
    # the runs of gaps below each Apery entry doubled upwards
    "gap doubling shifted up": (
        "src/numsgp/core.py",
        "mask |= mask >> step",
        "mask |= mask << step",
        ["tests/test_core.py::test_tree_steps_match_from_generators",
         "tests/test_core.py::test_construction_against_oracle"]),
    # the parent S union {F} keeps F as a gap
    "parent step keeps F as a gap": (
        "src/numsgp/core.py",
        "gaps = s.gap_mask ^ (1 << f)",
        "gaps = s.gap_mask",
        ["tests/test_core.py::test_tree_steps_match_from_generators",
         "tests/test_maxgen.py::test_from_symmetric"]),
    # the PF mask tests the gaps p - a, not p + a
    "PF mask shifts the gaps up": (
        "src/numsgp/core.py",
        "hit |= gaps >> a",
        "hit |= gaps << a",
        ["tests/test_campaign.py::test_all_properties_pass_exhaustively",
         "tests/test_campaign.py::test_verify_golden_report[16-all]"]),
    # the child step never adds the new generator a + m
    "a + m candidate dropped": (
        "src/numsgp/core.py",
        "            gens += (t,)\n",
        "            pass\n",
        ["tests/test_tree.py::test_children_examples",
         "tests/test_tree.py::test_counts_by_genus"]),
    "M2 and M_AT_LEAST_3 swapped": (
        "src/numsgp/properties.py",
        "(M2 if m == 2 else M_AT_LEAST_3)",
        "(M_AT_LEAST_3 if m == 2 else M2)",
        ["tests/test_campaign.py::test_every_applicable_check_ran",
         "tests/test_campaign.py::test_tallies_match_oracle"]),
    "domains() tests g2 + 3 for MAXGEN": (
        "src/numsgp/properties.py",
        "s.min_generators[-1] == g2 + 1",
        "s.min_generators[-1] == g2 + 3",
        ["tests/test_campaign.py::test_tallies_match_oracle",
         "tests/test_tree.py::test_largest_generator_bound"]),
    # the non-minimal offsets toggled instead of cleared
    "canonical offsets keep non-offsets": (
        "src/numsgp/maxgen.py",
        "return k ^ (k & nonmin)",
        "return k ^ nonmin",
        ["tests/test_maxgen.py::test_canonical_offsets_match_pf_reflection",
         "tests/test_maxgen.py::test_reflection_masks_match_subset_oracle"]),
    # closed_gap_wilf no longer checks Wilf's inequality on T
    "Wilf clause of closed_gap_wilf dropped": (
        "src/numsgp/properties.py",
        "    if not t.is_trivial and not maxgen._wilf_holds(t):\n",
        "    if False:\n",
        ["tests/test_campaign.py::"
         "test_broken_closed_gap_clause_is_caught[wilf_on_t]"]),
    # closed_gap_wilf no longer checks that T has genus g - 1
    "genus clause of closed_gap_wilf dropped": (
        "src/numsgp/properties.py",
        "t.genus == s.genus - 1 and ",
        "",
        ["tests/test_campaign.py::"
         "test_broken_closed_gap_clause_is_caught[genus]"]),
    # closed_gap_wilf no longer checks F(T) < a_e - a_1
    "Frobenius clause of closed_gap_wilf dropped": (
        "src/numsgp/properties.py",
        " and t.frobenius < ae - a1",
        "",
        ["tests/test_campaign.py::"
         "test_broken_closed_gap_clause_is_caught[frobenius]"]),
    # Ap(S) minus {0, f + m} keeps f + m
    "f + m left in the Apery side": (
        "src/numsgp/maxgen.py",
        "ap = _apery_mask(s) ^ 1 ^ (1 << (f + m))",
        "ap = _apery_mask(s) ^ 1",
        ["tests/test_maxgen.py::test_reflected_gap_report",
         "tests/test_cli.py::test_check_domain_sweep"]),
}


def _copy(into: Path) -> None:
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, into / sub, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache"))


def _run(tree: Path, ids: list) -> dict:
    """Run the test ids in tree; {id: passed} for each test pytest ran."""
    report = tree / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "--junitxml", str(report), *ids],
                   cwd=tree, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=600)
    if not report.exists():
        return {}
    out = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        module, _, name = case.get("classname").rpartition(".")
        test_id = "%s/%s.py::%s" % (module.replace(".", "/"), name,
                                    case.get("name"))
        out[test_id] = not any(case.find(tag) is not None
                               for tag in ("failure", "error", "skipped"))
    return out


def _mutate(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    target.write_text(target.read_text().replace(old, new))


def main(argv: list) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print("unknown mutants: %s" % ", ".join(unknown))
        return 2
    bad = []
    for name in names:
        path, old, _, _ = MUTANTS[name]
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            bad.append("%s: old text occurs %d times in %s"
                       % (name, found, path))
    ids = sorted({i for n in names for i in MUTANTS[n][3]})
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        results = _run(tree, ids)
    for i in ids:
        if not results.get(i):
            bad.append("unmutated: %s %s" % (
                i, "does not pass" if i in results else "did not run"))
    if bad:
        print("\n".join(bad))
        return 1
    for name in names:
        path, old, new, tests = MUTANTS[name]
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy(tree)
            _mutate(tree, path, old, new)
            results = _run(tree, tests)
        alive = [i for i in tests if results.get(i) is not False]
        print("%-45s %s" % (name, "survived " + ", ".join(alive) if alive
                            else "killed"))
        if alive:
            bad.append(name)
    print("%d of %d mutants killed in %.1f s"
          % (len(names) - len(bad), len(names), time.perf_counter() - start))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
