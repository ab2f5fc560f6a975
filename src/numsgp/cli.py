"""Command-line front end.

Subcommands: info (invariants of one semigroup), check (one named property
on one semigroup), construct (the derived-semigroup constructions), verify
(exhaustive campaigns over the genus tree).  Records go to stdout as JSON
lines by default; --format switches to table or csv, see FORMATS.md.  Exit
codes: 0 pass, 1 property failure, 2 usage error, 3 invalid semigroup,
4 precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import campaign, maxgen
from .core import Semigroup, from_generators
from .errors import (
    CampaignConfigError,
    InvalidSemigroupInput,
    PreconditionViolation,
)

SCHEMA_VERSION = "1"


class ParseFailure(Exception):
    """Bad command-line input; maps to exit code 2."""


def _parse_gens(text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if parts and parts[-1] == "":
        parts.pop()
    if not parts:
        raise ParseFailure("empty generator list")
    out = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise ParseFailure("not an integer: %r" % p) from None
        if v < 1:
            raise ParseFailure("generators must be positive, got %d" % v)
        out.append(v)
    return out


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _record(command: str, input_gens, result, provenance: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": list(input_gens),
        "result": result,
        "provenance": provenance,
    }


def _emit(record: dict, fmt: str) -> None:
    if fmt == "jsonl":
        print(json.dumps(record, separators=(", ", ": ")))
    elif fmt == "table":
        print("command: %s" % record["command"])
        print("input: %s" % ",".join(map(str, record["input"])))
        result = record["result"]
        if isinstance(result, dict):
            for k, v in result.items():
                print("%s: %s" % (k, json.dumps(v)))
        else:
            print("result: %s" % json.dumps(result))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["field", "value"])
        result = record["result"]
        items = result.items() if isinstance(result, dict) \
            else [("result", result)]
        for k, v in items:
            w.writerow([k, json.dumps(v)])
    else:
        raise ParseFailure("unknown format %r" % fmt)


def _wilf_result(s: Semigroup) -> dict:
    r = maxgen.wilf_report(s)
    return {
        "e": r.e, "g": r.g, "f": r.f, "m": r.m,
        "lhs": _frac(r.lhs), "rhs": _frac(r.rhs), "margin": _frac(r.margin),
        "holds": r.holds, "count_form_holds": r.count_form_holds,
    }


def cmd_info(gens: list[int]) -> dict:
    s = from_generators(gens)
    trivial = s.is_trivial
    result = {
        "min_generators": list(s.min_generators),
        "multiplicity": s.multiplicity,
        "embedding_dimension": s.embedding_dimension,
        "genus": s.genus,
        "frobenius": s.frobenius,
        "conductor": s.conductor,
        "gaps": list(s.gaps()),
        "sporadic": list(s.sporadic_elements()),
        "apery": list(s.apery_set().entries),
        "pf": None if trivial else list(s.pseudo_frobenius()),
        "type": None if trivial else s.type_number(),
        "is_symmetric": None if trivial else s.is_symmetric(),
        "is_max_generated": None if trivial else maxgen.is_max_generated(s),
    }
    return _record("info", gens, result, "numsgp.core")


def _check_wilf(s):
    r = _wilf_result(s)
    return r["holds"] and r["count_form_holds"], r, "numsgp.maxgen.wilf_report"


def _check_wilf_equality(s):
    r = maxgen.wilf_report(s)
    applicable = s.multiplicity == 2 or s.frobenius == s.multiplicity - 1
    holds = (not applicable) or r.margin == 0
    return holds, {
        "applicable": applicable,
        "margin": _frac(r.margin),
        "margin_zero": r.margin == 0,
    }, "numsgp.maxgen.wilf_report"


def _check_apery_reflected_gaps(s):
    r = maxgen.reflected_gap_report(s)
    equivalent = r.cond_i == r.cond_ii == r.cond_iii
    return equivalent, {
        "cond_i": r.cond_i, "cond_ii": r.cond_ii, "cond_iii": r.cond_iii,
        "equivalent": equivalent,
        "rg_f": list(r.rg_f), "rg_f_plus_m": list(r.rg_f_plus_m),
        "apery_minus": list(r.apery_minus),
    }, "numsgp.maxgen.reflected_gap_report"


def _check_frobenius_formula(s):
    ok = maxgen.frobenius_formula_check(s)
    return ok, {
        "frobenius": s.frobenius,
        "largest_generator": s.min_generators[-1],
        "multiplicity": s.multiplicity,
        "holds": ok,
    }, "numsgp.maxgen.frobenius_formula_check"


def _check_pf_formula(s):
    ok = maxgen.pf_formula_check(s)
    ae = s.min_generators[-1]
    return ok, {
        "pf": list(s.pseudo_frobenius()),
        "expected": sorted(ae - a for a in s.min_generators[:-1]),
        "holds": ok,
    }, "numsgp.maxgen.pf_formula_check"


def _check_type(s):
    maxgen._require_max_generated(s)
    t = s.type_number()
    ok = t == s.embedding_dimension - 1
    return ok, {
        "type": t,
        "embedding_dimension": s.embedding_dimension,
        "holds": ok,
    }, "numsgp.core.type_number"


def _check_canonical_gens(s):
    ideal = maxgen.canonical_ideal(s)
    f = s.frobenius
    expected = sorted(f - p for p in s.pseudo_frobenius())
    ok = list(ideal.offsets) == expected
    return ok, {
        "offsets": list(ideal.offsets),
        "expected": expected,
        "holds": ok,
    }, "numsgp.maxgen.canonical_ideal"


def _check_reflection_bijection(s):
    pairs = maxgen.reflection_map(s)
    image = sorted(b for _, b in pairs)
    ok = image == list(s.gaps())
    return ok, {
        "pairs": [list(p) for p in pairs],
        "image": image,
        "gaps": list(s.gaps()),
        "holds": ok,
    }, "numsgp.maxgen.reflection_map"


def _check_correspondence(s):
    if not s.is_trivial and not maxgen.is_max_generated(s):
        sm = maxgen.from_symmetric(s)  # raises NotSymmetric when neither
        back = maxgen.to_symmetric(sm)
        ok = back == s and sm.genus == s.genus - 1
        return ok, {
            "direction": "from_symmetric",
            "partner": list(sm.min_generators),
            "round_trip": back == s,
            "holds": ok,
        }, "numsgp.maxgen.from_symmetric"
    sp = maxgen.to_symmetric(s)
    back = maxgen.from_symmetric(sp)
    ok = (back == s and sp.genus == s.genus + 1 and sp.is_symmetric()
          and sp.frobenius == s.min_generators[-1])
    return ok, {
        "direction": "to_symmetric",
        "partner": list(sp.min_generators),
        "round_trip": back == s,
        "holds": ok,
    }, "numsgp.maxgen.to_symmetric"


def _check_closed_gap_wilf(s):
    t = maxgen.close_largest_gap(s)
    gens = s.min_generators
    ae = gens[-1]
    ok = t.genus == s.genus - 1 and t.frobenius < ae - gens[0]
    result = {
        "closed": list(t.min_generators),
        "genus": t.genus,
        "wilf": None,
        "distinguished_set": None,
        "pf_match": None,
    }
    if not t.is_trivial:
        w = maxgen.wilf_report(t)
        ok = ok and w.holds
        result["wilf"] = _wilf_result(t)
    if ae > 2 * gens[0]:
        d = maxgen.distinguished_set_for_closed(s)
        match = list(d) == list(t.pseudo_frobenius())
        ok = ok and match and t.embedding_dimension == s.embedding_dimension
        result["distinguished_set"] = list(d)
        result["pf_match"] = match
    result["holds"] = ok
    return ok, result, "numsgp.maxgen.close_largest_gap"


def _check_sym_generators(s):
    if not s.is_symmetric():
        raise maxgen.NotSymmetric("%r is not symmetric" % (s,))
    applicable = s.multiplicity >= 3
    ok = (not applicable) or s.min_generators[-1] < s.frobenius
    return ok, {
        "applicable": applicable,
        "largest_generator": s.min_generators[-1],
        "frobenius": s.frobenius,
        "holds": ok,
    }, "numsgp.maxgen"


def _check_genus_bound(s):
    verdict = maxgen.genus_lower_bound_check(s)
    asserted = s.frobenius > s.multiplicity
    count_form = (s.embedding_dimension + s.genus
                  >= 2 * s.multiplicity - 1)
    ok = (not asserted) or (verdict and count_form)
    return ok, {
        "bound_holds": verdict,
        "count_form_holds": count_form,
        "asserted": asserted,
        "holds": ok,
    }, "numsgp.maxgen.genus_lower_bound_check"


def _check_inequality_chain(s):
    r = maxgen.maxgen_inequality_chain(s)
    ok = r.mult_form_holds and r.symmetric_form_holds and r.wilf_holds
    return ok, {
        "mult_form_holds": r.mult_form_holds,
        "symmetric_form_holds": r.symmetric_form_holds,
        "wilf_holds": r.wilf_holds,
        "holds": ok,
    }, "numsgp.maxgen.maxgen_inequality_chain"


_SINGLE_CHECKS = {
    "wilf": _check_wilf,
    "wilf_equality": _check_wilf_equality,
    "apery_reflected_gaps": _check_apery_reflected_gaps,
    "frobenius_formula": _check_frobenius_formula,
    "pf_formula": _check_pf_formula,
    "type": _check_type,
    "canonical_gens": _check_canonical_gens,
    "reflection_bijection": _check_reflection_bijection,
    "correspondence": _check_correspondence,
    "closed_gap_wilf": _check_closed_gap_wilf,
    "sym_generators": _check_sym_generators,
    "genus_bound": _check_genus_bound,
    "inequality_chain": _check_inequality_chain,
}


def cmd_check(prop: str, gens: list[int]) -> tuple[int, dict]:
    name = prop.replace("-", "_")
    if name not in _SINGLE_CHECKS:
        raise ParseFailure("unknown property %r; known: %s"
                           % (prop, ", ".join(campaign.PROPERTIES)))
    s = from_generators(gens)
    holds, result, provenance = _SINGLE_CHECKS[name](s)
    return (0 if holds else 1), _record("check:%s" % name, gens, result,
                                        provenance)


def cmd_construct(kind: str, raw: str) -> dict:
    if kind == "notiz-family":
        try:
            m, f = (int(p.strip()) for p in raw.split(","))
        except ValueError:
            raise ParseFailure(
                "notiz-family takes two integers 'm,f'") from None
        s = maxgen.notiz_family(m, f)
        result = {
            "min_generators": list(s.min_generators),
            "frobenius": s.frobenius,
            "largest_generator": s.min_generators[-1],
            "genus": s.genus,
            "is_max_generated": maxgen.is_max_generated(s),
        }
        return _record("construct:notiz-family", [m, f], result,
                       "numsgp.maxgen.notiz_family")

    gens = _parse_gens(raw)
    s = from_generators(gens)
    if kind == "to-symmetric":
        sp = maxgen.to_symmetric(s)
        result = {
            "min_generators": list(sp.min_generators),
            "genus": sp.genus,
            "frobenius": sp.frobenius,
            "multiplicity": sp.multiplicity,
            "is_symmetric": sp.is_symmetric(),
        }
        return _record("construct:to-symmetric", gens, result,
                       "numsgp.maxgen.to_symmetric")
    if kind == "from-symmetric":
        sm = maxgen.from_symmetric(s)
        result = {
            "min_generators": list(sm.min_generators),
            "genus": sm.genus,
            "frobenius": sm.frobenius,
            "is_max_generated": (None if sm.is_trivial
                                 else maxgen.is_max_generated(sm)),
        }
        return _record("construct:from-symmetric", gens, result,
                       "numsgp.maxgen.from_symmetric")
    if kind == "close-gap":
        t = maxgen.close_largest_gap(s)
        result = {
            "min_generators": list(t.min_generators),
            "embedding_dimension": t.embedding_dimension,
            "genus": t.genus,
            "frobenius": t.frobenius,
            "wilf": None if t.is_trivial else _wilf_result(t),
        }
        if s.min_generators[-1] > 2 * s.min_generators[0]:
            d = maxgen.distinguished_set_for_closed(s)
            result["distinguished_set"] = list(d)
            result["pf_match"] = list(d) == list(t.pseudo_frobenius())
        return _record("construct:close-gap", gens, result,
                       "numsgp.maxgen.close_largest_gap")
    raise ParseFailure("unknown construct kind %r" % kind)


def _print_verify_table(report: campaign.CampaignReport) -> None:
    print("genus  count  maxgen  symmetric")
    for g in range(report.max_genus + 1):
        print("%5d  %5d  %6d  %9d"
              % (g, report.counts_by_genus[g],
                 report.maxgen_counts_by_genus[g],
                 report.symmetric_counts_by_genus[g]))
    print("total  %5d" % report.total)
    print("properties: %s" % ", ".join(report.properties))
    print("checked: %s" % ", ".join("%s=%d" % kv for kv in report.checked))
    if report.passed:
        print("result: PASS (%.2fs)" % report.wall_time)
    else:
        print("result: FAIL, %d failure(s) (%.2fs)"
              % (len(report.property_failures), report.wall_time))
        for name, witness in report.property_failures:
            print("  %s: <%s>" % (name, ",".join(map(str, witness))))


def _print_verify_csv(report: campaign.CampaignReport) -> None:
    print("genus,count,maxgen_count,symmetric_count")
    for g in range(report.max_genus + 1):
        print("%d,%d,%d,%d"
              % (g, report.counts_by_genus[g],
                 report.maxgen_counts_by_genus[g],
                 report.symmetric_counts_by_genus[g]))


def cmd_verify(max_genus: int, properties, jobs: int,
               out_path: str | None, fmt: str) -> int:
    props = campaign.resolve_properties(properties)
    if not out_path:
        report = campaign.run_campaign(max_genus, props, jobs)
    else:
        # opened before the run so that a bad path fails at once; append
        # mode leaves an existing file as it was if the run does not finish,
        # and a file this call created is removed again
        created = not os.path.exists(out_path)
        try:
            fh = open(out_path, "a", encoding="utf-8")
        except OSError as exc:
            raise ParseFailure("cannot write %s: %s"
                               % (out_path, exc.strerror)) from None
        try:
            with fh:
                report = campaign.run_campaign(max_genus, props, jobs)
                fh.truncate(0)
                fh.write(report.to_json())
                fh.write("\n")
        except BaseException:
            if created:
                os.remove(out_path)
            raise
    if fmt == "jsonl":
        print(json.dumps(report.to_json_dict(), separators=(", ", ": ")))
    elif fmt == "csv":
        _print_verify_csv(report)
    else:
        _print_verify_table(report)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsgp",
        description="numerical semigroup invariants, constructions, and "
                    "exhaustive genus-tree verification")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("jsonl", "table", "csv"),
                            default=None, help="output format")
    fmt_parent.add_argument("--json", action="store_true",
                            help="shorthand for --format jsonl")

    p = sub.add_parser("info", parents=[fmt_parent],
                       help="invariants of one semigroup")
    p.add_argument("gens", help="comma-separated generators, e.g. 3,5,7")

    p = sub.add_parser("check", parents=[fmt_parent],
                       help="one named property on one semigroup")
    p.add_argument("property", help="property name; see FORMATS.md")
    p.add_argument("gens", help="comma-separated generators")

    p = sub.add_parser("construct", parents=[fmt_parent],
                       help="derived-semigroup constructions")
    p.add_argument("kind", choices=("to-symmetric", "from-symmetric",
                                    "close-gap", "notiz-family"))
    p.add_argument("args", help="generators, or 'm,f' for notiz-family")

    p = sub.add_parser("verify", parents=[fmt_parent],
                       help="exhaustive campaign over the genus tree")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--properties", default="all",
                   help="comma-separated check names, or 'all'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = "jsonl" if args.json else (args.format or "jsonl")
    try:
        if args.subcommand == "info":
            _emit(cmd_info(_parse_gens(args.gens)), fmt)
            return 0
        if args.subcommand == "check":
            code, record = cmd_check(args.property, _parse_gens(args.gens))
            _emit(record, fmt)
            return code
        if args.subcommand == "construct":
            _emit(cmd_construct(args.kind, args.args), fmt)
            return 0
        if args.subcommand == "verify":
            props = [p.strip().replace("-", "_")
                     for p in args.properties.split(",") if p.strip()]
            vfmt = "table" if args.format is None and not args.json else fmt
            return cmd_verify(args.max_genus, props or "all", args.jobs,
                              args.out, vfmt)
        raise ParseFailure("no subcommand")
    except (ParseFailure, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CampaignConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidSemigroupInput as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    except PreconditionViolation as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
