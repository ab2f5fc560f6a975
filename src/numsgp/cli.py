"""Command-line front end.

Subcommands: info (invariants of one semigroup), check (one named property
on one semigroup), construct (the derived-semigroup constructions), verify
(exhaustive campaigns over the genus tree).  Records go to stdout as JSON
lines by default; --format switches to table or csv, see FORMATS.md.  Exit
codes: 0 pass, 1 property failure, 2 usage error, 3 invalid semigroup,
4 precondition violation, 5 internal error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from functools import cache, partial

from . import campaign, maxgen, properties
from .core import _int, from_generators
from .errors import (
    CampaignConfigError,
    InvalidSemigroupInput,
    PreconditionViolation,
)

SCHEMA_VERSION = "1"


def _parse_gens(text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if parts and parts[-1] == "":
        parts.pop()
    if not parts:
        raise ValueError("empty generator list")
    out = []
    for p in parts:
        try:
            v = _int(p)
        except ValueError:
            raise ValueError("not an integer: %r" % p) from None
        if v < 1:
            raise ValueError("generators must be positive, got %d" % v)
        out.append(v)
    return out


def _record(command: str, input_gens, result, provenance: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": list(input_gens),
        "result": result,
        "provenance": provenance,
    }


def _fraction(x) -> dict:
    """The json.dumps default: an exact rational as {"num", "den"}."""
    return {"num": x.numerator, "den": x.denominator}


def _emit(record: dict, fmt: str) -> None:
    if fmt == "jsonl":
        print(json.dumps(record, default=_fraction))
    elif fmt == "table":
        print("command: %s" % record["command"])
        print("input: %s" % ",".join(map(str, record["input"])))
        for k, v in record["result"].items():
            print("%s: %s" % (k, json.dumps(v, default=_fraction)))
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["field", "value"])
        for k, v in record["result"].items():
            w.writerow([k, json.dumps(v, default=_fraction)])


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
        "apery": list(s.apery_set()),
        "pf": None if trivial else list(s.pseudo_frobenius()),
        "type": None if trivial else s.type_number(),
        "is_symmetric": None if trivial else s.is_symmetric(),
        "is_max_generated": None if trivial else maxgen.is_max_generated(s),
    }
    return _record("info", gens, result, "numsgp.core")


def cmd_check(prop: str, gens: list[int]) -> tuple[int, dict]:
    """One property's verdict and record on one semigroup; see
    numsgp.properties.check."""
    name = properties.lookup(prop)
    ok, result, provenance = properties.check(name, from_generators(gens))
    return (0 if ok else 1), _record("check:%s" % name, gens, result,
                                     provenance)


def cmd_construct(kind: str, raw: str) -> dict:
    if kind == "notiz-family":
        try:
            m, f = (_int(p.strip()) for p in raw.split(","))
        except ValueError:
            raise ValueError(
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
    # close-gap: argparse's choices admit no other kind
    t = maxgen.close_largest_gap(s)
    result = {
        "min_generators": list(t.min_generators),
        "embedding_dimension": t.embedding_dimension,
        "genus": t.genus,
        "frobenius": t.frobenius,
        "wilf": None if t.is_trivial else maxgen.wilf_report(t),
    }
    if s.min_generators[-1] > 2 * s.min_generators[0]:
        d = maxgen.distinguished_set_for_closed(s)
        result["distinguished_set"] = list(d)
        result["pf_match"] = list(d) == list(t.pseudo_frobenius())
    return _record("construct:close-gap", gens, result,
                   "numsgp.maxgen.close_largest_gap")


def _print_verify_table(report: campaign.CampaignReport) -> None:
    # each column as wide as its header or its widest per-genus entry
    columns = (("genus", range(report.max_genus + 1)),
               ("count", report.counts_by_genus),
               ("maxgen", report.maxgen_counts_by_genus),
               ("symmetric", report.symmetric_counts_by_genus))
    widths = [max(len(str(v)) for v in (name, *values))
              for name, values in columns]
    for row in zip(*([name, *values] for name, values in columns)):
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    print("total  %*d" % (widths[1], report.total))
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


def _cannot_write(path: str, exc: OSError) -> ValueError:
    return ValueError("cannot write %s: %s" % (path, exc.strerror))


def _is_std_stream(st: os.stat_result) -> bool:
    """Whether st is the file open on fd 1 or fd 2; a closed fd is not."""
    for fd in (1, 2):
        try:
            if os.path.samestat(st, os.fstat(fd)):
                return True
        except OSError:
            pass
    return False


def cmd_verify(max_genus: int, selection, jobs: int,
               out_path: str | None) -> campaign.CampaignReport:
    props = properties.resolve(selection)
    if out_path is None:
        report = campaign.run_campaign(max_genus, props, jobs)
    else:
        # opened before the run so that a bad path fails at once; append
        # mode leaves an existing file as it was if the run does not finish,
        # and a file this call created is removed again.  Only a regular
        # file is emptied: a device or a FIFO just receives the report, and
        # so does the file behind this process's own stdout or stderr.
        created = not os.path.exists(out_path)
        try:
            fh = open(out_path, "a", encoding="utf-8")
        except OSError as exc:
            raise _cannot_write(out_path, exc) from None
        report = None
        try:
            with fh:
                report = campaign.run_campaign(max_genus, props, jobs)
                st = os.fstat(fh.fileno())
                if stat.S_ISREG(st.st_mode) and not _is_std_stream(st):
                    fh.truncate(0)
                fh.write(report.to_json())
                fh.write("\n")
        except BaseException as exc:
            if created:
                os.remove(out_path)
            # once the report exists, an OSError is the write's or close's
            if report is not None and isinstance(exc, OSError):
                raise _cannot_write(out_path, exc) from None
            raise
    return report


def _print_verify(report: campaign.CampaignReport, fmt: str) -> None:
    if fmt == "jsonl":
        print(json.dumps(report.to_json_dict()))
    elif fmt == "csv":
        _print_verify_csv(report)
    else:
        _print_verify_table(report)


def _silence_stdout() -> None:
    """Point fd 1 at os.devnull once a write to stdout has failed, so that
    the interpreter's flush at exit neither prints "Exception ignored" nor
    turns the exit code into 120.  A stdout without a file descriptor, such
    as an in-process caller's StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main() call:
    parse_args keeps no state on it between calls."""
    parser = argparse.ArgumentParser(
        prog="numsgp",
        description="numerical semigroup invariants, constructions, and "
                    "exhaustive genus-tree verification")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("jsonl", "table", "csv"),
                            default=None, help="output format")
    fmt_parent.add_argument("--json", action="store_const", dest="format",
                            const="jsonl", help="shorthand for --format jsonl")

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

    # core._int, named for argparse's error line: "invalid int value: 'x'"
    integer = partial(_int)
    integer.__name__ = "int"
    p = sub.add_parser("verify", parents=[fmt_parent],
                       help="exhaustive campaign over the genus tree")
    p.add_argument("--max-genus", type=integer, required=True)
    p.add_argument("--properties", default="all",
                   help="comma-separated check names, or 'all'")
    p.add_argument("--jobs", type=integer, default=1,
                   help="worker processes, at most the CPU count and the "
                        "work items (default 1)")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fmt = args.format or ("table" if args.subcommand == "verify" else "jsonl")
    try:
        if args.subcommand == "verify":
            props = [p.strip() for p in args.properties.split(",")
                     if p.strip()]
            if not props:
                raise CampaignConfigError("empty property list")
            result = cmd_verify(args.max_genus, props, args.jobs, args.out)
            code, show = (0 if result.passed else 1), _print_verify
        else:
            show = _emit
            if args.subcommand == "info":
                code, result = 0, cmd_info(_parse_gens(args.gens))
            elif args.subcommand == "check":
                code, result = cmd_check(args.property,
                                         _parse_gens(args.gens))
            else:
                code, result = 0, cmd_construct(args.kind, args.args)
        # only these writes reach stdout; a failed one, such as a closed
        # pipe's or a full disk's, is a usage error like --out's
        try:
            show(result, fmt)
            sys.stdout.flush()
        except OSError as exc:
            _silence_stdout()
            raise _cannot_write("stdout", exc) from None
        return code
    except (ValueError, CampaignConfigError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (InvalidSemigroupInput, PreconditionViolation) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3 if isinstance(exc, InvalidSemigroupInput) else 4
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # a bug, not a verdict: exit 1 would read as "property does not hold"
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
