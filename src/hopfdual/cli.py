"""Command-line verification surface.

Exit codes: 0 when every check passes, 1 on any check failure, 2 on input
errors (unknown entries, malformed instance files, inapplicable suites).
Canonical mode fixes ordering and zeroes timings for byte-exact diffs.
"""
from __future__ import annotations

import argparse
import sys

from .catalog import get, list_entries
from .errors import HopfdualError, ParseError, UnknownEntry, ValidationError
from .instancefile import export_entry_json, parse_instance
from .reporting import Report
from .suites import SUITE_ORDER, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(report: Report, fmt: str, out, canonical: bool) -> None:
    text = (report.to_json(canonical) if fmt == "json"
            else report.to_text(canonical))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_and_emit(entry, suite, fmt, out, canonical) -> int:
    report = run_suite(entry, suite)
    _emit(report, fmt, out, canonical)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfdual",
        description="Construct finite-rank Hopf-algebraic crossed and smash "
                    "products over Z, Q and Z/n and verify their duality "
                    "isomorphisms exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="built-in instances")
    catsub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catsub.add_parser("list", help="list catalog entries")

    p_run = catsub.add_parser("run", help="run a suite over a catalog entry")
    p_run.add_argument("name")
    _suite_flags(p_run)

    p_export = catsub.add_parser("export", help="export an entry to a file")
    p_export.add_argument("name")
    p_export.add_argument("path")

    p_verify = sub.add_parser("verify", help="verify an instance file")
    p_verify.add_argument("path")
    _suite_flags(p_verify)

    p_report = sub.add_parser(
        "report", help="run every applicable suite over the whole catalog")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--canonical", action="store_true",
                          help="deterministic byte-identical output")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ValidationError, UnknownEntry) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HopfdualError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def _suite_flags(p):
    p.add_argument("--suite", default=None, choices=SUITE_ORDER + ("all",),
                   help="default: the instance file's suite, or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--canonical", action="store_true")


def _dispatch(args) -> int:
    if args.command == "catalog":
        if args.catalog_command == "list":
            for name, kind, desc in list_entries():
                print(f"{name:22s} {kind:8s} {desc}")
            return EXIT_OK
        if args.catalog_command == "run":
            entry = get(args.name)
            return _run_and_emit(entry, args.suite or "all", args.format,
                                 args.out, args.canonical)
        if args.catalog_command == "export":
            entry = get(args.name)
            with open(args.path, "w", encoding="utf-8") as fh:
                fh.write(export_entry_json(entry))
            print(f"wrote {args.path}")
            return EXIT_OK
    if args.command == "verify":
        inst = parse_instance(args.path)
        entry = inst.to_entry()
        suite = args.suite or inst.suite or "all"
        return _run_and_emit(entry, suite, args.format, args.out,
                             args.canonical)
    if args.command == "report":
        report = Report()
        for name, _, _ in list_entries():
            section_report = run_suite(get(name), "all")
            for section in section_report.sections:
                report.add_section(section)
        _emit(report, args.format, args.out, args.canonical)
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    raise ValidationError("unknown command")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
