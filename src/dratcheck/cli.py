"""Command-line front end: check a proof or convert between encodings.

Exit codes: 0 verified/converted, 1 proof invalid, 2 parse or I/O error.
Every diagnostic line starts with "c " so DIMACS-style tooling can filter it.
"""

from __future__ import annotations

import argparse

from . import proofio
from .model import REJECTED, WARN_UNIT_DELETION, format_clause


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _open_proof(path: str, encoding: str | None):
    """(reader, data, encoding): reader(data) yields the proof's records."""
    data = _read(path)
    if encoding is None:
        encoding = proofio.detect_encoding(data)
    reader = proofio.binary_records if encoding == proofio.BINARY else proofio.plain_records
    return reader, data, encoding


def run_check(args) -> int:
    # imported here, not at the top, so that a convert run loads neither the checker nor the DIMACS reader
    from . import checker, dimacs

    quiet = args.verbosity < 0
    try:
        # the clauses go into the checker's store as they are read: no list of them is built
        state = checker.CheckerState()
        state.load(dimacs.clause_records(_read(args.formula)))
    except (OSError, dimacs.DimacsError) as exc:
        print("c error: %s: %s" % (args.formula, exc))
        return 2
    try:
        reader, data, encoding = _open_proof(args.proof, args.encoding)
        trace = None
        if args.verbosity > 0:
            # the first line needs the step count, and no trace may precede a
            # parse error: a first pass counts the steps and holds none of them
            print("c parsed %s proof with %d steps" % (encoding, sum(1 for _ in reader(data))))
            trace = lambda message: print("c " + message)
        report = checker.check_records(state, reader(data), trace=trace)
    except (OSError, proofio.ProofError) as exc:
        print("c error: %s: %s" % (args.proof, exc))
        return 2

    if not quiet:
        for warning in report.warnings:
            if warning.kind == WARN_UNIT_DELETION:
                text = "ignored deletion of unit clause"
            else:
                text = "deleted clause not in formula"
            print("c warning: step %d: %s %s" % (warning.step, text, format_clause(warning.clause)))
        if report.verdict == REJECTED:
            print("c step %d: %s: %s" % (report.step, report.reason, format_clause(report.clause)))
            if report.failed_resolvent is not None:
                print(
                    "c   pivot %d, first failing resolvent %s"
                    % (report.pivot, format_clause(report.failed_resolvent))
                )
        elif not report.verified:
            print("c proof contains no addition of the empty clause")

    if report.verified:
        print("s VERIFIED")
        return 0
    print("s NOT VERIFIED")
    return 1


def run_convert(args) -> int:
    target = args.to
    try:
        reader, data, encoding = _open_proof(args.proof, args.encoding)
        # the whole input is read before the output is opened, so a parse error leaves it untouched
        converted = proofio.write_records(reader(data), target)
    except (OSError, proofio.ProofError) as exc:
        print("c error: %s: %s" % (args.proof, exc))
        return 2
    try:
        with open(args.output, "wb") as handle:
            handle.write(converted)
    except OSError as exc:
        print("c error: %s: %s" % (args.output, exc))
        return 2
    print("c read %d bytes (%s), wrote %d bytes (%s)" % (len(data), encoding, len(converted), target))
    return 0


def _add_encoding_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--plain",
        dest="encoding",
        action="store_const",
        const=proofio.PLAIN,
        help="force plain-text proof parsing",
    )
    group.add_argument(
        "--binary",
        dest="encoding",
        action="store_const",
        const=proofio.BINARY,
        help="force binary proof parsing",
    )
    parser.set_defaults(encoding=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dratcheck",
        description="Validate DRAT unsatisfiability proofs and convert between encodings.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="check a DRAT proof against a DIMACS formula")
    check.add_argument("formula", help="CNF formula in DIMACS format")
    check.add_argument("proof", help="proof in plain or binary DRAT")
    _add_encoding_flags(check)
    verbosity = check.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-q", "--quiet", dest="verbosity", action="store_const", const=-1, help="verdict line only"
    )
    verbosity.add_argument(
        "-v", "--verbose", dest="verbosity", action="store_const", const=1, help="per-step trace"
    )
    check.set_defaults(verbosity=0, func=run_check)

    convert = commands.add_parser("convert", help="convert a proof between plain and binary")
    convert.add_argument("proof", help="input proof file")
    convert.add_argument("--to", choices=[proofio.PLAIN, proofio.BINARY], required=True,
                         help="target encoding")
    convert.add_argument("-o", "--output", required=True, help="output path")
    _add_encoding_flags(convert)
    convert.set_defaults(func=run_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
