"""Command-line front end: check a proof or convert between encodings.

Exit codes: 0 verified/converted, 1 proof invalid, 2 parse or I/O error.
Every diagnostic line starts with "c " so DIMACS-style tooling can filter it.
"""

from __future__ import annotations

import argparse
import io
import os

from . import proofio
from .lexer import BLOCK_BYTES
from .model import REJECTED, WARN_UNIT_DELETION, format_clause

_READERS = {proofio.PLAIN: proofio.plain_records, proofio.BINARY: proofio.binary_records}


class _Counted(io.FileIO):
    """A file that counts the bytes read from it, since a pipe cannot tell its position."""

    size = 0

    def readinto(self, buffer):
        self.size += (got := super().readinto(buffer))
        return got


def _open_proof(path: str, encoding: str | None):
    """(file, encoding): the proof file, open, and the given encoding or the one detected from its first block."""
    handle = io.BufferedReader(_Counted(path), BLOCK_BYTES)
    return handle, encoding or proofio.detect_encoding(handle.peek(BLOCK_BYTES))


def run_check(args) -> int:
    # imported here, not at the top, so that a convert run loads neither the checker nor the DIMACS reader
    from . import checker, dimacs

    quiet = args.verbosity < 0
    try:
        # the clauses go into the checker's store as they are read, block by block, as slices of codes
        state = checker.CheckerState()
        with open(args.formula, "rb") as handle:
            state.store(dimacs.clause_records(handle, state.code))
    except (OSError, dimacs.DimacsError) as exc:
        print("c error: %s: %s" % (args.formula, exc))
        return 2
    try:
        handle, encoding = _open_proof(args.proof, args.encoding)
        with handle:
            trace = None
            if args.verbosity > 0:
                # the first line needs the step count, and no trace may precede a parse error: a first pass
                # counts the steps and holds none of them, after a seek that fails at once on a pipe
                handle.seek(0)
                print("c parsed %s proof with %d steps" % (encoding, sum(1 for _ in _READERS[encoding](handle))))
                handle.seek(0)
                trace = lambda message: print("c " + message)
            # -q prints no warning, so none is kept
            report = checker.check_records(state, _READERS[encoding](handle), trace, keep_warnings=not quiet)
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
    """Convert the proof block by block into a temporary file beside the output, made once the proof is open,
    which replaces the output after the last record: a parse error leaves an existing output as it was. A
    device or pipe cannot be replaced, and is written in place."""
    output = os.path.realpath(args.output)
    special = os.path.exists(output) and not os.path.isfile(output)
    temp = output if special else "%s.%d.tmp" % (output, os.getpid())
    made = False
    try:
        source, encoding = _open_proof(args.proof, args.encoding)
        with source, open(temp, "wb") as sink:
            made = not special
            # the bytes written are summed, as a pipe cannot tell its position either
            written = sum(map(sink.write, proofio.write_records(_READERS[encoding](source), args.to)))
        if made:
            os.replace(temp, output)
    except (OSError, proofio.ProofError) as exc:
        # an OSError naming no file comes from a read or a write mid-conversion, most likely a full disk
        named = isinstance(exc, proofio.ProofError) or exc.filename == args.proof
        print("c error: %s: %s" % (args.proof if named else args.output, exc))
        if made:
            os.remove(temp)
        return 2
    print("c read %d bytes (%s), wrote %d bytes (%s)" % (source.raw.size, encoding, written, args.to))
    return 0


def _add_encoding_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    for encoding, name in ((proofio.PLAIN, "plain-text"), (proofio.BINARY, "binary")):
        group.add_argument("--" + encoding, dest="encoding", action="store_const", const=encoding,
                           help="force %s proof parsing" % name)
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
