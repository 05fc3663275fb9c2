"""Byte-level tokenizer shared by the DIMACS and plain DRAT readers.

The input is read from a binary file in blocks of whole lines, cut at ``\\n`` only; a
``\\r`` directly before it belongs to the line break. Lines that start with ``c`` are
comments. On every other line the blanks are exactly space and tab, and any other byte
belongs to a token. Each block is checked and converted with C-level bytes operations;
a line number and byte offset is worked out only for an error, from the block that holds it.
The fast path: a block whose non-comment text is decimal tokens with one space between them and
no "-0" becomes its ints in one call of the JSON scanner, which refuses a leading zero, "+", "--"
and a lone "-" as the token path does, and reads one value per token. A block it refuses, or with a literal
over the limit and no code map, takes the token path: records, errors and locations are the same either way.
"""

from __future__ import annotations

import io
import itertools
import json
import re

from .model import MAX_LITERAL, repeated_variable

BLOCK_BYTES = 1 << 14  # a block is this many bytes read, and the rest of its last line
_TOKEN = re.compile(rb"[^ \t]+")
_LITERAL = re.compile(rb"-?[1-9][0-9]{0,9}|0")  # longer literals overflow
_DIGITS = b"-0123456789"


def binary_file(data):
    """data if it is a binary file, else an io.BytesIO over its bytes (a str in UTF-8), sharing a bytes buffer."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return data if hasattr(data, "read") else io.BytesIO(data)


def _blocks(source):
    """Yield (byte offset, line number, bytes, text) for each block of whole lines read from source."""
    offset = number = 0
    while data := source.read(BLOCK_BYTES):
        data += source.readline()  # the rest of the last line, so that a block is whole lines
        yield offset, number, data, data.replace(b"\r\n", b"\n")
        offset, number = offset + len(data), number + data.count(b"\n")


def _lines(text, pos):
    """Yield (position, line) for each line of text from the line starting at pos."""
    while pos < len(text):
        end = text.find(b"\n", pos)
        end = len(text) if end < 0 else end
        yield pos, text[pos:end]
        pos = end + 1


class Lines:
    """The lines of a binary file, or of bytes, read in blocks, raising every error of the given class itself.

    A block is (byte offset, line number, bytes, text) of whole lines, its text with each
    ``\\r\\n`` made ``\\n``; positions refer to the text. A token is located by ``where`` =
    (block, position of a line start, n): the n-th token from there on the block's non-comment lines.
    """

    def __init__(self, data, error):
        self.blocks = _blocks(binary_file(data))
        self.error = error
        self.rest = []  # (block, position) just after the last line that lines() yielded

    def lines(self):
        """Yield (where of the line start, line) for each line; clauses() reads on after the last one yielded."""
        for block in self.blocks:
            for pos, line in _lines(block[3], 0):
                self.rest = [(block, pos + len(line) + 1)]
                yield (block, pos, None), line

    def located(self, message, where):
        """The reader's error(message) at where; a token number of None means the line start."""
        (offset, number, data, text), pos, token = where
        column = 0
        if token is not None:
            for pos, line in _lines(text, pos):
                starts = [] if line[:1] == b"c" else [m.start() for m in _TOKEN.finditer(line)]
                if token < len(starts):
                    column = starts[token]
                    break
                token -= len(starts)
        lines = text.count(b"\n", 0, pos)
        start = sum(map(len, data.split(b"\n", lines)[:lines])) + lines  # the line's start in data
        return self.error(message, number + lines + 1, offset + start + column)

    def clauses(self, limit: int = MAX_LITERAL, deletes: bool = False, code=None):
        """Yield each clause ended by a 0 token: its literal list, (delete, clause) if deletes allows a ``d`` prefix,
        or, given a code map, one list per run of its clauses' code slices (see CheckerState); return how many.

        Errors, a literal whose variable is above limit among them, are raised in input order; given a code
        map, only a variable new to it is checked against limit. A repeated variable, or a clause left open at
        the end of the input, is located at the clause's first token, which is its ``d`` prefix if it has one. A
        token's location is made only for an error. A clause still open after a run is extended by the next
        one's literals, never re-read. Reading goes on from the first line not read.
        """
        pending: list[int] = []
        delete = False
        where = None  # of the open clause's first token; None when no clause is open
        found = 0
        for block, first in itertools.chain(self.rest, ((block, 0) for block in self.blocks)):
            text = block[3][first:]
            if text[:1] != b"c" and b"\nc" not in text:  # no comment line
                joined = text.replace(b"\n", b" ")
            else:
                joined = b" ".join([line for line in text.split(b"\n") if line[:1] != b"c"])
            for at, values, bad in _runs(joined, limit if code is None else None, deletes):  # None: no bound
                if values is None:  # a "d" at the at-th token
                    if where is not None:
                        raise self._bad_token(b"d", (block, first, at), limit, deletes)
                    delete, where = True, (block, first, at)
                    continue
                known = len(code or ())  # only a variable that mapping the run adds to code can be over the bound
                codes = values if code is None else [*map(code.__getitem__, values)]
                if len(code or ()) > known and max(itertools.islice(reversed(code), len(code) - known)) > limit:
                    over = next(k for k, v in enumerate(values) if abs(v) > limit)
                    values, bad = values[:over], b"%d" % values[over]
                ends, done, batch = values.count(0), 0, []
                for _ in range(ends):
                    zero = values.index(0, done)
                    lits = values[done:zero]
                    clause = lits if code is None else codes[done:zero]
                    if pending:  # the open clause is joined to its last run once, at its 0
                        lits, pending = pending + lits, []
                        clause = lits if code is None else [*map(code.__getitem__, lits)][:]
                    if len(set(map(abs, lits))) != len(lits):
                        raise self.located(repeated_variable(lits), where or (block, first, at + done))
                    if code is None:
                        yield (delete, clause) if deletes else clause
                    else:
                        batch.append(clause)
                    delete, done, where = False, zero + 1, None
                if batch:
                    yield batch
                found += ends
                if done < len(values):  # a clause goes on past this run: extended, never re-read
                    where = where or (block, first, at + done)
                    pending += values[done:]
                if bad is not None:
                    raise self._bad_token(bad, (block, first, at + len(values)), limit, deletes)
        if where is not None:
            kind = "proof step" if deletes else "clause"
            raise self.located("end of input inside a %s (missing terminating 0)" % kind, where)
        return found

    def _bad_token(self, token, where, limit, deletes):
        text = token.decode("latin-1")
        if deletes and token[:1] == b"d":
            return self.located("malformed delete prefix %r" % text, where)
        if not re.fullmatch(rb"-?[1-9][0-9]*", token):
            return self.located("malformed literal %r" % text, where)
        if len(token.lstrip(b"-")) > len(str(MAX_LITERAL)) or abs(int(token)) > MAX_LITERAL:
            return self.located("literal %s exceeds 2^31 - 1" % text, where)
        return self.located("literal %s exceeds declared maximum variable %d" % (text, limit), where)


def _runs(joined, limit, deletes):
    """Yield (n, values, bad) for each run of literal tokens in joined, a block's non-comment text, from its n-th
    token on: values up to its first bad token, bad, or None; or (n, None, None) for a "d" that deletes allows."""
    if not joined.translate(None, _DIGITS + b" ") and b"-0" not in joined:  # the fast path (see above)
        try:
            values = json.loads(b"[" + joined.strip(b" ").replace(b" ", b",") + b"]")
            if limit is None or not values or max(values) <= limit and min(values) >= -limit:
                yield 0, values, None
                return
        except ValueError:
            pass
    if joined.translate(None, _DIGITS + b"d \t" if deletes else _DIGITS + b" \t"):
        tokens, clean = _TOKEN.findall(joined), False
    else:
        tokens = joined.split()
        # no "-0" and no token with a leading zero other than "0" itself
        clean = b"-0" not in joined and tokens.count(b"0") == (
            joined.count(b" 0") + joined.count(b"\t0") + joined.startswith(b"0")
        )
    at, last = 0, len(tokens)
    tokens.append(b"d")  # so that a proof's last run also ends at a "d"
    while at < last:
        if deletes and tokens[at] == b"d":
            yield at, None, None
            at += 1
            continue
        end = tokens.index(b"d", at) if deletes else last
        # the run of literal tokens up to the next "d" is converted at once
        run = tokens[at:end]
        bad = None
        try:
            values = [*map(int, run)] if clean else None
        except ValueError:
            values = None
        if values is None:
            bad = next((k for k, t in enumerate(run) if not _LITERAL.fullmatch(t)), None)
            values = [*map(int, run[:bad])]
        if limit is not None and values and (max(values) > limit or min(values) < -limit):
            bad = next(k for k, v in enumerate(values) if abs(v) > limit)
            del values[bad:]
        yield at, values, None if bad is None else run[bad]
        at = end
