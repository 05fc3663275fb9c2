"""Byte-level tokenizer shared by the DIMACS and plain DRAT readers.

The input is cut into lines at ``\\n`` only; a ``\\r`` directly before it
belongs to the line break. Lines that start with ``c`` are comments. On
every other line the blanks are exactly space and tab, and any other byte
belongs to a token. Blocks of whole lines are checked and converted with
C-level bytes operations; a line number and byte offset is worked out only
when an error is raised, by scanning lines for the offending token.
"""

from __future__ import annotations

import re

from .model import MAX_LITERAL

BLOCK_BYTES = 1 << 14  # a block ends at the first line end after this many bytes
_TOKEN = re.compile(rb"[^ \t]+")
_LITERAL = re.compile(rb"-?[1-9][0-9]{0,9}|0")  # longer literals overflow
_DIGITS = b"-0123456789"


class Lines:
    """An input buffer cut into lines, raising errors of the given classes.

    Positions refer to the text with each ``\\r\\n`` made ``\\n``. A token is
    located by ``where`` = (position of a line start, n): the n-th token
    counted from there across the non-comment lines.
    """

    def __init__(self, data, error, overflow=None, out_of_range=None):
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        self.data = data
        self.text = data.replace(b"\r\n", b"\n")
        self.error = error
        self.overflow = overflow or error  # for literals above 2^31 - 1
        self.out_of_range = out_of_range or error  # for variables above the limit
        self.unterminated = None  # where the clause open at the end began

    def lines(self, pos: int = 0):
        """Yield (position, line) for each line from the line starting at pos."""
        text = self.text
        while pos < len(text):
            end = text.find(b"\n", pos)
            end = len(text) if end < 0 else end
            yield pos, text[pos:end]
            pos = end + 1

    def located(self, error, message, where):
        """error(message) at where; a token number of None means the line start."""
        pos, token = where
        column = 0
        if token is not None:
            for pos, line in self.lines(pos):
                starts = [] if line[:1] == b"c" else [m.start() for m in _TOKEN.finditer(line)]
                if token < len(starts):
                    column = starts[token]
                    break
                token -= len(starts)
        number = self.text.count(b"\n", 0, pos)
        start = 0
        for _ in range(number):
            start = self.data.index(b"\n", start) + 1
        return error(message, number + 1, start + column)

    def clauses(self, pos: int = 0, limit: int = MAX_LITERAL, deletes: bool = False):
        """Yield (delete, literals, where) for each clause ended by a 0 token.

        Reading starts at the line starting at pos. where locates the
        clause's first token, which is its ``d`` prefix if deletes allows
        one. Errors, a literal whose variable is above limit among them,
        are raised in input order. A clause left open at the end of the
        input is not yielded: its location is kept in ``unterminated``.
        """
        allowed = _DIGITS + b"d \t" if deletes else _DIGITS + b" \t"
        pending: list[int] = []
        delete = False
        where = None
        text = self.text
        while pos < len(text):
            first = pos
            pos = text.find(b"\n", pos + BLOCK_BYTES) + 1 or len(text)
            block = b" ".join([line for line in text[first:pos].split(b"\n") if line[:1] != b"c"])
            if block.translate(None, allowed):
                tokens, clean = _TOKEN.findall(block), False
            else:
                tokens = block.split()
                # no "-0" and no token with a leading zero other than "0" itself
                clean = b"-0" not in block and tokens.count(b"0") == (
                    block.count(b" 0") + block.count(b"\t0") + block.startswith(b"0")
                )
            at = 0
            while at < len(tokens):
                if deletes and tokens[at] == b"d":
                    if pending or delete:
                        raise self._bad_token(b"d", (first, at), limit, deletes)
                    delete, where = True, (first, at)
                    at += 1
                    continue
                end = len(tokens)
                if deletes:
                    try:
                        end = tokens.index(b"d", at)
                    except ValueError:
                        pass
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
                if values and (max(values) > limit or min(values) < -limit):
                    bad = next(k for k, v in enumerate(values) if abs(v) > limit)
                    del values[bad:]
                done = 0
                while done < len(values):
                    if not pending and not delete:
                        where = (first, at + done)
                    try:
                        zero = values.index(0, done)
                    except ValueError:
                        pending += values[done:]
                        break
                    yield delete, pending + values[done:zero], where
                    pending, delete, done = [], False, zero + 1
                if bad is not None:
                    raise self._bad_token(run[bad], (first, at + bad), limit, deletes)
                at = end
        self.unterminated = where if pending or delete else None

    def _bad_token(self, token, where, limit, deletes):
        text = token.decode("latin-1")
        if deletes and token[:1] == b"d":
            return self.located(self.error, "malformed delete prefix %r" % text, where)
        if not re.fullmatch(rb"-?[1-9][0-9]*", token):
            return self.located(self.error, "malformed literal %r" % text, where)
        if len(token.lstrip(b"-")) > len(str(MAX_LITERAL)) or abs(int(token)) > MAX_LITERAL:
            return self.located(self.overflow, "literal %s exceeds 2^31 - 1" % text, where)
        message = "literal %s exceeds declared maximum variable %d" % (text, limit)
        return self.located(self.out_of_range, message, where)
