"""Independent slow-path implementations used to cross-check the package.

Everything here works on raw clause lists (tuples of ints) and shares no
code with dratcheck's propagation or RAT machinery: propagation is a naive
whole-formula rescan, and the RAT test below executes the textbook
definition directly.
"""


def propagate_naive(clauses, assumptions):
    """Unit propagation by repeated full scans; True means conflict."""
    values = {}
    for lit in assumptions:
        if values.get(abs(lit)) == (lit < 0):
            return True
        values[abs(lit)] = lit > 0
    clauses = [tuple(c) for c in clauses]
    while True:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                value = values.get(abs(lit))
                if value is None:
                    unassigned.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return True
            if len(unassigned) == 1:
                lit = unassigned[0]
                values[abs(lit)] = lit > 0
                changed = True
        if not changed:
            return False


def check_at_naive(clauses, candidate):
    return propagate_naive(clauses, [-lit for lit in candidate])


def check_rat_naive(clauses, candidate):
    """RAT per definition: AT, or first-literal pivot with all resolvents AT."""
    clauses = [tuple(c) for c in clauses]
    if check_at_naive(clauses, candidate):
        return True
    if not candidate:
        return False
    pivot = candidate[0]
    for other in clauses:
        if -pivot not in other:
            continue
        resolvent = list(candidate) + [l for l in other if l != -pivot and l not in candidate]
        if any(-l in resolvent for l in resolvent):
            continue
        if not check_at_naive(clauses, resolvent):
            return False
    return True


def replay_naive(clauses, steps):
    """Forward DRAT replay by the definition, on a plain list of clause copies.

    steps are (kind, literals) pairs, kind "a" (add) or "d" (delete).
    Returns (verdict, step, warned): verdict is "verified", "rejected" or
    "no-empty-clause", step the 1-based step that decided it (None when no
    step did), warned the steps whose deletion was ignored. A deletion
    removes one copy with the same literal set; deletions of units and of
    absent clauses are ignored. An addition must be RAT on its first written
    literal, the empty clause AT; the first accepted empty clause verifies.
    """
    database = [tuple(c) for c in clauses]
    warned = []
    for index, (kind, literals) in enumerate(steps, start=1):
        literals = tuple(literals)
        if kind == "d":
            match = next((i for i, c in enumerate(database) if set(c) == set(literals)), None)
            if len(literals) == 1 or match is None:
                warned.append(index)
            else:
                del database[match]
        elif not check_rat_naive(database, literals):
            return "rejected", index, warned
        elif not literals:
            return "verified", index, warned
        else:
            database.append(literals)
    return "no-empty-clause", None, warned


class NaiveBinaryError(ValueError):
    """A binary proof error: message and offset."""

    def __init__(self, message, offset=0):
        super().__init__(message)
        self.message, self.offset = message, offset


def parse_binary_naive(data):
    """Decode a binary DRAT proof one byte at a time into (kind, literals) pairs.

    kind is "a" or "d". A record is an 'a'/'d' prefix, varint literal codes
    (7-bit groups, least significant first, at most 5 bytes, at most
    2^32 - 1) and a zero byte; code 2l is literal l, code 2l + 1 is -l, and
    codes 0 and 1 are reserved. Raises NaiveBinaryError at the first error:
    at the record start for a bad prefix, a missing zero byte or a clause
    with a duplicate or complementary pair (the first pair by variable,
    positive first); at the varint start for a truncated or overlong varint
    or a reserved code.
    """
    steps = []
    pos = 0
    while pos < len(data):
        start = pos
        if data[pos] not in b"ad":
            raise NaiveBinaryError("record prefix 0x%02x is neither 'a' nor 'd'" % data[pos], start)
        kind = chr(data[pos])
        pos += 1
        literals = []
        while True:
            if pos == len(data):
                raise NaiveBinaryError("input ends inside a record (missing zero byte)", start)
            if data[pos] == 0:
                pos += 1
                break
            varint_start = pos
            code = 0
            for group in range(5):
                if pos == len(data):
                    raise NaiveBinaryError("input ends inside a varint", varint_start)
                byte = data[pos]
                pos += 1
                code += (byte % 128) * 128**group
                if byte < 128:
                    break
            else:
                raise NaiveBinaryError("varint longer than 5 bytes", varint_start)
            if code >= 2**32:
                message = "varint value %d out of literal range" % code
                raise NaiveBinaryError(message, varint_start)
            if code < 2:
                raise NaiveBinaryError("literal code %d is reserved" % code, varint_start)
            literals.append(code // 2 if code % 2 == 0 else -(code // 2))
        ordered = sorted(literals, key=lambda lit: (abs(lit), lit < 0))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise NaiveBinaryError("duplicate literal %d" % a, start)
            if a == -b:
                raise NaiveBinaryError("complementary literals %d and %d" % (a, b), start)
        steps.append((kind, tuple(literals)))
    return steps
