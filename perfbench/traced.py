"""The traced in-process run: per-layer times and exact counts.

Spans are taken from the benchmark's side of each layer boundary, around
calls into the public functions of dimacs, proofio and checker. Inside
check_proof, wrappers are installed for the duration of the traced call on
CheckerState.check_at/check_rat/apply_add/apply_delete and
Formula.clauses_with/add_clause/remove_clause. Only names that exist are
wrapped; a missing name is reported as a missing span and the metrics that
need it are left out. Spans are aggregated in memory by name and written
out with the run record.

The checker's self times partition checker.check_s:
  at_lemma      check_at for the lemma itself (first call under check_rat,
                or a direct call for the empty clause)
  at_resolvent  later check_at calls under check_rat
  rat_self      check_rat minus its check_at calls
  add_self      apply_add minus check_rat/check_at
  delete        apply_delete
  other         the rest of check_proof (set-up and the step loop)
Formula calls run inside these spans and are timed separately, without
being subtracted, so model.*_s feed the checker times they sit in.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from dratcheck import checker, dimacs, model, proofio

MB = 1024.0 * 1024.0
CHECK_PASSES = 3

CHECKER_SPANS = ("check_at", "check_rat", "apply_add", "apply_delete")
MODEL_SPANS = ("clauses_with", "add_clause", "remove_clause")
SELF_TIMES = ("at_lemma", "at_resolvent", "rat_self", "add_self", "delete")


class _Frame:
    __slots__ = ("category", "child", "at_calls")

    def __init__(self, category):
        self.category = category
        self.child = 0.0
        self.at_calls = 0


class Tracer:
    """Wraps checker and model methods, aggregating spans and counts."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.model_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[_Frame] = []
        self._saved: list = []

    def install(self, checker_module, model_module) -> None:
        state = getattr(checker_module, "CheckerState", None)
        formula = getattr(model_module, "Formula", None)
        for attr in CHECKER_SPANS:
            self._wrap(state, "CheckerState", attr, self._checker_wrapper)
        for attr in MODEL_SPANS:
            self._wrap(formula, "Formula", attr, self._model_wrapper)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _wrap(self, cls, owner, attr, make) -> None:
        original = getattr(cls, attr, None) if cls is not None else None
        if not callable(original):
            self.missing.add("%s.%s" % (owner, attr))
            return
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(attr, original))

    def _checker_wrapper(self, attr, original):
        stack = self._stack
        self_time, counts, calls = self.self_time, self.counts, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if attr == "check_at":
                under_rat = parent is not None and parent.category == "rat_self"
                if under_rat:
                    parent.at_calls += 1
                category = "at_resolvent" if under_rat and parent.at_calls > 1 else "at_lemma"
            else:
                category = {"check_rat": "rat_self", "apply_add": "add_self", "apply_delete": "delete"}[attr]
            frame = _Frame(category)
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_time[category] += elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
            calls[attr] += 1
            if attr == "check_at":
                counts["checker.at_passed"] += bool(result)
                if category == "at_resolvent":
                    counts["checker.resolvent_checks"] += 1
                elif under_rat and not result:
                    counts["checker.rat_entries"] += 1
            elif attr == "apply_delete" and result is not None:
                counts["checker.delete_warnings"] += 1
            return result

        return wrapper

    def _model_wrapper(self, attr, original):
        model_time, counts, calls = self.model_time, self.counts, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            result = original(*args, **kwargs)
            model_time[attr] += perf() - start
            calls[attr] += 1
            if attr == "clauses_with":
                counts["model.candidates"] += len(result)
            return result

        return wrapper


class TracedRun:
    """Per-layer measurement of one workload's instances, summed over them."""

    def __init__(self, runner):
        self.runner = runner
        # run on the CPU that launcher.py pins the CLI children to
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.tracer = Tracer()
        self.time = defaultdict(float)
        self.bytes = defaultdict(int)
        self.peak_mb = 0.0
        self.failed: set[str] = set()  # stages that raised
        self.attempted = 0
        self.problems: list[str] = []

    def _api(self, module, name):
        function = getattr(module, name, None)
        if function is None:
            self.tracer.missing.add("%s.%s" % (module.__name__.rsplit(".", 1)[-1], name))
        return function

    def _stage(self, metric, function, *args):
        """Time one call and add it to metric. A raised exception fails the
        stage, not the run: the metric is then left out of the results."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = function(*args)
        except Exception as exc:  # a crash of the program under test is a result
            self.problems.append("%s: %s: %s" % (metric, type(exc).__name__, exc))
            self.failed.add(metric)
            return None, 0.0
        elapsed = time.perf_counter() - start
        self.time[metric] += elapsed
        return result, elapsed

    def measure(self, index: int) -> None:
        reference = self.runner.instances[index]["reference"]
        api = {
            name: self._api(module, name)
            for module, names in (
                (dimacs, ("parse_dimacs",)),
                (proofio, ("detect_encoding", "parse_plain_proof", "parse_binary_proof",
                           "serialize_plain", "serialize_binary")),
                (checker, ("check_proof",)),
            )
            for name in names
        }
        if None in (api["parse_dimacs"], api["parse_plain_proof"], api["check_proof"]):
            return
        for role in ("formula", "plain", "binary"):
            self.bytes[role] += len(reference[role])

        # in_process: what a CLI plain check does inside its process
        formula, in_process = self._stage("dimacs.parse_s", api["parse_dimacs"], reference["formula"])
        if api["detect_encoding"] is not None:
            for role in ("plain", "binary"):
                found, elapsed = self._stage("proofio.detect_s", api["detect_encoding"], reference[role])
                in_process += elapsed if role == "plain" else 0.0
                if found != role and "proofio.detect_s" not in self.failed:
                    self.problems.append("detect_encoding(%s) gave %r" % (role, found))
        proof, elapsed = self._stage("proofio.parse_plain_s", api["parse_plain_proof"], reference["plain"])
        in_process += elapsed
        conversions = [("serialize_binary", proof, "binary")]
        if api["parse_binary_proof"] is not None:
            from_binary, _ = self._stage("proofio.parse_binary_s", api["parse_binary_proof"], reference["binary"])
            conversions.append(("serialize_plain", from_binary, "plain"))
        for name, parsed, role in conversions:
            if api[name] is not None and parsed is not None:
                data, _ = self._stage("proofio.%s_s" % name, api[name], parsed)
                if data is not None and data != reference[role]:
                    self.problems.append("%s differs from the reference encoding" % name)

        # the tracemalloc peak of one parse, in its own pass
        tracemalloc.start()
        try:
            self._stage("proofio.parse_peak", api["parse_plain_proof"], reference["plain"])
            self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / MB)
        finally:
            tracemalloc.stop()
        if formula is None or proof is None:
            return

        empty, _ = self._stage("proofio.parse_empty", api["parse_plain_proof"], b"")
        report, _ = self._stage("checker.setup_s", api["check_proof"], formula, empty)
        self._expect(report, False, "check_proof on an empty proof")
        # untraced, traced and CLI checks take turns, so that each sees the
        # same mix of fast and slow CPU states (see README, "Noise")
        untraced, cli_walls = [], []
        for _ in range(CHECK_PASSES):
            report, elapsed = self._stage("checker.check_untraced_s", api["check_proof"], formula, proof)
            untraced.append(elapsed)
            self._expect(report, True, "untraced check_proof")
            self.tracer.install(checker, model)
            try:
                report, _ = self._stage("checker.check_s", api["check_proof"], formula, proof)
            finally:
                self.tracer.uninstall()
            self._expect(report, True, "traced check_proof")
            cli = self.runner.run("check", index)  # counted with the runner's operations
            cli_walls.append(cli.wall_s)
            if not cli.ok:
                self.failed.add("cli.overhead_s")
        in_process += statistics.median(untraced)
        self.time["cli.overhead_s"] += statistics.median(cli_walls) - in_process
        if self.failed:
            self.failed.add("cli.overhead_s")

    def _expect(self, report, verified: bool, what: str) -> None:
        if report is not None and getattr(report, "verified", None) is not verified:
            self.problems.append("%s: verdict %r" % (what, getattr(report, "verdict", report)))

    def metrics(self, totals: dict) -> dict:
        """Per-layer metrics; totals holds the exact input counts. Check
        times and counts are per pass, summed over the instances."""
        tracer = self.tracer
        check_s = self.time["checker.check_s"] / CHECK_PASSES
        self_time = {name: tracer.self_time[name] / CHECK_PASSES for name in SELF_TIMES}
        values = {}
        for name in (
            "dimacs.parse_s",
            "proofio.detect_s",
            "proofio.parse_plain_s",
            "proofio.parse_binary_s",
            "proofio.serialize_plain_s",
            "proofio.serialize_binary_s",
            "checker.setup_s",
            "checker.check_s",
            "cli.overhead_s",
        ):
            if name in self.time and name not in self.failed:
                values[name] = (check_s if name == "checker.check_s" else self.time[name], "s")
        for name, role in (
            ("dimacs.parse_mb_per_s", "formula"),
            ("proofio.parse_plain_mb_per_s", "plain"),
            ("proofio.parse_binary_mb_per_s", "binary"),
        ):
            seconds = values.get(name.replace("_mb_per_s", "_s"), (0,))[0]
            if seconds > 0:
                values[name] = (self.bytes[role] / MB / seconds, "MiB/s")
        if self.peak_mb and "proofio.parse_peak" not in self.failed:
            values["proofio.parse_peak_mb"] = (self.peak_mb, "MiB")

        wrapped = [a for a in CHECKER_SPANS if "CheckerState." + a not in tracer.missing]
        if "checker.check_s" in values:
            if len(wrapped) == len(CHECKER_SPANS):
                for name in SELF_TIMES:
                    values["checker.%s_s" % name] = (self_time[name], "s")
                values["checker.other_s"] = (check_s - sum(self_time.values()), "s")
                for name in ("at_passed", "rat_entries", "resolvent_checks", "delete_warnings"):
                    values["checker." + name] = (tracer.counts["checker." + name] // CHECK_PASSES, "count")
                values["checker.at_calls"] = (tracer.calls["check_at"] // CHECK_PASSES, "count")
            for attr in MODEL_SPANS:
                if "Formula." + attr not in tracer.missing:
                    values["model.%s_s" % attr] = (tracer.model_time[attr] / CHECK_PASSES, "s")
            if "Formula.clauses_with" not in tracer.missing:
                values["model.candidates"] = (tracer.counts["model.candidates"] // CHECK_PASSES, "count")
            untraced = self.time["checker.check_untraced_s"]
            if untraced > 0 and "checker.check_untraced_s" not in self.failed:
                values["trace.overhead_ratio"] = (self.time["checker.check_s"] / untraced, "ratio")
        for name, count in totals.items():
            values[name] = (count, "count")
        return values

    def spans(self) -> dict:
        """The aggregated spans over all passes, for the run record."""
        tracer = self.tracer
        return {
            "self_time_s": dict(tracer.self_time),
            "model_time_s": dict(tracer.model_time),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "stage_time_s": dict(self.time),
            "missing": sorted(tracer.missing),
        }
