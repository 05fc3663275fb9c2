"""dratcheck benchmark: CLI check/convert throughput on generated proof workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload php-rat --seed 1 --seconds 30 --trace 0

Every input is generated from --seed. With --trace 0 the end-to-end
metrics come from `python -m dratcheck` child processes, run one at a time
from this process (a closed loop with one client) for --seconds, with
their times scaled by a calibration loop run on the same CPU. With
--trace 1 a separate in-process traced run gives the per-layer metrics.
Every operation is checked against its known answer. Human-readable "c "
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The environment and every raw
sample are written to .perfbench/runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cliops import Runner  # noqa: E402
from workloads import WORKLOADS, generate, write_files  # noqa: E402

# Instances per run: dpll-grow averages over several formulas because the
# per-step cost of a random refutation varies from formula to formula.
INSTANCES = {"dpll-del": 1, "dpll-grow": 4, "php-rat": 1, "wide-formula": 1}

# Share of the closed loop's wall time per kind of operation. Checks are
# the slowest operations, so they get the largest shares to collect enough
# samples for a steady median.
LOOP_SHARES = {
    "check": 0.25,
    "check_binary": 0.25,
    "convert_to_binary": 0.15,
    "convert_to_plain": 0.15,
    "setup": 0.2,
}

END_TO_END = {
    "check_steps_per_s": "steps/s",
    "check_binary_steps_per_s": "steps/s",
    "convert_steps_per_s": "steps/s",
    "check_peak_rss_mb": "MiB",
    "convert_peak_rss_mb": "MiB",
    "setup_s": "s",
}


def environment(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _commit(root),
        "src_sha256": _tree_digest(os.path.join(root, "src")),
    }


def _commit(root: str) -> str:
    """HEAD of a git checkout, read without running git; 'unknown' elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _tree_digest(directory: str) -> str:
    """sha256 over the relative paths and contents of the .py files below directory."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, directory).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def prepare(name: str, seed: int, work: str) -> list:
    """Generate the workload's instances and write their files."""
    instances = []
    for index in range(INSTANCES[name]):
        workload = generate(name, seed * 1000 + index)
        directory = os.path.join(work, "i%d" % index)
        files = write_files(workload, directory)
        reference = {}
        for role in ("formula", "plain", "binary"):
            with open(files[role]["path"], "rb") as handle:
                reference[role] = handle.read()
        instances.append(
            {
                "dir": directory,
                "files": files,
                "reference": reference,
                "steps": len(workload.steps),
                "adds": workload.adds,
                "deletes": workload.deletes,
                "literals": workload.literals,
                "variables": workload.num_vars,
                "clauses": len(workload.clauses),
                "draws": workload.draws,
            }
        )
    return instances


def closed_loop(runner: Runner, seconds: float) -> None:
    """Run operations back to back for `seconds`, then until each kind has
    run on every instance. The next kind is the one furthest below its
    share of the wall time so far, and instances take turns within a kind."""
    count = len(runner.instances)
    spent = dict.fromkeys(LOOP_SHARES, 0.0)
    runs = dict.fromkeys(LOOP_SHARES, 0)
    deadline = time.perf_counter() + seconds
    while True:
        pending = [kind for kind in LOOP_SHARES if runs[kind] < count]
        if not pending and time.perf_counter() >= deadline:
            return
        kind = min(pending or LOOP_SHARES, key=lambda k: spent[k] / LOOP_SHARES[k])
        result = runner.run(kind, runs[kind] % count)
        runs[kind] += 1
        spent[kind] += result.wall_s


def end_to_end_metrics(results: list, instances: list) -> dict:
    """Metrics over successful loop operations; a metric with none is left out.
    Times are calibration-scaled (OpResult.scaled_s)."""
    ok = [r for r in results if r.ok]

    def throughput(kinds):
        steps = seconds = 0.0
        for index, instance in enumerate(instances):
            for kind in kinds:
                times = [r.scaled_s for r in ok if r.kind == kind and r.instance == index]
                if times:
                    steps += instance["steps"]
                    seconds += statistics.median(times)
        return steps / seconds if seconds else None

    def median_of(field, kinds):
        values = [getattr(r, field) for r in ok if r.kind in kinds]
        return statistics.median(values) if values else None

    values = {
        "check_steps_per_s": throughput(["check"]),
        "check_binary_steps_per_s": throughput(["check_binary"]),
        "convert_steps_per_s": throughput(["convert_to_binary", "convert_to_plain"]),
        "check_peak_rss_mb": median_of("rss_mb", ["check"]),
        "convert_peak_rss_mb": median_of("rss_mb", ["convert_to_binary", "convert_to_plain"]),
        "setup_s": median_of("scaled_s", ["setup"]),
    }
    return {name: (value, END_TO_END[name]) for name, value in values.items() if value is not None}


def per_layer(runner: Runner, instances: list):
    sys.path.insert(0, os.path.join(runner.root, "src"))
    from traced import TracedRun  # imports dratcheck, so only in the traced run

    # keep the benchmark's own objects out of the collector's scans, so
    # in-process times are comparable with a fresh CLI process
    gc.collect()
    gc.freeze()
    traced = TracedRun(runner)
    for index in range(len(instances)):
        traced.measure(index)
    totals = {
        "proofio.steps_add": sum(i["adds"] for i in instances),
        "proofio.steps_delete": sum(i["deletes"] for i in instances),
        "proofio.literals": sum(i["literals"] for i in instances),
    }
    return traced, traced.metrics(totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dratcheck", "__main__.py")):
        print("perfbench: no dratcheck package under %s/src; run from a checkout root" % root, file=sys.stderr)
        return 2

    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, "work", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    started = time.perf_counter()
    try:
        instances = prepare(args.workload, args.seed, work)
        generated_s = time.perf_counter() - started
        with Runner(root, instances) as runner:
            runner.run("setup", 0)  # warm-up: fills the file cache, byte-compiles where allowed
            for index in range(len(instances)):
                runner.run("reject", index)
            if args.trace:
                traced, metrics = per_layer(runner, instances)
                attempted, problems, spans = traced.attempted, traced.problems, traced.spans()
            else:
                probes = len(runner.results)
                closed_loop(runner, args.seconds)
                metrics = end_to_end_metrics(runner.results[probes:], instances)
                attempted, problems, spans = 0, [], None
        attempted += len(runner.results)
        problems = [r.problem for r in runner.results if not r.ok] + problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(problems)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "generate_s": generated_s,
        "instances": [
            {key: value for key, value in i.items() if key not in ("dir", "reference")} for i in instances
        ],
        "samples": [dict(vars(r), scaled_s=r.scaled_s) for r in runner.results],
        "spans": spans,
        "problems": problems,
        "metrics": reported,
    }
    os.makedirs(os.path.join(state, "runs"), exist_ok=True)
    record_path = os.path.join(state, "runs", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)

    for index, instance in enumerate(instances):
        print(
            "c instance %d: %d vars, %d clauses, %d steps (%d add, %d delete), %d formula draws"
            % (index, instance["variables"], instance["clauses"], instance["steps"],
               instance["adds"], instance["deletes"], instance["draws"])
        )
        for role, info in instance["files"].items():
            print("c   %-8s %9d bytes  sha256 %s" % (role, info["bytes"], info["sha256"]))
    for problem in dict.fromkeys(problems):
        print("c FAILED %d x %s" % (problems.count(problem), problem))
    print("c failed_share %.6f (%d of %d operations)" % (failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("c metric %-32s %.6g %s" % (name, value, unit))
    print("c record %s" % os.path.relpath(record_path, root))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
