"""One `python -m dratcheck` child process per operation, timed and verified.

Each operation is timed from spawn to reap, and its peak RSS comes from the
child's own rusage (os.wait4). Children are started by launcher.py, so the
benchmark's own memory does not show in their peak RSS, and each is
bracketed by the launcher's calibration loop on the same CPU. An operation
fails when its exit code, its last "s " line, a required "c " line, its
stderr (which must be empty) or the bytes it wrote differ from the known
answer.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")

CHILD_TIMEOUT_S = 120

# launcher.calibrate() takes about this long on the fast state of the
# 2-core Xeon VM the benchmark was written on; scaled times read as wall
# seconds on that CPU when it is fast
CALIBRATION_REF_S = 0.02

# kind -> (exit code, last "s " line, a "c " line prefix that must appear)
EXPECTED = {
    "check": (0, "s VERIFIED", None),
    "check_binary": (0, "s VERIFIED", None),
    "setup": (1, "s NOT VERIFIED", "c proof contains no addition of the empty clause"),
    "reject": (1, "s NOT VERIFIED", "c step 1:"),
    "convert_to_binary": (0, None, "c read "),
    "convert_to_plain": (0, None, "c read "),
}

# kind -> (input role, reference role of the written bytes, target encoding)
CONVERSIONS = {
    "convert_to_binary": ("plain", "binary", "binary"),
    "convert_to_plain": ("binary", "plain", "plain"),
}

# kind -> proof role checked against the formula
CHECKS = {"check": "plain", "check_binary": "binary", "setup": "empty", "reject": "reject"}


@dataclass
class OpResult:
    kind: str
    instance: int
    wall_s: float
    calibration_s: float  # mean launcher calibration time before and after
    rss_mb: float
    problem: str | None  # None when the operation gave its known answer

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def scaled_s(self) -> float:
        """Wall time scaled to the CPU speed at which calibration takes CALIBRATION_REF_S."""
        return self.wall_s * CALIBRATION_REF_S / self.calibration_s


class Runner:
    """Runs operations on the generated files of one workload's instances.

    Use as a context manager: it owns the launcher process."""

    def __init__(self, root: str, instances: list):
        self.root = root
        self.instances = instances  # each: {"dir", "files", "reference"}
        self.results: list[OpResult] = []
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, kind: str, index: int) -> OpResult:
        instance = self.instances[index]
        files = instance["files"]
        output = None
        if kind in CONVERSIONS:
            source, reference, target = CONVERSIONS[kind]
            output = os.path.join(instance["dir"], "converted." + reference)
            args = ["convert", files[source]["path"], "--to", target, "-o", output]
            if os.path.exists(output):
                os.remove(output)
        else:
            args = ["check", files["formula"]["path"], files[CHECKS[kind]]["path"]]
        out_path = os.path.join(instance["dir"], "stdout.txt")
        err_path = os.path.join(instance["dir"], "stderr.txt")
        status, maxrss_kib, wall, calibration = self._spawn(
            [sys.executable, "-m", "dratcheck", *args], out_path, err_path
        )
        with open(out_path, "rb") as handle:
            stdout = handle.read().decode("utf-8", "replace")
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        problem = _problem(kind, status, stdout, stderr)
        if problem is None and output is not None:
            with open(output, "rb") as handle:
                written = handle.read()
            if written != instance["reference"][CONVERSIONS[kind][1]]:
                problem = "converted bytes differ from the reference encoding"
        result = OpResult(kind, index, wall, calibration, maxrss_kib / 1024.0, problem)
        self.results.append(result)
        return result

    def _spawn(self, command, out_path, err_path):
        """Run one child through the launcher; kill it after CHILD_TIMEOUT_S."""
        launcher = self._launcher
        launcher.stdin.write("\t".join([out_path, err_path, *command]) + "\n")
        launcher.stdin.flush()
        pid = int(launcher.stdout.readline().split()[1])
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, maxrss_kib, wall, before, after = launcher.stdout.readline().split()
        finally:
            timer.cancel()
        return int(status), int(maxrss_kib), float(wall), (float(before) + float(after)) / 2


def _problem(kind: str, status: int, stdout: str, stderr: bytes) -> str | None:
    code, verdict, required = EXPECTED[kind]
    lines = stdout.splitlines()
    if stderr:
        last = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return "stderr not empty: %s" % (last[0] if last else "")
    if status != code:
        return "exit code %d, expected %d" % (status, code)
    if verdict is not None:
        verdicts = [line for line in lines if line.startswith("s ")]
        if not verdicts or verdicts[-1] != verdict:
            return "verdict %r, expected %r" % (verdicts[-1] if verdicts else None, verdict)
    if required is not None and not any(line.startswith(required) for line in lines):
        return "no line starting %r" % required
    return None
