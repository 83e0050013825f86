"""SIGINT sent to the pid of a running ``simulate --trace-csv``, at random times, must stop the run.

    PYTHONPATH=src python tests/sigint_driver.py --runs 200 --seed 1

Each run starts ``simulate`` on a ``lossless`` pass of ``--bits`` periods of
100 samples with a trace CSV, over an existing report and trace in a
directory of its own, which is removed once the run is judged, and sends
SIGINT to its pid (not to its process group, as a terminal would) at a
uniformly random time in the middle of the run.  Every run must exit by
SIGINT, the exit of an uncaught ``KeyboardInterrupt``, leave both earlier
outputs as they were with no temporary file beside them, and leave no
forked worker alive.

The signal times are set by one uninterrupted reference run: from 0.2 to
0.8 of its duration.  A run whose trace has reached 60% of the reference
CSV's size, or has replaced the earlier trace, when its signal is due is
sent no signal and judged only on its exit code (``late``); so is a run
that has already ended (``early``).  Only signals that land well before the
pass ends are judged, not those that race the replacement of the outputs.
The last line of standard output is a JSON summary; the exit code is 1 if
any run broke the contract.

The command runs through ``kljnsim.cli.main`` with ``os.fork`` wrapped to
print each child's pid, so the driver can check the worker after the run,
and with Python's own SIGINT handler installed first: a command started from
a background job would otherwise inherit an ignored SIGINT.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHIM = (
    "import os, signal, sys\n"
    # as a shell starts a foreground command, whatever this driver's own disposition
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "fork = os.fork\n"
    "def recording():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        print(pid, flush=True)\n"
    "    return pid\n"
    "os.fork = recording\n"
    "from kljnsim.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
PRIOR_REPORT, PRIOR_TRACE = b"previous report\n", b"previous,trace\n"
WORKER_GONE_S = 5.0
LATE_FRACTION = 0.6  # of the reference trace's bytes written: too close to the end to judge


def gone(pid: int) -> bool:
    """Whether ``pid`` has exited: no such process, or a zombie that no one has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except FileNotFoundError:
        return True


class Runs:
    """Runs of one ``simulate --trace-csv`` command under ``root``, each over earlier outputs in a directory of its own."""

    def __init__(self, root: Path, bits: int) -> None:
        self.root = root
        self.bits = bits

    def start(self, seed: int) -> subprocess.Popen:
        """The run of ``seed``, started in a new directory, which ``workdir``, ``report`` and ``trace`` then name."""
        self.workdir = self.root / f"run-{seed}"
        self.workdir.mkdir()
        self.report, self.trace = self.workdir / "report.json", self.workdir / "trace.csv"
        self.report.write_bytes(PRIOR_REPORT)
        self.trace.write_bytes(PRIOR_TRACE)
        args = ["simulate", "--preset", "lossless", "--seed", str(seed), "--bits", str(self.bits)]
        args += ["--out", str(self.report), "--trace-csv", str(self.trace)]
        return subprocess.Popen([sys.executable, "-c", SHIM, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def finishing(self, late_bytes: int) -> bool:
        """Whether the run's trace holds ``late_bytes`` or has replaced the earlier one: its pass is ending or over."""
        try:
            written = sum(p.stat().st_size for p in self.workdir.glob(".trace.csv.*.tmp"))
        except FileNotFoundError:  # renamed over the trace meanwhile
            return True
        return written >= late_bytes or self.trace.stat().st_size != len(PRIOR_TRACE)

    def reference(self) -> tuple[float, int]:
        """The duration and trace size of one uninterrupted run."""
        t0 = time.monotonic()
        proc = self.start(seed=0)
        out, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"reference run exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
        for pid in map(int, out.split()):
            while not gone(pid):
                time.sleep(0.01)
        return time.monotonic() - t0, self.trace.stat().st_size

    def interrupted(self, seed: int, delay_s: float, late_bytes: int) -> str:
        """One run with SIGINT due after ``delay_s``: ``"ok"``, ``"early"``, ``"late"`` or how it broke the contract."""
        proc = self.start(seed)
        time.sleep(delay_s)
        if proc.poll() is not None:
            verdict = "early"
        elif self.finishing(late_bytes):
            verdict = "late"
        else:
            proc.send_signal(signal.SIGINT)
            verdict = "signalled"
        out, err = proc.communicate(timeout=300)
        workers = [int(line) for line in out.split()]
        deadline = time.monotonic() + WORKER_GONE_S
        while not all(gone(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [pid for pid in workers if not gone(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        last = err.decode(errors="replace").strip().splitlines()[-1:]
        if left:
            return f"worker {left} left alive (exit {proc.returncode})"
        if verdict != "signalled":
            return verdict if proc.returncode == 0 else f"exit {proc.returncode} without a signal: {last}"
        if proc.returncode != -signal.SIGINT:
            return f"exit {proc.returncode} after SIGINT at {delay_s:.3f} s: {last}"
        if self.report.read_bytes() != PRIOR_REPORT or self.trace.read_bytes() != PRIOR_TRACE:
            return f"outputs replaced after SIGINT at {delay_s:.3f} s"
        if sorted(p.name for p in self.workdir.iterdir()) != ["report.json", "trace.csv"]:
            return f"files left behind after SIGINT at {delay_s:.3f} s"
        return "ok"


def drive(runs: int, seed: int, bits: int = 20000) -> dict:
    """``runs`` interrupted runs with signal times drawn from ``random.Random(seed)``; their tally."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        command = Runs(Path(tmp), bits)
        duration_s, trace_bytes = command.reference()
        shutil.rmtree(command.workdir)
        tally: dict = {"runs": runs, "bits": bits, "reference_s": round(duration_s, 3), "ok": 0, "early": 0, "late": 0}
        tally["broken"] = []
        for i in range(runs):
            delay_s = rng.uniform(0.2, 0.8) * duration_s
            verdict = command.interrupted(i + 1, delay_s, int(LATE_FRACTION * trace_bytes))
            shutil.rmtree(command.workdir)  # a file left behind fails only the run that left it
            if verdict in ("ok", "early", "late"):
                tally[verdict] += 1
            else:
                tally["broken"].append(verdict)
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1, help="seed of the signal times")
    parser.add_argument("--bits", type=int, default=20000, help="periods of 100 samples per run")
    args = parser.parse_args(argv)
    tally = drive(args.runs, args.seed, args.bits)
    print(json.dumps(tally))
    return 1 if tally["broken"] else 0


if __name__ == "__main__":
    sys.exit(main())
