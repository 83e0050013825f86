"""kljnsim benchmark: ``kljnsim simulate`` end to end, with per-layer timings.

    python3 bench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--seed`` becomes the simulation's master seed and is the only
input that varies between runs of one workload.  The program receives one
fully resolved config file.

Each ``simulate`` invocation is a fresh child process (``child.py``) with
BLAS/OpenMP threads pinned to one.  Invocations repeat until ``--seconds``
have passed, and every one is checked by ``gate.py``: its report against
the physics, its ``empirical`` section against the first invocation's
(determinism), and, for ``trace-dump``, its CSV.  The gate itself is fed
known-bad copies of the first good output and must reject them.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their times are wall times scaled to a reference host speed: before every
child invocation the run times a fixed kernel (``speed.py``), and the
medians are multiplied by ``REFERENCE_S`` over the kernel's mean time in the
run.
``--trace 1`` alternates plain and traced invocations and reports the
per-layer metrics of the traced ones (``layers.py``).  The last line of
standard output is one JSON object; a fuller record with the machine, the
inputs, ``failed_frac`` and every sample goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import gate
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_PER_ROUND = 2  # timed `analyze` invocations per simulate invocation (trace 0)
MIN_RUNS = 3  # simulate invocations per mode, even past the deadline
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    preset: str
    mode: str
    bits: int
    samples_per_bit: int
    trace_csv: bool = False
    check_mean_measurements: bool = False
    oversample: int = 8
    why: str = ""

    @property
    def samples(self) -> int:
        return self.bits * self.samples_per_bit

    @property
    def stride(self) -> int:
        return 1 if self.mode == "independent" else self.oversample

    def config(self, seed: int, report: Path, trace_csv: Path) -> dict:
        return {
            "network": {"preset": self.preset},
            "noise": {"t_eff": "normalized", "bandwidth": 1.0, "mode": self.mode, "oversample": self.oversample},
            "protocol": {
                "n_bits": self.bits,
                "samples_per_bit": self.samples_per_bit,
                "alarm": {"rel_tolerance": 0.1, "window": 50},
            },
            "attack": {"max_measurements": 64},
            "master_seed": seed,
            "output": {"report": str(report), "trace_csv": str(trace_csv) if self.trace_csv else None},
        }


# Sized so that one invocation takes about 1 s on a 2-core x86 VM: a run
# then holds a few dozen invocations, and its medians are steady within one
# phase of host speed (see speed.py for the phases).
WORKLOADS = {
    "flagship": Workload(
        "gaa-1db", "independent", bits=4000, samples_per_bit=100, check_mean_measurements=True,
        why="README command: per-period overhead (stream setup, alarm sweep, Python glue) dominates",
    ),
    "long-waveform": Workload(
        "gaa-1db", "waveform", bits=80, samples_per_bit=50000,
        why="few very long waveform periods: array kernels (filter convolution) dominate",
    ),
    "trace-dump": Workload(
        "lossless", "independent", bits=800, samples_per_bit=100, trace_csv=True,
        why="per-sample CSV dump dominates; no-shunt solve and an alarm that never fires",
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KLJN_SEED", None)  # the seed travels in the config file only
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark run: invokes children, gates their outputs, keeps samples."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.csv = workdir / "trace.csv"
        self.config = workdir / "config.json"
        self.sidecar = workdir / "child.json"
        self.config.write_text(json.dumps(workload.config(seed, self.report, self.csv), indent=2))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.gate_misses: list[str] | None = None
        self.first_empirical = None
        self.first_counts = None
        self.setup_s: list[float] = []
        self.reference_s: list[float] = []
        self.samples: dict[str, list[dict]] = {"plain": [], "trace": []}
        self.child_versions: dict = {}

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"bench: FAILED: {what}", file=sys.stderr)

    def _spawn(self, argv: list[str]) -> tuple[float, int, str]:
        self.attempted += 1
        self.reference_s.append(speed.reference_s())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, -1, f"timed out after {CHILD_TIMEOUT_S} s"
        return time.perf_counter() - t0, proc.returncode, proc.stderr.strip()[-500:]

    def analyze(self, timed: bool) -> None:
        out = self.workdir / "analyze.json"
        out.unlink(missing_ok=True)
        wall, code, err = self._spawn(
            [sys.executable, "-m", "kljnsim", "analyze", "--config", str(self.config), "--out", str(out)]
        )
        if code != 0:
            return self._fail(f"analyze exited {code}: {err}")
        try:
            problems = gate.check_analytic(json.loads(out.read_text()), self.workload)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        if problems:
            return self._fail("analyze: " + "; ".join(problems))
        if timed:
            self.setup_s.append(wall)

    def simulate(self, mode: str) -> None:
        for path in (self.report, self.csv, self.sidecar):
            path.unlink(missing_ok=True)
        wall, code, err = self._spawn(
            [sys.executable, str(BENCH / "child.py"), str(self.sidecar), mode, "--",
             "simulate", "--config", str(self.config)]
        )
        if code != 0:
            return self._fail(f"simulate ({mode}) exited {code}: {err}")
        try:
            side = json.loads(self.sidecar.read_text())
            report = json.loads(self.report.read_text())
        except (OSError, ValueError) as exc:
            return self._fail(f"simulate ({mode}): unreadable output: {exc}")
        problems = gate.check_report(report, self.workload)
        csv_rows = csv_bytes = 0
        if self.workload.trace_csv:
            csv_bytes = self.csv.stat().st_size
            csv_rows = self.workload.samples
            with self.csv.open(encoding="utf-8") as fh:
                problems += gate.check_csv(fh, csv_rows)
        if problems:
            return self._fail(f"simulate ({mode}): " + "; ".join(problems))

        if self.gate_misses is None:
            self.gate_misses = gate.self_check(report, self.workload, self._csv_lines)
            for name in self.gate_misses:
                print(f"bench: GATE BROKEN: accepted known-bad input: {name}", file=sys.stderr)
        if self.first_empirical is None:
            self.first_empirical = report["empirical"]
        elif report["empirical"] != self.first_empirical:
            return self._fail(f"simulate ({mode}): empirical section differs from the first invocation")
        sample = {"wall_s": wall, **side}
        if mode == "trace":
            sample["layers"] = layer_metrics(side, csv_rows, csv_bytes)
            counts = {k: sample["layers"][k] for k in EXACT_COUNTS}
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                return self._fail(f"traced counts {counts} != first traced run {self.first_counts}")
        self.child_versions = {"python": side.get("python"), "numpy": side.get("numpy")}
        self.samples[mode].append(sample)

    def _csv_lines(self):
        with self.csv.open(encoding="utf-8") as fh:
            yield from fh


EXACT_COUNTS = ("noise.streams_built", "attack.trials", "reporting.csv_rows")

LAYER_UNITS = {
    "noise.stream_setup_ns": "ns",
    "noise.streams_built": "count",
    "noise.draw_ns_per_sample": "ns",
    "noise.filter_ns_per_sample": "ns",
    "noise.filter_macs": "count",
    "circuit.solve_ns_per_sample": "ns",
    "circuit.solve_calls": "count",
    "protocol.alarm_ns_per_sample": "ns",
    "protocol.alarm_calls": "count",
    "protocol.alarm_useful_frac": "ratio",
    "protocol.period_self_ns": "ns",
    "protocol.choices_s": "s",
    "attack.ns_per_trial": "ns",
    "attack.trials": "count",
    "attack.periods": "count",
    "reporting.csv_ns_per_row": "ns",
    "reporting.csv_rows": "count",
    "reporting.csv_bytes": "bytes",
    "reporting.loop_self_s": "s",
    "reporting.json_s": "s",
    "config.resolve_s": "s",
    "stats.analytic_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

# span names whose self time makes up each layer's share of a traced run
SHARE_SPANS = {
    "noise.stream_setup": ("noise.stream_setup",),
    "noise.draw": ("noise.gaussian", "noise.band_limited"),
    "noise.filter": ("noise.filter",),
    "circuit.solve": ("circuit.solve",),
    "protocol.alarm": ("protocol.alarm",),
    "protocol.period_self": ("protocol.period",),
    "protocol.choices": ("protocol.choices",),
    "attack.add_period": ("attack.add_period",),
    "reporting.csv": ("reporting.csv",),
    "reporting.loop_self": ("reporting.loop",),
    "reporting.json": ("reporting.json",),
    "config.resolve": ("config.resolve",),
    "stats.analytic": ("stats.analytic",),
}


def layer_metrics(side: dict, csv_rows: int, csv_bytes: int) -> dict[str, float]:
    spans, counts = side["spans"], side["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per(num, den, scale=1e9):
        return num / den * scale if den else 0.0

    draw_samples = counts.get("noise.gaussian_samples", 0) + counts.get("noise.filtered_samples", 0)
    alarm_samples = counts.get("protocol.alarm_samples", 0)
    trials = counts.get("attack.trials", 0)
    return {
        "noise.stream_setup_ns": per(total("noise.stream_setup"), calls("noise.stream_setup")),
        "noise.streams_built": calls("noise.stream_setup"),
        "noise.draw_ns_per_sample": per(own("noise.gaussian") + own("noise.band_limited"), draw_samples),
        "noise.filter_ns_per_sample": per(total("noise.filter"), counts.get("noise.filtered_samples", 0)),
        "noise.filter_macs": counts.get("noise.filter_macs", 0),
        "circuit.solve_ns_per_sample": per(total("circuit.solve"), counts.get("circuit.samples", 0)),
        "circuit.solve_calls": calls("circuit.solve"),
        "protocol.alarm_ns_per_sample": per(total("protocol.alarm"), alarm_samples),
        "protocol.alarm_calls": calls("protocol.alarm"),
        "protocol.alarm_useful_frac": per(counts.get("protocol.alarm_useful_samples", 0), alarm_samples, 1.0),
        "protocol.period_self_ns": per(own("protocol.period"), calls("protocol.period")),
        "protocol.choices_s": total("protocol.choices"),
        "attack.ns_per_trial": per(total("attack.add_period"), trials),
        "attack.trials": trials,
        "attack.periods": calls("attack.add_period"),
        "reporting.csv_ns_per_row": per(total("reporting.csv"), csv_rows),
        "reporting.csv_rows": csv_rows,
        "reporting.csv_bytes": csv_bytes,
        "reporting.loop_self_s": own("reporting.loop"),
        "reporting.json_s": total("reporting.json"),
        "config.resolve_s": total("config.resolve"),
        "stats.analytic_s": total("stats.analytic"),
        "cli.import_s": side["import_s"],
    }


def layer_shares(samples: list[dict]) -> dict[str, float]:
    """Median self time of each layer as a share of the traced invocation's wall time."""
    shares = {}
    for layer, names in SHARE_SPANS.items():
        shares[layer] = statistics.median(
            sum(s["spans"].get(n, [0, 0.0, 0.0])[2] for n in names) / s["wall_s"] for s in samples
        )
    shares["cli.import"] = statistics.median(s["import_s"] / s["wall_s"] for s in samples)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def wall_medians(run: Run) -> dict[str, float]:
    """Medians of the run's untraced wall times, unscaled."""
    plain = run.samples["plain"]
    samples = run.workload.samples
    return {
        "run_s": statistics.median(s["wall_s"] for s in plain),
        "setup_s": statistics.median(run.setup_s),
        # falls back to the child's wall time if build_report is absent from cli
        "build_report_s": statistics.median(
            s["spans"].get("reporting.build_report", [0, s["wall_s"]])[1] for s in plain
        ),
        "samples": samples,
    }


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Times in seconds at the reference host speed (``speed.py``)."""
    wall = wall_medians(run)
    k = speed.scale(run.reference_s)
    return {
        "run_s": (wall["run_s"] * k, "s"),
        "setup_s": (wall["setup_s"] * k, "s"),
        "samples_per_s": (wall["samples"] / (wall["build_report_s"] * k), "1/s"),
        "peak_rss_mb": (statistics.median(s["maxrss_kb"] / 1024.0 for s in run.samples["plain"]), "MB"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    traced = run.samples["trace"]
    metrics = {
        name: (statistics.median(s["layers"][name] for s in traced), LAYER_UNITS[name])
        for name in LAYER_UNITS
        if name != "trace.overhead_s"
    }
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in run.samples["plain"]
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kljnsim" / "__init__.py").is_file():
        print(f"bench: no kljnsim package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    started = time.perf_counter()
    deadline = started + args.seconds
    run = Run(workload, args.seed, workdir)
    run.analyze(timed=False)  # warm-up: bytecode caches, page cache
    speed.reference_s()  # warm-up
    modes = ("plain", "trace") if args.trace else ("plain",)
    # Set-up samples are interleaved with the simulate invocations so that
    # both see the same stretch of machine load.
    while True:
        for _ in range(0 if args.trace else SETUP_PER_ROUND):
            run.analyze(timed=True)
        for mode in modes:
            run.simulate(mode)
        enough = all(len(run.samples[m]) >= MIN_RUNS for m in modes)
        if time.perf_counter() >= deadline and (enough or run.failed >= MIN_RUNS):
            break
    shutil.rmtree(workdir, ignore_errors=True)

    if not all(run.samples[m] for m in modes) or (not args.trace and not run.setup_s):
        print(f"bench: no successful invocation ({run.failed} of {run.attempted} failed)", file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)
    correct = run.failed == 0 and not run.gate_misses
    record = {
        "provenance": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "bench_python": platform.python_version(),
            **run.child_versions,
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workload": args.workload,
            "workload_params": asdict(workload),
            "samples_per_invocation": workload.samples,
        },
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "gate_accepted_bad_inputs": run.gate_misses,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s_samples": run.setup_s,
        "reference_s_samples": run.reference_s,
        "host_scale": speed.scale(run.reference_s),
        "invocations": run.samples,
        "elapsed_s": time.perf_counter() - started,
    }
    if args.trace:
        record["layer_shares"] = layer_shares(run.samples["trace"])
        record["absent_entry_points"] = sorted(set(run.samples["trace"][0]["absent"]))
    else:
        record["wall_medians"] = wall_medians(run)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2))

    print(f"bench: {tag}: {run.attempted} invocations, failed_frac {record['failed_frac']:.3f}", file=sys.stderr)
    print(f"bench:   provenance {json.dumps(record['provenance'])}", file=sys.stderr)
    if not args.trace:
        print(f"bench:   host scale {record['host_scale']:.4f}, unscaled medians "
              f"{json.dumps(record['wall_medians'])}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name:32s} {value:.6g} {unit}", file=sys.stderr)
    if args.trace:
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(record["layer_shares"].items())[:5])
        print(f"bench:   leading self-time shares: {top}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
