"""Chunks computed in a forked worker give the same bits as chunks computed inline.

Reports must be equal apart from ``timestamp_utc`` and trace CSVs
byte-identical at any CPU count.  The CPU count is set the way ``taskset``
sets it, through ``montecarlo.available_workers``.  On Linux with 2 or more
CPUs, a traced run or a run of long chunks forks one worker per pass when it
has at least 2 chunks; it must leave no process behind on any way out.  No
pass starts a thread.
"""

import io
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from kljnsim import montecarlo, noise, protocol, worker
from kljnsim.cli import main
from kljnsim.config import resolve_config
from kljnsim.montecarlo import FORK_MIN_SAMPLES
from kljnsim.protocol import iter_period_blocks
from kljnsim.reporting import build_report, report_json

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks a worker")


@pytest.fixture
def forks(monkeypatch):
    """One entry per ``os.fork`` the code under test makes, appended before it forks."""
    made = []
    fork = os.fork

    def recording():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", recording)
    return made


@pytest.fixture
def threads(monkeypatch):
    """The name of every thread the code under test starts."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n):
    """Let the pass see ``n`` CPUs in its affinity mask."""
    monkeypatch.setattr(montecarlo, "available_workers", lambda: n)


def config(preset, bits, samples, mode="independent", seed=0):
    """The resolved config of ``simulate --preset preset --bits bits --samples-per-bit samples ...``."""
    keys = {"network": {"preset": preset}, "noise.mode": mode, "master_seed": seed, "protocol.n_bits": bits}
    return resolve_config(None, {**keys, "protocol.samples_per_bit": samples})


def run(cfg, csv):
    trace = io.BytesIO() if csv else None
    report = build_report(cfg, empirical=True, trace=trace)
    del report["provenance"]["timestamp_utc"]
    return report_json(report), None if trace is None else trace.getvalue()


SHAPES = {
    # name: (preset, mode, bits, samples_per_bit, trace CSV, every chunk counted long: FORK_MIN_SAMPLES patched to 0)
    "flagship": ("gaa-1db", "independent", 600, 100, False, False),
    "trace-dump": ("lossless", "independent", 200, 100, True, False),
    "long-waveform": ("gaa-1db", "waveform", 4, 50_000, False, False),
    "long-single-period-csv": ("gaa-0p1db", "independent", 2, FORK_MIN_SAMPLES, True, False),
    "flagship-pool-forced": ("gaa-1db", "independent", 300, 100, True, True),
    "waveform-pool-forced": ("gaa-1db", "waveform", 5, 3000, False, True),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_identical_at_any_worker_count(shape, monkeypatch, forks, threads):
    preset, mode, bits, samples, csv, forced = SHAPES[shape]
    if forced:
        monkeypatch.setattr(montecarlo, "FORK_MIN_SAMPLES", 0)
    cfg = config(preset, bits, samples, mode, seed=11)
    use_cpus(monkeypatch, 1)
    inline = run(cfg, csv)
    assert forks == []
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        assert run(cfg, csv) == inline
    n_chunks = len(range(0, bits, max(1, protocol.CHUNK_SAMPLES // samples)))
    # a traced run or one of long chunks forks once per pass on 2 or more CPUs; flagship never does
    split = sys.platform == "linux" and n_chunks >= 2 and (csv or forced or samples >= FORK_MIN_SAMPLES)
    assert split == (shape != "flagship") or sys.platform != "linux"
    assert len(forks) == (2 if split else 0)
    assert threads == []


# traced runs of short chunks: (preset, mode, bits, samples_per_bit); 3 chunks each, or 4 for gaa-1db
SPLIT_RUNS = {
    "lossless-independent": ("lossless", "independent", 200, 100),
    "gaa-1db-independent": ("gaa-1db", "independent", 300, 100),
    "lossless-waveform": ("lossless", "waveform", 12, 1500),
    "gaa-1db-waveform": ("gaa-1db", "waveform", 16, 1500),
}


@linux_only
@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_trace_identical_with_a_forked_worker(name, monkeypatch, forks, threads):
    preset, mode, bits, samples = SPLIT_RUNS[name]
    cfg = config(preset, bits, samples, mode, seed=7)
    use_cpus(monkeypatch, 1)
    inline = run(cfg, csv=True)
    assert forks == []
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        assert run(cfg, csv=True) == inline
    assert len(forks) == 2
    assert threads == []
    assert_no_child()


@linux_only
def test_untraced_runs_never_fork(monkeypatch, forks):
    # untraced runs of short chunks; long ones fork (test_reports_identical_at_any_worker_count)
    use_cpus(monkeypatch, 2)
    for preset, mode, bits, samples in SPLIT_RUNS.values():
        run(config(preset, bits, samples, mode), csv=False)
    # one chunk is nothing to split, traced or long
    run(config("gaa-1db", 81, 100), csv=True)
    run(config("gaa-1db", 1, FORK_MIN_SAMPLES), csv=False)
    assert forks == []


def prior_outputs(tmp_path):
    report, trace = tmp_path / "prior.json", tmp_path / "prior.csv"
    report.write_bytes(b"previous report\n")
    trace.write_bytes(b"previous,trace\n")
    return report, trace


def assert_outputs_kept(tmp_path, report, trace):
    assert report.read_bytes() == b"previous report\n"
    assert trace.read_bytes() == b"previous,trace\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.csv", "prior.json"]


def simulate_args(preset, traced, report, trace):
    """A split run of ``preset``: traced, 500 periods of 100 samples; untraced, 3 waveform periods of 40000."""
    if traced:
        return ["simulate", "--preset", preset, "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
    long_periods = ["--mode", "waveform", "--bits", "3", "--samples-per-bit", "40000"]
    return ["simulate", "--preset", preset, *long_periods, "--out", str(report)]


def in_one_process(monkeypatch, module, name, action, in_worker, call=1):
    """Make ``module.name`` call ``action`` on its ``call``-th call in the worker, or in this process only."""
    parent = os.getpid()
    real = getattr(module, name)
    calls = []

    def wrapped(*args):
        if (os.getpid() != parent) == in_worker:
            calls.append(1)
            if len(calls) == call:
                action()
        return real(*args)

    monkeypatch.setattr(module, name, wrapped)


NO_MEMORY = "Unable to allocate 1.00 MiB for an array with shape (2048, 64)"


def no_memory():
    raise MemoryError(NO_MEMORY)


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def interrupted():
    raise KeyboardInterrupt


@linux_only
@pytest.mark.parametrize(
    "failure, message, traced",
    [
        (no_memory, f"worker failed: MemoryError: {NO_MEMORY}", True),
        (killed, "worker ended before its last chunk", True),
        (no_memory, f"worker failed: MemoryError: {NO_MEMORY}", False),
        (killed, "worker ended before its last chunk", False),
    ],
    ids=["memory-error", "killed", "memory-error-untraced", "killed-untraced"],
)
def test_worker_failure_exits_two_and_keeps_outputs(failure, message, traced, tmp_path, monkeypatch, capsys, forks):
    use_cpus(monkeypatch, 2)
    in_one_process(monkeypatch, montecarlo, "block_totals", failure, in_worker=True)
    report, trace = prior_outputs(tmp_path)
    assert main(simulate_args("gaa-1db", traced, report, trace)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"kljnsim: runtime error: {message}"]
    assert forks == [1]
    assert_outputs_kept(tmp_path, report, trace)
    assert_no_child()


@linux_only
@pytest.mark.parametrize(
    "module, where, call, traced",
    [
        # on this process's second chunk (chunk 2), or while it reads the worker's first (chunk 1)
        (montecarlo, "_write_trace_rows", 2, True),
        (worker, "_receive", 1, True),
        (montecarlo, "block_totals", 2, False),
        (worker, "_receive", 1, False),
    ],
    ids=["_write_trace_rows", "_receive", "block_totals-untraced", "_receive-untraced"],
)
def test_interrupt_leaves_no_child(module, where, call, traced, tmp_path, monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    in_one_process(monkeypatch, module, where, interrupted, in_worker=False, call=call)
    report, trace = prior_outputs(tmp_path)
    preset = "lossless" if traced else "gaa-1db"
    with pytest.raises(KeyboardInterrupt):
        main(simulate_args(preset, traced, report, trace))
    assert forks == [1]
    assert_no_child()
    assert_outputs_kept(tmp_path, report, trace)


@linux_only
def test_chunk_errors_reach_the_caller(monkeypatch, forks):
    # an error in a worker chunk arrives as a ChildProcessError that names it, one in this process's chunk as itself
    cfg = config("gaa-1db", 3, FORK_MIN_SAMPLES)
    use_cpus(monkeypatch, 2)

    def chunk_failed():
        raise ValueError("chunk failed")

    for in_worker, error, match in [
        (True, ChildProcessError, "^worker failed: ValueError: chunk failed$"),
        (False, ValueError, "^chunk failed$"),
    ]:
        with monkeypatch.context() as patch:
            in_one_process(patch, montecarlo, "alarm_sweep", chunk_failed, in_worker)
            with pytest.raises(error, match=match):
                montecarlo.monte_carlo_pass(cfg)
        assert_no_child()
    assert forks == [1, 1]


def test_worker_blocks_match_inline_blocks():
    # the chunks of a split pass, even ones here and odd ones in the worker, are the blocks of one inline pass
    cfg = config("gaa-1db", 5, 3000, "waveform")
    args = (5, cfg.network, cfg.noise, 3000, 4, True)
    even = iter_period_blocks(*args, chunks=slice(0, None, 2))
    odd = iter_period_blocks(*args, chunks=slice(1, None, 2))
    split = [next(even), next(odd), next(even)]
    assert next(even, None) is next(odd, None) is None
    for inline, sliced in zip(iter_period_blocks(*args), split, strict=True):
        for name in ("alice_high", "bob_high", "i_alice", "i_bob", "v_node"):
            assert np.array_equal(getattr(inline, name), getattr(sliced, name))


@linux_only
def test_kernels_first_built_in_the_worker(monkeypatch, forks):
    # caches empty at the fork: the worker builds its own filter kernels for its chunk,
    # and this process builds its own for chunk 0
    cfg = config("gaa-1db", 2, 40_000, "waveform", seed=17)
    use_cpus(monkeypatch, 1)
    inline = run(cfg, csv=True)
    noise.lowpass_kernel.cache_clear()
    noise._reversed_kernel.cache_clear()
    use_cpus(monkeypatch, 2)
    assert run(cfg, csv=True) == inline
    assert forks == [1]
    assert noise._reversed_kernel.cache_info().currsize == 1


def test_short_runs_never_load_the_worker():
    # analyze and an untraced run of short chunks neither fork nor load the worker or a thread pool
    code = (
        "import os, sys\n"
        "def no_fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "from kljnsim.cli import main\n"
        "assert main(['analyze', '--preset', 'gaa-1db']) == 0\n"
        "assert main(['simulate', '--preset', 'gaa-1db', '--bits', '2000']) == 0\n"
        "loaded = {'kljnsim.worker', 'concurrent.futures'} & set(sys.modules)\n"
        "sys.exit(f'loaded {sorted(loaded)}' if loaded else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
