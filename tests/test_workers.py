"""Chunks computed on a thread pool or in a forked worker give the same bits as chunks computed inline.

Reports must be equal apart from ``timestamp_utc`` and trace CSVs
byte-identical at any CPU count.  The CPU count is set the way ``taskset``
sets it, through ``protocol.available_workers``.  Small thread counts and
short runs only: the pool never needs more threads than there are chunks.
A traced run of short chunks forks one worker on Linux; it must leave no
process behind on any way out.
"""

import concurrent.futures
import io
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from kljnsim import montecarlo, noise, protocol, traceworker
from kljnsim.cli import main
from kljnsim.config import resolve_config
from kljnsim.protocol import POOL_MIN_SAMPLES, iter_period_blocks
from kljnsim.reporting import build_report, report_json

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks a trace worker")


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every thread pool the code under test creates."""
    created = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return created


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


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_threads(monkeypatch, n):
    """Let the pool have ``n`` threads: ``n`` CPUs available and the cap raised to ``n``."""
    monkeypatch.setattr(protocol, "available_workers", lambda: n)
    monkeypatch.setattr(protocol, "POOL_MAX_WORKERS", n)


def config(preset, bits, samples, mode="independent", seed=0):
    """The resolved config of ``simulate --preset preset --bits bits --samples-per-bit samples ...``."""
    keys = {"network": {"preset": preset}, "noise.mode": mode, "master_seed": seed, "protocol.n_bits": bits}
    return resolve_config(None, {**keys, "protocol.samples_per_bit": samples})


def run(cfg, csv):
    trace = io.StringIO(newline="") if csv else None
    report = build_report(cfg, empirical=True, trace=trace)
    del report["provenance"]["timestamp_utc"]
    return report_json(report), None if trace is None else trace.getvalue()


SHAPES = {
    # name: (preset, mode, bits, samples_per_bit, trace CSV, pool threshold patched to 0)
    "flagship": ("gaa-1db", "independent", 600, 100, False, False),
    "trace-dump": ("lossless", "independent", 200, 100, True, False),
    "long-waveform": ("gaa-1db", "waveform", 4, 50_000, False, False),
    "long-single-period-csv": ("gaa-0p1db", "independent", 2, POOL_MIN_SAMPLES, True, False),
    "flagship-pool-forced": ("gaa-1db", "independent", 300, 100, True, True),
    "waveform-pool-forced": ("gaa-1db", "waveform", 5, 3000, False, True),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_identical_at_any_worker_count(shape, monkeypatch, pools, forks):
    preset, mode, bits, samples, csv, forced = SHAPES[shape]
    if forced:
        monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    cfg = config(preset, bits, samples, mode, seed=11)
    use_threads(monkeypatch, 1)
    inline = run(cfg, csv)
    assert pools == forks == []
    for threads in (2, 3):
        use_threads(monkeypatch, threads)
        assert run(cfg, csv) == inline
    n_chunks = len(range(0, bits, max(1, protocol.CHUNK_SAMPLES // samples)))
    pooled = forced or samples >= POOL_MIN_SAMPLES
    assert pools == ([min(2, n_chunks), min(3, n_chunks)] if pooled else [])
    # only a traced run of several short chunks forks, once per pass on 2 or more CPUs
    split = csv and not pooled and n_chunks >= 2 and sys.platform == "linux"
    assert len(forks) == (2 if split else 0)


# traced runs of short chunks: (preset, mode, bits, samples_per_bit); 3 chunks each, or 4 for gaa-1db
SPLIT_RUNS = {
    "lossless-independent": ("lossless", "independent", 200, 100),
    "gaa-1db-independent": ("gaa-1db", "independent", 300, 100),
    "lossless-waveform": ("lossless", "waveform", 12, 1500),
    "gaa-1db-waveform": ("gaa-1db", "waveform", 16, 1500),
}


@linux_only
@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_trace_identical_with_a_forked_worker(name, monkeypatch, pools, forks):
    preset, mode, bits, samples = SPLIT_RUNS[name]
    cfg = config(preset, bits, samples, mode, seed=7)
    use_threads(monkeypatch, 1)
    inline = run(cfg, csv=True)
    assert forks == []
    for cpus in (2, 3):
        use_threads(monkeypatch, cpus)
        assert run(cfg, csv=True) == inline
    assert len(forks) == 2
    assert pools == []
    assert_no_child()


@linux_only
def test_untraced_runs_never_fork(monkeypatch, forks):
    use_threads(monkeypatch, 2)
    for preset, mode, bits, samples in SPLIT_RUNS.values():
        run(config(preset, bits, samples, mode), csv=False)
    # one chunk is nothing to split
    run(config("gaa-1db", 81, 100), csv=True)
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


def in_worker_only(monkeypatch, failure):
    """Make the trace worker, and only it, call ``failure`` where it renders a chunk's CSV text."""
    parent = os.getpid()
    render = montecarlo._render_trace

    def failing(*args):
        if os.getpid() != parent:
            failure()
        render(*args)

    monkeypatch.setattr(montecarlo, "_render_trace", failing)


def no_memory():
    raise MemoryError("Unable to allocate 1.00 MiB for an array with shape (2048, 64)")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


@linux_only
@pytest.mark.parametrize(
    "failure, message",
    [
        (no_memory, "trace CSV worker failed: MemoryError: Unable to allocate 1.00 MiB for an array with shape (2048, 64)"),
        (killed, "trace CSV worker ended before its last chunk"),
    ],
    ids=["memory-error", "killed"],
)
def test_worker_failure_exits_two_and_keeps_outputs(failure, message, tmp_path, monkeypatch, capsys, forks):
    use_threads(monkeypatch, 2)
    in_worker_only(monkeypatch, failure)
    report, trace = prior_outputs(tmp_path)
    args = ["simulate", "--preset", "gaa-1db", "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"kljnsim: runtime error: {message}"]
    assert forks == [1]
    assert_outputs_kept(tmp_path, report, trace)
    assert_no_child()


@linux_only
@pytest.mark.parametrize("where", ["_write_trace_rows", "_receive"])
def test_interrupt_leaves_no_child(where, tmp_path, monkeypatch, forks):
    # on this process's second chunk (chunk 2), or while it reads the worker's first (chunk 1)
    calls = []
    module = montecarlo if where == "_write_trace_rows" else traceworker
    real = getattr(module, where)

    def interrupted_on_call(*args):
        calls.append(1)
        if len(calls) == (2 if where == "_write_trace_rows" else 1):
            raise KeyboardInterrupt
        return real(*args)

    use_threads(monkeypatch, 2)
    monkeypatch.setattr(module, where, interrupted_on_call)
    report, trace = prior_outputs(tmp_path)
    args = ["simulate", "--preset", "lossless", "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
    with pytest.raises(KeyboardInterrupt):
        main(args)
    assert forks == [1]
    assert_no_child()
    assert_outputs_kept(tmp_path, report, trace)


def test_pool_never_has_more_threads_than_chunks(monkeypatch, pools):
    monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    cfg = config("gaa-1db", 2, protocol.CHUNK_SAMPLES)

    def thread_name(block):
        return threading.current_thread().name

    use_threads(monkeypatch, 3)
    names = list(iter_period_blocks(2, cfg.network, cfg.noise, cfg.samples_per_bit, 1, thread_name))
    assert pools == [2]
    assert len(names) == 2
    assert threading.main_thread().name not in names


def test_pool_is_capped_at_the_measured_thread_count(monkeypatch, pools):
    monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(protocol, "available_workers", lambda: 8)
    cfg = config("gaa-1db", 4, protocol.CHUNK_SAMPLES)
    assert len(list(iter_period_blocks(4, cfg.network, cfg.noise, cfg.samples_per_bit, 1, lambda b: b.n_periods))) == 4
    assert pools == [protocol.POOL_MAX_WORKERS] == [2]


def test_at_most_workers_plus_one_chunks_in_flight(monkeypatch):
    monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    started = []
    real = protocol.run_periods

    def counting(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(protocol, "run_periods", counting)
    cfg = config("gaa-1db", 8, protocol.CHUNK_SAMPLES)
    use_threads(monkeypatch, 2)
    chunks = iter_period_blocks(8, cfg.network, cfg.noise, cfg.samples_per_bit, 1, lambda b: b.n_periods)
    for consumed, _ in enumerate(chunks, start=1):
        assert len(started) <= consumed + 2
    assert len(started) == 8


def test_chunk_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    cfg = config("gaa-1db", 6, protocol.CHUNK_SAMPLES)
    seen = []

    def fail_on_second(block):
        seen.append(block)
        if len(seen) == 2:
            raise ValueError("chunk failed")
        return block.n_periods

    use_threads(monkeypatch, 2)
    with pytest.raises(ValueError, match="chunk failed"):
        list(iter_period_blocks(6, cfg.network, cfg.noise, cfg.samples_per_bit, 1, fail_on_second))


def test_pool_blocks_match_inline_blocks(monkeypatch):
    monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    cfg = config("gaa-1db", 5, 3000, "waveform")
    args = (5, cfg.network, cfg.noise, 3000, 4, lambda block: block, True)
    use_threads(monkeypatch, 1)
    inline_blocks = list(iter_period_blocks(*args))
    use_threads(monkeypatch, 3)
    for inline, pooled in zip(inline_blocks, iter_period_blocks(*args), strict=True):
        for name in ("alice_high", "bob_high", "i_alice", "i_bob", "v_node"):
            assert np.array_equal(getattr(inline, name), getattr(pooled, name))


def test_kernels_first_built_on_pool_threads(monkeypatch, pools):
    # two chunks of 40000 samples go to two pool threads, which both find the
    # kernel caches empty and may build them at the same time
    cfg = config("gaa-1db", 2, 40_000, "waveform", seed=17)
    use_threads(monkeypatch, 1)
    inline = run(cfg, csv=True)
    noise.lowpass_kernel.cache_clear()
    noise._reversed_kernel.cache_clear()
    use_threads(monkeypatch, 2)
    assert run(cfg, csv=True) == inline
    assert pools == [2]
    assert noise._reversed_kernel.cache_info().currsize == 1


def test_short_runs_do_not_import_the_pool():
    code = (
        "import sys\n"
        "from kljnsim.cli import main\n"
        "assert main(['analyze', '--preset', 'gaa-1db']) == 0\n"
        "assert main(['simulate', '--preset', 'gaa-1db', '--bits', '50']) == 0\n"
        "sys.exit('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
