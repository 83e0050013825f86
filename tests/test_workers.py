"""Chunks computed on a thread pool give the same bits as chunks computed inline.

Reports must be equal apart from ``timestamp_utc`` and trace CSVs
byte-identical at any thread count.  The thread count is set the way
``taskset`` sets it, through ``protocol.available_workers``.  Small thread
counts and short runs only: the pool never needs more threads than there
are chunks.
"""

import concurrent.futures
import io
import subprocess
import sys
import threading

import numpy as np
import pytest

from kljnsim import protocol
from kljnsim.config import resolve_config
from kljnsim.protocol import POOL_MIN_SAMPLES, iter_period_blocks
from kljnsim.reporting import build_report, report_json


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
def test_reports_identical_at_any_worker_count(shape, monkeypatch, pools):
    preset, mode, bits, samples, csv, forced = SHAPES[shape]
    if forced:
        monkeypatch.setattr(protocol, "POOL_MIN_SAMPLES", 0)
    cfg = config(preset, bits, samples, mode, seed=11)
    use_threads(monkeypatch, 1)
    inline = run(cfg, csv)
    assert pools == []
    for threads in (2, 3):
        use_threads(monkeypatch, threads)
        assert run(cfg, csv) == inline
    n_chunks = len(range(0, bits, max(1, protocol.CHUNK_SAMPLES // samples)))
    pooled = forced or samples >= POOL_MIN_SAMPLES
    assert pools == ([min(2, n_chunks), min(3, n_chunks)] if pooled else [])


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
