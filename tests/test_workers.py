"""Chunks computed in a forked worker give the same bits as chunks computed inline.

Reports must be equal apart from ``timestamp_utc`` and trace CSVs
byte-identical at any CPU count, whichever process claims which chunk.  The
CPU count is set the way ``taskset`` sets it, through
``montecarlo.available_workers``.  On Linux with 2 or more CPUs, a traced run
or a run of at least ``FORK_MIN_SAMPLES`` samples forks one worker per pass
when it has at least 2 chunks; it must leave no process behind on any way
out.  No pass starts a thread.
"""

import fcntl
import io
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kljnsim import montecarlo, noise, protocol, sigint, worker
from kljnsim.cli import main
from kljnsim.config import resolve_config
from kljnsim.montecarlo import FORK_MIN_SAMPLES
from kljnsim.protocol import iter_period_blocks
from kljnsim.reporting import build_report, report_json
from sigint_driver import SHIM, gone

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


def run(cfg, csv, trace=None):
    trace = trace or (io.BytesIO() if csv else None)
    report = build_report(cfg, empirical=True, trace=trace)
    del report["provenance"]["timestamp_utc"]
    return report_json(report), None if trace is None else trace.getvalue()


SHAPES = {
    # name: (preset, mode, bits, samples_per_bit, trace CSV, every pass counted large: FORK_MIN_SAMPLES patched to 0)
    "flagship": ("gaa-1db", "independent", 600, 100, False, False),
    "trace-dump": ("lossless", "independent", 200, 100, True, False),
    "long-waveform": ("gaa-1db", "waveform", 4, 50_000, False, False),
    "long-single-period-csv": ("gaa-0p1db", "independent", 2, 4 * protocol.CHUNK_SAMPLES, True, False),
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
    # a traced run or one of FORK_MIN_SAMPLES samples forks once per pass on 2 or more CPUs; these untraced
    # shapes are smaller, so only the forced ones fork untraced
    split = sys.platform == "linux" and n_chunks >= 2 and (csv or forced or bits * samples >= FORK_MIN_SAMPLES)
    assert split == (shape not in ("flagship", "long-waveform")) or sys.platform != "linux"
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
def test_untraced_runs_fork_by_pass_size(monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    # the benchmark's flagship shape, 400,000 samples, forks once
    run(config("gaa-1db", 4000, 100), csv=False)
    assert forks == [1]
    # untraced runs below FORK_MIN_SAMPLES samples stay on one CPU
    run(config("gaa-1db", 2000, 100), csv=False)
    for preset, mode, bits, samples in SPLIT_RUNS.values():
        run(config(preset, bits, samples, mode), csv=False)
    # one chunk is nothing to split, traced or long
    run(config("gaa-1db", 81, 100), csv=True)
    run(config("gaa-1db", 1, FORK_MIN_SAMPLES), csv=False)
    assert forks == [1]


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
    """A split run of ``preset``: traced, 500 periods of 100 samples (7 chunks); untraced, 3000 (38 chunks)."""
    if traced:
        return ["simulate", "--preset", preset, "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
    return ["simulate", "--preset", preset, "--bits", "3000", "--out", str(report)]


def in_one_process(monkeypatch, module, name, action, in_worker, call=1):
    """Make ``module.name`` call ``action`` on its ``call``-th call (every call for None) in the worker, or in this process only."""
    parent = os.getpid()
    real = getattr(module, name)
    calls = []

    def wrapped(*args):
        if (os.getpid() != parent) == in_worker:
            calls.append(1)
            if call is None or len(calls) == call:
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
    # this process 20 ms slower per chunk, so the worker claims a chunk even on a loaded host
    in_one_process(monkeypatch, montecarlo, "block_totals", slowed(0.02), in_worker=False, call=None)
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
        # on this process's second chunk, or as it starts to read the first chunk of the worker's it
        # reaches: by then the worker has claimed that chunk and, traced, may be sending it
        (montecarlo, "_trace_rows", 2, True),
        (worker, "_chunk", 1, True),
        (montecarlo, "block_totals", 2, False),
        (worker, "_chunk", 1, False),
    ],
    ids=["_trace_rows", "_chunk", "block_totals-untraced", "_chunk-untraced"],
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
    # each chunk of a split pass is made on its own, in the order claimed, and is the block of one inline pass
    cfg = config("gaa-1db", 5, 3000, "waveform")
    args = (5, cfg.network, cfg.noise, 3000)
    claimed = {c: protocol.period_block(*args, c, noise.SeededStream(4, c).generator(), True) for c in (1, 2, 0)}
    split = [claimed[c] for c in sorted(claimed)]
    for inline, sliced in zip(iter_period_blocks(*args, 4, True), split, strict=True):
        for name in ("alice_high", "bob_high", "i_alice", "i_bob", "v_node"):
            assert np.array_equal(getattr(inline, name), getattr(sliced, name))


@linux_only
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_this_process_builds_every_stream_of_a_split_pass(traced, monkeypatch, forks):
    # whichever process claims a chunk, this one builds the chunk's stream before the fork, so the
    # streams it builds are the same in every run, as a profiler of this process counts them
    parent = os.getpid()
    built = []
    real = noise.SeededStream.generator

    def counted(stream):
        if os.getpid() == parent:
            built.append(stream.stream_id)
        return real(stream)

    monkeypatch.setattr(noise.SeededStream, "generator", counted)
    use_cpus(monkeypatch, 2)
    bits = 300 if traced else 4000
    for _ in range(3):
        run(config("gaa-1db", bits, 100), csv=traced)
    n_chunks = len(range(0, bits, protocol.chunk_periods(100)))
    assert built == 3 * list(range(n_chunks))
    assert len(forks) == 3


def test_equal_resistors_fail_before_any_stream_or_fork(monkeypatch, forks):
    # the pass checks the pair first: a doomed run large enough to split builds no stream, keeps no
    # heap setting and forks no worker
    made, real = [], noise.SeededStream.generator

    def counted(stream):
        made.append(stream.stream_id)
        return real(stream)

    monkeypatch.setattr(noise.SeededStream, "generator", counted)
    monkeypatch.setattr(montecarlo, "_keep_heap", lambda: made.append("heap"))
    use_cpus(monkeypatch, 2)
    cfg = resolve_config({"network": {"r_alice": 1000, "r_bob": 1000}}, {"protocol.n_bits": 4000})
    with pytest.raises(ValueError, match="^network.r_alice and network.r_bob must differ to form a resistor pair$"):
        montecarlo.monte_carlo_pass(cfg)
    assert forks == []
    assert made == []


@linux_only
def test_a_pass_without_memfd_runs_on_one_cpu(monkeypatch, forks):
    # os.memfd_create is missing where Python was built against glibc before 2.27: the pass stays inline
    cfg = config("gaa-1db", 300, 100)
    use_cpus(monkeypatch, 1)
    inline = run(cfg, csv=True)
    use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "memfd_create")
    assert run(cfg, csv=True) == inline
    assert forks == []
    assert_no_child()


@linux_only
def test_kernels_first_built_in_the_worker(monkeypatch, forks):
    # caches empty at the fork: the worker builds its own filter kernels for the chunk it claims,
    # and this process builds its own for its chunks
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
    # analyze and an untraced run below FORK_MIN_SAMPLES neither fork nor load the worker or a thread pool
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


class HeldBytes(io.BytesIO):
    """A trace that tracks the CSV bytes this process has made and not yet written.

    ``montecarlo._trace_rows`` is wrapped to record each slice this process
    makes; writing a slice forgets it.  ``before`` lists the bytes held at
    each slice made, not counting that slice.
    """

    def __init__(self, monkeypatch):
        super().__init__()
        self.pending, self.before = {}, []
        parent, real = os.getpid(), montecarlo._trace_rows

        def made(*args):
            for message in real(*args):
                if os.getpid() == parent:
                    self.before.append(sum(self.pending.values()))
                    self.pending[id(message)] = len(message)
                yield message

        monkeypatch.setattr(montecarlo, "_trace_rows", made)

    def write(self, data):
        self.pending.pop(id(data), None)
        return super().write(data)


def slowed(delay_s):
    return lambda: time.sleep(delay_s)


# (preset, bits): traced, 10 chunks of about 0.7 MB of CSV each; untraced, 38 chunks
LOPSIDED = {True: ("lossless", 800), False: ("gaa-1db", 3000)}


@linux_only
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("slow", ["worker", "main"])
def test_lopsided_schedules_give_the_same_bytes(slow, traced, monkeypatch, forks):
    # one process is 20 ms slower per chunk than the other, so the other claims most chunks; with the
    # worker slow, this process makes chunks ahead, and a pipe's worth is about a third of a chunk's CSV
    preset, bits = LOPSIDED[traced]
    cfg = config(preset, bits, 100, seed=5)
    use_cpus(monkeypatch, 1)
    inline = run(cfg, traced)
    monkeypatch.setattr(worker, "PIPE_BYTES", 250_000)
    in_one_process(monkeypatch, montecarlo, "block_totals", slowed(0.02), in_worker=slow == "worker", call=None)
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        trace = HeldBytes(monkeypatch) if traced else None
        assert run(cfg, traced, trace) == inline
        if traced:
            # a slice is made ahead only while fewer than PIPE_BYTES are held
            assert max(trace.before) < worker.PIPE_BYTES
            assert slow == "main" or max(trace.before) > 0
    assert forks == [1, 1]
    assert_no_child()


@linux_only
def test_a_slow_worker_leaves_most_chunks_to_this_process(monkeypatch, forks):
    # with the worker 20 ms slower per chunk, this process makes chunks ahead for as long as the worker's
    # next chunk is unsent, not just one: it made 36 of the 38 chunks, where a schedule that makes one
    # chunk ahead of each of the worker's made 19
    made_here = []
    in_one_process(monkeypatch, montecarlo, "block_totals", slowed(0.02), in_worker=True, call=None)
    in_one_process(monkeypatch, montecarlo, "block_totals", lambda: made_here.append(1), in_worker=False, call=None)
    use_cpus(monkeypatch, 2)
    run(config("gaa-1db", 3000, 100), csv=False)
    assert forks == [1]
    assert len(made_here) >= 28
    assert_no_child()


@contextmanager
def within(seconds):
    """Raise TimeoutError in this process if the body runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@linux_only
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_worker_killed_holding_the_claim_lock(traced, tmp_path, monkeypatch, capsys, forks):
    # the kernel drops the dead worker's lock, this process makes every chunk, and the worker's death
    # still fails the run
    use_cpus(monkeypatch, 2)
    parent, real = os.getpid(), fcntl.lockf

    def lockf(fd, cmd, *args):
        result = real(fd, cmd, *args)
        if cmd == fcntl.LOCK_EX and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return result

    monkeypatch.setattr(fcntl, "lockf", lockf)
    report, trace = prior_outputs(tmp_path)
    with within(60):
        assert main(simulate_args("gaa-1db", traced, report, trace)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["kljnsim: runtime error: worker ended before its last chunk"]
    assert forks == [1]
    assert_outputs_kept(tmp_path, report, trace)
    assert_no_child()


@linux_only
@pytest.mark.skipif(montecarlo.available_workers() < 2, reason="needs 2 CPUs to fork")
def test_worker_ends_when_the_main_process_is_killed(tmp_path):
    # 1000 waveform periods of 50000 samples, one chunk each, take seconds; the worker's next send after
    # its parent dies fails, so it ends within one chunk; SHIM prints the worker's pid
    args = ["simulate", "--preset", "gaa-1db", "--mode", "waveform", "--bits", "1000", "--samples-per-bit", "50000"]
    command = [sys.executable, "-c", SHIM, *args, "--out", str(tmp_path / "report.json")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.3)
        assert proc.poll() is None, "the pass ended before it could be killed"
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 1.0  # a chunk takes about 5 ms, the rest of the pass seconds
        while not gone(pid) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert gone(pid)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()


@linux_only
def test_sigint_to_the_pid_stops_a_traced_run():
    # three short runs of the interrupt driver (tests/sigint_driver.py), whose fuller runs are a CI step
    import sigint_driver

    tally = sigint_driver.drive(runs=3, seed=3, bits=4000)
    assert tally["broken"] == [], tally
    assert tally["ok"] >= 1, tally


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="no pthread_sigmask")
def test_a_sigint_held_over_an_import_is_acted_on_as_it_ends():
    # numpy's compiled modules swallowed an interrupt that landed while they loaded; the engine's
    # import and numpy.random's run with SIGINT held, and the signal raises once the import is done
    reached = []
    with pytest.raises(KeyboardInterrupt):
        with sigint.held():
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.01)
            reached.append(1)
    assert reached == [1]
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, set())


def test_trace_calls_no_python_code_whose_errors_numpy_clears(monkeypatch):
    # numpy makes a void dtype from a tuple through a Python ctypes check and clears whatever that
    # raises, so a SIGINT acted on there was lost and the run went on to exit 0 (tests/sigint_driver.py)
    use_cpus(monkeypatch, 1)
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "npy_ctypes_check":
            called.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        run(config("lossless", 200, 100), csv=True)
    finally:
        sys.setprofile(None)
    assert called == []
