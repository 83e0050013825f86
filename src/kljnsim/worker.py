"""A second CPU for the Monte Carlo pass: one forked worker that computes every other chunk.

On a pass that splits (see ``montecarlo._splits`` for when), the pass forks
one worker after the engine has loaded, so the worker pays no numpy import.
The worker computes the odd chunks and streams each one down a pipe: on a
traced pass its CSV bytes first, in the writer's slices of at most
``CHUNK_SAMPLES // 4`` rows, then its
:class:`~kljnsim.montecarlo.EmpiricalTotals`.  The main process computes
the even chunks, writes every row and merges every total in chunk order, so
the CSV and the report are those of a pass on one CPU.  Only a pass that
splits loads this module.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import pickle
import signal
import warnings
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, NoReturn, Optional

from .noise import import_numpy_random
from .protocol import PeriodBlock

if TYPE_CHECKING:
    from .montecarlo import EmpiricalTotals

# numpy.random otherwise loads at the first stream build; loaded here, before the fork,
# the worker inherits it instead of loading it while this process does the same.  It
# goes through the same helper as a stream build, so OpenSSL stays out of both processes.
import_numpy_random()

# montecarlo._render_trace in the pass's unit: pass a block's CSV bytes, rows numbered from a period, to a callback
Render = Callable[[PeriodBlock, int, Callable[[bytes], object]], None]


def _send(pipe: BinaryIO, message: object) -> None:
    pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _serve_odd_chunks(chunks: Iterator, k: int, render: Render, fd: int) -> NoReturn:
    """The forked worker: down the pipe ``fd``, each odd chunk's CSV bytes slice by slice (traced), then its totals.

    It leaves only through ``os._exit``, so it never flushes a buffer it
    inherited (the trace's header, standard output) and never runs the
    parent's cleanup, which removes or replaces the outputs; that is why it
    catches every exception.  A failure is sent as one line of text.  It
    ignores SIGINT: on an interrupt the parent ends it.  On a traced pass the
    pipe's backpressure holds it at most a pipe's worth of rows (about one
    chunk's) ahead of the parent's reads; untraced, it sends only small
    totals and may finish its chunks first, holding one chunk at a time.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        pipe = open(fd, "wb")
        try:
            for c, (part, block) in zip(itertools.count(1, 2), chunks):
                if block is not None:
                    render(block, c * k, lambda rows: _send(pipe, rows))
                _send(pipe, part)
            status = 0
        except BaseException as exc:
            reason = " ".join(str(exc).split())
            _send(pipe, f"{type(exc).__name__}: {reason}" if reason else type(exc).__name__)
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, trace: Optional[BinaryIO]) -> EmpiricalTotals:
    """Write one worker chunk's CSV bytes, if any, to ``trace`` as they arrive; return the chunk's totals."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("worker ended before its last chunk") from None
        if isinstance(message, bytes):
            trace.write(message)
        elif isinstance(message, str):
            raise ChildProcessError(f"worker failed: {message}")
        else:
            return message


@contextmanager
def in_chunk_order(
    chunks: Callable[[slice], Iterator], n_chunks: int, k: int, trace: Optional[BinaryIO], render: Render
) -> Iterator[Iterator]:
    """Every chunk's ``(totals, block)`` in chunk order, the odd ones from a forked worker.

    ``chunks`` gives the ``(totals, block)`` of the pass's chunks that a
    slice of chunk numbers selects, with ``block`` None on an untraced pass;
    ``k`` is the periods per chunk and ``render`` the CSV writer's byte
    source.  Each odd chunk is yielded as ``(totals, None)`` once the
    worker's rows of it, if any, are written to ``trace``.  The worker is
    reaped before this returns, killed first if the pass stops early.  A
    worker that fails or dies raises :class:`ChildProcessError` here, a
    runtime error (exit 2).
    """
    read_fd, write_fd = os.pipe()
    with suppress(OSError):  # a smaller pipe only costs overlap
        # room for a chunk's rows, at most 8192 rows of at most 95 bytes, so the worker
        # renders the next chunk while this process works on its own
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with more than one thread forks, and
            # numpy's OpenBLAS may keep one; OpenBLAS resets its thread pool in a
            # forked child
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _serve_odd_chunks(chunks(slice(1, None, 2)), k, render, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            own = chunks(slice(0, None, 2))
            yield (next(own) if c % 2 == 0 else (_receive(pipe, trace), None) for c in range(n_chunks))
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
