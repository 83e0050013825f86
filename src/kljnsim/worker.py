"""A second CPU for the Monte Carlo pass: one forked worker, and chunks claimed on demand by both processes.

On a pass that splits (see ``montecarlo._splits`` for when), the pass forks
one worker after the engine has loaded, so the worker pays no numpy import.
Each chunk of the pass is a stream of messages that ends with the one
message that is not bytes (its totals; on a traced pass, its CSV byte
slices come first).  Both processes take the next unclaimed chunk from one
shared counter (:class:`_Claims`).  The worker pickles its chunks' messages
down a pipe in claim order; the main process yields every chunk's messages
in chunk order, its own as it makes them and the worker's as they arrive,
so the CSV and the report are those of a pass on one CPU.  While a chunk of
the worker's is not yet sent, the main process claims and makes chunks
ahead of it and holds their messages.  Only a pass that splits loads this
module.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import warnings
from collections import deque
from contextlib import contextmanager, suppress
from typing import BinaryIO, Callable, ContextManager, Iterator, NoReturn, Optional

from .noise import import_numpy_random

# numpy.random otherwise loads at the first stream build; loaded here, before the fork,
# the worker inherits it instead of loading it while this process does the same.  It
# goes through the same helper as a stream build, so OpenSSL stays out of both processes.
import_numpy_random()

# The pipe's size, room for a chunk of short periods' rows (at most 8192 rows of at
# most 95 bytes), so the worker sends a whole chunk while this process works on its own;
# also the most CSV bytes this process holds ahead.
PIPE_BYTES = 1 << 20


class _Claims:
    """Two counters in a 16-byte memory file that both processes share: the next unclaimed chunk, and the chunks the worker has sent.

    Each update is a POSIX record lock, a read, a write and an unlock.  The
    lock belongs to the process that holds it, and the kernel drops it when
    that process dies, so neither process can wait forever on a dead peer.
    Made before the fork; making it raises :class:`OSError` where the memory
    file or the lock is not available, or ``os`` has no ``memfd_create``.
    """

    def __init__(self) -> None:
        if not hasattr(os, "memfd_create"):  # Python built against glibc before 2.27
            raise OSError("os.memfd_create is not available")
        self.fd = os.memfd_create("kljnsim-claims")
        try:
            os.ftruncate(self.fd, 16)
            self._add(0, 0)  # the lock works here
        except BaseException:
            os.close(self.fd)
            raise

    def _add(self, offset: int, step: int) -> int:
        """The counter at byte ``offset``, before ``step`` is added to it under the lock."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            value = int.from_bytes(os.pread(self.fd, 8, offset), "little")
            if step:
                os.pwrite(self.fd, (value + step).to_bytes(8, "little"), offset)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return value

    def claim(self) -> int:
        """The next unclaimed chunk, now claimed; at or past the last chunk when none is left."""
        return self._add(0, 1)

    def sent(self) -> int:
        """How many chunks the worker has sent whole."""
        return self._add(8, 0)

    def record_sent(self) -> None:
        """Count one more chunk as sent whole."""
        self._add(8, 1)


def _send(pipe: BinaryIO, message: object) -> None:
    pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _serve(chunk_messages: Callable[[int], Iterator], n_chunks: int, claims: _Claims, fd: int) -> NoReturn:
    """The forked worker: it claims chunks until none is left and sends each one's messages down the pipe ``fd``.

    It records a chunk as sent once its last message is in the pipe.  It
    leaves only through ``os._exit``, so it never flushes a buffer it
    inherited (the trace's header, standard output) and never runs the
    parent's cleanup, which removes or replaces the outputs; that is why it
    catches every exception.  A failure is sent as one line of text.  It
    ignores SIGINT: on an interrupt the parent ends it.  If the parent dies,
    its next write to the pipe fails and it exits, within one chunk.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        pipe = open(fd, "wb")
        try:
            while (c := claims.claim()) < n_chunks:
                for message in chunk_messages(c):
                    _send(pipe, message)
                claims.record_sent()
            status = 0
        except BaseException as exc:
            reason = " ".join(str(exc).split())
            _send(pipe, f"{type(exc).__name__}: {reason}" if reason else type(exc).__name__)
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO) -> Iterator:
    """Every message the worker sends, as it arrives, until the pipe closes; a failure it sends raises :class:`ChildProcessError`."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return
        if isinstance(message, str):
            raise ChildProcessError(f"worker failed: {message}")
        yield message


def _chunk(messages: Iterator) -> Iterator:
    """The next chunk's messages from ``messages``: its bytes, if any, up to and including its totals."""
    for message in messages:
        yield message
        if not isinstance(message, bytes):
            return
    raise ChildProcessError("worker ended before its last chunk")


def _in_order(chunk_messages: Callable[[int], Iterator], n_chunks: int, claims: _Claims, theirs: Iterator) -> Iterator:
    """Every chunk's messages in chunk order: this process's chunks made here, the worker's read from ``theirs``.

    This process claims a chunk when it reaches one whose owner it does not
    know; a claim that returns a later chunk means that the chunks between
    are the worker's.  At a chunk of the worker's that is not yet sent, it
    makes messages ahead, of the chunk it claimed last or of one more it
    claims, while it holds fewer than ``PIPE_BYTES`` CSV bytes ahead; then it
    reads the worker's chunk, waiting for it if need be.
    """
    ahead: deque = deque()  # [chunk, its messages made ahead, the rest of its messages or None once whole]
    held = 0  # CSV bytes in ahead
    last_claim = -1  # at or past n_chunks once no chunk is left
    worker_chunks_read = 0

    def claim() -> bool:
        """Claim the next chunk, held ahead until this process reaches it; False if none is left."""
        nonlocal last_claim
        if last_claim < n_chunks:
            last_claim = claims.claim()
        if last_claim >= n_chunks:
            return False
        ahead.append([last_claim, [], chunk_messages(last_claim)])
        return True

    def make_ahead() -> bool:
        """Make one more message ahead, claiming a chunk if the last one held is whole; False if none may be made."""
        nonlocal held
        if held >= PIPE_BYTES or (not ahead or ahead[-1][2] is None) and not claim():
            return False
        entry = ahead[-1]
        message = next(entry[2])
        entry[1].append(message)
        if isinstance(message, bytes):
            held += len(message)
        else:
            entry[2] = None  # the chunk is whole: its arrays go
        return True

    for c in range(n_chunks):
        if not ahead and last_claim < c:
            claim()
        if ahead and ahead[0][0] == c:
            _, made, rest = ahead.popleft()
            held -= sum(len(m) for m in made if isinstance(m, bytes))
            yield from made
            if rest is not None:
                yield from rest
            continue
        while claims.sent() <= worker_chunks_read and make_ahead():
            pass
        yield from _chunk(theirs)
        worker_chunks_read += 1


@contextmanager
def _split(chunk_messages: Callable[[int], Iterator], n_chunks: int, claims: _Claims) -> Iterator[Iterator]:
    """:func:`_in_order` between the fork of the worker and its reaping; closes the counter's file at the end."""
    try:
        read_fd, write_fd = os.pipe()
        with suppress(OSError):  # a smaller pipe only costs overlap
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
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
            _serve(chunk_messages, n_chunks, claims, write_fd)
        os.close(write_fd)
        status = None
        try:
            with open(read_fd, "rb") as pipe:
                theirs = _receive(pipe)
                yield _in_order(chunk_messages, n_chunks, claims, theirs)
                for _ in theirs:  # after the last chunk, only a failure may come
                    pass
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if status is None:
                os.waitpid(pid, 0)
        if status != 0:
            raise ChildProcessError("worker ended before its last chunk")
    finally:
        os.close(claims.fd)


def in_chunk_order(chunk_messages: Callable[[int], Iterator], n_chunks: int) -> Optional[ContextManager[Iterator]]:
    """Every message of the pass's ``n_chunks`` chunks in chunk order, the worker's chunks made in a forked worker.

    ``chunk_messages(c)`` gives chunk ``c``'s messages.  The worker is reaped
    before the context exits, killed first if the pass stops early.  A worker
    that fails or dies, even after the last chunk, raises
    :class:`ChildProcessError` here, a runtime error (exit 2).  None where the
    shared counter cannot be made: the pass then runs on one CPU.
    """
    try:
        claims = _Claims()
    except OSError:
        return None
    return _split(chunk_messages, n_chunks, claims)
