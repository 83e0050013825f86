"""A second CPU for the Monte Carlo pass: one forked worker, and chunks claimed on demand by both processes.

On a pass that splits (see ``montecarlo._splits`` for when), the pass forks
one worker after the engine and ``numpy.random`` have loaded: it imports neither.
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


def _read(pipe: BinaryIO) -> object:
    """The worker's next message, or None once the pipe has closed; a failure it sends raises :class:`ChildProcessError`."""
    try:
        message = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None
    if isinstance(message, str):
        raise ChildProcessError(f"worker failed: {message}")
    return message


def _chunk(pipe: BinaryIO) -> Iterator:
    """The worker's next chunk's messages as they arrive: its bytes, if any, up to and including its totals."""
    while isinstance(message := _read(pipe), bytes):
        yield message
    if message is None:
        raise ChildProcessError("worker ended before its last chunk")
    yield message


def _in_order(chunk_messages: Callable[[int], Iterator], n_chunks: int, claims: _Claims, pipe: BinaryIO) -> Iterator:
    """Every chunk's messages in chunk order: this process's chunks made here, the worker's read from ``pipe``.

    This process claims a chunk on reaching one whose owner it does not know
    (a claim that returns a later chunk leaves the chunks between to the
    worker).  Before it reads a chunk of the worker's that is not yet sent,
    it makes messages ahead while it holds fewer than ``PIPE_BYTES`` CSV
    bytes, claiming one more chunk once the last one it claimed is whole.
    """
    ahead: deque = deque()  # [chunk, its messages made ahead, the rest of its messages or None once whole]
    held = 0  # CSV bytes in ahead
    claimed = -1  # the last chunk this process claimed; at or past n_chunks once none is left
    read = 0  # the worker's chunks read
    for c in range(n_chunks):
        if not ahead and claimed < c and (claimed := claims.claim()) < n_chunks:  # c's owner was unknown
            ahead.append([claimed, [], chunk_messages(claimed)])
        if ahead and ahead[0][0] == c:
            _, made, rest = ahead.popleft()
            held -= sum(len(m) for m in made if isinstance(m, bytes))
            yield from made
            yield from rest or ()  # None once the chunk is whole
            continue
        while claims.sent() <= read and held < PIPE_BYTES:
            if not ahead or ahead[-1][2] is None:
                if claimed >= n_chunks or (claimed := claims.claim()) >= n_chunks:
                    break  # no chunk is left to claim
                ahead.append([claimed, [], chunk_messages(claimed)])
            entry = ahead[-1]
            message = next(entry[2])
            entry[1].append(message)
            if isinstance(message, bytes):
                held += len(message)
            else:
                entry[2] = None  # the chunk is whole: its arrays go
        yield from _chunk(pipe)
        read += 1


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
                yield _in_order(chunk_messages, n_chunks, claims, pipe)
                while _read(pipe) is not None:  # after the last chunk, only a failure may come
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
