"""SIGINT held off around imports of numpy's compiled modules, which may swallow it.

An interrupt raised while numpy's C or Cython module code runs Python code
is turned into another error or cleared: in the engine's import it became
an ImportError (exit 2, "cannot import the simulation engine") or a
RuntimeError, or the run went on and exited 0; in the import of
``numpy.random`` the run went on and exited 0.  Both imports run inside
:func:`held`.  This module is numpy-free, so the command-line front can
use it before the engine loads.
"""

from __future__ import annotations

import contextlib
import signal
from typing import Iterator


@contextlib.contextmanager
def held() -> Iterator[None]:
    """Block SIGINT in this thread for the body; one that came meanwhile raises KeyboardInterrupt as the body ends.

    Threads started in the body, such as OpenBLAS's, inherit the block, so
    only this thread takes the signal afterwards.  Where ``signal`` has no
    ``pthread_sigmask`` (Windows) the body runs as it is.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # runs the handler of a SIGINT that came meanwhile
