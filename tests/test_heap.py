"""A Monte Carlo pass keeps its freed chunk arrays on the heap for the next chunk.

glibc sets its trim threshold from the first large block a process frees, so
without ``montecarlo._keep_heap`` it handed the top of the heap back to the
kernel after every long chunk and faulted it in again in the next one.  A
second pass in the same process then took thousands of minor faults; with the
helper it takes almost none.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kljnsim import montecarlo
from kljnsim.config import resolve_config
from kljnsim.montecarlo import monte_carlo_pass

ROOT = Path(__file__).resolve().parent.parent

has_mallopt = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs Linux and libc's mallopt"
)

# Run in a fresh process on one CPU, so no worker forks and every fault is this process's own:
# two passes of one config, then the second pass's minor faults and whether both gave the same totals.
TWO_PASSES = """
import json, os, resource, sys
from kljnsim.config import resolve_config
from kljnsim.montecarlo import monte_carlo_pass

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
preset, mode, bits, samples, traced = json.loads(sys.argv[1])
cfg = resolve_config(None, {
    "network": {"preset": preset}, "noise.mode": mode, "master_seed": 3,
    "protocol.n_bits": bits, "protocol.samples_per_bit": samples,
})
with open(os.devnull, "wb") as trace:
    first = monte_carlo_pass(cfg, trace if traced else None)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = monte_carlo_pass(cfg, trace if traced else None)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, first == second]))
"""


@has_mallopt
@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(["gaa-1db", "waveform", 12, 50_000, False], id="waveform-untraced"),
        pytest.param(["lossless", "independent", 800, 100, True], id="independent-traced"),
    ],
)
def test_second_pass_faults_in_almost_nothing(shape):
    # without the helper these shapes took about 3,100 and 8,300 faults in the second pass
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TWO_PASSES, json.dumps(shape)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    faults, same_totals = json.loads(proc.stdout)
    assert same_totals
    assert faults < 100


def small_pass():
    cfg = resolve_config(
        None, {"network": {"preset": "gaa-1db"}, "master_seed": 5, "protocol.n_bits": 300, "protocol.samples_per_bit": 100}
    )
    return monte_carlo_pass(cfg)


def libc(**symbols):
    """A stand-in for ``ctypes``: ``CDLL(None)`` gives an object with just ``symbols``."""
    return SimpleNamespace(CDLL=lambda name: SimpleNamespace(**symbols), c_int=ctypes.c_int)


class TestKeepHeap:
    @pytest.fixture(scope="class")
    def reference(self):
        return small_pass()

    def test_sets_both_thresholds_to_the_dynamic_maxima(self, monkeypatch):
        calls = []

        def mallopt(*args):
            calls.append(args)
            return 1

        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(montecarlo, "ctypes", libc(mallopt=mallopt))
        montecarlo._keep_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)

    def test_off_linux_loads_no_library(self, monkeypatch, reference):
        def refuse(name):
            raise AssertionError("loaded the C library off Linux")

        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(montecarlo, "ctypes", SimpleNamespace(CDLL=refuse))
        montecarlo._keep_heap()
        assert small_pass() == reference

    def test_without_mallopt_does_nothing(self, monkeypatch, reference):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(montecarlo, "ctypes", libc())
        montecarlo._keep_heap()
        assert small_pass() == reference
