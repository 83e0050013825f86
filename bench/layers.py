"""Per-layer spans for a traced ``kljnsim`` child process.

Each layer's entry points are wrapped where their caller looks them up
(``kljnsim.protocol.gaussian_stream``, ``kljnsim.reporting.current_alarm``,
...), so ``src/`` is never edited.  A wrapped call records its duration and,
through a stack of open spans, the part of it that nested wrapped calls
cover; that gives each span's self time.  Spans are aggregated in memory as
``name -> [calls, total_s, self_s]`` plus named work counters, and written
out once by the child when the command ends.

An entry point that does not exist in the code under test is listed in
``absent`` instead of raising, so one benchmark runs across versions of the
program that moved or removed it.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Optional

Counter = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._open: list[float] = []  # child time covered so far, one entry per open span

    def wrap(self, owner: Any, attr: str, name: str, count: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper recording span ``name``."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            label = getattr(owner, "__qualname__", None) or getattr(owner, "__name__", "<missing>")
            self.absent.append(f"{label}.{attr}")
            return
        self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                covered = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - covered
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        setattr(owner, attr, traced)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


class _Proxy:
    """Stands in for a module object; overrides win, everything else delegates."""

    def __init__(self, target: Any) -> None:
        self._target = target
        self.__name__ = getattr(target, "__name__", "proxy")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def _module(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _size(key: str) -> Counter:
    return lambda args, kwargs, result: {key: int(getattr(result, "size", 0))}


def _solve_counts(args, kwargs, result) -> dict:
    first = result[0] if isinstance(result, tuple) and result else result
    return {"circuit.samples": int(getattr(first, "size", 1))}


def _alarm_counts(args, kwargs, result) -> dict:
    trace = args[0] if args else kwargs.get("trace")
    n = int(getattr(trace, "n_samples", 0))
    first = getattr(result, "first_trigger_sample", None)
    useful = n if first is None else min(n, first + 1)
    return {"protocol.alarm_samples": n, "protocol.alarm_useful_samples": useful}


def _trial_counts(args, kwargs, result) -> dict:
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    n = int(getattr(trace, "n_samples", 0))
    stride = int(getattr(trace, "measurement_stride", 1))
    return {"attack.trials": len(range(0, n, stride))}


def _convolve_counts(args, kwargs, result) -> dict:
    a, v = (args + (None, None))[:2]
    taps = min(int(getattr(a, "size", 0)), int(getattr(v, "size", 0)))
    return {"noise.filter_macs": int(getattr(result, "size", 0)) * taps}


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points in the imported ``kljnsim`` package."""
    cli = _module("kljnsim.cli")
    reporting = _module("kljnsim.reporting")
    protocol = _module("kljnsim.protocol")
    noise = _module("kljnsim.noise")
    attack = _module("kljnsim.attack")

    tracer.wrap(cli, "load_config_file", "config.resolve")
    tracer.wrap(cli, "resolve_config", "config.resolve")
    tracer.wrap(cli, "write_report", "reporting.json")
    tracer.wrap(reporting, "analytic_section", "stats.analytic")
    tracer.wrap(reporting, "empirical_section", "reporting.loop")
    tracer.wrap(reporting, "current_alarm", "protocol.alarm", _alarm_counts)
    tracer.wrap(getattr(attack, "CampaignTally", None), "add_period", "attack.add_period", _trial_counts)
    tracer.wrap(protocol, "draw_choices", "protocol.choices")
    tracer.wrap(protocol, "run_bit_period", "protocol.period")
    tracer.wrap(protocol, "gaussian_stream", "noise.gaussian", _size("noise.gaussian_samples"))
    tracer.wrap(protocol, "band_limited_stream", "noise.band_limited", _size("noise.filtered_samples"))
    tracer.wrap(protocol, "solve_network", "circuit.solve", _solve_counts)
    tracer.wrap(getattr(noise, "SeededStream", None), "generator", "noise.stream_setup")
    tracer.wrap(noise, "lowpass_kernel", "noise.filter")

    # np.convolve and csv.writer are looked up through the module globals
    # ``np`` and ``csv`` of the calling module, so those globals are proxied.
    if noise is not None and hasattr(noise, "np"):
        np_proxy = _Proxy(noise.np)
        tracer.wrap(np_proxy, "convolve", "noise.filter", _convolve_counts)
        noise.np = np_proxy
    else:
        tracer.absent.append("kljnsim.noise.np")
    if reporting is not None and hasattr(reporting, "csv"):
        real_csv = reporting.csv
        csv_proxy = _Proxy(real_csv)

        def writer(*args, **kwargs):
            w = _Proxy(real_csv.writer(*args, **kwargs))
            tracer.wrap(w, "writerow", "reporting.csv")
            tracer.wrap(w, "writerows", "reporting.csv")
            return w

        csv_proxy.writer = writer
        reporting.csv = csv_proxy
    else:
        tracer.absent.append("kljnsim.reporting.csv")
