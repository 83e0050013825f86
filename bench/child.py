"""Run one ``kljnsim`` command in this fresh process and record its timings.

    python3 bench/child.py SIDECAR.json {plain|trace} -- simulate --config cfg.json

The command goes through ``kljnsim.cli.main``, the entry point of the
``kljnsim`` console script, and exits with its exit code.  The sidecar JSON
gets the import time, the time spent in ``build_report`` (the Monte Carlo
pass after import), the peak resident set, the interpreter and numpy
versions, and, with ``trace``, the per-layer spans from ``layers.py``.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def main(argv: list[str]) -> int:
    sidecar, mode = argv[0], argv[1]
    command = argv[argv.index("--") + 1 :]

    t0 = time.perf_counter()
    import kljnsim.cli as cli

    import_s = time.perf_counter() - t0

    import layers

    tracer = layers.Tracer()
    tracer.wrap(cli, "build_report", "reporting.build_report")
    if mode == "trace":
        layers.install(tracer)
    exit_code = cli.main(command)

    numpy = sys.modules.get("numpy")
    record = {
        "exit_code": exit_code,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        **tracer.to_dict(),
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
