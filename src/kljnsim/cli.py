"""Command-line harness: ``analyze``, ``simulate`` and ``design-pad``.

Exit codes are a stable contract for scripting: 0 on success, 1 for any
configuration problem, 2 for runtime failures such as unwritable outputs,
running out of memory or a numpy that does not import.  Only ``simulate``
imports numpy, through the Monte Carlo engine; ``analyze`` and
``design-pad`` run without it, and without ``dataclasses``, ``inspect`` or
``datetime``.
``KLJN_SEED`` in the environment supplies the master seed when ``--seed``
is not given; an explicit ``master_seed`` in the config file ranks below
both.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
from typing import IO, Any, BinaryIO, Iterator, Optional, Sequence, TextIO

from .circuit import design_tee_pad
from .config import ConfigError, ExperimentConfig, load_config_file, resolve_config
from .reporting import build_report, write_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`ConfigError` after the usage line.

    Bad invocations are configuration errors under the exit-code contract
    (exit 1), where argparse itself would exit 2; the scripts under
    ``scripts/`` parse with it too.
    """

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _preset(name: str) -> dict[str, str]:
    return {"preset": name}


def build_parser() -> ArgumentParser:
    """The command-line parser.  Each flag of a config key has that key as its ``dest``."""
    parser = ArgumentParser(prog="kljnsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", dest="network", metavar="PRESET", type=_preset,
                       help="built-in network preset (overrides the file's network)")
        p.add_argument("--out", dest="output.report", metavar="OUT", help="report path (default: standard output)")

    p_an = sub.add_parser("analyze", help="closed-form moments, ratio and attack probabilities")
    add_common(p_an)

    p_sim = sub.add_parser("simulate", help="Monte Carlo key exchange, alarm and attack campaign")
    add_common(p_sim)
    p_sim.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                       help="master seed (fallback: KLJN_SEED, then config file)")
    p_sim.add_argument("--bits", dest="protocol.n_bits", metavar="BITS", type=int, help="number of bit periods")
    p_sim.add_argument("--samples-per-bit", dest="protocol.samples_per_bit", metavar="SAMPLES_PER_BIT", type=int,
                       help="samples per bit period")
    p_sim.add_argument("--mode", dest="noise.mode", choices=("independent", "waveform"), help="sampling mode")
    p_sim.add_argument("--trace-csv", dest="output.trace_csv", metavar="TRACE_CSV",
                       help="dump per-sample currents to this CSV file")

    p_pad = sub.add_parser("design-pad", help="matched symmetric T-pad resistor values")
    p_pad.add_argument("--loss-db", type=float, required=True)
    p_pad.add_argument("--z0", type=float, required=True)
    return parser


def document_flags(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed ``analyze``/``simulate`` flags by config key (their ``dest``); ``None`` where not given."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "config")}


def _env_seed() -> Optional[int]:
    raw = os.environ.get("KLJN_SEED")
    if raw is None:
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"KLJN_SEED must be an integer, got {raw!r}")


@contextlib.contextmanager
def _replaced_on_success(path: str, binary: bool) -> Iterator[IO]:
    """A temporary file beside ``path`` that replaces it once the body has finished without an exception.

    On any failure, an interrupt included, the temporary file is removed and
    an existing file at ``path`` stays as it was; an interrupt that lands
    just after the rename leaves the new file in place.  A symbolic link is
    written through: the file it names is replaced and the link stays.  The
    new file keeps the permission bits of the one it replaces; a new path
    gets those that ``open`` would give it.
    """
    target = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # renamed already
            os.unlink(tmp)
        raise


def _replaceable(path: str) -> bool:
    """Whether ``path`` is written through a temporary file: it is a regular file or does not exist yet."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _open_output(path: str, binary: bool) -> contextlib.AbstractContextManager[IO]:
    """``path`` opened for writing: through a temporary file when :func:`_replaceable`, else directly.

    Devices, pipes, FIFOs and terminals are written directly.
    """
    if _replaceable(path):
        return _replaced_on_success(path, binary)
    return open(path, "ab") if binary else open(path, "a", encoding="utf-8")


@contextlib.contextmanager
def _outputs(report: Optional[str], trace: Optional[str] = None) -> Iterator[tuple[TextIO, Optional[BinaryIO]]]:
    """The report's destination (standard output without a path) and the optional trace CSV, opened in binary.

    Both are opened before any computation, so an unwritable path fails
    fast.  A regular file is written to a temporary file in its directory,
    which replaces it only after the body has run to its end, so a failure
    at any point, a configuration error, running out of memory or an
    interrupt, leaves an existing report or trace as it was.  Two paths to
    one such file would replace it twice, the report discarding the trace,
    so they are a configuration error; a device named twice is written twice.
    """
    if report is not None and trace is not None:
        target = os.path.realpath(report)
        if target == os.path.realpath(trace) and _replaceable(target):
            raise ConfigError(f"output.report and output.trace_csv both name the file {target}")
    with contextlib.ExitStack() as stack:
        files = [
            None if path is None else stack.enter_context(_open_output(path, binary))
            for path, binary in ((report, False), (trace, True))
        ]
        yield sys.stdout if files[0] is None else files[0], files[1]


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's document with every flag that is given written in at its key, parsed.

    ``KLJN_SEED`` stands in for ``--seed`` where the command has that flag.
    """
    overrides = document_flags(args)
    if "master_seed" in overrides and overrides["master_seed"] is None:
        overrides["master_seed"] = _env_seed()
    if not args.config and args.network is None:
        raise ConfigError("no network given: pass --preset, or --config with a network section")
    return resolve_config(load_config_file(args.config) if args.config else None, overrides)


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = build_report(cfg, empirical=False)
    with _outputs(cfg.report_path) as (out, _):
        write_report(report, out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    # The numpy engine loads here, once: after the config is checked and before
    # any output is opened, so an engine that fails to import leaves no file.
    # numpy.random is not part of it: numpy loads that submodule lazily, and
    # kljnsim.noise.import_numpy_random imports it at the first
    # SeededStream.generator() inside build_report, so the pass pays for that
    # import: 6.9 ms, where numpy's plain import took 13.0 ms, most of the
    # difference in the hmac, hashlib and OpenSSL that its unused secrets import
    # loads (medians of 20 fresh processes, 2-CPU x86 VM, numpy 2.4.6).  A pass
    # that forks a worker builds every chunk's stream before the fork, so the
    # first of those builds loads it and the worker inherits it.
    from . import sigint

    try:
        with sigint.held():  # numpy's import may swallow an interrupt
            from . import montecarlo  # noqa: F401
    except ImportError as exc:
        message = " ".join(str(exc).split())  # numpy's own import errors span many lines
        print(f"kljnsim: runtime error: cannot import the simulation engine: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    with _outputs(cfg.report_path, cfg.trace_csv) as (out, trace):
        write_report(build_report(cfg, empirical=True, trace=trace), out)
    return EXIT_OK


def cmd_design_pad(args: argparse.Namespace) -> int:
    pad = design_tee_pad(args.loss_db, args.z0)
    print(
        json.dumps(
            {
                "loss_db": args.loss_db,
                "z0_ohm": args.z0,
                "r_series_ohm": pad.r_series,
                "r_shunt_ohm": pad.r_shunt,
            },
            indent=2,
            allow_nan=False,
        )
    )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_design_pad(args)
    except (ConfigError, ValueError) as exc:
        print(f"kljnsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError) as exc:
        print(f"kljnsim: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
