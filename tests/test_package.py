import os
import subprocess
import sys
from pathlib import Path

import pytest

import kljnsim

ROOT = Path(__file__).resolve().parent.parent

# The package root exports only the version; everything else is imported from its module.
EXPECTED_ALL = {"__version__"}


def test_public_names_pinned():
    assert len(kljnsim.__all__) == len(EXPECTED_ALL)
    assert set(kljnsim.__all__) == EXPECTED_ALL


def test_public_names_resolve():
    for name in kljnsim.__all__:
        assert getattr(kljnsim, name) is not None


def test_simulate_loads_neither_scipy_nor_hypothesis():
    # numpy is the one runtime dependency; scipy and hypothesis serve the tests only
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(['simulate', '--preset', 'gaa-1db', '--bits', '20']) == 0\n"
        "print(sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'hypothesis'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def run_python(code: str, pythonpath: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_analyze_and_design_pad_load_no_numpy():
    # numpy is the Monte Carlo engine's alone; the closed-form commands never import it
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(['analyze', '--preset', 'gaa-1db']) == 0\n"
        "    assert kljnsim.cli.main(['design-pad', '--loss-db', '1', '--z0', '50']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = run_python(code, [str(ROOT / "src")])
    assert proc.returncode == 0, proc.stderr


def test_analyze_and_design_pad_load_no_dataclasses_inspect_or_datetime():
    # the front's records are named tuples and its timestamp comes from time; -S keeps a
    # site hook from importing any of these modules before the commands run
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(['analyze', '--preset', 'gaa-1db']) == 0\n"
        "    assert kljnsim.cli.main(['design-pad', '--loss-db', '1', '--z0', '50']) == 0\n"
        "print(sorted({name.split('.')[0] for name in sys.modules} & {'numpy', 'dataclasses', 'inspect', 'datetime'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_simulate_loads_numpy_before_build_report():
    # bench/child.py times kljnsim.cli.build_report, wrapped on the module after
    # import: numpy must be loaded before that call, and numpy.random still loads
    # at the first stream build inside it, as it always has
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli as cli\n"
        "entered = []\n"
        "build_report = cli.build_report\n"
        "def wrapped(*args, **kwargs):\n"
        "    entered.append(('numpy' in sys.modules, 'numpy.random' in sys.modules))\n"
        "    return build_report(*args, **kwargs)\n"
        "setattr(cli, 'build_report', wrapped)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['simulate', '--preset', 'gaa-1db', '--bits', '20']) == 0\n"
        "assert entered == [(True, False)], entered\n"
    )
    proc = run_python(code, [str(ROOT / "src")])
    assert proc.returncode == 0, proc.stderr


OPENSSL_MODULES = ("_hashlib", "hashlib", "hmac", "secrets")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "gaa-1db", "--seed", "7", "--bits", "2000", "--samples-per-bit", "100"],
        ["simulate", "--preset", "lossless", "--bits", "800", "--samples-per-bit", "100", "--trace-csv", os.devnull],
    ],
    ids=["flagship", "trace-dump-forked"],
)
def test_simulate_loads_numpy_random_without_openssl(argv):
    # numpy.random would load secrets -> hmac -> hashlib -> _hashlib (OpenSSL) for a
    # randbits that kljnsim never calls; a traced pass of 10 chunks forks its worker,
    # whose module loads numpy.random before the fork.  Afterwards secrets is the real
    # module and unseeded SeedSequences still draw fresh entropy.
    code = (
        "import contextlib, io, sys\n"
        "openssl = set(sys.argv[1].split(','))\n"
        "print(sorted(openssl & set(sys.modules)))\n"
        "import kljnsim.cli, kljnsim.montecarlo as montecarlo\n"
        "montecarlo.available_workers = lambda: 2  # a traced pass forks on one CPU too\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(sys.argv[2:]) == 0\n"
        "print(sorted(openssl & set(sys.modules)), 'numpy.random' in sys.modules, 'kljnsim.worker' in sys.modules)\n"
        "import secrets, numpy.random\n"
        "fresh = numpy.random.SeedSequence().entropy != numpy.random.SeedSequence().entropy\n"
        "print(hasattr(secrets, 'token_hex'), fresh)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, "-c", code, ",".join(OPENSSL_MODULES), *argv]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_start, after, real = proc.stdout.splitlines()
    if at_start != "[]":
        pytest.skip(f"this interpreter loads {at_start} at start-up")
    forked = "--trace-csv" in argv and sys.platform == "linux"
    assert after == f"[] True {forked}"
    assert real == "True True"


# a numpy that takes more than randbits from secrets: one imports something else
# from it first, the other loses randbits from the stand-in, so numpy's own
# bit_generator fails halfway through its import
ASKS_FOR_MORE = {
    "token-hex": "    from secrets import token_hex  # noqa: F401\n",
    "no-randbits": (
        "    stand_in = sys.modules.get('secrets')\n"
        "    if stand_in is not None and not hasattr(stand_in, 'token_hex'):\n"
        "        del stand_in.randbits\n"
    ),
}


@pytest.mark.parametrize("asks", ASKS_FOR_MORE.values(), ids=ASKS_FOR_MORE.keys())
def test_numpy_random_falls_back_to_the_plain_import(asks):
    code = (
        "import sys\n"
        "from kljnsim import noise\n"
        "calls = []\n"
        "def import_module(name, real=noise.import_module):\n"
        "    calls.append(name)\n"
        f"{asks}"
        "    return real(name)\n"
        "noise.import_module = import_module\n"
        "numpy_random = noise.import_numpy_random()\n"
        "assert numpy_random is sys.modules['numpy.random'], numpy_random\n"
        "assert calls == ['numpy.random'] * 2, calls\n"
        "assert hasattr(sys.modules['secrets'], 'token_hex'), 'the stand-in secrets was left behind'\n"
        "print(noise.SeededStream(7, 3).generator().standard_normal(4).tolist())\n"
    )
    plain = (
        "import numpy.random\n"
        "print(numpy.random.default_rng(numpy.random.SeedSequence((7, 3))).standard_normal(4).tolist())\n"
    )
    procs = [run_python(source, [str(ROOT / "src")]) for source in (code, plain)]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout == procs[1].stdout


def test_without_numpy_simulate_exits_2_and_the_rest_works(tmp_path):
    broken = tmp_path / "broken"
    (broken / "numpy").mkdir(parents=True)
    (broken / "numpy" / "__init__.py").write_text("raise ImportError('numpy is broken here')\n")
    out = tmp_path / "out"
    out.mkdir()
    pythonpath = [str(broken), str(ROOT / "src")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}

    def kljnsim_cli(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "kljnsim", *args], capture_output=True, text=True, env=env, cwd=out, timeout=120
        )

    sim = kljnsim_cli("simulate", "--preset", "gaa-1db", "--bits", "20", "--out", "report.json", "--trace-csv", "t.csv")
    assert sim.returncode == 2, sim.stderr
    assert sim.stderr.startswith("kljnsim: runtime error: ") and sim.stderr.count("\n") == 1, sim.stderr
    assert "numpy is broken here" in sim.stderr
    assert list(out.iterdir()) == []
    analyze = kljnsim_cli("analyze", "--preset", "gaa-1db")
    assert analyze.returncode == 0, analyze.stderr
    assert analyze.stdout.startswith("{")
    pad = kljnsim_cli("design-pad", "--loss-db", "1", "--z0", "50")
    assert pad.returncode == 0, pad.stderr
    assert '"r_shunt_ohm"' in pad.stdout


def test_only_a_trace_csv_loads_the_formatter():
    # the numpy formatter of the trace CSV is imported by the CSV writer itself, so a run
    # without --trace-csv and analyze never load (or compile) it
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli\n"
        "argv = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(['analyze', '--preset', 'gaa-1db']) == 0\n"
        "    assert 'kljnsim.reprtext' not in sys.modules\n"
        "    assert kljnsim.cli.main(['simulate', '--preset', 'gaa-1db', '--bits', '20']) == 0\n"
        "    assert 'kljnsim.reprtext' not in sys.modules\n"
        "    assert kljnsim.cli.main(['simulate', '--preset', 'gaa-1db', '--bits', '20', *argv]) == 0\n"
        "assert 'kljnsim.reprtext' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, "--trace-csv", os.devnull], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
