import csv
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timezone

import numpy as np
import pytest

from kljnsim import cli, montecarlo, protocol
from kljnsim.cli import main
from kljnsim.config import resolve_config
from kljnsim.protocol import iter_period_blocks
from kljnsim.reporting import utc_isoformat


# end resistors 1e53 and 1e-287 Ohm around a 1 Ohm shunt
FAR_BELOW_SHUNT = {"r_alice": 1e53, "r_bob": 1e-287, "pad": {"r_series": 0, "r_shunt": 1}}
# a padded network at a noise scale 4*k*T_eff*B near 1e305
LARGE_NOISE_NETWORK = {"r_alice": 1, "r_bob": 10, "pad": {"r_series": 0.0029, "r_shunt": 0.5}}
LARGE_NOISE = {"t_eff": 1e300, "bandwidth": 1.8e27}
# end resistors whose LL and HH currents lie about 2**1023 apart
WIDE_SPAN = {"r_alice": 1e-308, "r_bob": 8e307}


needs_sigmask = pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="no pthread_sigmask")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out: str) -> dict:
    return json.loads(out)


class TestAnalyze:
    def test_gaa_preset_to_stdout(self, capsys):
        code, out, _ = run_cli(["analyze", "--preset", "gaa-1db"], capsys)
        assert code == 0
        report = load_report(out)
        assert report["schema_version"] == 3
        assert report["analytic"]["moments"]["ratio"] == pytest.approx(4.956, abs=0.001)
        assert abs(report["analytic"]["moments"]["ratio"] - 4.95) <= 0.01
        probs = report["analytic"]["probabilities"]
        assert round(probs["p_success"], 2) == 0.31
        assert round(probs["p_error"], 3) == 0.018
        assert round(probs["p_no_answer"], 2) == 0.67
        assert "empirical" not in report

    @pytest.mark.parametrize(
        "t",
        [0.0, 1792411200.0, 1792411200.25, 1792411200.0000025, 1792411200.9999996, 1792411200.123456, -1.5, 253402300799.0],
    )
    def test_timestamp_is_the_isoformat_of_its_instant(self, t):
        # whole seconds leave out the fraction; the fraction rounds half to even to microseconds
        assert utc_isoformat(t) == datetime.fromtimestamp(t, timezone.utc).isoformat()

    def test_report_timestamp_is_now(self, capsys):
        before = datetime.now(timezone.utc)
        _, out, _ = run_cli(["analyze", "--preset", "gaa-1db"], capsys)
        stamp = datetime.fromisoformat(load_report(out)["provenance"]["timestamp_utc"])
        assert stamp.utcoffset().total_seconds() == 0
        assert before <= stamp <= datetime.now(timezone.utc)

    def test_lossless_preset(self, capsys):
        code, out, _ = run_cli(["analyze", "--preset", "lossless"], capsys)
        report = load_report(out)
        assert code == 0
        assert report["analytic"]["moments"]["ratio"] == 1.0
        probs = report["analytic"]["probabilities"]
        assert probs["p_success"] == probs["p_error"]
        assert probs["p_no_answer"] > 0.5

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(["analyze", "--preset", "gaa-1db", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["analytic"]["moments"]["ratio"] > 4.9

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"network": {"r_alice": 1000, "r_bob": 10000}}))
        code, out, _ = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 0
        assert load_report(out)["analytic"]["moments"]["ratio"] == 1.0

    def test_invalid_resistance_exits_one_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": {"r_alice": 0, "r_bob": 10000}}))
        code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert "network.r_alice" in err

    @pytest.mark.parametrize(
        "network",
        [
            {"r_alice": 1e-300, "r_bob": 1e-299, "pad": {"r_series": 0, "r_shunt": 1e-300}},
            {"r_alice": 1e300, "r_bob": 1e299, "pad": {"r_series": 0, "r_shunt": 1e300}},
        ],
    )
    def test_extreme_resistances_exit_one_naming_network(self, tmp_path, capsys, network):
        # finite values whose moments under- or overflow in double precision
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": network}))
        code, out, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert "config error: network (r_alice=" in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": {"preset": "lossless"}, "noize": {}}))
        code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert "noize" in err

    def test_missing_network_exits_one(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 1
        assert "network" in err
        assert "--preset" in err

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            '"ab"',
            '[["network",{"preset":"lossless"}]]',
            '{"network":{"preset":["x"]}}',
            "null",
        ],
    )
    def test_malformed_root_or_preset_exits_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code, out, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert "config error:" in err

    @pytest.mark.parametrize(
        "network, key",
        [
            (
                '{"r_alice": 1000, "r_bob": 10000, "pad": {"r_series": 2.9, "r_shunt": NaN}}',
                "network.pad.r_shunt",
            ),
            ('{"r_alice": Infinity, "r_bob": 10000}', "network.r_alice"),
        ],
    )
    def test_non_finite_number_exits_one_before_simulating(self, tmp_path, capsys, network, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"network": ' + network + "}")
        code, out, err = run_cli(["simulate", "--config", str(cfg), "--bits", "10"], capsys)
        assert code == 1
        assert out == ""
        assert f"{key} must be a finite number" in err

    @pytest.mark.parametrize("value", [1e300, 1e-300])
    def test_noise_scale_out_of_range_exits_one(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.json"
        noise = {"t_eff": value, "bandwidth": value}
        cfg.write_text(json.dumps({"network": {"preset": "gaa-1db"}, "noise": noise}))
        code, out, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert "noise.t_eff and bandwidth" in err
        assert "finite and > 0" in err

    def test_unknown_preset_exits_one(self, capsys):
        code, _, err = run_cli(["analyze", "--preset", "gaa-5db"], capsys)
        assert code == 1
        assert "preset" in err


SIM_ARGS = [
    "simulate",
    "--preset",
    "gaa-1db",
    "--seed",
    "4",
    "--bits",
    "80",
    "--samples-per-bit",
    "64",
]


class TestSimulate:
    def test_report_sections(self, capsys):
        code, out, _ = run_cli(SIM_ARGS, capsys)
        assert code == 0
        report = load_report(out)
        emp = report["empirical"]
        assert emp["n_bits"] == 80
        assert 0 < emp["n_secure"] < 80
        assert emp["n_secure_samples"] == emp["n_secure"] * 64
        assert emp["attack"]["n_trials"] == emp["n_secure_samples"]
        assert set(report["agreement"]) == {
            "ratio_within_2pct",
            "p_success_ci_covers_analytic",
            "p_error_ci_covers_analytic",
            "p_no_answer_ci_covers_analytic",
            "fidelity_ci_covers_analytic",
            "mean_measurements_within_0p05",
            "comparison_p_error_ci_covers_analytic",
            "deviation_se",
        }
        assert report["provenance"]["master_seed"] == 4
        assert report["provenance"]["rng_layout"] == 2

    def test_deterministic_apart_from_timestamp(self, capsys):
        code1, out1, _ = run_cli(SIM_ARGS, capsys)
        code2, out2, _ = run_cli(SIM_ARGS, capsys)
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        del r1["provenance"]["timestamp_utc"], r2["provenance"]["timestamp_utc"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(SIM_ARGS, capsys)
        _, out2, _ = run_cli(SIM_ARGS[:-5] + ["5"] + SIM_ARGS[-4:], capsys)
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["empirical"]["ratio"] != r2["empirical"]["ratio"]

    def test_lossless_zero_leak_and_zero_alarms(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "lossless", "--seed", "1", "--bits", "120"], capsys
        )
        assert code == 0
        emp = load_report(out)["empirical"]
        assert emp["alarm"]["n_triggered"] == 0
        assert emp["attack"]["p_no_answer"] == 1.0
        assert emp["attack"]["repeat_until_answer"]["n_answered"] == 0
        assert emp["attack"]["repeat_until_answer"]["mean_measurements"] is None

    @pytest.mark.parametrize("preset", ["lossless", "gaa-0p1db"])
    def test_alarm_counts_nonsecure_triggers(self, capsys, preset):
        # a lossless loop never fires; the 0.1 dB pad also fires in periods with equal picks
        code, out, _ = run_cli(["simulate", "--preset", preset, "--seed", "7", "--bits", "200"], capsys)
        assert code == 0
        alarm = load_report(out)["empirical"]["alarm"]
        assert alarm["n_triggered_nonsecure"] == alarm["n_triggered"] - alarm["n_triggered_secure"]
        assert (alarm["n_triggered_nonsecure"] > 0) == (preset == "gaa-0p1db")

    def test_trace_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            [
                "simulate",
                "--preset",
                "gaa-1db",
                "--seed",
                "2",
                "--bits",
                "3",
                "--samples-per-bit",
                "50",
                "--trace-csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "sample", "i_alice", "i_bob", "v_node"]
        assert len(rows) == 1 + 3 * 50
        assert rows[1][0] == "0" and rows[1][1] == "0"
        float(rows[1][2])  # numeric payload round-trips

    @pytest.mark.parametrize("bits, samples", [(5, 3000), (2, 9000)])
    def test_trace_csv_matches_per_row_writer(self, tmp_path, capsys, bits, samples):
        # the block writer emits the same text as writing each sample's row
        # on its own: over several chunks of two periods, and over periods
        # longer than one write call
        csv_path = tmp_path / "trace.csv"
        args = ["simulate", "--preset", "gaa-1db", "--seed", "3", "--bits", str(bits)]
        code, _, _ = run_cli(args + ["--samples-per-bit", str(samples), "--trace-csv", str(csv_path)], capsys)
        assert code == 0

        cfg = resolve_config(None, {"network": {"preset": "gaa-1db"}})
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("period", "sample", "i_alice", "i_bob", "v_node"))
        period = 0
        for block in iter_period_blocks(bits, cfg.network, cfg.noise, samples, 3, True):
            # the block's currents are in its unit of 2**-exponent amperes, the CSV's in amperes
            i_alice, i_bob = (np.ldexp(i, -block.exponent) for i in (block.i_alice, block.i_bob))
            for r in range(block.n_periods):
                for k in range(block.n_samples):
                    writer.writerow((period, k, float(i_alice[r, k]), float(i_bob[r, k]), float(block.v_node[r, k])))
                period += 1
        assert csv_path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("KLJN_SEED", "77")
        args = ["simulate", "--preset", "lossless", "--bits", "60"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert load_report(out)["provenance"]["master_seed"] == 77

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KLJN_SEED", "77")
        code, out, _ = run_cli(
            ["simulate", "--preset", "lossless", "--bits", "60", "--seed", "3"], capsys
        )
        assert code == 0
        assert load_report(out)["provenance"]["master_seed"] == 3

    @pytest.mark.parametrize(
        "flag, key", [("--bits", "n_bits"), ("--samples-per-bit", "samples_per_bit")]
    )
    def test_non_positive_count_flag_exits_one(self, capsys, flag, key):
        code, out, err = run_cli(["simulate", "--preset", "lossless", flag, "0"], capsys)
        assert code == 1
        assert out == ""
        # a period must hold at least one alarm window, which has at least 2 samples
        bound = {"n_bits": "1", "samples_per_bit": "protocol.alarm.window"}[key]
        assert f"protocol.{key} must be >= {bound}" in err

    def test_bad_env_seed_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("KLJN_SEED", "not-a-seed")
        code, _, err = run_cli(["simulate", "--preset", "lossless", "--bits", "60"], capsys)
        assert code == 1
        assert "KLJN_SEED" in err

    def test_unwritable_report_exits_two(self, capsys):
        code, _, err = run_cli(
            SIM_ARGS + ["--out", "/nonexistent-dir/report.json"], capsys
        )
        assert code == 2
        assert "runtime error" in err

    def test_unwritable_report_fails_before_simulating(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_report", lambda *args, **kwargs: calls.append(args))
        code, out, err = run_cli(SIM_ARGS + ["--out", "/nonexistent-dir/report.json"], capsys)
        assert code == 2
        assert out == ""
        assert "runtime error" in err
        assert calls == []

    def test_equal_resistors_exit_one_before_touching_outputs(self, tmp_path, capsys):
        config = tmp_path / "equal.json"
        config.write_text(json.dumps({"network": {"r_alice": 1000, "r_bob": 1000}}))
        report = tmp_path / "report.json"
        report.write_bytes(b"previous report\n")
        trace = tmp_path / "trace.csv"
        args = ["--config", str(config), "--out", str(report)]
        code, out, err = run_cli(["simulate", *args, "--bits", "10", "--trace-csv", str(trace)], capsys)
        assert code == 1
        assert out == ""
        assert "network.r_alice and network.r_bob must differ" in err
        assert report.read_bytes() == b"previous report\n"
        assert not trace.exists()
        # the closed form needs no pair
        code, _, _ = run_cli(["analyze", *args], capsys)
        assert code == 0
        assert json.loads(report.read_text())["analytic"]["moments"]["ratio"] == 1.0

    @pytest.mark.parametrize("seed", ["-18446744073709551611", "18446744073709551621", str(2**63)])
    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    def test_seed_outside_signed_64_bits_exits_one_before_opening_outputs(
        self, tmp_path, capsys, monkeypatch, seed, source
    ):
        monkeypatch.delenv("KLJN_SEED", raising=False)
        document = {"network": {"preset": "gaa-1db"}}
        if source == "file":
            document["master_seed"] = int(seed)
        elif source == "env":
            monkeypatch.setenv("KLJN_SEED", seed)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        report = tmp_path / "report.json"
        report.write_bytes(b"previous report\n")
        trace = tmp_path / "trace.csv"
        args = ["simulate", "--config", str(config), "--bits", "10", "--out", str(report), "--trace-csv", str(trace)]
        code, out, err = run_cli(args + ([f"--seed={seed}"] if source == "flag" else []), capsys)
        assert code == 1
        assert out == ""
        assert "master_seed must be in the signed 64-bit range" in err
        assert report.read_bytes() == b"previous report\n"
        assert not trace.exists()

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_seed_range_ends_run(self, capsys, seed):
        code, out, _ = run_cli(["simulate", "--preset", "gaa-1db", "--bits", "20", f"--seed={seed}"], capsys)
        assert code == 0
        assert load_report(out)["provenance"]["master_seed"] == seed

    @pytest.mark.parametrize("unwritable", ["report", "trace"])
    def test_unwritable_output_leaves_the_other_file_unchanged(self, tmp_path, capsys, unwritable):
        report, trace = tmp_path / "prior.json", tmp_path / "prior.csv"
        report.write_bytes(b"previous report\n")
        trace.write_bytes(b"previous,trace\n")
        paths = {"report": report, "trace": trace, unwritable: tmp_path / "missing-dir" / "out"}
        args = ["simulate", "--preset", "gaa-1db", "--bits", "50"]
        code, out, err = run_cli(args + ["--out", str(paths["report"]), "--trace-csv", str(paths["trace"])], capsys)
        assert code == 2
        assert out == ""
        assert "runtime error" in err
        assert report.read_bytes() == b"previous report\n"
        assert trace.read_bytes() == b"previous,trace\n"

    def test_existing_outputs_are_replaced(self, tmp_path, capsys):
        report, trace = tmp_path / "prior.json", tmp_path / "prior.csv"
        report.write_text("x" * 100_000)
        trace.write_text("y" * 100_000)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "2", "--samples-per-bit", "50"]
        code, _, _ = run_cli(args + ["--out", str(report), "--trace-csv", str(trace)], capsys)
        assert code == 0
        assert load_report(report.read_text())["empirical"]["n_bits"] == 2
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "sample", "i_alice", "i_bob", "v_node"]
        assert len(rows) == 1 + 2 * 50

    @staticmethod
    def prior_outputs(tmp_path):
        report, trace = tmp_path / "prior.json", tmp_path / "prior.csv"
        report.write_bytes(b"previous report\n")
        trace.write_bytes(b"previous,trace\n")
        return report, trace

    def test_out_of_memory_mid_pass_keeps_outputs(self, tmp_path, capsys, monkeypatch):
        draws = []

        def no_memory_on_third_chunk(*args):
            draws.append(args)
            if len(draws) > 4:  # two streams per chunk
                raise MemoryError("Unable to allocate")
            return gaussian_stream(*args)

        gaussian_stream = protocol.gaussian_stream
        monkeypatch.setattr(protocol, "gaussian_stream", no_memory_on_third_chunk)
        report, trace = self.prior_outputs(tmp_path)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err == "kljnsim: runtime error: Unable to allocate\n"
        assert len(draws) == 5
        assert report.read_bytes() == b"previous report\n"
        assert trace.read_bytes() == b"previous,trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.csv", "prior.json"]

    def test_interrupt_mid_csv_keeps_outputs(self, tmp_path, monkeypatch):
        blocks = []

        def interrupted_on_second_block(block, first_period):
            blocks.append(first_period)
            if len(blocks) == 2:
                raise KeyboardInterrupt
            return trace_rows(block, first_period)

        trace_rows = montecarlo._trace_rows
        monkeypatch.setattr(montecarlo, "_trace_rows", interrupted_on_second_block)
        report, trace = self.prior_outputs(tmp_path)
        args = ["simulate", "--preset", "lossless", "--bits", "500", "--out", str(report), "--trace-csv", str(trace)]
        with pytest.raises(KeyboardInterrupt):
            main(args)
        # on two CPUs a forked worker claims chunks too, so this process's second chunk is any later one
        split = sys.platform == "linux" and montecarlo.available_workers() >= 2
        assert blocks[0] == 0
        assert blocks[1] in (range(81, 500, 81) if split else (81,))
        assert report.read_bytes() == b"previous report\n"
        assert trace.read_bytes() == b"previous,trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.csv", "prior.json"]

    def test_interrupt_just_after_a_rename_keeps_the_new_file(self, tmp_path, monkeypatch):
        # a SIGINT acted on as os.replace returns finds the output already in place and no temporary file
        def renamed_then_interrupted(src, dst):
            replace(src, dst)
            raise KeyboardInterrupt

        replace = os.replace
        monkeypatch.setattr(os, "replace", renamed_then_interrupted)
        report = tmp_path / "prior.json"
        report.write_bytes(b"previous report\n")
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--preset", "gaa-1db", "--bits", "2", "--samples-per-bit", "50", "--out", str(report)])
        assert load_report(report.read_text())["empirical"]["n_bits"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.json"]

    @staticmethod
    def interrupt_this_thread():
        # thread-directed, so no unblocked OpenBLAS thread takes it
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    @needs_sigmask
    def test_sigint_between_the_renames_leaves_both_new_outputs(self, tmp_path, monkeypatch):
        # the pair is renamed with SIGINT held, so a signal after the first rename is acted on after the second
        def renamed_then_signalled(src, dst):
            replace(src, dst)
            renamed.append(dst)
            if len(renamed) == 1:
                self.interrupt_this_thread()

        renamed = []
        replace = os.replace
        monkeypatch.setattr(os, "replace", renamed_then_signalled)
        report, trace = self.prior_outputs(tmp_path)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "2", "--samples-per-bit", "50"]
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--out", str(report), "--trace-csv", str(trace)])
        assert len(renamed) == 2
        assert load_report(report.read_text())["empirical"]["n_bits"] == 2
        assert trace.read_text().count("\n") == 1 + 2 * 50
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.csv", "prior.json"]

    @needs_sigmask
    @pytest.mark.parametrize("signalled_call", [1, 2])
    def test_sigint_as_a_temporary_file_is_made_leaves_no_file(self, tmp_path, monkeypatch, signalled_call):
        # a signal that lands as mkstemp returns is acted on once the file is recorded for removal
        def made_then_signalled(*args, **kwargs):
            made.append(mkstemp(*args, **kwargs))
            if len(made) == signalled_call:
                self.interrupt_this_thread()
            return made[-1]

        made = []
        mkstemp = tempfile.mkstemp
        monkeypatch.setattr(tempfile, "mkstemp", made_then_signalled)
        report, trace = self.prior_outputs(tmp_path)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "2", "--samples-per-bit", "50"]
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--out", str(report), "--trace-csv", str(trace)])
        assert len(made) == signalled_call
        assert report.read_bytes() == b"previous report\n"
        assert trace.read_bytes() == b"previous,trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.csv", "prior.json"]

    def test_symlinked_outputs_are_written_through(self, tmp_path, capsys):
        # the file a link names is replaced, in the link target's directory; the link stays
        (tmp_path / "data").mkdir()
        (tmp_path / "links").mkdir()
        report, trace = self.prior_outputs(tmp_path / "data")
        report_link, trace_link = tmp_path / "links" / "out.json", tmp_path / "links" / "out.csv"
        report_link.symlink_to(report)
        trace_link.symlink_to(trace)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "2", "--samples-per-bit", "50"]
        code, _, _ = run_cli(args + ["--out", str(report_link), "--trace-csv", str(trace_link)], capsys)
        assert code == 0
        assert report_link.is_symlink() and trace_link.is_symlink()
        assert load_report(report.read_text())["empirical"]["n_bits"] == 2
        assert trace.read_text().count("\n") == 1 + 2 * 50
        assert sorted(p.name for p in (tmp_path / "links").iterdir()) == ["out.csv", "out.json"]
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["prior.csv", "prior.json"]

    def test_outputs_keep_their_permissions(self, tmp_path, capsys):
        report, trace = self.prior_outputs(tmp_path)
        report.chmod(0o640)
        new = tmp_path / "new.csv"
        umask = os.umask(0o022)
        try:
            args = ["simulate", "--preset", "gaa-1db", "--bits", "2", "--out", str(report), "--trace-csv", str(new)]
            assert run_cli(args, capsys)[0] == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(report.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o644

    def test_null_device_outputs(self, capsys):
        # a character device can be neither truncated nor rewound
        args = ["simulate", "--preset", "gaa-1db", "--bits", "5"]
        assert run_cli(args + ["--out", os.devnull, "--trace-csv", os.devnull], capsys) == (0, "", "")
        assert run_cli(["analyze", "--preset", "gaa-1db", "--out", os.devnull], capsys) == (0, "", "")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file-through-a-link"])
    def test_report_and_trace_on_one_file_exit_one_before_simulating(self, tmp_path, capsys, monkeypatch, existing):
        # the report would replace the file after the trace, discarding it
        calls = []
        monkeypatch.setattr(cli, "build_report", lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "same.out"
        trace = path
        if existing:
            path.write_bytes(b"previous\n")
            trace = tmp_path / "link.out"
            trace.symlink_to(path)
        args = ["simulate", "--preset", "gaa-1db", "--bits", "5", "--out", str(path), "--trace-csv", str(trace)]
        code, out, err = run_cli(args, capsys)
        assert (code, out, calls) == (1, "", [])
        assert err == f"kljnsim: config error: output.report and output.trace_csv both name the file {path}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["link.out", "same.out"] if existing else [])
        if existing:
            assert path.read_bytes() == b"previous\n"

    def test_outputs_to_pipes(self, tmp_path, capsys):
        # standard output and error are pipes here, which cannot be sought; the trace
        # through the pipe is byte for byte that of a regular file, line endings included
        args = ["simulate", "--preset", "gaa-1db", "--bits", "5", "--samples-per-bit", "50"]
        proc = subprocess.run(
            [sys.executable, "-m", "kljnsim", *args, "--out", "/dev/stdout", "--trace-csv", "/dev/stderr"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert load_report(proc.stdout.decode())["empirical"]["n_bits"] == 5
        rows = list(csv.reader(io.StringIO(proc.stderr.decode("ascii"), newline="")))
        assert rows[0] == ["period", "sample", "i_alice", "i_bob", "v_node"]
        assert len(rows) == 1 + 5 * 50
        trace = tmp_path / "trace.csv"
        assert run_cli([*args, "--out", os.devnull, "--trace-csv", str(trace)], capsys)[0] == 0
        assert proc.stderr == trace.read_bytes()

    @pytest.mark.filterwarnings("error")  # and no numpy warning
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "document",
        [
            # squared currents near 3e305 and 3e307, whose sums over 10000
            # samples leave the double range in amperes
            {"network": {"r_alice": 1e-306, "r_bob": 2e-306}},
            {"network": {"r_alice": 1e-308, "r_bob": 2e-308}},
            # a padded network at a noise scale near 1e305
            {"network": LARGE_NOISE_NETWORK, "noise": LARGE_NOISE},
        ],
        ids=["overflow", "squares", "padded-large-noise"],
    )
    def test_mean_squares_near_the_double_range(self, tmp_path, capsys, document, seed):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        code, out, _ = run_cli(["simulate", "--config", str(config), "--seed", str(seed), "--bits", "100"], capsys)
        assert code == 0
        strict = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
        moments, empirical = strict["analytic"]["moments"], strict["empirical"]
        # a mean square of n normal samples has SE s*sqrt(2/n); Alice holds the low resistor
        se = math.sqrt(2 / empirical["n_secure_samples"])
        for end, expected in (("low", moments["ms_alice"]), ("high", moments["ms_bob"])):
            assert math.isfinite(empirical[f"mean_square_{end}_end"])
            assert empirical[f"mean_square_{end}_end"] == pytest.approx(expected, rel=3 * se)
        # the ratio of two such means, at most sqrt(2) SE of either when independent
        assert empirical["ratio"] == pytest.approx(moments["ratio"], rel=3 * math.sqrt(2) * se)

    @pytest.mark.filterwarnings("error")
    def test_mean_square_past_the_double_range_is_null(self, tmp_path, capsys):
        # closed-form mean squares of 1.754e308; at this seed the sampled ones
        # lie above the largest double, which only the current unit holds
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"network": {"r_alice": 2.8e-309, "r_bob": 2.9e-309}}))
        args = ["simulate", "--config", str(config), "--seed", "2", "--bits", "10", "--samples-per-bit", "50"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        empirical = json.loads(out)["empirical"]
        assert empirical["mean_square_low_end"] is empirical["mean_square_high_end"] is None
        assert empirical["ratio"] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [2, 7])
    def test_end_resistances_far_below_the_shunt(self, tmp_path, capsys, seed):
        # r_bob sits about 1e287 below the shunt; a nodal solve that takes
        # i_a = (u_a - v)/r_a cancels there and once gave a low-end mean square
        # of 1e255 where the closed form gives 1e-53
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"network": FAR_BELOW_SHUNT}))
        code, out, _ = run_cli(["simulate", "--config", str(config), "--seed", str(seed), "--bits", "200"], capsys)
        assert code == 0
        report = json.loads(out)
        moments, empirical = report["analytic"]["moments"], report["empirical"]
        n = empirical["n_secure_samples"]
        # Bob holds the low resistor; a mean square of n normal samples has SE s*sqrt(2/n)
        for end, expected in (("low", moments["ms_bob"]), ("high", moments["ms_alice"])):
            assert empirical[f"mean_square_{end}_end"] == pytest.approx(expected, rel=3 * math.sqrt(2 / n))

    def test_waveform_mode_runs(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--preset",
                "gaa-1db",
                "--seed",
                "6",
                "--bits",
                "20",
                "--samples-per-bit",
                "160",
                "--mode",
                "waveform",
            ],
            capsys,
        )
        assert code == 0
        report = load_report(out)
        assert report["config"]["noise"]["mode"] == "waveform"
        assert report["empirical"]["attack"]["n_trials"] > 0

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (1, 10000000000)")

        monkeypatch.setattr(protocol, "gaussian_stream", no_memory)
        code, out, err = run_cli(SIM_ARGS, capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "kljnsim: runtime error: Unable to allocate 74.5 GiB for an array with shape (1, 10000000000)"
        ]

    def test_budget_past_the_readings_acts_as_the_readings(self, tmp_path, capsys):
        # a period of 100 samples holds 100 readings; Eve's histogram is sized
        # by them, not by a budget of 10**12
        reports = []
        for budget in (100, 10**12):
            config = tmp_path / f"budget-{budget}.json"
            config.write_text(json.dumps({"network": {"preset": "gaa-1db"}, "attack": {"max_measurements": budget}}))
            code, out, _ = run_cli(["simulate", "--config", str(config), "--bits", "200", "--seed", "3"], capsys)
            assert code == 0
            reports.append(json.loads(out))
        small, large = reports
        assert large["config"]["attack"]["max_measurements"] == 10**12
        assert large["empirical"] == small["empirical"]
        assert large["agreement"] == small["agreement"]

    def test_waveform_budget_past_the_readings(self, capsys):
        # 400 samples at stride 8 hold 50 readings, fewer than the default budget
        # of 64; pinned from a run whose histogram had the budget's 65 entries
        args = ["simulate", "--preset", "gaa-1db", "--mode", "waveform", "--bits", "200", "--samples-per-bit", "400"]
        code, out, _ = run_cli(args + ["--seed", "4"], capsys)
        assert code == 0
        attack = json.loads(out)["empirical"]["attack"]
        assert attack["n_trials"] == 97 * 50
        assert attack["repeat_until_answer"] == {
            "n_attacked": 97,
            "n_answered": 97,
            "n_gave_up": 0,
            "n_correct": 88,
            "conditional_fidelity": 88 / 97,
            "fidelity_ci99": [0.803235247666912, 0.9590497763772947],
            "mean_measurements": 318 / 97,
            "measurements_hist": {
                "1": 24, "2": 20, "3": 18, "4": 17, "5": 3, "6": 4, "7": 5, "8": 3, "9": 1, "10": 1, "15": 1
            },
        }


@pytest.mark.filterwarnings("error")
class TestNoNumpyWarning:
    """Runs that must print no numpy RuntimeWarning, which ``error`` turns into a failure.

    The workflow's warning step runs the same commands; its ``overflow.json``
    and ``squares.json`` runs are in ``TestSimulate.test_mean_squares_near_the_double_range``.
    """

    @pytest.mark.parametrize("mode", ["independent", "waveform"])
    @pytest.mark.parametrize("preset", ["gaa-1db", "gaa-0p1db", "lossless"])
    def test_presets(self, capsys, preset, mode):
        args = ["simulate", "--preset", preset, "--mode", mode, "--bits", "200", "--samples-per-bit", "400"]
        code, _, _ = run_cli(args, capsys)
        assert code == 0

    @staticmethod
    def simulate(tmp_path, capsys, document, bits, samples):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        args = ["simulate", "--config", str(config), "--bits", str(bits), "--samples-per-bit", str(samples)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        return json.loads(out)["empirical"]

    def test_lossless_loop_whose_alarm_sums_overflow(self, tmp_path, capsys):
        # squared currents near 3e305, whose running sums over a period would
        # overflow in amperes; the two end currents of a single loop are one
        # current, so the alarm stays silent in any unit
        network = {"network": {"r_alice": 1e-306, "r_bob": 2e-306}}
        alarm = self.simulate(tmp_path, capsys, network, 300, 1000)["alarm"]
        assert alarm["n_triggered"] == 0
        assert alarm["mean_rel_difference_secure"] == 0.0

    def test_lossless_loop_whose_squared_currents_overflow(self, tmp_path, capsys):
        # currents near 1e154, which square past the double range in amperes;
        # the two readings of a single loop are one reading, so none answers
        network = {"network": {"r_alice": 1e-308, "r_bob": 2e-308}}
        attack = self.simulate(tmp_path, capsys, network, 300, 100)["attack"]
        assert attack["n_trials"] > 0
        assert attack["n_success"] == attack["n_error"] == 0

    def test_padded_network_at_a_large_noise_scale(self, tmp_path, capsys):
        # the alarm's running sums would overflow in amperes; it must see what
        # it sees on the same network in normalized noise
        si = self.simulate(tmp_path, capsys, {"network": LARGE_NOISE_NETWORK, "noise": LARGE_NOISE}, 40, 20000)
        normalized = self.simulate(tmp_path, capsys, {"network": LARGE_NOISE_NETWORK}, 40, 20000)
        for key in ("n_triggered", "n_triggered_secure", "trigger_rate_secure"):
            assert si["alarm"][key] == normalized["alarm"][key]
        assert si["alarm"]["n_triggered_secure"] == si["n_secure"] > 0
        assert si["alarm"]["mean_rel_difference_secure"] == pytest.approx(
            normalized["alarm"]["mean_rel_difference_secure"], rel=1e-12
        )

    def test_end_resistances_far_below_the_shunt(self, tmp_path, capsys):
        # the workflow's found.json run; TestSimulate checks its mean squares
        assert self.simulate(tmp_path, capsys, {"network": FAR_BELOW_SHUNT}, 200, 100)["n_secure"] > 0

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize(
        "network",
        [{"r_alice": 1.0, "r_bob": 1e308}, {"r_alice": 1.0, "r_bob": 2.0, "pad": {"r_series": 1e308}}],
        ids=["end-resistor", "series-only-pad"],
    )
    def test_loop_resistance_that_overflows_exits_one(self, tmp_path, capsys, network, command):
        # finite moments, but the loop of a period with both high resistors,
        # 2*(r_high + r_series), overflows double precision
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"network": network}))
        args = [command, "--config", str(config)] + (["--bits", "20"] if command == "simulate" else [])
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("kljnsim: config error: network (r_alice=1.0, ")
        assert err.count("\n") == 1
        assert "loop resistance 2*(max(r_alice, r_bob) + r_series) = inf must be finite" in err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_currents_that_no_one_unit_holds_exit_one(self, tmp_path, capsys, command):
        # finite moments and loop, but about 2**1023 between the currents of
        # the LL and the HH connection, which no one current unit holds
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"network": WIDE_SPAN}))
        args = [command, "--config", str(config)] + (["--bits", "20"] if command == "simulate" else [])
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("kljnsim: config error: network (r_alice=1e-308, r_bob=8e+307, ")
        assert err.count("\n") == 1
        assert "end-current scales from 5.590169943749474e-155 to 5e+153 " in err
        assert "within 2**974 of each other" in err


class TestConfigErrorsKeepOutputs:
    """A config error leaves an existing report and trace CSV byte-identical."""

    # name: (config document, part of the error message)
    DOCUMENTS = {
        # moments that under- or overflow double precision
        "moments-underflow": (
            {"network": {"r_alice": 1e-300, "r_bob": 1e-299, "pad": {"r_series": 0, "r_shunt": 1e-300}}},
            "config error: network (r_alice=1e-300, ",
        ),
        "moments-overflow": (
            {"network": {"r_alice": 1e300, "r_bob": 1e299, "pad": {"r_series": 0, "r_shunt": 1e300}}},
            "config error: network (r_alice=1e+300, ",
        ),
        # finite unit-free moments whose noise-scaled values overflow
        "scaled-moments-overflow": (
            {"network": {"r_alice": 1e-200, "r_bob": 2e-200}, "noise": {"t_eff": 1e172, "bandwidth": 2.0}},
            "with noise (t_eff=1e+172, bandwidth=2.0) gives mean-square currents inf and inf;",
        ),
        # scaled moments so small that Eve's normalization 1/min overflows
        "scaled-moments-underflow": (
            {"network": {"preset": "gaa-1db"}, "noise": {"t_eff": 1e-290, "bandwidth": 1.0}},
            "with noise (t_eff=1e-290, bandwidth=1.0) gives mean-square currents ",
        ),
        # finite moments, but source variances 4kT_eff*B*R that overflow
        "source-variance-overflow": (
            {"network": {"preset": "gaa-1db"}, "noise": {"t_eff": 1e300, "bandwidth": 3e30}},
            "config error: network (r_alice=1000.0, r_bob=10000.0, r_series=2.9, r_shunt=500.0) "
            "with noise (t_eff=1e+300, bandwidth=3e+30) gives ",
        ),
        # currents about 2**1023 apart, which no one current unit holds
        "wide-current-span": (
            {"network": WIDE_SPAN},
            "config error: network (r_alice=1e-308, r_bob=8e+307, r_series=0.0, r_shunt=None) "
            "with noise (t_eff='normalized', bandwidth=1.0) gives end-current scales ",
        ),
        "window-longer-than-period": (
            {"network": {"preset": "gaa-1db"}, "protocol": {"samples_per_bit": 10}},
            "config error: protocol.samples_per_bit must be >= protocol.alarm.window",
        ),
        "unknown-key": ({"network": {"preset": "gaa-1db"}, "noize": {}}, "config error: unknown key: noize"),
    }

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_outputs_unchanged(self, tmp_path, capsys, command, name):
        config = tmp_path / "cfg.json"
        document, message = self.DOCUMENTS[name]
        config.write_text(json.dumps(document))
        report, trace = tmp_path / "prior.json", tmp_path / "prior.csv"
        report.write_bytes(b"previous report\n")
        trace.write_bytes(b"previous,trace\n")
        args = [command, "--config", str(config), "--out", str(report)]
        if command == "simulate":
            args += ["--bits", "10", "--trace-csv", str(trace)]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert message in err
        assert report.read_bytes() == b"previous report\n"
        assert trace.read_bytes() == b"previous,trace\n"

    def test_network_rules_hold_before_the_engine_loads(self, tmp_path):
        # a loop resistance that overflows and currents that no one unit holds are config errors, found
        # before simulate imports numpy or makes a temporary output
        (tmp_path / "loop.json").write_text(json.dumps({"network": {"r_alice": 1.0, "r_bob": 1e308}}))
        (tmp_path / "span.json").write_text(json.dumps({"network": WIDE_SPAN}))
        code = (
            "import contextlib, io, sys\n"
            "from kljnsim.cli import main\n"
            "for name in ('loop', 'span'):\n"
            "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "        code = main(['simulate', '--config', name + '.json', '--bits', '20', '--out', 'report.json'])\n"
            "    assert code == 1 and err.getvalue().count('\\n') == 1, (name, code, err.getvalue())\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json", "span.json"]


class TestDesignPad:
    def test_one_db(self, capsys):
        code, out, _ = run_cli(["design-pad", "--loss-db", "1", "--z0", "50"], capsys)
        assert code == 0
        pad = json.loads(out)
        assert pad["r_series_ohm"] == pytest.approx(2.875, abs=5e-4)
        assert pad["r_shunt_ohm"] == pytest.approx(433.34, abs=0.01)

    def test_zero_loss(self, capsys):
        code, out, _ = run_cli(["design-pad", "--loss-db", "0", "--z0", "50"], capsys)
        assert code == 0
        pad = json.loads(out)
        assert pad["r_series_ohm"] == 0.0
        assert pad["r_shunt_ohm"] is None

    def test_negative_loss_exits_one(self, capsys):
        code, _, err = run_cli(["design-pad", "--loss-db", "-1", "--z0", "50"], capsys)
        assert code == 1
        assert "loss" in err

    @pytest.mark.parametrize(
        "loss_db, z0, name",
        [
            ("nan", "50", "loss_db"),
            ("inf", "50", "loss_db"),
            ("1", "inf", "z0"),
            ("1", "nan", "z0"),
            # finite losses whose gain 10**(loss_db/20), or its square, overflows
            ("7000", "50", "loss_db"),
            ("4000", "50", "loss_db"),
        ],
    )
    def test_non_finite_input_exits_one(self, capsys, loss_db, z0, name):
        code, out, err = run_cli(["design-pad", "--loss-db", loss_db, "--z0", z0], capsys)
        assert code == 1
        assert out == ""
        assert f"{name} must be finite" in err

    def test_loss_below_resolution_exits_one(self, capsys):
        code, out, err = run_cli(["design-pad", "--loss-db", "1e-300", "--z0", "50"], capsys)
        assert code == 1
        assert out == ""
        assert "loss_db 1e-300 is below double-precision resolution" in err


# --help of each command, as argparse prints it at 80 columns
HELP = {
    "kljnsim": """\
usage: kljnsim [-h] {analyze,simulate,design-pad} ...

Command-line harness: ``analyze``, ``simulate`` and ``design-pad``.

positional arguments:
  {analyze,simulate,design-pad}
    analyze             closed-form moments, ratio and attack probabilities
    simulate            Monte Carlo key exchange, alarm and attack campaign
    design-pad          matched symmetric T-pad resistor values

options:
  -h, --help            show this help message and exit
""",
    "analyze": """\
usage: kljnsim analyze [-h] [--config CONFIG] [--preset PRESET] [--out OUT]

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON config file
  --preset PRESET  built-in network preset (overrides the file's network)
  --out OUT        report path (default: standard output)
""",
    "simulate": """\
usage: kljnsim simulate [-h] [--config CONFIG] [--preset PRESET] [--out OUT]
                        [--seed SEED] [--bits BITS]
                        [--samples-per-bit SAMPLES_PER_BIT]
                        [--mode {independent,waveform}]
                        [--trace-csv TRACE_CSV]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file
  --preset PRESET       built-in network preset (overrides the file's network)
  --out OUT             report path (default: standard output)
  --seed SEED           master seed (fallback: KLJN_SEED, then config file)
  --bits BITS           number of bit periods
  --samples-per-bit SAMPLES_PER_BIT
                        samples per bit period
  --mode {independent,waveform}
                        sampling mode
  --trace-csv TRACE_CSV
                        dump per-sample currents to this CSV file
""",
    "design-pad": """\
usage: kljnsim design-pad [-h] --loss-db LOSS_DB --z0 Z0

options:
  -h, --help         show this help message and exit
  --loss-db LOSS_DB
  --z0 Z0
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(([] if command == "kljnsim" else [command]) + ["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == HELP[command]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kljnsim", "design-pad", "--loss-db", "1", "--z0", "50"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["r_shunt_ohm"] == pytest.approx(433.34, abs=0.01)

    def test_report_self_consistency(self, capsys):
        # the analytic ratio in the report matches a recomputation from the
        # echoed config
        from kljnsim.circuit import analytic_mean_square_currents
        from kljnsim.config import parse_config

        _, out, _ = run_cli(["analyze", "--preset", "gaa-1db"], capsys)
        report = load_report(out)
        cfg = parse_config(report["config"])
        recomputed = analytic_mean_square_currents(cfg.network, cfg.noise).ratio
        assert report["analytic"]["moments"]["ratio"] == recomputed
