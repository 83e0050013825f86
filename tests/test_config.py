import copy
import json
import math

import pytest

from kljnsim import cli
from kljnsim.circuit import AttenuatorConfig, NetworkConfig, NoiseSpec
from kljnsim.config import (
    PRESETS,
    AlarmPolicy,
    ConfigError,
    ExperimentConfig,
    parse_config,
    resolve_config,
)
from kljnsim.protocol import low_high_resistors


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {"gaa-1db", "gaa-0p1db", "lossless"}

    def test_gaa_1db_values(self):
        net = PRESETS["gaa-1db"]
        assert (net.r_alice, net.r_bob) == (1000.0, 10000.0)
        assert net.pad == AttenuatorConfig(2.9, 500.0)

    def test_lossless_is_single_loop(self):
        assert PRESETS["lossless"].pad is None

    def test_gaa_0p1db_uses_derived_pad(self):
        pad = PRESETS["gaa-0p1db"].pad
        assert pad.r_series == pytest.approx(0.288, abs=5e-4)
        assert pad.r_shunt == pytest.approx(4343.0, abs=1.0)


class TestParseConfig:
    def test_minimal_preset_document(self):
        cfg = parse_config({"network": {"preset": "lossless"}})
        assert cfg.network == PRESETS["lossless"]
        assert cfg.n_bits == 1000

    def test_defaults_come_from_the_classes(self):
        assert parse_config({"network": {"preset": "lossless"}}) == ExperimentConfig(network=PRESETS["lossless"])
        cfg = parse_config({"network": {"r_alice": 1000, "r_bob": 10000, "pad": {}}})
        assert cfg.network == NetworkConfig(1000.0, 10000.0, AttenuatorConfig())

    @pytest.mark.parametrize("label", [{"a": 1}, 5, None, ["x"]])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ConfigError, match=r"^network\.label must be a string$"):
            parse_config({"network": {"r_alice": 1000, "r_bob": 10000, "label": label}})

    @pytest.mark.parametrize(
        "path", ["network", "network.pad", "noise", "protocol", "protocol.alarm", "attack", "output"]
    )
    def test_section_must_be_an_object(self, path):
        document = {"network": {"r_alice": 1000, "r_bob": 10000}}
        *parents, key = path.split(".")
        node = document
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = "x"
        with pytest.raises(ConfigError, match="^" + path.replace(".", r"\.") + " must be an object$"):
            parse_config(document)

    def test_explicit_network(self):
        cfg = parse_config(
            {
                "network": {
                    "r_alice": 1000,
                    "r_bob": 10000,
                    "pad": {"r_series": 2.9, "r_shunt": 500},
                    "label": "custom",
                }
            }
        )
        assert cfg.network == NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, 500.0), "custom")

    def test_null_shunt_means_open(self):
        cfg = parse_config(
            {"network": {"r_alice": 1000, "r_bob": 10000, "pad": {"r_series": 2.9, "r_shunt": None}}}
        )
        assert cfg.network.pad.r_shunt is None
        assert cfg.network.r_shunt is None

    def test_null_pad_means_no_pad(self):
        cfg = parse_config({"network": {"r_alice": 1000, "r_bob": 10000, "pad": None}})
        assert cfg.network.pad is None

    @pytest.mark.parametrize(
        "document, key",
        [
            ({"network": {"preset": "lossless"}, "bogus": 1}, "bogus"),
            ({"network": {"preset": "lossless", "extra": 2}}, "network.extra"),
            ({"network": {"r_alice": 1, "r_bob": 2, "padd": {}}}, "network.padd"),
            (
                {"network": {"r_alice": 1, "r_bob": 2, "pad": {"r_serie": 0}}},
                "network.pad.r_serie",
            ),
            ({"network": {"preset": "lossless"}, "noise": {"bandwith": 5}}, "noise.bandwith"),
            ({"network": {"preset": "lossless"}, "protocol": {"bits": 1}}, "protocol.bits"),
            (
                {"network": {"preset": "lossless"}, "protocol": {"alarm": {"delta": 0.1}}},
                "protocol.alarm.delta",
            ),
            ({"network": {"preset": "lossless"}, "attack": {"budget": 3}}, "attack.budget"),
            ({"network": {"preset": "lossless"}, "output": {"csv": "x"}}, "output.csv"),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, document, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(document)

    def test_zero_resistance_names_key(self):
        with pytest.raises(ConfigError, match=r"network\.r_alice"):
            parse_config({"network": {"r_alice": 0, "r_bob": 10000}})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config({"network": {"preset": "gaa-9db"}})

    def test_preset_mixed_with_explicit_values(self):
        with pytest.raises(ConfigError, match="^network: a preset takes no other keys$"):
            parse_config({"network": {"preset": "lossless", "r_alice": 1000}})

    def test_missing_network(self):
        # the document's own message: parse_config has no command line
        with pytest.raises(ConfigError, match=r"^config needs a network section \(explicit values or a preset\)$"):
            parse_config({})

    def test_t_eff_token_or_number(self):
        cfg = parse_config({"network": {"preset": "lossless"}, "noise": {"t_eff": 1e18}})
        assert cfg.noise.t_eff == 1e18
        with pytest.raises(ConfigError, match=r"noise\.t_eff"):
            parse_config({"network": {"preset": "lossless"}, "noise": {"t_eff": "hot"}})

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                '{"network": {"r_alice": 1000, "r_bob": 10000,'
                ' "pad": {"r_series": 2.9, "r_shunt": NaN}}}',
                "network.pad.r_shunt",
            ),
            ('{"network": {"r_alice": Infinity, "r_bob": 10000}}', "network.r_alice"),
            ('{"network": {"preset": "lossless"}, "noise": {"t_eff": -Infinity}}', "noise.t_eff"),
            ('{"network": {"preset": "lossless"}, "noise": {"bandwidth": 1e400}}', "noise.bandwidth"),
            ('{"network": {"r_alice": 1' + "0" * 400 + ', "r_bob": 10000}}', "network.r_alice"),
            (
                '{"network": {"preset": "lossless"}, "protocol": {"alarm": {"rel_tolerance": NaN}}}',
                "protocol.alarm.rel_tolerance",
            ),
        ],
    )
    def test_non_finite_numbers_rejected_by_name(self, text, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " must be a finite number"):
            parse_config(json.loads(text))

    @pytest.mark.parametrize("preset", [["x"], {"name": "lossless"}, 1, None])
    def test_preset_must_be_a_string(self, preset):
        with pytest.raises(ConfigError, match=r"network\.preset"):
            parse_config({"network": {"preset": preset}})

    @pytest.mark.parametrize(
        "path, value",
        [
            ("network.r_bob", -1),
            ("network.pad.r_series", -0.5),
            ("network.pad.r_shunt", 0),
            ("noise.bandwidth", 0),
            ("noise.oversample", 1),
            ("noise.mode", "continuous"),
            ("protocol.alarm.rel_tolerance", 0),
            ("protocol.alarm.window", 1),
            ("protocol.n_bits", 0),
            ("protocol.samples_per_bit", 0),
            ("attack.max_measurements", 0),
            ("master_seed", -(2**63) - 1),
            ("master_seed", 2**63),
            ("master_seed", 18446744073709551621),
            ("master_seed", -18446744073709551611),
        ],
    )
    def test_range_errors_name_the_key(self, path, value):
        document = {
            "network": {"r_alice": 1000, "r_bob": 10000, "pad": {"r_series": 2.9, "r_shunt": 500}}
        }
        *parents, key = path.split(".")
        node = document
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
        with pytest.raises(ConfigError, match="^" + path.replace(".", r"\.") + " must be"):
            parse_config(document)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_config({"network": {"r_alice": True, "r_bob": 10000}})

    def test_samples_must_cover_alarm_window(self):
        with pytest.raises(ConfigError, match="samples_per_bit"):
            parse_config(
                {
                    "network": {"preset": "lossless"},
                    "protocol": {"samples_per_bit": 10, "alarm": {"window": 50}},
                }
            )

    def test_round_trip_through_echo(self):
        cfg = parse_config(
            {
                "network": {"preset": "gaa-1db"},
                "protocol": {"n_bits": 42, "samples_per_bit": 64, "alarm": {"window": 32}},
                "attack": {"max_measurements": 8},
                "master_seed": 99,
            }
        )
        again = parse_config(cfg.to_dict())
        assert again == cfg


def resolve_flags(file_data, *flags):
    """Resolve ``simulate`` flags over ``file_data`` through the CLI's parser, which declares each flag's key."""
    args = cli.build_parser().parse_args(["simulate", *flags])
    return resolve_config(file_data, cli.document_flags(args))


FLAGS = {
    "seed": "--seed",
    "bits": "--bits",
    "samples_per_bit": "--samples-per-bit",
    "mode": "--mode",
    "preset": "--preset",
    "out": "--out",
}


class TestResolveConfig:
    def test_preset_flag_wins_over_file_network(self):
        file_data = {"network": {"r_alice": 7.0, "r_bob": 70.0}}
        cfg = resolve_flags(file_data, "--preset", "gaa-1db")
        assert cfg.network == PRESETS["gaa-1db"]

    def test_flag_overrides(self):
        file_data = {"network": {"preset": "lossless"}, "master_seed": 5}
        cfg = resolve_flags(file_data, "--seed", "9", "--bits", "123", "--samples-per-bit", "77", "--mode", "waveform")
        assert cfg.master_seed == 9
        assert cfg.n_bits == 123
        assert cfg.samples_per_bit == 77
        assert cfg.noise.mode == "waveform"

    def test_file_seed_survives_without_flag(self):
        cfg = resolve_flags({"network": {"preset": "lossless"}, "master_seed": 5})
        assert cfg.master_seed == 5

    def test_no_network_anywhere(self):
        with pytest.raises(ConfigError, match="network"):
            resolve_config(None, {})

    @pytest.mark.parametrize(
        "flag, value, document",
        [
            ("seed", 2**63, {"master_seed": 2**63}),
            ("seed", -18446744073709551611, {"master_seed": -18446744073709551611}),
            ("bits", 0, {"protocol": {"n_bits": 0}}),
            ("samples_per_bit", 10, {"protocol": {"samples_per_bit": 10}}),
            ("preset", "gaa-9db", {"network": {"preset": "gaa-9db"}}),
        ],
    )
    def test_flags_are_validated_like_file_keys(self, flag, value, document):
        with pytest.raises(ConfigError) as from_file:
            parse_config({"network": {"preset": "lossless"}, **document})
        with pytest.raises(ConfigError) as from_flag:
            resolve_flags({"network": {"preset": "lossless"}}, f"{FLAGS[flag]}={value}")
        assert str(from_flag.value) == str(from_file.value)

    def test_mode_flag_takes_only_the_file_values(self):
        # the parser offers the modes the file accepts, and rejects any other value itself
        with pytest.raises(ConfigError, match="noise.mode must be 'independent' or 'waveform'"):
            parse_config({"network": {"preset": "lossless"}, "noise": {"mode": "continuous"}})
        with pytest.raises(ConfigError, match="argument --mode: invalid choice: 'continuous'"):
            resolve_flags({"network": {"preset": "lossless"}}, "--mode", "continuous")
        for mode in ("independent", "waveform"):
            assert resolve_flags({"network": {"preset": "lossless"}}, "--mode", mode).noise.mode == mode

    def test_file_data_is_not_modified(self):
        file_data = {
            "network": {"r_alice": 1000, "r_bob": 10000},
            "noise": {"mode": "independent"},
            "protocol": {"n_bits": 5, "alarm": {"window": 20}},
            "output": {"report": "a.json"},
        }
        before = copy.deepcopy(file_data)
        flags = ["--seed", "3", "--bits", "7", "--samples-per-bit", "60", "--mode", "waveform"]
        cfg = resolve_flags(file_data, *flags, "--out", "b.json", "--trace-csv", "t.csv")
        assert file_data == before
        assert (cfg.master_seed, cfg.n_bits, cfg.samples_per_bit, cfg.noise.mode) == (3, 7, 60, "waveform")
        assert (cfg.report_path, cfg.trace_csv, cfg.alarm.window) == ("b.json", "t.csv", 20)

    @pytest.mark.parametrize(
        "section, flag, value", [("protocol", "bits", 5), ("noise", "mode", "waveform"), ("output", "out", "r.json")]
    )
    def test_flag_into_a_non_object_section_fails_like_the_file(self, section, flag, value):
        with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
            resolve_flags({"network": {"preset": "lossless"}, section: "x"}, FLAGS[flag], str(value))

    def test_non_object_root_fails_with_flags(self):
        with pytest.raises(ConfigError, match="^config root must be an object$"):
            resolve_flags([["network", {"preset": "lossless"}]], "--preset", "lossless")

    def test_pair_requires_distinct_resistors(self):
        cfg = resolve_config({"network": {"r_alice": 1000, "r_bob": 1000}}, {})
        with pytest.raises(ValueError, match="network.r_alice and network.r_bob must differ"):
            low_high_resistors(cfg.network)

    def test_pair_orients_low_high(self):
        cfg = resolve_config({"network": {"r_alice": 10000, "r_bob": 1000}}, {})
        assert low_high_resistors(cfg.network) == (1000.0, 10000.0)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(network=PRESETS["lossless"])
        assert cfg.samples_per_bit == 100
        assert cfg.alarm.window == 50
        assert cfg.max_measurements == 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(network=PRESETS["lossless"], n_bits=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(network=PRESETS["lossless"], max_measurements=0)


GAA = PRESETS["gaa-1db"]
# one valid record of each validated class, with changes that break one check each
CHANGES = [
    (NoiseSpec(), {"t_eff": "hot"}),
    (NoiseSpec(), {"t_eff": -1.0}),
    (NoiseSpec(), {"bandwidth": math.inf}),
    (NoiseSpec(), {"mode": "burst"}),
    (NoiseSpec(), {"oversample": 1}),
    (NoiseSpec(), {"t_eff": 1e-300, "bandwidth": 1e-300}),
    (AttenuatorConfig(), {"r_series": -1.0}),
    (AttenuatorConfig(), {"r_shunt": 0.0}),
    (GAA, {"r_alice": 0.0}),
    (GAA, {"r_bob": math.inf}),
    (AlarmPolicy(), {"rel_tolerance": 0.0}),
    (AlarmPolicy(), {"window": 1}),
    (ExperimentConfig(network=GAA), {"n_bits": 0}),
    (ExperimentConfig(network=GAA), {"samples_per_bit": 49}),
    (ExperimentConfig(network=GAA), {"max_measurements": 0}),
    (ExperimentConfig(network=GAA), {"master_seed": 2**63}),
]


class TestRecords:
    """The config records are named tuples whose checks hold for new records and changed copies alike."""

    @pytest.mark.parametrize(
        "record, changes", CHANGES, ids=[f"{type(r).__name__}-{'-'.join(c)}" for r, c in CHANGES]
    )
    def test_changed_copy_raises_what_construction_raises(self, record, changes):
        with pytest.raises(ValueError) as built:
            type(record)(**{**record._asdict(), **changes})
        with pytest.raises(ValueError) as copied:
            record._replace(**changes)
        assert type(copied.value) is type(built.value)
        assert str(copied.value) == str(built.value)

    @pytest.mark.parametrize(
        "record", [NoiseSpec(), AttenuatorConfig(), GAA, AlarmPolicy(), ExperimentConfig(GAA)], ids=type
    )
    def test_valid_copy_is_a_record_of_its_class(self, record):
        field, value = next(iter(record._asdict().items()))
        copy = record._replace(**{field: value})
        assert type(copy) is type(record)
        assert copy == record

    def test_records_are_tuples(self):
        assert AttenuatorConfig(2.9, 500.0) == (2.9, 500.0)
        assert tuple(NoiseSpec()) == ("normalized", 1.0, "independent", 8)
        assert GAA._asdict()["pad"] is GAA.pad

    def test_echo_writes_the_pad_as_an_object(self):
        network = ExperimentConfig(network=GAA).to_dict()["network"]
        pad = {"r_series": 2.9, "r_shunt": 500.0}
        assert network == {"r_alice": 1000.0, "r_bob": 10000.0, "pad": pad, "label": "gaa-1db"}
        assert ExperimentConfig(network=PRESETS["lossless"]).to_dict()["network"]["pad"] is None
