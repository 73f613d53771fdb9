"""Command-line surface: subcommands, file outputs, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freqbin import RunConfig, bessel_j, load_config
from freqbin.cli import main
from freqbin.config import parse_bins
from freqbin.errors import InvalidInputError


GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = (_LEAVES | st.lists(_LEAVES, max_size=3)
               | st.dictionaries(st.text(max_size=2) | st.integers(-3, 3).map(str), _LEAVES,
                                 max_size=2))
CONFIG_KEYS = sorted(RunConfig().to_dict()) + ["foo"]
# a config section: its known keys and a stray one
CONFIG_SECTIONS = st.dictionaries(
    st.sampled_from(sorted({key for section in RunConfig().to_dict().values()
                            if isinstance(section, dict) for key in section}) + ["foo"]),
    JSON_VALUES, max_size=3)


class TestConfig:
    def test_roundtrip(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_load_and_partial_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 99, "measurement": {"crosstalk": 0.05}}))
        config = load_config(path)
        assert config.seed == 99
        assert config.measurement.crosstalk == 0.05
        assert config.bins == (1, 2, 3, 4, 5, 6)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sedd": 1}))
        with pytest.raises(InvalidInputError):
            load_config(path)

    def test_bad_nested_key_and_value_rejected(self, tmp_path, capsys):
        for data in ({"truncation": {"foo": 1}}, {"bins": "ab"}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(data))
            assert run_cli("chsh", "finite", "--config", str(path)) == 3
            assert "config" in capsys.readouterr().err

    def test_max_order_must_be_a_bounded_integer(self, tmp_path, capsys):
        for max_order in (2.5, True, 1001):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"truncation": {"max_order": max_order}}))
            assert run_cli("chsh", "finite", "--config", str(path)) == 3
            assert "max_order" in capsys.readouterr().err
        assert run_cli("chsh", "finite", "--max-order", "5000") == 3
        assert "max_order" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"seed": 1.7}, {"seed": True}, {"seed": "12"},
        {"bins": [1.5, 2, 3]}, {"bins": [1, True]}, {"bins": ["1", "2"]}, {"bins": "123"},
        {"rf_frequency": "25e9"}, {"rf_frequency": True}, {"center_frequency": False},
        {"dispersion": {"quadratic_coefficient": "0.1"}},
        {"bins": [-2, -1, 0, 1, 2], "dispersion": {"per_bin_overrides": {"2": True}}},
        {"measurement": {"efficiency": True}}, {"bins": []},
        {"truncation": {"epsilon": "1e-3"}},
    ])
    def test_value_of_the_wrong_type_is_data_error(self, data, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert run_cli("chsh", "eval", "--config", str(path), "--out", str(tmp_path / "eval.json")) == 3
        assert "must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("data, name", [({"bins": list(np.arange(1, 7))}, "each bin"),
                                            ({"seed": np.int64(7)}, "seed"),
                                            ({"truncation": {"max_order": np.int64(8)}},
                                             "truncation.max_order")])
    def test_numpy_integer_is_not_a_json_integer(self, data, name):
        # json.dumps cannot write a numpy integer back into a run record
        with pytest.raises(InvalidInputError, match=f"bad config value: {name} must be an integer"):
            RunConfig.from_dict(data)

    def test_integers_still_stand_for_floats(self, tmp_path, capsys):
        records = []
        for rf_frequency, coefficient in ((25_000_000_000, 0), (25e9, 0.0)):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"rf_frequency": rf_frequency,
                                        "dispersion": {"quadratic_coefficient": coefficient}}))
            out = tmp_path / "finite.json"
            assert run_cli("chsh", "finite", "--config", str(path), "--out", str(out)) == 0
            records.append(out.read_bytes())
        capsys.readouterr()
        assert records[0] == records[1]

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES | CONFIG_SECTIONS, max_size=4))
    def test_from_dict_is_total(self, data):
        try:
            config = RunConfig.from_dict(data)
        except InvalidInputError:
            return
        assert isinstance(config, RunConfig)

    def test_parse_bins(self):
        assert parse_bins("1,2,3") == (1, 2, 3)
        assert parse_bins("1..6") == (1, 2, 3, 4, 5, 6)
        assert parse_bins("-2..2") == (-2, -1, 0, 1, 2)
        assert parse_bins(" 1, 2 ,3 ") == (1, 2, 3)
        assert parse_bins("-2 .. 0") == (-2, -1, 0)
        with pytest.raises(InvalidInputError):
            parse_bins("1,x")

    @pytest.mark.parametrize("text, message", [
        ("1_0,2", "bad bin list"), ("+1,2", "bad bin list"), ("\uff11,\uff12", "bad bin list"),
        ("1,\t2", "bad bin list"), ("\u0661..\u0663", "bad bin range"), ("1.._3", "bad bin range"),
        ("+1..3", "bad bin range"), ("1..3\u00a0", "bad bin range"), ("5..3", "bad bin range '5..3'"),
    ])
    def test_parse_bins_rejects_what_int_alone_accepts(self, text, message, capsys):
        with pytest.raises(InvalidInputError, match=message):
            parse_bins(text)
        assert run_cli("chsh", "finite", f"--bins={text}") == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["1_0", "+2", "\u0662", " 2\t"])
    def test_override_key_must_be_ascii_digits(self, key, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bins": [-2, -1, 0, 1, 2],
                                    "dispersion": {"per_bin_overrides": {key: 0.5}}}))
        assert run_cli("chsh", "finite", "--config", str(path)) == 3
        assert (f"bad config value: invalid literal for int() with base 10: {key!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ("chsh", "eval", "--seed", "1_0"), ("chsh", "eval", "--seed", "+7"),
        ("chsh", "finite", "--max-order", "6_4"), ("chsh", "finite", "--max-order", "\uff16\uff14"),
        ("pattern", "--steps", "1_0"), ("chsh", "optimize", "--restarts", "2_0"),
        ("chsh", "montecarlo", "--ensembles", "\u0665\u0660"),
    ])
    def test_integer_flag_must_be_ascii_digits(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"argument {argv[-2]}: invalid strict_int value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, first, second, bin_index", [
        ('{"0": 1.0, "-0": 2.0}', "0", "-0", 0), ('{"2": 1.0, " 2": 3.0}', "2", " 2", 2),
    ], ids=["minus-zero", "space"])
    def test_override_keys_naming_one_bin_are_data_error(self, overrides, first, second, bin_index,
                                                         tmp_path, capsys):
        # both keys once kept only the last value, with no error
        message = (f"dispersion.per_bin_overrides keys {first!r} and {second!r} "
                   f"both name bin {bin_index}")
        text = ('{"bins": [0, 1, 2], "dispersion": {"quadratic_coefficient": 0.1, '
                f'"per_bin_overrides": {overrides}}}}}')
        with pytest.raises(InvalidInputError, match=message):
            RunConfig.from_dict(json.loads(text))
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 2, "bins": [1, 2, 3]}', "seed"),
        ('{"dispersion": {"quadratic_coefficient": 0.1, "quadratic_coefficient": 0.2}}',
         "quadratic_coefficient"),
        ('{"bins": [0, 1], "dispersion": {"per_bin_overrides": {"1": 1.0, "1": 2.0}}}', "1"),
    ], ids=["top-level", "section", "override"])
    def test_repeated_key_in_config_file_is_data_error(self, text, key, tmp_path, capsys):
        # json.load alone keeps the last of two equal keys: {"seed": 1, "seed": 2} loaded seed 2
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"repeated key {key!r}"):
            load_config(path)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"config file {path}: repeated key {key!r} in a JSON object" in err
        assert not out.exists()

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert run_cli("chsh", "finite", "--config", str(path)) == 3
        assert f"config file {path}: expected a JSON object" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        out = tmp_path / "eval.json"
        assert run_cli("chsh", "eval", "--config", str(path), "--seed", "2",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["seed"] == 2


class TestPattern:
    def test_ideal_curve_properties(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli("pattern", "--out", str(out)) == 0
        capsys.readouterr()
        header, rows = read_csv(out)
        assert header == ["alpha", "p_ee", "p_eo", "p_oe", "p_oo"]
        assert len(rows) == 25
        peak = 0.25 * (1.0 - bessel_j(0, 2.0 * 1.391))
        for alpha, p_ee, p_eo, p_oe, p_oo in rows:
            assert abs(p_ee + p_eo + p_oe + p_oo - 1.0) <= 1e-9
            assert p_eo == p_oe
            if abs(alpha - math.pi) < 1e-9:
                assert p_eo <= 1e-12
            if alpha in (0.0,) or abs(alpha - 2 * math.pi) < 1e-9:
                assert abs(p_eo - peak) <= 1e-3
        run_record = json.loads((tmp_path / "curve.csv.run.json").read_text())
        assert run_record["config"]["bins"] == [1, 2, 3, 4, 5, 6]

    def test_zero_amplitude_constant_columns(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        assert run_cli("pattern", "--a", "0", "--b", "0", "--out", str(out)) == 0
        capsys.readouterr()
        _, rows = read_csv(out)
        for row in rows:
            assert row[1:] == [0.5, 0.0, 0.0, 0.5]

    def test_both_models_gap_matches_golden(self, tmp_path, capsys, golden):
        out = tmp_path / "both.csv"
        assert run_cli("pattern", "--pattern-model", "both", "--out", str(out)) == 0
        capsys.readouterr()
        header, _ = read_csv(out)
        assert "p_eo_ideal" in header and "p_eo_finite" in header
        run_record = json.loads((tmp_path / "both.csv.run.json").read_text())
        assert abs(run_record["results"]["max_curve_gap"] - golden["pattern_6bin_max_gap"]) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli("pattern", "--pattern-model", "both", "--seed", "5",
                           "--out", str(out)) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert ((tmp_path / "a.csv.run.json").read_bytes()
                == (tmp_path / "b.csv.run.json").read_bytes())

    def test_json_report_carries_the_curves(self, tmp_path, capsys):
        csv_out = tmp_path / "both.csv"
        json_out = tmp_path / "both.json"
        assert run_cli("pattern", "--pattern-model", "both", "--steps", "9",
                       "--out", str(csv_out)) == 0
        assert run_cli("pattern", "--pattern-model", "both", "--steps", "9",
                       "--format", "json", "--out", str(json_out)) == 0
        capsys.readouterr()
        results = json.loads(json_out.read_text())["results"]
        csv_rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
        assert len(results["alpha"]) == len(csv_rows) == 9
        for alpha, ideal, finite, csv_row in zip(results["alpha"], results["ideal"],
                                                 results["finite"], csv_rows):
            assert [format(v, ".12g") for v in [alpha, *ideal, *finite]] == csv_row
        run_record = json.loads((tmp_path / "both.csv.run.json").read_text())
        assert run_record["results"] == {"max_curve_gap": results["max_curve_gap"]}
        assert not (tmp_path / "both.json.run.json").exists()

    @pytest.mark.parametrize("argv, written", [
        ((), ["pattern.csv", "pattern.csv.run.json"]),
        (("--format", "csv"), ["pattern.csv", "pattern.csv.run.json"]),
        (("--format", "json"), ["pattern.json"]),
    ])
    def test_default_out_follows_the_format(self, argv, written, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("pattern", "--steps", "3", *argv) == 0
        assert capsys.readouterr().out.startswith(f"pattern: wrote 3 sweep points to {written[0]}")
        assert sorted(path.name for path in tmp_path.iterdir()) == written
        head = "{" if written[0].endswith(".json") else "alpha,"
        assert (tmp_path / written[0]).read_text().startswith(head)

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_negative_amplitude_is_data_error(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("pattern", flag, "-1", "--out", str(out)) == 3
        assert "modulation amplitude must be finite and >= 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_invalid_range_is_usage_error(self, tmp_path, capsys):
        assert run_cli("pattern", "--steps", "1", "--out", str(tmp_path / "x.csv")) == 2
        assert run_cli("pattern", "--alpha-start", "2", "--alpha-stop", "1",
                       "--out", str(tmp_path / "x.csv")) == 2
        capsys.readouterr()


class TestChshCommands:
    def test_eval_theory_column(self, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert run_cli("chsh", "eval", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "S" in captured.out
        payload = json.loads(out.read_text())
        theory = payload["results"]["theory"]
        assert abs(theory["s"] - 2.566) <= 1e-3
        for value, target in zip(theory["correlators"], (0.796, 0.796, 0.796, -0.178)):
            assert abs(value - target) <= 5e-4
        experiment = payload["results"]["experiment"]
        assert abs(experiment["s"] - theory["s"]) <= 5.0 * experiment["sigma_s"]

    def test_eval_csv_format(self, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert run_cli("chsh", "eval", "--format", "csv", "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pair,theory,experiment,sigma"
        assert lines[-1].startswith("S,")
        assert (tmp_path / "eval.csv.run.json").exists()
        # the per-pair sigmas come from the estimator that gives sigma_s
        sigmas = [float(line.split(",")[3]) for line in lines[1:]]
        assert sum(sig**2 for sig in sigmas[:4]) == pytest.approx(sigmas[4] ** 2, rel=1e-10)

    def test_optimize(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert run_cli("chsh", "optimize", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert abs(payload["results"]["symmetric"]["c_star"] - 0.2318) <= 1e-3

    def test_optimize_general_byte_identical_reruns(self, tmp_path, capsys):
        texts = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            assert run_cli("chsh", "optimize", "--general", "--seed", "7", "--out", str(out)) == 0
            texts.append(out.read_bytes())
        capsys.readouterr()
        assert texts[0] == texts[1]
        general = json.loads(texts[0])["results"]["general"]
        assert abs(general["s"] - 2.566494962149) <= 1e-9

    def test_optimize_general_warns_below_the_symmetric_optimum(self, tmp_path, capsys):
        # one restart is the zero start, a stationary point at S = 2
        out = tmp_path / "opt.json"
        assert run_cli("chsh", "optimize", "--general", "--restarts", "1", "--out", str(out)) == 0
        assert "warning: the general search stopped at S = 2.000000" in capsys.readouterr().err
        assert run_cli("chsh", "optimize", "--general", "--out", str(out)) == 0
        assert capsys.readouterr().err == ""

    def test_finite_matches_golden(self, tmp_path, capsys, golden):
        out = tmp_path / "finite.json"
        assert run_cli("chsh", "finite", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert abs(payload["results"]["finite"]["s"] - golden["finite_6bin_s"]) <= 1e-9

    def test_finite_bins_flag(self, tmp_path, capsys, golden):
        out = tmp_path / "finite4.json"
        assert run_cli("chsh", "finite", "--bins", "1..4", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["config"]["bins"] == [1, 2, 3, 4]
        s4 = payload["results"]["finite"]["s"]
        assert 2.0 < s4 < golden["finite_6bin_s"]  # fewer bins, larger finite-size loss

    def test_csv_format_reports(self, tmp_path, capsys, golden):
        out_opt = tmp_path / "opt.csv"
        assert run_cli("chsh", "optimize", "--format", "csv", "--out", str(out_opt)) == 0
        lines = out_opt.read_text().strip().splitlines()
        assert lines[0] == "quantity,value"
        assert lines[1].startswith("c_star,0.2318")
        assert (tmp_path / "opt.csv.run.json").exists()

        out_fin = tmp_path / "finite.csv"
        assert run_cli("chsh", "finite", "--format", "csv", "--out", str(out_fin)) == 0
        rows = dict(line.split(",", 1) for line in out_fin.read_text().strip().splitlines()[1:])
        assert abs(float(rows["S"].split(",")[0]) - golden["finite_6bin_s"]) <= 1e-9

        out_mc = tmp_path / "mc.csv"
        assert run_cli("chsh", "montecarlo", "--ensembles", "10", "--format", "csv",
                       "--out", str(out_mc)) == 0
        assert out_mc.read_text().startswith("quantity,value\nensembles,10\n")
        capsys.readouterr()

    def test_montecarlo_summary(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert run_cli("chsh", "montecarlo", "--ensembles", "50", "--crosstalk", "0.0241",
                       "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        results = payload["results"]
        assert results["ensembles"] == 50
        assert 2.0 < results["s_mean"] < 2.6
        assert 0.0 < results["s_std"] < 0.2


class TestRandomStreams:
    """Each run draws from one generator seeded by --seed; distinct seeds give distinct streams."""

    def test_nearby_seeds_share_no_histogram(self, tmp_path, capsys):
        # the per-pair scheme seeded pair i of --seed s with s + i, so these two were equal
        for seed in ("0", "1"):
            assert run_cli("simulate", "--out", str(tmp_path / seed), "--seed", seed) == 0
        capsys.readouterr()
        assert ((tmp_path / "1" / "hist_A0B0.csv").read_bytes()
                != (tmp_path / "0" / "hist_A0B1.csv").read_bytes())

    def test_montecarlo_does_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, capsys):
        from freqbin import counts
        argv = ("chsh", "montecarlo", "--ensembles", "20", "--seed", "3", "--format", "csv")
        assert run_cli(*argv, "--out", str(tmp_path / "default.csv")) == 0
        monkeypatch.setattr(counts, "ENSEMBLE_CHUNK", 3)
        assert run_cli(*argv, "--out", str(tmp_path / "chunked.csv")) == 0
        capsys.readouterr()
        assert ((tmp_path / "chunked.csv").read_bytes()
                == (tmp_path / "default.csv").read_bytes())

    def test_eval_is_ensemble_zero_of_montecarlo(self, tmp_path, monkeypatch, capsys):
        from freqbin import cli
        draw = cli.simulate_chsh_ensembles
        drawn = []

        def recording_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]
        monkeypatch.setattr(cli, "simulate_chsh_ensembles", recording_draw)
        out = tmp_path / "eval.json"
        assert run_cli("chsh", "eval", "--seed", "8", "--out", str(out)) == 0
        assert run_cli("chsh", "montecarlo", "--ensembles", "2", "--seed", "8") == 0
        capsys.readouterr()
        s_values, _ = drawn[0]
        assert s_values[0] == json.loads(out.read_text())["results"]["experiment"]["s"]


class TestPinnedCsvOutputs:
    """The CSV bytes of these commands are pinned; their .run.json floats may move in the last bits."""

    @pytest.mark.parametrize("name, argv", [
        ("chsh_finite_1_6.csv", ("chsh", "finite", "--bins=1..6", "--format", "csv")),
        ("chsh_finite_41_dispersed.csv",
         ("chsh", "finite", "--bins=-20..20", "--crosstalk", "0.0241", "--dispersion-quadratic",
          "1e-3", "--epsilon", "1e-3", "--format", "csv")),
        ("pattern_both.csv", ("pattern", "--a", "0.6955", "--b", "0.6955", "--beta", "0",
                              "--steps", "25", "--pattern-model", "both")),
        # these two pin the synthetic draws of the run's one generator
        ("chsh_eval.csv", ("chsh", "eval", "--format", "csv")),
        ("chsh_montecarlo_20.csv", ("chsh", "montecarlo", "--ensembles", "20", "--format", "csv")),
    ])
    def test_csv_bytes_match_pinned_file(self, tmp_path, capsys, name, argv):
        out = tmp_path / name
        assert run_cli(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestSimulateAnalyze:
    def test_roundtrip_recovers_generating_s(self, tmp_path, capsys):
        sim_dir = tmp_path / "run"
        assert run_cli("simulate", "--out", str(sim_dir), "--seed", "31") == 0
        files = [str(sim_dir / f"hist_{label}.csv")
                 for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
        out = tmp_path / "analysis.json"
        assert run_cli("analyze", *files, "--duration", "1800", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        s_ideal = 2.5664949013225584
        assert abs(payload["results"]["s"] - s_ideal) <= 3.0 * payload["results"]["sigma_s"]
        record = json.loads((sim_dir / "record_A0B0.json").read_text())
        assert set(record) == {"setting_a", "setting_b", "duration_s", "counts", "background"}

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,-4\n")
        code = run_cli("analyze", str(bad), str(bad), str(bad), str(bad))
        captured = capsys.readouterr()
        assert code == 3
        assert "line 3" in captured.err
        bad.write_bytes(b"# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,\xff\n")
        assert run_cli("analyze", str(bad), str(bad), str(bad), str(bad)) == 3
        assert "line 3: not UTF-8" in capsys.readouterr().err

    def test_infinite_bin_width_is_named(self, tmp_path, capsys):
        # 1e400 reads as inf, which once reached the windows as "peak window selects no bins"
        wide = tmp_path / "wide.csv"
        wide.write_text("# coincidence-histogram v1, bin_width_s=1e400\nEE,0,3\n")
        assert run_cli("analyze", *([str(wide)] * 4)) == 3
        assert capsys.readouterr().err.endswith(
            "line 1: bin_width_s must be positive and finite\n")

    def test_background_only_is_data_error(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        lines = ["# coincidence-histogram v1, bin_width_s=5e-10"]
        for pair in ("EE", "EO", "OE", "OO"):
            lines.extend(f"{pair},{i},5" for i in range(-100, 100))
        flat.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", *([str(flat)] * 4))
        captured = capsys.readouterr()
        assert code == 3
        assert "non-positive net denominator" in captured.err

    def test_visibility_mode(self, tmp_path, capsys):
        # a synthetic scan: vary the cross-outcome weight over >= 5 files
        paths = []
        rng = np.random.default_rng(4)
        for k, p_eo in enumerate((0.29, 0.20, 0.08, 0.0, 0.12, 0.25)):
            lines = ["# coincidence-histogram v1, bin_width_s=5e-10"]
            for pair, weight in zip(("EE", "EO", "OE", "OO"),
                                    (0.5 - p_eo, p_eo, p_eo, 0.5 - p_eo)):
                for i in range(-20, 20):
                    level = int(rng.poisson(2)) if i not in (0, 1, 2, 3) \
                        else int(2000 * weight / 4) + int(rng.poisson(2))
                    lines.append(f"{pair},{i},{level}")
            path = tmp_path / f"scan{k}.csv"
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        out = tmp_path / "vis.json"
        assert run_cli("analyze", *paths, "--visibility", "EO",
                       "--background-window", "5e-9", "9.5e-9", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert 0.8 <= payload["results"]["visibility"] <= 1.0

    def test_label_count_mismatch_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "h.csv"
        good.write_text("# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\n")
        assert run_cli("analyze", str(good), "--labels", "A,B") == 2
        capsys.readouterr()

    def test_no_subtract_dilutes_s(self, tmp_path, capsys):
        sim_dir = tmp_path / "run"
        assert run_cli("simulate", "--out", str(sim_dir), "--seed", "77") == 0
        files = [str(sim_dir / f"hist_{label}.csv")
                 for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
        out_net = tmp_path / "net.json"
        out_raw = tmp_path / "raw.json"
        assert run_cli("analyze", *files, "--out", str(out_net)) == 0
        assert run_cli("analyze", *files, "--no-subtract", "--out", str(out_raw)) == 0
        capsys.readouterr()
        s_net = json.loads(out_net.read_text())["results"]["s"]
        s_raw = json.loads(out_raw.read_text())["results"]["s"]
        # accidentals inflate N+ only, pulling every C toward zero
        assert s_raw < s_net

    def test_normalization_flag(self, tmp_path, capsys):
        sim_dir = tmp_path / "run"
        assert run_cli("simulate", "--out", str(sim_dir), "--seed", "78") == 0
        files = [str(sim_dir / f"hist_{label}.csv")
                 for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
        out_plain = tmp_path / "plain.json"
        out_norm = tmp_path / "norm.json"
        assert run_cli("analyze", *files, "--out", str(out_plain)) == 0
        assert run_cli("analyze", *files, "--normalization", "2,2,2,2",
                       "--out", str(out_norm)) == 0
        capsys.readouterr()
        s_plain = json.loads(out_plain.read_text())["results"]["s"]
        s_norm = json.loads(out_norm.read_text())["results"]["s"]
        assert abs(s_plain - s_norm) < 1e-12
        assert run_cli("analyze", *files, "--normalization", "1,2") == 2
        assert run_cli("analyze", *files, "--normalization", "1,1,1,x") == 2
        capsys.readouterr()

    def test_analyze_csv_format(self, tmp_path, capsys):
        sim_dir = tmp_path / "run"
        assert run_cli("simulate", "--out", str(sim_dir), "--seed", "79") == 0
        files = [str(sim_dir / f"hist_{label}.csv")
                 for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
        out = tmp_path / "analysis.csv"
        assert run_cli("analyze", *files, "--format", "csv", "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pair,c"
        assert any(line.startswith("S,") for line in lines)
        sibling = json.loads((tmp_path / "analysis.csv.run.json").read_text())
        assert sibling["command"] == "analyze"


def readme_commands():
    """The freqbin lines of README.md's "Command line" block, continuation lines joined."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("freqbin ")]


class TestReadme:
    def test_command_line_block_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == 8
        for command in commands:
            if "scan*.csv" in command:
                continue  # needs phase-scan histogram files that no other example writes
            assert main(shlex.split(command, comments=True)[1:]) == 0, command
        capsys.readouterr()
        assert (tmp_path / "analysis.json").is_file()


class TestExitCodes:
    def test_unknown_command_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_subcommand(self, capsys):
        assert run_cli("chsh") == 2
        capsys.readouterr()

    def test_bad_bin_range_is_data_error(self, capsys):
        assert run_cli("chsh", "finite", "--bins", "1..x") == 3
        assert "bad bin range" in capsys.readouterr().err

    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        assert run_cli("chsh", "finite", "--config", str(tmp_path / "absent.json")) == 3
        assert "absent.json" in capsys.readouterr().err

    def test_window_past_bin_bound_is_data_error(self, capsys):
        assert run_cli("chsh", "finite", "--bins=-600000,600000") == 3
        assert "exceeds 1000000 bins" in capsys.readouterr().err
        # the dense path's |bin| <= 512 does not bind the finite CHSH engine
        assert run_cli("chsh", "finite", "--bins=-500..500", "--a1", "1.5") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, target", [
        (("chsh", "finite"), "absent/x.json"),
        (("simulate",), "file.txt"),
        (("pattern",), "."),
    ])
    def test_unwritable_out_is_data_error(self, tmp_path, capsys, argv, target):
        (tmp_path / "file.txt").write_text("in the way\n")
        out = tmp_path / target
        assert run_cli(*argv, "--out", str(out)) == 3
        assert f"{out}:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        for argv in (("chsh", "eval"), ("simulate", "--out", str(tmp_path)),
                     ("chsh", "montecarlo", "--ensembles", "2")):
            assert run_cli(*argv, "--seed", "-1") == 3
            assert "seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_ensemble_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert run_cli("chsh", "montecarlo", "--ensembles", "1", "--out", str(out)) == 2
        assert "--ensembles must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_amplitude_bound_is_data_error(self, capsys):
        for bound in ("nan", "inf", "20"):
            assert run_cli("chsh", "optimize", "--general", "--amplitude-bound", bound) == 3
            assert "amplitude_bound" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--restarts", "0"), "restarts must be an integer >= 1"),
        (("--restarts", "-5"), "restarts must be an integer >= 1"),
        (("--restarts", "10001"), "restarts must be at most 10000"),
        (("--amplitude-bound", "0.5"), "amplitude_bound must lie in"),
    ])
    def test_optimize_checks_the_general_search_without_general(self, argv, message,
                                                                monkeypatch, tmp_path, capsys):
        # both values go into the run record, so they are checked before either search runs
        from freqbin import cli

        def no_work(*args, **kwargs):
            raise AssertionError("search started with a bad argument")
        monkeypatch.setattr(cli, "optimize_symmetric", no_work)
        out = tmp_path / "opt.json"
        assert run_cli("chsh", "optimize", *argv, "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--tolerance", "1e308"), ("--tolerance", "0.2"),
                                      ("--interval", "0.2", "0.3", "--tolerance", "0.025")])
    def test_tolerance_past_a_quarter_of_the_interval_is_data_error(self, argv, tmp_path, capsys):
        # once "no interior maximum ... stopped at boundary c = 0.19098300562505255",
        # an interior c: no c can lie 2 * tolerance inside both ends of the interval
        out = tmp_path / "opt.json"
        assert run_cli("chsh", "optimize", *argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "tolerance must be below (hi - lo)/4" in err
        assert "boundary" not in err
        assert not out.exists()

    def test_montecarlo_names_the_first_failing_pair(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert run_cli("chsh", "montecarlo", "--pair-rate", "0", "--accidental-rate", "0",
                       "--out", str(out)) == 3
        assert ("non-positive net denominator N+ for settings ('A0', 'B0')"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_probability_sum_fault_is_data_error(self, monkeypatch, capsys):
        from freqbin import binspace
        build = binspace._bessel_rows
        monkeypatch.setattr(binspace, "_bessel_rows", lambda amplitudes: 0.9 * build(amplitudes))
        assert run_cli("chsh", "finite") == 3
        assert "sums to" in capsys.readouterr().err

    def test_bins_past_int64_are_data_error(self, capsys):
        for bins in ("9223372036854775807..9223372036854775808", "-9223372036854775809,0"):
            assert run_cli("chsh", "finite", f"--bins={bins}") == 3
            assert "int64" in capsys.readouterr().err

    def test_bin_range_wider_than_max_bins_is_data_error(self, capsys):
        assert run_cli("chsh", "finite", "--bins", "1..10000000000") == 3
        assert "at most 1000000 allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bound", [
        (("pattern", "--pattern-model", "both", "--steps"), "MAX_STEPS"),
        (("chsh", "montecarlo", "--ensembles"), "MAX_ENSEMBLES"),
        (("chsh", "optimize", "--general", "--restarts"), "MAX_RESTARTS"),
    ])
    def test_size_past_its_bound_is_data_error(self, argv, bound, monkeypatch, tmp_path, capsys):
        # one past the bound exits 3 before any work: each work function raises if it is reached
        from freqbin import bell, cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started past the bound")
        for module, name in ((cli, "parity_tables"), (cli, "ideal_probabilities"),
                             (cli, "simulate_counts"), (cli, "simulate_chsh_ensembles"),
                             (bell, "_lbfgsb_lockstep")):
            monkeypatch.setattr(module, name, no_work)
        limit = {"MAX_STEPS": cli.MAX_STEPS, "MAX_ENSEMBLES": cli.MAX_ENSEMBLES,
                 "MAX_RESTARTS": bell.MAX_RESTARTS}[bound]
        out = tmp_path / "report"
        assert run_cli(*argv, str(limit + 1), "--out", str(out)) == 3
        assert f"at most {limit}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("chsh", "eval", "--pair-rate", "inf"), ("chsh", "eval", "--pair-rate", "nan"),
        ("chsh", "eval", "--pair-rate", "1e17"), ("chsh", "eval", "--duration", "inf"),
        ("chsh", "eval", "--accidental-rate", "inf"), ("chsh", "montecarlo", "--pair-rate", "1e17"),
        ("simulate", "--pair-rate", "1e300"),
    ])
    def test_huge_or_non_finite_measurement_is_data_error(self, argv, tmp_path, capsys):
        # these once escaped as numpy's "lam value too large" / "lam < 0 or lam is NaN"
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "finite" in err or "expected counts above" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("chsh", "optimize", "--tolerance", "nan"), "tolerance"),
        (("chsh", "optimize", "--tolerance", "inf"), "tolerance"),
        (("chsh", "finite", "--epsilon", "inf"), "epsilon"),
        (("chsh", "finite", "--epsilon", "nan"), "epsilon"),
        (("chsh", "eval", "--center-frequency", "nan"), "center_frequency"),
        (("chsh", "eval", "--rf-frequency", "inf"), "rf_frequency"),
        (("chsh", "finite", "--dispersion-quadratic", "nan"), "dispersion"),
        (("chsh", "eval", "--dispersion-quadratic", "inf"), "dispersion"),
    ])
    def test_non_finite_setting_is_data_error(self, argv, message, tmp_path, capsys):
        # each once gave exit 0 with a wrong answer or a NaN/Infinity run record,
        # or failed later with "p_ee = nan is not a probability"
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coefficient", ["4", "1e308"])
    def test_dispersion_beyond_one_period_is_data_error(self, coefficient, tmp_path):
        # 1e308 once warned from np.modf and then failed on "p_ee = nan is not a probability"
        out = tmp_path / "finite.json"
        result = subprocess.run([sys.executable, "-m", "freqbin.cli", "chsh", "finite",
                                 "--dispersion-quadratic", coefficient, "--out", str(out)],
                                capture_output=True, text=True)
        assert result.returncode == 3
        assert "[-pi, pi]" in result.stderr and "RuntimeWarning" not in result.stderr
        assert not out.exists()

    def test_import_loads_no_scipy_solver(self):
        # scipy.special alone takes ~0.25 s to import, so only a search loads it
        code = ("import sys, freqbin.cli; "
                "print([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_builds_no_parser(self):
        code = "import freqbin.cli; print(freqbin.cli._build_parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        # errors and --version exit through the shared parser; a later run must not see them
        from freqbin import cli
        cli._build_parser.cache_clear()
        assert run_cli("chsh", "optimize", "--restarts", "x") == 2
        assert run_cli("chsh", "optimize", "--amplitude-bound", "20") == 3
        assert run_cli("--version") == 0
        out = tmp_path / "in_process.json"
        assert run_cli("chsh", "optimize", "--general", "--seed", "7", "--out", str(out)) == 0
        assert cli._build_parser.cache_info().misses == 1
        fresh = tmp_path / "fresh.json"
        result = subprocess.run([sys.executable, "-m", "freqbin.cli", "chsh", "optimize",
                                 "--general", "--seed", "7", "--out", str(fresh)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == fresh.read_bytes()

    def test_console_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "freqbin.cli", "--version"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "freqbin" in result.stdout


# --- whole-invocation fuzz ------------------------------------------------------

HOSTILE_NUMBERS = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e17", "1e-300", "-1", "0",
                   "", "abc", "0x10"]
NUMBERS = st.sampled_from(HOSTILE_NUMBERS) | st.floats(-20.0, 20.0).map(repr)
SMALL_INTS = st.integers(-2, 5).map(str) | st.sampled_from(["", "x", "1.5", "nan"])


def one(values):
    return values.map(lambda v: [v])


def two(values):
    return st.tuples(values, values).map(list)


SWITCH = st.just(None)
COMMON = {
    "--config": one(st.sampled_from(["", "<dir>/absent.json", "<in>/record_A0B0.json"])),
    "--seed": one(st.sampled_from(["-1", "0", "7", str(2**64), str(10**30), "", "x", "1.5"])),
    "--format": one(st.sampled_from(["csv", "json", "xml"])),
    "--bins": one(st.sampled_from(["1..6", "-3..3", "1,2,3", "0", "", "1..x", "5..1", "1,,2",
                                   "1e300", "-2..2"])),
    "--max-order": one(st.integers(-2, 1002).map(str) | st.sampled_from(["", "nan", "1e3"])),
    **{flag: one(NUMBERS) for flag in (
        "--rf-frequency", "--center-frequency", "--epsilon", "--crosstalk", "--efficiency",
        "--pair-rate", "--accidental-rate", "--duration", "--dispersion-quadratic")},
}
SETTINGS = {flag: one(NUMBERS) for flag in ("--a0", "--a1", "--b0", "--b1",
                                            "--alpha0", "--alpha1", "--beta0", "--beta1")}
HISTOGRAMS = [f"<in>/hist_{label}.csv" for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
COMMANDS = {
    "pattern": {**COMMON, **{flag: one(NUMBERS) for flag in (
        "--a", "--b", "--beta", "--alpha-start", "--alpha-stop")},
        "--steps": one(SMALL_INTS),
        "--pattern-model": one(st.sampled_from(["ideal", "finite", "both", "x"]))},
    "chsh eval": {**COMMON, **SETTINGS},
    "chsh optimize": {**COMMON, "--interval": two(NUMBERS), "--tolerance": one(NUMBERS),
                      "--general": SWITCH, "--restarts": one(SMALL_INTS),
                      "--amplitude-bound": one(NUMBERS)},
    "chsh finite": {**COMMON, **SETTINGS},
    "chsh montecarlo": {**COMMON, **SETTINGS, "--ensembles": one(SMALL_INTS)},
    "simulate": {**COMMON, **SETTINGS},
    "analyze": {**COMMON, "--peak-window": two(NUMBERS), "--background-window": two(NUMBERS),
                "--labels": one(st.sampled_from(["a,b,c,d", "a,b,c,d,e", "", ",,,"])),
                "--no-subtract": SWITCH,
                "--normalization": one(st.sampled_from(["1,1,1,1", "1,2,1,2", "nan,1,1,1",
                                                        "0,1,1,1", "1e300,1,1,1", "1,2", "a,b,c,d"])),
                "--visibility": one(st.sampled_from(["EO", "OE", "EE"]))},
}
ANALYZE_FILES = st.sampled_from([HISTOGRAMS, HISTOGRAMS + ["<in>/hist_A0B0.csv"],
                                 HISTOGRAMS[:3], ["<in>/bad.csv"] * 4, ["", "<dir>"] * 2])


@st.composite
def invocations(draw):
    """argv from the real subcommands and flags, with hostile values; <dir>/<in> are placeholders."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    if command == "analyze":
        argv += draw(ANALYZE_FILES)
    flags = COMMANDS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        values = draw(flags[flag])
        if values is None:
            argv.append(flag)
        elif len(values) == 1:
            argv.append(f"{flag}={values[0]}")
        else:
            argv += [flag, *values]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Four good histograms, their records, and a malformed histogram."""
    path = tmp_path_factory.mktemp("fuzz_inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--out", str(path)]) == 0
    (path / "bad.csv").write_text("# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,-1\n")
    return path


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv=invocations())
    @example(argv=["chsh", "eval", "--pair-rate=inf"])
    @example(argv=["chsh", "eval", "--pair-rate=nan"])
    @example(argv=["chsh", "eval", "--pair-rate=1e17"])
    @example(argv=["chsh", "eval", "--duration=inf"])
    @example(argv=["chsh", "eval", "--accidental-rate=inf"])
    @example(argv=["simulate", "--pair-rate=1e300"])
    @example(argv=["chsh", "optimize", "--tolerance=nan"])
    @example(argv=["chsh", "finite", "--epsilon=inf"])
    @example(argv=["chsh", "finite", "--center-frequency=nan"])
    @example(argv=["pattern", "--rf-frequency=inf"])
    @example(argv=["chsh", "eval", "--dispersion-quadratic=nan"])
    @example(argv=["chsh", "finite", "--bins=9223372036854775807..9223372036854775808"])
    @example(argv=["pattern", "--pattern-model=finite", "--bins=-9223372036854775809,0"])
    @example(argv=["chsh", "finite", "--bins=1..10000000000"])
    def test_exit_code_and_outputs(self, fuzz_inputs, argv):
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / "out"
            argv = [token.replace("<dir>", work).replace("<in>", str(fuzz_inputs))
                    for token in argv] + ["--out", str(out)]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (0, 2, 3), (argv, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()
            # every JSON output is strict JSON: no NaN or Infinity from an unchecked input
            for path in Path(work).rglob("*"):
                if path.is_file() and path.read_text(encoding="utf-8").startswith("{"):
                    json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
