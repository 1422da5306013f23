"""Config parsing and the command-line surface, run in-process."""

import json
import math
from pathlib import Path

import pytest

from sidephase.cli import main
from sidephase.config import (
    SweepSpec,
    UsageError,
    build_channel,
    grid_values,
    parse_grid,
    read_channel_config,
)
from sidephase.constants import SILICON
from sidephase.dephasing import decoherence_time
from sidephase.mechanisms import (
    HyperfineElectronChannel,
    channel_to_correlation,
    hyperfine_variance,
)

DATA_DIR = Path(__file__).parent / "data"


class TestConfigParsing:
    def test_valid_file(self, tmp_path):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\nfield = 3.0\ntemperature = 0.05\n")
        parsed = read_channel_config(str(cfg))
        assert parsed == {"hyperfine": {"field": 3.0, "temperature": 0.05}}

    def test_comments_delimiters_case_and_crlf_read_as_the_plain_file(self, tmp_path):
        plain = tmp_path / "plain.ini"
        plain.write_text(
            "[hyperfine]\nfield = 3.0\ntemperature = 0.05\n[phonon]\ntemperature = 2.0\n"
        )
        variant = tmp_path / "variant.ini"
        variant.write_bytes(
            b"# channel parameters\r\n"
            b"\r\n"
            b"[hyperfine]\r\n"
            b"; field in T\r\n"
            b"field: 3.0\r\n"
            b"   # indented comment\r\n"
            b"TEMPERATURE   =   0.05\r\n"
            b"\r\n"
            b"[phonon]\r\n"
            b"temperature=2.0\r\n"
        )
        expected = {
            "hyperfine": {"field": 3.0, "temperature": 0.05},
            "phonon": {"temperature": 2.0},
        }
        assert read_channel_config(str(plain)) == expected
        assert read_channel_config(str(variant)) == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            read_channel_config(str(tmp_path / "absent.ini"))

    def test_unknown_section(self, tmp_path):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[quadrupole]\nfield = 1\n")
        with pytest.raises(UsageError, match="unknown config section"):
            read_channel_config(str(cfg))

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\nfeild = 3.0\n")
        with pytest.raises(UsageError, match="unknown key"):
            read_channel_config(str(cfg))

    def test_non_numeric_value(self, tmp_path):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\nfield = strong\n")
        with pytest.raises(UsageError, match="not a number"):
            read_channel_config(str(cfg))

    def test_build_channel_defaults_and_overrides(self):
        assert build_channel("hyperfine", {}) == HyperfineElectronChannel()
        ch = build_channel("hyperfine", {"field": 3.0})
        assert ch.field == 3.0
        assert ch.temperature == 0.1

    def test_build_channel_rejects_bad_input(self):
        with pytest.raises(UsageError):
            build_channel("spin-orbit", {})
        with pytest.raises(UsageError):
            build_channel("phonon", {"field": 1.0})
        with pytest.raises(UsageError):
            build_channel("hyperfine", {"temperature": -1.0})


class TestSweepSpec:
    def test_parse_grid(self):
        assert parse_grid("1:10:5:lin") == (1.0, 10.0, 5, "lin")
        with pytest.raises(UsageError):
            parse_grid("1:10:5")
        with pytest.raises(UsageError):
            parse_grid("1:ten:5:lin")

    def test_grid_values(self):
        lin = SweepSpec("hyperfine", "field", 1.0, 3.0, 3, "lin")
        assert list(grid_values(lin)) == [1.0, 2.0, 3.0]
        log = SweepSpec("hyperfine", "field", 1.0, 100.0, 3, "log")
        assert list(grid_values(log)) == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(UsageError, match="unknown channel kind: 'bogus'"):
            SweepSpec("bogus", "field", 1.0, 2.0, 3, "lin")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "isotope", 1.0, 2.0, 3, "lin")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "field", 2.0, 1.0, 3, "lin")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "field", 1.0, 2.0, 1, "lin")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "field", 0.0, 2.0, 3, "log")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "field", 1.0, math.inf, 3, "lin")
        with pytest.raises(UsageError):
            SweepSpec("hyperfine", "field", 1.0, 2.0, 3, "quadratic")

    def test_ratio_at_a_fixed_temperature_sets_the_field(self):
        fixed = {"temperature": 0.05, "tau1": 2.0}
        spec = SweepSpec("hyperfine", "ratio", 5.0, 30.0, 6, "lin", fixed)
        assert spec.params_at(20.0) == {"temperature": 0.05, "tau1": 2.0, "field": 20.0 * 0.05}
        assert spec.fixed == {"temperature": 0.05, "tau1": 2.0}

    def test_ratio_without_a_fixed_temperature_reads_the_default(self):
        spec = SweepSpec("hyperfine", "ratio", 5.0, 30.0, 6, "lin")
        temperature = HyperfineElectronChannel().temperature
        assert spec.params_at(20.0) == {"field": 20.0 * temperature}
        assert spec.fixed == {}

    def test_swept_parameter_overrides_a_fixed_one(self):
        fixed = {"field": 3.0, "temperature": 0.05}
        spec = SweepSpec("hyperfine", "field", 1.0, 2.0, 3, "lin", fixed)
        assert spec.params_at(1.5) == {"field": 1.5, "temperature": 0.05}
        assert spec.fixed == {"field": 3.0, "temperature": 0.05}


class TestConstantsCommand:
    def test_stdout_payload(self, capsys):
        assert main(["constants"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["physical_constants"]["hbar"]["value"] == 1.05e-34
        assert payload["spin_species"]["29Si"]["gamma"]["value"] == -53e6
        assert payload["silicon"]["site_density"]["value"] == SILICON.site_density
        assert payload["natural_si29_abundance_percent"] == 4.7

    def test_file_output(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["constants", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["silicon"]["xi"]["value"] == 1.0

    def test_bytes_match_golden_file(self, tmp_path, capsys):
        golden = (DATA_DIR / "constants.json").read_text()
        assert main(["constants"]) == 0
        assert capsys.readouterr().out == golden
        out = tmp_path / "c.json"
        assert main(["constants", "--out", str(out)]) == 0
        assert out.read_text() == golden


class TestChannelCommand:
    def test_report_matches_library_bit_for_bit(self, tmp_path, capsys):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\nfield = 3.0\ntemperature = 0.05\n")
        assert main(["channel", "hyperfine", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        channel = HyperfineElectronChannel(field=3.0, temperature=0.05)
        corr = channel_to_correlation(channel)
        assert report["variance_rad2_per_s2"] == hyperfine_variance(channel)
        assert report["correlation_time_s"] == corr.tau_c
        assert report["decoherence_time_s"]["static"] == decoherence_time(
            corr, "static"
        )
        assert report["selected_convention"] == "static"
        assert report["flags"]["adiabatic"] is True

    def test_phonon_report_flags(self, capsys):
        assert main(["channel", "phonon"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flags"]["insignificant"] is True
        assert report["flags"]["low_temperature_valid"] is True
        assert report["rates_per_s"]["exact-integral"] < 1e-20

    def test_zero_concentration_reports_null_time(self, tmp_path, capsys):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[paramagnetic]\nconcentration = 0\n")
        assert main(["channel", "paramagnetic", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decoherence_time_s"]["static"] is None
        assert report["flags"]["infinite_decoherence_time"] is True

    def test_profile_output(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(
            [
                "channel",
                "hyperfine",
                "--profile-out",
                str(out),
                "--t-max",
                "0.002",
                "--t-points",
                "5",
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "t_seconds,gamma,envelope"
        assert len(lines) == 6
        t, g, e = (float(v) for v in lines[-1].split(","))
        assert t == 0.002
        assert e == pytest.approx(math.exp(-g), rel=1e-15)

    def test_profile_requires_t_max(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        assert main(["channel", "hyperfine", "--profile-out", str(out)]) == 2
        assert "--t-max" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "quadrupole"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\nfeild = 3.0\n")
        assert main(["channel", "hyperfine", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestSweepCommand:
    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--channel",
                "hyperfine",
                "--param",
                "ratio",
                "--grid",
                "5:30:6:lin",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        golden = DATA_DIR / "hyperfine_ratio_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_rows_match_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--channel",
                "hyperfine",
                "--param",
                "ratio",
                "--grid",
                "5:30:6:lin",
                "--out",
                str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio,variance,tau_c,td_static,td_markovian,td_unit_gamma"
        cells = lines[3].split(",")
        ratio = float(cells[0])
        channel = HyperfineElectronChannel(field=ratio * 0.1)
        assert float(cells[1]) == hyperfine_variance(channel)
        assert float(cells[3]) == hyperfine_variance(channel) ** -0.5

    def test_concentration_sweep_is_linear(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--channel",
                "paramagnetic",
                "--param",
                "concentration",
                "--grid",
                "1e24:4e24:4:lin",
                "--out",
                str(out),
            ]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        slopes = {float(r[1]) / float(r[0]) for r in rows}
        assert max(slopes) / min(slopes) - 1.0 < 1e-12

    def test_nuclear_sweep_marks_polarization_crossing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--channel",
                "nuclear",
                "--param",
                "spin_temperature",
                "--grid",
                "0.0007:0.0011:5:lin",
                "--out",
                str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0].endswith("polarization_x,polarized")
        flags = [line.split(",")[-1] for line in lines[1:]]
        # threshold temperature is 0.8065 mK: first two rows polarized
        assert flags == ["1", "1", "0", "0", "0"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(
            [
                "sweep",
                "--channel",
                "phonon",
                "--param",
                "temperature",
                "--grid",
                "0.05:0.3:3:log",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        assert set(payload[0]) == {
            "temperature",
            "rate_exact",
            "rate_factorial",
            "td_linear",
            "low_temperature_valid",
        }
        assert payload[0]["low_temperature_valid"] is True

    def test_unsweepable_param_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--channel",
                "nuclear",
                "--param",
                "ratio",
                "--grid",
                "1:2:3:lin",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "not sweepable" in capsys.readouterr().err


MC_ARGS = [
    "montecarlo",
    "--variance",
    "1.0",
    "--tau-c",
    "inf",
    "--t-max",
    "1.0",
    "--n-steps",
    "40",
    "--n-trajectories",
    "50",
    "--grid-points",
    "10",
]


class TestMonteCarloCommand:
    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(MC_ARGS + ["--seed", "3", "--out", str(a)]) == 0
        assert main(MC_ARGS + ["--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_is_immaterial(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(MC_ARGS + ["--seed", "3", "--out", str(a)])
        main(MC_ARGS + ["--seed", "3", "--workers", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(MC_ARGS + ["--seed", "3", "--out", str(a)])
        main(MC_ARGS + ["--seed", "4", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_flag_overrides_seed_env(self, tmp_path, monkeypatch):
        flagged, enved, explicit = (
            tmp_path / "f.csv",
            tmp_path / "e.csv",
            tmp_path / "x.csv",
        )
        monkeypatch.setenv("SEED", "5")
        main(MC_ARGS + ["--seed", "7", "--out", str(flagged)])
        main(MC_ARGS + ["--out", str(enved)])
        monkeypatch.delenv("SEED")
        main(MC_ARGS + ["--seed", "5", "--out", str(explicit)])
        assert enved.read_bytes() == explicit.read_bytes()
        assert flagged.read_bytes() != enved.read_bytes()

    def test_default_seed_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(MC_ARGS + ["--out", str(a)])
        main(MC_ARGS + ["--seed", "0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_seed_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEED", "not-a-number")
        assert main(MC_ARGS + ["--out", str(tmp_path / "a.csv")]) == 2
        assert "SEED" in capsys.readouterr().err

    def test_coarse_plan_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "montecarlo",
                "--variance",
                "1.0",
                "--tau-c",
                "0.5",
                "--t-max",
                "1.0",
                "--n-steps",
                "10",
                "--out",
                str(tmp_path / "a.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "plan rejected" in err
        assert "n_steps >= 40" in err

    def test_summary_and_csv_shape(self, tmp_path):
        out = tmp_path / "mc.csv"
        summary = tmp_path / "mc.json"
        main(MC_ARGS + ["--seed", "3", "--out", str(out), "--summary-out", str(summary)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_mean,im_mean,std_error,analytic_envelope,z"
        assert len(lines) == 11
        payload = json.loads(summary.read_text())
        assert payload["tau_c"] is None
        assert payload["master_seed"] == 3
        assert payload["n_trajectories"] == 50
        assert payload["max_z"] < 4.0

    def test_mismatched_envelope_is_flagged(self, tmp_path):
        args = [
            "montecarlo",
            "--variance",
            "3000.0",
            "--tau-c",
            "0.001",
            "--t-max",
            "1.0",
            "--n-steps",
            "20000",
            "--n-trajectories",
            "500",
            "--seed",
            "11",
        ]
        matched = tmp_path / "match.json"
        mismatched = tmp_path / "mismatch.json"
        main(args + ["--out", str(tmp_path / "m1.csv"), "--summary-out", str(matched)])
        main(
            args
            + [
                "--mismatch-tau-c",
                "10.0",
                "--out",
                str(tmp_path / "m2.csv"),
                "--summary-out",
                str(mismatched),
            ]
        )
        z_matched = json.loads(matched.read_text())["max_z"]
        z_mismatched = json.loads(mismatched.read_text())["max_z"]
        assert z_matched < 4.0
        assert z_mismatched > 10.0


class TestAuditCommand:
    def test_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "impurity-concentration-bound" in table
        payload = json.loads(out.read_text())
        assert len(payload) == 11
        assert {e["verdict"] for e in payload} == {"match", "typo-suspected", "discrepant"}
        by_id = {e["claim_id"]: e for e in payload}
        assert by_id["polarization-ratio"]["published_value"] == 27.0
