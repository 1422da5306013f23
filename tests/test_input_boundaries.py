"""Inputs at the boundary: non-finite values and out-of-range arguments.

Every rejected input must end in exit 2 with a single `error:` line on
stderr, never in a traceback or in NaN-filled output.
"""

import json
import locale
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from sidephase import cli, constants, mechanisms, montecarlo, qubit, register
from sidephase.cli import _json_text, main
from sidephase.config import CHANNELS, PARAMS
from sidephase.dephasing import (
    ExponentialCorrelation,
    coherence_envelope,
    gamma_exact,
    gamma_static,
)
from sidephase.mechanisms import NuclearImpurityChannel, ParamagneticImpurityChannel
from sidephase.montecarlo import SimulationPlan

NON_FINITE = (math.nan, math.inf, -math.inf)

MC_BASE = {
    "--variance": "1.0",
    "--tau-c": "inf",
    "--t-max": "1.0",
    "--n-steps": "40",
    "--n-trajectories": "50",
    "--grid-points": "10",
}


def _montecarlo_argv(tmp_path, **overrides):
    options = dict(MC_BASE)
    options.update({"--" + k.replace("_", "-"): v for k, v in overrides.items()})
    argv = ["montecarlo"]
    for flag, value in options.items():
        argv += [flag, value]
    return argv + [
        "--out",
        str(tmp_path / "mc.csv"),
        "--summary-out",
        str(tmp_path / "mc.json"),
    ]


def _assert_usage_error(code, capsys):
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert captured.out == ""
    return lines[0]


class TestChannelsRejectNonFinite:
    @pytest.mark.parametrize(
        "kind,param",
        [(kind, param) for kind, params in PARAMS.items() for param in params],
    )
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_every_parameter(self, kind, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            CHANNELS[kind](**{param: value})


class TestCorrelationAndPlan:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_variance_must_be_finite(self, value):
        with pytest.raises(ValueError, match="variance"):
            ExponentialCorrelation(value, 1.0)

    def test_tau_c_accepts_only_positive_infinity(self):
        assert ExponentialCorrelation(1.0, math.inf).is_static
        for value in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="tau_c"):
                ExponentialCorrelation(1.0, value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_t_max_must_be_finite(self, value):
        with pytest.raises(ValueError, match="t_max"):
            SimulationPlan(ExponentialCorrelation(1.0, math.inf), value, 40, 50, 0)


class TestJsonWriter:
    def test_infinity_becomes_null(self):
        text = _json_text({"t": math.inf, "rows": [(1.0, -math.inf)], "ok": True})
        assert json.loads(text) == {
            "t": None,
            "rows": [[1.0, None]],
            "ok": True,
        }

    def test_nan_is_refused(self):
        with pytest.raises(ValueError):
            _json_text({"t": math.nan})


class TestCliExitsTwo:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"variance": "nan"},
            {"variance": "inf"},
            {"t_max": "nan"},
            {"t_max": "inf"},
            {"t_max": "-1"},
            {"grid_points": "200", "n_steps": "100"},
            {"n_trajectories": "1"},
            {"mismatch_tau_c": "-1"},
            {"workers": "0"},
            {"workers": "-3"},
        ],
    )
    def test_montecarlo(self, tmp_path, capsys, overrides):
        code = main(_montecarlo_argv(tmp_path, **overrides))
        _assert_usage_error(code, capsys)
        assert not (tmp_path / "mc.json").exists()

    @pytest.mark.parametrize(
        "kind,t_max", [("nuclear", "nan"), ("hyperfine", "-1"), ("phonon", "inf")]
    )
    def test_channel_profile_t_max(self, tmp_path, capsys, kind, t_max):
        profile = tmp_path / "p.csv"
        argv = ["channel", kind, "--profile-out", str(profile), "--t-max", t_max]
        _assert_usage_error(main(argv), capsys)
        assert not profile.exists()

    @pytest.mark.parametrize("t_points", ["-5", "0", "1"])
    def test_channel_profile_t_points(self, tmp_path, capsys, t_points):
        profile = tmp_path / "p.csv"
        argv = ["channel", "hyperfine", "--profile-out", str(profile)]
        argv += ["--t-max", "1", "--t-points", t_points]
        _assert_usage_error(main(argv), capsys)
        assert not profile.exists()

    @pytest.mark.parametrize(
        "body", ["[hyperfine]\nfield = nan\n", "[hyperfine]\ntau1 = inf\n"]
    )
    def test_non_finite_config_value(self, tmp_path, capsys, body):
        cfg = tmp_path / "ch.ini"
        cfg.write_text(body)
        _assert_usage_error(main(["channel", "hyperfine", "--config", str(cfg)]), capsys)

    def test_plan_rejection_still_exits_3(self, tmp_path, capsys):
        code = main(_montecarlo_argv(tmp_path, tau_c="0.5", n_steps="10"))
        assert code == 3
        assert capsys.readouterr().err.startswith("plan rejected: ")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        code = main(_montecarlo_argv(tmp_path, seed=seed))
        _assert_usage_error(code, capsys)
        assert not (tmp_path / "mc.csv").exists()


class TestWorkersIsCheckedByTheCli:
    """--workers is the CLI's own option; the plan is checked before it."""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_2_leaving_no_file(self, tmp_path, capsys, workers):
        line = _assert_usage_error(main(_montecarlo_argv(tmp_path, workers=workers)), capsys)
        assert line == "error: --workers must be at least 1"
        assert list(tmp_path.iterdir()) == []

    def test_checked_before_the_output_grid(self, tmp_path, capsys):
        argv = _montecarlo_argv(tmp_path, workers="0", grid_points="200", n_steps="100")
        line = _assert_usage_error(main(argv), capsys)
        assert line == "error: --workers must be at least 1"

    def test_a_coarse_plan_is_rejected_first(self, tmp_path, capsys):
        code = main(_montecarlo_argv(tmp_path, workers="0", tau_c="0.5", n_steps="10"))
        assert code == 3
        assert capsys.readouterr().err.startswith("plan rejected: ")
        assert list(tmp_path.iterdir()) == []


class TestMismatchTauCIsCheckedFirst:
    @pytest.mark.parametrize("value", ["-1", "0", "-0", "nan"])
    def test_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, value):
        def never(*args, **kwargs):
            raise AssertionError("the ensemble was sampled")

        monkeypatch.setattr(montecarlo, "ensemble_coherence", never)
        code = main(_montecarlo_argv(tmp_path, mismatch_tau_c=value))
        assert "--mismatch-tau-c" in _assert_usage_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_inf_is_a_static_reference(self, tmp_path, capsys):
        argv = _montecarlo_argv(tmp_path, tau_c="1.0", mismatch_tau_c="inf")
        assert main(argv) == 0
        assert json.loads((tmp_path / "mc.json").read_text())["mismatch_tau_c"] is None


class TestOverflowExitsTwo:
    """Finite inputs too large for float arithmetic: exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "kind,body",
        [("hyperfine", "a0 = 1e200"), ("phonon", "temperature = 1e300")],
    )
    def test_channel(self, tmp_path, capsys, kind, body):
        cfg = tmp_path / "ch.ini"
        cfg.write_text(f"[{kind}]\n{body}\n")
        _assert_usage_error(main(["channel", kind, "--config", str(cfg)]), capsys)

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--channel", "hyperfine", "--param", "a0"]
        argv += ["--grid", "1e100:1e200:3:log", "--out", str(out)]
        _assert_usage_error(main(argv), capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,body",
        [("hyperfine", "a0 = 1e200"), ("phonon", "temperature = 1e300")],
    )
    def test_message_names_the_channel(self, tmp_path, capsys, kind, body):
        cfg = tmp_path / "ch.ini"
        cfg.write_text(f"[{kind}]\n{body}\n")
        assert main(["channel", kind, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {kind} channel: an input is too large for float arithmetic\n"
        )


class TestColdPhonon:
    """Theta/T beyond float range: the Debye tail is 0, not an overflow."""

    def test_channel_reports_no_decoherence(self, tmp_path, capsys):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[phonon]\ntemperature = 1e-300\n")
        assert main(["channel", "phonon", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decoherence_time_s"] is None
        assert report["flags"]["insignificant"] is True

    def test_sweep_writes_infinite_times(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--channel", "phonon", "--param", "temperature"]
        argv += ["--grid", "1e-300:1e-299:2:lin", "--out", str(out)]
        assert main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["inf", "inf"]


# The Markovian times of the finite rows of test_unit_gamma_report.
MARKOVIAN_TIMES = {"tau1 = 1e-300": 8.144e293, "tau1 = 7.5e-315": 1.0859e308}


class TestUnderflowingScales:
    """variance * tau_c^2, or even variance * tau_c, below float range.

    Gamma is formed as (variance tau_c) (tau_c kernel(x)), or
    (variance tau_c) (t - tau_c) once x = t/tau_c overflows, so the
    unit-gamma time is the finite root near the Markovian time, or inf
    where variance * tau_c underflows to 0 or the root is beyond float range.
    """

    @pytest.mark.parametrize(
        "body,finite",
        [
            ("tau1 = 1e-300", True),  # scale 0, variance tau_c 1.2e-294
            ("tau1 = 7.5e-315", True),  # variance tau_c subnormal, root near the largest float
            ("temperature = 0.0037\ntau1 = 1e-20", False),  # variance tau_c subnormal
            ("a0 = 1e-150\ntau1 = 1e-300", False),  # variance tau_c 0
        ],
    )
    def test_unit_gamma_report(self, tmp_path, capsys, body, finite):
        cfg = tmp_path / "ch.ini"
        cfg.write_text(f"[hyperfine]\n{body}\n")
        argv = ["channel", "hyperfine", "--config", str(cfg), "--convention", "unit-gamma"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        time = report["selected_decoherence_time_s"]
        assert report["flags"]["infinite_decoherence_time"] is not finite
        if finite:
            markovian = report["decoherence_time_s"]["markovian"]
            assert markovian == pytest.approx(MARKOVIAN_TIMES[body], rel=1e-3)
            assert time == pytest.approx(markovian, rel=1e-8)
        else:
            assert time is None

    def test_default_report_and_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "ch.ini"
        cfg.write_text("[hyperfine]\na0 = 1e-150\ntau1 = 1e-300\n")
        assert main(["channel", "hyperfine", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decoherence_time_s"]["unit-gamma"] is None
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--channel", "hyperfine", "--param", "tau1", "--config", str(cfg)]
        assert main(argv + ["--grid", "1e-300:1e-20:8:log", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 9

    @pytest.mark.parametrize(
        "kind,key", [("hyperfine", "tau1"), ("paramagnetic", "tau1_imp"), ("nuclear", "t_parallel_imp")]
    )
    def test_tiny_correlation_time(self, tmp_path, capsys, kind, key):
        cfg = tmp_path / "ch.ini"
        cfg.write_text(f"[{kind}]\n{key} = 1e-300\n")
        profile = tmp_path / "p.csv"
        argv = ["channel", kind, "--config", str(cfg), "--convention", "unit-gamma"]
        argv += ["--profile-out", str(profile), "--t-max", "1e-3", "--t-points", "11"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        rate = report["variance_rad2_per_s2"] * 1e-300
        times = report["decoherence_time_s"]
        assert times["markovian"] == pytest.approx(1.0 / rate, rel=1e-12)
        assert times["unit-gamma"] == pytest.approx(1.0 / rate, rel=1e-8)
        rows = [line.split(",") for line in profile.read_text().splitlines()[1:]]
        assert len(rows) == 11
        for t, gamma, _ in rows[1:]:
            assert float(gamma) == pytest.approx(rate * float(t), rel=1e-12)

    @pytest.mark.parametrize(
        "variance,tau_c", [(1.23e6, 1e-300), (1e-300, 1e-5), (1.0, 1e-160), (1e-100, 1e-160)]
    )
    def test_gamma_keeps_its_digits(self, variance, tau_c):
        corr = ExponentialCorrelation(variance, tau_c)
        assert corr.variance * corr.tau_c * corr.tau_c < sys.float_info.min
        with mpmath.workdps(60):
            for t in [tau_c * 1e-3, tau_c * 0.3, tau_c * 7.0, 1e-20, 1.0, 1e300, 1.7e308]:
                x = mpmath.mpf(t) / mpmath.mpf(tau_c)
                exact = mpmath.mpf(variance) * mpmath.mpf(tau_c) ** 2 * (x - 1 + mpmath.exp(-x))
                if sys.float_info.min <= exact < sys.float_info.max:
                    assert gamma_exact(corr, t) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize(
    "kind,body",
    [
        ("hyperfine", "temperature = 1e-320"),
        ("paramagnetic", "temperature = 1e-320"),
        ("nuclear", "spin_temperature = 1e-320"),
        ("phonon", "temperature = 5e-324"),
    ],
)
def test_temperature_whose_kt_underflows(tmp_path, capsys, kind, body):
    """k T or T/Theta underflows to 0: fully polarized or frozen out, not a traceback."""
    cfg = tmp_path / "ch.ini"
    cfg.write_text(f"[{kind}]\n{body}\n")
    assert main(["channel", kind, "--config", str(cfg), "--convention", "unit-gamma"]) == 0
    report = json.loads(capsys.readouterr().out)
    key = "decoherence_time_s" if kind == "phonon" else "selected_decoherence_time_s"
    assert report[key] is None


def test_montecarlo_with_overflowing_sigma_tau_c(tmp_path):
    """sigma tau_c = inf: the phase noise is 0, not inf * 0 = NaN; close to static noise."""
    out = tmp_path / "mc.csv"
    argv = ["montecarlo", "--variance", "100", "--tau-c", "2.2e307", "--t-max", "0.001"]
    argv += ["--n-steps", "1", "--n-trajectories", "10", "--grid-points", "1", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    static = tmp_path / "static.csv"
    argv[argv.index("2.2e307")] = "inf"
    assert main(argv + ["--out", str(static)]) == 0
    row = [float(cell) for cell in out.read_text().splitlines()[1].split(",")]
    static_row = [float(cell) for cell in static.read_text().splitlines()[1].split(",")]
    assert row == pytest.approx(static_row, rel=1e-9)


def test_phonon_profile_runs_one_quadrature(tmp_path, monkeypatch):
    calls = []
    integral = mechanisms.debye_integral
    monkeypatch.setattr(
        mechanisms, "debye_integral", lambda u: calls.append(u) or integral(u)
    )
    argv = ["channel", "phonon", "--t-max", "1", "--profile-out"]
    assert main(argv + [str(tmp_path / "p.csv")]) == 0
    assert len(calls) == 1


def test_dilute_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        ParamagneticImpurityChannel(concentration=1e300)
    assert len(record) == 1
    assert record[0].filename == __file__


class TestHugeHorizons:
    """Horizons no run can resolve: a clean exit, never inf cells or advice
    that no n_steps could follow."""

    @pytest.mark.parametrize("out", [None, "report.json"])
    def test_non_finite_profile_exits_2_before_writing(self, tmp_path, capsys, out):
        profile = tmp_path / "p.csv"
        argv = ["channel", "hyperfine", "--profile-out", str(profile)]
        argv += ["--t-max", "1e300", "--t-points", "3"]
        if out:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: hyperfine channel: Gamma(t) is not finite")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not profile.exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "tau_c,t_max,count",
        [("inf", "1e200", "2.00e+201"), ("1e-300", "1e300", "2.00e+601")],
    )
    def test_unreachable_plan_exits_3(self, tmp_path, capsys, tau_c, t_max, count):
        code = main(_montecarlo_argv(tmp_path, tau_c=tau_c, t_max=t_max, n_steps="10"))
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("plan rejected: ")
        assert err.endswith(f"; needs ~{count} steps; shorten t_max\n")
        assert not (tmp_path / "mc.csv").exists()

    def test_required_n_steps_is_an_int_while_finite(self):
        with pytest.raises(montecarlo.PlanRejectedError) as err:
            SimulationPlan(ExponentialCorrelation(1.0, math.inf), 1e200, 10, 1, 0)
        assert type(err.value.required_n_steps) is int
        assert err.value.required_n_steps == math.ceil(1e200 / 0.05)
        with pytest.raises(montecarlo.PlanRejectedError) as err:
            SimulationPlan(ExponentialCorrelation(1.0, 1e-300), 1e300, 10, 1, 0)
        assert err.value.required_n_steps == math.inf

    def test_advice_switches_above_2_to_the_53(self):
        corr = ExponentialCorrelation(0.0, 20.0)  # dt must not exceed 1 s
        with pytest.raises(montecarlo.PlanRejectedError) as err:
            SimulationPlan(corr, 2.0 ** 53, 1, 1, 0)
        assert str(err.value).endswith(f"use n_steps >= {2 ** 53}")
        with pytest.raises(montecarlo.PlanRejectedError) as err:
            SimulationPlan(corr, 2.0 ** 54, 1, 1, 0)
        assert str(err.value).endswith("needs ~1.80e+16 steps; shorten t_max")

    def test_n_steps_above_2_to_the_53_exits_2(self, tmp_path, capsys):
        code = main(_montecarlo_argv(tmp_path, n_steps=str(2 ** 53 + 1)))
        _assert_usage_error(code, capsys)


def test_nuclear_dilute_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        NuclearImpurityChannel(concentration=1e300)
    assert len(record) == 1
    assert "dilute expansion" in str(record[0].message)
    assert record[0].filename == __file__


def test_unallocatable_ensemble_exits_2_without_csv(tmp_path, capsys):
    # 1e15 x 10 complex cells: numpy refuses the allocation at once
    code = main(_montecarlo_argv(tmp_path, n_trajectories=str(10 ** 15)))
    _assert_usage_error(code, capsys)
    assert not (tmp_path / "mc.csv").exists()
    assert not (tmp_path / "mc.json").exists()


# Each case: the file's text, and the start of the error line after
# "error: ", which names the file and the faulty line where there is one.
MALFORMED_CONFIGS = {
    "no_section_header": ("a0 = 1e8\n", "malformed config file {config}: line 1: "),
    "duplicate_option": (
        "[hyperfine]\nfield = 1.0\nfield = 2.0\n", "malformed config file {config}: line 3: "
    ),
    "duplicate_option_case": (
        "[hyperfine]\nfield = 1.0\nFIELD = 2.0\n", "malformed config file {config}: line 3: "
    ),
    "duplicate_section": (
        "[hyperfine]\nfield = 1.0\n[hyperfine]\ntemperature = 2.0\n",
        "malformed config file {config}: line 3: ",
    ),
    "unparsable_line": (
        "[hyperfine]\nfield = 1.0\nnot a key value line\n",
        "malformed config file {config}: line 3: ",
    ),
    "empty_key": ("[hyperfine]\n= 1.0\n", "malformed config file {config}: line 2: "),
    "text_after_header": (
        "[hyperfine] x\nfield = 1.0\n", "malformed config file {config}: line 1: "
    ),
    "default_section": (
        "[DEFAULT]\nfield = 3.0\n[hyperfine]\ntemperature = 0.2\n",
        "unknown config section: [DEFAULT]",
    ),
    "default_only": ("[DEFAULT]\nfield = 3.0\n", "unknown config section: [DEFAULT]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
@pytest.mark.parametrize(
    "command",
    [
        ["channel", "hyperfine"],
        ["sweep", "--channel", "hyperfine", "--param", "field", "--grid", "1:2:3:lin"],
    ],
    ids=["channel", "sweep"],
)
def test_malformed_config_exits_2(tmp_path, capsys, case, command):
    config = tmp_path / f"{case}.ini"
    text, message = MALFORMED_CONFIGS[case]
    config.write_text(text)
    argv = command + ["--config", str(config)]
    if command[0] == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    line = _assert_usage_error(main(argv), capsys)
    assert line.startswith("error: " + message.format(config=config))
    assert not (tmp_path / "sweep.csv").exists()


def _unwritable_argv(tmp_path, option, target):
    base = {
        "constants": ["constants"],
        "channel": ["channel", "hyperfine", "--t-max", "1e-3"],
        "sweep": ["sweep", "--channel", "hyperfine", "--param", "field",
                  "--grid", "1:2:3:lin", "--out", str(tmp_path / "sweep.csv")],
        "montecarlo": _montecarlo_argv(tmp_path),
        "audit": ["audit"],
    }[option[0]]
    return base + [option[1], target]


@pytest.mark.parametrize(
    "option",
    [
        ("constants", "--out"),
        ("channel", "--out"),
        ("channel", "--profile-out"),
        ("sweep", "--out"),
        ("montecarlo", "--out"),
        ("montecarlo", "--summary-out"),
        ("audit", "--out"),
    ],
    ids=lambda option: " ".join(option),
)
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_2(tmp_path, capsys, option, where):
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    else:
        target = tmp_path / "absent" / "out.json"
    # A later option of the same name wins, so the target replaces any
    # default output path given by the base command.
    code = main(_unwritable_argv(tmp_path, option, str(target)))
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert str(target) in lines[0]
    # audit prints its table, and channel without --out its report, to
    # stdout before the file is opened.
    if option not in (("audit", "--out"), ("channel", "--profile-out")):
        assert captured.out == ""


MC_COMMAND = ["montecarlo"] + [item for pair in MC_BASE.items() for item in pair]

CONFIG_COMMANDS = [
    ["channel", "hyperfine"],
    ["sweep", "--channel", "hyperfine", "--param", "field", "--grid", "1:2:3:lin"],
]


def _decodes(data, encoding):
    try:
        data.decode(encoding)
    except UnicodeDecodeError:
        return False
    return True


def _config_path(tmp_path, case):
    if case == "empty":
        return ""
    if case == "missing":
        return tmp_path / "absent.ini"
    if case == "directory":
        path = tmp_path / "conf.d"
        path.mkdir()
        return path
    path = tmp_path / "binary.ini"
    path.write_bytes(b"[hyperfine]\nfield = 1.0\xff\n")
    return path


@pytest.mark.parametrize(
    "case,message",
    [
        ("missing", "config file not found: "),
        ("empty", "config file not found: ''"),
        ("directory", "config file is a directory: "),
        ("undecodable", "config file is not "),
    ],
    ids=["missing", "empty", "directory", "undecodable"],
)
@pytest.mark.parametrize("command", CONFIG_COMMANDS, ids=["channel", "sweep"])
def test_unreadable_config_names_the_file(tmp_path, capsys, case, message, command):
    if case == "undecodable" and _decodes(b"\xff", locale.getpreferredencoding(False)):
        pytest.skip("the locale encoding decodes every byte")
    config = _config_path(tmp_path, case)
    argv = command + ["--config", str(config), "--out", str(tmp_path / "out")]
    line = _assert_usage_error(main(argv), capsys)
    assert line.startswith("error: " + message)
    assert str(config) in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,good,bad",
    [
        (["channel", "hyperfine", "--t-max", "1e-3"], "--out", "--profile-out"),
        (["channel", "hyperfine", "--t-max", "1e-3"], None, "--profile-out"),
        (["channel", "hyperfine", "--t-max", "1e-3"], "--profile-out", "--out"),
        (MC_COMMAND, "--out", "--summary-out"),
        (MC_COMMAND, "--summary-out", "--out"),
        (["audit"], None, "--out"),
    ],
    ids=[
        "channel-profile-out",
        "channel-stdout-profile-out",
        "channel-out",
        "montecarlo-summary-out",
        "montecarlo-out",
        "audit-out",
    ],
)
@pytest.mark.parametrize("where", ["directory", "missing_parent", "parent_file"])
def test_unwritable_output_writes_nothing(tmp_path, capsys, command, good, bad, where):
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    if where == "directory":
        target = outputs / "taken"
        target.mkdir()
    elif where == "parent_file":
        (outputs / "taken").write_text("")
        target = outputs / "taken" / "out"
    else:
        target = outputs / "absent" / "out"
    argv = command + [bad, str(target)]
    if good:
        argv += [good, str(outputs / "good")]
    line = _assert_usage_error(main(argv), capsys)
    assert line.startswith(f"error: {bad} {target}")
    if where == "parent_file":
        assert line == f"error: {bad} {target}: no such directory {target.parent}"
    assert sorted(p.name for p in outputs.iterdir()) == (
        [] if where == "missing_parent" else ["taken"]
    )


@pytest.mark.parametrize(
    "where,message",
    [("directory", " is a directory"), ("missing_parent", ": no such directory ")],
)
def test_sweep_checks_out_before_computing(tmp_path, capsys, monkeypatch, where, message):
    def refuse(kind, params):
        raise AssertionError("sweep built a channel before checking --out")

    monkeypatch.setattr(cli, "build_channel", refuse)
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    else:
        target = tmp_path / "absent" / "x.csv"
    argv = ["sweep", "--channel", "phonon", "--param", "temperature",
            "--grid", "0.05:10:48:log", "--out", str(target)]
    line = _assert_usage_error(main(argv), capsys)
    assert line.startswith(f"error: --out {target}{message}")


# NaN passes every `x < 0` and `x <= 0` check; each of these once returned
# NaN or built a NaN-holding record instead of raising.
NAN_ARGUMENTS = {
    "PhysicalConstants(hbar=nan)": lambda: constants.PhysicalConstants(hbar=math.nan),
    "PhysicalConstants(k_boltzmann=inf)": lambda: constants.PhysicalConstants(
        k_boltzmann=math.inf
    ),
    "MaterialParams(nan, ..., inf)": lambda: constants.MaterialParams(
        math.nan, 5.4e-10, math.inf, 0.46e-25, 725e6, 5.0e28
    ),
    "MaterialParams(xi=nan)": lambda: constants.MaterialParams(
        625.0, 5.4e-10, 5e3, 0.46e-25, 725e6, 5.0e28, xi=math.nan
    ),
    "SpinSpecies(gamma=nan)": lambda: constants.SpinSpecies("x", math.nan),
    "SpinSpecies(gamma=-inf)": lambda: constants.SpinSpecies("x", -math.inf),
    "boltzmann_ratio(field=nan)": lambda: constants.boltzmann_ratio(176e9, math.nan, 1.0),
    "boltzmann_ratio(temperature=nan)": lambda: constants.boltzmann_ratio(
        176e9, 1.0, math.nan
    ),
    "spin_half_variance(nan)": lambda: constants.spin_half_variance(math.nan),
    "max_paramagnetic_concentration(nan, 20)": lambda: mechanisms.max_paramagnetic_concentration(
        math.nan, 20.0
    ),
    "max_nuclear_impurity_concentration(nan, 2, 8e-4)": (
        lambda: mechanisms.max_nuclear_impurity_concentration(math.nan, 2.0, 8e-4)
    ),
    "apply_dephasing(gamma=nan)": lambda: qubit.apply_dephasing(
        qubit.BlochState(1.0, 0.0, 0.0), math.nan
    ),
    "dephased_eigenvalues(gamma=nan)": lambda: qubit.dephased_eigenvalues(
        qubit.BlochState(1.0, 0.0, 0.0), math.nan
    ),
    "BlochState(nan, 0, 0)": lambda: qubit.BlochState(math.nan, 0.0, 0.0),
    "DensityMatrix(nan diagonal)": lambda: qubit.DensityMatrix(
        complex(math.nan), 0j, 0j, complex(math.nan)
    ),
    "DensityMatrix(nan coherence)": lambda: qubit.DensityMatrix(
        0.5 + 0j, complex(math.nan), complex(math.nan), 0.5 + 0j
    ),
    "ErrorSampler(sigma nan)": lambda: register.ErrorSampler((math.nan, 0.02, 0.02), 1),
    "ErrorSampler(sigma inf)": lambda: register.ErrorSampler((math.inf, 0.02, 0.02), 1),
}


@pytest.mark.parametrize("case", list(NAN_ARGUMENTS))
def test_nan_and_inf_arguments_are_refused(case):
    with pytest.raises(ValueError):
        NAN_ARGUMENTS[case]()


_CORRELATION = ExponentialCorrelation(1.0, 1.0)
_NAN_TIMES = np.array([0.1, math.nan])

# Each of these once returned NaN or inf, or was refused by a later check
# whose message named something else; the message must name the input.
NAMED_REFUSALS = {
    "boltzmann_ratio(gamma=nan)": (
        lambda: constants.boltzmann_ratio(math.nan, 2.0, 0.1), "gamma must be finite"
    ),
    "boltzmann_ratio(gamma=inf)": (
        lambda: constants.boltzmann_ratio(math.inf, 2.0, 0.1), "gamma must be finite"
    ),
    "density_from_bloch(phase=nan)": (
        lambda: qubit.density_from_bloch(qubit.BlochState(1.0, 0.0, 0.0), math.nan),
        "phase must be finite",
    ),
    "density_from_bloch(phase=-inf)": (
        lambda: qubit.density_from_bloch(qubit.BlochState(1.0, 0.0, 0.0), -math.inf),
        "phase must be finite",
    ),
    "gamma_exact(t=nan)": (lambda: gamma_exact(_CORRELATION, math.nan), "t must be nonnegative"),
    "gamma_static(t=nan)": (lambda: gamma_static(_CORRELATION, math.nan), "t must be nonnegative"),
    "coherence_envelope(t=nan)": (
        lambda: coherence_envelope(_CORRELATION, math.nan), "t must be nonnegative"
    ),
    "gamma_exact(t=[0.1, nan])": (
        lambda: gamma_exact(_CORRELATION, _NAN_TIMES), "t must be nonnegative"
    ),
    "coherence_envelope(t=[0.1, nan])": (
        lambda: coherence_envelope(_CORRELATION, _NAN_TIMES), "t must be nonnegative"
    ),
    "required_field_temperature_ratio(nan, 1)": (
        lambda: mechanisms.required_field_temperature_ratio(math.nan, 1.0),
        "a0 and target_dephasing_time must be positive",
    ),
    "required_field_temperature_ratio(inf, 1)": (
        lambda: mechanisms.required_field_temperature_ratio(math.inf, 1.0),
        "a0 must be finite",
    ),
    "required_field_temperature_ratio(725e6, nan)": (
        lambda: mechanisms.required_field_temperature_ratio(725e6, math.nan),
        "a0 and target_dephasing_time must be positive",
    ),
    "max_paramagnetic_concentration(1, inf)": (
        lambda: mechanisms.max_paramagnetic_concentration(1.0, math.inf),
        "field_temperature_ratio must be finite and nonnegative",
    ),
}


@pytest.mark.parametrize("case", list(NAMED_REFUSALS))
def test_non_finite_arguments_are_refused_by_name(case):
    call, message = NAMED_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_an_out_of_range_channel_field_is_named_alone():
    nonnegative = {"field", "concentration"}
    for kind, params in PARAMS.items():
        for param in params:
            bound = "nonnegative" if param in nonnegative else "positive"
            values = (-1.0, -1e-300) if param in nonnegative else (-1.0, -1e-300, 0.0)
            for value in values:
                with pytest.raises(ValueError) as info:
                    CHANNELS[kind](**{param: value})
                assert str(info.value) == f"{param} must be {bound}", (kind, param, value)


def test_out_of_range_config_value_exits_2_naming_the_field(tmp_path, capsys):
    cfg = tmp_path / "ch.ini"
    cfg.write_text("[hyperfine]\na0 = -1\n")
    line = _assert_usage_error(main(["channel", "hyperfine", "--config", str(cfg)]), capsys)
    assert line == "error: invalid hyperfine parameters: a0 must be positive"


class TestStepUnderflow:
    """A step limit or a step that underflows to 0 s ends in a message."""

    @pytest.mark.parametrize("tau_c", [5e-324, 4.94e-323])
    def test_an_underflowing_limit_is_rejected_with_no_count(self, tau_c):
        assert tau_c / 20.0 == 0.0
        with pytest.raises(montecarlo.PlanRejectedError) as err:
            SimulationPlan(ExponentialCorrelation(1.0, tau_c), 1e-320, 100, 4, 0)
        assert err.value.required_n_steps == math.inf
        assert "tau_c/20 underflows to 0 s" in str(err.value)

    def test_an_underflowing_step_is_refused(self):
        with pytest.raises(ValueError) as err:
            SimulationPlan(ExponentialCorrelation(1.0, 1.0), 1e-320, 2 ** 53, 1, 0)
        assert not isinstance(err.value, montecarlo.PlanRejectedError)
        assert "t_max" in str(err.value) and "n_steps" in str(err.value)

    def test_underflowing_limit_exits_3_leaving_no_file(self, tmp_path, capsys):
        argv = _montecarlo_argv(
            tmp_path, tau_c="5e-324", t_max="1e-320", n_steps="100",
            n_trajectories="4", grid_points="2",
        )
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("plan rejected: ")
        assert list(tmp_path.iterdir()) == []

    def test_underflowing_step_exits_2_leaving_no_file(self, tmp_path, capsys):
        argv = _montecarlo_argv(
            tmp_path, tau_c="1", t_max="1e-320", n_steps=str(2 ** 53), grid_points="3"
        )
        line = _assert_usage_error(main(argv), capsys)
        assert "t_max" in line and "n_steps" in line
        assert list(tmp_path.iterdir()) == []
