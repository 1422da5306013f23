"""Inputs at the boundary: non-finite values and out-of-range arguments.

Every rejected input must end in exit 2 with a single `error:` line on
stderr, never in a traceback or in NaN-filled output.
"""

import json
import math

import pytest

from sidephase.cli import _write_json, main
from sidephase.config import CHANNELS, PARAMS
from sidephase.dephasing import ExponentialCorrelation
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
    def test_infinity_becomes_null(self, capsys):
        _write_json(None, {"t": math.inf, "rows": [(1.0, -math.inf)], "ok": True})
        assert json.loads(capsys.readouterr().out) == {
            "t": None,
            "rows": [[1.0, None]],
            "ok": True,
        }

    def test_nan_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(str(tmp_path / "x.json"), {"t": math.nan})


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
