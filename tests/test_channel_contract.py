"""The per-channel parameter surface: sweepable sets, config keys, report keys.

These sets are the user-facing contract of each channel.  They are pinned
literally here so that a change in how the code derives them cannot add,
drop or rename a parameter unnoticed.
"""

import dataclasses
import json

import pytest

from sidephase.cli import main
from sidephase.config import (
    CHANNEL_KINDS,
    CHANNELS,
    SWEEPABLE,
    UsageError,
    read_channel_config,
)

PARAMETERS = {
    "hyperfine": {"a0", "field", "temperature", "tau1"},
    "phonon": {"temperature"},
    "paramagnetic": {"concentration", "field", "temperature", "tau1_imp"},
    "nuclear": {"concentration", "field", "spin_temperature", "t_parallel_imp"},
}

# Names that exist on some channel but must never be a config key.
FIXED_BY_PHYSICS = {
    "gamma_i",
    "gamma_s",
    "gamma_imp",
    "min_distance",
    "material",
    "constants",
}

ALL_NAMES = set().union(*PARAMETERS.values()) | FIXED_BY_PHYSICS | {"ratio"}


def test_channel_kinds_and_order():
    assert CHANNEL_KINDS == ("hyperfine", "phonon", "paramagnetic", "nuclear")


def test_sweepable_sets():
    assert {kind: set(params) for kind, params in SWEEPABLE.items()} == {
        "hyperfine": {"a0", "field", "temperature", "tau1", "ratio"},
        "phonon": {"temperature"},
        "paramagnetic": {"concentration", "field", "temperature", "tau1_imp", "ratio"},
        "nuclear": {"concentration", "field", "spin_temperature", "t_parallel_imp"},
    }


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_channel_fields_are_the_config_keys(kind):
    assert {f.name for f in dataclasses.fields(CHANNELS[kind])} == PARAMETERS[kind]


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_config_accepts_exactly_the_channel_parameters(tmp_path, kind):
    cfg = tmp_path / "ch.ini"
    cfg.write_text(
        f"[{kind}]\n" + "".join(f"{key} = 1.5\n" for key in sorted(PARAMETERS[kind]))
    )
    assert read_channel_config(str(cfg)) == {
        kind: {key: 1.5 for key in PARAMETERS[kind]}
    }
    for key in sorted(ALL_NAMES - PARAMETERS[kind]):
        cfg.write_text(f"[{kind}]\n{key} = 1.5\n")
        with pytest.raises(UsageError, match="unknown key"):
            read_channel_config(str(cfg))


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_report_parameters_keys(capsys, kind):
    assert main(["channel", kind]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["parameters"]) == PARAMETERS[kind]


# The `flags` keys of each `channel` report.
FLAG_KEYS = {
    "hyperfine": {"adiabatic", "infinite_decoherence_time"},
    "phonon": {"infinite_decoherence_time", "insignificant", "low_temperature_valid"},
    "paramagnetic": {"infinite_decoherence_time"},
    "nuclear": {"infinite_decoherence_time", "polarized"},
}


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    return None


def _expected_tree(kind):
    """The full key tree of a `channel` report; None marks a leaf."""
    tree = {
        "channel": None,
        "parameters": dict.fromkeys(PARAMETERS[kind]),
        "flags": dict.fromkeys(FLAG_KEYS[kind]),
    }
    if kind == "phonon":
        tree["rates_per_s"] = {"exact-integral": None, "factorial-approx": None}
        tree["decoherence_time_s"] = None
    else:
        tree["variance_rad2_per_s2"] = None
        tree["correlation_time_s"] = None
        tree["decoherence_time_s"] = dict.fromkeys(
            ("static", "markovian", "unit-gamma")
        )
        tree["selected_convention"] = None
        tree["selected_decoherence_time_s"] = None
    return tree


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_report_key_tree(capsys, kind):
    assert main(["channel", kind]) == 0
    assert _key_tree(json.loads(capsys.readouterr().out)) == _expected_tree(kind)


# Each sweep column after the swept parameter, in CSV order, and the
# `channel` report field that holds the same number.
SWEEP_COLUMNS = {
    "phonon": {
        "rate_exact": ("rates_per_s", "exact-integral"),
        "rate_factorial": ("rates_per_s", "factorial-approx"),
        "td_linear": ("decoherence_time_s",),
        "low_temperature_valid": ("flags", "low_temperature_valid"),
    },
}
for _kind in ("hyperfine", "paramagnetic", "nuclear"):
    SWEEP_COLUMNS[_kind] = {
        "variance": ("variance_rad2_per_s2",),
        "tau_c": ("correlation_time_s",),
        "td_static": ("decoherence_time_s", "static"),
        "td_markovian": ("decoherence_time_s", "markovian"),
        "td_unit_gamma": ("decoherence_time_s", "unit-gamma"),
    }
SWEEP_COLUMNS["nuclear"]["polarization_x"] = None  # not a report field
SWEEP_COLUMNS["nuclear"]["polarized"] = ("flags", "polarized")

# One swept parameter and a two-point grid per kind.
SWEEP_CASES = {
    "hyperfine": ("field", "1.5:3:2:lin"),
    "phonon": ("temperature", "0.5:5:2:lin"),
    "paramagnetic": ("concentration", "1e24:1e25:2:log"),
    "nuclear": ("spin_temperature", "0.001:0.002:2:lin"),
}


def _sweep(tmp_path, kind, fmt):
    param, grid = SWEEP_CASES[kind]
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--channel", kind, "--param", param, "--grid", grid]
    assert main(argv + ["--out", str(out), "--format", fmt]) == 0
    return out.read_text()


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_sweep_columns(tmp_path, kind):
    param = SWEEP_CASES[kind][0]
    header = [param, *SWEEP_COLUMNS[kind]]
    csv_text = _sweep(tmp_path, kind, "csv")
    assert csv_text.splitlines()[0] == ",".join(header)
    rows = json.loads(_sweep(tmp_path, kind, "json"))
    assert len(rows) == 2
    assert all(set(row) == set(header) for row in rows)


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_sweep_row_equals_channel_report(tmp_path, capsys, kind):
    param = SWEEP_CASES[kind][0]
    row = json.loads(_sweep(tmp_path, kind, "json"))[0]
    cfg = tmp_path / "ch.ini"
    cfg.write_text(f"[{kind}]\n{param} = {row[param]!r}\n")
    assert main(["channel", kind, "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parameters"][param] == row[param]
    for column, path in SWEEP_COLUMNS[kind].items():
        if path is None:
            continue
        value = report
        for key in path:
            value = value[key]
        assert row[column] == value, column
        assert type(row[column]) is type(value), column
