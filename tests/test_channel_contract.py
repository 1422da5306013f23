"""The per-channel parameter surface: sweepable sets, config keys, report keys.

These sets are the user-facing contract of each channel.  They are pinned
literally here so that a change in how the code derives them cannot add,
drop or rename a parameter unnoticed.
"""

import json

import pytest

from sidephase.cli import main
from sidephase.config import (
    CHANNEL_KINDS,
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
