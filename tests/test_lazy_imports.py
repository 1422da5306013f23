"""scipy and numpy stay off the import path of the package and the CLI.

Importing scipy.integrate and scipy.signal costs far more than a short
`channel` run, and numpy about half of one, so they are imported where they
are used.  These tests run a fresh interpreter, since this one has scipy and
numpy loaded by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidephase
from sidephase.cli import main
from sidephase.dephasing import ExponentialCorrelation
from sidephase.mechanisms import debye_integral
from sidephase.montecarlo import SimulationPlan, generate_trajectory

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sidephase.__file__)))

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

TRAJECTORY = (
    "generate_trajectory(SimulationPlan(ExponentialCorrelation(3000.0, 1e-3),"
    " 0.01, 200, 4, 7), 2).tolist()"
)


def _fresh(code: str) -> list[str]:
    """Run code in a new interpreter; return its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_ensemble_starts_no_thread():
    # No pool is imported and no thread is left behind.
    lines = _fresh(
        "import sys, threading\n"
        "from sidephase.dephasing import ExponentialCorrelation\n"
        "from sidephase.montecarlo import SimulationPlan, ensemble_coherence\n"
        "plan = SimulationPlan(ExponentialCorrelation(3000.0, 1e-3), 0.01, 200, 600, 7)\n"
        "ensemble_coherence(plan, n_grid=4)\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    assert lines == ["False 1"]


def test_package_and_cli_load_no_scipy():
    lines = _fresh(
        "import sys\n"
        "import sidephase\n"
        f"print({SCIPY_LOADED})\n"
        "import sidephase.cli\n"
        "try:\n"
        "    sidephase.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print({SCIPY_LOADED})\n"
    )
    # The first line is printed before the help text, the last after it.
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_lazy_imports_give_the_in_process_values():
    lines = _fresh(
        "import sys\n"
        "from sidephase.dephasing import ExponentialCorrelation\n"
        "from sidephase.mechanisms import debye_integral\n"
        "from sidephase.montecarlo import SimulationPlan, generate_trajectory\n"
        "print(repr(debye_integral(6250.0)))\n"
        "print(repr(debye_integral(30.0)))\n"
        f"print(repr({TRAJECTORY}))\n"
        "print('scipy.integrate' in sys.modules, 'scipy.signal' in sys.modules)\n"
    )
    trajectory = eval(TRAJECTORY)
    assert lines == [
        repr(debye_integral(6250.0)), repr(debye_integral(30.0)), repr(trajectory), "True True"
    ]


# `channel phonon` at 20 K (Theta/T = 31.25, below the Debye integral's
# saturation argument 60), as the quadrature path has always printed it.
PHONON_20K_REPORT = """{
  "channel": "phonon",
  "decoherence_time_s": 3470376.5974617037,
  "flags": {
    "infinite_decoherence_time": false,
    "insignificant": false,
    "low_temperature_valid": false
  },
  "parameters": {
    "temperature": 20.0
  },
  "rates_per_s": {
    "exact-integral": 2.8815316491340395e-07,
    "factorial-approx": 2.8324091226812247e-07
  }
}
"""


def test_phonon_quadrature_loads_scipy_only_below_the_saturation(tmp_path):
    # The benchmark's phonon sweeps reach at most 10 K (Theta/T = 62.5).
    config = tmp_path / "phonon.ini"
    config.write_text("[phonon]\ntemperature = 20.0\n")
    sweeps = [
        ["sweep", "--channel", "phonon", "--param", "temperature",
         "--grid", f"0.05:10:48:{scale}", "--out", str(tmp_path / f"{scale}.csv")]
        for scale in ("lin", "log")
    ]
    lines = _fresh(
        "import contextlib, io, sys\n"
        "import sidephase.cli\n"
        f"for argv in {sweeps!r}:\n"
        "    code = sidephase.cli.main(argv)\n"
        f"    print(code, {SCIPY_LOADED})\n"
        "report = io.StringIO()\n"
        "with contextlib.redirect_stdout(report):\n"
        f"    code = sidephase.cli.main(['channel', 'phonon', '--config', {str(config)!r}])\n"
        "print(code, 'scipy.integrate' in sys.modules)\n"
        "print(repr(report.getvalue()))\n"
    )
    assert lines == ["0 []", "0 []", "0 True", repr(PHONON_20K_REPORT)]


# What a closed-form report must not load.  configparser is in the list
# because the config reader is a single pass of its own.
HEAVY = ("numpy", "scipy", "sidephase.montecarlo", "sidephase.register", "configparser")
HEAVY_LOADED = f"sorted(m for m in sys.modules if m in {HEAVY!r} or m.split('.')[0] in {HEAVY!r})"

NUMPY_FREE_COMMANDS = [["constants"], ["audit"]] + [
    ["channel", kind, "--convention", convention]
    for kind in ("hyperfine", "paramagnetic", "nuclear")
    for convention in ("static", "markovian", "unit-gamma")
] + [["channel", "phonon"]]

# The names the package exported when it imported every module eagerly,
# by defining module.
EXPORTS = {
    "audit": ("AuditEntry", "build_audit", "render_table"),
    "constants": (
        "CONSTANTS", "ELECTRON", "MaterialParams", "NATURAL_SI29_ABUNDANCE_PERCENT",
        "PHOSPHORUS_31", "PhysicalConstants", "SILICON", "SILICON_29", "SPECIES",
        "SpinSpecies", "boltzmann_ratio", "spin_half_variance",
        "spin_half_variance_full_arg",
    ),
    "dephasing": (
        "DecoherenceProfile", "ExponentialCorrelation", "build_profile",
        "coherence_envelope", "decoherence_time", "gamma_exact", "gamma_static",
    ),
    "mechanisms": (
        "ConcentrationBound", "HyperfineElectronChannel", "NuclearImpurityChannel",
        "ParamagneticImpurityChannel", "PhononRamanChannel",
        "ThresholdUnattainableError", "UnsupportedChannelError",
        "channel_to_correlation", "debye_integral", "hyperfine_variance",
        "max_nuclear_impurity_concentration", "max_paramagnetic_concentration",
        "nuclear_impurity_variance", "paramagnetic_variance", "phonon_rate",
        "required_field_temperature_ratio",
    ),
    "montecarlo": (
        "CoherenceComparison", "DegenerateStatisticsError", "EnsembleCoherence",
        "PlanRejectedError", "SimulationPlan", "accumulate_phase",
        "compare_to_analytic", "ensemble_coherence", "generate_trajectory",
    ),
    "qubit": (
        "BlochState", "DensityMatrix", "apply_dephasing", "density_from_bloch",
        "dephased_eigenvalues", "fidelity", "limiting_populations",
    ),
    "register": (
        "EnsembleErrorReport", "ErrorSampler", "ensemble_average_state",
        "error_phase", "error_probability", "error_unitary", "ground_fidelity",
        "perturbed_ground_state",
    ),
}


def test_cli_and_numpy_free_commands_load_no_numpy(tmp_path):
    config = tmp_path / "hyperfine.ini"
    config.write_text("[hyperfine]\nfield = 3.0\n")
    commands = NUMPY_FREE_COMMANDS + [["channel", "hyperfine", "--config", str(config)]]
    lines = _fresh(
        "import contextlib, io, sys\n"
        "import sidephase.cli\n"
        f"print({HEAVY_LOADED})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        sidephase.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        f"print({HEAVY_LOADED})\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = sidephase.cli.main(argv)\n"
        f"    print(code, {HEAVY_LOADED})\n"
    )
    assert lines == ["[]", "[]"] + ["0 []"] * len(commands)


def test_every_exported_name_resolves_to_its_module():
    lines = _fresh(
        "import importlib, sys\n"
        "import sidephase\n"
        f"print({HEAVY_LOADED})\n"
        f"exports = {EXPORTS!r}\n"
        "for module, names in exports.items():\n"
        "    print(module, getattr(sidephase, module) is sys.modules['sidephase.' + module])\n"
        "    for name in names:\n"
        "        value = getattr(sidephase, name)\n"
        "        print(name, value is getattr(sys.modules['sidephase.' + module], name))\n"
        "print(sidephase.__version__)\n"
    )
    expected = ["[]"]
    for module, names in EXPORTS.items():
        expected.append(f"{module} True")
        expected += [f"{name} True" for name in names]
    assert lines == expected + [sidephase.__version__]


# The modules the package imports eagerly, whose __all__ it exports.
EAGER = ("constants", "qubit", "dephasing", "mechanisms", "audit")


def test_package_exports_each_eager_module_all():
    lines = _fresh(
        "import sys\n"
        "import sidephase\n"
        f"for module in {EAGER!r}:\n"
        "    source = sys.modules['sidephase.' + module]\n"
        "    for name in source.__all__:\n"
        "        print(module, name, getattr(sidephase, name, None) is getattr(source, name))\n"
        f"print({HEAVY_LOADED})\n"
    )
    expected = [
        f"{module} {name} True"
        for module in EAGER
        for name in getattr(sidephase, module).__all__
    ]
    assert lines == expected + ["[]"]


def test_unknown_package_attribute_is_an_attribute_error():
    assert not hasattr(sidephase, "no_such_name")


def _numpy_command_argv(tmp_path):
    """(label, argv) of each numpy-using command, files under tmp_path."""
    config = tmp_path / "channels.ini"
    cases = []
    for scale in ("lin", "log"):
        for fmt in ("csv", "json"):
            cases.append((f"sweep-{scale}-{fmt}", [
                "sweep", "--channel", "nuclear", "--param", "t_parallel_imp",
                "--grid", f"1:1e5:4:{scale}", "--config", str(config),
                "--out", str(tmp_path / f"sweep.{fmt}"), "--format", fmt,
            ]))
    for kind in ("hyperfine", "phonon", "paramagnetic", "nuclear"):
        cases.append((f"profile-{kind}", [
            "channel", kind, "--config", str(config), "--t-max", "4e-3",
            "--t-points", "101", "--profile-out", str(tmp_path / "profile.csv"),
        ]))
    mc = [
        "montecarlo", "--variance", "3000", "--tau-c", "1e-3", "--t-max", "0.01",
        "--n-trajectories", "200", "--grid-points", "8", "--seed", "11",
        "--out", str(tmp_path / "mc.csv"), "--summary-out", str(tmp_path / "mc.json"),
    ]
    cases.append(("montecarlo", mc + ["--n-steps", "400"]))
    cases.append(("montecarlo-rejected", mc + ["--n-steps", "10"]))
    cases.append(("audit", ["audit", "--out", str(tmp_path / "audit.json")]))
    return cases


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("label", [label for label, _ in _numpy_command_argv(Path("."))])
def test_numpy_commands_give_the_same_bytes_in_a_fresh_process(tmp_path, capsys, label):
    fresh_dir, local_dir = tmp_path / "fresh", tmp_path / "local"
    for directory in (fresh_dir, local_dir):
        directory.mkdir()
        (directory / "channels.ini").write_text(
            "[hyperfine]\ntau1 = 1e4\n[nuclear]\nconcentration = 1e24\n"
        )
    argv = dict(_numpy_command_argv(fresh_dir))[label]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sidephase.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    code = main(dict(_numpy_command_argv(local_dir))[label])
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == (3 if label == "montecarlo-rejected" else 0)
    assert _outputs(fresh_dir) == _outputs(local_dir)


def test_lazy_names_are_each_lazy_module_all():
    lines = _fresh(
        "import importlib, sys\n"
        "import sidephase\n"
        "lazy = {}\n"
        "for name, module in sidephase._LAZY.items():\n"
        "    if name != module:\n"
        "        lazy.setdefault(module, set()).add(name)\n"
        f"print({HEAVY_LOADED})\n"
        "for module in sorted(set(sidephase._LAZY.values())):\n"
        "    source = importlib.import_module('sidephase.' + module)\n"
        "    print(module, lazy.get(module) == set(source.__all__))\n"
        "    print(module, all(getattr(sidephase, n) is getattr(source, n) for n in source.__all__))\n"
    )
    assert lines == [
        "[]", "montecarlo True", "montecarlo True", "register True", "register True"
    ]
