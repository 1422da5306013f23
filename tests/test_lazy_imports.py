"""scipy stays off the import path of the package and the CLI.

Importing scipy.integrate and scipy.signal costs far more than a short
`channel` run, so they are imported where they are used.  These tests run a
fresh interpreter, since this one has scipy loaded by other tests.
"""

import os
import subprocess
import sys

import sidephase
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
        f"print(repr({TRAJECTORY}))\n"
        "print('scipy.integrate' in sys.modules, 'scipy.signal' in sys.modules)\n"
    )
    trajectory = eval(TRAJECTORY)
    assert lines == [repr(debye_integral(6250.0)), repr(trajectory), "True True"]
