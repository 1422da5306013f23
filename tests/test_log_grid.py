"""Log sweep grids do not depend on numpy's SIMD dispatch.

`config.grid_values` forms a log grid as np.geomspace does (evenly spaced
exponents, ends set to the bounds) but takes each power with Python's float
pow.  numpy's AVX-512 power loop rounds apart from its other loops, so
`np.geomspace` itself gives different points on different machines.  The
reference here uses only `math` and float arithmetic, so a grid must equal
it whichever loops numpy runs.
"""

import json
import math
import random

import pytest

from sidephase.cli import main
from sidephase.config import SweepSpec, grid_values


def _reference(lo: float, hi: float, count: int) -> list[float]:
    """np.geomspace's points by hand: 10 ** (i * step + log10(lo))."""
    start, stop = math.log10(lo), math.log10(hi)
    step = (stop - start) / (count - 1)
    points = [10.0 ** (i * step + start) for i in range(count)]
    points[0], points[-1] = lo, hi
    return points


# The bounds of the benchmark's sweeps and of the tests' log grids.
NAMED = [
    (1e8, 1e9), (0.2, 5.0), (5.0, 30.0), (1.0, 1e5), (0.05, 1.0), (0.05, 10.0),
    (1e22, 1e27), (1e23, 1e26), (2e-4, 1e-2), (1.0, 100.0), (1.0, 1e4),
]


def _random_grids(n: int) -> list[tuple[float, float, int]]:
    rng = random.Random(20)
    grids = []
    for _ in range(n):
        lo = 10.0 ** rng.uniform(-30.0, 30.0)
        grids.append((lo, lo * 10.0 ** rng.uniform(1e-6, 20.0), rng.randint(2, 200)))
    return grids


GRIDS = [(lo, hi, count) for lo, hi in NAMED for count in (3, 4, 48)] + _random_grids(300)


def test_log_grids_equal_the_math_reference():
    for lo, hi, count in GRIDS:
        spec = SweepSpec("hyperfine", "tau1", lo, hi, count, "log")
        assert grid_values(spec).tolist() == _reference(lo, hi, count), (lo, hi, count)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_log_sweep_writes_the_reference_points(tmp_path, fmt):
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--channel", "phonon", "--param", "temperature"]
    argv += ["--grid", "0.05:10:48:log", "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    text = out.read_text()
    if fmt == "csv":
        points = [float(row.split(",")[0]) for row in text.splitlines()[1:]]
    else:
        points = [row["temperature"] for row in json.loads(text)]
    assert points == _reference(0.05, 10.0, 48)


def test_a_log_grid_may_end_at_the_largest_float():
    top = 1.7976931348623157e308
    spec = SweepSpec("hyperfine", "tau1", 1.0, top, 3, "log")
    assert grid_values(spec).tolist() == [1.0, 10.0 ** (math.log10(top) / 2.0), top]


def test_a_log_sweep_to_the_largest_float_writes_the_bounds(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--channel", "hyperfine", "--param", "tau1"]
    argv += ["--grid", "1:1.7976931348623157e308:2:log", "--out", str(out)]
    assert main(argv) == 0
    first = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert [float(cell) for cell in first] == [1.0, 1.7976931348623157e308]
