"""The Debye integral's bits and its work, pinned against the per-segment loop.

The reference below adds the quadratures of the segments [0, 2], [2, 8],
[8, 20], [20, 60], [60, 200] and [200, u], cut at u, making every one of
those quad calls for each u and summing them left to right from 0.0.  The
library must give the same bits while integrating only the last segment per
call below u = 60, and no segment from 60 on, where the sum no longer moves.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from sidephase.cli import main
from sidephase.mechanisms import PhononRamanChannel, _debye_integrand, debye_integral

DATA_DIR = Path(__file__).parent / "data"
BREAKS = (0.0, 2.0, 8.0, 20.0, 60.0, 200.0)


def _per_segment_loop(u: float) -> float:
    """The integral as one quad call per segment below u, summed from 0.0."""
    points = [b for b in BREAKS if b < u] + [u]
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        value, _ = scipy.integrate.quad(
            _debye_integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200
        )
        total += value
    return total


def _pinned_arguments() -> list[float]:
    """Each break and both its neighbours, 3,000 log-uniform u in [1e-5, 1e6],
    the extremes, u = Theta/T at the benchmark's 96 phonon sweep temperatures
    (0.05 to 10 K, 48 lin and 48 log), and inf."""
    near_breaks = [
        x for b in BREAKS[1:] for x in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
    ]
    rng = np.random.default_rng(7)
    log_uniform = np.exp(rng.uniform(math.log(1e-5), math.log(1e6), 3000)).tolist()
    temperatures = np.concatenate([np.linspace(0.05, 10.0, 48), np.geomspace(0.05, 10.0, 48)])
    sweep = [1.0 / PhononRamanChannel(temperature=float(t)).t_over_theta for t in temperatures]
    return [*near_breaks, *log_uniform, 1e300, 5e-324, *sweep, math.inf]


def test_bits_equal_the_per_segment_loop():
    arguments = _pinned_arguments()
    expected = [repr(_per_segment_loop(u)) for u in arguments]
    assert [repr(debye_integral(u)) for u in arguments] == expected


# Exactly one quad call below the saturation argument 60, none from it on.
QUAD_CALLS = [
    (1.0, 1),
    (30.0, 1),
    (math.nextafter(60.0, 0.0), 1),
    (60.0, 0),
    (70.0, 0),
    (200.0, 0),
    (6250.0, 0),
    (math.inf, 0),
]


@pytest.mark.parametrize("u, quad_calls", QUAD_CALLS, ids=[str(u) for u, _ in QUAD_CALLS])
def test_one_quad_call_per_value(monkeypatch, u, quad_calls):
    debye_integral(1.0)  # builds the fixed segments' sums
    quad = scipy.integrate.quad
    calls = []

    def counted(f, lo, hi, **kw):
        calls.append((lo, hi))
        return quad(f, lo, hi, **kw)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    debye_integral(u)
    assert len(calls) == quad_calls, calls


@pytest.mark.parametrize("u", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_nonpositive_and_nan_arguments_are_refused(u):
    with pytest.raises(ValueError, match="u must be positive"):
        debye_integral(u)


def test_infinite_argument_gives_the_full_integral():
    # 6! zeta(6) = 720 pi^6 / 945 = 16 pi^6 / 21 = 732.48700462880338...; the
    # pinned float is one ulp below its correctly rounded 732.4870046288033.
    assert repr(debye_integral(math.inf)) == "732.4870046288032"


def test_phonon_temperature_sweep_matches_golden_file(tmp_path):
    # A lin grid: np.linspace only multiplies and adds, so its temperatures
    # have the same bits on every numpy SIMD path, where np.geomspace's do not.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--channel", "phonon", "--param", "temperature"]
    assert main([*argv, "--grid", "0.05:10:48:lin", "--out", str(out)]) == 0
    golden = DATA_DIR / "phonon_temperature_sweep.csv"
    assert out.read_bytes() == golden.read_bytes()
