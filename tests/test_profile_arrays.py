"""Array-native Gamma(t): the same bits as the float path, and the same bytes.

gamma_exact and coherence_envelope take arrays, and `channel --profile-out`
evaluates, checks and writes its profile from arrays.  None of this may move
an output byte, so the array results are compared with the float path bit
for bit, and the profile CSVs against digests recorded before the change.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sidephase
from sidephase import dephasing
from sidephase.cli import main
from sidephase.dephasing import (
    DecoherenceProfile,
    ExponentialCorrelation,
    build_profile,
    coherence_envelope,
    decoherence_time,
    gamma_exact,
    gamma_static,
    write_profile_csv,
)
from sidephase.montecarlo import EnsembleCoherence, compare_to_analytic

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sidephase.__file__)))

CONFIG = """\
[hyperfine]
field = 2.0
temperature = 0.1
tau1 = 1e4

[phonon]
temperature = 0.1

[paramagnetic]
concentration = 0.7e26
field = 2.0
temperature = 0.1
tau1_imp = 1e4

[nuclear]
concentration = 2.25e25
field = 2.0
spin_temperature = 0.8e-3
t_parallel_imp = 1e4
"""

# sha256 of `channel <kind> --config CONFIG --profile-out ... --t-max <t_max>
# --t-points 20001`, recorded with the scalar profile path.  Every channel
# above has tau_c = 1e4 s; between them the grids cross t/tau_c = 1e-6 and
# 0.05, so the series and expm1 branches are both written.
GOLDEN = [
    ("hyperfine", "4e-3", "fb817a01c70e617192e0767c4ddb812ba2581c4e793149bd61a4f06eb49fb961"),
    ("hyperfine", "1e9", "7dd963674e1216d38acec8a04127564d8fcd5b00ceb8de610c18bb23f3a9dffb"),
    ("paramagnetic", "4.0", "00ca0472e6f310a81183d0fc161cf39b015e117ebd8228433717b4dedb2f8110"),
    ("paramagnetic", "1e6", "5101e3f05c49a30e74e282ad8aafa6854281dbb0bcbb172b36fe698fabc8d760"),
    ("nuclear", "0.11", "1596d079b3f7a7d4864230fae42d8359d6c156ae9b569e068e53258c0f079fd5"),
    ("nuclear", "1e5", "c9ee2fd7f419e1ba15dfb9789248abd03e0ad20402de70f33ff944bce046045d"),
    ("phonon", "1.3e23", "d2f319a8077c696512aa252ae1bd14805ab1088672dd88867a225b2a7ccedeaa"),
]

CORRELATIONS = [
    ExponentialCorrelation(1.0, 1.0),
    ExponentialCorrelation(3000.0, 1e-3),
    ExponentialCorrelation(1.23e6, 1e4),
    ExponentialCorrelation(0.0, 2.0),
    ExponentialCorrelation(1e300, 1e10),
    ExponentialCorrelation(2.0, math.inf),
    ExponentialCorrelation(1e-300, 1e-5),  # scale 1e-310, subnormal
    ExponentialCorrelation(1.23e6, 1e-300),  # scale 0
]


def _dense_x() -> np.ndarray:
    """t/tau_c values around and between the switch points 1e-6 and 0.05."""
    rng = np.random.default_rng(9)
    switches = np.array([1e-6, 0.05])
    return np.concatenate(
        [
            np.linspace(0.0, 2e-6, 20_001),
            np.linspace(0.0, 0.1, 20_001),
            np.geomspace(1e-12, 1e3, 20_001),
            rng.uniform(0.0, 1e-6, 20_000),
            rng.uniform(1e-6, 0.05, 20_000),
            rng.uniform(0.05, 60.0, 20_000),
            switches,
            np.nextafter(switches, 0.0),
            np.nextafter(switches, 1.0),
            [0.0, 5e-324, math.inf],
        ]
    )


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind,t_max,digest", GOLDEN)
def test_profile_csv_bytes_are_unchanged(tmp_path, capsys, kind, t_max, digest):
    config = tmp_path / "channels.ini"
    config.write_text(CONFIG)
    profile = tmp_path / "p.csv"
    argv = ["channel", kind, "--config", str(config), "--out", str(tmp_path / "r.json")]
    argv += ["--profile-out", str(profile), "--t-max", t_max, "--t-points", "20001"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(profile.read_bytes()).hexdigest() == digest


def test_profile_past_the_series_range_is_unchanged_and_quiet(tmp_path, capsys):
    # tau1_imp = 1e-100 puts nearly every t/tau_c far past the series switch,
    # where the array path's series overflows before the closed form is
    # written over it; no numpy warning may reach stderr.
    config = tmp_path / "channels.ini"
    config.write_text(CONFIG.replace("tau1_imp = 1e4", "tau1_imp = 1e-100"))
    profile = tmp_path / "p.csv"
    argv = ["channel", "paramagnetic", "--config", str(config), "--out", str(tmp_path / "r.json")]
    argv += ["--profile-out", str(profile), "--t-max", "4", "--t-points", "20001"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    digest = hashlib.sha256(profile.read_bytes()).hexdigest()
    assert digest == "63909ced1e73b491a687e5539aa2d4dbb61d0cf0af1c6db5da9c11f0da58b60a"


@pytest.mark.parametrize("corr", CORRELATIONS, ids=repr)
def test_array_gamma_matches_float_path_bit_for_bit(corr):
    tau = corr.tau_c if math.isfinite(corr.tau_c) else 1.0
    times = _dense_x() * tau
    scalar = [gamma_exact(corr, t) for t in times.tolist()]
    array = gamma_exact(corr, times)
    assert array.dtype == np.float64 and array.shape == times.shape
    assert np.array_equal(_bits(array), _bits(scalar))
    envelope = [math.exp(-g) for g in scalar]
    assert np.array_equal(_bits(coherence_envelope(corr, times)), _bits(envelope))


# t/tau_c grids for the array path's kernel: all below the series switch
# 0.05, all at or above it, both, and, under a scale above 2, x where the
# kernel falls below the normal range (the lost cells, x < ~2e-154), and x
# so large that the series, written over by the closed form, overflows.
FAST_PATH_GRIDS = {
    "all-series": (ExponentialCorrelation(3000.0, 1e-3), lambda rng, n: rng.uniform(0.0, 0.05, n)),
    "all-closed": (ExponentialCorrelation(3000.0, 1e-3), lambda rng, n: rng.uniform(0.05, 60.0, n)),
    "mixed": (ExponentialCorrelation(1.23e6, 1e4), lambda rng, n: rng.uniform(0.0, 0.1, n)),
    "lost": (
        ExponentialCorrelation(1.23e6, 1e4),
        lambda rng, n: 10.0 ** rng.uniform(-170.0, math.log10(1.5e-154), n),
    ),
    "overflowing-x": (
        ExponentialCorrelation(3000.0, 1e-3),
        lambda rng, n: 10.0 ** rng.uniform(25.0, 305.0, n),
    ),
}


@pytest.mark.parametrize("size", [1, 4096, 100_000])
@pytest.mark.parametrize("grid", sorted(FAST_PATH_GRIDS))
def test_array_gamma_fast_paths_match_the_float_path(grid, size):
    corr, draw = FAST_PATH_GRIDS[grid]
    scale = corr.variance * corr.tau_c * corr.tau_c
    assert sys.float_info.min <= scale < math.inf
    x = draw(np.random.default_rng(size), size)
    x[0] = {"all-series": 0.0, "all-closed": 0.05, "mixed": 0.05, "lost": 5e-324,
            "overflowing-x": math.inf}[grid]
    times = x * corr.tau_c
    x = times / corr.tau_c
    if grid == "all-series":
        assert (x < dephasing._KERNEL_SWITCH).all()
    elif grid == "all-closed":
        assert (x >= dephasing._KERNEL_SWITCH).all()
    elif grid == "mixed" and size > 1:
        assert (x < dephasing._KERNEL_SWITCH).any() and (x >= dephasing._KERNEL_SWITCH).any()
    elif grid == "lost":
        assert scale > 2.0 and (dephasing._series(x) < sys.float_info.min).all()
    elif grid == "overflowing-x":
        assert (x >= 1e25).all()
    scalar = [gamma_exact(corr, t) for t in times.tolist()]
    assert np.array_equal(_bits(gamma_exact(corr, times)), _bits(scalar))


def test_array_gamma_keeps_shape_and_rejects_negative_times():
    corr = ExponentialCorrelation(2.0, 0.5)
    times = np.array([[0.0, 0.01], [0.1, 3.0]])
    gamma = gamma_exact(corr, times)
    assert gamma.shape == (2, 2)
    assert gamma.tolist() == [[gamma_exact(corr, t) for t in row] for row in times.tolist()]
    with pytest.raises(ValueError, match="nonnegative"):
        gamma_exact(corr, np.array([0.1, -1e-300]))


def test_gamma_at_zero_is_zero_when_the_scale_overflows():
    corr = ExponentialCorrelation(1e300, 1e10)
    assert math.isinf(corr.variance * corr.tau_c * corr.tau_c)
    assert gamma_exact(corr, 0.0) == 0.0
    assert coherence_envelope(corr, 0.0) == 1.0
    assert gamma_exact(corr, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


OVERFLOWING_SCALE = [
    ExponentialCorrelation(1.23e6, 1e300),
    ExponentialCorrelation(1e300, 1e10),
    ExponentialCorrelation(1e308, 100.0),
]


@pytest.mark.parametrize("corr", OVERFLOWING_SCALE, ids=repr)
def test_overflowing_scale_gives_float_path_bits_and_no_nan(corr):
    assert math.isinf(corr.variance * corr.tau_c * corr.tau_c)
    times = np.concatenate(([0.0, 5e-324], np.geomspace(1e-320, 1e308, 4001), [math.inf]))
    scalar = [gamma_exact(corr, t) for t in times.tolist()]
    array = gamma_exact(corr, times)
    assert np.array_equal(_bits(array), _bits(scalar))
    assert not np.isnan(array).any()
    assert array[-1] == math.inf
    # Far on the quasi-static side Gamma is the static-noise value (compared
    # where neither side is subnormal).
    quasi = (times / corr.tau_c < 1e-13) & (array > 1e-250) & (array < 1e300)
    static = [gamma_static(corr, t) for t in times[quasi].tolist()]
    assert quasi.sum() > 100
    assert np.allclose(array[quasi], static, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "kind,key", [("hyperfine", "tau1"), ("paramagnetic", "tau1_imp"), ("nuclear", "t_parallel_imp")]
)
def test_overflowing_correlation_time_reports_the_static_noise_time(tmp_path, capsys, kind, key):
    config = tmp_path / "channels.ini"
    config.write_text(f"[{kind}]\n{key} = 1e300\n")
    profile = tmp_path / "p.csv"
    argv = ["channel", kind, "--config", str(config), "--convention", "unit-gamma"]
    argv += ["--profile-out", str(profile), "--t-max", "1e-3", "--t-points", "11"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    variance = report["variance_rad2_per_s2"]
    static = decoherence_time(ExponentialCorrelation(variance, math.inf), "unit-gamma")
    assert report["selected_decoherence_time_s"] == pytest.approx(static, rel=1e-9)
    if kind == "hyperfine":
        assert static == pytest.approx(1.276e-3, rel=1e-3)
    rows = [line.split(",") for line in profile.read_text().splitlines()[1:]]
    assert len(rows) == 11
    for t, gamma, _ in rows:
        assert float(gamma) == pytest.approx(0.5 * variance * float(t) ** 2, rel=1e-12)


@pytest.mark.parametrize(
    "times,gamma_values",
    [((math.nan,), (math.nan,)), ((math.nan,), (0.0,)), ((0.1,), (math.nan,)),
     ((0.1, 0.2), (0.0, math.nan)), ((0.1, math.nan, 0.3), (0.0, 0.1, 0.2))],
)
def test_profile_rejects_nan(times, gamma_values):
    with pytest.raises(ValueError, match="NaN"):
        DecoherenceProfile(times=times, gamma_values=gamma_values)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_csv_bytes_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    corr = ExponentialCorrelation(3000.0, 1e-3)
    times = np.linspace(0.0, 0.2, 1001)
    profile = build_profile(corr, times)
    expected = "t_seconds,gamma,envelope\n" + "".join(
        f"{t:.17g},{g:.17g},{math.exp(-g):.17g}\n"
        for t, g in zip(profile.times, profile.gamma_values)
    )
    monkeypatch.setattr(dephasing, "_CSV_CHUNK", chunk)
    buf = io.StringIO()
    profile.write_csv(buf)
    assert buf.getvalue() == expected
    buf = io.StringIO()
    write_profile_csv(buf, times, gamma_exact(corr, times))
    assert buf.getvalue() == expected


@pytest.mark.parametrize(
    "corr", [ExponentialCorrelation(1.0, 2e6), ExponentialCorrelation(3000.0, 1e-3)], ids=repr
)
def test_compare_to_analytic_envelope_is_the_float_path(corr):
    times = np.linspace(0.0, 2.0, 50)
    ones = np.ones_like(times)
    result = EnsembleCoherence(
        times=times,
        mean_coherence=ones.astype(complex),
        std_error=ones,
        im_std_error=ones,
        mean_phase_sq=ones,
        std_error_phase_sq=ones,
        n_trajectories=1,
    )
    comparison = compare_to_analytic(result, corr)
    expected = [math.exp(-gamma_exact(corr, t)) for t in times]
    assert np.array_equal(_bits(comparison.analytic_envelope), _bits(expected))


def test_non_finite_profile_prints_one_stderr_line(tmp_path):
    """An overflowing horizon exits 2 with the error line and no numpy warning."""
    profile = tmp_path / "p.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["channel", "hyperfine", "--profile-out", str(profile), "--t-max", "1e300"]
    proc = subprocess.run(
        [sys.executable, "-m", "sidephase.cli", *argv, "--t-points", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: hyperfine channel: Gamma(t) is not finite")
    assert not profile.exists()


def test_collapsed_profile_grid_names_its_options(tmp_path):
    """A --t-max too short for --t-points distinct times exits 2 naming both."""
    profile = tmp_path / "p.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["channel", "hyperfine", "--profile-out", str(profile), "--t-max", "5e-324"]
    proc = subprocess.run(
        [sys.executable, "-m", "sidephase.cli", *argv, "--t-points", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: --t-max ")
    assert "--t-points 3" in lines[0]
    assert not profile.exists()


@pytest.mark.parametrize("variance", [2.0, 1e300, 5e-324, 0.0, sys.float_info.max])
def test_static_noise_array_is_gamma_static_bit_for_bit(variance):
    corr = ExponentialCorrelation(variance, math.inf)
    rng = np.random.default_rng(40)
    times = np.concatenate(
        [rng.uniform(0.0, 10.0, 2000), 10.0 ** rng.uniform(-320.0, 308.0, 1999),
         [0.0, 5e-324, math.inf]]
    ).reshape(3, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = gamma_exact(corr, times)
    assert array.shape == times.shape
    expected = [[gamma_static(corr, t) for t in row] for row in times.tolist()]
    assert np.array_equal(_bits(array), _bits(expected))


def _math_exp_bits(values) -> np.ndarray:
    return _bits([math.exp(v) for v in np.ravel(values).tolist()]).reshape(np.shape(values))


def test_exp_has_math_exp_bits_at_nonpositive_arguments():
    rng = np.random.default_rng(40)
    subnormal_band = rng.uniform(-745.13, -708.4, 50_000)
    x = np.concatenate(
        [rng.uniform(-746.0, 0.0, 200_000), subnormal_band,
         [-0.0, 0.0, -math.inf, -745.13, -708.4, -5e-324]]
    )
    result = dephasing._exp(x)
    assert np.array_equal(_bits(result), _math_exp_bits(x))
    band = result[200_000:250_000]
    assert ((band > 0.0) & (band < sys.float_info.min)).all()


def test_exp_of_nan_cells_is_math_exp():
    x = -np.random.default_rng(41).uniform(0.0, 746.0, 20_000)
    x[::7] = math.nan
    x[3::7] = -math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = dephasing._exp(x)
    assert np.array_equal(_bits(result), _math_exp_bits(x))


def test_exp_keeps_a_2d_shape():
    x = -np.random.default_rng(42).uniform(0.0, 800.0, (3, 5))
    x[2, 4] = math.nan
    result = dephasing._exp(x)
    assert result.shape == (3, 5)
    assert np.array_equal(_bits(result), _math_exp_bits(x))


def test_phonon_profile_is_the_report_rate_times_t(tmp_path, capsys, monkeypatch):
    # Theta/T = 31.25 is below the Debye saturation at 60, so the rate takes
    # a quadrature: the report and the profile share one Debye integral,
    # and the profile's Gamma, up to about 2.9, is that report's rate times
    # t, bit for bit.
    from sidephase import mechanisms

    calls = []

    def counting(u):
        calls.append(u)
        return debye_integral(u)

    debye_integral = mechanisms.debye_integral
    monkeypatch.setattr(mechanisms, "debye_integral", counting)
    config = tmp_path / "channels.ini"
    config.write_text("[phonon]\ntemperature = 20.0\n")
    report, profile = tmp_path / "r.json", tmp_path / "p.csv"
    argv = ["channel", "phonon", "--config", str(config), "--out", str(report)]
    argv += ["--profile-out", str(profile), "--t-max", "1e7", "--t-points", "4097"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert calls == [31.25]
    rate = json.loads(report.read_text())["rates_per_s"]["exact-integral"]
    rows = [line.split(",") for line in profile.read_text().splitlines()[1:]]
    assert len(rows) == 4097
    times = np.array([float(t) for t, _, _ in rows])
    gamma_values = np.array([float(g) for _, g, _ in rows])
    assert (_bits(gamma_values) == _bits(rate * times)).all()
