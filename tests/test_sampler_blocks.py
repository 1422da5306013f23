"""The exact sampler's bytes, pinned across versions, and its block size.

The first three digests were recorded from the 256-trajectory sampler;
the single- and two-column ones from the 1024-trajectory sampler whose
standard errors streamed through a 512-row buffer, so every width's path
through the reduction has a pin.  Each montecarlo invocation spans more
than one block of 1024 trajectories, so a change to the blocking, to the
reduction or to the (seed, i) stream that moves any byte shows here as a
changed digest.  The reduction's own parts are checked against their
references below: cos and sin against the complex exp, and the in-place
column statistics against numpy's sum and standard_error.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sidephase import montecarlo
from sidephase.cli import main
from sidephase.dephasing import ExponentialCorrelation
from sidephase.montecarlo import SimulationPlan, ensemble_coherence
from sidephase.register import (
    ErrorSampler,
    ensemble_average_state,
    ground_fidelity,
    perturbed_ground_state,
)

FIELDS = ("mean_coherence", "std_error", "im_std_error", "mean_phase_sq", "std_error_phase_sq")

# name: (argv, sha256 of the CSV, sha256 of the summary)
MONTECARLO_DIGESTS = {
    "quasistatic": (
        "--variance 1.0 --tau-c 2e6 --t-max 2.0 --n-steps 200"
        " --n-trajectories 3001 --seed 7",
        "dac1c0623531aca9ea3c34c426ad01b87f06eb993cb532e9f9415dcae4fa7bd5",
        "82e92b85cd5846e4cb0bdac633cdc82ba55fce076c4d9092099722450904ef3e",
    ),
    "narrowing": (
        "--variance 3000.0 --tau-c 1e-3 --t-max 1.0 --n-steps 20000"
        f" --n-trajectories 2049 --seed {2 ** 64 - 1}",
        "e7c2461daf63f693d64c3d13928695c4d4d3d88c7a4e212f0745c9125dee758d",
        "ae34b2200b2cb38e47cc84ea2d9aeaa80f2adc74adf527b25ece77411a9b7afd",
    ),
    "static": (
        "--variance 4.0 --tau-c inf --t-max 1.0 --n-steps 100"
        " --n-trajectories 2049 --grid-points 20 --seed 3",
        "b9d0f0ce7e060f9d5b795fffc28ee060248518d69b0ba51424b742b55630c365",
        "943c85cf15c0d628ed3320f78244205881a6ffb420b309014d3c83cea39bfb8b",
    ),
    "single-column": (
        "--variance 1.0 --tau-c 2e6 --t-max 2.0 --n-steps 200"
        " --n-trajectories 2049 --grid-points 1 --seed 11",
        "ea5b53910d7053242e0820863ed919d9c661bd4aec8f3f51cc5a6ab33ea9a740",
        "7a3679d93eadab6830222f272997d951be813e86c13768e6ba08a5eb353d4fef",
    ),
    "two-columns": (
        "--variance 3000.0 --tau-c 1e-3 --t-max 1.0 --n-steps 20000"
        " --n-trajectories 2049 --grid-points 2 --seed 12",
        "995a4fd2ef0880e6c7c66d666645004ad4f8e193f8ca863f57fcecb160e022be",
        "d0e81b5a047ae339c0c0745d1da2101d051ca7e305cdd68a0799c658454af06d",
    ),
}
REGISTER_DIGEST = "c6b59f215c08e1602c31f47a60311fca0c8cd837e3a8ba8d544ca3820884cd7c"
# perturbed_ground_state's entries, then ground_fidelity, at 2,000 seeded e.
SINGLE_STATE_DIGEST = "98d00e434d3c6342f8b9c810411d5c75f541d67eab982922e4737746f2365f34"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _register_bytes(report) -> bytes:
    state = np.array([entry for row in report.state.as_rows() for entry in row])
    numbers = np.array(
        [
            report.mean_error_probability,
            report.stderr_error_probability,
            report.offdiag_magnitude,
        ]
    )
    return state.tobytes() + numbers.tobytes()


@pytest.mark.parametrize("name", sorted(MONTECARLO_DIGESTS))
def test_montecarlo_bytes_are_pinned(tmp_path, name):
    argv, csv_digest, summary_digest = MONTECARLO_DIGESTS[name]
    csv, summary = tmp_path / "mc.csv", tmp_path / "mc.json"
    code = main(
        ["montecarlo", *argv.split(), "--out", str(csv), "--summary-out", str(summary)]
    )
    assert code == 0
    assert _sha256(csv.read_bytes()) == csv_digest
    assert _sha256(summary.read_bytes()) == summary_digest


def test_register_report_bytes_are_pinned():
    report = ensemble_average_state(ErrorSampler((0.02,) * 3, 5), 3000)
    assert _sha256(_register_bytes(report)) == REGISTER_DIGEST


def test_single_state_bytes_are_pinned():
    errors = [tuple(e) for e in np.random.default_rng(3).normal(0.0, 0.5, (2000, 3)).tolist()]
    states = np.array([perturbed_ground_state(e).as_rows() for e in errors])
    fidelities = np.array([ground_fidelity(e) for e in errors])
    assert _sha256(states.tobytes() + fidelities.tobytes()) == SINGLE_STATE_DIGEST


class TestBlockSize:
    @pytest.mark.parametrize("tau_c", [math.inf, 2e6], ids=["static", "quasistatic"])
    @pytest.mark.parametrize("block", [1, 1024, 5000])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, tau_c, block):
        plan = SimulationPlan(ExponentialCorrelation(1.0, tau_c), 2.0, 200, 2049, 41)
        reference = ensemble_coherence(plan)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        result = ensemble_coherence(plan)
        for name in FIELDS:
            assert getattr(result, name).tobytes() == getattr(reference, name).tobytes()

    def test_default_block_adds_no_peak_memory(self, monkeypatch):
        # The blocks write into the result arrays, so a larger block leaves
        # no block-sized temporary alive beside them: the peak, set by the
        # reduction, stays that of 256-trajectory blocks.
        plan = SimulationPlan(ExponentialCorrelation(1.0, 2e6), 2.0, 200, 10_000, 5)

        def peak(block):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            tracemalloc.start()
            try:
                ensemble_coherence(plan)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ensemble_coherence(plan)  # one-time allocations stay out of the peaks
        default = montecarlo._BLOCK
        assert peak(default) <= peak(256) + 64 * 1024

    def test_four_argument_call_allocates_its_rows(self):
        plan = SimulationPlan(ExponentialCorrelation(1.0, 2e6), 2.0, 200, 30, 9)
        transitions = [montecarlo._transition(plan.correlation, 0.04)] * 50
        alone = montecarlo._sample_phases(plan, transitions, 10, 20)
        assert alone.shape == (10, 50)
        rows = np.empty((30, 50))
        montecarlo._sample_phases(plan, transitions, 10, 20, out=rows[10:20])
        assert rows[10:20].tobytes() == alone.tobytes()


def _phases(plan, n_grid):
    """Every trajectory's phases, as ensemble_coherence samples them."""
    grid = montecarlo._output_indices(plan.n_steps, n_grid)
    steps = np.diff(grid, prepend=0).tolist()
    transitions = [montecarlo._transition(plan.correlation, s * plan.dt) for s in steps]
    return montecarlo._sample_phases(plan, transitions, 0, plan.n_trajectories)


def _plan_and_grid(argv):
    """The plan and output-grid size of a montecarlo argv."""
    options = dict(zip(argv.split()[::2], argv.split()[1::2]))
    correlation = ExponentialCorrelation(
        float(options["--variance"]), float(options["--tau-c"])
    )
    plan = SimulationPlan(
        correlation,
        float(options["--t-max"]),
        int(options["--n-steps"]),
        int(options["--n-trajectories"]),
        int(options["--seed"]),
    )
    return plan, int(options.get("--grid-points", 50))


@pytest.mark.parametrize("name", sorted(MONTECARLO_DIGESTS))
def test_cos_and_sin_are_the_bits_of_the_complex_exp(name):
    phases = _phases(*_plan_and_grid(MONTECARLO_DIGESTS[name][0]))
    assert not np.signbit(phases[phases == 0.0]).any()
    phasors = np.exp(1j * phases)
    message = (
        "np.cos/np.sin differ from np.exp(1j * x) in the last bits: this"
        " platform's libm (or numpy's SIMD path for them) rounds them apart,"
        " so ensemble_coherence no longer gives the pinned bytes here"
    )
    assert np.cos(phases).tobytes() == phasors.real.tobytes(), message
    assert np.sin(phases).tobytes() == phasors.imag.tobytes(), message


# (n, n_grid, tau_c, seed): 1,025 quasi-static trajectories under the bare
# grid size, and small, odd and multi-buffer ensembles of static and
# quasi-static noise under "<noise>-<n>-<n_grid>".
REDUCTION_CASES = [
    pytest.param(1025, n_grid, 2e6, 13, id=str(n_grid)) for n_grid in (1, 2, 50)
] + [
    pytest.param(n, n_grid, tau_c, 17, id=f"{noise}-{n}-{n_grid}")
    for noise, tau_c in (("static", math.inf), ("quasistatic", 2e6))
    for n in (1, 2, 513, 2049)
    for n_grid in (1, 2, 3, 50)
]


@pytest.mark.parametrize("n, n_grid, tau_c, seed", REDUCTION_CASES)
def test_reduction_gives_the_bits_of_the_full_size_reduction(n, n_grid, tau_c, seed):
    # The reduction as it was before the blockwise pass: complex phasors
    # and numpy's mean and standard_error over the whole arrays.
    plan = SimulationPlan(ExponentialCorrelation(1.0, tau_c), 2.0, 200, n, seed)
    phases = _phases(plan, n_grid)
    phasors = np.exp(1j * phases)
    phase_sq = phases * phases
    expected = {
        "times": montecarlo._output_indices(plan.n_steps, n_grid) * plan.dt,
        "mean_coherence": phasors.mean(axis=0),
        "std_error": montecarlo.standard_error(phasors.real),
        "im_std_error": montecarlo.standard_error(phasors.imag),
        "mean_phase_sq": phase_sq.mean(axis=0),
        "std_error_phase_sq": montecarlo.standard_error(phase_sq),
    }
    result = ensemble_coherence(plan, n_grid)
    for name in ("times", *FIELDS):
        assert getattr(result, name).tobytes() == expected[name].tobytes(), name


def test_reduction_adds_one_buffer_to_the_result_arrays():
    # The phases' cosines and sines are formed after sampling, beside the
    # phases squared in place, and each part's standard errors are formed
    # in that part's own memory: no temporary of the ensemble's size is
    # left beside them.
    n, n_grid = 10_000, 50
    plan = SimulationPlan(ExponentialCorrelation(1.0, 2e6), 2.0, 200, n, 5)
    ensemble_coherence(plan)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        ensemble_coherence(plan, n_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = 3 * n * n_grid * 8
    # The broadcast subtraction of the column means makes numpy allocate
    # its own ufunc buffer of at most np.getbufsize() doubles.
    ufunc_buffer = np.getbufsize() * 8
    assert peak <= results + ufunc_buffer + 64 * 1024


@pytest.mark.parametrize("n_grid", [1, 50])
def test_reduction_holds_the_phases_and_one_part(n_grid):
    # The parts are reduced one at a time through one buffer of the
    # ensemble's size, each in its own memory, so the peak is two such
    # arrays, not three; a single column adds its complex phasors.
    n = 10_000
    plan = SimulationPlan(ExponentialCorrelation(1.0, 2e6), 2.0, 200, n, 5)
    ensemble_coherence(plan, n_grid)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        ensemble_coherence(plan, n_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = 2 * n * n_grid * 8
    phasors = n * 16 if n_grid == 1 else 0
    ufunc_buffer = np.getbufsize() * 8
    assert peak <= arrays + phasors + ufunc_buffer + 64 * 1024


ROWS = 512
COLUMNS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "constant": lambda rng, n: np.full(n, 0.1),
    "large": lambda rng, n: 1e150 * (1.0 + rng.standard_normal(n)),
    "small": lambda rng, n: 1e-150 * (1.0 + rng.standard_normal(n)),
}
LAYOUTS = {kind: (kind,) for kind in COLUMNS}
LAYOUTS["mixed"] = tuple(itertools.islice(itertools.cycle(COLUMNS), 50))


class TestBlockwiseStandardError:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 2, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    def test_bits_of_standard_error(self, n, layout):
        rng = np.random.default_rng(n)
        samples = np.stack([COLUMNS[kind](rng, n) for kind in LAYOUTS[layout]], axis=1)
        sums, errors = montecarlo._column_statistics(samples.copy())
        assert sums.tobytes() == samples.sum(axis=0).tobytes()
        assert errors.tobytes() == montecarlo.standard_error(samples).tobytes()
