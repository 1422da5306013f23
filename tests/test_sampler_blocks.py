"""The exact sampler's bytes, pinned across versions, and its block size.

The digests were recorded from the 256-trajectory sampler.  Each
montecarlo invocation spans more than one block of 1024 trajectories, so
a change to the blocking, to the in-place phasors or to the (seed, i)
stream that moves any byte shows here as a changed digest.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sidephase import montecarlo
from sidephase.cli import main
from sidephase.dephasing import ExponentialCorrelation
from sidephase.montecarlo import SimulationPlan, ensemble_coherence
from sidephase.register import ErrorSampler, ensemble_average_state

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
}
REGISTER_DIGEST = "3362cc013cda5a1085ec60888a949bf57716fed51d2f3260015b054d135e6cf7"


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
