"""Audit entries: verdict rules, pinned published values, rendering."""

import math

import pytest

from sidephase.audit import AuditEntry, build_audit, classify_ratio, render_table

EXPECTED_VERDICTS = {
    "polarization-ratio": "match",
    "hyperfine-threshold-ratio": "match",
    "hyperfine-dephasing-time": "match",
    "phonon-rate-prefactor": "match",
    "paramagnetic-prefactor-full": "typo-suspected",
    "paramagnetic-prefactor-suppressed": "match",
    "paramagnetic-concentration-bound": "match",
    "impurity-polarization-temperature": "match",
    "impurity-concentration-bound": "discrepant",
    "thermal-variance-forms": "discrepant",
    "site-density-vs-lattice-cube": "discrepant",
}

EXPECTED_PUBLISHED = {
    "polarization-ratio": 27.0,
    "hyperfine-threshold-ratio": 30.0,
    "hyperfine-dephasing-time": 1e-3,
    "phonon-rate-prefactor": 0.75e4,
    "paramagnetic-prefactor-full": 33.4e-13,
    "paramagnetic-prefactor-suppressed": 0.74e3,
    "paramagnetic-concentration-bound": 0.7e20,
    "impurity-polarization-temperature": 0.8e-3,
    "impurity-concentration-bound": 4.5e-2,
}

# repr of every computed value: the recomputation keeps its exact floats.
EXPECTED_COMPUTED = {
    "polarization-ratio": "26.782608695652172",
    "hyperfine-threshold-ratio": "30.470044863301023",
    "hyperfine-dephasing-time": "0.0009024675130816799",
    "phonon-rate-prefactor": "8243.39548906202",
    "paramagnetic-prefactor-full": "333710636793311.0",
    "paramagnetic-prefactor-suppressed": "779.5264974796003",
    "paramagnetic-concentration-bound": "6.4141501490535875e+19",
    "impurity-polarization-temperature": "0.0008065217391304348",
    "impurity-concentration-bound": "3.186732537166125e-05",
    "thermal-variance-forms": "5.456594299948233e-24",
    "site-density-vs-lattice-cube": "6.350657928161357e+21",
}


class TestClassifyRatio:
    def test_match_window(self):
        assert classify_ratio(1.0) == "match"
        assert classify_ratio(1.15) == "match"
        assert classify_ratio(1.0 / 1.15) == "match"

    def test_approx_window(self):
        assert classify_ratio(1.3) == "approx"
        assert classify_ratio(0.5) == "approx"
        assert classify_ratio(2.0) == "approx"

    def test_decade_slips(self):
        assert classify_ratio(10.0) == "typo-suspected"
        assert classify_ratio(0.1) == "typo-suspected"
        assert classify_ratio(9.5) == "typo-suspected"
        assert classify_ratio(1e26) == "typo-suspected"

    def test_discrepant(self):
        assert classify_ratio(3.0) == "discrepant"
        assert classify_ratio(7e-4) == "discrepant"
        assert classify_ratio(0.0) == "discrepant"
        assert classify_ratio(-1.0) == "discrepant"
        assert classify_ratio(math.inf) == "discrepant"
        assert classify_ratio(math.nan) == "discrepant"

    def test_near_unity_is_not_typo(self):
        # the power of ten must be nonzero: 1.1 is a match, not a slip
        assert classify_ratio(1.1) == "match"
        assert classify_ratio(0.9) == "match"


@pytest.fixture(scope="module")
def entries():
    return build_audit()


class TestBuildAudit:
    def test_every_claim_present_once(self, entries):
        ids = [e.claim_id for e in entries]
        assert sorted(ids) == sorted(EXPECTED_VERDICTS)

    def test_verdicts(self, entries):
        for e in entries:
            assert e.verdict == EXPECTED_VERDICTS[e.claim_id], e.claim_id

    def test_published_values_pinned(self, entries):
        by_id = {e.claim_id: e for e in entries}
        for claim, value in EXPECTED_PUBLISHED.items():
            assert by_id[claim].published_value == value

    def test_computed_values_pinned(self, entries):
        computed = {e.claim_id: repr(e.computed_value) for e in entries}
        assert computed == EXPECTED_COMPUTED

    def test_ratio_consistency(self, entries):
        for e in entries:
            assert e.ratio == pytest.approx(
                e.computed_value / e.published_value, rel=1e-15
            )

    def test_close_agreements(self, entries):
        by_id = {e.claim_id: e for e in entries}
        assert by_id["polarization-ratio"].ratio == pytest.approx(
            26.782608695652176 / 27.0, rel=1e-12
        )
        assert abs(by_id["hyperfine-threshold-ratio"].ratio - 1.0) < 0.05
        assert abs(by_id["paramagnetic-concentration-bound"].ratio - 1.0) < 0.15

    def test_decade_slip_magnitude(self, entries):
        by_id = {e.claim_id: e for e in entries}
        exponent = math.log10(by_id["paramagnetic-prefactor-full"].ratio)
        assert exponent == pytest.approx(26.0, abs=0.01)

    def test_impurity_bound_disagreement_is_large(self, entries):
        # the recomputed fraction sits orders of magnitude below the
        # published percentage; the audit records it rather than matching
        entry = {e.claim_id: e for e in entries}["impurity-concentration-bound"]
        assert 5e-4 < entry.ratio < 1e-3
        assert entry.units == "% of sites"

    def test_lattice_cube_entry_quantifies_the_gap(self, entries):
        entry = {e.claim_id: e for e in entries}["site-density-vs-lattice-cube"]
        # inverse cubed lattice constant is ~1/8 of the quoted site density
        assert 1.0 / entry.ratio == pytest.approx(7.873, abs=0.01)

    def test_entry_fields(self, entries):
        for e in entries:
            assert isinstance(e, AuditEntry)
            assert e.description
            assert e.units
            assert math.isfinite(e.computed_value)


class TestRenderTable:
    def test_one_line_per_claim(self):
        entries = build_audit()
        text = render_table(entries)
        lines = text.splitlines()
        assert len(lines) == len(entries) + 2
        for e in entries:
            assert any(line.startswith(e.claim_id) for line in lines[2:])

    def test_verdict_column_rendered(self):
        text = render_table(build_audit())
        assert "typo-suspected" in text
        assert "discrepant" in text
        assert "match" in text


class TestOperatingPoint:
    """The audit is evaluated at the channels' default operating point."""

    def test_channels_share_one_operating_point(self):
        from sidephase.mechanisms import (
            HyperfineElectronChannel,
            NuclearImpurityChannel,
            ParamagneticImpurityChannel,
            PhononRamanChannel,
        )

        hyperfine, paramagnetic = HyperfineElectronChannel(), ParamagneticImpurityChannel()
        assert hyperfine.field == paramagnetic.field == NuclearImpurityChannel().field == 2.0
        temperatures = {hyperfine.temperature, paramagnetic.temperature}
        assert temperatures | {PhononRamanChannel().temperature} == {0.1}
        assert NuclearImpurityChannel().spin_temperature == 0.8e-3

    def test_polarization_ratio_is_the_default_hyperfine_x(self, entries):
        from sidephase.mechanisms import HyperfineElectronChannel

        row = next(e for e in entries if e.claim_id == "polarization-ratio")
        assert row.computed_value == HyperfineElectronChannel().x

    def test_nuclear_bound_is_at_the_default_nuclear_channel(self, entries):
        from sidephase.mechanisms import (
            NuclearImpurityChannel,
            max_nuclear_impurity_concentration,
        )

        d = NuclearImpurityChannel()
        bound = max_nuclear_impurity_concentration(1.0, d.field, d.spin_temperature)
        row = next(e for e in entries if e.claim_id == "impurity-concentration-bound")
        assert row.computed_value == bound.percent_of_sites
