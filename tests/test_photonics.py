"""Click statistics: closed forms, their invariants, and the Monte-Carlo gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmqkd.photonics import (
    DetectorModel,
    LinkBudget,
    SourceModel,
    UndefinedRateError,
    attenuation_to_length,
    expected_qber,
    p_dark_per_gate,
    p_signal_click,
    simulate_gate_array,
    transmittance,
)

# subnormals make 0.5*p underflow to zero, voiding real-arithmetic bounds
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
errs = st.floats(min_value=0.0, max_value=0.499, allow_nan=False, allow_subnormal=False)


class TestTransmittance:
    def test_identity_at_zero(self):
        assert transmittance(0.0) == 1.0

    def test_ten_db_is_tenth(self):
        assert transmittance(10.0) == pytest.approx(0.1, rel=1e-12)

    def test_measured_path(self):
        assert transmittance(1.70) == pytest.approx(0.6761, abs=1e-4)
        assert transmittance(1.70) == pytest.approx(0.6760829753919817, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-0.1)

    @given(
        a=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_multiplicative_under_concatenation(self, a, b):
        assert transmittance(a + b) == pytest.approx(
            transmittance(a) * transmittance(b), rel=1e-12
        )


class TestClickProbabilities:
    def test_signal_click_at_zero_loss(self):
        src = SourceModel(mean_photon_number=0.1)
        det = DetectorModel(efficiency=0.1)
        p = p_signal_click(src, LinkBudget.of(), det)
        assert p == pytest.approx(0.009950166250831947, rel=1e-12)

    def test_signal_click_at_ten_db(self):
        src = SourceModel(mean_photon_number=0.1)
        det = DetectorModel(efficiency=0.1)
        p = p_signal_click(src, LinkBudget.of(("eATT", 10.0)), det)
        assert p == pytest.approx(0.0009995, abs=1e-7)

    def test_signal_click_vanishes_at_huge_loss(self):
        src = SourceModel(mean_photon_number=0.1)
        det = DetectorModel(efficiency=0.1)
        p = p_signal_click(src, LinkBudget.of(("eATT", 1e9)), det)
        assert p == 0.0

    def test_dark_probability(self):
        det = DetectorModel(dark_rate_hz=41.7, rep_rate_hz=1.0e6)
        assert p_dark_per_gate(det) == pytest.approx(4.17e-5, rel=1e-12)
        det = DetectorModel(dark_rate_hz=15.40, rep_rate_hz=1.0e6)
        assert p_dark_per_gate(det) == pytest.approx(1.54e-5, rel=1e-12)

    def test_no_dark_counts(self):
        assert p_dark_per_gate(DetectorModel(dark_rate_hz=0.0)) == 0.0


class TestExpectedQber:
    def test_dark_only_is_random(self):
        assert expected_qber(0.0, 4.17e-5, 0.01) == 0.5

    def test_dark_free_limit(self):
        for p_sig in (1e-6, 1e-3, 0.5, 1.0):
            assert expected_qber(p_sig, 0.0, 0.01) == pytest.approx(0.01, rel=1e-12)

    def test_mixed_regime(self):
        assert expected_qber(9.95e-4, 4.17e-5, 0.01) == pytest.approx(
            0.02971, abs=2e-5
        )

    def test_undefined_when_silent(self):
        with pytest.raises(UndefinedRateError):
            expected_qber(0.0, 0.0, 0.01)

    @given(p_dark=probs, e_opt=errs)
    def test_monotone_nonincreasing_in_signal(self, p_dark, e_opt):
        lo, hi = 1e-6, 1.0
        qs = [expected_qber(p, p_dark, e_opt) for p in np.linspace(lo, hi, 7)]
        for a, b in zip(qs, qs[1:]):
            assert b <= a + 1e-12

    @given(p_sig=probs, p_dark=probs, e_opt=errs)
    def test_bounded(self, p_sig, p_dark, e_opt):
        if p_sig + p_dark == 0:
            return
        q = expected_qber(p_sig, p_dark, e_opt)
        assert min(e_opt, 0.5) - 1e-12 <= q <= 0.5 + 1e-12

    def test_tends_to_half_as_signal_dies(self):
        q = expected_qber(1e-15, 4.17e-5, 0.01)
        assert q == pytest.approx(0.5, abs=1e-9)


class TestSimulateGate:
    def test_deterministic_noiseless_click(self):
        bits = np.ones(200, dtype=np.uint8)
        for n in (1, 200):  # a single gate and a block of them
            clicked, seen = simulate_gate_array(
                bits[:n], np.ones(n, dtype=bool), 1.0, 0.0, 0.0, np.random.default_rng(7)
            )
            assert clicked.all() and seen.tolist() == [1] * n

    def test_silent_link_never_clicks(self):
        bits = np.ones(200, dtype=np.uint8)
        for n in (1, 200):
            clicked, seen = simulate_gate_array(
                bits[:n], np.ones(n, dtype=bool), 0.0, 0.0, 0.0, np.random.default_rng(7)
            )
            assert not clicked.any() and not seen.any()  # a no-click carries bit 0

    def test_monte_carlo_matches_closed_form(self):
        n = 1_000_000
        p_sig, p_dark, e_opt = 9.95e-4, 4.17e-5, 0.01
        rng = np.random.default_rng(20260816)
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        clicked, seen = simulate_gate_array(
            bits, np.ones(n, dtype=bool), p_sig, p_dark, e_opt, rng
        )

        p_click = p_sig + p_dark - p_sig * p_dark
        sigma_click = np.sqrt(p_click * (1 - p_click) / n)
        assert abs(clicked.mean() - p_click) < 3 * sigma_click

        n_click = int(clicked.sum())
        err = float((seen[clicked] != bits[clicked]).mean())
        q = expected_qber(p_sig, p_dark, e_opt)
        sigma_err = np.sqrt(q * (1 - q) / n_click)
        assert abs(err - q) < 3 * sigma_err

    def test_mismatched_basis_is_coin_flip(self):
        n = 200_000
        rng = np.random.default_rng(11)
        bits = np.zeros(n, dtype=np.uint8)
        clicked, seen = simulate_gate_array(
            bits, np.zeros(n, dtype=bool), 0.5, 0.0, 0.0, rng
        )
        frac_ones = float(seen[clicked].mean())
        assert abs(frac_ones - 0.5) < 4 * np.sqrt(0.25 / clicked.sum())

    def test_identical_seed_identical_outcomes(self):
        bits = np.arange(1000, dtype=np.uint8) % 2
        match = (np.arange(1000) % 3).astype(bool)
        a = simulate_gate_array(bits, match, 0.1, 0.01, 0.02, np.random.default_rng(5))
        b = simulate_gate_array(bits, match, 0.1, 0.01, 0.02, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stream_position_depends_only_on_count(self):
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        bits = np.zeros(64, dtype=np.uint8)
        match = np.ones(64, dtype=bool)
        simulate_gate_array(bits, match, 0.9, 0.5, 0.3, r1)
        simulate_gate_array(bits, match, 0.0, 0.0, 0.0, r2)
        assert r1.random() == r2.random()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_gate_array(
                np.zeros(3, dtype=np.uint8),
                np.ones(4, dtype=bool),
                0.1,
                0.0,
                0.0,
                np.random.default_rng(0),
            )


class TestAttenuationToLength:
    def test_zero(self):
        assert attenuation_to_length(0.0) == 0.0

    def test_standard_fiber(self):
        assert attenuation_to_length(10.0, 0.2) == 50.0
        assert attenuation_to_length(4.0, 0.2) == 20.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            attenuation_to_length(10.0, 0.0)
        with pytest.raises(ValueError):
            attenuation_to_length(10.0, -0.2)
        with pytest.raises(ValueError):
            attenuation_to_length(-1.0, 0.2)


class TestModels:
    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceModel(mean_photon_number=0.0)
        with pytest.raises(ValueError):
            SourceModel(rep_rate_hz=0.0)
        with pytest.raises(ValueError):
            SourceModel(e_opt=0.5)
        with pytest.warns(UserWarning):
            SourceModel(mean_photon_number=2.0)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorModel(dark_rate_hz=-1.0)
        with pytest.raises(ValueError):
            DetectorModel(gate_width_ns=0.0)
        with pytest.raises(ValueError):
            DetectorModel(dark_rate_hz=2e6, rep_rate_hz=1e6)

    def test_budget_sums_components(self):
        b = LinkBudget.of(("router", 1.70), ("eATT", 5.0), ("fiber", 0.3))
        assert b.total_db == pytest.approx(7.0, rel=1e-12)
        assert b.transmittance == pytest.approx(transmittance(7.0), rel=1e-12)

    def test_budget_plus_appends(self):
        b = LinkBudget.of(("router", 2.0)).plus("eATT", 3.0)
        assert b.total_db == 5.0
        assert b.components[-1] == ("eATT", 3.0)

    def test_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            LinkBudget.of(("gain?", -1.0))
