"""Click statistics: closed forms, their invariants, and the click sampler."""

import hashlib
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmqkd.photonics import (
    DetectorModel,
    LinkBudget,
    SourceModel,
    UndefinedRateError,
    _distinct_sorted,
    _random_bytes,
    attenuation_to_length,
    expected_qber,
    p_dark_per_gate,
    p_signal_click,
    sample_clicks,
    transmittance,
)

# subnormals make 0.5*p underflow to zero, voiding real-arithmetic bounds
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
errs = st.floats(min_value=0.0, max_value=0.499, allow_nan=False, allow_subnormal=False)


# sample_clicks(n_frames, p_sig, p_dark, e_opt, default_rng(seed)): the click
# count, the SHA-256 of its five arrays (frames, tx_bases, tx_bits, rx_bases,
# rx_bits) and the generator's next integers(0, 2**63) draw after it
SAMPLER_PINS = {
    "no-click": ((1000, 0.0, 0.0, 0.01, 3), 0,
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 789974133212406140),
    "repeats": ((10_000, 0.25, 0.05, 0.02, 4), 2917,
                "8226a851fb22e0064c6a99cac2e422bae60263e9527d6d723c419cd855c0c617",
                1373268719620083299),
    "repeats-odd": ((9_999, 0.2, 0.01, 0.05, 11), 2052,
                    "2b576d05a5fe81d76ff5758b432eef6edc600c6686e63dc9cede0d1c2f336372",
                    2285964191966668893),
    "left-out": ((1000, 0.6, 0.2, 0.03, 5), 666,
                 "2c952c10e2416a068dfc9cff7b455ed9cc4013399b0d4a77ed820cf56fc9d4ca",
                 3353707802607234608),
    "every-frame": ((777, 1.0, 0.3, 0.1, 6), 777,
                    "0111b3195091aa5ef5e9f8e6e29a294a5f832cf01d7dfcba743b81174e5af62e",
                    6828488775276239603),
}


def reference_distinct_sorted(n, k, rng):
    """``_distinct_sorted`` as it was before top-ups merged into the sorted
    pick: each round re-sorts the whole pick with the new draws."""
    if 2 * k > n:
        out = reference_distinct_sorted(n, n - k, rng)
        j = np.arange(k, dtype=np.int64)
        return j + np.searchsorted(out - np.arange(out.size), j, side="right")
    picked = np.empty(0, dtype=np.int64)
    while picked.size < k:
        picked = np.sort(np.concatenate([picked, rng.integers(0, n, size=k - picked.size)]))
        picked = picked[np.insert(np.diff(picked) != 0, 0, True)]
    return picked


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
        src = SourceModel(rep_rate_hz=1.0e6)
        det = DetectorModel(dark_rate_hz=41.7)
        assert p_dark_per_gate(src, det) == pytest.approx(4.17e-5, rel=1e-12)
        det = DetectorModel(dark_rate_hz=15.40)
        assert p_dark_per_gate(src, det) == pytest.approx(1.54e-5, rel=1e-12)
        # the detector gates at the source's rate
        assert p_dark_per_gate(SourceModel(rep_rate_hz=2.0e6), det) == pytest.approx(
            7.7e-6, rel=1e-12
        )

    def test_no_dark_counts(self):
        assert p_dark_per_gate(SourceModel(), DetectorModel(dark_rate_hz=0.0)) == 0.0


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
    """Monte-Carlo gates through ``sample_clicks``: clicks drawn first."""

    def test_deterministic_noiseless_click(self):
        for n in (1, 200):  # a single gate and a block of them
            r = sample_clicks(n, 1.0, 0.0, 0.0, np.random.default_rng(7))
            assert r.frames.tolist() == list(range(n))
            match = r.tx_bases == r.rx_bases
            assert np.array_equal(r.rx_bits[match], r.tx_bits[match])

    def test_silent_link_never_clicks(self):
        for n in (1, 200):
            r = sample_clicks(n, 0.0, 0.0, 0.0, np.random.default_rng(7))
            assert len(r) == 0 and r.n_frames == n
            assert r.frames.dtype == np.int64 and r.rx_bits.dtype == np.uint8

    def test_monte_carlo_matches_closed_form(self):
        n = 1_000_000
        p_sig, p_dark, e_opt = 9.95e-4, 4.17e-5, 0.01
        r = sample_clicks(n, p_sig, p_dark, e_opt, np.random.default_rng(20260816))

        p_click = p_sig + p_dark - p_sig * p_dark
        sigma_click = np.sqrt(p_click * (1 - p_click) / n)
        assert abs(len(r) / n - p_click) < 3 * sigma_click

        match = r.tx_bases == r.rx_bases
        n_match = int(match.sum())
        err = float((r.rx_bits[match] != r.tx_bits[match]).mean())
        q = expected_qber(p_sig, p_dark, e_opt)
        sigma_err = np.sqrt(q * (1 - q) / n_match)
        assert abs(err - q) < 3 * sigma_err

    def test_origin_split_matches_per_gate_model(self):
        # bright signal and dark counts: a gate where both fire is a signal
        # click, so matched-basis errors are 1/2 P(dark only) / p_click
        n, p_sig, p_dark = 200_000, 0.3, 0.3
        r = sample_clicks(n, p_sig, p_dark, 0.0, np.random.default_rng(13))
        p_click = p_sig + p_dark - p_sig * p_dark
        assert abs(len(r) / n - p_click) < 4 * np.sqrt(p_click * (1 - p_click) / n)
        match = r.tx_bases == r.rx_bases
        q = 0.5 * p_dark * (1 - p_sig) / p_click
        err = float((r.rx_bits[match] != r.tx_bits[match]).mean())
        assert abs(err - q) < 4 * np.sqrt(q * (1 - q) / match.sum())

    def test_mismatched_basis_is_coin_flip(self):
        n = 200_000
        r = sample_clicks(n, 0.5, 0.0, 0.0, np.random.default_rng(11))
        mismatch = r.tx_bases != r.rx_bases
        agree = float((r.rx_bits[mismatch] == r.tx_bits[mismatch]).mean())
        assert abs(agree - 0.5) < 4 * np.sqrt(0.25 / mismatch.sum())

    def test_identical_seed_identical_outcomes(self):
        a = sample_clicks(1000, 0.1, 0.01, 0.02, np.random.default_rng(5))
        b = sample_clicks(1000, 0.1, 0.01, 0.02, np.random.default_rng(5))
        for name in ("frames", "tx_bases", "tx_bits", "rx_bases", "rx_bits"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bad_inputs_rejected(self):
        rng = np.random.default_rng(0)
        # no frame, p_sig above 1, negative p_dark, e_opt at 0.5
        bad = ((0, 0.1, 0.0, 0.0), (3, 1.5, 0.0, 0.0), (3, 0.1, -0.1, 0.0), (3, 0.1, 0.0, 0.5))
        for args in bad:
            with pytest.raises(ValueError):
                sample_clicks(*args, rng)

    def test_cost_grows_with_clicks_not_frames(self):
        t0 = time.perf_counter()
        r = sample_clicks(10**12, 1e-9, 0.0, 0.0, np.random.default_rng(1))
        assert time.perf_counter() - t0 < 1.0
        assert 0 < len(r) < 2000 and r.frames[-1] < 10**12

    @pytest.mark.parametrize("n, k", [
        (8_000_000, 600), (8_000_000, 5_500), (8_000_000, 20_000), (8_000_000, 54_000),
        (100_000, 20_000), (1_000, 0), (1_000, 700), (1_000, 1_000), (10, 5),
        (2**32, 5_000), (2**32 + 1, 5_000), (10**12, 1_000),  # both sides of the uint32 draw
    ])
    def test_distinct_sorted_matches_reference(self, n, k):
        # same integers and same draws from the generator, seed by seed
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = _distinct_sorted(n, k, rng)
            assert out.dtype == np.int64
            assert np.array_equal(out, reference_distinct_sorted(n, k, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", sorted(SAMPLER_PINS))
    def test_sampler_pinned(self, case):
        # k = 0, top-up rounds for repeated draws (even and odd k), the
        # left-out branch, and p_click = 1; pinned before the draws were sped up
        (n, p_sig, p_dark, e_opt, seed), clicks, digest, after = SAMPLER_PINS[case]
        rng = np.random.default_rng(seed)
        r = sample_clicks(n, p_sig, p_dark, e_opt, rng)
        h = hashlib.sha256()
        for name in ("frames", "tx_bases", "tx_bits", "rx_bases", "rx_bits"):
            h.update(getattr(r, name).tobytes())
        assert (len(r), h.hexdigest(), int(rng.integers(0, 2**63))) == (clicks, digest, after)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_random_bytes_are_the_generators_bytes_and_bits(self, buffered):
        # _random_bytes(rng, m) is rng.bytes(m), and the top bit of each byte is
        # rng.integers(0, 2, m, dtype=np.uint8); each leaves rng as the other
        # does, but for bytes(0), which draws a word
        for size in [*range(42), 40_001]:
            gens = [np.random.default_rng(size) for _ in range(4)]
            if buffered:  # an odd uint32 draw leaves half a 64-bit word for the next
                for g in gens:
                    g.integers(0, 5, size=3, dtype=np.uint32)
            got, ref, got_bits, ref_bits = gens
            assert _random_bytes(got, size).tobytes() == ref.bytes(size)
            assert (got.bit_generator.state == ref.bit_generator.state) == (size > 0)
            assert np.array_equal(
                _random_bytes(got_bits, size) >> 7,
                ref_bits.integers(0, 2, size=size, dtype=np.uint8),
            )
            assert got_bits.bit_generator.state == ref_bits.bit_generator.state

    @pytest.mark.parametrize("k", [2, 5])  # the drawn and the left-out branch
    def test_click_frames_uniform_over_subsets(self, k):
        rng = np.random.default_rng(k)
        draws = 6000
        counts = Counter(tuple(_distinct_sorted(6, k, rng).tolist()) for _ in range(draws))
        subsets = list(itertools.combinations(range(6), k))
        assert sorted(counts) == subsets
        mean = draws / len(subsets)
        assert all(abs(c - mean) < 5 * math.sqrt(mean) for c in counts.values())


class TestAttenuationToLength:
    def test_zero(self):
        assert attenuation_to_length(0.0) == 0.0

    def test_standard_fiber(self):
        assert attenuation_to_length(10.0) == 50.0
        assert attenuation_to_length(4.0) == 20.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            attenuation_to_length(-1.0)


class TestModels:
    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceModel(mean_photon_number=0.0)
        with pytest.raises(ValueError):
            SourceModel(rep_rate_hz=0.0)
        with pytest.raises(ValueError, match="rep_rate_hz"):
            SourceModel(rep_rate_hz=float("inf"))
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
        with pytest.raises(ValueError, match="gate_width_ns"):
            DetectorModel(gate_width_ns=float("inf"))

    def test_budget_sums_components(self):
        b = LinkBudget.of(("router", 1.70), ("eATT", 5.0), ("fiber", 0.3))
        assert b.total_db == pytest.approx(7.0, rel=1e-12)
        assert b.transmittance == pytest.approx(transmittance(7.0), rel=1e-12)

    def test_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            LinkBudget.of(("gain?", -1.0))
