"""Prepare/measure/sift pipeline, reconciliation, flip masks, and sessions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmqkd.photonics import DetectorModel, SourceModel, expected_qber
from wdmqkd.protocol import (
    BlockAlignmentError,
    DetectionTrain,
    FlipMask,
    InsufficientDetectionsError,
    KeyBlock,
    LengthMismatchError,
    PulseTrain,
    ReconciliationError,
    SampleSizeError,
    SessionAbortError,
    SessionConfig,
    Transcript,
    apply_flip_mask,
    compute_flip_mask,
    estimate_qber,
    generate_train,
    measure_train,
    reconcile,
    run_session,
    sift,
)
from wdmqkd.router import ChannelId

CH = ChannelId(0)
SRC = SourceModel()


def make_blocks(bits_a, bits_b, link=None):
    frames = np.arange(len(bits_a), dtype=np.int64)
    return (
        KeyBlock(np.array(bits_a, dtype=np.uint8), frames, link),
        KeyBlock(np.array(bits_b, dtype=np.uint8), frames, link),
    )


@st.composite
def bit_pairs(draw, min_size=1, max_size=200):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    a = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return a, b


class TestTrains:
    def test_generate_is_reproducible(self):
        t1 = generate_train(4, CH, SRC, np.random.default_rng(3))
        t2 = generate_train(4, CH, SRC, np.random.default_rng(3))
        assert np.array_equal(t1.bases, t2.bases)
        assert np.array_equal(t1.bits, t2.bits)
        assert len(t1) == 4

    def test_generate_is_balanced(self):
        t = generate_train(100_000, CH, SRC, np.random.default_rng(1))
        assert 0.49 <= t.bits.mean() <= 0.51
        assert 0.49 <= t.bases.mean() <= 0.51

    def test_generate_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_train(0, CH, SRC, np.random.default_rng(0))

    def test_record_view(self):
        # frame i is element i of every array; channel and mu are per train
        t = generate_train(5, CH, SRC, np.random.default_rng(9))
        assert len(t) == t.bases.size == t.bits.size == 5
        assert t.channel == CH and t.mu == SRC.mean_photon_number
        assert not t.bases.flags.writeable and not t.bits.flags.writeable

    def test_measure_noiseless(self):
        train = generate_train(4000, CH, SRC, np.random.default_rng(2))
        det = measure_train(
            train, DetectorModel(dark_rate_hz=0.0), 1.0, 0.0, np.random.default_rng(3)
        )
        assert det.clicked.all()
        match = det.bases == train.bases
        assert np.array_equal(det.bits[match], train.bits[match])

    def test_measure_dead_link(self):
        train = generate_train(1000, CH, SRC, np.random.default_rng(2))
        det = measure_train(
            train, DetectorModel(dark_rate_hz=0.0), 0.0, 0.0, np.random.default_rng(3)
        )
        assert not det.clicked.any()

    def test_measure_click_rate(self):
        n = 1_000_000
        p_sig, p_dark = 9.95e-4, 4.17e-5
        train = generate_train(n, CH, SRC, np.random.default_rng(5))
        det = measure_train(
            train,
            DetectorModel(dark_rate_hz=p_dark * 1e6),
            p_sig,
            0.01,
            np.random.default_rng(6),
        )
        p_click = p_sig + p_dark - p_sig * p_dark
        sigma = np.sqrt(p_click * (1 - p_click) / n)
        assert abs(det.clicked.mean() - p_click) < 4 * sigma

    def test_detection_record_view(self):
        det = DetectionTrain(
            bases=np.array([0, 1], dtype=np.uint8),
            clicked=np.array([True, False]),
            bits=np.array([1, 1], dtype=np.uint8),
        )
        assert len(det) == 2
        assert det.bases.tolist() == [0, 1]
        assert det.clicked.tolist() == [True, False]
        assert det.bits.tolist() == [1, 0]  # a no-click carries no bit

    def test_pulse_record_validation(self):
        with pytest.raises(ValueError):  # bases must be binary
            PulseTrain(channel=CH, mu=0.1, bases=np.array([2]), bits=np.array([0]))
        with pytest.raises(ValueError):  # bits must be binary
            PulseTrain(channel=CH, mu=0.1, bases=np.array([0]), bits=np.array([3]))
        with pytest.raises(ValueError):
            PulseTrain(channel=CH, mu=0.0, bases=np.array([0]), bits=np.array([0]))
        with pytest.raises(ValueError):
            PulseTrain(channel=CH, mu=0.1, bases=np.array([0, 1]), bits=np.array([0]))
        with pytest.raises(ValueError):
            DetectionTrain(
                bases=np.array([0]), clicked=np.array([True, False]), bits=np.array([0])
            )


class TestSift:
    def test_noiseless_halves_and_agrees(self):
        n = 20_000
        train = generate_train(n, CH, SRC, np.random.default_rng(4))
        det = measure_train(
            train, DetectorModel(dark_rate_hz=0.0), 1.0, 0.0, np.random.default_rng(5)
        )
        a, b = sift(train, det)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.frames, b.frames)
        sigma = np.sqrt(0.25 / n)
        assert abs(len(a) / n - 0.5) < 4 * sigma

    def test_zero_clicks_flagged_empty(self):
        train = generate_train(100, CH, SRC, np.random.default_rng(4))
        det = measure_train(
            train, DetectorModel(dark_rate_hz=0.0), 0.0, 0.0, np.random.default_rng(5)
        )
        a, b = sift(train, det)
        assert len(a) == 0 and len(b) == 0
        assert a.aligned_with(b)

    def test_noisy_mismatch_matches_prediction(self):
        n = 1_000_000
        p_sig, p_dark, e_opt = 9.95e-4, 4.17e-5, 0.01
        train = generate_train(n, CH, SRC, np.random.default_rng(7))
        det = measure_train(
            train,
            DetectorModel(dark_rate_hz=p_dark * 1e6),
            p_sig,
            e_opt,
            np.random.default_rng(8),
        )
        a, b = sift(train, det)
        q = expected_qber(p_sig, p_dark, e_opt)
        err = (a.bits != b.bits).mean()
        sigma = np.sqrt(q * (1 - q) / len(a))
        assert abs(err - q) < 4 * sigma

    def test_misaligned_trains_rejected(self):
        t1 = generate_train(10, CH, SRC, np.random.default_rng(0))
        t2 = generate_train(11, CH, SRC, np.random.default_rng(0))
        det = measure_train(
            t2, DetectorModel(dark_rate_hz=0.0), 1.0, 0.0, np.random.default_rng(1)
        )
        with pytest.raises(BlockAlignmentError):
            sift(t1, det)

    def test_keeps_only_clicked_matching_frames(self):
        train = PulseTrain(
            channel=CH,
            mu=0.1,
            bases=np.array([0, 0, 1, 1], dtype=np.uint8),
            bits=np.array([1, 0, 1, 0], dtype=np.uint8),
        )
        det = DetectionTrain(
            bases=np.array([0, 1, 1, 1], dtype=np.uint8),
            clicked=np.array([True, True, False, True]),
            bits=np.array([1, 0, 1, 1], dtype=np.uint8),
        )
        a, b = sift(train, det)
        # frame 0: clicked + matched; frame 1: basis mismatch; frame 2: no
        # click; frame 3: clicked + matched
        assert a.frames.tolist() == [0, 3]
        assert a.bits.tolist() == [1, 0]
        assert b.bits.tolist() == [1, 1]


class TestEstimateQber:
    def test_identical_blocks(self):
        a, b = make_blocks([0, 1] * 50, [0, 1] * 50)
        est = estimate_qber(a, b, 0.5, np.random.default_rng(0))
        assert est.estimate == 0.0
        assert est.n_mismatched == 0

    def test_complementary_blocks(self):
        a, b = make_blocks([0, 1] * 50, [1, 0] * 50)
        est = estimate_qber(a, b, 0.5, np.random.default_rng(0))
        assert est.estimate == 1.0

    def test_five_percent_full_disclosure(self):
        bits = [0] * 100
        noisy = [0] * 100
        for i in (3, 20, 41, 77, 98):
            noisy[i] = 1
        a, b = make_blocks(bits, noisy)
        est = estimate_qber(a, b, 1.0, np.random.default_rng(0))
        assert est.estimate == 0.05
        assert est.n_sampled == 100
        assert len(est.remaining_a) == 0

    def test_sample_removed_from_blocks(self):
        a, b = make_blocks([0, 1] * 100, [0, 1] * 100)
        est = estimate_qber(a, b, 0.25, np.random.default_rng(1))
        assert est.n_sampled == 50
        assert len(est.remaining_a) == 150
        assert est.remaining_a.aligned_with(est.remaining_b)
        sampled_frames = set(a.frames[est.sample_indices].tolist())
        assert sampled_frames.isdisjoint(est.remaining_a.frames.tolist())

    def test_misaligned_rejected(self):
        a, _ = make_blocks([0, 1], [0, 1])
        c = KeyBlock(np.array([0, 1], dtype=np.uint8), np.array([5, 9], dtype=np.int64))
        with pytest.raises(BlockAlignmentError):
            estimate_qber(a, c, 0.5, np.random.default_rng(0))

    def test_bad_sample_sizes(self):
        a, b = make_blocks([0, 1], [0, 1])
        with pytest.raises(SampleSizeError):
            estimate_qber(a, b, 1.5, np.random.default_rng(0))
        empty = KeyBlock(np.array([], dtype=np.uint8), np.array([], dtype=np.int64))
        with pytest.raises(SampleSizeError):
            estimate_qber(empty, empty, 0.5, np.random.default_rng(0))


class TestReconcile:
    def test_identical_blocks_leak_parities_only(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 256, dtype=np.uint8)
        a, b = make_blocks(bits, bits.copy(), link=(0, 1))
        t = Transcript()
        ca, cb, leaked = reconcile(a, b, 0.0, t, rng=np.random.default_rng(1))
        assert np.array_equal(cb.bits, bits)
        # estimate 0 clamps to the 0.005 floor: every pass uses 146-bit
        # blocks (doubling is capped), so 4 passes of 2 block parities
        # plus the 64 final-check bits
        assert leaked == 72
        assert leaked == t.parity_bit_count()

    def test_single_error_found_and_flipped(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 256, dtype=np.uint8)
        wrong = bits.copy()
        wrong[137] ^= 1
        a, b = make_blocks(bits, wrong, link=(0, 1))
        ca, cb, _ = reconcile(a, b, 1 / 256, Transcript(), rng=np.random.default_rng(3))
        assert np.array_equal(cb.bits, bits)
        assert np.array_equal(ca.bits, a.bits)

    @pytest.mark.parametrize("trial", range(5))
    def test_three_percent_converges(self, trial):
        rng = np.random.default_rng(500 + trial)
        bits = rng.integers(0, 2, 2048, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(2048, size=61, replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        ca, cb, leaked = reconcile(a, b, 0.03, t, rng=rng)
        assert np.array_equal(ca.bits, cb.bits)
        assert leaked == t.parity_bit_count()

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        wrong = bits.copy()
        wrong[5] ^= 1
        a, b = make_blocks(bits, wrong)
        reconcile(a, b, 0.01, Transcript(), rng=rng)
        assert b.bits[5] == wrong[5]

    def test_undetectable_pair_fails_final_check(self):
        # two errors in one block with a single pass: parities agree, the
        # binary search never runs, and only the final check can object
        bits = np.zeros(16, dtype=np.uint8)
        wrong = bits.copy()
        wrong[3] ^= 1
        wrong[11] ^= 1
        a, b = make_blocks(bits, wrong)
        with pytest.raises(ReconciliationError):
            reconcile(a, b, 0.0, Transcript(), rng=np.random.default_rng(0), n_passes=1)

    def test_empty_and_misaligned_rejected(self):
        empty = KeyBlock(np.array([], dtype=np.uint8), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            reconcile(empty, empty, 0.0, Transcript())
        a, _ = make_blocks([0, 1], [0, 1])
        c = KeyBlock(np.array([0, 1], dtype=np.uint8), np.array([4, 7], dtype=np.int64))
        with pytest.raises(BlockAlignmentError):
            reconcile(a, c, 0.0, Transcript())

    @given(
        n=st.integers(min_value=32, max_value=512),
        n_err=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_leak_accounting_exact(self, n, n_err, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        if n_err:
            wrong[rng.choice(n, size=min(n_err, n), replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        try:
            _, _, leaked = reconcile(a, b, min(n_err, n) / n, t, rng=rng)
        except ReconciliationError:
            return  # rare non-convergence still keeps accounting elsewhere
        assert leaked == t.parity_bit_count()


class TestFlipMask:
    def test_worked_example(self):
        reference, other = make_blocks([0, 1, 0, 0], [0, 0, 0, 1])
        mask = compute_flip_mask(reference, other)
        assert mask.positions_one_based == (2, 4)
        fixed = apply_flip_mask(other, mask)
        assert fixed.bits.tolist() == [0, 1, 0, 0]

    def test_identical_gives_empty_mask(self):
        a, b = make_blocks([1, 0, 1], [1, 0, 1])
        mask = compute_flip_mask(a, b)
        assert mask.is_empty
        assert np.array_equal(apply_flip_mask(b, mask).bits, b.bits)

    def test_complement_sets_all(self):
        a, b = make_blocks([0, 1, 0], [1, 0, 1])
        mask = compute_flip_mask(a, b)
        assert len(mask) == 3
        assert mask.positions_one_based == (1, 2, 3)

    def test_length_mismatch_rejected(self):
        a, _ = make_blocks([0, 1], [0, 1])
        c, _ = make_blocks([0, 1, 1], [0, 1, 1])
        with pytest.raises(LengthMismatchError):
            compute_flip_mask(a, c)
        with pytest.raises(LengthMismatchError):
            apply_flip_mask(c, FlipMask(2, np.array([0], dtype=np.int64)))

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            FlipMask(4, np.array([4], dtype=np.int64))
        with pytest.raises(ValueError):
            FlipMask(4, np.array([2, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            FlipMask(4, np.array([-1], dtype=np.int64))
        assert FlipMask(4, np.array([1, 3], dtype=np.int64)).as_bit_array().tolist() == [0, 1, 0, 1]

    @given(bit_pairs())
    @settings(max_examples=100)
    def test_mask_algebra(self, pair):
        a_bits, b_bits = pair
        a, b = make_blocks(a_bits, b_bits)
        mask = compute_flip_mask(a, b)
        assert np.array_equal(apply_flip_mask(b, mask).bits, a.bits)
        twice = apply_flip_mask(apply_flip_mask(b, mask), mask)
        assert np.array_equal(twice.bits, b.bits)
        assert compute_flip_mask(a, a).is_empty


class TestSessionConfig:
    def test_valid_modes(self):
        SessionConfig(server=0, clients=(1,), mode="unicast")
        SessionConfig(server=0, clients=(1, 2), mode="unicast")
        SessionConfig(server=0, clients=(1, 2), mode="multicast")
        SessionConfig(server=0, clients=(1, 2, 3), mode="broadcast")

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SessionConfig(server=1, clients=(1, 2))
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=())
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1, 2, 3), mode="unicast")
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1,), mode="multicast")
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1,), mode="anycast")
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1,), n_frames=0)
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1,), sample_fraction=1.0)
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1,), qber_abort_threshold=0.6)

    def test_clients_sorted_and_deduplicated(self):
        cfg = SessionConfig(server=0, clients=(3, 1, 2), mode="multicast")
        assert cfg.clients == (1, 2, 3)
        with pytest.raises(ValueError):
            SessionConfig(server=0, clients=(1, 1), mode="multicast")


class TestRunSession:
    def test_noiseless_broadcast_agrees(self, fake_network):
        net = fake_network(n_ports=4, seed=1, p_sig=1.0, p_dark=0.0, e_opt=0.0)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1)
        result = run_session(cfg, net)
        assert result.key_length > 0
        for c in (1, 2, 3):
            assert np.array_equal(result.client_keys[c], result.final_key)
            assert result.link_for(c).qber_measured == 0.0

    def test_unicast_relay_via_flip_mask(self, fake_network):
        net = fake_network(n_ports=4, seed=2, p_sig=0.5)
        cfg = SessionConfig(
            server=0, clients=(1, 2), mode="unicast", n_frames=1500, seed=2
        )
        result = run_session(cfg, net)
        assert np.array_equal(result.client_keys[1], result.client_keys[2])
        kinds = [m.kind for m in result.transcript]
        assert kinds.count("KeyRequest") == 2
        masks = [m for m in result.transcript if m.kind == "FlipMask"]
        assert {m.receiver for m in masks} == {1, 2}
        # the reference client's mask is empty; the relayed one need not be
        ref_mask = next(m for m in masks if m.receiver == result.reference_client)
        assert ref_mask.payload["n_flips"] == 0

    def test_noisy_broadcast_agrees_and_accounts(self, fake_network):
        net = fake_network(n_ports=4, seed=3, p_sig=0.05, p_dark=1e-4, e_opt=0.02)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=3)
        result = run_session(cfg, net)
        keys = list(result.client_keys.values())
        for k in keys[1:]:
            assert np.array_equal(k, keys[0])
        for link in result.links:
            assert link.leaked_bits == result.transcript.parity_bit_count(
                link=(0, link.client)
            )
            assert link.final_length <= link.n_sifted - link.n_sampled
            q = expected_qber(net.p_sig, net.p_dark, net.e_opt)
            sigma = np.sqrt(q * (1 - q) / link.n_sifted)
            assert abs(link.qber_measured - q) < 5 * sigma

    def test_abort_on_injected_errors(self, fake_network):
        net = fake_network(n_ports=4, seed=4, p_sig=0.1, e_opt=0.3)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=5000, seed=4)
        with pytest.raises(SessionAbortError) as exc_info:
            run_session(cfg, net)
        diag = exc_info.value.diagnostics
        assert {d.client for d in diag} == {1, 2, 3}
        assert all(d.qber_estimate >= 0.11 for d in diag)
        assert all(d.final_length == 0 for d in diag)

    def test_insufficient_detections(self, fake_network):
        net = fake_network(n_ports=4, seed=5, p_sig=0.0, p_dark=0.0)
        cfg = SessionConfig(
            server=0, clients=(1,), mode="unicast", n_frames=500, seed=5
        )
        with pytest.raises(InsufficientDetectionsError):
            run_session(cfg, net)

    def test_broadcast_completeness_enforced(self, fake_network):
        net = fake_network(n_ports=5, seed=6)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), mode="broadcast", seed=6)
        with pytest.raises(ValueError):
            run_session(cfg, net)

    def test_deterministic_given_seed(self, fake_network):
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=4000, seed=7)
        r1 = run_session(cfg, fake_network(n_ports=4, seed=7, p_sig=0.1, e_opt=0.02))
        r2 = run_session(cfg, fake_network(n_ports=4, seed=7, p_sig=0.1, e_opt=0.02))
        assert np.array_equal(r1.final_key, r2.final_key)
        assert r1.transcript.render_text() == r2.transcript.render_text()

    def test_final_key_not_in_transcript(self, fake_network):
        net = fake_network(n_ports=4, seed=8, p_sig=0.3, e_opt=0.02)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=3000, seed=8)
        result = run_session(cfg, net)
        assert result.key_length >= 64
        text = result.transcript.render_text()
        key_bits = "".join(str(int(b)) for b in result.final_key)
        key_hex = np.packbits(result.final_key).tobytes().hex()
        assert key_bits not in text
        assert key_hex not in text
        for msg in result.transcript:
            for value in msg.payload.values():
                if isinstance(value, (bytes, bytearray)):
                    assert bytes(value).hex() != key_hex

    def test_transcript_sequencing(self, fake_network):
        net = fake_network(n_ports=4, seed=9, p_sig=0.2)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=1000, seed=9)
        result = run_session(cfg, net)
        seqs = [m.seq for m in result.transcript]
        assert seqs == list(range(len(seqs)))
        times = [m.time_ns for m in result.transcript]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        assert result.transcript.messages[0].kind == "KeyRequest"

    def test_ports_validated_against_network(self, fake_network):
        net = fake_network(n_ports=4, seed=10)
        with pytest.raises(ValueError):
            run_session(
                SessionConfig(server=0, clients=(9,), mode="unicast"), net
            )


class TestTranscript:
    def test_kind_validation(self):
        t = Transcript()
        with pytest.raises(ValueError):
            t.append("Telegram", 0, 1, (0, 1), {})

    def test_parity_count_by_link(self):
        t = Transcript()
        t.append("ParityReply", 0, 1, (0, 1), {"n_bits": 3})
        t.append("ParityReply", 0, 2, (0, 2), {"n_bits": 5})
        t.append("FinalCheck", 0, 1, (0, 1), {"n_bits": 64})
        t.append("FinalCheck", 1, 0, (0, 1), {"seed": 1})  # query: no bits
        assert t.parity_bit_count() == 72
        assert t.parity_bit_count(link=(0, 1)) == 67
        assert t.parity_bit_count(link=(0, 2)) == 5

    def test_listener_and_clock(self):
        seen = []
        clock = iter(range(100, 200)).__next__
        t = Transcript(session_id=5, clock=clock, listener=seen.append)
        t.append("KeyRequest", 1, 0, (0, 1), {"mode": "unicast"})
        t.append("Abort", 0, 1, (0, 1), {"reason": "test"})
        assert len(seen) == 2
        assert seen[0].time_ns == 100 and seen[1].time_ns == 101
        assert seen[0].session_id == 5

    def test_render_text_is_stable(self):
        t = Transcript()
        t.append("KeyRequest", 1, 0, (0, 1), {"mode": "broadcast", "n_frames": 10})
        t.append("ParityReply", 0, 1, (0, 1), {"n_bits": 2, "parities": b"\xa0"})
        text = t.render_text()
        assert text.splitlines() == [
            "0 0 KeyRequest 1>0 link=0-1 mode='broadcast' n_frames=10",
            "1 1 ParityReply 0>1 link=0-1 n_bits=2 parities=0xa0",
        ]
