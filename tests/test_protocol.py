"""Click records and sifting, reconciliation, flip masks, and sessions."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmqkd.photonics import ClickRecord, expected_qber, sample_clicks
from wdmqkd.protocol import (
    FINAL_CHECK_SUBSETS,
    N_PASSES,
    FlipMask,
    InsufficientDetectionsError,
    KeyBlock,
    PARITY_KINDS,
    ReconciliationError,
    SessionAbortError,
    SessionConfig,
    Transcript,
    apply_flip_mask,
    compute_flip_mask,
    estimate_qber,
    reconcile,
    run_session,
    sift,
)


def make_blocks(bits_a, bits_b, link=None):
    frames = np.arange(len(bits_a), dtype=np.int64)
    return (
        KeyBlock(np.array(bits_a, dtype=np.uint8), frames, link),
        KeyBlock(np.array(bits_b, dtype=np.uint8), frames, link),
    )


def disclosed_parity_bits(transcript, bits):
    """Sum of ``n_bits`` over the parity replies, checking each one's shape.

    Every bisection reply must answer the query before it: one parity of
    ``bits`` per int64 range ``[lo, hi)`` of the announced permutation,
    packed into exactly ``(n_bits + 7) // 8`` bytes, with no single-bit
    ``parity`` field for leak counters to mistake it by.
    """
    messages = list(transcript)
    perms = {}
    total = 0
    for prev, m in zip([None] + messages, messages):
        if m.kind == "PermutationSeed":
            perms[m.payload["pass"]] = np.random.default_rng(m.payload["seed"]).permutation(
                bits.size
            )
        if not (m.kind == "ParityReply" or (m.kind == "FinalCheck" and "digest" in m.payload)):
            continue
        n_bits = m.payload["n_bits"]
        packed = m.payload["parities" if m.kind == "ParityReply" else "digest"]
        assert len(packed) == (n_bits + 7) // 8
        assert "parity" not in m.payload
        total += n_bits
        if m.kind == "ParityReply" and "block_size" not in m.payload:
            assert prev.kind == "ParityQuery" and prev.payload["pass"] == m.payload["pass"]
            lo = np.frombuffer(prev.payload["lo"], dtype=np.int64)
            hi = np.frombuffer(prev.payload["hi"], dtype=np.int64)
            assert lo.size == hi.size == n_bits > 0
            perm = perms[m.payload["pass"]]
            expected = [int(bits[perm[l:h]].sum()) & 1 for l, h in zip(lo, hi)]
            assert np.unpackbits(np.frombuffer(packed, np.uint8))[:n_bits].tolist() == expected
    return total


def final_check_reference(seed, bits, n_subsets):
    """The final check's parities of ``bits`` by matrix product: one row of
    packed bits per subset, drawn as the seed's first bytes."""
    n, n_bytes = bits.size, (bits.size + 7) // 8
    packed = np.frombuffer(
        np.random.default_rng(seed).bytes(n_subsets * n_bytes), np.uint8
    ).reshape(n_subsets, n_bytes)
    masks = np.unpackbits(packed, axis=1, count=n)
    return ((masks.astype(np.int64) @ bits.astype(np.int64)) & 1).astype(np.uint8)


def reference_reconcile(a, b, qber_estimate, transcript, rng):
    """The dense form of ``reconcile``: every round recomputes b's prefix
    parities of the pass it bisects, every pass keeps an int64 block map,
    and the final check takes both digests by matrix product over the
    unpacked (subsets × n) masks."""
    if not a.aligned_with(b):
        raise ValueError("blocks to reconcile must share their frame list")
    n = len(a)
    if n == 0:
        raise ValueError("cannot reconcile empty blocks")
    if not 0 <= qber_estimate <= 1:
        raise ValueError(f"error estimate must be a fraction, got {qber_estimate}")
    link = a.link
    server = link[0] if link else None
    client = link[1] if link else None

    def prefix_parities(bits, perm):
        pre = np.zeros(perm.size + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(bits[perm], out=pre[1:])
        return pre

    ab = a.bits.copy()
    bb = b.bits.copy()
    k1 = min(n, max(1, math.ceil(0.73 / max(qber_estimate, 0.005))))
    k_cap = max(k1, n // 2)
    passes = []  # (block size, perm, block_of, prefix parities of a, odd flags)

    def bisect_and_flip(q):
        k, perm, _, pre_a, odd = passes[q]
        pre_b = prefix_parities(bb, perm)
        lo = np.flatnonzero(odd) * k
        hi = np.minimum(lo + k, n)
        while (open_ := np.flatnonzero(hi - lo > 1)).size:
            qlo = lo[open_]
            mid = (qlo + hi[open_]) // 2
            transcript.append(
                "ParityQuery", client, server, link,
                {"pass": q, "lo": qlo.tobytes(), "hi": mid.tobytes()},
            )
            par_a = pre_a[mid] ^ pre_a[qlo]
            transcript.append(
                "ParityReply", server, client, link,
                {"pass": q, "parities": np.packbits(par_a).tobytes(), "n_bits": mid.size},
            )
            left = par_a != pre_b[mid] ^ pre_b[qlo]
            hi[open_[left]] = mid[left]
            lo[open_[~left]] = mid[~left]
        wrong = perm[lo]
        bb[wrong] ^= 1
        for _, _, block_of, _, other_odd in passes:
            np.bitwise_xor.at(other_odd, block_of[wrong], True)

    for p in range(N_PASSES):
        k = min(k1 << p, k_cap)
        seed = int(rng.integers(0, 2**63))
        transcript.append("PermutationSeed", client, server, link, {"pass": p, "seed": seed})
        perm = np.random.default_rng(seed).permutation(n)
        block_of = np.empty(n, dtype=np.int64)
        block_of[perm] = np.arange(n, dtype=np.int64) // k
        starts = np.arange(0, n, k)
        ends = np.minimum(starts + k, n)
        transcript.append("ParityQuery", client, server, link, {"pass": p, "block_size": k})
        pre_a = prefix_parities(ab, perm)
        server_par = pre_a[ends] ^ pre_a[starts]
        transcript.append(
            "ParityReply", server, client, link,
            {
                "pass": p,
                "block_size": k,
                "parities": np.packbits(server_par).tobytes(),
                "n_bits": starts.size,
            },
        )
        pre_b = prefix_parities(bb, perm)
        passes.append((k, perm, block_of, pre_a, server_par != pre_b[ends] ^ pre_b[starts]))
        while odd_passes := [r for r, (*_, odd) in enumerate(passes) if odd.any()]:
            bisect_and_flip(odd_passes[0])

    check_seed = int(rng.integers(0, 2**63))
    transcript.append(
        "FinalCheck", client, server, link,
        {"seed": check_seed, "n_subsets": FINAL_CHECK_SUBSETS},
    )
    digest_a = final_check_reference(check_seed, ab, FINAL_CHECK_SUBSETS)
    transcript.append(
        "FinalCheck", server, client, link,
        {
            "seed": check_seed,
            "digest": np.packbits(digest_a).tobytes(),
            "n_bits": FINAL_CHECK_SUBSETS,
        },
    )
    digest_b = final_check_reference(check_seed, bb, FINAL_CHECK_SUBSETS)
    if not np.array_equal(digest_a, digest_b):
        raise ReconciliationError("final check failed")
    return b.with_bits(bb)


def reconcile_outcome(fn, a, b, estimate, seed):
    """(transcript rows, result or None)."""
    t = Transcript()
    try:
        result = fn(a, b, estimate, t, rng=np.random.default_rng(seed)).bits.tolist()
    except ReconciliationError:
        result = None
    return [(m.seq, m.kind, m.sender, m.receiver, m.link, m.payload) for m in t], result


@st.composite
def bit_pairs(draw, min_size=1, max_size=200):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    a = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return a, b


def record(frames, tx_bases, tx_bits, rx_bases, rx_bits, n_frames=4):
    return ClickRecord(n_frames, frames, tx_bases, tx_bits, rx_bases, rx_bits)


class TestTrains:
    """The click record one pulse train leaves: what ``sift`` takes in."""

    def test_generate_is_reproducible(self):
        r1 = sample_clicks(4, 0.5, 0.1, 0.0, np.random.default_rng(3))
        r2 = sample_clicks(4, 0.5, 0.1, 0.0, np.random.default_rng(3))
        for name in ("frames", "tx_bases", "tx_bits", "rx_bases", "rx_bits"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name))
        assert r1.n_frames == 4 and len(r1) <= 4

    def test_generate_is_balanced(self):
        r = sample_clicks(100_000, 1.0, 0.0, 0.0, np.random.default_rng(1))
        assert len(r) == 100_000
        for arr in (r.tx_bits, r.tx_bases, r.rx_bases):
            assert 0.49 <= arr.mean() <= 0.51

    def test_generate_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_clicks(0, 0.1, 0.0, 0.0, np.random.default_rng(0))

    def test_record_view(self):
        # element i of every array is frame frames[i]; arrays are read-only
        r = sample_clicks(5, 0.6, 0.0, 0.0, np.random.default_rng(9))
        assert len(r) == r.frames.size == r.tx_bits.size == r.rx_bits.size
        assert r.frames.dtype == np.int64
        assert np.all(np.diff(r.frames) > 0) and np.all((0 <= r.frames) & (r.frames < 5))
        for arr in (r.frames, r.tx_bases, r.tx_bits, r.rx_bases, r.rx_bits):
            assert not arr.flags.writeable

    def test_measure_noiseless(self):
        r = sample_clicks(4000, 1.0, 0.0, 0.0, np.random.default_rng(2))
        assert r.frames.tolist() == list(range(4000))  # every frame clicks
        match = r.rx_bases == r.tx_bases
        assert np.array_equal(r.rx_bits[match], r.tx_bits[match])

    def test_measure_dead_link(self):
        r = sample_clicks(1000, 0.0, 0.0, 0.0, np.random.default_rng(2))
        assert len(r) == 0 and r.n_frames == 1000

    def test_measure_click_rate(self):
        n = 1_000_000
        p_sig, p_dark = 9.95e-4, 4.17e-5
        r = sample_clicks(n, p_sig, p_dark, 0.01, np.random.default_rng(5))
        p_click = p_sig + p_dark - p_sig * p_dark
        sigma = np.sqrt(p_click * (1 - p_click) / n)
        assert abs(len(r) / n - p_click) < 4 * sigma

    def test_detection_record_view(self):
        r = record([0, 3], [0, 1], [1, 1], [1, 1], [0, 1])
        assert len(r) == 2 and r.n_frames == 4
        assert r.frames.tolist() == [0, 3]
        assert r.rx_bases.tolist() == [1, 1] and r.rx_bits.tolist() == [0, 1]

    def test_pulse_record_validation(self):
        with pytest.raises(ValueError):  # bases must be binary
            record([0], [2], [0], [0], [0])
        with pytest.raises(ValueError):  # bits must be binary
            record([0], [0], [3], [0], [0])
        with pytest.raises(ValueError):  # one value per click
            record([0, 1], [0, 1], [0], [0, 1], [0, 1])
        with pytest.raises(ValueError):  # frames distinct and sorted
            record([1, 1], [0, 0], [0, 0], [0, 0], [0, 0])
        with pytest.raises(ValueError, match="frames must be distinct, sorted"):
            record([3, 1], [0, 0], [0, 0], [0, 0], [0, 0])
        with pytest.raises(ValueError, match="rx_bits must hold one bit per clicked frame"):
            record([0, 1], [0, 0], [0, 0], [0, 0], [0, 2])
        with pytest.raises(ValueError):  # frames inside the train
            record([4], [0], [0], [0], [0])


class TestKeyBlock:
    """The public constructor and methods check what they are given."""

    def block(self):
        return KeyBlock(np.array([0, 1, 1, 0], dtype=np.uint8), np.array([2, 5, 7, 9]), (0, 1))

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="bits must contain only bits"):
            KeyBlock([0, 2], [1, 2])
        with pytest.raises(ValueError, match="bits must be one-dimensional"):
            KeyBlock([[0, 1]], [[1, 2]])
        with pytest.raises(ValueError, match="equal length"):
            KeyBlock([0, 1], [1])
        for frames in ([2, 1], [1, 1], [-1, 2]):
            with pytest.raises(ValueError, match="frames must be nonnegative and strictly increasing"):
                KeyBlock([0, 1], frames)

    def test_constructor_copies_and_freezes(self):
        bits, frames = np.array([0, 1], dtype=np.uint8), np.array([3, 4])
        k = KeyBlock(bits, frames)
        bits[0], frames[0] = 1, 0
        assert k.bits.tolist() == [0, 1] and k.frames.tolist() == [3, 4]
        assert not k.bits.flags.writeable and not k.frames.flags.writeable

    @pytest.mark.parametrize("idx", [[3, 1], [1, 1], [-1], [0, -1], [[0, 1]]],
                             ids=["unsorted", "repeated", "negative", "negative-last", "2-d"])
    def test_take_rejects_bad_indices(self, idx):
        with pytest.raises(ValueError, match="nonnegative and strictly increasing"):
            self.block().take(idx)

    def test_take(self):
        k = self.block().take([1, 3])
        assert k.bits.tolist() == [1, 0] and k.frames.tolist() == [5, 9] and k.link == (0, 1)
        assert len(self.block().take([])) == 0
        with pytest.raises(IndexError):
            self.block().take([4])

    def test_with_bits_checks(self):
        with pytest.raises(ValueError, match="only bits"):
            self.block().with_bits([0, 2, 0, 1])
        with pytest.raises(ValueError, match="equal length"):
            self.block().with_bits([0, 1])
        assert self.block().with_bits([1, 1, 1, 1]).bits.tolist() == [1, 1, 1, 1]


def assert_derived(obj):
    """``obj`` holds read-only arrays of the public constructor's dtypes,
    and the public constructor takes them back unchanged."""
    if isinstance(obj, KeyBlock):
        arrays = (obj.bits, obj.frames)
        again = KeyBlock(obj.bits, obj.frames, obj.link)
        rebuilt = (again.bits, again.frames)
    elif isinstance(obj, FlipMask):
        arrays, rebuilt = (obj.positions,), (FlipMask(obj.length, obj.positions).positions,)
    else:
        names = ("frames", "tx_bases", "tx_bits", "rx_bases", "rx_bits")
        arrays = tuple(getattr(obj, n) for n in names)
        again = ClickRecord(obj.n_frames, *arrays)
        rebuilt = tuple(getattr(again, n) for n in names)
    for arr, back in zip(arrays, rebuilt):
        assert not arr.flags.writeable
        assert arr.dtype == back.dtype and np.array_equal(arr, back)


class TestDerivedBlocks:
    @given(
        n_frames=st.integers(1, 3000),
        p_sig=st.floats(0.0, 1.0),
        p_dark=st.floats(0.0, 0.2),
        e_opt=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_derived_blocks_are_frozen_and_valid(self, n_frames, p_sig, p_dark, e_opt, seed, cut):
        rng = np.random.default_rng(seed)
        clicks = sample_clicks(n_frames, p_sig, p_dark, e_opt, rng)
        assert_derived(clicks)
        a, b = sift(clicks, link=(0, 1))
        assert_derived(a)
        assert_derived(b)
        if len(a) == 0:
            return
        est = estimate_qber(a, b, 0.25, rng)
        assert_derived(est.remaining_a)
        assert_derived(est.remaining_b)
        if len(est.remaining_a) == 0:
            return
        ra = est.remaining_a
        try:
            rb = reconcile(ra, est.remaining_b, 0.05, Transcript(), rng)
        except ReconciliationError:
            rb = est.remaining_b
        assert_derived(rb)
        length = int(cut * len(ra))
        ta, tb = ra.truncate(length), rb.truncate(length)
        assert_derived(ta)
        assert_derived(tb)
        mask = compute_flip_mask(ta, est.remaining_b.truncate(length))
        assert_derived(mask)
        assert_derived(apply_flip_mask(tb, mask))
        assert_derived(a.take(np.flatnonzero(a.bits)))


class TestSift:
    def test_noiseless_halves_and_agrees(self):
        n = 20_000
        r = sample_clicks(n, 1.0, 0.0, 0.0, np.random.default_rng(4))
        a, b = sift(r)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.frames, b.frames)
        sigma = np.sqrt(0.25 / n)
        assert abs(len(a) / n - 0.5) < 4 * sigma

    def test_zero_clicks_flagged_empty(self):
        r = sample_clicks(100, 0.0, 0.0, 0.0, np.random.default_rng(4))
        a, b = sift(r)
        assert len(a) == 0 and len(b) == 0
        assert a.aligned_with(b)

    def test_noisy_mismatch_matches_prediction(self):
        n = 1_000_000
        p_sig, p_dark, e_opt = 9.95e-4, 4.17e-5, 0.01
        r = sample_clicks(n, p_sig, p_dark, e_opt, np.random.default_rng(7))
        a, b = sift(r)
        q = expected_qber(p_sig, p_dark, e_opt)
        err = (a.bits != b.bits).mean()
        sigma = np.sqrt(q * (1 - q) / len(a))
        assert abs(err - q) < 4 * sigma

    def test_keeps_only_clicked_matching_frames(self):
        # frame 2 did not click; frame 1 clicked with mismatched bases
        r = record([0, 1, 3], [0, 0, 1], [1, 0, 0], [0, 1, 1], [1, 0, 1])
        a, b = sift(r, link=(0, 1))
        assert a.frames.tolist() == [0, 3]
        assert a.bits.tolist() == [1, 0]
        assert b.bits.tolist() == [1, 1]
        assert a.link == b.link == (0, 1)


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
        with pytest.raises(ValueError, match="blocks to compare must share their frame list"):
            estimate_qber(a, c, 0.5, np.random.default_rng(0))

    def test_bad_sample_sizes(self):
        a, b = make_blocks([0, 1], [0, 1])
        with pytest.raises(ValueError, match=re.escape("sample_fraction must be in (0, 1], got 1.5")):
            estimate_qber(a, b, 1.5, np.random.default_rng(0))
        empty = KeyBlock(np.array([], dtype=np.uint8), np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="cannot sample an empty block"):
            estimate_qber(empty, empty, 0.5, np.random.default_rng(0))


class TestReconcile:
    def test_identical_blocks_leak_parities_only(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 256, dtype=np.uint8)
        a, b = make_blocks(bits, bits.copy(), link=(0, 1))
        t = Transcript()
        cb = reconcile(a, b, 0.0, t, rng=np.random.default_rng(1))
        assert np.array_equal(cb.bits, bits)
        # estimate 0 clamps to the 0.005 floor: every pass uses 146-bit
        # blocks (doubling is capped), so 4 passes of 2 block parities
        # plus the 64 final-check bits
        assert t.parity_bit_count() == disclosed_parity_bits(t, bits) == 72

    def test_single_error_found_and_flipped(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 256, dtype=np.uint8)
        wrong = bits.copy()
        wrong[137] ^= 1
        a, b = make_blocks(bits, wrong, link=(0, 1))
        cb = reconcile(a, b, 1 / 256, Transcript(), rng=np.random.default_rng(3))
        assert np.array_equal(cb.bits, bits)

    @pytest.mark.parametrize("trial", range(5))
    def test_three_percent_converges(self, trial):
        rng = np.random.default_rng(500 + trial)
        bits = rng.integers(0, 2, 2048, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(2048, size=61, replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        cb = reconcile(a, b, 0.03, t, rng=rng)
        assert np.array_equal(cb.bits, bits)
        assert t.parity_bit_count() == disclosed_parity_bits(t, bits)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        wrong = bits.copy()
        wrong[5] ^= 1
        a, b = make_blocks(bits, wrong)
        reconcile(a, b, 0.01, Transcript(), rng=rng)
        assert b.bits[5] == wrong[5]

    def test_undetectable_pair_fails_final_check(self):
        # two errors in a 16-bit key: at estimate 0 every pass is one block
        # holding both, so its parities agree, the binary search never runs,
        # and only the final check can object
        bits = np.zeros(16, dtype=np.uint8)
        wrong = bits.copy()
        wrong[3] ^= 1
        wrong[11] ^= 1
        a, b = make_blocks(bits, wrong)
        with pytest.raises(ReconciliationError):
            reconcile(a, b, 0.0, Transcript(), rng=np.random.default_rng(0))

    def test_empty_and_misaligned_rejected(self):
        empty = KeyBlock(np.array([], dtype=np.uint8), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            reconcile(empty, empty, 0.0, Transcript(), rng=np.random.default_rng(0))
        a, _ = make_blocks([0, 1], [0, 1])
        c = KeyBlock(np.array([0, 1], dtype=np.uint8), np.array([4, 7], dtype=np.int64))
        with pytest.raises(ValueError, match="blocks to reconcile must share their frame list"):
            reconcile(a, c, 0.0, Transcript(), rng=np.random.default_rng(0))

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
            cb = reconcile(a, b, min(n_err, n) / n, t, rng=rng)
        except ReconciliationError:
            return  # rare non-convergence still keeps accounting elsewhere
        assert t.parity_bit_count() == disclosed_parity_bits(t, bits)
        assert np.array_equal(cb.bits, bits)

    def test_bisection_levels_batched_in_message_pairs(self):
        rng = np.random.default_rng(10_000)
        n, n_err = 2048, 61
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(n, size=n_err, replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        cb = reconcile(a, b, n_err / n, t, rng=rng)
        assert np.array_equal(cb.bits, bits)
        assert t.parity_bit_count() == disclosed_parity_bits(t, bits)
        widths = [
            m.payload["n_bits"] for m in t
            if m.kind == "ParityReply" and "block_size" not in m.payload
        ]
        assert max(widths) > 1  # one level answers many blocks at once

    def test_message_budget(self):
        # one message pair per bisection step sends about 3,000 messages
        # here, one pair per level about 130
        rng = np.random.default_rng(0)
        n = 20_000
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(n, size=240, replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        cb = reconcile(a, b, 0.012, t, rng=rng)
        assert np.array_equal(cb.bits, bits)
        assert len(t) <= 300

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 513, 10_000])
    def test_final_check_matches_matmul_reference(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        wrong[n // 2] ^= 1
        a, b = make_blocks(bits, wrong)
        t = Transcript()
        cb = reconcile(a, b, 1 / n, t, rng=rng)
        assert np.array_equal(cb.bits, bits)
        reply = t.messages[-1]
        assert reply.kind == "FinalCheck"
        reference = final_check_reference(reply.payload["seed"], bits, 64)
        assert reply.payload["digest"] == np.packbits(reference).tobytes()

    @given(
        n=st.integers(min_value=1, max_value=5000),
        error_rate=st.floats(min_value=0, max_value=0.1),
        estimate=st.floats(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(n=3000, error_rate=0.0, estimate=0.02, seed=1)  # no pass has an error to bisect
    @example(n=41, error_rate=0.025, estimate=0.095, seed=23)  # its error alone in a 1-bit last block
    @example(n=64, error_rate=0.047, estimate=0.047, seed=2)  # three errors in one first-pass block
    @example(n=30_000, error_rate=0.012, estimate=0.012, seed=7)  # a sweep-8M link at 0 dB
    def test_matches_dense_reference(self, n, error_rate, estimate, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(n, size=round(error_rate * n), replace=False)] ^= 1
        a, b = make_blocks(bits, wrong, link=(0, 1))
        assert reconcile_outcome(reconcile, a, b, estimate, seed) == reconcile_outcome(
            reference_reconcile, a, b, estimate, seed
        )

    def test_memory_per_key_bit(self):
        # the dense form peaks at about 145 bytes per key bit here
        n = 200_000
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        wrong = bits.copy()
        wrong[rng.choice(n, size=n // 50, replace=False)] ^= 1
        a, b = make_blocks(bits, wrong)
        tracemalloc.start()
        try:
            cb = reconcile(a, b, 0.02, Transcript(), rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(cb.bits, bits)
        assert peak <= 110 * n


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
        assert len(mask) == 0
        assert np.array_equal(apply_flip_mask(b, mask).bits, b.bits)

    def test_complement_sets_all(self):
        a, b = make_blocks([0, 1, 0], [1, 0, 1])
        mask = compute_flip_mask(a, b)
        assert len(mask) == 3
        assert mask.positions_one_based == (1, 2, 3)

    def test_length_mismatch_rejected(self):
        a, _ = make_blocks([0, 1], [0, 1])
        c, _ = make_blocks([0, 1, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="blocks differ in length: 2 vs 3"):
            compute_flip_mask(a, c)
        with pytest.raises(ValueError, match="mask of length 2 cannot apply to a 3-bit block"):
            apply_flip_mask(c, FlipMask(2, np.array([0], dtype=np.int64)))

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            FlipMask(4, np.array([4], dtype=np.int64))
        with pytest.raises(ValueError):
            FlipMask(4, np.array([2, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            FlipMask(4, np.array([-1], dtype=np.int64))

    @given(bit_pairs())
    @settings(max_examples=100)
    def test_mask_algebra(self, pair):
        a_bits, b_bits = pair
        a, b = make_blocks(a_bits, b_bits)
        mask = compute_flip_mask(a, b)
        assert np.array_equal(apply_flip_mask(b, mask).bits, a.bits)
        twice = apply_flip_mask(apply_flip_mask(b, mask), mask)
        assert np.array_equal(twice.bits, b.bits)
        assert len(compute_flip_mask(a, a)) == 0


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

    def test_negative_seed_rejected(self):
        # numpy's own error would name no field
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            SessionConfig(server=0, clients=(1,), seed=-5)
        assert SessionConfig(server=0, clients=(1,), seed=0).seed == 0

    @pytest.mark.parametrize("field, value", [
        ("n_frames", 2000.5), ("n_frames", 2000.0), ("n_frames", True),
        ("seed", 1.5), ("seed", False), ("seed", "3"),
    ])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SessionConfig(server=0, clients=(1,), **{field: value})

    def test_numpy_integer_counts_kept_as_ints(self):
        cfg = SessionConfig(server=0, clients=(1,), n_frames=np.int64(2000), seed=np.uint32(3))
        assert (cfg.n_frames, cfg.seed) == (2000, 3)
        assert type(cfg.n_frames) is int and type(cfg.seed) is int

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
            # the sample's errors are disclosed; reconciliation corrects the rest
            errors = round(link.qber_measured * link.n_sifted)
            assert link.n_corrected == errors - link.sample_mismatches
            assert link.final_length <= link.n_sifted - link.n_sampled
            q = expected_qber(net.p_sig, net.p_dark, net.e_opt)
            sigma = np.sqrt(q * (1 - q) / link.n_sifted)
            assert abs(link.qber_measured - q) < 5 * sigma
        assert any(link.n_corrected > 0 for link in result.links)

    def test_retried_link_counts_both_attempts(self, fake_network, monkeypatch):
        # the first reconciliation of link 0-2 runs in full, then fails
        attempts = []  # (link, parity bits counted from that attempt's payloads)

        def flaky(a, b, qber_estimate, transcript, *args, **kwargs):
            start = len(transcript)
            out = reconcile(a, b, qber_estimate, transcript, *args, **kwargs)
            attempts.append((a.link, disclosed_parity_bits(transcript.messages[start:], a.bits)))
            if [link for link, _ in attempts] == [(0, 1), (0, 2)]:
                raise ReconciliationError("final check failed")
            return out

        monkeypatch.setattr("wdmqkd.protocol.reconcile", flaky)
        net = fake_network(n_ports=4, seed=3, p_sig=0.05, p_dark=1e-4, e_opt=0.02)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=3)
        result = run_session(cfg, net)
        assert [link for link, _ in attempts] == [(0, 1), (0, 2), (0, 2), (0, 3)]
        for c, key in result.client_keys.items():
            assert np.array_equal(key, result.final_key)
            counted = [bits for link, bits in attempts if link == (0, c)]
            assert result.link_for(c).leaked_bits == sum(counted) > 0
        seeds = [m for m in result.transcript if m.kind == "PermutationSeed"]
        assert [m.link for m in seeds].count((0, 2)) == 8

    def test_abort_on_injected_errors(self, fake_network):
        net = fake_network(n_ports=4, seed=4, p_sig=0.1, e_opt=0.3)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=5000, seed=4)
        with pytest.raises(SessionAbortError) as exc_info:
            run_session(cfg, net)
        diag = exc_info.value.diagnostics
        assert {d.client for d in diag} == {1, 2, 3}
        assert all(d.qber_estimate >= 0.11 for d in diag)
        assert all(d.n_corrected == d.leaked_bits == d.final_length == 0 for d in diag)

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

    def test_parity_tally_equals_full_scan(self, fake_network):
        net = fake_network(n_ports=4, seed=3, p_sig=0.05, p_dark=1e-4, e_opt=0.02)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=3)
        t = run_session(cfg, net).transcript

        def scan(link=None):
            return sum(
                int(m.payload.get("n_bits", 0))
                for m in t.messages
                if m.kind in PARITY_KINDS and (link is None or m.link == link)
            )

        links = {m.link for m in t.messages}
        assert {(0, 1), (0, 2), (0, 3)} <= links
        for link in links:
            assert t.parity_bit_count(link=link) == scan(link)
        assert t.parity_bit_count() == scan() > 0

    def test_messages_are_immutable(self):
        t = Transcript()
        msg = t.append("KeyRequest", 1, 0, (0, 1), {"mode": "unicast"})
        with pytest.raises(AttributeError):
            msg.kind = "Abort"
        assert t.messages == [msg] and msg.kind == "KeyRequest" and msg.seq == 0

    def test_render_text_is_stable(self):
        t = Transcript()
        t.append("KeyRequest", 1, 0, (0, 1), {"mode": "broadcast", "n_frames": 10})
        t.append("ParityReply", 0, 1, (0, 1), {"n_bits": 2, "parities": b"\xa0"})
        text = t.render_text()
        assert text.splitlines() == [
            "0 KeyRequest 1>0 link=0-1 mode='broadcast' n_frames=10",
            "1 ParityReply 0>1 link=0-1 n_bits=2 parities=0xa0",
        ]
