"""Scheduling, the event log, the network harness, and attenuation sweeps."""

import contextlib
import gc
import hashlib
import itertools
import math
import types
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdmqkd import netsim
from wdmqkd.netsim import (
    EventLog,
    Network,
    NetworkSpec,
    SWEEP_CSV_HEADER,
    assign_time_offsets,
    default_fourport_network,
    run_network,
    sweep_attenuation,
    sweep_rows_to_csv,
)
from wdmqkd.photonics import ClickRecord, DetectorModel, SourceModel, expected_qber
from wdmqkd.protocol import (
    MESSAGE_KINDS,
    ClassicalMessage,
    InsufficientDetectionsError,
    KeyBlock,
    SessionAbortError,
    SessionConfig,
    SessionError,
    _payload_repr,
    run_session,
)
from wdmqkd.router import build_assignment, path_loss_db, port_label, uniform_router_spec


def make_spec(n_ports=4, **kwargs):
    router = uniform_router_spec(build_assignment(n_ports))
    source = kwargs.pop("source", SourceModel())
    clients = tuple(p for p in range(n_ports) if p != 0)
    detectors = kwargs.pop(
        "detectors",
        {c: DetectorModel(dark_rate_hz=20.0) for c in clients},
    )
    eatt = kwargs.pop("eatt_db", {c: 0.0 for c in clients})
    return NetworkSpec(
        router=router, server=0, source=source, detectors=detectors,
        eatt_db=eatt, **kwargs,
    )


def without_dark_counts(spec):
    """``spec`` with every detector's dark rate at 0 Hz."""
    detectors = {p: replace(d, dark_rate_hz=0.0) for p, d in spec.detectors.items()}
    return replace(spec, detectors=detectors)


class TestAssignTimeOffsets:
    def test_three_channels(self):
        offs = assign_time_offsets([0, 1, 2], 1000, 100)
        assert offs == {0: 0, 1: 100, 2: 200}
        values = sorted(offs.values())
        assert all(b - a >= 100 for a, b in zip(values, values[1:]))

    def test_single_channel(self):
        assert assign_time_offsets([0], 1000, 100) == {0: 0}

    def test_too_many_channels(self):
        with pytest.raises(ValueError, match="11 channels at 100 ns guard do not fit in a 1000 ns frame"):
            assign_time_offsets(range(11), 1000, 100)

    def test_exactly_full_frame_fits(self):
        offs = assign_time_offsets(range(10), 1000, 100)
        assert len(offs) == 10
        assert max(offs.values()) == 900  # wraparound gap is exactly one guard

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            assign_time_offsets([0, 0], 1000, 100)
        with pytest.raises(ValueError):
            assign_time_offsets([], 1000, 100)
        with pytest.raises(ValueError):
            assign_time_offsets([0], 0, 100)
        with pytest.raises(ValueError):
            assign_time_offsets([0], 1000, 0)


def message_fields(m):
    """A classical message's (kind, port, channel, detail) in the log, from
    its fields: its sender's label, and its kind, link, sequence number and
    the SHA-256 of its payload as the transcript renders it."""
    port = "-" if m.sender is None else port_label(m.sender)
    link = "-" if m.link is None else f"{port_label(m.link[0])}-{port_label(m.link[1])}"
    payload = hashlib.sha256(_payload_repr(m.payload).encode()).hexdigest()[:16]
    return "classical-message", port, "-", f"kind={m.kind} link={link} seq={m.seq} payload={payload}"


def reference_events(log):
    """Every event of ``log`` as (time, kind rank, append order, kind, port,
    channel, detail), expanded line by line and sorted.  Messages sent
    before the window are at 0 and rank before every train line; the rest
    are at the window's end.  Append order within each list is the log's:
    the trains' append order, and the messages' send order."""
    f, period, count = log._window
    events = [
        (t0 + i * period, netsim._TRAIN_KINDS.index(kind), j, kind, *fields)
        for j, (t0, kind, *fields) in enumerate(log._trains) for i in range(count)
    ]
    events += [
        (0, -1, j, *message_fields(m)) if j < log._n_before
        else (f + count * period, 2, j, *message_fields(m))
        for j, m in enumerate(log._messages)
    ]
    return sorted(events, key=lambda x: x[:3])


def reference_lines(log):
    """The log rendered one f-string per line."""
    for time_ns, _, _, kind, port, channel, detail in reference_events(log):
        yield f"{time_ns} {kind} {port} {channel} {detail}".rstrip()


def reference_guard_violations(log, guard_ns):
    """Every pulse arrival expanded into one list in log order and compared
    with its neighbour: the dense form of the check."""
    arrivals = [(t, channel) for t, _, _, kind, _, channel, _ in reference_events(log) if kind == "pulse-arrival"]
    return [
        (t1, c1, t2, c2)
        for (t1, c1), (t2, c2) in zip(arrivals, arrivals[1:])
        if t2 - t1 < guard_ns and c1 != c2
    ]


# fields with spaces, trailing whitespace, format characters and non-ASCII
FIELD = st.text(alphabet="aλ%=d -\t\r\u2028", max_size=5)
POWER_OF_TEN = st.sampled_from([10**j for j in range(1, 19)])
# periods that divide a power of ten, and any period
PERIOD = st.one_of(st.sampled_from((1, 2, 4, 5, 10, 20, 25, 50, 100)), st.integers(1, 60))
# window caps: one-frame blocks, decades of a few frames, and the default
CAP = st.one_of(st.integers(1, 9), st.integers(10, 300), st.just(netsim._WINDOW_LINES))
LIMIT = 2**61
EMPTY = "e3b0c44298fc1c14"  # the payload digest of an empty payload, SHA-256 of ""
# a message's sender and link: none, or ports of a four-port star
SENDER = st.one_of(st.none(), st.integers(0, 3))
LINK = st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
PAYLOAD = st.dictionaries(
    st.sampled_from(("seed", "frames", "reason")),
    st.one_of(st.integers(), st.binary(max_size=4), FIELD),
    max_size=2,
)


def make_log(trains, messages=(), n_before=0):
    """A log as a Network builds it: ``trains`` of (time, period, count,
    kind, port, channel, detail) that share the period and the count of
    the first and start in its frame, and ``messages`` of (kind, sender,
    receiver, link, payload) in send order, the first ``n_before`` sent
    before the window."""
    time0, period, count = trains[0][:3] if trains else (0, 1, 0)
    f = time0 - time0 % period
    assert all((p, n) == (period, count) and f <= t < f + period for t, p, n, *_ in trains)
    sent = [ClassicalMessage(seq, *fields) for seq, fields in enumerate(messages)]
    return EventLog((f, period, count), [(t, *rest) for t, _, _, *rest in trains],
                    sent, n_before)


@st.composite
def window_logs(draw):
    """A log like the ones ``Network`` writes: k channels inside one frame,
    each a pulse train and a gate train of one count at equal times
    appended in either order, and messages sent before and after the
    window, earlier ones first.  Offsets are distinct, as ``Network``
    writes them, or may repeat; channel and port labels may repeat.  The
    window may straddle a power of ten, start at 0 or at or above 2**32,
    reach 2**61, and span a dozen decades of D."""
    k = draw(st.integers(1, 3))
    period = draw(PERIOD.filter(lambda p: p >= k))
    count = draw(st.integers(1, 150))
    span = period * count
    start = draw(st.one_of(
        st.integers(0, 300),
        st.builds(lambda p, d: max(p - d, 0), POWER_OF_TEN, st.integers(0, span)),
        st.integers(2**32 - span, 2**32 + 100),
        st.integers(LIMIT - span - 2 * period, LIMIT - span + period - 1),
        st.integers(0, LIMIT - span),
    ))
    f = start - start % period
    hi_off = min(period, LIMIT - (count - 1) * period - f)
    assume(hi_off >= k)
    offsets = draw(st.lists(st.integers(0, hi_off - 1), min_size=k, max_size=k, unique=draw(st.booleans())))
    trains = []
    for off in offsets:
        channel = draw(FIELD)
        pair = [
            (f + off, period, count, kind, draw(FIELD), channel, draw(FIELD))
            for kind in ("pulse-arrival", "gate-open")
        ]
        trains += pair[::draw(st.sampled_from([1, -1]))]  # either appended first
    messages = [
        (draw(st.sampled_from(MESSAGE_KINDS)), draw(SENDER), None, draw(LINK), draw(PAYLOAD))
        for _ in range(draw(st.integers(0, 6)))
    ]
    n_before = draw(st.integers(0, len(messages)))
    return make_log(trains, messages, n_before)


DECADE_PERIODS = (1, 2, 4, 5, 10, 20, 25, 50, 100)


@st.composite
def decade_logs(draw):
    """A quantum window whose period divides a power of ten D, and a window
    cap under which its blocks are cut at multiples of D: it spans up to a
    dozen decades and may start at 0 or below D, or cross a power of ten in
    its leading digits, with messages before or after it."""
    period = draw(st.sampled_from(DECADE_PERIODS))
    k = draw(st.integers(1, min(3, period)))
    rows = next(10**j for j in range(3) if 10**j % period == 0) // period
    cap = draw(st.integers(rows * 2 * k, 20 * rows * 2 * k - 1))
    span = period * draw(st.integers(1, 12 * rows))
    decade = rows * period
    start = draw(st.one_of(
        st.integers(0, decade),
        st.builds(lambda m, d: 10**m * decade - d, st.integers(1, 3), st.integers(0, 3 * decade)),
        st.integers(0, LIMIT - 1 - span),
    ))
    f = start - start % period
    offsets = draw(st.lists(st.integers(0, period - 1), min_size=k, max_size=k, unique=True))
    trains = [
        (f + off, period, span // period, kind, "A", f"λ{off}", "")
        for off in offsets for kind in ("pulse-arrival", "gate-open")
    ]
    messages = [
        (draw(st.sampled_from(MESSAGE_KINDS)), 1, None, draw(LINK), draw(PAYLOAD))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return make_log(trains, messages, draw(st.integers(0, len(messages)))), cap


def assert_matches_reference(log, caps, guards):
    """Under each window cap, the renders, the digest and the guard checks
    of ``log`` equal the references, and every chunk holds at most the cap,
    or one frame where a frame holds more."""
    expected = list(reference_lines(log))
    text = "".join(line + "\n" for line in expected)
    violations = {guard: reference_guard_violations(log, guard) for guard in guards}
    for cap in caps:
        with mock.patch.object(netsim, "_WINDOW_LINES", cap):
            assert list(log.render_lines()) == expected
            assert log.render_text() == text
            assert log.digest() == hashlib.sha256(text.encode()).hexdigest()
            for guard, found in violations.items():
                assert log.guard_violations(guard) == found
            for chunk in log._chunks():
                assert np.count_nonzero(chunk == ord("\n")) <= max(cap, len(log._trains))


def window_log(n_before=0, n_after=0):
    """A pulse train of 5 frames of 1000 ns from 1000 ns, so the window is
    [1000, 6000), and classical messages around it: key requests from A
    sent before it, then basis lists from B sent after it."""
    return make_log(
        [(1000, 1000, 5, "pulse-arrival", "A", "λ1", "dest=B")],
        [("KeyRequest", 0, 1, (0, 1), {})] * n_before + [("BasisList", 1, 0, (0, 1), {})] * n_after,
        n_before,
    )


class TestEventLog:
    def test_orders_by_time_then_kind_then_seq(self):
        log = make_log(
            [(100, 100, 2, "gate-open", "B", "λ1", ""),
             (100, 100, 2, "pulse-arrival", "A", "λ1", "dest=B")],
            [("KeyRequest", 1, 0, (0, 1), {}), ("KeyRequest", 0, 1, None, {}),
             ("Abort", 0, 1, (0, 1), {}), ("Abort", None, 0, (0, 1), {})],
            n_before=2,
        )
        assert list(log.render_lines()) == [
            "0 classical-message B - kind=KeyRequest link=A-B seq=0 payload=" + EMPTY,
            "0 classical-message A - kind=KeyRequest link=- seq=1 payload=" + EMPTY,
            "100 pulse-arrival A λ1 dest=B",
            "100 gate-open B λ1",
            "200 pulse-arrival A λ1 dest=B",
            "200 gate-open B λ1",
            "300 classical-message A - kind=Abort link=A-B seq=2 payload=" + EMPTY,
            "300 classical-message - - kind=Abort link=A-B seq=3 payload=" + EMPTY,
        ]
        assert len(log) == 8

    def test_train_expansion(self):
        log = window_log(n_before=1, n_after=1)
        lines = list(log.render_lines())
        assert lines == [
            "0 classical-message A - kind=KeyRequest link=A-B seq=0 payload=" + EMPTY,
            *(f"{t} pulse-arrival A λ1 dest=B" for t in range(1000, 6000, 1000)),
            "6000 classical-message B - kind=BasisList link=A-B seq=1 payload=" + EMPTY,
        ]
        assert len(log) == 7

    def test_line_format_five_fields(self):
        log = make_log([(1000, 1000, 2, "gate-open", "C", "λ3", "width_ns=2.5")])
        for line in log.render_lines():
            time_ns, kind, port, channel, detail = line.split(" ", 4)
            assert int(time_ns) >= 0
            assert kind == "gate-open"
            assert port == "C" and channel == "λ3" and detail == "width_ns=2.5"

    def test_digest_matches_render(self):
        log = make_log(
            [(0, 10, 5, "pulse-arrival", "A", "λ1", "dest=D")],
            [("BasisList", 3, 0, (0, 3), {"frames": b"\x01"})],
        )
        manual = hashlib.sha256()
        for line in log.render_lines():
            manual.update(line.encode())
            manual.update(b"\n")
        assert log.digest() == manual.hexdigest()
        assert log.digest() == log.digest()  # rendering is repeatable

    @settings(max_examples=200, deadline=None)
    @given(log=window_logs(), cap=CAP, guard=st.integers(1, 101))
    def test_quantum_window_render_matches_reference(self, log, cap, guard):
        assert_matches_reference(log, {cap, netsim._WINDOW_LINES}, (guard,))

    @settings(max_examples=200, deadline=None)
    @given(log_and_cap=decade_logs(), guard=st.integers(1, 101))
    def test_decade_runs_match_reference(self, log_and_cap, guard):
        log, cap = log_and_cap
        assert_matches_reference(log, (cap,), (guard,))

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.lists(
            st.tuples(st.integers(0, 2**61 - 1), st.integers(0, 10**17), FIELD),
            min_size=1, max_size=5,
        ),
        rows=st.integers(1, 30),
    )
    def test_block_writer_matches_decimal_formatting(self, columns, rows):
        """Columns that rise down the rows, crossing powers of ten at
        different rows, write as ``str`` would."""
        times = np.array(
            [[min(t + i * step, 2**61 - 1) for t, step, _ in columns] for i in range(rows)],
            dtype=np.int64,
        )
        suffixes = np.array([f" {f}\n".encode() for *_, f in columns], dtype=object)
        suffix_len = np.array([len(x) for x in suffixes])
        written = b"".join(netsim._write_block(times, suffixes, suffix_len))
        assert written.decode() == "".join(
            f"{t} {f}\n" for row in times.tolist() for t, (*_, f) in zip(row, columns)
        )

    def test_session_digest_pinned(self):
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20000, seed=3)
        run = run_network(default_fourport_network(), cfg)
        assert len(run.events) == 120_069
        assert run.events.digest() == (
            "728e1de2e6f54e57697b41a86f3d9561bf6d861715f8ea34800afe20ae3f9cd1"
        )

    def test_numpy_integer_session_logs_as_plain_ints(self):
        # the transcript prints n_frames: np.int64(20000) would change the digest
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=np.int64(20000),
                            seed=np.int64(3))
        assert run_network(default_fourport_network(), cfg).events.digest() == (
            "728e1de2e6f54e57697b41a86f3d9561bf6d861715f8ea34800afe20ae3f9cd1"
        )

    def test_payload_digest_tells_sessions_apart(self):
        # seeds 3 and 5 send the same message kinds at the same times; only
        # the payloads, and so the keys, differ
        spec = default_fourport_network()
        runs = [
            run_network(spec, SessionConfig(server=0, clients=(1, 2, 3), n_frames=20000, seed=seed))
            for seed in (3, 5)
        ]
        lines = [list(run.events.render_lines()) for run in runs]
        assert len(lines[0]) == len(lines[1])
        differ = [a.split() for a, b in zip(*lines) if a != b]
        assert differ and all(fields[1] == "classical-message" for fields in differ)
        assert runs[0].events.digest() != runs[1].events.digest()

    def test_render_text_head_renders_one_window(self, monkeypatch):
        log = make_log([(1000, 1000, 10**6, "pulse-arrival", "A", "λ1", "dest=B")])
        windows = []
        write = netsim._write_block

        def counting(times, *args):
            windows.append(times.size)
            return write(times, *args)

        monkeypatch.setattr(netsim, "_write_block", counting)
        head = list(itertools.islice(log.render_lines(), 5))
        assert head == [f"{t} pulse-arrival A λ1 dest=B" for t in range(1000, 6000, 1000)]
        assert windows == [999]  # the frames before the first decade boundary, 10**6 ns

    def test_single_inside_unit_period_stretch(self):
        """A message at the end of a window of 1 ns frames renders after
        its last frame."""
        log = make_log([(0, 1, 10, "gate-open", "B", "λ1", "")], [("Abort", 0, 1, (0, 1), {})])
        for cap in (1, 2, 3):
            with mock.patch.object(netsim, "_WINDOW_LINES", cap):
                assert list(log.render_lines()) == list(reference_lines(log))
        assert list(log.render_lines())[-2:] == [
            "9 gate-open B λ1",
            "10 classical-message A - kind=Abort link=A-B seq=0 payload=" + EMPTY,
        ]

    def test_extreme_times_render_in_order(self):
        log = make_log(
            [(2**61 - 7, 3, 2, "gate-open", "B", "λ2", ""),  # window [2**61 - 8, 2**61 - 2)
             (2**61 - 8, 3, 2, "pulse-arrival", "A", "λ1", "dest=B")],
            [("KeyRequest", 0, 1, (0, 1), {}), ("Abort", 1, 0, (0, 1), {}),
             ("Abort", 2, 0, (0, 2), {})],
            n_before=1,
        )
        expected = list(reference_lines(log))
        with mock.patch.object(netsim, "_WINDOW_LINES", 2):
            assert list(log.render_lines()) == expected
        assert expected[0] == "0 classical-message A - kind=KeyRequest link=A-B seq=0 payload=" + EMPTY
        assert expected[-3:] == [
            f"{2**61 - 4} gate-open B λ2",
            f"{2**61 - 2} classical-message B - kind=Abort link=A-B seq=1 payload=" + EMPTY,
            f"{2**61 - 2} classical-message C - kind=Abort link=A-C seq=2 payload=" + EMPTY,
        ]

    def test_guard_violations_detected(self):
        log = make_log([(1000, 1000, 5, "pulse-arrival", "A", "λ1", ""),
                        (1050, 1000, 5, "pulse-arrival", "A", "λ2", "")])
        bad = log.guard_violations(100)
        assert len(bad) == 5  # one 50 ns cross-channel gap per frame
        assert bad[0] == (1000, "λ1", 1050, "λ2")
        assert not log.guard_violations(50)

    @settings(max_examples=200, deadline=None)
    @given(log=window_logs(), guard=st.integers(1, 1001))
    def test_guard_violations_match_dense_reference(self, log, guard):
        assert log.guard_violations(guard) == reference_guard_violations(log, guard)

    def test_same_channel_not_a_violation(self):
        log = make_log([(0, 10, 4, "pulse-arrival", "A", "λ1", "")])
        assert not log.guard_violations(100)

    @pytest.mark.parametrize("trains, count, guard, expected", [
        # one frame: the pair that wraps into the next frame is not there
        ([(0, "λ1"), (950, "λ2")], 1, 100, []),
        # pulses at one time on two channels, in append order
        ([(100, "λ2"), (100, "λ1")], 2, 1, [(100, "λ2", 100, "λ1"), (1100, "λ2", 1100, "λ1")]),
        # one channel label on two trains
        ([(0, "λ1"), (10, "λ1")], 2, 100, []),
        # a guard of the period or more: every pair, the wrap-around ones too
        ([(0, "λ1"), (500, "λ2")], 2, 1000,
         [(0, "λ1", 500, "λ2"), (500, "λ2", 1000, "λ1"), (1000, "λ1", 1500, "λ2")]),
    ], ids=["one-frame", "equal-times", "one-label", "guard-over-period"])
    def test_guard_violation_cases(self, trains, count, guard, expected):
        log = make_log([(t, 1000, count, "pulse-arrival", "A", channel, "") for t, channel in trains])
        assert log.guard_violations(guard) == expected == reference_guard_violations(log, guard)

    def test_gate_trains_are_not_checked(self):
        log = make_log([(0, 1000, 3, "gate-open", "B", "λ1", ""), (10, 1000, 3, "gate-open", "C", "λ2", "")])
        assert log.guard_violations(100) == []

    def test_guard_check_does_not_walk_the_frames(self):
        # 10**12 frames: a check that visits each frame, or each decade of
        # frames, would take hours
        log = make_log([(1000, 1000, 10**12, "pulse-arrival", "A", "λ1", "dest=B"),
                        (1500, 1000, 10**12, "pulse-arrival", "A", "λ2", "dest=C")])
        assert len(log) == 2 * 10**12
        assert log.guard_violations(100) == []


class TestNetworkSpec:
    def test_default_fourport(self):
        spec = default_fourport_network()
        assert spec.server == 0
        assert spec.clients == (1, 2, 3)
        assert spec.frame_period_ns == 1000
        assert spec.offsets_ns == {0: 0, 1: 100, 2: 200}
        assert [spec.detectors[c].dark_rate_hz for c in (1, 2, 3)] == [41.7, 18.0, 15.4]
        assert spec.detectors[1].gate_width_ns == 2.5

    def test_detector_coverage_enforced(self):
        router = uniform_router_spec(build_assignment(4))
        with pytest.raises(ValueError):
            NetworkSpec(
                router=router, server=0, source=SourceModel(),
                detectors={1: DetectorModel()}, eatt_db={1: 0.0, 2: 0.0, 3: 0.0},
            )

    def test_dark_rate_at_the_source_rate_rejected(self):
        source = SourceModel(rep_rate_hz=2e6)  # every detector gates at this rate
        detectors = {1: DetectorModel(), 2: DetectorModel(dark_rate_hz=1.5e6), 3: DetectorModel()}
        assert make_spec(source=source, detectors=detectors).detectors[2].dark_rate_hz == 1.5e6
        for rate in (2e6, float("inf")):
            detectors[2] = DetectorModel(dark_rate_hz=rate)
            with pytest.raises(ValueError, match="detector at port 2 must stay below the "
                                                 "source's 2000000.0 Hz gating rate"):
                make_spec(source=source, detectors=detectors)

    def test_eatt_validation(self):
        with pytest.raises(ValueError):
            make_spec(eatt_db={1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            make_spec(eatt_db={1: 0.0, 2: 0.0, 3: -1.0})

    def test_frame_period_consistency(self):
        with pytest.raises(ValueError):
            make_spec(source=SourceModel(rep_rate_hz=3.0e5))  # 3333.3 ns

    def test_offsets_derive_from_guard(self):
        assert make_spec(guard_ns=300).offsets_ns == {0: 0, 1: 300, 2: 600}
        with pytest.raises(ValueError, match="3 channels at 400 ns guard do not fit in a 1000 ns frame"):
            make_spec(guard_ns=400)  # three 400 ns slots in a 1000 ns frame

    @pytest.mark.parametrize("field, value, message", [
        ("guard_ns", 50.5, "guard_ns must be an integer, got 50.5"),
        ("guard_ns", 100.0, "guard_ns must be an integer, got 100.0"),
        ("guard_ns", False, "guard_ns must be an integer, got False"),
    ])
    def test_non_integer_times_rejected(self, field, value, message):
        # a float time would reach the event log and fail there as a TypeError
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(default_fourport_network(), **{field: value})

    def test_numpy_integer_times_accepted(self):
        # the transcript prints each link's offset: np.int64(100) would change the digest
        spec = replace(default_fourport_network(), guard_ns=np.int64(100))
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20000, seed=3)
        assert run_network(spec, cfg).events.digest() == (
            "728e1de2e6f54e57697b41a86f3d9561bf6d861715f8ea34800afe20ae3f9cd1"
        )

    def test_uniform_eatt_replacement(self):
        spec = default_fourport_network().with_uniform_eatt(7.5)
        assert spec.eatt_db == {1: 7.5, 2: 7.5, 3: 7.5}


class TestNetwork:
    def test_noiseless_broadcast_zero_errors(self):
        spec = without_dark_counts(default_fourport_network())
        spec = replace(spec, source=replace(spec.source, e_opt=0.0))
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=60_000, seed=3)
        run = run_network(spec, cfg)
        keys = list(run.result.client_keys.values())
        assert all(np.array_equal(k, keys[0]) for k in keys)
        for link in run.result.links:
            assert link.qber_measured == 0.0
        assert not run.events.guard_violations(spec.guard_ns)

    def test_identical_seed_identical_logs(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=3000, seed=21)
        r1 = run_network(spec, cfg)
        r2 = run_network(spec, cfg)
        assert r1.events.render_text() == r2.events.render_text()
        assert r1.events.digest() == r2.events.digest()
        assert np.array_equal(r1.result.final_key, r2.result.final_key)

    def test_different_seed_differs(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=3000, seed=21)
        r1 = run_network(spec, cfg)
        r2 = run_network(spec, replace(cfg, seed=22))
        assert not np.array_equal(r1.result.final_key, r2.result.final_key)

    def test_loss_composition_recoverable_from_log(self):
        spec = default_fourport_network().with_uniform_eatt(5.0)
        net = Network(spec, seed=4)
        for client in (1, 2, 3):
            net.transmit_train(0, client, 100)
        seen = set()
        for line in net.events.render_lines():
            time_ns, kind, port, channel, detail = line.split(" ", 4)
            if kind != "pulse-arrival":
                continue
            fields = dict(kv.split("=") for kv in detail.split())
            dest = fields["dest"]
            client = spec.router.assignment.port(dest).index
            assert float(fields["router_db"]) == path_loss_db(spec.router, 0, client)
            assert float(fields["eatt_db"]) == 5.0
            assert float(fields["loss_db"]) == pytest.approx(
                path_loss_db(spec.router, 0, client) + 5.0, rel=1e-12
            )
            seen.add(dest)
        assert seen == {"B", "C", "D"}

    def test_gates_open_at_scheduled_times(self):
        spec = default_fourport_network()
        net = Network(spec, seed=5)
        for client in (1, 2, 3):
            net.transmit_train(0, client, 50)
        period = spec.frame_period_ns
        window_start = period  # the window opens one frame after t = 0
        gate_times: dict[str, list[int]] = {}
        for line in net.events.render_lines():
            time_ns, kind, port, channel, _ = line.split(" ", 4)
            if kind == "gate-open":
                gate_times.setdefault(channel, []).append(int(time_ns))
        assert set(gate_times) == {"λ1", "λ2", "λ3"}
        for channel, times in gate_times.items():
            ch_index = int(channel[1:]) - 1
            offset = spec.offsets_ns[ch_index]
            expected = [window_start + offset + i * period for i in range(50)]
            assert times == expected

    def test_full_run_log_is_time_ordered(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=6)
        run = run_network(spec, cfg)
        kinds = set()
        last_time = -1
        for line in run.events.render_lines():
            time_ns, kind, _ = line.split(" ", 2)
            assert int(time_ns) >= last_time
            last_time = int(time_ns)
            kinds.add(kind)
        assert kinds == {"pulse-arrival", "gate-open", "classical-message"}

    def test_no_guard_violations_in_default_layout(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=7)
        run = run_network(spec, cfg)
        assert not run.events.guard_violations(spec.guard_ns)

    def test_link_parameters_match_closed_form(self):
        spec = default_fourport_network().with_uniform_eatt(3.0)
        net = Network(spec, seed=1)
        params = net.link_parameters(0, 1)
        assert params.total_loss_db == pytest.approx(1.70 + 3.0, rel=1e-12)
        mu_eta_t = 0.1 * 0.1 * 10 ** (-(4.70) / 10)
        assert params.p_sig == pytest.approx(1 - math.exp(-mu_eta_t), rel=1e-12)
        assert params.p_dark == pytest.approx(4.17e-5, rel=1e-12)
        assert params.offset_ns == spec.offsets_ns[params.channel.index]

    def test_only_the_server_transmits(self):
        net = Network(default_fourport_network(), seed=1)
        with pytest.raises(ValueError):
            net.link_parameters(1, 2)

    def test_session_with_the_wrong_server_sends_nothing(self):
        # every link is refused before the transcript, so the Network can
        # still run a session
        net = Network(default_fourport_network(), seed=1)
        with pytest.raises(ValueError, match="port B holds no source; the server is A"):
            run_session(SessionConfig(server=1, clients=(0, 2, 3), n_frames=2000), net)
        assert len(net.events) == 0
        result = run_session(SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1), net)
        assert result.key_length > 0

    @pytest.mark.parametrize("cfg", [
        SessionConfig(server=9, clients=(1, 2, 3), n_frames=2000),
        SessionConfig(server=0, clients=(9,), mode="unicast", n_frames=2000),
    ], ids=["server", "client"])
    def test_session_with_a_port_outside_sends_nothing(self, cfg):
        net = Network(default_fourport_network(), seed=1)
        with pytest.raises(ValueError, match=r"^port index 9 out of range \[0, 4\)$"):
            run_session(cfg, net)
        assert len(net.events) == 0

    def test_ports_past_z_named(self):
        # a 30-port star whose link to the last port is cut: the log and the
        # error name ports past Z as P26, P27, ...
        eatt = {c: 0.0 for c in range(1, 29)} | {29: math.inf}
        spec = without_dark_counts(make_spec(30, guard_ns=30, eatt_db=eatt))
        net = Network(spec, seed=2)
        cfg = SessionConfig(server=0, clients=tuple(range(1, 30)), n_frames=20_000)
        with pytest.raises(InsufficientDetectionsError, match="link to port P29 sifted down"):
            run_session(cfg, net)
        lines = list(net.events.render_lines())
        for c in range(26, 30):
            name, channel = port_label(c), spec.router.assignment.pair_channel(0, c).label
            assert name == f"P{c}"
            assert any(f" pulse-arrival A {channel} dest={name} " in line for line in lines)
            assert any(f" gate-open {name} {channel} " in line for line in lines)
            assert any(f" classical-message {name} - kind=KeyRequest link=A-{name} " in line
                       for line in lines)
        assert any(" classical-message A - kind=Abort link=A-P29 " in line for line in lines)

    @pytest.mark.parametrize("cfg, error", [
        (SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1), None),
        (SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1, qber_abort_threshold=0),
         SessionAbortError),
        (SessionConfig(server=0, clients=(1, 2, 3), n_frames=600, seed=0), InsufficientDetectionsError),
        (SessionConfig(server=0, clients=(2,), mode="unicast", n_frames=2**60, seed=0), ValueError),
    ], ids=["delay-0", "aborted", "sampled-away", "before-any-train"])
    def test_logs_match_reference(self, cfg, error):
        spec = default_fourport_network()
        net = Network(spec, seed=cfg.seed)
        with pytest.raises(error) if error else contextlib.nullcontext():
            result = run_session(cfg, net)
        assert_matches_reference(net.events, (netsim._WINDOW_LINES,), (spec.guard_ns, 1000))
        # the log renders the session's transcript, a failed one's too: the
        # key requests and train announcements at 0, before the first train,
        # and the rest at the window's end, or every message at 0 if no
        # train was sent
        messages = net.events._messages
        if error is None:
            assert tuple(result.transcript.messages) == messages
        f, period, count = net.events._window
        n_before = 2 * len(cfg.clients) if count else len(messages)
        times = [0] * n_before + [f + count * period] * (len(messages) - n_before)
        expected = [f"{t} " + " ".join(message_fields(m)) for t, m in zip(times, messages)]
        lines = list(net.events.render_lines())
        assert [line for line in lines if " classical-message " in line] == expected

    def test_transcript_refers_to_no_network(self):
        # a SessionResult keeps its transcript: through it, the Network and
        # its random streams would stay alive as long as the result
        net = Network(default_fourport_network(), seed=1)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1)
        transcript = run_session(cfg, net).transcript
        assert transcript.messages
        seen, todo = set(), [transcript]
        while todo:  # everything the transcript refers to, short of types and modules
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, Network)
            todo += gc.get_referents(obj)

    def test_network_is_freed_without_the_cycle_collector(self):
        # the Network keeps the transcript's messages, so no message may
        # refer back to it: each sweep point's Network, its random streams
        # and its messages would wait for a collection
        net = Network(default_fourport_network(), seed=1)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1)
        gc.disable()
        try:
            assert run_session(cfg, net).transcript.messages
            freed = weakref.ref(net)
            del net
            assert freed() is None
        finally:
            gc.enable()

    def test_session_builds_no_block_through_the_public_constructors(self, monkeypatch):
        # every block and click record of a session is derived from checked
        # data, so none of them is checked and copied again
        calls = []
        for cls in (KeyBlock, ClickRecord):
            check = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, check=check: calls.append(self) or check(self)
            )
        KeyBlock(np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.int64))
        assert len(calls) == 1  # the count sees a public construction
        calls.clear()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=200_000, seed=7)
        run = run_network(default_fourport_network(), cfg)
        assert run.result.key_length > 0
        assert calls == []

    def test_window_past_the_time_limit_named(self):
        # 10**16 frames of 1000 ns put the window past 2**61 ns: the network
        # says which key to lower before it samples a link
        net = Network(default_fourport_network(), seed=1)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=10**16, seed=1)
        with mock.patch.object(netsim, "sample_clicks", side_effect=AssertionError("sampled")):
            with pytest.raises(ValueError, match=(
                r"^the quantum window \[1000, 10000000000000001000\) ns ends past 2\*\*61 ns: "
                r"lower session.n_frames \(10000000000000000\)$"
            )):
                run_session(cfg, net)
        assert net.events._window[2] == 0 and len(net.events) == 6

    def test_second_session_refused_before_it_logs(self):
        # a second session would re-log every train at the first window's times
        net = Network(default_fourport_network(), seed=1)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1)
        run_session(cfg, net)
        size, digest = len(net.events), net.events.digest()
        with pytest.raises(ValueError, match="a Network runs one session"):
            run_session(cfg, net)
        assert (len(net.events), net.events.digest()) == (size, digest)

    def test_second_train_to_a_link_refused_before_it_samples(self):
        # a second train would log the link's pulses and gates twice and draw
        # fresh clicks from the link's stream
        net = Network(default_fourport_network(), seed=1)
        net.transmit_train(0, 1, 3)
        size, digest = len(net.events), net.events.digest()
        assert size == 6
        with mock.patch.object(netsim, "sample_clicks", side_effect=AssertionError("sampled")):
            with pytest.raises(ValueError, match="train to port B was already sent"):
                net.transmit_train(0, 1, 3)
        assert (len(net.events), net.events.digest()) == (size, digest)
        net.transmit_train(0, 2, 3)  # the other links still carry theirs
        assert len(net.events) == 12

    def test_window_requires_equal_train_lengths(self):
        # a train of another length is refused before it samples, so the
        # link's stream is where a fresh Network's is
        net = Network(default_fourport_network(), seed=1)
        net.transmit_train(0, 1, 100_000)
        size, digest = len(net.events), net.events.digest()
        with mock.patch.object(netsim, "sample_clicks", side_effect=AssertionError("sampled")):
            with pytest.raises(ValueError, match="^a train of the quantum window has 100000 frames, got 200000$"):
                net.transmit_train(0, 2, 200_000)
        assert (len(net.events), net.events.digest()) == (size, digest)
        fresh = Network(default_fourport_network(), seed=1)
        fresh.transmit_train(0, 1, 100_000)
        want = fresh.transmit_train(0, 2, 100_000)
        got = net.transmit_train(0, 2, 100_000)
        assert len(got) == len(want) == 580
        for field in ("frames", "tx_bases", "tx_bits", "rx_bases", "rx_bits"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


class TestSweep:
    def test_single_point_matches_analytic(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=400_000, seed=9)
        rows = sweep_attenuation(spec, cfg, [0.0])
        assert len(rows) == 3
        net = Network(spec, seed=0)
        for row in rows:
            assert row.status == "ok"
            assert row.length_km == 0.0
            params = net.link_parameters(0, row.client)
            q = expected_qber(params.p_sig, params.p_dark, params.e_opt)
            n_sifted = row.sift_rate_hz * cfg.n_frames / params.rep_rate_hz
            sigma = math.sqrt(q * (1 - q) / n_sifted)
            assert abs(row.qber - q) < 4 * sigma

    def test_qber_grows_with_attenuation(self):
        # 20 dB puts the dark floor at 12-20% QBER against ~1.2% at 0 dB,
        # several sigma apart with ~100 sifted bits per link at 20 dB
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2_000_000, seed=10)
        rows = sweep_attenuation(spec, cfg, [20.0, 0.0])
        by_channel: dict[float, dict[float, float]] = {}
        for r in rows:
            by_channel.setdefault(r.channel_nm, {})[r.atten_db] = r.qber
        for series in by_channel.values():
            assert series[20.0] > series[0.0]

    def test_rows_ordered_by_db_then_client(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=50_000, seed=11)
        rows = sweep_attenuation(spec, cfg, [5.0, 0.0])
        assert [(r.atten_db, r.client) for r in rows] == [
            (0.0, 1), (0.0, 2), (0.0, 3), (5.0, 1), (5.0, 2), (5.0, 3),
        ]

    def test_length_column_exact(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=12)
        rows = sweep_attenuation(spec, cfg, [0.0, 4.0, 10.0])
        lengths = sorted({r.length_km for r in rows})
        assert lengths == [0.0, 20.0, 50.0]

    def test_aborted_points_keep_measured_qber(self):
        spec = default_fourport_network()
        spec = replace(spec, source=replace(spec.source, e_opt=0.3))
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=150_000, seed=13)
        rows = sweep_attenuation(spec, cfg, [0.0])
        assert len(rows) == 3
        for row in rows:
            assert row.status == "abort"
            assert row.leaked_bits == 0
            assert 0.25 < row.qber < 0.35
            assert row.sift_rate_hz > 0

    def test_dead_links_marked_nan(self):
        spec = without_dark_counts(default_fourport_network())
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2_000, seed=14)
        rows = sweep_attenuation(spec, cfg, [200.0])
        assert len(rows) == 3
        for row in rows:
            assert row.status == "no-detections"
            assert math.isnan(row.qber)
            assert row.leaked_bits == 0 and row.sift_rate_hz == 0.0

    def test_sampled_away_block_gives_no_detection_rows(self, monkeypatch):
        # at 2000 frames many points sift a single bit that the error
        # sample then discloses; those points yield rows, not an exception
        messages, run = [], netsim.run_network

        def spy(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except InsufficientDetectionsError as err:
                messages.append(str(err))
                raise

        monkeypatch.setattr(netsim, "run_network", spy)
        for seed in range(20):
            cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=seed)
            rows = sweep_attenuation(default_fourport_network(), cfg, range(9))
            assert len(rows) == 27
            assert {r.status for r in rows} <= {"ok", "abort", "no-detections"}
        assert any("no bits left after sampling" in m for m in messages)

    def test_reconcile_failure_gives_reconcile_failed_rows(self, reconcile_fails_at_5db):
        # no abort gate: a 13-bit error sample at 5 dB trips 0.11 on ~6% of seeds
        cfg = SessionConfig(
            server=0, clients=(1, 2, 3), n_frames=50_000, seed=11, qber_abort_threshold=0.5
        )
        rows = sweep_attenuation(default_fourport_network(), cfg, [0.0, 5.0, 2.0])
        assert [(r.atten_db, r.client, r.status) for r in rows] == [
            (db, c, status)
            for db, status in ((0.0, "ok"), (2.0, "ok"), (5.0, "reconcile-failed"))
            for c in (1, 2, 3)
        ]
        for row in rows[6:]:
            assert math.isnan(row.qber)
            assert row.sift_rate_hz == 0.0 and row.leaked_bits == 0
            assert row.channel_nm == rows[row.client - 1].channel_nm

    @pytest.mark.parametrize("status", ["abort", "no-detections", "reconcile-failed"])
    def test_error_status_is_its_rows_status(self, status, request, monkeypatch):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=150_000, seed=13)
        db = 0.0
        if status == "abort":
            spec = replace(spec, source=replace(spec.source, e_opt=0.3))
        elif status == "no-detections":
            spec, cfg, db = without_dark_counts(spec), replace(cfg, n_frames=2_000), 200.0
        else:
            request.getfixturevalue("reconcile_fails_at_5db")
            db = 5.0
        errors, run = [], netsim.run_network

        def spy(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except SessionError as err:
                errors.append(err)
                raise

        monkeypatch.setattr(netsim, "run_network", spy)
        rows = sweep_attenuation(spec, cfg, [db])
        [err] = errors
        assert type(err).status == status
        assert [r.status for r in rows] == [status] * 3
        if status == "abort":
            assert [r.qber for r in rows] == [rep.qber_measured for rep in err.diagnostics]
        else:
            assert err.diagnostics == ()
        assert not hasattr(SessionError, "status")  # nothing raises the base

    def test_sweep_deterministic(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=50_000, seed=15)
        r1 = sweep_attenuation(spec, cfg, [0.0, 5.0])
        r2 = sweep_attenuation(spec, cfg, [0.0, 5.0])
        assert sweep_rows_to_csv(r1) == sweep_rows_to_csv(r2)

    def test_csv_contract(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=30_000, seed=16)
        rows = sweep_attenuation(spec, cfg, [0.0, 5.0])
        csv = sweep_rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[0] == "atten_db,channel_nm,qber,sift_rate_hz,leaked_bits,length_km"
        assert len(lines) == 1 + 6
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert len(cells) == 6
            assert float(cells[0]) == row.atten_db
            assert float(cells[1]) == row.channel_nm
            assert float(cells[2]) == row.qber
            assert int(cells[4]) == row.leaked_bits
            assert float(cells[5]) == row.length_km

    def test_bad_db_lists(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), seed=17)
        with pytest.raises(ValueError):
            sweep_attenuation(spec, cfg, [])
        with pytest.raises(ValueError):
            sweep_attenuation(spec, cfg, [-1.0])
