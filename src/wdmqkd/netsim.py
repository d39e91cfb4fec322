"""Deterministic discrete-event harness around the router and the protocol.

A Network binds one server and N-1 clients to the ports of a router,
schedules every wavelength at its own time offset inside the repetition
frame, and drives :func:`wdmqkd.protocol.run_session` with quantum
transmissions whose loss is the measured router path plus a configurable
eATT.  Every pulse arrival, detection gate, and classical message lands
in an event log that is totally ordered and reproducible from the seed.

A Network runs one session.  Its log holds what the Network writes: pulse
and gate trains that share one period and one count and start in the
first frame of one quantum window, which opens one frame after t = 0, and
the messages of the session's transcript, stamped 0 before the window and
its end after it, rendered from their fields.  Train times lie in
[0, 2**61).  The trains are stored as arithmetic sequences and expand to
lines only when rendered.  Rendering walks the window in runs of whole
frames, each frame the one before plus the period, so one lexsort of the
first frame orders them all.  One writer turns every run into bytes: it
tiles one row's bytes, every line's text after room for its time, and
writes the decimal times into the room with numpy.  Where the period
divides a power of ten D, a block [H·D, (H+1)·D) with H >= 1 is the one
before with the leading digits str(H) of its times rewritten.  The guard
check reads the pulse trains' first lines alone: every frame repeats the
first.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .photonics import (
    DEFAULT_CLIENT_DARK_RATES_HZ,
    DEFAULT_E_OPT,
    DEFAULT_FIBER_ALPHA_DB_PER_KM,
    DEFAULT_GATE_WIDTH_NS,
    DEFAULT_MU,
    DEFAULT_REP_RATE_HZ,
    ClickRecord,
    DetectorModel,
    LinkBudget,
    SourceModel,
    attenuation_to_length,
    p_dark_per_gate,
    p_signal_click,
    sample_clicks,
)
from .protocol import (
    ClassicalMessage,
    InsufficientDetectionsError,
    LinkParameters,
    ReconciliationError,
    SessionAbortError,
    SessionConfig,
    SessionResult,
    Transcript,
    _payload_repr,
    run_session,
)
from .router import ChannelId, RouterSpec, fourport_router_spec, path_loss_db

__all__ = [
    "EventLog",
    "Network",
    "NetworkRun",
    "NetworkSpec",
    "SchedulingInfeasibleError",
    "SweepRow",
    "assign_time_offsets",
    "default_fourport_network",
    "run_network",
    "sweep_attenuation",
    "sweep_rows_to_csv",
]


class SchedulingInfeasibleError(ValueError):
    """The requested channels cannot be spaced inside one frame period."""


DEFAULT_GUARD_NS = 100

# the kinds of train, in their order at equal times; messages come last
_TRAIN_KINDS = ("pulse-arrival", "gate-open")

# Lines per rendering block, or one frame where a frame holds more: bounds
# the memory a render takes, whatever the length of the log.  2**15
# rendered a 1.5M-line log no faster and raised the peak RSS of its digest
# plus guard check by 3 MB.
_WINDOW_LINES = 1 << 13
# Train times lie in [0, 2**61), so sums and differences of two times fit
# in int64.
_TIME_LIMIT = 1 << 61


def assign_time_offsets(
    channels: Iterable[ChannelId | int],
    frame_period_ns: int,
    guard_ns: int = DEFAULT_GUARD_NS,
) -> dict[int, int]:
    """Greedy per-channel offsets: 0, guard, 2·guard, ... within the frame.

    Offsets are pairwise separated by at least ``guard_ns`` (also across
    the frame boundary) so pulses of different wavelengths never share a
    time slot at the router.
    """
    idx = [c.index if isinstance(c, ChannelId) else int(c) for c in channels]
    if len(set(idx)) != len(idx):
        raise ValueError("channels must be distinct")
    if not idx:
        raise ValueError("need at least one channel")
    if frame_period_ns <= 0:
        raise ValueError(f"frame period must be positive, got {frame_period_ns} ns")
    if guard_ns <= 0:
        raise ValueError(f"guard_ns must be positive, got {guard_ns}")
    if len(idx) * guard_ns > frame_period_ns:
        raise SchedulingInfeasibleError(
            f"{len(idx)} channels at {guard_ns} ns guard do not fit in a "
            f"{frame_period_ns} ns frame"
        )
    return {c: i * guard_ns for i, c in enumerate(idx)}


# ---------------------------------------------------------------------------
# Event log


# searchsorted(_POWERS, t, "right") + 1 is the digit count of a time t >= 0
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)


def _digit_planes(values: np.ndarray, n_digits: int) -> np.ndarray:
    """The ASCII decimal digits of nonnegative ``values`` that have
    ``n_digits`` digits each: an (n_digits, *values.shape) uint8 array, most
    significant digit first.  Digits come from uint32 division by 10, nine
    at a time."""
    planes = np.empty((n_digits, *values.shape), dtype=np.uint8)
    parts = [values] if n_digits <= 9 else np.divmod(values, 10**9)[::-1]
    i = n_digits
    for part, n in zip(parts, (min(n_digits, 9), n_digits - 9)):
        part = part.astype(np.uint32)
        for _ in range(n):
            i -= 1
            quotient = part // 10
            np.subtract(part, quotient * 10, out=planes[i], casting="unsafe")
            part = quotient
    planes += ord("0")
    return planes


def _write_block(
    times: np.ndarray, suffixes: np.ndarray, suffix_len: np.ndarray
) -> Iterator[np.ndarray]:
    """The lines of an (m, P) block of times, read row by row, as UTF-8
    bytes: one uint8 array per run of rows whose times keep their digit
    count.  Column j's lines end in ``suffixes[j]``, ``suffix_len[j]``
    bytes long.

    A run tiles one row's bytes, each suffix after room for its time, then
    writes the digits of the times.  Times rise down each column of a
    block, so a block whose first and last rows agree in digit count is
    one run."""
    digits = np.searchsorted(_POWERS, times[[0, -1]], "right") + 1
    if (digits[0] != digits[1]).any():
        digits = np.searchsorted(_POWERS, times, "right") + 1
    cuts = (np.flatnonzero((digits[1:] != digits[:-1]).any(axis=1)) + 1).tolist()
    pieces = np.empty(2 * suffixes.size, dtype=object)
    pieces[1::2] = suffixes
    for r0, r1 in zip([0, *cuts], [*cuts, len(times)]):
        width = digits[r0]
        pieces[0::2] = [b"0" * n for n in width.tolist()]  # room for each time
        out = np.tile(np.frombuffer(b"".join(pieces.tolist()), dtype=np.uint8), (r1 - r0, 1))
        size = width + suffix_len
        lead = np.cumsum(size) - size
        values = times[r0:r1].T
        for n in np.flatnonzero(np.bincount(width)).tolist():
            cols = np.flatnonzero(width == n)
            planes = _digit_planes(values[cols], n)  # (n, columns, rows)
            # copy along the shorter axis: a column's digits at once, or
            # one digit of every column
            if cols.size < len(out):
                for j, at in enumerate(lead[cols].tolist()):
                    out[:, at:at + n] = planes[:, j].T
            else:
                for i in range(n):
                    out[:, lead[cols] + i] = planes[i].T
        yield out.reshape(-1)


class EventLog:
    """Totally ordered event log of one quantum window of pulse and gate
    trains and the classical messages of the one transcript it records.

    Order is (time, kind rank, append order); messages keep their send
    order.  Train times are integer nanoseconds in [0, 2**61), and no train
    field may hold a newline, so every event renders as exactly one line.

    The first train sets the window (f, period, count): f is its first
    time rounded down to a multiple of its period, and the window spans
    [f, f + count·period).  Every later train must share the period and
    the count and start in the window's first frame [f, f + period), so
    each frame holds one line of every train, always in one order.  A
    train that breaks the rule raises ValueError and leaves the log as it
    was.  The log owns the window and times a Network's messages by it:
    :meth:`now_ns` reads 0 before the window opens and its end after.  A
    message's line is ``time classical-message S - kind=K link=A-B seq=N
    payload=D``: S and A-B the ``labels`` of its sender and link ports, or
    -, and D the first 16 hex digits of the SHA-256 of its payload as
    :meth:`Transcript.render_text` prints it.
    """

    def __init__(self, labels: Sequence[str] = ()) -> None:
        self._labels = tuple(labels)
        self._sent: list[ClassicalMessage] | None = None  # the transcript's messages
        # (time_ns, kind, port, channel, detail); a train's time is its first line's
        self._trains: list[tuple[int, str, str, str, str]] = []
        self._window: tuple[int, int, int] | None = None  # (f, period_ns, count)

    def record(self, transcript: Transcript) -> None:
        """Render ``transcript``'s messages, sent and to come, in the log; keep
        their list alone, as the transcript's clock may hold the log.  A log
        records one session: a second transcript raises ValueError."""
        if self._sent is not None:
            raise ValueError("the event log already records a session; a Network runs one session")
        self._sent = transcript.messages

    def now_ns(self) -> int:
        """The time of a message sent now: 0 before the quantum window
        opens, the window's end after."""
        f, period, count = self._window or (0, 0, 0)
        return f + count * period

    def _message_line(self, m: ClassicalMessage) -> str:
        port = "-" if m.sender is None else self._labels[m.sender]
        link = "-" if m.link is None else "-".join(self._labels[p] for p in m.link)
        payload = hashlib.sha256(_payload_repr(m.payload).encode()).hexdigest()[:16]
        return (f"{m.time_ns} classical-message {port} - kind={m.kind} link={link} "
                f"seq={m.seq} payload={payload}\n")

    def append_train(self, time0: int, period_ns: int, count: int,
                     kind: str, port: str, channel: str, detail: str) -> None:
        """Append ``count`` identical pulse-arrival or gate-open events at
        times time0 + i·period_ns."""
        if kind not in _TRAIN_KINDS:
            raise ValueError(f"a train is of kind pulse-arrival or gate-open, got {kind!r}")
        time0, period_ns, count = (operator.index(v) for v in (time0, period_ns, count))
        if count <= 0 or period_ns <= 0:
            raise ValueError("a train needs positive count and period")
        last = time0 + period_ns * (count - 1)
        if not 0 <= time0 <= last < _TIME_LIMIT:  # so the log orders times in int64
            raise OverflowError(f"event times {time0}..{last} ns outside [0, 2**61) ns")
        if "\n" in port + channel + detail:
            raise ValueError(f"event fields must not hold a newline: {(port, channel, detail)!r}")
        if self._window is None:
            self._window = (time0 - time0 % period_ns, period_ns, count)
        else:
            f, period, n = self._window
            if (period_ns, count) != (period, n) or not f <= time0 < f + period:
                raise ValueError(
                    f"a train of the quantum window has period {period} ns, count {n} "
                    f"and its first line in [{f}, {f + period}) ns; got period "
                    f"{period_ns} ns, count {count}, first line at {time0} ns"
                )
        self._trains.append((time0, kind, port, channel, detail))

    def __len__(self) -> int:
        return len(self._sent or ()) + len(self._trains) * (self._window or (0, 0, 0))[2]

    def _chunks(self) -> Iterator[np.ndarray]:
        """The log as UTF-8 lines, each ending in a newline, in uint8 arrays
        of at most ``_WINDOW_LINES`` lines, or one frame where a frame holds
        more: the messages before the window, the window, then the messages
        after it.

        Each block of the window is a run of whole frames, each the one
        above plus the period, so a lexsort of the first frame orders them
        all.  Where the period divides a power of ten, D is the largest
        such power whose D/period frames fit in the cap, and blocks end at
        multiples of D.  A time in a whole decade [H·D, (H+1)·D) with H >= 1
        is str(H), then digits that every decade repeats: the first such
        decade of each digit count is written in full, and each later one
        is the decade before with the digits of H that changed rewritten.
        Elsewhere a block is as many whole frames as fit in the cap, at
        least one.
        """
        cap = _WINDOW_LINES
        messages = sorted(self._sent or (), key=operator.attrgetter("time_ns"))  # ties keep send order
        f, period, count = self._window or (_TIME_LIMIT, 1, 0)
        split = sum(m.time_ns < f for m in messages)

        def message_chunks(lo: int, hi: int) -> Iterator[np.ndarray]:
            for i in range(lo, hi, cap):
                text = "".join(map(self._message_line, messages[i:min(i + cap, hi)]))
                yield np.frombuffer(text.encode(), dtype=np.uint8)

        yield from message_chunks(0, split)
        if self._trains:
            t0 = np.array([t for t, *_ in self._trains], dtype=np.int64)
            order = np.lexsort(([_TRAIN_KINDS.index(k) for _, k, *_ in self._trains], t0))
            first = t0[order]  # stable: ties keep append order
            # each train's line less its time, newline included
            suffixes = np.array(
                [f" {k} {p} {c} {d}".rstrip().encode() + b"\n" for _, k, p, c, d in self._trains],
                dtype=object,
            )[order]
            suffix_len = np.array([len(s) for s in suffixes], dtype=np.int64)

            def frames(r0: int, r1: int) -> np.ndarray:
                """The block of the frames that start in [r0, r1)."""
                return first + period * np.arange((r0 - f) // period, (r1 - f) // period)[:, None]

            decade = max((d for d in (10**j for j in range(19))
                          if d % period == 0 and d // period * first.size <= cap), default=0)
            span = decade or max(cap // first.size, 1) * period  # blocks end at grid + j·span
            grid, end = (f - f % decade if decade else f), f + count * period
            # the whole decades [H·D, (H+1)·D) with H >= 1
            lo, hi = (max(-(-f // decade), 1) * decade, end // decade * decade) if decade else (end, end)
            if lo >= hi:
                lo = hi = end
            edges = [f, *range(grid + span, lo, span), lo, hi, *range(hi + span, end, span), end]
            for r0, r1 in itertools.pairwise(dict.fromkeys(edges)):  # edges rise
                if (r0, r1) != (lo, hi):
                    yield from _write_block(frames(r0, r1), suffixes, suffix_len)
                    continue
                times, width = frames(lo, lo + decade), 0
                for start in range(lo, hi, decade):
                    stamp = np.frombuffer(str(start // decade).encode(), dtype=np.uint8)
                    if stamp.size != width:
                        [block] = _write_block(times + (start - lo), suffixes, suffix_len)
                        width, size = stamp.size, stamp.size + len(str(decade)) - 1 + suffix_len
                        leads = np.cumsum(size) - size
                    else:  # the decade before, with the digits of H that changed rewritten
                        block = block.copy()
                        for i in np.flatnonzero(stamp != last):
                            block.reshape(len(times), -1)[:, leads + i] = stamp[i]
                    yield block
                    last = stamp
        yield from message_chunks(split, len(messages))

    def render_lines(self) -> Iterator[str]:
        for chunk in self._chunks():
            yield from chunk.tobytes().decode().split("\n")[:-1]

    def render_text(self, max_lines: int | None = None) -> str:
        if max_lines is None:
            return b"".join(self._chunks()).decode()
        return "".join(
            line + "\n" for line in itertools.islice(self.render_lines(), max(max_lines, 0))
        )

    def digest(self) -> str:
        """SHA-256 over the rendered lines; cheap way to compare huge logs."""
        h = hashlib.sha256()
        for chunk in self._chunks():
            h.update(chunk)
        return h.hexdigest()

    def guard_violations(self, guard_ns: int) -> list[tuple[int, str, int, str]]:
        """Consecutive pulse arrivals on different channels closer than the
        guard, in log order, each as (time, channel, next time, next channel).

        The pulse trains' first lines, sorted by (time, append order), are
        the first frame's arrivals.  Each is followed by the next, and the
        last by the first one period on, in every frame.  So the first
        frame's violations repeat once a frame, one period apart, less the
        pair that would cross out of the last frame.
        """
        f, period, count = self._window or (0, 1, 0)
        pulses = sorted(
            ((t, c) for t, kind, _, c, _ in self._trains if kind == "pulse-arrival"),
            key=operator.itemgetter(0),
        )
        after = pulses[1:] + [(t + period, c) for t, c in pulses[:1]]
        bad = [(t1, c1, t2 - t1, c2) for (t1, c1), (t2, c2) in zip(pulses, after)
               if t2 - t1 < guard_ns and c1 != c2]
        if not bad:
            return []
        first, c1, gap, c2 = zip(*bad)
        starts = (np.array(first) + period * np.arange(count)[:, None]).ravel()
        ends = starts + np.tile(gap, count)
        found = list(zip(starts.tolist(), c1 * count, ends.tolist(), c2 * count))
        if found[-1][2] >= f + count * period:
            found.pop()  # the last frame's last arrival has none after it
        return found


# ---------------------------------------------------------------------------
# Network specification


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Static description of the star network.

    The port named by ``server`` holds the source; every other port holds
    a client with its own detector and a per-link eATT on its path.
    The frame period is 10⁹ / source rep rate, which must be a whole
    number of nanoseconds; the router's channels, in index order, sit
    0, guard_ns, 2·guard_ns, ... into it.
    """

    router: RouterSpec
    server: int
    source: SourceModel
    detectors: Mapping[int, DetectorModel]
    eatt_db: Mapping[int, float]
    guard_ns: int = DEFAULT_GUARD_NS

    def __post_init__(self) -> None:
        a = self.router.assignment
        n = a.n_ports
        if not 0 <= self.server < n:
            raise ValueError(f"server port {self.server} outside the router")
        clients = self.clients
        if isinstance(self.guard_ns, bool) or not isinstance(self.guard_ns, (int, np.integer)):
            raise ValueError(f"guard_ns must be an integer > 0, got {self.guard_ns!r}")

        period = 1e9 / self.source.rep_rate_hz
        if abs(period - round(period)) > 1e-9:
            raise ValueError(
                f"rep rate {self.source.rep_rate_hz} Hz gives a non-integer "
                f"frame period of {period} ns"
            )

        if set(self.detectors) != set(clients):
            raise ValueError(
                f"detectors must cover exactly the client ports {clients}, "
                f"got {sorted(self.detectors)}"
            )
        for p, det in self.detectors.items():
            if det.rep_rate_hz != self.source.rep_rate_hz:
                raise ValueError(
                    f"detector at port {p} is gated at {det.rep_rate_hz} Hz "
                    f"but the source runs at {self.source.rep_rate_hz} Hz"
                )
        if set(self.eatt_db) != set(clients):
            raise ValueError(
                f"eatt_db must cover exactly the client ports {clients}, "
                f"got {sorted(self.eatt_db)}"
            )
        for p, db in self.eatt_db.items():
            if not db >= 0:
                raise ValueError(f"eatt_db at port {p} must be >= 0 dB, got {db}")
        self.offsets_ns  # the channels must fit in the frame

    @property
    def frame_period_ns(self) -> int:
        return round(1e9 / self.source.rep_rate_hz)

    @cached_property
    def offsets_ns(self) -> dict[int, int]:
        """Each channel's time offset in the frame: its rank times ``guard_ns``."""
        channels = self.router.assignment.channels
        return assign_time_offsets(channels, self.frame_period_ns, self.guard_ns)

    @property
    def clients(self) -> tuple[int, ...]:
        return tuple(
            p for p in range(self.router.assignment.n_ports) if p != self.server
        )

    def with_uniform_eatt(self, db: float) -> "NetworkSpec":
        return replace(self, eatt_db={c: float(db) for c in self.clients})


def default_fourport_network(
    eatt_db: float = 0.0,
    mu: float = DEFAULT_MU,
    e_opt: float = DEFAULT_E_OPT,
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ,
    dark_rates_hz: Sequence[float] = DEFAULT_CLIENT_DARK_RATES_HZ,
    efficiency: float = 0.10,
    guard_ns: int = DEFAULT_GUARD_NS,
) -> NetworkSpec:
    """The shipped 4-port star: server at port A, measured losses, three
    clients whose detectors carry the calibrated dark rates in port order."""
    router = fourport_router_spec()
    source = SourceModel(mean_photon_number=mu, rep_rate_hz=rep_rate_hz, e_opt=e_opt)
    detectors = {
        port: DetectorModel(
            efficiency=efficiency,
            dark_rate_hz=rate,
            gate_width_ns=DEFAULT_GATE_WIDTH_NS,
            rep_rate_hz=rep_rate_hz,
        )
        for port, rate in zip((1, 2, 3), dark_rates_hz)
    }
    return NetworkSpec(
        router=router,
        server=0,
        source=source,
        detectors=detectors,
        eatt_db={1: eatt_db, 2: eatt_db, 3: eatt_db},
        guard_ns=guard_ns,
    )


# ---------------------------------------------------------------------------
# Runtime network handle


class Network:
    """Runtime handle satisfying the run_session contract with full logging.

    It runs one session, whose quantum window opens one frame after t = 0."""

    def __init__(self, spec: NetworkSpec, seed: int | np.random.SeedSequence = 0):
        self.spec = spec
        self._assignment = spec.router.assignment
        self._labels = tuple(port.label for port in self._assignment.ports)
        self.events = EventLog(self._labels)
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(int(seed))
        *ports, session = map(np.random.default_rng, seed.spawn(self._assignment.n_ports + 1))
        self._quantum_rng = dict(enumerate(ports))  # one stream per port
        self._session_rng = session

    @property
    def n_ports(self) -> int:
        return self._assignment.n_ports

    def port_label(self, port: int) -> str:
        return self._labels[port]

    def protocol_rng(self) -> np.random.Generator:
        return self._session_rng

    def new_transcript(self, session_id: int) -> Transcript:
        """The session's transcript, timed and recorded by the log; a second
        one raises ValueError before anything is logged."""
        transcript = Transcript(session_id, clock=self.events.now_ns)
        self.events.record(transcript)
        return transcript

    def link_parameters(self, server: int, client: int) -> LinkParameters:
        if server != self.spec.server:
            raise ValueError(
                f"port {self.port_label(server)} holds no source; the server "
                f"is {self.port_label(self.spec.server)}"
            )
        channel = self._assignment.pair_channel(server, client)
        det = self.spec.detectors[client]
        budget = LinkBudget.of(
            ("router", path_loss_db(self.spec.router, server, client)),
            ("eATT", float(self.spec.eatt_db[client])),
        )
        return LinkParameters(
            channel=channel,
            p_sig=p_signal_click(self.spec.source, budget, det),
            p_dark=p_dark_per_gate(det),
            e_opt=self.spec.source.e_opt,
            rep_rate_hz=self.spec.source.rep_rate_hz,
            total_loss_db=budget.total_db,
            offset_ns=self.spec.offsets_ns[channel.index],
        )

    def transmit_train(self, server: int, client: int, n_frames: int) -> ClickRecord:
        """Send ``n_frames`` pulses to ``client``; log the pulse and gate
        trains and return the frames that clicked."""
        params = self.link_parameters(server, client)
        period = self.spec.frame_period_ns
        end = (n_frames + 1) * period  # the window opens one frame after t = 0
        if end > _TIME_LIMIT:
            raise ValueError(f"the quantum window [{period}, {end}) ns ends past 2**61 ns: "
                             f"lower session.n_frames ({n_frames})")
        start = period + params.offset_ns
        clicks = sample_clicks(
            n_frames, params.p_sig, params.p_dark, params.e_opt, self._quantum_rng[client]
        )
        router_db = float(path_loss_db(self.spec.router, server, client))
        self.events.append_train(
            start, period, n_frames,
            "pulse-arrival",
            self.port_label(server),
            params.channel.label,
            f"dest={self.port_label(client)} router_db={router_db} "
            f"eatt_db={float(self.spec.eatt_db[client])} loss_db={params.total_loss_db}",
        )
        self.events.append_train(
            start, period, n_frames,
            "gate-open",
            self.port_label(client),
            params.channel.label,
            f"width_ns={self.spec.detectors[client].gate_width_ns}",
        )
        return clicks


@dataclass(frozen=True, eq=False)
class NetworkRun:
    """A finished run: the session outcome plus the full event log."""

    result: SessionResult
    events: EventLog
    seed: int


def run_network(
    spec: NetworkSpec, cfg: SessionConfig, seed: int | None = None
) -> NetworkRun:
    """Run one session over ``spec``; the seed defaults to ``cfg.seed``.

    Session failures (abort, no detections) propagate as exceptions; their
    diagnostics carry the per-link measurements.
    """
    actual_seed = cfg.seed if seed is None else int(seed)
    net = Network(spec, seed=actual_seed)
    result = run_session(cfg, net)
    return NetworkRun(result=result, events=net.events, seed=actual_seed)


# ---------------------------------------------------------------------------
# Attenuation sweep


@dataclass(frozen=True)
class SweepRow:
    """One (attenuation, channel) point of a sweep.

    ``status`` is "ok" for completed sessions, "abort" when the error rate
    tripped the threshold (key discarded, QBER still measured),
    "no-detections" when a link sifted down to nothing, and
    "reconcile-failed" when reconciliation did not converge; the last two
    carry a NaN QBER, zero sift rate and zero leaked bits on every link.
    """

    atten_db: float
    channel_nm: float | None
    qber: float
    sift_rate_hz: float
    leaked_bits: int
    length_km: float
    client: int
    status: str


def sweep_attenuation(
    spec: NetworkSpec,
    cfg: SessionConfig,
    db_list: Sequence[float],
    seed: int | None = None,
    fiber_alpha: float = DEFAULT_FIBER_ALPHA_DB_PER_KM,
) -> list[SweepRow]:
    """Rerun the session once per eATT value, collecting per-channel rows.

    Every point gets a fresh seed derived from the master seed (``seed``
    or ``cfg.seed``).  Aborted points contribute rows with their measured
    QBER and zero leaked bits; points with no detections or a failed
    reconciliation contribute NaN QBER markers.  Rows are ordered by dB,
    then client port.
    """
    if not db_list:
        raise ValueError("db_list must be nonempty")
    if not all(db >= 0 for db in db_list):
        raise ValueError("attenuations must be nonnegative")
    master = cfg.seed if seed is None else int(seed)
    rows: list[SweepRow] = []
    for i, db in enumerate(sorted(db_list)):
        point_spec = spec.with_uniform_eatt(db)
        point_seed = int(
            np.random.SeedSequence((master, i)).generate_state(1, np.uint64)[0]
        )
        length_km = attenuation_to_length(db, fiber_alpha)
        try:
            run = run_network(point_spec, cfg, seed=point_seed)
            reports = run.result.links
            status = "ok"
        except SessionAbortError as err:
            reports = err.diagnostics
            status = "abort"
        except InsufficientDetectionsError:
            reports, status = None, "no-detections"
        except ReconciliationError:
            reports, status = None, "reconcile-failed"
        if reports is None:
            for client in cfg.clients:
                rows.append(
                    SweepRow(
                        atten_db=float(db),
                        channel_nm=spec.router.assignment.pair_channel(cfg.server, client).nm,
                        qber=float("nan"),
                        sift_rate_hz=0.0,
                        leaked_bits=0,
                        length_km=length_km,
                        client=client,
                        status=status,
                    )
                )
            continue
        for link in reports:
            rows.append(
                SweepRow(
                    atten_db=float(db),
                    channel_nm=link.channel_nm,
                    qber=link.qber_measured,
                    sift_rate_hz=link.sift_rate_hz,
                    leaked_bits=link.leaked_bits,
                    length_km=length_km,
                    client=link.client,
                    status=status,
                )
            )
    return rows


SWEEP_CSV_HEADER = "atten_db,channel_nm,qber,sift_rate_hz,leaked_bits,length_km"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV under the stable six-column header."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        nm = "" if r.channel_nm is None else repr(float(r.channel_nm))
        lines.append(
            f"{float(r.atten_db)!r},{nm},{float(r.qber)!r},"
            f"{float(r.sift_rate_hz)!r},{r.leaked_bits},{float(r.length_km)!r}"
        )
    return "\n".join(lines) + "\n"
