"""Deterministic discrete-event harness around the router and the protocol.

A Network binds one server and N-1 clients to the ports of a router,
schedules every wavelength at its own time offset inside the repetition
frame, and drives :func:`wdmqkd.protocol.run_session` with quantum
transmissions whose loss is the measured router path plus a configurable
eATT.  Every pulse arrival, detection gate, and classical message lands
in an event log that is totally ordered and reproducible from the seed.

A Network runs one session and owns its quantum window, which opens one
frame after t = 0 and ends by 2**61 ns: the period is the source's, and
the first train sets the frame count.  It checks a train before it
samples it.  Its log is a read-only view of what it sent: pulse and gate
trains that share the window's period and count and start in its first
frame, and the transcript's messages, rendered from their fields at 0
if sent before the first train and at the window's end if not.  The trains
are stored as arithmetic sequences and expand to lines only when
rendered.  Rendering walks the window in runs of whole frames, each frame
the one before plus the period, so one lexsort of the first frame orders
them all.  One writer turns every run into bytes: it tiles one row's
bytes, every line's text after room for its time, and writes the decimal
times into the room with numpy.  Where the period divides a power of ten
D, a block [H·D, (H+1)·D) with H >= 1 is the one before with the leading
digits str(H) of its times rewritten.  The guard check reads the pulse
trains' first lines alone: every frame repeats the first.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._numbers import _integer, _real
from .photonics import (
    DEFAULT_CLIENT_DARK_RATES_HZ,
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
    LinkParameters,
    SessionConfig,
    SessionError,
    SessionResult,
    Transcript,
    _payload_repr,
    run_session,
)
from .router import ChannelId, RouterSpec, fourport_router_spec, path_loss_db, port_label

__all__ = [
    "EventLog",
    "Network",
    "NetworkRun",
    "NetworkSpec",
    "SweepRow",
    "assign_time_offsets",
    "default_client_detectors",
    "default_fourport_network",
    "run_network",
    "sweep_attenuation",
    "sweep_rows_to_csv",
]


DEFAULT_GUARD_NS = 100

# the kinds of train, in their order at equal times
_TRAIN_KINDS = ("pulse-arrival", "gate-open")

# Lines per rendering block, or one frame where a frame holds more: bounds
# the memory a render takes, whatever the length of the log.  2**15
# rendered a 1.5M-line log no faster and raised the peak RSS of its digest
# plus guard check by 3 MB.
_WINDOW_LINES = 1 << 13
# A Network's quantum window ends by 2**61 ns, so sums and differences of
# two times fit in int64.
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
    idx = [c.index if isinstance(c, ChannelId) else _integer(c, "channel") for c in channels]
    if len(set(idx)) != len(idx):
        raise ValueError("channels must be distinct")
    if not idx:
        raise ValueError("need at least one channel")
    frame_period_ns = _integer(frame_period_ns, "frame_period_ns", 1)
    guard_ns = _integer(guard_ns, "guard_ns", 1)
    if len(idx) * guard_ns > frame_period_ns:
        raise ValueError(
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
    """Read-only, totally ordered view of the pulse and gate trains and the
    classical messages that a :class:`Network` sent.

    ``window`` is (f, period, count): each of ``trains``, a (time, kind,
    port, channel, detail) with kind pulse-arrival or gate-open, repeats
    ``count`` times one period apart from its time in the first frame
    [f, f + period), so each frame holds one line of every train, always in
    one order, (time, kind rank, append order).  ``messages`` keep their
    send order: the first ``n_before`` at 0, the rest at the window's end.
    A message's line is ``time classical-message S - kind=K link=A-B seq=N
    payload=D``: S and A-B the :func:`~wdmqkd.router.port_label` of its
    sender and link ports, or -, and D the first 16 hex digits of the
    SHA-256 of its payload as :meth:`Transcript.render_text` prints it.
    """

    def __init__(self, window: tuple[int, int, int],
                 trains: Iterable[tuple[int, str, str, str, str]],
                 messages: Iterable[ClassicalMessage], n_before: int) -> None:
        self._window = window
        self._trains = tuple(trains)
        self._messages = tuple(messages)
        self._n_before = n_before

    def _message_line(self, time: int, m: ClassicalMessage) -> str:
        port = "-" if m.sender is None else port_label(m.sender)
        link = "-" if m.link is None else "-".join(map(port_label, m.link))
        payload = hashlib.sha256(_payload_repr(m.payload).encode()).hexdigest()[:16]
        return (f"{time} classical-message {port} - kind={m.kind} link={link} "
                f"seq={m.seq} payload={payload}\n")

    def __len__(self) -> int:
        return len(self._messages) + len(self._trains) * self._window[2]

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
        f, period, count = self._window
        end = f + count * period

        def message_chunks(time: int, messages: Sequence[ClassicalMessage]) -> Iterator[np.ndarray]:
            for i in range(0, len(messages), cap):
                text = "".join(self._message_line(time, m) for m in messages[i:i + cap])
                yield np.frombuffer(text.encode(), dtype=np.uint8)

        yield from message_chunks(0, self._messages[:self._n_before])
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
            grid = f - f % decade if decade else f
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
        yield from message_chunks(end, self._messages[self._n_before:])

    def render_lines(self) -> Iterator[str]:
        for chunk in self._chunks():
            yield from chunk.tobytes().decode().split("\n")[:-1]

    def render_text(self) -> str:
        return b"".join(self._chunks()).decode()

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
        f, period, count = self._window
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
    0, guard_ns, 2·guard_ns, ... into it.  Every detector gates once a
    frame, so its dark rate must stay below the source's rate.
    """

    router: RouterSpec
    server: int
    source: SourceModel
    detectors: Mapping[int, DetectorModel]
    eatt_db: Mapping[int, float]
    guard_ns: int = DEFAULT_GUARD_NS

    def __post_init__(self) -> None:
        # plain ints: guard_ns sets the logged offsets
        n_ports = self.router.assignment.n_ports
        object.__setattr__(self, "server", _integer(self.server, "server", 0, n_ports - 1))
        object.__setattr__(self, "guard_ns", _integer(self.guard_ns, "guard_ns", 1))
        clients = self.clients

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
            if det.dark_rate_hz >= self.source.rep_rate_hz:
                raise ValueError(
                    f"dark rate {det.dark_rate_hz} Hz of the detector at port {p} must "
                    f"stay below the source's {self.source.rep_rate_hz} Hz gating rate"
                )
        if set(self.eatt_db) != set(clients):
            raise ValueError(
                f"eatt_db must cover exactly the client ports {clients}, "
                f"got {sorted(self.eatt_db)}"
            )
        eatt = {p: _real(db, f"eatt_db at port {p}", 0, unit="dB")
                for p, db in self.eatt_db.items()}
        object.__setattr__(self, "eatt_db", eatt)
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
        return replace(self, eatt_db=dict.fromkeys(self.clients, db))


def default_client_detectors(clients: Sequence[int]) -> dict[int, DetectorModel]:
    """The shipped detectors: ``DEFAULT_CLIENT_DARK_RATES_HZ`` assigned to
    the client ports in port order, every other figure at its default."""
    rates = zip(sorted(clients), DEFAULT_CLIENT_DARK_RATES_HZ, strict=True)
    return {c: DetectorModel(dark_rate_hz=rate) for c, rate in rates}


def default_fourport_network() -> NetworkSpec:
    """The shipped 4-port star: server at port A, measured losses, no
    eATT, and three clients whose detectors carry the calibrated dark rates
    in port order."""
    return NetworkSpec(
        router=fourport_router_spec(),
        server=0,
        source=SourceModel(),
        detectors=default_client_detectors((1, 2, 3)),
        eatt_db={1: 0.0, 2: 0.0, 3: 0.0},
    )


# ---------------------------------------------------------------------------
# Runtime network handle


class Network:
    """Runtime handle satisfying the run_session contract with full logging.

    It runs one session and owns its quantum window.  It keeps each link's
    pulse and gate trains, the transcript's messages and how many of them
    were sent before the first train; :attr:`events` shows them."""

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        self._assignment = spec.router.assignment
        streams = np.random.SeedSequence(_integer(seed, "seed")).spawn(self._assignment.n_ports + 1)
        *ports, session = map(np.random.default_rng, streams)
        self._quantum_rng = dict(enumerate(ports))  # one stream per port
        self._session_rng = session
        self._n_frames = 0  # the window's frame count, set by the first train
        # client -> its (pulse, gate) trains, each (time, kind, port, channel, detail)
        self._trains: dict[int, tuple[tuple[int, str, str, str, str], ...]] = {}
        self._messages: list[ClassicalMessage] | None = None  # the transcript's
        self._n_before = 0  # messages sent before the first train

    @property
    def n_ports(self) -> int:
        return self._assignment.n_ports

    def protocol_rng(self) -> np.random.Generator:
        return self._session_rng

    @property
    def events(self) -> EventLog:
        """A fresh read-only view of what the Network sent so far."""
        period = self.spec.frame_period_ns
        window = (period, period, self._n_frames)  # it opens one frame after t = 0
        trains = itertools.chain.from_iterable(self._trains.values())
        messages = self._messages or ()
        # with no train sent, every message came before the window
        n_before = self._n_before if self._n_frames else len(messages)
        return EventLog(window, trains, messages, n_before)

    def new_transcript(self) -> Transcript:
        """The session's transcript, whose message list the Network keeps
        alone; a second one raises ValueError."""
        if self._messages is not None:
            raise ValueError("the Network already ran a session; a Network runs one session")
        transcript = Transcript()
        self._messages = transcript.messages
        return transcript

    def link_parameters(self, server: int, client: int) -> LinkParameters:
        channel = self._assignment.pair_channel(server, client)  # refuses a port outside
        if server != self.spec.server:
            raise ValueError(
                f"port {port_label(server)} holds no source; the server "
                f"is {port_label(self.spec.server)}"
            )
        det = self.spec.detectors[client]
        budget = LinkBudget.of(
            ("router", path_loss_db(self.spec.router, server, client)),
            ("eATT", self.spec.eatt_db[client]),
        )
        return LinkParameters(
            channel=channel,
            p_sig=p_signal_click(self.spec.source, budget, det),
            p_dark=p_dark_per_gate(self.spec.source, det),
            e_opt=self.spec.source.e_opt,
            rep_rate_hz=self.spec.source.rep_rate_hz,
            total_loss_db=budget.total_db,
            offset_ns=self.spec.offsets_ns[channel.index],
        )

    def transmit_train(self, server: int, client: int, n_frames: int) -> ClickRecord:
        """Send ``n_frames`` pulses to ``client``, keep the pulse and gate
        trains and return the frames that clicked.  Every train has the
        frames of the first, a link carries one train, and the window ends
        by 2**61 ns: a train that breaks a rule raises ValueError before it
        samples."""
        params = self.link_parameters(server, client)
        n_frames = _integer(n_frames, "n_frames")
        if client in self._trains:
            raise ValueError(f"the train to port {port_label(client)} was already sent; "
                             "a Network runs one session")
        if self._n_frames and n_frames != self._n_frames:
            raise ValueError(f"a train of the quantum window has {self._n_frames} frames, "
                             f"got {n_frames}")
        period = self.spec.frame_period_ns
        end = (n_frames + 1) * period  # the window opens one frame after t = 0
        if end > _TIME_LIMIT:
            raise ValueError(f"the quantum window [{period}, {end}) ns ends past 2**61 ns: "
                             f"lower session.n_frames ({n_frames})")
        clicks = sample_clicks(
            n_frames, params.p_sig, params.p_dark, params.e_opt, self._quantum_rng[client]
        )
        start, channel = period + params.offset_ns, params.channel.label
        router_db = path_loss_db(self.spec.router, server, client)
        self._trains[client] = (
            (start, "pulse-arrival", port_label(server), channel,
             f"dest={port_label(client)} router_db={router_db} "
             f"eatt_db={self.spec.eatt_db[client]} loss_db={params.total_loss_db}"),
            (start, "gate-open", port_label(client), channel,
             f"width_ns={self.spec.detectors[client].gate_width_ns}"),
        )
        if not self._n_frames:  # the first train opens the window
            self._n_before = len(self._messages or ())
        self._n_frames = n_frames
        return clicks


@dataclass(frozen=True, eq=False)
class NetworkRun:
    """A finished run: the session outcome plus the full event log."""

    result: SessionResult
    events: EventLog


def run_network(spec: NetworkSpec, cfg: SessionConfig) -> NetworkRun:
    """Run one session over ``spec``, seeded by ``cfg.seed``.

    A failed session raises its :class:`~wdmqkd.protocol.SessionError`,
    whose ``status`` and ``diagnostics`` say how it failed.
    """
    net = Network(spec, seed=cfg.seed)
    result = run_session(cfg, net)
    return NetworkRun(result=result, events=net.events)


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
    db_list: Iterable[float],
) -> list[SweepRow]:
    """Rerun the session once per eATT value, collecting per-channel rows.

    Every point runs with a fresh seed derived from ``cfg.seed``.  A failed
    point's rows carry its error's ``status``, and its diagnostics where it
    has them (an abort's measured QBER, with zero leaked bits); without
    them, NaN QBER markers.  Rows are ordered by dB, then client port.
    """
    db_list = [_real(db, "attenuation", 0, unit="dB") for db in db_list]
    if not db_list:
        raise ValueError("db_list must be nonempty")
    rows: list[SweepRow] = []
    for i, db in enumerate(sorted(db_list)):
        point_seed = int(
            np.random.SeedSequence((cfg.seed, i)).generate_state(1, np.uint64)[0]
        )
        length_km = attenuation_to_length(db)
        try:
            run = run_network(spec.with_uniform_eatt(db), replace(cfg, seed=point_seed))
            reports, status = run.result.links, "ok"
        except SessionError as err:
            reports, status = err.diagnostics or (None,) * len(cfg.clients), err.status
        for client, link in zip(cfg.clients, reports):
            rows.append(
                SweepRow(
                    atten_db=db,
                    channel_nm=spec.router.assignment.pair_channel(cfg.server, client).nm,
                    qber=float("nan") if link is None else link.qber_measured,
                    sift_rate_hz=0.0 if link is None else link.sift_rate_hz,
                    leaked_bits=0 if link is None else link.leaked_bits,
                    length_km=length_km,
                    client=client,
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
