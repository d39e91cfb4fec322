"""Server-client BB84 with parity reconciliation and the key-reverse step.

One session runs the same pipeline on every server-client link: take the
link's clicks from the network, sift on basis match, estimate the error
rate from a disclosed sample, reconcile the rest with an interactive
parity protocol, then truncate all links to a common length and let the
server publish flip masks that rotate every client key onto the reference
link's key.  All classical traffic goes through a Transcript so leakage
is countable and the message flow replayable.

The network handle passed to :func:`run_session` supplies the quantum
channel and the session's transcript; see the function docstring for the
contract.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .photonics import ClickRecord, _trusted
from .router import ChannelId

__all__ = [
    "BlockAlignmentError",
    "ClassicalMessage",
    "FlipMask",
    "InsufficientDetectionsError",
    "KeyBlock",
    "LengthMismatchError",
    "LinkParameters",
    "LinkReport",
    "MESSAGE_KINDS",
    "ProtocolError",
    "QberEstimate",
    "ReconciliationError",
    "SampleSizeError",
    "SessionAbortError",
    "SessionConfig",
    "SessionError",
    "SessionResult",
    "Transcript",
    "apply_flip_mask",
    "compute_flip_mask",
    "estimate_qber",
    "reconcile",
    "run_session",
    "sift",
]


class ProtocolError(Exception):
    """Base for everything this module raises on protocol-level failure."""


class BlockAlignmentError(ProtocolError, ValueError):
    """Two key blocks that must share a frame list do not."""


class SampleSizeError(ProtocolError, ValueError):
    """Requested error-estimation sample cannot be drawn from the block."""


class LengthMismatchError(ProtocolError, ValueError):
    """A flip mask or block pair has inconsistent lengths."""


class SessionError(ProtocolError):
    """A session ended without producing a shared key."""


class ReconciliationError(SessionError):
    """The final parity check failed: blocks still differ after all passes."""


class InsufficientDetectionsError(SessionError):
    """A link has no key material: nothing sifted, or nothing left after sampling."""


class SessionAbortError(SessionError):
    """Error rate at or above the abort threshold on at least one link.

    Carries one :class:`LinkReport` per link so the operator can see which
    channel went bad and how badly.
    """

    def __init__(self, reason: str, diagnostics: tuple["LinkReport", ...]):
        super().__init__(reason)
        self.reason = reason
        self.diagnostics = diagnostics


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Key blocks and sifting


@dataclass(frozen=True, eq=False)
class KeyBlock:
    """Raw key bits plus the frame index each bit came from.

    The constructor checks and copies; derived blocks share read-only arrays."""

    bits: np.ndarray
    frames: np.ndarray
    link: tuple[int, int] | None = None  # (server port, client port)

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        frames = np.asarray(self.frames, dtype=np.int64)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must contain only bits")
        if bits.shape != frames.shape:
            raise ValueError("bits and frames must have equal length")
        if frames.size and (frames.min() < 0 or np.any(np.diff(frames) <= 0)):
            raise ValueError("frames must be nonnegative and strictly increasing")
        object.__setattr__(self, "bits", _frozen(bits))
        object.__setattr__(self, "frames", _frozen(frames))

    def __len__(self) -> int:
        return self.bits.size

    def aligned_with(self, other: "KeyBlock") -> bool:
        return len(self) == len(other) and bool(np.array_equal(self.frames, other.frames))

    def take(self, idx: np.ndarray) -> "KeyBlock":
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or np.any(np.diff(idx) <= 0))):
            raise ValueError("indices must be nonnegative and strictly increasing")
        return _trusted(KeyBlock, self.bits[idx], self.frames[idx], self.link)

    def truncate(self, length: int) -> "KeyBlock":
        if not 0 <= length <= len(self):
            raise LengthMismatchError(
                f"cannot truncate a {len(self)}-bit block to {length} bits"
            )
        return _trusted(KeyBlock, self.bits[:length], self.frames[:length], self.link)

    def with_bits(self, bits: np.ndarray) -> "KeyBlock":
        return KeyBlock(bits, self.frames, self.link)


def sift(
    clicks: ClickRecord, link: tuple[int, int] | None = None
) -> tuple[KeyBlock, KeyBlock]:
    """Keep the clicks whose bases match; returns aligned (sent, measured) blocks.

    An empty result is legal; the session layer decides whether to treat
    it as fatal.
    """
    keep = np.flatnonzero(clicks.tx_bases == clicks.rx_bases)
    frames = clicks.frames[keep]
    return (
        _trusted(KeyBlock, clicks.tx_bits[keep], frames, link),
        _trusted(KeyBlock, clicks.rx_bits[keep], frames, link),
    )


# ---------------------------------------------------------------------------
# Error estimation


@dataclass(frozen=True, eq=False)
class QberEstimate:
    """Disclosed-sample error estimate plus the surviving blocks."""

    estimate: float
    n_sampled: int
    n_mismatched: int
    sample_indices: np.ndarray
    remaining_a: KeyBlock
    remaining_b: KeyBlock


def estimate_qber(
    a: KeyBlock,
    b: KeyBlock,
    sample_fraction: float,
    rng: np.random.Generator,
) -> QberEstimate:
    """Disclose a uniform sample of both blocks and drop it from the key.

    ``sample_fraction`` may be 1.0 for full disclosure (leaving empty
    blocks), though sessions keep it well below that.
    """
    if not a.aligned_with(b):
        raise BlockAlignmentError("blocks to compare must share their frame list")
    n = len(a)
    if n == 0:
        raise SampleSizeError("cannot sample an empty block")
    if not 0 < sample_fraction <= 1:
        raise SampleSizeError(f"sample fraction must be in (0, 1], got {sample_fraction}")
    k = min(n, max(1, int(round(sample_fraction * n))))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    mismatched = int(np.count_nonzero(a.bits[idx] != b.bits[idx]))
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    keep_idx = np.flatnonzero(keep)
    frames = a.frames[keep_idx]
    return QberEstimate(
        estimate=mismatched / k,
        n_sampled=k,
        n_mismatched=mismatched,
        sample_indices=_frozen(idx.astype(np.int64)),
        remaining_a=_trusted(KeyBlock, a.bits[keep_idx], frames, a.link),
        remaining_b=_trusted(KeyBlock, b.bits[keep_idx], frames, b.link),
    )


# ---------------------------------------------------------------------------
# Classical transcript


MESSAGE_KINDS = (
    "KeyRequest",
    "TrainAnnounce",
    "BasisList",
    "SiftIndexSet",
    "SampleDisclosure",
    "ParityQuery",
    "ParityReply",
    "PermutationSeed",
    "FinalCheck",
    "FlipMask",
    "Abort",
)

# Message kinds whose payload discloses key-correlated parity bits; their
# payloads carry an explicit n_bits count that leak accounting sums over.
PARITY_KINDS = ("ParityReply", "FinalCheck")


_KINDS = frozenset(MESSAGE_KINDS)


class ClassicalMessage(NamedTuple):
    """One classical-channel message, totally ordered by sequence number.

    A named tuple, so immutable and cheaper to build than a frozen
    dataclass; :meth:`Transcript.append` checks the kind."""

    session_id: int
    seq: int
    time_ns: int
    kind: str
    sender: int | None
    receiver: int | None
    link: tuple[int, int] | None
    payload: Mapping[str, object]


def _payload_repr(payload: Mapping[str, object]) -> str:
    parts = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (bytes, bytearray)):
            parts.append(f"{key}=0x{bytes(value).hex()}")
        else:
            parts.append(f"{key}={value!r}")
    return " ".join(parts)


class Transcript:
    """Append-only log of every classical message in a session: the one
    record of classical traffic, which an event log renders from the
    messages' fields.

    ``clock`` supplies timestamps (defaults to the sequence number as a
    logical clock).
    """

    def __init__(self, session_id: int = 0, clock: Callable[[], int] | None = None):
        self.session_id = int(session_id)
        self.messages: list[ClassicalMessage] = []
        self._parity_bits: Counter[tuple[int, int] | None] = Counter()  # per link
        self._clock = clock

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[ClassicalMessage]:
        return iter(self.messages)

    def append(
        self,
        kind: str,
        sender: int | None,
        receiver: int | None,
        link: tuple[int, int] | None,
        payload: Mapping[str, object],
    ) -> ClassicalMessage:
        if kind not in _KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        seq = len(self.messages)
        time_ns = int(self._clock()) if self._clock is not None else seq
        payload = dict(payload)
        msg = ClassicalMessage(self.session_id, seq, time_ns, kind, sender, receiver, link, payload)
        self.messages.append(msg)
        if kind in PARITY_KINDS:
            self._parity_bits[link] += int(payload.get("n_bits", 0))  # type: ignore[arg-type]
        return msg

    def parity_bit_count(self, link: tuple[int, int] | None = None) -> int:
        """Total parity bits disclosed, optionally restricted to one link."""
        return self._parity_bits.total() if link is None else self._parity_bits[link]

    def render_text(self) -> str:
        """Deterministic one-line-per-message rendering.  The event log
        hashes each message's payload text as this prints it."""
        lines = []
        for m in self.messages:
            src = "-" if m.sender is None else str(m.sender)
            dst = "-" if m.receiver is None else str(m.receiver)
            lk = "-" if m.link is None else f"{m.link[0]}-{m.link[1]}"
            lines.append(
                f"{m.seq} {m.time_ns} {m.kind} {src}>{dst} link={lk} "
                f"{_payload_repr(m.payload)}".rstrip()
            )
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reconciliation (interactive parity protocol with backtracking)


def reconcile(
    a: KeyBlock,
    b: KeyBlock,
    qber_estimate: float,
    transcript: Transcript,
    rng: np.random.Generator | None = None,
    n_passes: int = 4,
    final_check_bits: int = 64,
) -> tuple[KeyBlock, KeyBlock, int]:
    """Drive ``b`` into agreement with ``a`` by exchanging parities.

    Runs ``n_passes`` passes.  Each pass shuffles with a permutation whose
    seed is put on the transcript, splits into blocks (first pass sized
    0.73 / max(estimate, 0.005); doubling afterwards, but never beyond
    half the key, so every pass can still separate an error pair), and
    compares block parities.  The odd blocks of a pass are binary-searched
    together, one level at a time: each level is one ``ParityQuery`` with
    the int64 ``lo``/``hi`` bounds of every open range and one
    ``ParityReply`` with their packed parities (``n_bits`` = number of
    ranges).  The wrong bit found in each block is flipped on the ``b``
    side, and the flips reopen the blocks of other passes containing those
    bits; rounds then bisect the first pass with odd blocks until none is
    left, so error pairs missed early are unwound later.  A final check
    sends ``a``'s parities over ``final_check_bits`` random subsets, one
    row of packed bits each, drawn as the check seed's first bytes.

    Sparse error tracking: ``b``'s parity over a range is ``a``'s XOR that
    of the errors in it, and each flip removes an error, so a pass keeps
    ``a``'s prefix parities and the sorted shuffled positions of the errors
    left.  A pass costs O(n) once, a bisection level two ``searchsorted``.

    Returns ``(a, corrected_b, leaked_bits)`` where ``leaked_bits`` counts
    every parity bit put on the transcript, final check included.
    """
    if not a.aligned_with(b):
        raise BlockAlignmentError("blocks to reconcile must share their frame list")
    n = len(a)
    if n == 0:
        raise ValueError("cannot reconcile empty blocks")
    if not 0 <= qber_estimate <= 1:
        raise ValueError(f"error estimate must be a fraction, got {qber_estimate}")
    if n_passes < 1:
        raise ValueError("need at least one pass")
    if rng is None:
        rng = np.random.default_rng(0x5EC0)
    link = a.link
    server = link[0] if link else None
    client = link[1] if link else None

    ab = a.bits
    err = ab != b.bits
    k1 = min(n, max(1, math.ceil(0.73 / max(qber_estimate, 0.005))))
    k_cap = max(k1, n // 2)
    leaked = 0
    # per pass: block size, prefix parities of a, and the errors left as
    # sorted shuffled positions and the key index at each
    passes: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def bisect_and_flip(q: int, odd: np.ndarray) -> None:
        """Bisect the odd blocks of pass ``q`` together, one query and one
        reply per level, then flip the wrong bit found in each block."""
        nonlocal leaked
        k, pre_a, pos, index = passes[q]
        lo = odd * k
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
            leaked += mid.size
            left = (np.searchsorted(pos, mid) - np.searchsorted(pos, qlo)) & 1 == 1
            hi[open_[left]] = mid[left]
            lo[open_[~left]] = mid[~left]
        err[index[np.searchsorted(pos, lo)]] = False
        for r, (k, pre_a, pos, index) in enumerate(passes):
            keep = err[index]
            passes[r] = (k, pre_a, pos[keep], index[keep])

    def first_odd() -> tuple[int, np.ndarray] | None:
        """The first pass with odd blocks, and those blocks."""
        for q, (k, _, pos, _) in enumerate(passes):
            odd = np.flatnonzero(np.bincount(pos // k) & 1)
            if odd.size:
                return q, odd
        return None

    for p in range(n_passes):
        k = min(k1 << p, k_cap)
        seed = int(rng.integers(0, 2**63))
        transcript.append(
            "PermutationSeed", client, server, link, {"pass": p, "seed": seed}
        )
        perm = np.random.default_rng(seed).permutation(n)
        starts = np.arange(0, n, k)
        ends = np.minimum(starts + k, n)

        transcript.append(
            "ParityQuery", client, server, link, {"pass": p, "block_size": k}
        )
        # entry i is the parity of a's first i shuffled bits
        pre_a = np.zeros(n + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(ab[perm], out=pre_a[1:])
        transcript.append(
            "ParityReply", server, client, link,
            {
                "pass": p,
                "block_size": k,
                "parities": np.packbits(pre_a[ends] ^ pre_a[starts]).tobytes(),
                "n_bits": starts.size,
            },
        )
        leaked += starts.size
        pos = np.flatnonzero(err[perm])
        passes.append((k, pre_a, pos, perm[pos]))
        del perm  # not kept: free it before the next pass draws its own
        # each round's flips reopen blocks of other passes; bisect the first
        # pass with odd blocks, smallest blocks first, until none is odd
        while found := first_odd():
            bisect_and_flip(*found)

    check_seed = int(rng.integers(0, 2**63))
    transcript.append(
        "FinalCheck", client, server, link,
        {"seed": check_seed, "n_subsets": final_check_bits},
    )
    n_bytes = (n + 7) // 8
    masks = np.frombuffer(
        np.random.default_rng(check_seed).bytes(final_check_bits * n_bytes), dtype=np.uint8
    ).reshape(final_check_bits, n_bytes)
    ones = np.bitwise_count(masks & np.packbits(ab)).sum(axis=1, dtype=np.int64)
    transcript.append(
        "FinalCheck", server, client, link,
        {
            "seed": check_seed,
            "digest": np.packbits(ones & 1).tobytes(),
            "n_bits": final_check_bits,
        },
    )
    leaked += final_check_bits
    # b's subset parity differs from a's by that of the errors left in it
    residual = np.flatnonzero(err)
    in_subset = masks[:, residual >> 3] >> (7 - (residual & 7)).astype(np.uint8) & 1
    mismatched = np.count_nonzero(in_subset.sum(axis=1) & 1)
    if mismatched:
        raise ReconciliationError(
            f"final check failed on {mismatched} of {final_check_bits} subset parities"
        )
    return a, _trusted(KeyBlock, ab ^ err, b.frames, b.link), leaked


# ---------------------------------------------------------------------------
# Flip masks (key-reverse operation)


@dataclass(frozen=True, eq=False)
class FlipMask:
    """Positions (0-based) at which a key block must be inverted."""

    length: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("mask length must be nonnegative")
        pos = np.asarray(self.positions, dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= self.length:
                raise ValueError("mask positions must lie inside the block")
            if np.any(np.diff(pos) <= 0):
                raise ValueError("mask positions must be strictly increasing")
        object.__setattr__(self, "positions", _frozen(pos))

    def __len__(self) -> int:
        return int(self.positions.size)

    @property
    def positions_one_based(self) -> tuple[int, ...]:
        return tuple(int(p) + 1 for p in self.positions)


def compute_flip_mask(reference: KeyBlock, other: KeyBlock) -> FlipMask:
    """Positions where ``other`` differs from ``reference`` (their XOR)."""
    if len(reference) != len(other):
        raise LengthMismatchError(
            f"blocks differ in length: {len(reference)} vs {len(other)}"
        )
    return _trusted(FlipMask, len(reference), np.flatnonzero(reference.bits ^ other.bits))


def apply_flip_mask(k: KeyBlock, m: FlipMask) -> KeyBlock:
    """Invert ``k`` at the masked positions; an involution for fixed mask."""
    if len(k) != m.length:
        raise LengthMismatchError(
            f"mask of length {m.length} cannot apply to a {len(k)}-bit block"
        )
    bits = k.bits.copy()
    bits[m.positions] ^= 1
    return _trusted(KeyBlock, bits, k.frames, k.link)


# ---------------------------------------------------------------------------
# Session orchestration


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one key-agreement session.

    ``mode`` semantics: ``unicast`` serves one client, or relays between
    two clients through the trusted server; ``multicast`` serves any two
    or more clients; ``broadcast`` must name every non-server port (the
    completeness is checked against the network at run time).
    """

    server: int
    clients: tuple[int, ...]
    mode: str = "broadcast"
    n_frames: int = 100_000
    sample_fraction: float = 0.25
    qber_abort_threshold: float = 0.11
    seed: int = 0

    def __post_init__(self) -> None:
        clients = tuple(sorted({int(c) for c in self.clients}))
        if len(clients) != len(self.clients):
            raise ValueError("client ports must be distinct")
        object.__setattr__(self, "clients", clients)
        if not clients:
            raise ValueError("a session needs at least one client")
        if self.server in clients:
            raise ValueError("the server cannot be its own client")
        if self.mode not in ("unicast", "multicast", "broadcast"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "unicast" and len(clients) > 2:
            raise ValueError("unicast serves one client or relays between two")
        if self.mode == "multicast" and len(clients) < 2:
            raise ValueError("multicast needs at least two clients")
        if self.n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {self.n_frames}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.sample_fraction < 1:
            raise ValueError(f"sample_fraction must be in (0, 1), got {self.sample_fraction}")
        # zero forces an abort on any estimate, which is useful for drills
        if not 0 <= self.qber_abort_threshold <= 0.5:
            raise ValueError(
                f"qber_abort_threshold must be in [0, 0.5], got {self.qber_abort_threshold}"
            )


@dataclass(frozen=True)
class LinkParameters:
    """Physical facts about one server-client link, supplied by the network."""

    channel: ChannelId
    p_sig: float
    p_dark: float
    e_opt: float
    rep_rate_hz: float
    total_loss_db: float
    offset_ns: int = 0


@dataclass(frozen=True)
class LinkReport:
    """Everything measured and leaked on one link during a session."""

    server: int
    client: int
    channel_index: int
    channel_nm: float | None
    n_frames: int
    n_clicked: int
    n_sifted: int
    n_sampled: int
    sample_mismatches: int
    qber_estimate: float
    qber_measured: float
    leaked_bits: int
    n_corrected: int
    final_length: int
    p_sig: float
    p_dark: float
    total_loss_db: float
    rep_rate_hz: float

    @property
    def sift_rate_hz(self) -> float:
        """Sifted bits per second of quantum transmission."""
        return self.n_sifted * self.rep_rate_hz / self.n_frames


@dataclass(frozen=True, eq=False)
class SessionResult:
    """Outcome of a successful session: one key shared by all clients."""

    config: SessionConfig
    final_key: np.ndarray
    reference_client: int
    client_keys: Mapping[int, np.ndarray]
    links: tuple[LinkReport, ...]
    transcript: Transcript

    def __post_init__(self) -> None:
        object.__setattr__(self, "final_key", _frozen(np.asarray(self.final_key, dtype=np.uint8)))

    @property
    def key_length(self) -> int:
        return int(self.final_key.size)

    @property
    def total_leaked_bits(self) -> int:
        return sum(l.leaked_bits for l in self.links)

    def link_for(self, client: int) -> LinkReport:
        for l in self.links:
            if l.client == client:
                return l
        raise KeyError(f"no link report for client {client}")


@dataclass
class _LinkState:
    client: int
    params: LinkParameters
    n_clicked: int = 0
    n_sifted: int = 0
    n_errors: int = 0  # differing bits of the sifted blocks
    estimate: QberEstimate | None = None
    corrected_b: KeyBlock | None = None  # reconcile leaves a's block as it is
    leaked: int = 0


def run_session(cfg: SessionConfig, network) -> SessionResult:
    """Run one key-agreement session over a network handle.

    The handle must provide:

    - ``n_ports`` (int) and ``port_label(port) -> str``
    - ``link_parameters(server, client) -> LinkParameters``
    - ``transmit_train(server, client, n_frames) -> ClickRecord``, the
      link's clicked frames (see :func:`wdmqkd.photonics.sample_clicks`)
    - ``protocol_rng() -> numpy Generator`` (one stream per session)
    - ``new_transcript(session_id) -> Transcript``, the session's record of
      classical traffic; the handle times its messages and may keep it, and
      a handle that runs one session raises ValueError on a second call

    Flow: clients request keys; on every link the client announces the
    frames that clicked and its bases, the server sifts on basis match, and
    both run sample-based error estimation; if any estimate reaches
    the abort threshold the session aborts with full diagnostics; the
    surviving blocks are reconciled, truncated to the shortest link, and
    every client receives a flip mask rotating its key onto the lowest-
    numbered client's key.
    """
    n_ports = int(network.n_ports)
    if not 0 <= cfg.server < n_ports:
        raise ValueError(f"server port {cfg.server} outside the network")
    for c in cfg.clients:
        if not 0 <= c < n_ports:
            raise ValueError(f"client port {c} outside the network")
    if cfg.mode == "broadcast":
        everyone = tuple(p for p in range(n_ports) if p != cfg.server)
        if cfg.clients != everyone:
            raise ValueError(
                f"broadcast must address every non-server port {everyone}, "
                f"got {cfg.clients}"
            )

    transcript = network.new_transcript(cfg.seed)
    rng = network.protocol_rng()
    links: dict[int, _LinkState] = {}

    # A: requests and train announcements
    for c in cfg.clients:
        transcript.append(
            "KeyRequest", c, cfg.server, (cfg.server, c),
            {"mode": cfg.mode, "n_frames": cfg.n_frames},
        )
    for c in cfg.clients:
        params = network.link_parameters(cfg.server, c)
        links[c] = _LinkState(client=c, params=params)
        transcript.append(
            "TrainAnnounce", cfg.server, c, (cfg.server, c),
            {
                "n_frames": cfg.n_frames,
                "channel": params.channel.index,
                "offset_ns": params.offset_ns,
            },
        )

    # B: quantum transmission, C: sift and estimate
    for c in cfg.clients:
        st = links[c]
        link = (cfg.server, c)
        clicks = network.transmit_train(cfg.server, c, cfg.n_frames)
        st.n_clicked = len(clicks)
        transcript.append(
            "BasisList", c, cfg.server, link,
            {
                "n_clicked": st.n_clicked,
                "frames": clicks.frames.tobytes(),
                "bases": np.packbits(clicks.rx_bases).tobytes(),
            },
        )
        a, b = sift(clicks, link=link)
        st.n_sifted = len(a)
        transcript.append(
            "SiftIndexSet", cfg.server, c, link,
            {"n_sifted": st.n_sifted, "frames": a.frames.tobytes()},
        )
        if st.n_sifted == 0:
            transcript.append(
                "Abort", cfg.server, c, link, {"reason": "no sifted bits"}
            )
            raise InsufficientDetectionsError(
                f"link to port {network.port_label(c)} sifted down to nothing "
                f"({st.n_clicked} clicks in {cfg.n_frames} frames)"
            )
        st.n_errors = int(np.count_nonzero(a.bits != b.bits))
        est = estimate_qber(a, b, cfg.sample_fraction, rng)
        st.estimate = est
        transcript.append(
            "SampleDisclosure", cfg.server, c, link,
            {
                "n_sampled": est.n_sampled,
                "indices": est.sample_indices.tobytes(),
                "bits": np.packbits(a.bits[est.sample_indices]).tobytes(),
            },
        )
        transcript.append(
            "SampleDisclosure", c, cfg.server, link,
            {"n_sampled": est.n_sampled, "mismatches": est.n_mismatched},
        )
        if len(est.remaining_a) == 0:
            transcript.append(
                "Abort", cfg.server, c, link, {"reason": "no bits left after sampling"}
            )
            raise InsufficientDetectionsError(
                f"link to port {network.port_label(c)} has no bits left after "
                f"sampling {est.n_sampled} of {st.n_sifted} sifted bits"
            )

    # abort gate: every link was estimated first, so diagnostics are complete
    bad = [c for c in cfg.clients if links[c].estimate.estimate >= cfg.qber_abort_threshold]
    if bad:
        for c in bad:
            transcript.append(
                "Abort", cfg.server, c, (cfg.server, c),
                {
                    "reason": "error rate at or above threshold",
                    "estimate": links[c].estimate.estimate,
                    "threshold": cfg.qber_abort_threshold,
                },
            )
        reports = tuple(
            _link_report(cfg, links[c], final_length=0) for c in cfg.clients
        )
        labels = ", ".join(network.port_label(c) for c in bad)
        raise SessionAbortError(
            f"estimated error rate at or above {cfg.qber_abort_threshold} "
            f"on link(s) to {labels}",
            diagnostics=reports,
        )

    # D: reconcile every link
    for c in cfg.clients:
        st = links[c]
        est = st.estimate
        # size the passes with a small-sample-padded estimate: a lucky
        # sample must not starve the first pass of blocks
        sizing = (est.n_mismatched + 2) / (est.n_sampled + 4)
        failure: ReconciliationError | None = None
        for _ in range(2):
            try:
                _, st.corrected_b, _ = reconcile(
                    est.remaining_a, est.remaining_b, sizing, transcript, rng=rng
                )
                break
            except ReconciliationError as err:
                failure = err  # fresh permutations next attempt
        else:
            raise failure
        # no parity bit of this link is on the transcript before this stage
        st.leaked = transcript.parity_bit_count(link=(cfg.server, c))

    # E: truncate to the shortest link and publish flip masks
    final_length = min(len(links[c].corrected_b) for c in cfg.clients)
    reference = cfg.clients[0]
    ref_block = links[reference].estimate.remaining_a.truncate(final_length)
    client_keys: dict[int, np.ndarray] = {}
    for c in cfg.clients:
        st = links[c]
        mask = compute_flip_mask(ref_block, st.estimate.remaining_a.truncate(final_length))
        transcript.append(
            "FlipMask", cfg.server, c, (cfg.server, c),
            {
                "length": mask.length,
                "n_flips": len(mask),
                "positions": mask.positions.tobytes(),
            },
        )
        final = apply_flip_mask(st.corrected_b.truncate(final_length), mask)
        client_keys[c] = final.bits

    for c in cfg.clients:
        if not np.array_equal(client_keys[c], ref_block.bits):
            raise ReconciliationError(
                f"client {network.port_label(c)} key disagrees with the "
                "reference after masking"
            )

    reports = tuple(
        _link_report(cfg, links[c], final_length=final_length) for c in cfg.clients
    )
    return SessionResult(
        config=cfg,
        final_key=ref_block.bits,
        reference_client=reference,
        client_keys=client_keys,
        links=reports,
        transcript=transcript,
    )


def _link_report(cfg: SessionConfig, st: _LinkState, final_length: int) -> LinkReport:
    est = st.estimate
    return LinkReport(
        server=cfg.server,
        client=st.client,
        channel_index=st.params.channel.index,
        channel_nm=st.params.channel.nm,
        n_frames=cfg.n_frames,
        n_clicked=st.n_clicked,
        n_sifted=st.n_sifted,
        n_sampled=est.n_sampled,
        sample_mismatches=est.n_mismatched,
        qber_estimate=est.estimate,
        qber_measured=st.n_errors / st.n_sifted,
        leaked_bits=st.leaked,
        # a completed link corrects every error the sample left in its key
        n_corrected=st.n_errors - est.n_mismatched if st.corrected_b is not None else 0,
        final_length=final_length,
        p_sig=st.params.p_sig,
        p_dark=st.params.p_dark,
        total_loss_db=st.params.total_loss_db,
        rep_rate_hz=st.params.rep_rate_hz,
    )
