"""Server-client BB84 with parity reconciliation and the key-reverse step.

One session runs the same pipeline on every server-client link: prepare a
pulse train, measure it, sift on click + basis match, estimate the error
rate from a disclosed sample, reconcile the rest with an interactive
parity protocol, then truncate all links to a common length and let the
server publish flip masks that rotate every client key onto the reference
link's key.  All classical traffic goes through a Transcript so leakage
is countable and the message flow replayable.

The network handle passed to :func:`run_session` supplies the quantum
channel and the clock; see the function docstring for the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .photonics import DetectorModel, SourceModel, p_dark_per_gate, simulate_gate_array
from .router import ChannelId

__all__ = [
    "BlockAlignmentError",
    "ClassicalMessage",
    "DetectionTrain",
    "FlipMask",
    "InsufficientDetectionsError",
    "KeyBlock",
    "LengthMismatchError",
    "LinkParameters",
    "LinkReport",
    "MESSAGE_KINDS",
    "ProtocolError",
    "PulseTrain",
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
    "generate_train",
    "measure_train",
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


def _bit_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} must contain only bits")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Pulse and detection trains


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """A contiguous run of prepared frames, stored as arrays.

    Frame indices are implicit: element ``i`` of each array is frame ``i``.
    """

    channel: ChannelId
    mu: float
    bases: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        bases = _bit_array(self.bases, "bases")
        bits = _bit_array(self.bits, "bits")
        if bases.shape != bits.shape:
            raise ValueError("bases and bits must have equal length")
        if bases.size == 0:
            raise ValueError("a train must contain at least one frame")
        if self.mu <= 0:
            raise ValueError("mean photon number must be positive")
        object.__setattr__(self, "bases", _frozen(bases))
        object.__setattr__(self, "bits", _frozen(bits))

    def __len__(self) -> int:
        return self.bases.size


@dataclass(frozen=True, eq=False)
class DetectionTrain:
    """Measurement results aligned frame-for-frame with a PulseTrain."""

    bases: np.ndarray
    clicked: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        bases = _bit_array(self.bases, "bases")
        clicked = np.asarray(self.clicked, dtype=bool)
        bits = _bit_array(self.bits, "bits")
        if not bases.shape == clicked.shape == bits.shape:
            raise ValueError("bases, clicked, and bits must have equal length")
        bits = np.where(clicked, bits, 0).astype(np.uint8)  # no-click carries no bit
        object.__setattr__(self, "bases", _frozen(bases))
        object.__setattr__(self, "clicked", _frozen(clicked))
        object.__setattr__(self, "bits", _frozen(bits))

    def __len__(self) -> int:
        return self.bases.size


def generate_train(
    n_frames: int, channel: ChannelId, src: SourceModel, rng: np.random.Generator
) -> PulseTrain:
    """Prepare ``n_frames`` pulses with independent uniform bases and bits."""
    if n_frames <= 0:
        raise ValueError(f"need at least one frame, got {n_frames}")
    bases = rng.integers(0, 2, size=n_frames, dtype=np.uint8)
    bits = rng.integers(0, 2, size=n_frames, dtype=np.uint8)
    return PulseTrain(channel=channel, mu=src.mean_photon_number, bases=bases, bits=bits)


def measure_train(
    train: PulseTrain,
    det: DetectorModel,
    p_sig: float,
    e_opt: float,
    rng: np.random.Generator,
) -> DetectionTrain:
    """Measure a train after the channel: random bases, then gated clicks.

    ``p_sig`` is the per-gate signal click probability after all losses;
    the dark probability comes from the detector model.
    """
    n = len(train)
    rx_bases = rng.integers(0, 2, size=n, dtype=np.uint8)
    clicked, bits = simulate_gate_array(
        train.bits,
        rx_bases == train.bases,
        p_sig,
        p_dark_per_gate(det),
        e_opt,
        rng,
    )
    return DetectionTrain(bases=rx_bases, clicked=clicked, bits=bits)


# ---------------------------------------------------------------------------
# Key blocks and sifting


@dataclass(frozen=True, eq=False)
class KeyBlock:
    """Raw key bits plus the frame index each bit came from."""

    bits: np.ndarray
    frames: np.ndarray
    link: tuple[int, int] | None = None  # (server port, client port)

    def __post_init__(self) -> None:
        bits = _bit_array(self.bits, "bits")
        frames = np.asarray(self.frames, dtype=np.int64)
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
        return KeyBlock(self.bits[idx], self.frames[idx], self.link)

    def truncate(self, length: int) -> "KeyBlock":
        if not 0 <= length <= len(self):
            raise LengthMismatchError(
                f"cannot truncate a {len(self)}-bit block to {length} bits"
            )
        return KeyBlock(self.bits[:length], self.frames[:length], self.link)

    def with_bits(self, bits: np.ndarray) -> "KeyBlock":
        return KeyBlock(bits, self.frames, self.link)


def sift(
    sent: PulseTrain,
    received: DetectionTrain,
    link: tuple[int, int] | None = None,
) -> tuple[KeyBlock, KeyBlock]:
    """Keep frames that clicked with matching bases; returns aligned blocks.

    An empty result is legal; the session layer decides whether to treat
    it as fatal.
    """
    if len(sent) != len(received):
        raise BlockAlignmentError(
            f"trains cover different frame universes: {len(sent)} vs {len(received)}"
        )
    keep = received.clicked & (sent.bases == received.bases)
    frames = np.flatnonzero(keep).astype(np.int64)
    a = KeyBlock(sent.bits[keep], frames, link)
    b = KeyBlock(received.bits[keep], frames, link)
    return a, b


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
    return QberEstimate(
        estimate=mismatched / k,
        n_sampled=k,
        n_mismatched=mismatched,
        sample_indices=_frozen(idx.astype(np.int64)),
        remaining_a=a.take(keep_idx),
        remaining_b=b.take(keep_idx),
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


@dataclass(frozen=True)
class ClassicalMessage:
    """One classical-channel message, totally ordered by sequence number."""

    session_id: int
    seq: int
    time_ns: int
    kind: str
    sender: int | None
    receiver: int | None
    link: tuple[int, int] | None
    payload: Mapping[str, object]

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")


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
    """Append-only log of every classical message in a session.

    ``clock`` supplies timestamps (defaults to the sequence number as a
    logical clock); ``listener`` is called once per appended message so an
    event harness can mirror the traffic into its own log.
    """

    def __init__(
        self,
        session_id: int = 0,
        clock: Callable[[], int] | None = None,
        listener: Callable[[ClassicalMessage], None] | None = None,
    ):
        self.session_id = int(session_id)
        self.messages: list[ClassicalMessage] = []
        self._clock = clock
        self._listener = listener

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
        seq = len(self.messages)
        time_ns = int(self._clock()) if self._clock is not None else seq
        msg = ClassicalMessage(
            session_id=self.session_id,
            seq=seq,
            time_ns=time_ns,
            kind=kind,
            sender=sender,
            receiver=receiver,
            link=link,
            payload=dict(payload),
        )
        self.messages.append(msg)
        if self._listener is not None:
            self._listener(msg)
        return msg

    def parity_bit_count(self, link: tuple[int, int] | None = None) -> int:
        """Total parity bits disclosed, optionally restricted to one link."""
        total = 0
        for m in self.messages:
            if m.kind in PARITY_KINDS and (link is None or m.link == link):
                total += int(m.payload.get("n_bits", 0))  # type: ignore[arg-type]
        return total

    def render_text(self) -> str:
        """Deterministic one-line-per-message rendering."""
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


def _block_parities(bits: np.ndarray, perm: np.ndarray, k: int) -> np.ndarray:
    starts = np.arange(0, perm.size, k)
    return (np.add.reduceat(bits[perm].astype(np.int64), starts) & 1).astype(np.uint8)


def _range_parity(bits: np.ndarray, perm: np.ndarray, lo: int, hi: int) -> int:
    return int(bits[perm[lo:hi]].astype(np.int64).sum() & 1)


@dataclass
class _PassState:
    k: int
    perm: np.ndarray          # shuffled position -> original index
    block_of: np.ndarray      # original index -> block number
    odd: np.ndarray           # per-block parity-mismatch flags


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
    compares block parities.  Odd blocks are binary-searched to one wrong
    bit, which is flipped on the ``b`` side; every flip reopens the blocks
    of earlier passes containing that bit, so error pairs missed early are
    unwound later.  A final batch of random-subset parities confirms
    equality.

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

    ab = a.bits.copy()
    bb = b.bits.copy()
    k1 = min(n, max(1, math.ceil(0.73 / max(qber_estimate, 0.005))))
    k_cap = max(k1, n // 2)
    leaked = 0
    states: list[_PassState] = []
    stack: list[tuple[int, int]] = []

    def binary_search_and_flip(q: int, blk: int) -> None:
        nonlocal leaked
        st = states[q]
        lo = blk * st.k
        hi = min(lo + st.k, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            transcript.append(
                "ParityQuery", client, server, link, {"pass": q, "lo": lo, "hi": mid}
            )
            sp = _range_parity(ab, st.perm, lo, mid)
            transcript.append(
                "ParityReply", server, client, link,
                {"pass": q, "lo": lo, "hi": mid, "parity": sp, "n_bits": 1},
            )
            leaked += 1
            if sp != _range_parity(bb, st.perm, lo, mid):
                hi = mid
            else:
                lo = mid
        j = int(st.perm[lo])
        bb[j] ^= 1
        for r, other in enumerate(states):
            brk = int(other.block_of[j])
            other.odd[brk] = not other.odd[brk]
            if other.odd[brk]:
                stack.append((r, brk))

    for p in range(n_passes):
        k = min(k1 << p, k_cap)
        seed = int(rng.integers(0, 2**63))
        transcript.append(
            "PermutationSeed", client, server, link, {"pass": p, "seed": seed}
        )
        perm = np.random.default_rng(seed).permutation(n)
        block_of = np.empty(n, dtype=np.int64)
        block_of[perm] = np.arange(n, dtype=np.int64) // k
        n_blocks = math.ceil(n / k)

        transcript.append(
            "ParityQuery", client, server, link, {"pass": p, "block_size": k}
        )
        server_par = _block_parities(ab, perm, k)
        transcript.append(
            "ParityReply", server, client, link,
            {
                "pass": p,
                "block_size": k,
                "parities": np.packbits(server_par).tobytes(),
                "n_bits": n_blocks,
            },
        )
        leaked += n_blocks
        odd = server_par != _block_parities(bb, perm, k)
        states.append(_PassState(k=k, perm=perm, block_of=block_of, odd=odd))
        stack.extend((p, int(blk)) for blk in np.flatnonzero(odd))
        while stack:
            q, blk = stack.pop()
            if states[q].odd[blk]:
                binary_search_and_flip(q, blk)

    check_seed = int(rng.integers(0, 2**63))
    transcript.append(
        "FinalCheck", client, server, link,
        {"seed": check_seed, "n_subsets": final_check_bits},
    )
    masks = np.random.default_rng(check_seed).integers(
        0, 2, size=(final_check_bits, n), dtype=np.uint8
    )
    digest_a = (masks.astype(np.int64) @ ab.astype(np.int64)) & 1
    transcript.append(
        "FinalCheck", server, client, link,
        {
            "seed": check_seed,
            "digest": np.packbits(digest_a.astype(np.uint8)).tobytes(),
            "n_bits": final_check_bits,
        },
    )
    leaked += final_check_bits
    digest_b = (masks.astype(np.int64) @ bb.astype(np.int64)) & 1
    if not np.array_equal(digest_a, digest_b):
        raise ReconciliationError(
            f"final check failed on {int(np.count_nonzero(digest_a != digest_b))} "
            f"of {final_check_bits} subset parities"
        )
    return a, b.with_bits(bb), leaked


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
    def is_empty(self) -> bool:
        return self.positions.size == 0

    @property
    def positions_one_based(self) -> tuple[int, ...]:
        return tuple(int(p) + 1 for p in self.positions)

    def as_bit_array(self) -> np.ndarray:
        mask = np.zeros(self.length, dtype=np.uint8)
        mask[self.positions] = 1
        return mask


def compute_flip_mask(reference: KeyBlock, other: KeyBlock) -> FlipMask:
    """Positions where ``other`` differs from ``reference`` (their XOR)."""
    if len(reference) != len(other):
        raise LengthMismatchError(
            f"blocks differ in length: {len(reference)} vs {len(other)}"
        )
    diff = np.flatnonzero(reference.bits ^ other.bits).astype(np.int64)
    return FlipMask(length=len(reference), positions=diff)


def apply_flip_mask(k: KeyBlock, m: FlipMask) -> KeyBlock:
    """Invert ``k`` at the masked positions; an involution for fixed mask."""
    if len(k) != m.length:
        raise LengthMismatchError(
            f"mask of length {m.length} cannot apply to a {len(k)}-bit block"
        )
    bits = k.bits.copy()
    bits[m.positions] ^= 1
    return k.with_bits(bits)


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
            raise ValueError("n_frames must be positive")
        if not 0 < self.sample_fraction < 1:
            raise ValueError("sample fraction must be in (0, 1)")
        # zero forces an abort on any estimate, which is useful for drills
        if not 0 <= self.qber_abort_threshold <= 0.5:
            raise ValueError("abort threshold must be in [0, 0.5]")


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
    sifted_a: KeyBlock | None = None
    sifted_b: KeyBlock | None = None
    estimate: QberEstimate | None = None
    corrected_a: KeyBlock | None = None
    corrected_b: KeyBlock | None = None
    leaked: int = 0


def run_session(cfg: SessionConfig, network) -> SessionResult:
    """Run one key-agreement session over a network handle.

    The handle must provide:

    - ``n_ports`` (int) and ``port_label(port) -> str``
    - ``link_parameters(server, client) -> LinkParameters``
    - ``transmit_train(server, client, n_frames) -> (PulseTrain, DetectionTrain)``
    - ``protocol_rng() -> numpy Generator`` (one stream per session)
    - ``clock_ns() -> int``
    - optionally ``notify_classical(message)`` to mirror transcript entries

    Flow: clients request keys; the server runs prepare/measure/sift and
    sample-based error estimation on every link; if any estimate reaches
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

    transcript = Transcript(
        session_id=cfg.seed,
        clock=network.clock_ns,
        listener=getattr(network, "notify_classical", None),
    )
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
        train, detections = network.transmit_train(cfg.server, c, cfg.n_frames)
        clicked_idx = np.flatnonzero(detections.clicked).astype(np.int64)
        st.n_clicked = int(clicked_idx.size)
        transcript.append(
            "BasisList", c, cfg.server, link,
            {
                "n_clicked": st.n_clicked,
                "frames": clicked_idx.tobytes(),
                "bases": np.packbits(detections.bases[clicked_idx]).tobytes(),
            },
        )
        a, b = sift(train, detections, link=link)
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
        st.sifted_a, st.sifted_b = a, b
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
                a, b, _ = reconcile(
                    est.remaining_a, est.remaining_b, sizing, transcript, rng=rng
                )
                break
            except ReconciliationError as err:
                failure = err  # fresh permutations next attempt
        else:
            raise failure
        st.corrected_a, st.corrected_b = a, b
        # no parity bit of this link is on the transcript before this stage
        st.leaked = transcript.parity_bit_count(link=(cfg.server, c))

    # E: truncate to the shortest link and publish flip masks
    final_length = min(len(links[c].corrected_b) for c in cfg.clients)
    reference = cfg.clients[0]
    ref_block = links[reference].corrected_a.truncate(final_length)
    client_keys: dict[int, np.ndarray] = {}
    for c in cfg.clients:
        st = links[c]
        mask = compute_flip_mask(ref_block, st.corrected_a.truncate(final_length))
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
    if st.corrected_b is not None:
        # after convergence the residual errors are exactly the net flips
        n_corrected = int(
            np.count_nonzero(st.corrected_b.bits != st.estimate.remaining_b.bits)
        )
        errors = est.n_mismatched + n_corrected
    else:
        # aborted link: the key is discarded, so compare in full
        n_corrected = 0
        errors = int(np.count_nonzero(st.sifted_a.bits != st.sifted_b.bits))
    return LinkReport(
        server=cfg.server,
        client=st.client,
        channel_index=st.params.channel.index,
        channel_nm=st.params.channel.nm,
        n_frames=cfg.n_frames,
        n_clicked=st.n_clicked,
        n_sifted=st.n_sifted,
        n_sampled=est.n_sampled if est else 0,
        sample_mismatches=est.n_mismatched if est else 0,
        qber_estimate=est.estimate if est else float("nan"),
        qber_measured=errors / st.n_sifted if st.n_sifted else float("nan"),
        leaked_bits=st.leaked,
        n_corrected=n_corrected,
        final_length=final_length,
        p_sig=st.params.p_sig,
        p_dark=st.params.p_dark,
        total_loss_db=st.params.total_loss_db,
        rep_rate_hz=st.params.rep_rate_hz,
    )
