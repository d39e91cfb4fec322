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
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from ._numbers import _integer, _real
from .photonics import ClickRecord, _trusted
from .router import ChannelId, port_label

__all__ = [
    "ClassicalMessage",
    "FlipMask",
    "InsufficientDetectionsError",
    "KeyBlock",
    "LinkParameters",
    "LinkReport",
    "MESSAGE_KINDS",
    "QberEstimate",
    "ReconciliationError",
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


class SessionError(Exception):
    """A session ended without producing a shared key.

    Each kind names its ``status``, the word its points carry in a sweep.
    ``diagnostics`` holds one :class:`LinkReport` per link when every link
    was measured before the session failed, and is empty otherwise.
    """

    status: str

    def __init__(self, message: str, diagnostics: tuple["LinkReport", ...] = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class ReconciliationError(SessionError):
    """The final parity check failed: blocks still differ after all passes."""

    status = "reconcile-failed"


class InsufficientDetectionsError(SessionError):
    """A link has no key material: nothing sifted, or nothing left after sampling."""

    status = "no-detections"


class SessionAbortError(SessionError):
    """Error rate at or above the abort threshold on at least one link.

    Its diagnostics show which channel went bad and how badly.
    """

    status = "abort"


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
        return self.frames is other.frames or bool(np.array_equal(self.frames, other.frames))

    def take(self, idx: np.ndarray) -> "KeyBlock":
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or np.any(np.diff(idx) <= 0))):
            raise ValueError("indices must be nonnegative and strictly increasing")
        return _trusted(KeyBlock, self.bits[idx], self.frames[idx], self.link)

    def truncate(self, length: int) -> "KeyBlock":
        length = _integer(length, "length", 0, len(self))
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
        raise ValueError("blocks to compare must share their frame list")
    n = len(a)
    if n == 0:
        raise ValueError("cannot sample an empty block")
    sample_fraction = _real(sample_fraction, "sample_fraction", 0, 1, "(]")
    k = min(n, max(1, int(round(sample_fraction * n))))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    idx.setflags(write=False)
    mismatched = int(np.count_nonzero(a.bits[idx] != b.bits[idx]))
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    keep_idx = np.flatnonzero(keep)
    frames = a.frames[keep_idx]
    return QberEstimate(
        estimate=mismatched / k,
        n_sampled=k,
        n_mismatched=mismatched,
        sample_indices=idx,
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

    seq: int
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
    messages' fields."""

    def __init__(self) -> None:
        self.messages: list[ClassicalMessage] = []
        self._parity_bits: dict[tuple[int, int] | None, int] = {}  # per link

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
        payload = dict(payload)
        msg = ClassicalMessage(len(self.messages), kind, sender, receiver, link, payload)
        self.messages.append(msg)
        if kind in PARITY_KINDS:
            bits = self._parity_bits
            bits[link] = bits.get(link, 0) + int(payload.get("n_bits", 0))  # type: ignore[arg-type]
        return msg

    def parity_bit_count(self, link: tuple[int, int] | None = None) -> int:
        """Total parity bits disclosed, optionally restricted to one link."""
        return sum(self._parity_bits.values()) if link is None else self._parity_bits.get(link, 0)

    def render_text(self) -> str:
        """Deterministic one-line-per-message rendering.  The event log
        hashes each message's payload text as this prints it."""
        lines = []
        for m in self.messages:
            src = "-" if m.sender is None else str(m.sender)
            dst = "-" if m.receiver is None else str(m.receiver)
            lk = "-" if m.link is None else f"{m.link[0]}-{m.link[1]}"
            lines.append(
                f"{m.seq} {m.kind} {src}>{dst} link={lk} "
                f"{_payload_repr(m.payload)}".rstrip()
            )
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reconciliation (interactive parity protocol with backtracking)


N_PASSES = 4  # Cascade passes per reconciliation
FINAL_CHECK_SUBSETS = 64  # random-subset parities compared after the last pass


def reconcile(
    a: KeyBlock,
    b: KeyBlock,
    qber_estimate: float,
    transcript: Transcript,
    rng: np.random.Generator,
) -> KeyBlock:
    """Drive ``b`` into agreement with ``a`` by exchanging parities.

    Runs ``N_PASSES`` passes.  Each pass shuffles with a permutation whose
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
    sends ``a``'s parities over ``FINAL_CHECK_SUBSETS`` random subsets,
    one row of packed bits each, drawn as the check seed's first bytes.

    Sparse error tracking: ``b``'s parity over a range is ``a``'s XOR that
    of the errors in it, and each flip removes an error, so a pass keeps
    the sorted shuffled positions of the errors left and, if it starts
    with any, ``a``'s prefix parities.  A pass costs O(n) once; a bisection
    level, which carries each open range's first error, one ``searchsorted``
    and three ``np.where`` over the open ranges.

    Returns the corrected ``b``.  The transcript is the one record of what
    leaked: every parity bit sent, final check included, is on it.
    """
    if not a.aligned_with(b):
        raise ValueError("blocks to reconcile must share their frame list")
    n = len(a)
    if n == 0:
        raise ValueError("cannot reconcile empty blocks")
    qber_estimate = _real(qber_estimate, "qber_estimate", 0, 1)
    link = a.link
    server = link[0] if link else None
    client = link[1] if link else None

    ab = a.bits
    err = ab != b.bits
    k1 = min(n, max(1, math.ceil(0.73 / max(qber_estimate, 0.005))))
    k_cap = max(k1, n // 2)
    # per pass: block size, a's prefix parities (None if the pass starts error-free),
    # and the errors left as sorted shuffled positions and the key index at each
    passes: list[tuple[int, np.ndarray | None, np.ndarray, np.ndarray]] = []

    def bisect_and_flip(q: int, odd: np.ndarray) -> None:
        """Bisect the odd blocks of pass ``q`` together, one query and one
        reply per level, then flip the wrong bit found in each block."""
        k, pre_a, pos, index = passes[q]
        # the open ranges [lo, hi), and the index in pos of each one's first error
        lo = odd * k
        hi = np.minimum(lo + k, n)
        at = pos.searchsorted(lo)
        found = []
        narrowest = min(k, n - int(lo[-1]))  # no range is narrower
        while True:
            if narrowest == 1:  # a range down to one bit holds its error at lo
                width = hi - lo
                found.append(at[width == 1])
                open_ = (width > 1).nonzero()[0]
                if not open_.size:
                    break
                lo, hi, at = lo[open_], hi[open_], at[open_]
                narrowest = int(width[open_].min())
            mid = (lo + hi) >> 1
            transcript.append(
                "ParityQuery", client, server, link,
                {"pass": q, "lo": lo.tobytes(), "hi": mid.tobytes()},
            )
            transcript.append(
                "ParityReply", server, client, link,
                {"pass": q, "parities": np.packbits(pre_a[mid] ^ pre_a[lo]).tobytes(),
                 "n_bits": mid.size},
            )
            to_mid = pos.searchsorted(mid)
            left = (to_mid - at) & 1  # an odd count of errors in [lo, mid)
            lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
            at = np.where(left, at, to_mid)
            narrowest >>= 1
        err[index[np.concatenate(found)]] = False
        for r, (k, pre_a, pos, index) in enumerate(passes):
            if pos.size:
                keep = err[index]
                passes[r] = (k, pre_a, pos[keep], index[keep])

    def first_odd() -> tuple[int, np.ndarray] | None:
        """The first pass with odd blocks, and those blocks."""
        for q, (k, _, pos, _) in enumerate(passes):
            if pos.size and (odd := (np.bincount(pos // k) & 1).nonzero()[0]).size:
                return q, odd
        return None

    for p in range(N_PASSES):
        k = min(k1 << p, k_cap)
        seed = int(rng.integers(0, 2**63))
        transcript.append(
            "PermutationSeed", client, server, link, {"pass": p, "seed": seed}
        )
        perm = np.random.default_rng(seed).permutation(n)
        starts = np.arange(0, n, k)
        transcript.append(
            "ParityQuery", client, server, link, {"pass": p, "block_size": k}
        )
        shuffled_a = ab[perm]
        transcript.append(
            "ParityReply", server, client, link,
            {
                "pass": p,
                "block_size": k,
                "parities": np.packbits(np.bitwise_xor.reduceat(shuffled_a, starts)).tobytes(),
                "n_bits": starts.size,
            },
        )
        pos = err[perm].nonzero()[0]
        pre_a = None  # flips only remove errors: an error-free pass is never bisected
        if pos.size:  # entry i is the parity of a's first i shuffled bits
            pre_a = np.zeros(n + 1, dtype=np.uint8)
            np.bitwise_xor.accumulate(shuffled_a, out=pre_a[1:])
        passes.append((k, pre_a, pos, perm[pos]))
        del perm, shuffled_a  # not kept: free them before the next pass draws its own
        # each round's flips reopen blocks of other passes; bisect the first
        # pass with odd blocks, smallest blocks first, until none is odd
        while found := first_odd():
            bisect_and_flip(*found)

    check_seed = int(rng.integers(0, 2**63))
    transcript.append(
        "FinalCheck", client, server, link,
        {"seed": check_seed, "n_subsets": FINAL_CHECK_SUBSETS},
    )
    # the check seed's first bytes as Generator.bytes draws them, at half the cost:
    # a fresh stream yields each raw 64-bit draw as two uint32 words, low word first
    n_bytes = (n + 7) // 8
    size = FINAL_CHECK_SUBSETS * n_bytes
    words = np.random.default_rng(check_seed).bit_generator.random_raw(-(-size // 8))
    masks = words.astype("<u8", copy=False).view(np.uint8)[:size].reshape(-1, n_bytes)
    # a subset's parity is that of the XOR of its masked key bytes
    ones = np.bitwise_count(np.bitwise_xor.reduce(masks & np.packbits(ab), axis=1))
    transcript.append(
        "FinalCheck", server, client, link,
        {
            "seed": check_seed,
            "digest": np.packbits(ones & 1).tobytes(),
            "n_bits": FINAL_CHECK_SUBSETS,
        },
    )
    # b's subset parity differs from a's by that of the errors left in it
    if (residual := err.nonzero()[0]).size:
        in_subset = masks[:, residual >> 3] >> (7 - (residual & 7)).astype(np.uint8) & 1
        if mismatched := np.count_nonzero(in_subset.sum(axis=1) & 1):
            raise ReconciliationError(
                f"final check failed on {mismatched} of {FINAL_CHECK_SUBSETS} subset parities"
            )
    return _trusted(KeyBlock, ab ^ err, b.frames, b.link)


# ---------------------------------------------------------------------------
# Flip masks (key-reverse operation)


@dataclass(frozen=True, eq=False)
class FlipMask:
    """Positions (0-based) at which a key block must be inverted."""

    length: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _integer(self.length, "length", 0))
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
        raise ValueError(
            f"blocks differ in length: {len(reference)} vs {len(other)}"
        )
    return _trusted(FlipMask, len(reference), np.flatnonzero(reference.bits ^ other.bits))


def apply_flip_mask(k: KeyBlock, m: FlipMask) -> KeyBlock:
    """Invert ``k`` at the masked positions; an involution for fixed mask."""
    if len(k) != m.length:
        raise ValueError(
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
        # plain numbers, as the transcript prints them; numpy's SeedSequence takes no
        # negative seed, and a zero threshold aborts on any estimate, useful for drills
        for name, low in (("server", -math.inf), ("n_frames", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name, high, bounds in (("sample_fraction", 1, "()"),
                                   ("qber_abort_threshold", 0.5, "[]")):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, high, bounds))
        try:
            given = list(self.clients)
        except TypeError:
            raise ValueError(f"clients must be a sequence of ports, got {self.clients!r}") from None
        clients = tuple(sorted({_integer(c, "client port") for c in given}))
        if len(clients) != len(given):
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

    def link_for(self, client: int) -> LinkReport:
        for l in self.links:
            if l.client == client:
                return l
        raise KeyError(f"no link report for client {client}")


def run_session(cfg: SessionConfig, network) -> SessionResult:
    """Run one key-agreement session over a network handle.

    The handle must provide:

    - ``n_ports`` (int)
    - ``link_parameters(server, client) -> LinkParameters``, asked of every
      link before the transcript; it refuses a port outside the network,
      and a link it refuses sends no message
    - ``transmit_train(server, client, n_frames) -> ClickRecord``, the
      link's clicked frames (see :func:`wdmqkd.photonics.sample_clicks`)
    - ``protocol_rng() -> numpy Generator`` (one stream per session)
    - ``new_transcript() -> Transcript``, the session's record of classical
      traffic; the handle may keep its messages, and a handle that runs
      one session raises ValueError on a second call

    The session draws its randomness from the handle alone, so ``cfg.seed``
    is read where the handle is built (see :func:`wdmqkd.netsim.run_network`).

    Flow: clients request keys; on every link the client announces the
    frames that clicked and its bases, the server sifts on basis match, and
    both run sample-based error estimation; if any estimate reaches
    the abort threshold the session aborts with full diagnostics; the
    surviving blocks are reconciled (a link whose final check fails once
    is reconciled again), truncated to the shortest link, and every client
    receives a flip mask rotating its key onto the lowest-numbered client's
    key.  Each report's ``leaked_bits`` is its link's parity bit count on
    the transcript, so a retried link counts both attempts.
    """
    params = {c: network.link_parameters(cfg.server, c) for c in cfg.clients}
    if cfg.mode == "broadcast":
        everyone = tuple(p for p in range(int(network.n_ports)) if p != cfg.server)
        if cfg.clients != everyone:
            raise ValueError(
                f"broadcast must address every non-server port {everyone}, "
                f"got {cfg.clients}"
            )
    transcript = network.new_transcript()
    rng = network.protocol_rng()
    estimates: dict[int, QberEstimate] = {}
    reports: dict[int, LinkReport] = {}  # as of the estimate, in client order
    corrected: dict[int, KeyBlock] = {}  # each client's reconciled block

    # A: requests and train announcements
    for c in cfg.clients:
        transcript.append(
            "KeyRequest", c, cfg.server, (cfg.server, c),
            {"mode": cfg.mode, "n_frames": cfg.n_frames},
        )
    for c, p in params.items():
        transcript.append(
            "TrainAnnounce", cfg.server, c, (cfg.server, c),
            {
                "n_frames": cfg.n_frames,
                "channel": p.channel.index,
                "offset_ns": p.offset_ns,
            },
        )

    # B: quantum transmission, C: sift and estimate
    for c in cfg.clients:
        link = (cfg.server, c)
        clicks = network.transmit_train(cfg.server, c, cfg.n_frames)
        transcript.append(
            "BasisList", c, cfg.server, link,
            {
                "n_clicked": len(clicks),
                "frames": clicks.frames.tobytes(),
                "bases": np.packbits(clicks.rx_bases).tobytes(),
            },
        )
        a, b = sift(clicks, link=link)
        transcript.append(
            "SiftIndexSet", cfg.server, c, link,
            {"n_sifted": len(a), "frames": a.frames.tobytes()},
        )
        if len(a) == 0:
            transcript.append(
                "Abort", cfg.server, c, link, {"reason": "no sifted bits"}
            )
            raise InsufficientDetectionsError(
                f"link to port {port_label(c)} sifted down to nothing "
                f"({len(clicks)} clicks in {cfg.n_frames} frames)"
            )
        estimates[c] = est = estimate_qber(a, b, cfg.sample_fraction, rng)
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
                f"link to port {port_label(c)} has no bits left after "
                f"sampling {est.n_sampled} of {len(a)} sifted bits"
            )
        p = params[c]
        reports[c] = LinkReport(
            server=cfg.server,
            client=c,
            channel_index=p.channel.index,
            channel_nm=p.channel.nm,
            n_frames=cfg.n_frames,
            n_clicked=len(clicks),
            n_sifted=len(a),
            n_sampled=est.n_sampled,
            sample_mismatches=est.n_mismatched,
            qber_estimate=est.estimate,
            qber_measured=int(np.count_nonzero(a.bits != b.bits)) / len(a),
            leaked_bits=0,
            n_corrected=0,
            final_length=0,
            total_loss_db=p.total_loss_db,
            rep_rate_hz=p.rep_rate_hz,
        )

    # abort gate: every link was estimated first, so diagnostics are complete
    bad = [c for c in cfg.clients if estimates[c].estimate >= cfg.qber_abort_threshold]
    if bad:
        for c in bad:
            transcript.append(
                "Abort", cfg.server, c, (cfg.server, c),
                {
                    "reason": "error rate at or above threshold",
                    "estimate": estimates[c].estimate,
                    "threshold": cfg.qber_abort_threshold,
                },
            )
        labels = ", ".join(port_label(c) for c in bad)
        raise SessionAbortError(
            f"estimated error rate at or above {cfg.qber_abort_threshold} "
            f"on link(s) to {labels}",
            diagnostics=tuple(reports.values()),
        )

    # D: reconcile every link
    for c in cfg.clients:
        est = estimates[c]
        # size the passes with a small-sample-padded estimate: a lucky
        # sample must not starve the first pass of blocks
        sizing = (est.n_mismatched + 2) / (est.n_sampled + 4)
        args = (est.remaining_a, est.remaining_b, sizing, transcript, rng)
        try:
            corrected[c] = reconcile(*args)
        except ReconciliationError:  # once more, with the stream's next permutations
            corrected[c] = reconcile(*args)

    # E: truncate to the shortest link and publish flip masks
    final_length = min(len(corrected[c]) for c in cfg.clients)
    reference = cfg.clients[0]
    ref_block = estimates[reference].remaining_a.truncate(final_length)
    client_keys: dict[int, np.ndarray] = {}
    for c in cfg.clients:
        mask = compute_flip_mask(ref_block, estimates[c].remaining_a.truncate(final_length))
        transcript.append(
            "FlipMask", cfg.server, c, (cfg.server, c),
            {
                "length": mask.length,
                "n_flips": len(mask),
                "positions": mask.positions.tobytes(),
            },
        )
        client_keys[c] = apply_flip_mask(corrected[c].truncate(final_length), mask).bits

    for c in cfg.clients:
        if not np.array_equal(client_keys[c], ref_block.bits):
            raise ReconciliationError(
                f"client {port_label(c)} key disagrees with the "
                "reference after masking"
            )

    links = tuple(
        replace(
            reports[c],
            # the transcript holds every attempt's parities, a retry's too
            leaked_bits=transcript.parity_bit_count(link=(cfg.server, c)),
            n_corrected=int(np.count_nonzero(corrected[c].bits != estimates[c].remaining_b.bits)),
            final_length=final_length,
        )
        for c in cfg.clients
    )
    return SessionResult(
        config=cfg,
        final_key=ref_block.bits,
        reference_client=reference,
        client_keys=client_keys,
        links=links,
        transcript=transcript,
    )
