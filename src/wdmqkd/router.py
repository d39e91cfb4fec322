"""N-port passive quantum router: wavelength-assignment design and loss model.

A router built from N wavelength division multiplexers maps (input port,
wavelength) to a unique output port.  The design behind it is a symmetric
proper edge coloring of the complete graph on ports: every unordered port
pair owns one channel, and no port sees the same channel twice.  This
module constructs that design for arbitrary N with the round-robin circle
method, verifies its defining properties, answers routing queries, and
stores the per-path insertion-loss figures of a physical unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

__all__ = [
    "ChannelId",
    "PortId",
    "RouterSpec",
    "UnroutableWavelengthError",
    "VerificationReport",
    "WavelengthAssignment",
    "build_assignment",
    "export_assignment",
    "export_loss_matrix",
    "format_assignment_table",
    "fourport_router_spec",
    "import_loss_matrix",
    "path_loss_db",
    "route",
    "uniform_router_spec",
    "verify_assignment",
    "wavelength_for",
    "wdm_requirements",
]


class UnroutableWavelengthError(LookupError):
    """The wavelength is not connected at this port.

    Physically the photon ends in an unterminated WDM channel and is lost;
    at the API level that is an error the caller must handle.
    """


@dataclass(frozen=True)
class PortId:
    """One I/O port of the router (the common channel of one WDM)."""

    index: int
    label: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"port index must be nonnegative, got {self.index}")
        if not self.label:
            raise ValueError("port label must be nonempty")


@dataclass(frozen=True)
class ChannelId:
    """One wavelength channel, optionally tagged with its physical wavelength."""

    index: int
    nm: float | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"channel index must be nonnegative, got {self.index}")
        if self.nm is not None and self.nm <= 0:
            raise ValueError(f"wavelength must be positive, got {self.nm} nm")

    @property
    def label(self) -> str:
        return f"λ{self.index + 1}"


def port_label(index: int) -> str:
    """Default port naming: A, B, C, ... then P26, P27, ... beyond the alphabet."""
    if 0 <= index < 26:
        return chr(ord("A") + index)
    return f"P{index}"


def _pair_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


# The raw circle method for 4 ports emits round colors (0, 1, 2) on the pair
# classes ({A,D},{B,C}), ({A,C},{B,D}), ({A,B},{C,D}).  The shipped 4-port
# hardware fixture wires those classes to channels 1, 3, 2, so this relabeling
# is applied for N=4 only; every other N keeps the identity labeling.
_FOURPORT_CHANNEL_RELABEL = (0, 2, 1)

# Coarse-WDM wavelengths of the shipped 4-port unit, in channel order.
FOURPORT_CHANNEL_NM = (1510.0, 1530.0, 1550.0)


@dataclass(frozen=True, eq=False)
class WavelengthAssignment:
    """Symmetric map from unordered port pairs to wavelength channels.

    ``channel_of`` is keyed by sorted index pairs (i, j) with i < j; the
    accessors take care of argument symmetry.  Construction validates only
    shape (totality over pairs, valid indices); the design properties are
    checked separately by :func:`verify_assignment` so that deliberately
    broken assignments can be built and inspected.
    """

    n_ports: int
    channel_of: Mapping[tuple[int, int], ChannelId]

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise ValueError(f"a router needs at least 2 ports, got {self.n_ports}")
        for (i, j) in self.channel_of:
            if not (0 <= i < j < self.n_ports):
                raise ValueError(f"invalid pair key ({i}, {j})")

    @cached_property
    def ports(self) -> tuple[PortId, ...]:
        """Every port, in index order, named by :func:`port_label`."""
        return tuple(PortId(i, port_label(i)) for i in range(self.n_ports))

    @cached_property
    def channels(self) -> tuple[ChannelId, ...]:
        """Distinct channels in use, ordered by index."""
        seen: dict[int, ChannelId] = {}
        for ch in self.channel_of.values():
            seen.setdefault(ch.index, ch)
        return tuple(seen[k] for k in sorted(seen))

    @cached_property
    def _routes(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for (i, j), ch in self.channel_of.items():
            table[(i, ch.index)] = j
            table[(j, ch.index)] = i
        return table

    @cached_property
    def _by_label(self) -> dict[str, int]:
        return {p.label: p.index for p in self.ports}

    def port(self, ref: int | str | PortId) -> PortId:
        """Resolve an index, label, or PortId to the canonical PortId."""
        if isinstance(ref, PortId):
            ref = ref.index
        if isinstance(ref, str):
            if ref not in self._by_label:
                raise ValueError(f"unknown port label {ref!r}")
            ref = self._by_label[ref]
        if not 0 <= ref < self.n_ports:
            raise ValueError(f"port index {ref} out of range [0, {self.n_ports})")
        return self.ports[ref]

    def pair_channel(self, i: int | str | PortId, j: int | str | PortId) -> ChannelId:
        pi, pj = self.port(i), self.port(j)
        if pi.index == pj.index:
            raise ValueError(f"no channel from port {pi.label} to itself")
        return self.channel_of[_pair_key(pi.index, pj.index)]


def build_assignment(
    n_ports: int, nm: Sequence[float] | None = None
) -> WavelengthAssignment:
    """Construct the wavelength assignment for an ``n_ports``-port router.

    Uses the circle method of round-robin scheduling: the last port is
    fixed and the rest rotate, every rotation becoming one channel.  For
    even N this yields N-1 channels, for odd N it yields N channels (one
    port sits out per rotation), both proper by construction.

    ``nm`` optionally tags channels with physical wavelengths, in channel
    order; it must provide one value per channel.
    """
    if n_ports < 2:
        raise ValueError(f"a router needs at least 2 ports, got {n_ports}")
    rounds: dict[tuple[int, int], int] = {}
    if n_ports % 2 == 0:
        m = n_ports - 1  # rotating wheel size; port n-1 is the fixed hub
        for r in range(m):
            rounds[_pair_key(n_ports - 1, r)] = r
            for k in range(1, n_ports // 2):
                rounds[_pair_key((r + k) % m, (r - k) % m)] = r
        n_channels = m
    else:
        for r in range(n_ports):
            # port r sits out of round r
            for k in range(1, (n_ports - 1) // 2 + 1):
                rounds[_pair_key((r + k) % n_ports, (r - k) % n_ports)] = r
        n_channels = n_ports

    relabel = _FOURPORT_CHANNEL_RELABEL if n_ports == 4 else tuple(range(n_channels))
    if nm is not None:
        if len(nm) != n_channels:
            raise ValueError(
                f"need {n_channels} wavelength tags for {n_ports} ports, got {len(nm)}"
            )
        channels = tuple(ChannelId(c, float(nm[c])) for c in range(n_channels))
    else:
        channels = tuple(ChannelId(c) for c in range(n_channels))

    channel_of = {pair: channels[relabel[r]] for pair, r in rounds.items()}
    return WavelengthAssignment(n_ports=n_ports, channel_of=channel_of)


def wavelength_for(
    assignment: WavelengthAssignment,
    i: int | str | PortId,
    j: int | str | PortId,
) -> ChannelId:
    """Channel connecting ports ``i`` and ``j``; symmetric in its arguments."""
    return assignment.pair_channel(i, j)


def route(
    router: "RouterSpec | WavelengthAssignment",
    in_port: int | str | PortId,
    channel: int | ChannelId,
) -> PortId:
    """Destination port for a photon entering ``in_port`` on ``channel``.

    Raises :class:`UnroutableWavelengthError` if the channel is not
    connected at that port (the photon would be discarded by the WDM).
    """
    assignment = router.assignment if isinstance(router, RouterSpec) else router
    pin = assignment.port(in_port)
    ch_index = channel.index if isinstance(channel, ChannelId) else int(channel)
    dest = assignment._routes.get((pin.index, ch_index))
    if dest is None:
        raise UnroutableWavelengthError(
            f"channel {ch_index} is not connected at port {pin.label}"
        )
    return assignment.ports[dest]


def wdm_requirements(n_ports: int) -> tuple[int, int]:
    """(number of WDMs, channels per WDM) needed to build the router.

    Even N takes N (N-1)-channel WDMs; odd N takes N N-channel WDMs.
    """
    if n_ports < 2:
        raise ValueError(f"a router needs at least 2 ports, got {n_ports}")
    return (n_ports, n_ports - 1 if n_ports % 2 == 0 else n_ports)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail listing of the assignment's defining properties."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        return "\n".join(
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
            + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        )


def verify_assignment(assignment: WavelengthAssignment) -> VerificationReport:
    """Check totality, properness, and the channel-count rule.

    Symmetry needs no check: a pair's channel is stored once, under its
    sorted key.  Failures are reported, never raised, so that hand-built
    designs can be diagnosed.
    """
    n = assignment.n_ports
    checks: list[CheckResult] = []

    missing = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in assignment.channel_of
    ]
    extra = [k for k in assignment.channel_of if not (0 <= k[0] < k[1] < n)]
    checks.append(
        CheckResult(
            "totality",
            not missing and not extra,
            "" if not missing and not extra else f"missing={missing} extra={extra}",
        )
    )

    improper = []
    if not missing:
        for i in range(n):
            seen: set[int] = set()
            for j in range(n):
                if i == j:
                    continue
                c = assignment.channel_of[_pair_key(i, j)].index
                if c in seen:
                    improper.append((assignment.ports[i].label, c))
                seen.add(c)
    checks.append(
        CheckResult(
            "properness",
            not improper,
            "" if not improper else f"repeated channel at {improper}",
        )
    )

    want = n - 1 if n % 2 == 0 else n
    used = len({ch.index for ch in assignment.channel_of.values()})
    checks.append(
        CheckResult(
            "channel-count",
            used == want,
            f"{used} distinct channels, rule requires {want}",
        )
    )
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Loss model


# Uniform fallback insertion loss for simulated routers without a measured
# matrix: roughly the mean of the shipped 4-port unit.
DEFAULT_UNIFORM_LOSS_DB = 2.2


@dataclass(frozen=True, eq=False)
class RouterSpec:
    """An assignment plus the measured per-path insertion losses of a unit.

    Losses are directed: the matrix of a real device is not symmetric, so
    (in, out) and (out, in) are stored independently.
    """

    assignment: WavelengthAssignment
    insertion_loss_db: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        n = self.assignment.n_ports
        want = {(i, j) for i in range(n) for j in range(n) if i != j}
        have = set(self.insertion_loss_db)
        if have != want:
            raise ValueError(
                f"insertion loss must cover exactly the {len(want)} ordered pairs; "
                f"missing={sorted(want - have)} extra={sorted(have - want)}"
            )
        for pair, db in self.insertion_loss_db.items():
            if not db >= 0:
                raise ValueError(f"insertion loss at {pair} must be >= 0 dB, got {db}")


def uniform_router_spec(
    assignment: WavelengthAssignment,
    loss_db: float = DEFAULT_UNIFORM_LOSS_DB,
) -> RouterSpec:
    """RouterSpec with one loss figure for every directed path."""
    n = assignment.n_ports
    losses = {(i, j): loss_db for i in range(n) for j in range(n) if i != j}
    return RouterSpec(assignment, losses)


# Measured insertion losses (dB) of the shipped 4-port unit, directed
# (row = input port, column = output port).
FOURPORT_LOSS_DB: dict[tuple[str, str], float] = {
    ("A", "B"): 1.70, ("A", "C"): 2.47, ("A", "D"): 2.48,
    ("B", "A"): 2.17, ("B", "C"): 1.64, ("B", "D"): 2.74,
    ("C", "A"): 2.61, ("C", "B"): 2.16, ("C", "D"): 2.25,
    ("D", "A"): 1.96, ("D", "B"): 2.66, ("D", "C"): 1.99,
}


def fourport_router_spec() -> RouterSpec:
    """The canonical 4-port unit: measured losses, 1510/1530/1550 nm channels."""
    assignment = build_assignment(4, nm=FOURPORT_CHANNEL_NM)
    by_label = {p.label: p.index for p in assignment.ports}
    losses = {
        (by_label[a], by_label[b]): db for (a, b), db in FOURPORT_LOSS_DB.items()
    }
    return RouterSpec(assignment, losses)


def path_loss_db(
    spec: RouterSpec, in_port: int | str | PortId, out_port: int | str | PortId
) -> float:
    """Directed insertion loss through the router, in dB."""
    a = spec.assignment
    pi, po = a.port(in_port), a.port(out_port)
    if pi.index == po.index:
        raise ValueError(f"no loss figure from port {pi.label} to itself")
    return spec.insertion_loss_db[(pi.index, po.index)]


# ---------------------------------------------------------------------------
# Text import/export


def format_assignment_table(assignment: WavelengthAssignment) -> str:
    """Human-readable matrix: rows/columns are ports, cells are channels."""
    labels = [p.label for p in assignment.ports]
    width = max(6, max(len(s) for s in labels) + 1, 4)
    head = "Port".ljust(width + 5)
    header = head + "".join(f"Port {s}".ljust(width + 5) for s in labels)
    lines = [header.rstrip()]
    for i, li in enumerate(labels):
        cells = []
        for j in range(assignment.n_ports):
            if i == j:
                cells.append("—".ljust(width + 5))
            else:
                cells.append(assignment.pair_channel(i, j).label.ljust(width + 5))
        lines.append((f"Port {li}".ljust(width + 5) + "".join(cells)).rstrip())
    return "\n".join(lines) + "\n"


def export_assignment(assignment: WavelengthAssignment) -> str:
    """Machine-readable listing: ``port_i port_j channel_index nm`` per line."""
    lines = [
        "# wavelength assignment: port_i port_j channel nm",
        f"# ports: {' '.join(p.label for p in assignment.ports)}",
    ]
    for (i, j) in sorted(assignment.channel_of):
        ch = assignment.channel_of[(i, j)]
        nm = repr(ch.nm) if ch.nm is not None else "-"
        lines.append(
            f"{assignment.ports[i].label} {assignment.ports[j].label} {ch.index} {nm}"
        )
    return "\n".join(lines) + "\n"


def export_loss_matrix(spec: RouterSpec) -> str:
    """Directed loss entries, one ``in out dB`` line each; round-trip exact."""
    a = spec.assignment
    lines = ["# insertion loss: in_port out_port dB"]
    for (i, j) in sorted(spec.insertion_loss_db):
        lines.append(
            f"{a.ports[i].label} {a.ports[j].label} {spec.insertion_loss_db[(i, j)]!r}"
        )
    return "\n".join(lines) + "\n"


def import_loss_matrix(
    text: str,
    assignment: WavelengthAssignment,
    default_db: float = DEFAULT_UNIFORM_LOSS_DB,
) -> RouterSpec:
    """Parse directed ``in out dB`` lines; absent pairs get ``default_db``."""
    n = assignment.n_ports
    losses = {(i, j): default_db for i in range(n) for j in range(n) if i != j}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"loss matrix line {lineno}: expected 'in out dB', got {raw!r}")
        try:
            pi, po, db = assignment.port(parts[0]), assignment.port(parts[1]), float(parts[2])
        except ValueError as err:  # an unknown port label or a bad number
            raise ValueError(f"loss matrix line {lineno}: {err}") from None
        if pi.index == po.index:
            raise ValueError(f"loss matrix line {lineno}: diagonal entry {parts[0]}")
        if not db >= 0:
            raise ValueError(f"loss matrix line {lineno}: loss must be >= 0 dB, got {db}")
        losses[(pi.index, po.index)] = db
    return RouterSpec(assignment, losses)
