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
from typing import Mapping

from ._numbers import _integer, _real

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
    "port_label",
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _integer(self.index, "port index", 0))

    @property
    def label(self) -> str:
        return port_label(self.index)


@dataclass(frozen=True)
class ChannelId:
    """One wavelength channel, optionally tagged with its physical wavelength."""

    index: int
    nm: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _integer(self.index, "channel index", 0))
        if self.nm is not None:
            object.__setattr__(self, "nm", _real(self.nm, "nm", 0, bounds="()"))

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
        object.__setattr__(self, "n_ports", wdm_requirements(self.n_ports)[0])  # a plain int >= 2
        for (i, j) in self.channel_of:
            if not (0 <= i < j < self.n_ports):
                raise ValueError(f"invalid pair key ({i}, {j})")

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
        return {port_label(i): i for i in range(self.n_ports)}

    def _index(self, ref: int | str | PortId) -> int:
        """The index of a port reference (an index, a label or a PortId);
        a reference to no port of this router raises ValueError."""
        if isinstance(ref, str):
            if ref not in self._by_label:
                raise ValueError(f"unknown port label {ref!r}")
            return self._by_label[ref]
        index = ref.index if isinstance(ref, PortId) else _integer(ref, "port index")
        if not 0 <= index < self.n_ports:
            raise ValueError(f"port index {index} out of range [0, {self.n_ports})")
        return index

    def port(self, ref: int | str | PortId) -> PortId:
        """Resolve an index, label, or PortId to the canonical PortId."""
        return PortId(self._index(ref))

    def pair_channel(self, i: int | str | PortId, j: int | str | PortId) -> ChannelId:
        """Channel connecting ports ``i`` and ``j``; symmetric in its arguments."""
        a, b = self._index(i), self._index(j)
        if a == b:
            raise ValueError(f"no channel from port {port_label(a)} to itself")
        return self.channel_of[_pair_key(a, b)]


def build_assignment(n_ports: int) -> WavelengthAssignment:
    """Construct the wavelength assignment for an ``n_ports``-port router.

    Uses the circle method of round-robin scheduling: a wheel of an odd
    number of ports rotates around a fixed hub, and every rotation becomes
    one channel.  Even N is the wheel of N-1 ports and its hub;
    odd N is the wheel of N ports with no hub, so one port sits out of
    each rotation.  Either way the channel count is
    :func:`wdm_requirements`'s, and the design is proper by construction.

    At 4 ports this is the shipped unit: its channels are relabelled and
    tagged with ``FOURPORT_CHANNEL_NM`` as the hardware is wired.  Every
    other N keeps the identity labelling and untagged channels.
    """
    n_ports, n_channels = wdm_requirements(n_ports)
    hub = n_channels  # the wheel's hub, a port of the router for even N alone
    rounds: dict[tuple[int, int], int] = {}
    for r in range(n_channels):
        if hub < n_ports:
            rounds[(r, hub)] = r
        for k in range(1, (n_channels + 1) // 2):
            rounds[_pair_key((r + k) % n_channels, (r - k) % n_channels)] = r

    shipped = n_ports == 4
    relabel = _FOURPORT_CHANNEL_RELABEL if shipped else range(n_channels)
    nm = FOURPORT_CHANNEL_NM if shipped else (None,) * n_channels
    channels = tuple(map(ChannelId, range(n_channels), nm))
    channel_of = {pair: channels[relabel[r]] for pair, r in rounds.items()}
    return WavelengthAssignment(n_ports=n_ports, channel_of=channel_of)


wavelength_for = WavelengthAssignment.pair_channel


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
    pin = assignment._index(in_port)
    ch = channel.index if isinstance(channel, ChannelId) else _integer(channel, "channel")
    dest = assignment._routes.get((pin, ch))
    if dest is None:
        raise UnroutableWavelengthError(f"channel {ch} is not connected at port {port_label(pin)}")
    return PortId(dest)


def wdm_requirements(n_ports: int) -> tuple[int, int]:
    """(number of WDMs, channels per WDM) needed to build the router.

    Even N takes N (N-1)-channel WDMs; odd N takes N N-channel WDMs.
    """
    n_ports = _integer(n_ports, "n_ports", 2)
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
    checks.append(CheckResult("totality", not missing, f"missing={missing}" if missing else ""))

    improper = []  # over the pairs present, so a partial design is checked too
    for i in range(n):
        seen: set[int] = set()
        for j in range(n):
            ch = assignment.channel_of.get(_pair_key(i, j))  # None at i == j too
            if ch is None:
                continue
            if ch.index in seen:
                improper.append((port_label(i), ch.index))
            seen.add(ch.index)
    checks.append(
        CheckResult(
            "properness",
            not improper,
            "" if not improper else f"repeated channel at {improper}",
        )
    )

    _, want = wdm_requirements(n)
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
        losses = {pair: _real(db, f"insertion loss at {pair}", 0, unit="dB")
                  for pair, db in self.insertion_loss_db.items()}
        object.__setattr__(self, "insertion_loss_db", losses)


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
    assignment = build_assignment(4)
    losses = {
        (assignment._index(a), assignment._index(b)): db
        for (a, b), db in FOURPORT_LOSS_DB.items()
    }
    return RouterSpec(assignment, losses)


def path_loss_db(
    spec: RouterSpec, in_port: int | str | PortId, out_port: int | str | PortId
) -> float:
    """Directed insertion loss through the router, in dB."""
    a = spec.assignment
    i, o = a._index(in_port), a._index(out_port)
    if i == o:
        raise ValueError(f"no loss figure from port {port_label(i)} to itself")
    return spec.insertion_loss_db[(i, o)]


# ---------------------------------------------------------------------------
# Text import/export


def format_assignment_table(assignment: WavelengthAssignment) -> str:
    """Human-readable matrix: rows/columns are ports, cells are channels."""
    labels = [port_label(i) for i in range(assignment.n_ports)]
    width = max(6, max(len(s) for s in labels) + 1)
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
        f"# ports: {' '.join(map(port_label, range(assignment.n_ports)))}",
    ]
    for (i, j) in sorted(assignment.channel_of):
        ch = assignment.channel_of[(i, j)]
        nm = repr(ch.nm) if ch.nm is not None else "-"
        lines.append(f"{port_label(i)} {port_label(j)} {ch.index} {nm}")
    return "\n".join(lines) + "\n"


def export_loss_matrix(spec: RouterSpec) -> str:
    """Directed loss entries, one ``in out dB`` line each; round-trip exact."""
    lines = ["# insertion loss: in_port out_port dB"]
    for (i, j) in sorted(spec.insertion_loss_db):
        lines.append(f"{port_label(i)} {port_label(j)} {spec.insertion_loss_db[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def import_loss_matrix(
    text: str,
    assignment: WavelengthAssignment,
    default_db: float = DEFAULT_UNIFORM_LOSS_DB,
) -> RouterSpec:
    """Parse directed ``in out dB`` lines; absent pairs get ``default_db``."""
    n = assignment.n_ports
    losses = {(i, j): default_db for i in range(n) for j in range(n) if i != j}
    named: dict[tuple[int, int], int] = {}  # each path given in the text -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"loss matrix line {lineno}: expected 'in out dB', got {raw!r}")
        try:
            path = assignment._index(parts[0]), assignment._index(parts[1])
            db = _real(float(parts[2]), "loss", 0, unit="dB")
        except ValueError as err:  # an unknown port label, a bad number or a negative loss
            raise ValueError(f"loss matrix line {lineno}: {err}") from None
        if path[0] == path[1]:
            raise ValueError(f"loss matrix line {lineno}: diagonal entry {parts[0]}")
        if path in named:
            raise ValueError(f"loss matrix line {lineno}: path {parts[0]} {parts[1]} "
                             f"already given on line {named[path]}")
        named[path] = lineno
        losses[path] = db
    return RouterSpec(assignment, losses)
