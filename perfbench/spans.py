"""Spans around wdmqkd's public functions, installed from outside the program.

Each wrapper replaces a function at the module or class attribute its
caller looks up (``netsim`` imports ``generate_train`` by name, so the
wrapper goes on ``wdmqkd.netsim.generate_train``).  A span records its
name, its parent, start and end; its self time is its duration minus its
child spans.  Counters ride on the same wrappers, at the call boundary.
Spans stay in memory and are aggregated per phase (one set-up or one
workload iteration); the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _count_gates(counts, args, kwargs, result):
    counts["sample.gates"] += int(args[0] if args else kwargs["n_frames"])


def _count_message(counts, args, kwargs, msg):
    payload = msg.payload
    counts["transcript.messages"] += 1
    if msg.kind == "BasisList":
        counts["sample.clicks"] += int(payload["n_clicked"])
    elif msg.kind == "SiftIndexSet":
        counts["sift.bits"] += int(payload["n_sifted"])
    elif msg.kind == "SampleDisclosure" and "indices" in payload:
        counts["estimate.sampled_bits"] += int(payload["n_sampled"])
    elif msg.kind == "ParityQuery" and "lo" in payload:
        counts["reconcile.parity_queries"] += 1  # one binary-search step
    elif msg.kind in ("ParityReply", "FinalCheck") and "n_bits" in payload:
        counts["reconcile.parity_bits"] += int(payload["n_bits"])
    elif msg.kind == "FlipMask":
        counts["flipmask.flips"] += int(payload["n_flips"])


def _count_reconcile(counts, args, kwargs, result):
    a, b = args[0], args[1]
    n = len(a)
    e = int(np.count_nonzero(np.asarray(a.bits) != np.asarray(b.bits))) / n
    h = 0.0 if e in (0.0, 1.0) else -e * math.log2(e) - (1 - e) * math.log2(1 - e)
    counts["reconcile.shannon_bits"] += n * h


def _count_lines(counts, args, kwargs, result):
    counts["eventlog.lines"] += len(args[0])


def _count_pairs(counts, args, kwargs, assignment):
    counts["router.pairs"] = max(counts["router.pairs"], len(assignment.channel_of))


def _count_points(counts, args, kwargs, result):
    counts["sweep.points"] += len(args[2] if len(args) > 2 else kwargs["db_list"])


# (module under wdmqkd, attribute path, span name, counter)
TARGETS = (
    ("netsim", "generate_train", "sample.generate_train", _count_gates),
    ("netsim", "measure_train", "sample.measure_train", None),
    ("protocol", "simulate_gate_array", "sample.simulate_gate_array", None),
    ("protocol", "sift", "sift", None),
    ("protocol", "estimate_qber", "estimate", None),
    ("protocol", "reconcile", "reconcile", _count_reconcile),
    ("protocol", "compute_flip_mask", "flipmask.compute", None),
    ("protocol", "apply_flip_mask", "flipmask.apply", None),
    ("protocol", "Transcript.append", "transcript.append", _count_message),
    ("protocol", "Transcript.parity_bit_count", "transcript.parity_bit_count", None),
    ("netsim", "run_session", "session.run_session", None),
    ("netsim", "run_network", "netsim.run_network", None),
    ("netsim", "Network.notify_classical", "eventlog.notify_classical", None),
    ("netsim", "EventLog.digest", "eventlog.digest", _count_lines),
    ("netsim", "EventLog.guard_violations", "eventlog.guard_violations", None),
    ("router", "build_assignment", "router.build_assignment", _count_pairs),
    ("router", "verify_assignment", "router.verify_assignment", None),
    ("cli", "build_assignment", "router.build_assignment", _count_pairs),
    ("cli", "fourport_router_spec", "router.fourport_router_spec", None),
    ("cli", "uniform_router_spec", "router.uniform_router_spec", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "sweep_rows_to_csv", "cli.sweep_rows_to_csv", None),
    ("cli", "sweep_attenuation", "netsim.sweep_attenuation", _count_points),
)

# per-layer time metric -> spans whose self times it sums
SELF_TIMES = {
    "sample.s": ("sample.generate_train", "sample.measure_train", "sample.simulate_gate_array"),
    "sift.s": ("sift",),
    "estimate.s": ("estimate",),
    "reconcile.s": ("reconcile",),
    "flipmask.s": ("flipmask.compute", "flipmask.apply"),
    "transcript.append_s": ("transcript.append",),
    "transcript.parity_count_s": ("transcript.parity_bit_count",),
    "session.self_s": ("session.run_session",),
    "netsim.self_s": ("netsim.run_network", "netsim.sweep_attenuation"),
    "eventlog.notify_s": ("eventlog.notify_classical",),
    "eventlog.digest_s": ("eventlog.digest",),
    "eventlog.guard_s": ("eventlog.guard_violations",),
    "router.build_s": (
        "router.build_assignment", "router.verify_assignment",
        "router.fourport_router_spec", "router.uniform_router_spec",
    ),
    "cli.load_config_s": ("cli.load_config",),
    "cli.self_s": ("cli.main", "cli.sweep_rows_to_csv"),
}


@dataclass
class Phase:
    """Aggregates of one set-up or iteration: self times, calls, counts."""

    kind: str
    duration: float = 0.0
    covered: float = 0.0  # time inside any named span
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    spans: list = field(default_factory=list)  # [name, parent, start, end]


class Tracer:
    def __init__(self) -> None:
        self.phases: list[Phase] = []
        self.missing: set[str] = set()
        self.count_errors: set[str] = set()
        self._phase = Phase("idle")
        self._open: list[list] = []  # [name, start, child time, span index]
        self._installed: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        spans = self._phase.spans
        parent = self._open[-1][3] if self._open else -1
        spans.append([name, parent, 0.0, 0.0])
        start = time.perf_counter()
        spans[-1][2] = start
        self._open.append([name, start, 0.0, len(spans) - 1])

    def _exit(self) -> float:
        end = time.perf_counter()
        name, start, child, index = self._open.pop()
        duration = end - start
        ph = self._phase
        ph.spans[index][3] = end
        ph.self_s[name] += duration - child
        ph.calls[name] += 1
        if self._open:
            self._open[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def phase(self, kind: str):
        """Root span of one set-up or iteration; its aggregates become a Phase."""
        self._phase = Phase(kind)
        self._open = []
        self._enter(kind)
        try:
            yield self._phase
        finally:
            child = self._open[-1][2]
            self._phase.duration = self._exit()
            self._phase.covered = child
            self._phase.self_s.pop(kind, None)
            self._phase.calls.pop(kind, None)
            for old in self.phases:
                if old.kind == kind:
                    old.spans = []  # keep spans of the latest phase of a kind only
            self.phases.append(self._phase)
            self._phase = Phase("idle")

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if counter is not None:
                try:
                    counter(tracer._phase.counts, args, kwargs, result)
                except (LookupError, TypeError, AttributeError, ValueError):
                    tracer.count_errors.add(name)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every target that exists; a target that is gone is noted and skipped."""
        for mod_name, path, name, counter in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.add(f"{mod_name}.{path}")
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []


def dump_spans(phase: Phase, out) -> None:
    """One line per span: index, parent index, name, start and end (perf_counter s)."""
    for i, (name, parent, start, end) in enumerate(phase.spans):
        out.write(f"{i} {parent} {name} {start:.9f} {end:.9f}\n")


def layer_metrics(ph: Phase) -> dict[str, float]:
    """Per-layer figures of one phase (times in s, counts as counted)."""
    out = {m: sum(ph.self_s.get(s, 0.0) for s in spans) for m, spans in SELF_TIMES.items()}
    c = ph.counts
    for name in (
        "sample.gates", "sample.clicks", "sift.bits", "estimate.sampled_bits",
        "reconcile.parity_bits", "reconcile.parity_queries", "flipmask.flips",
        "transcript.messages", "eventlog.lines", "router.pairs", "sweep.points",
    ):
        out[name] = float(c.get(name, 0.0))
    out["sample.click_fraction"] = (
        out["sample.clicks"] / out["sample.gates"] if out["sample.gates"] else 0.0
    )
    out["reconcile.calls"] = float(ph.calls.get("reconcile", 0))
    shannon = c.get("reconcile.shannon_bits", 0.0)
    out["reconcile.f_ec"] = out["reconcile.parity_bits"] / shannon if shannon else 0.0
    return out


def note(tracer: Tracer) -> None:
    if tracer.missing:
        print(f"trace: not found, no span: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    if tracer.count_errors:
        print(f"trace: counter failed on {sorted(tracer.count_errors)}", file=sys.stderr)
