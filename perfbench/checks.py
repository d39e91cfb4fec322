"""Correctness checks of the benchmark's workload outputs.

Every expected value here is computed from the benchmark's own inputs
(the YAML configs in ``configs/`` and the router loss fixture below) with
closed forms written out in this file; nothing calls back into wdmqkd's
formulas.  Each check returns a list of failure messages, empty when the
output is correct, so tests can feed it corrupted outputs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Mapping, Sequence

# Statistical checks accept a deviation of up to Z standard errors.  The
# benchmark evaluates some 60 of them per run over hundreds of runs; at
# 5 sigma the chance of a false alarm anywhere stays below 1e-3.
Z = 5.0

FIBER_DB_PER_KM = 0.2
SWEEP_HEADER = "atten_db,channel_nm,qber,sift_rate_hz,leaked_bits,length_km"

# Measured insertion loss (dB) of the shipped 4-port unit from server
# port A to each client port, and the wavelength of that path (the
# paper's assignment table: A-B 1530 nm, A-C 1550 nm, A-D 1510 nm).
FOURPORT_LOSS_FROM_A_DB = {1: 1.70, 2: 2.47, 3: 2.48}
FOURPORT_NM_FROM_A = {1: 1530.0, 2: 1550.0, 3: 1510.0}


def link_closed_form(
    mu: float, eta: float, loss_db: float, dark_hz: float, rep_hz: float, e_opt: float
) -> tuple[float, float]:
    """(QBER, sift probability per frame) of one link.

    p_sig = 1 - exp(-mu eta T), p_dark = dark rate / rep rate;
    e = (e_opt p_sig + p_dark / 2) / (p_sig + p_dark);
    sift probability = (1 - (1 - p_sig)(1 - p_dark)) / 2.
    """
    p_sig = 1.0 - math.exp(-mu * eta * 10.0 ** (-loss_db / 10.0))
    p_dark = dark_hz / rep_hz
    qber = (e_opt * p_sig + p_dark / 2.0) / (p_sig + p_dark)
    return qber, (1.0 - (1.0 - p_sig) * (1.0 - p_dark)) / 2.0


def _binomial_se(p: float, n: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else math.inf


def _links(cfg: Mapping, loss_db: Mapping[int, float]) -> dict[int, tuple[float, float]]:
    """Closed-form (QBER, sift probability) per client port of a config."""
    net = cfg["network"]
    src = net["source"]
    out = {}
    for port, det in net["detectors"].items():
        out[int(port)] = link_closed_form(
            src["mean_photon_number"], det["efficiency"], loss_db[int(port)],
            det["dark_rate_hz"], src["rep_rate_hz"], src["e_opt"],
        )
    return out


def check_sweep(csv_text: str, cfg: Mapping) -> list[str]:
    """The sweep CSV of the shipped 4-port star against the closed form."""
    fail: list[str] = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"header is {lines[:1]!r}, want {SWEEP_HEADER!r}"]
    sw, ses = cfg["sweep"], cfg["session"]
    n_points = int(round((sw["stop_db"] - sw["start_db"]) / sw["step_db"])) + 1
    dbs = [sw["start_db"] + i * sw["step_db"] for i in range(n_points)]
    clients = sorted(ses["clients"])
    if len(lines) - 1 != n_points * len(clients):
        return [f"{len(lines) - 1} rows, want {n_points * len(clients)}"]
    frames = ses["n_frames"]
    rep_hz = cfg["network"]["source"]["rep_rate_hz"]
    threshold = ses["qber_abort_threshold"]
    series: dict[int, list[tuple[float, float]]] = {c: [] for c in clients}
    for p, db in enumerate(dbs):
        completed = []
        abort_certain, complete_certain = False, True
        expected = _links(cfg, {c: FOURPORT_LOSS_FROM_A_DB[c] + db for c in clients})
        for i, client in enumerate(clients):
            row = lines[1 + p * len(clients) + i]
            where = f"row {1 + p * len(clients) + i} ({db:g} dB, port {client})"
            try:
                atten, nm, qber, rate, leaked, km = row.split(",")
                atten, nm, qber, rate, km = map(float, (atten, nm, qber, rate, km))
                leaked = int(leaked)
            except ValueError:
                fail.append(f"{where}: cannot parse {row!r}")
                continue
            if atten != db or nm != FOURPORT_NM_FROM_A[client]:
                fail.append(f"{where}: atten_db {atten} / channel_nm {nm}")
            if not math.isclose(km, db / FIBER_DB_PER_KM, rel_tol=1e-12, abs_tol=1e-12):
                fail.append(f"{where}: length_km {km} != {db / FIBER_DB_PER_KM}")
            e0, q0 = expected[client]
            n_sifted = rate * frames / rep_hz
            if abs(n_sifted - round(n_sifted)) > 1e-6:
                fail.append(f"{where}: sift rate {rate} is not a whole number of bits")
            if abs(rate - rep_hz * q0) > Z * rep_hz * _binomial_se(q0, frames):
                fail.append(f"{where}: sift_rate_hz {rate} vs closed form {rep_hz * q0}")
            se = _binomial_se(e0, n_sifted)
            if not abs(qber - e0) <= Z * se:
                fail.append(f"{where}: qber {qber} vs closed form {e0} (se {se:.3g})")
            series[client].append((qber, se))
            completed.append(leaked > 0)
            if leaked < 0:
                fail.append(f"{where}: negative leaked_bits {leaked}")
            # the abort gate reads a 25% sample of the sifted bits
            se_est = _binomial_se(e0, ses["sample_fraction"] * frames * q0)
            abort_certain |= e0 - Z * se_est >= threshold
            complete_certain &= e0 + Z * se_est < threshold
        # one session per point: its rows all completed or all aborted
        if len(set(completed)) > 1:
            fail.append(f"{db:g} dB: leaked_bits > 0 on some rows only")
        elif completed and completed[0] and abort_certain:
            fail.append(f"{db:g} dB: completed although the closed form aborts")
        elif completed and not completed[0] and complete_certain:
            fail.append(f"{db:g} dB: no leaked bits although the closed form completes")
    for client, pts in series.items():
        for (q_a, se_a), (q_b, se_b) in zip(pts, pts[1:]):
            if q_b < q_a - Z * math.hypot(se_a, se_b):
                fail.append(f"port {client}: qber drops from {q_a} to {q_b}")
    return fail


def transcript_parity_bits(messages: Iterable, link: tuple[int, int]) -> int:
    """Parity bits disclosed on ``link``, counted from the message payloads.

    A binary-search reply carries one parity bit; a block reply and the
    final check carry ``n_bits`` bits packed into their byte payloads.
    """
    total = 0
    for m in messages:
        if tuple(m.link or ()) != link:
            continue
        if m.kind == "ParityReply" and "parity" in m.payload:
            total += 1
        elif m.kind == "ParityReply" or (m.kind == "FinalCheck" and "digest" in m.payload):
            n_bits = int(m.payload["n_bits"])
            packed = m.payload["parities" if m.kind == "ParityReply" else "digest"]
            if len(packed) != (n_bits + 7) // 8:
                raise ValueError(f"seq {m.seq}: {len(packed)} bytes carry {n_bits} bits")
            total += n_bits
    return total


def check_star(result, cfg: Mapping) -> list[str]:
    """A broadcast session on a uniform-loss router against the closed form."""
    fail: list[str] = []
    final = [int(b) for b in result.final_key]
    if not final:
        return ["empty final key"]
    for client, key in sorted(result.client_keys.items()):
        if [int(b) for b in key] != final:
            fail.append(f"client {client} key differs from the final key")
    clients = sorted(int(c) for c in cfg["network"]["detectors"])
    if sorted(result.client_keys) != clients:
        fail.append(f"keys for clients {sorted(result.client_keys)}, want {clients}")
    loss = cfg["network"]["router"]["uniform_loss_db"] + cfg["network"]["eatt_db"]
    expected = _links(cfg, {c: loss for c in clients})
    server = cfg["network"]["server"]
    messages = list(result.transcript.messages)
    for link in result.links:
        try:
            counted = transcript_parity_bits(messages, (server, link.client))
        except (KeyError, TypeError, ValueError) as err:
            fail.append(f"link {link.client}: malformed parity payload: {err}")
            continue
        if link.leaked_bits != counted:
            fail.append(
                f"link {link.client}: leaked_bits {link.leaked_bits}, "
                f"transcript parities {counted}"
            )
        e0, _ = expected[link.client]
        if not abs(link.qber_measured - e0) <= Z * _binomial_se(e0, link.n_sifted):
            fail.append(f"link {link.client}: qber {link.qber_measured} vs closed form {e0}")
    ones = sum(final) / len(final)
    if abs(ones - 0.5) > Z * _binomial_se(0.5, len(final)):
        fail.append(f"share of ones in the final key is {ones}")
    return fail


def _port_label(port: int) -> str:
    return chr(ord("A") + port)


def fourport_trains(cfg: Mapping) -> dict[tuple[str, str], tuple[str, str, int]]:
    """The pulse-arrival and gate-open trains a session on the shipped
    4-port star must log, as (kind, channel label) -> (port label, detail,
    time of the first event).

    The three wavelengths of the 4-port grid, in ascending order, are
    channels λ1, λ2, λ3; channel i is offset i·guard into the frame; the
    quantum window opens at the first frame boundary after t = 0, so the
    k-th event of a train is at period + offset + k·period.
    """
    net = cfg["network"]
    period = round(1e9 / net["source"]["rep_rate_hz"])
    grid = sorted(FOURPORT_NM_FROM_A.values())
    server = _port_label(net["server"])
    eatt = float(net["eatt_db"])
    trains = {}
    for client in cfg["session"]["clients"]:
        index = grid.index(FOURPORT_NM_FROM_A[client])
        channel = f"λ{index + 1}"
        first = period + index * net["guard_ns"]
        loss = FOURPORT_LOSS_FROM_A_DB[client]
        dest = _port_label(client)
        trains["pulse-arrival", channel] = (
            server,
            f"dest={dest} router_db={loss} eatt_db={eatt} loss_db={loss + eatt}",
            first,
        )
        width = net["detectors"][client]["gate_width_ns"]
        trains["gate-open", channel] = (dest, f"width_ns={width}", first)
    return trains


def check_eventlog(
    lines: Iterable[str],
    digest: str,
    guard_violations: Sequence,
    wide_violations: Sequence,
    cfg: Mapping,
) -> list[str]:
    """The event log of a broadcast's quantum phase on the shipped 4-port
    star against its config.

    Every line must be the next pulse-arrival or gate-open event of its
    link's train (time, port, channel and detail).  ``guard_violations`` is the result at the config's guard, which must be
    empty; ``wide_violations`` the result at 1.5 guards, where every pair
    of adjacent channels in a frame is a violation one guard apart.
    Streams ``lines`` once, hashing them as it goes, so the digest check
    needs no second render.
    """
    fail: list[str] = []

    def report(msg: str) -> None:
        if len(fail) < 20:
            fail.append(msg)

    n_frames = cfg["session"]["n_frames"]
    n_links = len(cfg["session"]["clients"])
    guard = cfg["network"]["guard_ns"]
    period = round(1e9 / cfg["network"]["source"]["rep_rate_hz"])
    expected = fourport_trains(cfg)
    next_time = {key: first for key, (_, _, first) in expected.items()}
    count = dict.fromkeys(expected, 0)
    sha = hashlib.sha256()
    last_time = -1
    n = 0
    for n, line in enumerate(lines, 1):
        sha.update(line.encode())
        sha.update(b"\n")
        time_ns, kind, port, channel, detail = (line.split(" ", 4) + ["", "", ""])[:5]
        t = int(time_ns)
        if t < last_time:
            report(f"line {n}: time {t} after {last_time}")
        last_time = t
        key = (kind, channel)
        if key not in expected:
            report(f"line {n}: no {kind} train on channel {channel!r}")
            continue
        want_port, want_detail, _ = expected[key]
        if (port, detail) != (want_port, want_detail):
            report(f"line {n}: {kind} {channel} at port {port!r} with {detail!r}, "
                   f"want port {want_port!r} with {want_detail!r}")
        if t != next_time[key]:
            report(f"line {n}: {kind} {channel} at {t}, want {next_time[key]}")
        next_time[key] = t + period
        count[key] += 1
    if n != 2 * n_links * n_frames:
        fail.append(f"{n} lines, want {2 * n_links * n_frames}")
    for key, c in count.items():
        if c != n_frames:
            fail.append(f"{c} {key[0]} lines on {key[1]}, want {n_frames}")
    if list(guard_violations):
        fail.append(f"{len(guard_violations)} guard violations at {guard} ns")
    if len(wide_violations) != (n_links - 1) * n_frames:
        fail.append(f"{len(wide_violations)} guard violations at 1.5 guards, "
                    f"want {(n_links - 1) * n_frames}")
    if any(t2 - t1 != guard or c1 == c2 for t1, c1, t2, c2 in wide_violations):
        fail.append("a guard violation at 1.5 guards is not two channels one guard apart")
    if sha.hexdigest() != digest:
        fail.append("digest() differs from the SHA-256 of the streamed lines")
    return fail
