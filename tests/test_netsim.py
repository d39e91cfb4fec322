"""Scheduling, the event log, the network harness, and attenuation sweeps."""

import math

import numpy as np
import pytest

from wdmqkd.netsim import (
    Event,
    EventLog,
    Network,
    NetworkSpec,
    SchedulingInfeasibleError,
    SWEEP_CSV_HEADER,
    assign_time_offsets,
    default_fourport_network,
    run_network,
    sweep_attenuation,
    sweep_rows_to_csv,
)
from wdmqkd.photonics import DetectorModel, SourceModel, expected_qber
from wdmqkd.protocol import SessionConfig
from wdmqkd.router import build_assignment, path_loss_db, uniform_router_spec


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


class TestAssignTimeOffsets:
    def test_three_channels(self):
        offs = assign_time_offsets([0, 1, 2], 1000, 100)
        assert offs == {0: 0, 1: 100, 2: 200}
        values = sorted(offs.values())
        assert all(b - a >= 100 for a, b in zip(values, values[1:]))

    def test_single_channel(self):
        assert assign_time_offsets([0], 1000, 100) == {0: 0}

    def test_too_many_channels(self):
        with pytest.raises(SchedulingInfeasibleError):
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


class TestEventLog:
    def test_orders_by_time_then_kind_then_seq(self):
        log = EventLog()
        log.append(Event(50, "classical-message", "A", "-", "kind=KeyRequest"))
        log.append(Event(50, "gate-open", "B", "λ1", ""))
        log.append(Event(50, "pulse-arrival", "A", "λ1", "dest=B"))
        log.append(Event(10, "classical-message", "B", "-", "kind=KeyRequest"))
        kinds = [e.kind for e in log.events()]
        assert kinds == [
            "classical-message", "pulse-arrival", "gate-open", "classical-message",
        ]

    def test_train_expansion(self):
        log = EventLog()
        log.append_train(1000, 1000, 3, "pulse-arrival", "A", "λ2", "dest=B")
        log.append(Event(1500, "classical-message", "A", "-", "kind=Abort"))
        lines = list(log.render_lines())
        assert lines == [
            "1000 pulse-arrival A λ2 dest=B",
            "1500 classical-message A - kind=Abort",
            "2000 pulse-arrival A λ2 dest=B",
            "3000 pulse-arrival A λ2 dest=B",
        ]
        assert len(log) == 4

    def test_line_format_five_fields(self):
        log = EventLog()
        log.append_train(1000, 1000, 2, "gate-open", "C", "λ3", "width_ns=2.5")
        for line in log.render_lines():
            time_ns, kind, port, channel, detail = line.split(" ", 4)
            assert int(time_ns) >= 0
            assert kind == "gate-open"
            assert port == "C" and channel == "λ3" and detail == "width_ns=2.5"

    def test_digest_matches_render(self):
        import hashlib

        log = EventLog()
        log.append_train(0, 10, 5, "pulse-arrival", "A", "λ1", "dest=D")
        log.append(Event(25, "classical-message", "D", "-", "kind=BasisList"))
        manual = hashlib.sha256()
        for line in log.render_lines():
            manual.update(line.encode())
            manual.update(b"\n")
        assert log.digest() == manual.hexdigest()
        assert log.digest() == log.digest()  # rendering is repeatable

    def test_guard_violations_detected(self):
        log = EventLog()
        log.append_train(1000, 1000, 5, "pulse-arrival", "A", "λ1", "")
        log.append_train(1050, 1000, 5, "pulse-arrival", "A", "λ2", "")
        bad = log.guard_violations(100)
        assert len(bad) == 5  # one 50 ns cross-channel gap per frame
        assert bad[0] == (1000, "λ1", 1050, "λ2")
        assert not log.guard_violations(50)

    def test_same_channel_not_a_violation(self):
        log = EventLog()
        log.append_train(0, 10, 4, "pulse-arrival", "A", "λ1", "")
        assert not log.guard_violations(100)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Event(0, "detector-click", "A", "λ1", "")
        with pytest.raises(ValueError):
            EventLog().append_train(0, 10, 2, "detector-click", "A", "λ1", "")


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

    def test_rep_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_spec(detectors={
                c: DetectorModel(rep_rate_hz=2e6) for c in (1, 2, 3)
            })

    def test_eatt_validation(self):
        with pytest.raises(ValueError):
            make_spec(eatt_db={1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            make_spec(eatt_db={1: 0.0, 2: 0.0, 3: -1.0})

    def test_frame_period_consistency(self):
        with pytest.raises(ValueError):
            make_spec(frame_period_ns=500)
        with pytest.raises(ValueError):
            make_spec(source=SourceModel(rep_rate_hz=3.0e5))  # 3333.3 ns

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            make_spec(offsets_ns={0: 0, 1: 0, 2: 100})
        with pytest.raises(ValueError):
            make_spec(offsets_ns={0: 0, 1: 100, 2: 1000})
        with pytest.raises(ValueError):
            make_spec(offsets_ns={0: 0, 1: 100})
        spec = make_spec(offsets_ns={0: 0, 1: 300, 2: 600})
        assert spec.offsets_ns[2] == 600

    def test_uniform_eatt_replacement(self):
        spec = default_fourport_network().with_uniform_eatt(7.5)
        assert spec.eatt_db == {1: 7.5, 2: 7.5, 3: 7.5}


class TestNetwork:
    def test_noiseless_broadcast_zero_errors(self):
        spec = default_fourport_network(
            e_opt=0.0, dark_rates_hz=(0.0, 0.0, 0.0)
        )
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
        r2 = run_network(spec, cfg, seed=22)
        assert not np.array_equal(r1.result.final_key, r2.result.final_key)

    def test_loss_composition_recoverable_from_log(self):
        spec = default_fourport_network(eatt_db=5.0)
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
        window_start = period  # the clock starts at 0, so the train starts one period in
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
        for e in run.events.events():
            assert e.time_ns >= last_time
            last_time = e.time_ns
            kinds.add(e.kind)
        assert kinds == {"pulse-arrival", "gate-open", "classical-message"}

    def test_no_guard_violations_in_default_layout(self):
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=7)
        run = run_network(spec, cfg)
        assert not run.events.guard_violations(spec.guard_ns)

    def test_unroutable_pulse_logged_and_discarded(self):
        router = uniform_router_spec(build_assignment(5))
        clients = (1, 2, 3, 4)
        spec = NetworkSpec(
            router=router, server=0, source=SourceModel(),
            detectors={c: DetectorModel() for c in clients},
            eatt_db={c: 0.0 for c in clients},
        )
        net = Network(spec, seed=0)
        # with identity channel labels, channel 0 is dark at port 0
        assert net.inject_pulse(0, 0) is None
        dest = net.inject_pulse(0, 1)
        assert dest is not None
        lines = list(net.events.render_lines())
        assert any("discarded=unroutable" in l for l in lines)
        assert sum("pulse-arrival" in l for l in lines) == 2

    def test_link_parameters_match_closed_form(self):
        spec = default_fourport_network(eatt_db=3.0)
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

    def test_window_requires_equal_train_lengths(self):
        net = Network(default_fourport_network(), seed=1)
        net.transmit_train(0, 1, 100)
        with pytest.raises(ValueError):
            net.transmit_train(0, 2, 200)


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
        spec = default_fourport_network()
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=200_000, seed=10)
        rows = sweep_attenuation(spec, cfg, [10.0, 0.0])
        by_channel: dict[float, dict[float, float]] = {}
        for r in rows:
            by_channel.setdefault(r.channel_nm, {})[r.atten_db] = r.qber
        for series in by_channel.values():
            assert series[10.0] > series[0.0]

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
        spec = default_fourport_network(e_opt=0.3)
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=150_000, seed=13)
        rows = sweep_attenuation(spec, cfg, [0.0])
        assert len(rows) == 3
        for row in rows:
            assert row.status == "abort"
            assert row.leaked_bits == 0
            assert 0.25 < row.qber < 0.35
            assert row.sift_rate_hz > 0

    def test_dead_links_marked_nan(self):
        spec = default_fourport_network(dark_rates_hz=(0.0, 0.0, 0.0))
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2_000, seed=14)
        rows = sweep_attenuation(spec, cfg, [200.0])
        assert len(rows) == 3
        for row in rows:
            assert row.status == "no-detections"
            assert math.isnan(row.qber)
            assert row.leaked_bits == 0 and row.sift_rate_hz == 0.0

    def test_sampled_away_block_gives_no_detection_rows(self):
        # at 2000 frames some points sift a single bit that the error
        # sample then discloses; those points yield rows, not an exception
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=1)
        rows = sweep_attenuation(default_fourport_network(), cfg, range(9))
        assert len(rows) == 27
        assert {r.status for r in rows} == {"ok", "no-detections"}

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
