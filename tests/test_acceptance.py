"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single [PASS] or
[FAIL] line (visible under ``pytest -s``).  Statistical checks run at 4
binomial sigma on seeded runs; runtime bounds are asserted directly.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from wdmqkd.cli import main
from wdmqkd.netsim import (
    Network,
    default_fourport_network,
    run_network,
    sweep_attenuation,
)
from wdmqkd.photonics import (
    DetectorModel,
    LinkBudget,
    SourceModel,
    expected_qber,
    p_dark_per_gate,
    p_signal_click,
    sample_clicks,
)
from wdmqkd.protocol import (
    KeyBlock,
    ReconciliationError,
    SessionConfig,
    Transcript,
    apply_flip_mask,
    compute_flip_mask,
    reconcile,
    sift,
)
from wdmqkd.router import (
    build_assignment,
    export_loss_matrix,
    fourport_router_spec,
    import_loss_matrix,
    path_loss_db,
    route,
    verify_assignment,
    wdm_requirements,
)


@contextlib.contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {title}")
        raise
    print(f"[PASS] criterion {n}: {title}")


def test_criterion_01_fourport_assignment_table():
    with criterion(1, "4-port wavelength assignment matches the shipped unit"):
        build_assignment(2)  # warm the code path before timing
        t0 = time.perf_counter()
        a = build_assignment(4)
        elapsed = time.perf_counter() - t0
        expected = {
            ("A", "B"): 1, ("A", "C"): 2, ("A", "D"): 0,
            ("B", "C"): 0, ("B", "D"): 2, ("C", "D"): 1,
        }
        for (pi, pj), ch in expected.items():
            assert a.pair_channel(pi, pj).index == ch
            assert a.pair_channel(pj, pi).index == ch
        assert len(a.channels) == 3
        assert elapsed < 1e-3


def test_criterion_02_construction_law_up_to_64_ports():
    with criterion(2, "proper assignments and WDM counts for N in [2, 64]"):
        t0 = time.perf_counter()
        for n in range(2, 65):
            a = build_assignment(n)
            report = verify_assignment(a)
            assert report.ok, f"N={n}: {report}"
            n_channels = len(a.channels)
            assert n_channels == (n - 1 if n % 2 == 0 else n)
            assert wdm_requirements(n) == (n, n_channels)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_routing_semantics_and_involution():
    with criterion(3, "dispatch facts and routing involution on the 4-port unit"):
        spec = fourport_router_spec()
        facts = {
            ("A", 0): "D", ("A", 1): "B", ("A", 2): "C",
            ("B", 0): "C", ("B", 2): "D",
        }
        for (port, ch), dest in facts.items():
            assert route(spec, port, ch).label == dest
        a = spec.assignment
        for port in range(4):
            for ch in a.channels:
                out = route(a, port, ch.index)
                assert route(a, out.index, ch.index).index == port


def test_criterion_04_key_reverse_worked_example():
    with criterion(4, "flip-mask worked example on 4-bit keys"):
        frames = np.arange(4, dtype=np.int64)
        reference = KeyBlock(np.array([0, 1, 0, 0], dtype=np.uint8), frames)
        other = KeyBlock(np.array([0, 0, 0, 1], dtype=np.uint8), frames)
        mask = compute_flip_mask(reference, other)
        assert mask.positions_one_based == (2, 4)
        assert apply_flip_mask(other, mask).bits.tolist() == [0, 1, 0, 0]


def test_criterion_05_loss_matrix_round_trip():
    with criterion(5, "measured loss fixture round-trips exactly"):
        spec = fourport_router_spec()
        assert path_loss_db(spec, "A", "B") == 1.70
        assert path_loss_db(spec, "B", "A") == 2.17
        assert len(spec.insertion_loss_db) == 12
        text = export_loss_matrix(spec)
        back = import_loss_matrix(text, build_assignment(4))
        assert back.insertion_loss_db == spec.insertion_loss_db


def test_criterion_06_monte_carlo_matches_analytic_qber():
    with criterion(6, "sifted QBER within 4 sigma of the closed form at 5 dB"):
        t0 = time.perf_counter()
        src = SourceModel(mean_photon_number=0.1, rep_rate_hz=1e6, e_opt=0.01)
        det = DetectorModel(efficiency=0.1, dark_rate_hz=41.7, gate_width_ns=2.5)
        budget = LinkBudget.of(("line", 5.0))
        p_sig = p_signal_click(src, budget, det)
        p_dark = p_dark_per_gate(src, det)
        assert p_dark == pytest.approx(4.17e-5, rel=1e-12)
        q_expected = expected_qber(p_sig, p_dark, src.e_opt)
        rng = np.random.default_rng(2026)
        a, b = sift(sample_clicks(1_000_000, p_sig, p_dark, src.e_opt, rng))
        q = np.count_nonzero(a.bits != b.bits) / len(a)
        sigma = math.sqrt(q_expected * (1 - q_expected) / len(a))
        assert abs(q - q_expected) < 4 * sigma
        assert time.perf_counter() - t0 < 30


def test_criterion_07_broadcast_agreement_twenty_seeds():
    with criterion(7, "million-frame broadcast agrees for 20 seeds"):
        spec = default_fourport_network()
        t0 = time.perf_counter()
        for seed in range(20):
            cfg = SessionConfig(
                server=0, clients=(1, 2, 3), n_frames=1_000_000, seed=seed
            )
            run = run_network(spec, cfg)
            keys = list(run.result.client_keys.values())
            assert len(keys) == 3
            assert run.result.key_length > 0
            assert all(np.array_equal(k, keys[0]) for k in keys)
        assert time.perf_counter() - t0 < 300


def test_criterion_08_attenuation_sweep_shape():
    with criterion(8, "sweep QBER grows with loss and saturates past the dark floor"):
        spec = default_fourport_network()
        n_frames = 8_000_000
        cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=n_frames, seed=5)
        db_list = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
        rows = sweep_attenuation(spec, cfg, db_list)
        assert len(rows) == len(db_list) * 3
        for client in (1, 2, 3):
            series = sorted(
                (r for r in rows if r.client == client), key=lambda r: r.atten_db
            )
            qs, sigmas = [], []
            for row in series:
                assert row.length_km == row.atten_db / 0.2
                assert not math.isnan(row.qber)
                n_sifted = row.sift_rate_hz * n_frames / 1e6
                qs.append(row.qber)
                sigmas.append(
                    math.sqrt(max(row.qber * (1 - row.qber), 1e-12) / max(n_sifted, 1))
                )
                point = Network(
                    spec.with_uniform_eatt(row.atten_db), seed=0
                ).link_parameters(0, client)
                if point.p_sig < point.p_dark:
                    assert row.qber > 0.25, (
                        f"client {client} at {row.atten_db} dB: dark counts dominate "
                        f"but qber is only {row.qber:.4f}"
                    )
            for i in range(len(qs) - 1):
                slack = 4 * math.hypot(sigmas[i], sigmas[i + 1])
                assert qs[i + 1] >= qs[i] - slack, (
                    f"client {client}: qber fell from {qs[i]:.4f} to {qs[i+1]:.4f} "
                    f"between {series[i].atten_db} and {series[i+1].atten_db} dB"
                )


def test_criterion_09_cli_outputs_byte_identical(tmp_path, capsys):
    with criterion(9, "simulate and sweep artifacts are byte-identical across reruns"):
        config = tmp_path / "net.yaml"
        config.write_text(
            "session: {n_frames: 200000, seed: 7}\n"
            "sweep: {start_db: 0.0, stop_db: 10.0, step_db: 5.0}\n",
            encoding="utf-8",
        )
        key_dir = tmp_path / "keys"
        stdouts, key_bytes, csv_bytes = [], [], []
        for rerun in range(2):
            assert main(["simulate", "--config", str(config), "--out", str(key_dir)]) == 0
            stdouts.append(capsys.readouterr().out)
            key_bytes.append(
                {f.name: f.read_bytes() for f in sorted(key_dir.glob("*.hex"))}
            )
            csv_path = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", str(config), "--out", str(csv_path)]) == 0
            capsys.readouterr()
            csv_bytes.append(csv_path.read_bytes())
        assert stdouts[0] == stdouts[1]
        assert key_bytes[0] == key_bytes[1]
        assert len(key_bytes[0]) == 3
        assert csv_bytes[0] == csv_bytes[1]


def parity_bits_asked(transcript, n):
    """Parity bits an ``n``-bit reconciliation's queries ask for: one per
    block of a pass, one per range of a bisection level and one per subset
    of the final check, counted without the replies' ``n_bits``."""
    asked = 0
    for m in transcript:
        if m.kind == "ParityQuery" and "lo" in m.payload:
            asked += np.frombuffer(m.payload["lo"], dtype=np.int64).size
        elif m.kind == "ParityQuery":
            asked += -(-n // m.payload["block_size"])
        elif m.kind == "FinalCheck" and "n_subsets" in m.payload:
            asked += m.payload["n_subsets"]
    return asked


def test_criterion_10_reconciliation_convergence_and_leak_accounting():
    with criterion(10, "cascade converges in 99+ of 100 trials with exact leak counts"):
        n, n_err = 2048, 61  # 3% of the block
        failures = 0
        for trial in range(100):
            rng = np.random.default_rng(10_000 + trial)
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            wrong = bits.copy()
            wrong[rng.choice(n, size=n_err, replace=False)] ^= 1
            frames = np.arange(n, dtype=np.int64)
            a = KeyBlock(bits, frames)
            b = KeyBlock(wrong, frames)
            transcript = Transcript()
            try:
                cb = reconcile(a, b, n_err / n, transcript, rng=rng)
            except ReconciliationError:
                failures += 1
                continue
            assert transcript.parity_bit_count() == parity_bits_asked(transcript, n)
            if not np.array_equal(bits, cb.bits):
                failures += 1
        assert failures <= 1
