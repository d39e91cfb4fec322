"""Exit codes, output artifacts, and determinism of the command-line layer."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wdmqkd.cli import ConfigError, load_config, main
from wdmqkd.protocol import ReconciliationError

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fourport.yaml"

BASE_CONFIG = """\
session:
  n_frames: 200000
  seed: 7
sweep:
  start_db: 0.0
  stop_db: 10.0
  step_db: 5.0
output:
  key_dir: keys
  csv: sweep.csv
"""


# section -> (config text with one unknown key, rest of the exact message)
UNKNOWN_KEY_CASES = {
    "config": (
        "sessions: {}\n",
        "sessions; allowed: network, output, session, sweep",
    ),
    "network": (
        "network: {serverr: 1}\n",
        "serverr; allowed: classical_delay_ns, detectors, eatt_db, "
        "frame_period_ns, guard_ns, offsets_ns, router, server, source",
    ),
    "network.router": (
        "network: {router: {portz: 4}}\n",
        "portz; allowed: crosstalk_db, loss_file, ports, uniform_loss_db",
    ),
    "network.source": (
        "network: {source: {mu: 0.1}}\n",
        "mu; allowed: e_opt, mean_photon_number, rep_rate_hz",
    ),
    "network.detectors.1": (
        "network: {detectors: {1: {dark_rate: 1.0}, 2: {}, 3: {}}}\n",
        "dark_rate; allowed: dark_rate_hz, efficiency, gate_width_ns, rep_rate_hz",
    ),
    "session": (  # the server is the network's, not the session's
        "session: {server: 1}\n",
        "server; allowed: clients, mode, n_frames, qber_abort_threshold, "
        "sample_fraction, seed",
    ),
    "sweep": (
        "sweep: {start_db: 0, stop_db: 1, step_db: 1, stop: 2}\n",
        "stop; allowed: start_db, step_db, stop_db",
    ),
    "output": ("output: {keydir: k}\n", "keydir; allowed: csv, key_dir"),
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return path


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestRouterTable:
    def test_fourport_table_and_footer(self, capsys):
        assert main(["router-table", "--ports", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 WDMs × 3 channels" in out
        assert "Port A" in out and "Port D" in out
        # Row A of the shipped unit: B via λ2, C via λ3, D via λ1.
        row_a = next(l for l in out.splitlines() if l.startswith("Port A "))
        assert row_a.split()[2:] == ["—", "λ2", "λ3", "λ1"]
        # machine listing carries the wavelengths
        assert "A D 0 1510.0" in out
        assert "B C 0 1510.0" in out

    def test_two_ports_single_row(self, capsys):
        assert main(["router-table", "--ports", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 WDMs × 1 channels" in out
        assert "A B 0 -" in out

    def test_odd_port_count(self, capsys):
        assert main(["router-table", "--ports", "5"]) == 0
        assert "5 WDMs × 5 channels" in capsys.readouterr().out

    def test_one_port_rejected(self, capsys):
        assert main(["router-table", "--ports", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert main(["router-table", "--ports", "4"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "table.txt"
        assert main(["router-table", "--ports", "4", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == stdout


class TestSimulate:
    def test_broadcast_writes_identical_key_files(self, config_path, tmp_path, capsys):
        key_dir = tmp_path / "keys"
        code = main(["simulate", "--config", str(config_path), "--out", str(key_dir)])
        assert code == 0
        out = capsys.readouterr().out
        files = sorted(key_dir.glob("key_*.hex"))
        assert [f.name for f in files] == ["key_B.hex", "key_C.hex", "key_D.hex"]
        texts = [f.read_text(encoding="utf-8") for f in files]
        assert texts[0] == texts[1] == texts[2]
        header, payload, _ = texts[0].split("\n")
        n_bits = int(header.split()[1])
        assert header.startswith("bits ")
        assert n_bits > 0
        # hex payload carries exactly the advertised bits, zero-padded to bytes
        raw = np.unpackbits(np.frombuffer(bytes.fromhex(payload), dtype=np.uint8))
        assert raw.size >= n_bits and not raw[n_bits:].any()
        assert f"final key: {n_bits} bits" in out
        assert out.count("link A-") == 3

    def test_forced_abort_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: {n_frames: 50000, qber_abort_threshold: 0.0}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "abort" in captured.err
        assert not (tmp_path / "k").exists()

    def test_reconcile_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ReconciliationError("final check failed")

        monkeypatch.setattr("wdmqkd.protocol.reconcile", fail)
        cfg = write_config(tmp_path, "session: {n_frames: 50000}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "abort: final check failed" in captured.err

    def test_sampled_away_block_exits_three(self, tmp_path, capsys):
        # seed 1 sifts one bit on link A-B, and the error sample takes it
        text = SHIPPED_CONFIG.read_text(encoding="utf-8")
        cfg = write_config(tmp_path, text.replace("n_frames: 1000000", "n_frames: 600"))
        args = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]
        assert main(args + ["--seed", "1"]) == 3
        assert "no bits left after sampling" in capsys.readouterr().err
        for seed in range(200):
            assert main(args + ["--seed", str(seed)]) in (0, 3), seed
        capsys.readouterr()

    def test_missing_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: {n_frame: 1000}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "n_frame" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: [unclosed\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_physics_value(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "network: {source: {mean_photon_number: -0.5}}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_low_frame_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: {n_frames: 500}\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")])
        assert code in (0, 3)  # tiny runs usually sift down to nothing
        assert "warning" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, config_path, tmp_path, capsys):
        d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["simulate", "--config", str(config_path), "--out", str(d1)]) == 0
        assert main(
            ["simulate", "--config", str(config_path), "--out", str(d2), "--seed", "7"]
        ) == 0
        assert main(
            ["simulate", "--config", str(config_path), "--out", str(d3), "--seed", "8"]
        ) == 0
        capsys.readouterr()
        k1 = (d1 / "key_B.hex").read_bytes()
        assert k1 == (d2 / "key_B.hex").read_bytes()
        assert k1 != (d3 / "key_B.hex").read_bytes()

    def test_rerun_byte_identical(self, config_path, tmp_path, capsys):
        key_dir = str(tmp_path / "keys")
        assert main(["simulate", "--config", str(config_path), "--out", key_dir]) == 0
        first_out = capsys.readouterr().out
        first_keys = {
            f.name: f.read_bytes() for f in (tmp_path / "keys").glob("*.hex")
        }
        assert main(["simulate", "--config", str(config_path), "--out", key_dir]) == 0
        assert capsys.readouterr().out == first_out
        for f in (tmp_path / "keys").glob("*.hex"):
            assert f.read_bytes() == first_keys[f.name]

    def test_unicast_single_client(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "session: {mode: unicast, clients: [2], n_frames: 200000}\n",
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 0
        files = sorted((tmp_path / "k").glob("*.hex"))
        assert [f.name for f in files] == ["key_C.hex"]


class TestSweep:
    def test_csv_rows_and_summary(self, config_path, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(csv_path)]) == 0
        out = capsys.readouterr().out
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "atten_db,channel_nm,qber,sift_rate_hz,leaked_bits,length_km"
        assert len(lines) == 1 + 3 * 3  # 0, 5, 10 dB for three channels
        assert out.count("channel ") == 3
        assert "qber min" in out

    def test_zero_step_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep: {start_db: 0.0, stop_db: 10.0, step_db: 0.0}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "step" in capsys.readouterr().err

    def test_backwards_range_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep: {start_db: 10.0, stop_db: 0.0, step_db: 5.0}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: {n_frames: 2000}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_incomplete_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep: {start_db: 0.0}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "step_db" in capsys.readouterr().err

    def test_rerun_byte_identical(self, config_path, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(p1)]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "{}\n"))
        assert cfg.spec.server == 0
        assert cfg.session.clients == (1, 2, 3)
        assert cfg.session.n_frames == 100_000
        assert cfg.sweep_db is None
        assert cfg.key_dir == "keys" and cfg.csv_path == "sweep.csv"

    def test_full_network_section(self, tmp_path):
        text = """\
network:
  router: {ports: 4, uniform_loss_db: 2.0, crosstalk_db: 30.0}
  server: 1
  source: {mean_photon_number: 0.2, rep_rate_hz: 500000.0, e_opt: 0.02}
  detectors:
    0: {dark_rate_hz: 10.0}
    2: {dark_rate_hz: 20.0, efficiency: 0.2}
    3: {dark_rate_hz: 30.0, gate_width_ns: 3.0}
  eatt_db: {0: 1.0, 2: 2.0, 3: 3.0}
  offsets_ns: {0: 0, 1: 700, 2: 1400}
  frame_period_ns: 2000
  guard_ns: 50
  classical_delay_ns: 5
session:
  clients: [0, 2]
  mode: multicast
  n_frames: 5000
  sample_fraction: 0.3
  qber_abort_threshold: 0.05
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.spec.server == 1
        assert cfg.spec.source.mean_photon_number == 0.2
        assert cfg.spec.source.e_opt == 0.02
        assert cfg.spec.detectors[2].efficiency == 0.2
        assert cfg.spec.detectors[0].rep_rate_hz == 500000.0  # inherited
        assert cfg.spec.detectors[3].gate_width_ns == 3.0
        assert cfg.spec.eatt_db == {0: 1.0, 2: 2.0, 3: 3.0}
        assert cfg.spec.offsets_ns == {0: 0, 1: 700, 2: 1400}
        assert cfg.spec.frame_period_ns == 2000
        assert cfg.spec.guard_ns == 50
        assert cfg.spec.classical_delay_ns == 5
        assert cfg.session.mode == "multicast"
        assert cfg.session.server == 1
        assert cfg.session.sample_fraction == 0.3
        assert cfg.session.qber_abort_threshold == 0.05

    def test_loss_file_reference(self, tmp_path):
        (tmp_path / "loss.txt").write_text(
            "# in out dB\nA B 9.0\nB A 9.5\n", encoding="utf-8"
        )
        cfg = load_config(
            write_config(tmp_path, "network: {router: {loss_file: loss.txt}}\n")
        )
        assert cfg.spec.router.insertion_loss_db[(0, 1)] == 9.0
        assert cfg.spec.router.insertion_loss_db[(1, 0)] == 9.5
        assert cfg.spec.router.insertion_loss_db[(0, 2)] == 2.2  # default fill

    def test_scalar_eatt_broadcasts(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "network: {eatt_db: 4.5}\n"))
        assert cfg.spec.eatt_db == {1: 4.5, 2: 4.5, 3: 4.5}

    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, "sessions: {}\n"))

    def test_unknown_detector_key(self, tmp_path):
        text = "network: {detectors: {1: {dark_rate: 1.0}, 2: {}, 3: {}}}\n"
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("where", list(UNKNOWN_KEY_CASES))
    def test_unknown_key_message(self, tmp_path, where):
        text, rest = UNKNOWN_KEY_CASES[where]
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, text))
        assert str(excinfo.value) == f"unknown key(s) in {where}: {rest}"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wdmqkd.cli", "router-table", "--ports", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "4 WDMs × 3 channels" in proc.stdout

    def test_usage_error_is_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wdmqkd.cli", "simulate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
