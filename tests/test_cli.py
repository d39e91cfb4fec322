"""Exit codes, output artifacts, and determinism of the command-line layer."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmqkd import cli
from wdmqkd.cli import ConfigError, load_config, main
from wdmqkd.netsim import default_fourport_network, run_network
from wdmqkd.protocol import ReconciliationError, SessionConfig, SessionError

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
        "serverr; allowed: detectors, eatt_db, guard_ns, router, server, source",
    ),
    "network.router": (
        "network: {router: {portz: 4}}\n",
        "portz; allowed: loss_file, ports, uniform_loss_db",
    ),
    "network.source": (
        "network: {source: {mu: 0.1}}\n",
        "mu; allowed: e_opt, mean_photon_number, rep_rate_hz",
    ),
    "network.detectors.1": (
        "network: {detectors: {1: {dark_rate: 1.0}, 2: {}, 3: {}}}\n",
        "dark_rate; allowed: dark_rate_hz, efficiency, gate_width_ns",
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


# config key -> (config text with {} for the value, the value written as
# "<m>e<k>", what a loaded config holds there)
SPELLED_KEYS = {
    "session.n_frames": ("session: {{n_frames: {}}}", "1e6", lambda c: c.session.n_frames),
    "session.seed": ("session: {{seed: {}}}", "7e0", lambda c: c.session.seed),
    "network.guard_ns": ("network: {{guard_ns: {}}}", "1e2", lambda c: c.spec.guard_ns),
    "network.router.ports": (
        "network: {{router: {{ports: {}}}, detectors: {{1: {{}}, 2: {{}}, 3: {{}}, 4: {{}}}}}}",
        "5e0", lambda c: c.spec.router.assignment.n_ports),
    "network.source.rep_rate_hz": (
        "network: {{source: {{rep_rate_hz: {}}}}}", "1e6", lambda c: c.spec.source.rep_rate_hz),
    "network.source.mean_photon_number": (
        "network: {{source: {{mean_photon_number: {}}}}}", "1e0",
        lambda c: c.spec.source.mean_photon_number),
    "network.eatt_db": ("network: {{eatt_db: {}}}", "2e1", lambda c: c.spec.eatt_db[2]),
    "network.eatt_db port": (
        "network: {{eatt_db: {{1: 0, 2: {}, 3: 0}}}}", "2e1", lambda c: c.spec.eatt_db[2]),
    "network.router.uniform_loss_db": (
        "network: {{router: {{ports: 4, uniform_loss_db: {}}}}}", "3e0",
        lambda c: c.spec.router.insertion_loss_db[(0, 1)]),
    "sweep.start_db": (
        "sweep: {{start_db: {}, stop_db: 30, step_db: 5}}", "1e1", lambda c: c.sweep_db[0]),
    "sweep.stop_db": (
        "sweep: {{start_db: 0, stop_db: {}, step_db: 5}}", "2e1", lambda c: c.sweep_db[1]),
    "sweep.step_db": (
        "sweep: {{start_db: 0, stop_db: 30, step_db: {}}}", "5e0", lambda c: c.sweep_db[2]),
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
        assert capsys.readouterr().err == "error: n_ports must be >= 2, got 1\n"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert main(["router-table", "--ports", "4"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "table.txt"
        assert main(["router-table", "--ports", "4", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == stdout

    def test_out_creates_missing_directories(self, tmp_path, capsys):
        assert main(["router-table", "--ports", "4"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "new" / "dir" / "table.txt"
        assert main(["router-table", "--ports", "4", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text(encoding="utf-8") == stdout

    def test_out_naming_a_directory_refused(self, tmp_path, capsys):
        assert main(["router-table", "--ports", "4", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: --out: {tmp_path} is a directory\n")
        assert not any(tmp_path.iterdir())


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
        cfg = write_config(
            tmp_path, "session: {n_frames: 200000, qber_abort_threshold: 0.0, seed: 4}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "abort: estimated error rate at or above 0.0 on link(s) to B, C, D\n"
            "  link A-B  qber_estimate 0.011236  qber_measured 0.015471\n"
            "  link A-C  qber_estimate 0.014599  qber_measured 0.007299\n"
            "  link A-D  qber_estimate 0.000000  qber_measured 0.005093\n"
        )
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
        # at 600 frames some seeds sift one bit on a link, and the error
        # sample takes it: exit 3, never a usage error
        text = SHIPPED_CONFIG.read_text(encoding="utf-8")
        cfg = write_config(tmp_path, text.replace("n_frames: 1000000", "n_frames: 600"))
        args = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]
        sampled_away = 0
        for seed in range(200):
            code = main(args + ["--seed", str(seed)])
            assert code in (0, 3), seed
            err = capsys.readouterr().err
            sampled_away += code == 3 and "no bits left after sampling" in err
        assert sampled_away

    def test_missing_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        for text, key in [
            ("session: {n_frame: 1000}\n", "n_frame"),
            # keys no longer in the config format
            ("network: {frame_period_ns: 1000}\n", "frame_period_ns"),
            ("network: {router: {crosstalk_db: 28.0}}\n", "crosstalk_db"),
        ]:
            cfg = write_config(tmp_path, text)
            assert main(["simulate", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "unknown key(s)" in err and key in err

    def test_malformed_yaml(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: [unclosed\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {cfg}: ")
        assert f'in "{cfg}", line 1, column 10' in err  # the mark names the file

    def test_integer_past_the_digit_limit_cannot_be_parsed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"session: {{n_frames: -{'1' * 5000}}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot parse {cfg}: ")
        assert not (tmp_path / "k").exists()

    def test_bad_physics_value(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "network: {source: {mean_photon_number: -0.5}}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, field",
        [
            ("simulate", "network: {eatt_db: .nan}", "network: eatt_db"),
            ("simulate", "network: {source: {mean_photon_number: .nan}}",
             "network.source: mean_photon_number"),
            ("simulate", "network: {source: {mean_photon_number: .inf}}",
             "network.source: mean_photon_number"),
            ("simulate", "network: {eatt_db: .inf, source: {mean_photon_number: .inf}}",
             "network.source: mean_photon_number"),
            ("simulate", "network: {source: {rep_rate_hz: .nan}}", "network.source: rep_rate_hz"),
            ("simulate", "network: {source: {rep_rate_hz: .inf}}", "network.source: rep_rate_hz"),
            ("simulate", "network: {detectors: {1: {}, 2: {dark_rate_hz: .nan}, 3: {}}}",
             "network.detectors.2: dark_rate_hz"),
            ("simulate", "network: {detectors: {1: {gate_width_ns: .nan}, 2: {}, 3: {}}}",
             "network.detectors.1: gate_width_ns"),
            ("simulate", "network: {detectors: {1: {}, 2: {}, 3: {gate_width_ns: .inf}}}",
             "network.detectors.3: gate_width_ns"),
            ("simulate", "network: {router: {ports: 4, uniform_loss_db: .nan}}",
             "network.router.uniform_loss_db"),
            ("simulate", "session: {sample_fraction: .nan}", "session: sample_fraction"),
            ("simulate", "session: {qber_abort_threshold: .nan}", "session: qber_abort_threshold"),
            ("sweep", "sweep: {start_db: .nan, stop_db: 10.0, step_db: 5.0}", "sweep.start_db"),
            ("sweep", "sweep: {start_db: 0.0, stop_db: .inf, step_db: 5.0}", "sweep.stop_db"),
            ("sweep", "sweep: {start_db: 0.0, stop_db: 10.0, step_db: .nan}", "sweep.step_db"),
            ("simulate", "network: {guard_ns: 0}", "network: guard_ns must be >= 1, got 0"),
            ("simulate", "network: {guard_ns: -5}", "network: guard_ns must be >= 1, got -5"),
            ("simulate", "network: {classical_delay_ns: 0}",
             "unknown key(s) in network: classical_delay_ns; allowed: detectors,"),
            ("simulate", "network: {eatt_db: {1: 0.0, 3: 0.0}}",
             "network: eatt_db has no entry at port 2"),
            ("simulate", "output: {key_dir: null}", "output.key_dir must be a string, got None"),
            ("sweep", "output: {csv: [a, b]}", "output.csv must be a string, got ['a', 'b']"),
            ("simulate", "output: 0", "output must be a mapping, got int"),
            ("simulate", "network: {router: {loss_file: 5}}",
             "network.router.loss_file must be a string, got 5"),
            ("simulate", "network: {router: {loss_file: nope.txt}}",
             "network.router.loss_file not found: "),
            ("simulate", "network: {router: {ports: 1}}",
             "network.router.ports must be >= 2, got 1"),
            ("simulate", "network: {router: {ports: 5}}",
             "network.detectors is required unless the router has exactly 3 clients"),
            ("simulate", "session: {mode: 1}", "session: unknown mode 1"),
            ("simulate", "session: {n_frames: true}", "session: n_frames must be an integer"),
            # a mapping or a string iterates, but names no sequence of ports
            ("simulate", "session: {clients: {1: 0}}",
             "session: clients must be a sequence of ports, got {1: 0}"),
            ("simulate", "session: {clients: '1,2'}",
             "session: clients must be a sequence of ports, got '1,2'"),
            # an int past the float range
            *(pytest.param("simulate", text.format(10**400), field, id=f"{field}-10**400")
              for text, field in [
                  ("network: {{eatt_db: {}}}", "network: eatt_db at port 1"),
                  ("network: {{eatt_db: {{1: 0, 2: {}, 3: 0}}}}", "network: eatt_db at port 2"),
                  ("network: {{detectors: {{1: {{}}, 2: {{}}, 3: {{dark_rate_hz: {}}}}}}}",
                   "network.detectors.3: dark_rate_hz"),
              ]),
        ],
    )
    def test_non_finite_value_named(self, tmp_path, capsys, command, text, field):
        if not text.startswith("session"):
            text += "\nsession: {n_frames: 2000}\n"
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert field in err
        if ".nan" in text or ".inf" in text:
            assert "nan" in err or "inf" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("text, flags, message", [
        ("session: {seed: -5}\n", [], "error: session: seed must be >= 0, got -5\n"),
        ("", ["--seed", "-1"],"error: seed must be >= 0, got -1\n"),
    ], ids=["config", "flag"])
    def test_negative_seed_named(self, tmp_path, capsys, command, text, flags, message):
        cfg = write_config(tmp_path, text + "sweep: {start_db: 0, stop_db: 5, step_db: 5}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("server", [9, 4, -1])
    def test_server_outside_the_router_named(self, tmp_path, capsys, server):
        # detectors left out: the default ones fit only the default server
        cfg = write_config(tmp_path, f"network: {{server: {server}}}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: network.server must be in [0, 3], got {server}\n"
        )

    @pytest.mark.parametrize("command, output, flags, name", [
        ("sweep", "{csv: ''}", [], "output.csv"),
        ("simulate", "{key_dir: ''}", [], "output.key_dir"),
        ("sweep", "{}", ["--out", ""], "--out"),
        ("simulate", "{}", ["--out", ""], "--out"),
    ], ids=["csv", "key_dir", "sweep-out", "simulate-out"])
    def test_empty_output_path_refused_before_any_session(
        self, tmp_path, capsys, monkeypatch, command, output, flags, name
    ):
        # "" is the working directory: a sweep would run every point before
        # it failed to write its CSV there, and keys would land in it
        def session(*args):
            raise AssertionError("a session ran")

        monkeypatch.setattr(cli, "run_network", session)
        monkeypatch.setattr(cli, "sweep_attenuation", session)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, f"output: {output}\nsweep: {{start_db: 0, stop_db: 5, step_db: 5}}\n"
        )
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: {name} must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    @pytest.mark.parametrize("command, output, flags, message", [
        ("simulate", "{}", ["--out", "file"], "--out: file is not a directory"),
        ("simulate", "{key_dir: file}", [], "output.key_dir: file is not a directory"),
        ("simulate", "{}", ["--out", "file/keys"], "--out: file is not a directory"),
        ("sweep", "{}", ["--out", "folder"], "--out: folder is a directory"),
        ("sweep", "{csv: folder}", [], "output.csv: folder is a directory"),
        ("sweep", "{csv: file/sweep.csv}", [], "output.csv: file is not a directory"),
    ], ids=["simulate-out", "key_dir", "key_dir-under-file", "sweep-out", "csv", "csv-under-file"])
    def test_unwritable_output_path_refused_before_any_session(
        self, tmp_path, capsys, monkeypatch, command, output, flags, message
    ):
        # the keys or the CSV would fail to land only after the whole run
        def session(*args):
            raise AssertionError("a session ran")

        monkeypatch.setattr(cli, "run_network", session)
        monkeypatch.setattr(cli, "sweep_attenuation", session)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        (tmp_path / "folder").mkdir()
        cfg = write_config(
            tmp_path, f"output: {output}\nsweep: {{start_db: 0, stop_db: 5, step_db: 5}}\n"
        )
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "file", "folder"]
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"
        assert not any((tmp_path / "folder").iterdir())

    def test_window_past_the_time_limit(self, tmp_path, capsys):
        # 10**16 frames of 1000 ns put the quantum window past 2**61 ns
        cfg = write_config(tmp_path, "session: {n_frames: 10000000000000000}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
        assert capsys.readouterr().err == (
            "error: the quantum window [1000, 10000000000000001000) ns ends past 2**61 ns: "
            "lower session.n_frames (10000000000000000)\n"
        )
        assert not (tmp_path / "k").exists()

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

    @pytest.mark.parametrize(
        "section, message",
        [
            ("{start_db: 5, stop_db: 0, step_db: 0}",
             "sweep.step_db must be in (0, inf) dB, got 0.0"),
            ("{start_db: 5, stop_db: 0, step_db: 1}", "sweep.stop_db must be in [5, inf) dB, got 0.0"),
            # each value is finite, but the point count is not
            ("{start_db: 0.0, stop_db: 1.0e300, step_db: 1.0e-300}",
             "sweep: (stop_db - start_db) / step_db must be finite, got (1e+300 - 0.0) / 1e-300"),
        ],
    )
    def test_simulate_rejects_bad_sweep_section(self, tmp_path, capsys, section, message):
        cfg = write_config(tmp_path, f"session: {{n_frames: 2000}}\nsweep: {section}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
        assert message in capsys.readouterr().err

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "session: {n_frames: 2000}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_incomplete_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep: {start_db: 0.0}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "step_db" in capsys.readouterr().err

    def test_reconcile_failure_keeps_every_row(self, tmp_path, capsys, reconcile_fails_at_5db):
        cfg = write_config(
            tmp_path,
            "session: {n_frames: 50000, seed: 11}\n"
            "sweep: {start_db: 0.0, stop_db: 10.0, step_db: 5.0}\n",
        )
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 3 * 3
        cells = [line.split(",") for line in lines[1:]]
        assert [(float(c[0]), c[2] == "nan") for c in cells] == [
            (db, db == 5.0) for db in (0.0, 5.0, 10.0) for _ in range(3)
        ]
        cfg.write_text(
            cfg.read_text(encoding="utf-8").replace("stop_db: 10.0", "stop_db: 5.0")
            .replace("start_db: 0.0", "start_db: 5.0"),
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
        assert capsys.readouterr().out.count("no QBER (reconcile-failed)") == 3

    def test_no_detections_summary(self, tmp_path, capsys):
        # at 20 dB, 300 frames give no sifted bit on any link
        cfg = write_config(
            tmp_path,
            "session: {n_frames: 300}\nsweep: {start_db: 20, stop_db: 20, step_db: 1}\n",
        )
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
        assert capsys.readouterr().out == (
            f"sweep 20..20 dB step 1: 3 rows -> {csv_path}\n"
            "channel 1510.0nm: no detections\n"
            "channel 1530.0nm: no detections\n"
            "channel 1550.0nm: no detections\n"
        )

    def test_shipped_sweep_pinned(self, tmp_path, capsys):
        # seed 7, 1M frames, 0-25 dB: a new digest means a changed seed -> output mapping
        csv_path = tmp_path / "s.csv"
        args = ["sweep", "--config", str(SHIPPED_CONFIG), "--seed", "7", "--out", str(csv_path)]
        assert main(args) == 0
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert digest == "9ac625f85c63cd5c0260736f009aa2a87750def53764cc0179f6087644d14526"

    def test_rerun_byte_identical(self, config_path, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(p1)]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


# (mode, clients): one client, a relay, a multicast pair, the whole star
SESSION_SHAPES = (
    ("unicast", (1,)), ("unicast", (2, 3)), ("multicast", (1, 3)), ("broadcast", (1, 2, 3)),
)


class TestSessionOutcomes:
    @settings(max_examples=60, deadline=None)
    @given(
        n_frames=st.integers(1, 5000),
        eatt_db=st.integers(0, 4000).map(lambda x: x / 100),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(SESSION_SHAPES),
    )
    @example(n_frames=1, eatt_db=40.0, seed=0, shape=SESSION_SHAPES[3])  # link A-B: 0 clicks
    @example(n_frames=200, eatt_db=0.0, seed=1, shape=SESSION_SHAPES[0])  # 1 click, sifted
    @example(n_frames=2000, eatt_db=float("inf"), seed=0, shape=SESSION_SHAPES[3])  # cut links
    def test_agreed_keys_or_session_error(self, tmp_path_factory, n_frames, eatt_db, seed, shape):
        mode, clients = shape
        cfg = SessionConfig(server=0, clients=clients, mode=mode, n_frames=n_frames, seed=seed)
        try:
            result = run_network(default_fourport_network().with_uniform_eatt(eatt_db), cfg).result
        except SessionError:
            pass
        else:
            assert sorted(result.client_keys) == list(clients) and result.key_length > 0
            for key in result.client_keys.values():
                assert np.array_equal(key, result.final_key)
        tmp = tmp_path_factory.mktemp("run")
        path = write_config(
            tmp,
            f"network: {{eatt_db: {eatt_db!r}}}\n"
            f"session: {{mode: {mode}, clients: {list(clients)}, "
            f"n_frames: {n_frames}, seed: {seed}}}\n",
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", "--config", str(path), "--out", str(tmp / "k")])
        assert code in (0, 3)


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
  router: {ports: 4, uniform_loss_db: 2.0}
  server: 1
  source: {mean_photon_number: 0.2, rep_rate_hz: 500000.0, e_opt: 0.02}
  detectors:
    0: {dark_rate_hz: 10.0}
    2: {dark_rate_hz: 20.0, efficiency: 0.2}
    3: {dark_rate_hz: 30.0, gate_width_ns: 3.0}
  eatt_db: {0: 1.0, 2: 2.0, 3: 3.0}
  guard_ns: 50
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
        assert cfg.spec.detectors[3].gate_width_ns == 3.0
        assert cfg.spec.eatt_db == {0: 1.0, 2: 2.0, 3: 3.0}
        assert cfg.spec.offsets_ns == {0: 0, 1: 50, 2: 100}  # from guard_ns
        assert cfg.spec.frame_period_ns == 2000  # from the 500 kHz source
        assert cfg.spec.guard_ns == 50
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

    def test_uniform_loss_fills_loss_file_gaps(self, tmp_path):
        (tmp_path / "loss.txt").write_text("A B 9.0\n", encoding="utf-8")
        text = "network: {router: {ports: 4, loss_file: loss.txt, uniform_loss_db: 3.5}}\n"
        losses = load_config(write_config(tmp_path, text)).spec.router.insertion_loss_db
        assert losses[(0, 1)] == 9.0
        assert {db for pair, db in losses.items() if pair != (0, 1)} == {3.5}

    def test_ports_four_is_uniform(self, tmp_path):
        """``router: fourport`` alone names the measured unit: ``{ports: 4}``,
        like any ``{ports: N}``, has ``uniform_loss_db``, 2.2 dB if left out."""
        cfg = load_config(write_config(tmp_path, "network: {router: {ports: 4}}\n"))
        assert set(cfg.spec.router.insertion_loss_db.values()) == {2.2}
        cfg = load_config(write_config(tmp_path, "network: {router: fourport}\n"))
        assert cfg.spec.router.insertion_loss_db[(0, 1)] == 1.70

    @pytest.mark.parametrize("value, shown", [
        (".nan", "a real number, got nan"), ("-1.0", ">= 0 dB, got -1.0")
    ], ids=[".nan-nan", "-1.0--1.0"])
    def test_bad_uniform_loss_named_next_to_loss_file(self, tmp_path, value, shown):
        (tmp_path / "loss.txt").write_text("A B 9.0\n", encoding="utf-8")
        router = f"{{loss_file: loss.txt, uniform_loss_db: {value}}}"
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, f"network: {{router: {router}}}\n"))
        assert str(excinfo.value) == (
            f"network.router.uniform_loss_db must be {shown}"
        )

    @pytest.mark.parametrize("row, reason", [
        ("A B x", "could not convert string to float: 'x'"),
        ("A Z 1.0", "unknown port label 'Z'"),
        ("A B", "expected 'in out dB', got 'A B'"),
        ("B B 1.0", "diagonal entry B"),
        ("A B -1.0", "loss must be >= 0 dB, got -1.0"),
        ("A B 1.0\nA B 9.0", "path A B already given on line 2"),
    ])
    def test_bad_loss_file_line_named(self, tmp_path, capsys, row, reason):
        loss = tmp_path / "loss.txt"
        loss.write_text(f"# in out dB\n{row}\n", encoding="utf-8")
        cfg = write_config(tmp_path, "network: {router: {loss_file: loss.txt}}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        lineno = 2 + row.count("\n")  # the row's last line
        assert capsys.readouterr().err == (
            f"error: network.router.loss_file {loss}: loss matrix line {lineno}: {reason}\n"
        )

    def test_yaml_loaders_agree(self):
        """The loader ``load_config`` uses reads every shipped config as PyYAML's
        pure-Python one does."""
        root = SHIPPED_CONFIG.parents[1]
        for path in [SHIPPED_CONFIG, *sorted((root / "perfbench" / "configs").glob("*.yaml"))]:
            text = path.read_text(encoding="utf-8")
            assert yaml.load(text, Loader=cli._YamlLoader) == yaml.safe_load(text)

    @pytest.mark.parametrize("network", ["", "network:\n", "network: {}\n"])
    def test_absent_network_is_the_default_fourport(self, tmp_path, network):
        cfg = load_config(write_config(tmp_path, network + "session: {n_frames: 20000, seed: 3}\n"))
        got = run_network(cfg.spec, cfg.session)
        want = run_network(default_fourport_network(), cfg.session)
        assert got.events.digest() == want.events.digest()
        assert got.result.client_keys.keys() == want.result.client_keys.keys()
        for client, key in want.result.client_keys.items():
            np.testing.assert_array_equal(got.result.client_keys[client], key)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```yaml\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
        cfg = load_config(write_config(tmp_path, block))
        assert cfg.spec.clients == (1, 2, 3) and cfg.sweep_db == (0.0, 25.0, 5.0)

    @pytest.mark.parametrize("key", list(SPELLED_KEYS))
    def test_number_spellings_load_alike(self, tmp_path, key):
        """PyYAML reads ``1e6`` as text; it, the quoted text, the float and
        the int each load to one value of one type."""
        text, exponent, loaded = SPELLED_KEYS[key]
        n = int(float(exponent))
        got = [loaded(load_config(write_config(tmp_path, text.format(spelling))))
               for spelling in (exponent, f'"{exponent}"', repr(float(n)), str(n))]
        assert got[0] == n
        assert [(value, type(value)) for value in got] == [(got[0], type(got[0]))] * 4

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

    @pytest.mark.parametrize("text, message", [
        ("detectors: {1: {efficiency: 0.1}, '1': {efficiency: 0.5}, 2: {}, 3: {}}",
         "network.detectors names port 1 twice, as 1 and '1'"),
        ("eatt_db: {1: 0.0, '1.0': 30.0, 2: 0.0, 3: 0.0}",
         "network.eatt_db names port 1 twice, as 1 and '1.0'"),
        # YAML itself would keep the last of two equal keys
        ("eatt_db: {1: 0.0, 1.0: 30.0, 2: 0.0, 3: 0.0}", "key 1.0 names key 1 again"),
        ("detectors: {1: {}, 2: {}, 3: {}, 1: {efficiency: 0.5}}", "key 1 names key 1 again"),
    ], ids=["detectors", "eatt_db", "equal-keys", "repeated-key"])
    def test_port_named_twice_refused(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, f"network: {{{text}}}\nsession: {{n_frames: 2000}}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "k").exists()

    @pytest.mark.parametrize(
        "bad", ["router: {ports: 1}", "server: x", "source: 3", "detectors: 5", "eatt_db: hot"]
    )
    def test_unknown_network_key_reported_before_bad_value(self, tmp_path, bad):
        text = f"network: {{serverr: 1, {bad}}}\n"
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, text))
        assert str(excinfo.value) == f"unknown key(s) in network: {UNKNOWN_KEY_CASES['network'][1]}"

    @pytest.mark.parametrize("where", list(UNKNOWN_KEY_CASES))
    def test_unknown_key_message(self, tmp_path, where):
        text, rest = UNKNOWN_KEY_CASES[where]
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, text))
        assert str(excinfo.value) == f"unknown key(s) in {where}: {rest}"


def run_python(*args):
    """A Python subprocess that imports ``wdmqkd`` from this checkout's src/."""
    path = [str(SHIPPED_CONFIG.parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_run_broadcast_script(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_broadcast.py"
        proc = run_python(str(script), "--frames", "20000", "--log-lines", "3")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "guard violations: 0" in lines
        assert lines[-4].startswith("event log: ") and len(lines[-3:]) == 3

    def test_module_invocation(self):
        proc = run_python("-m", "wdmqkd.cli", "router-table", "--ports", "4")
        assert proc.returncode == 0
        assert "4 WDMs × 3 channels" in proc.stdout

    def test_usage_error_is_exit_two(self):
        proc = run_python("-m", "wdmqkd.cli", "simulate")
        assert proc.returncode == 2
