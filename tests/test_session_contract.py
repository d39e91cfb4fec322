"""The session contract over the whole config space: on any valid network
and session, a run ends with every client holding the same key, or with a
SessionError whose status is a known word.  Any other exception, a bare
ValueError from deep in the pipeline say, breaks the contract.  Its CLI
twin: ``simulate`` on any valid config exits 0 with one key in every key
file, or 3, never 2."""

import dataclasses
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmqkd.cli import main
from wdmqkd.netsim import NetworkSpec, run_network
from wdmqkd.photonics import DetectorModel, SourceModel
from wdmqkd.protocol import SessionConfig, SessionError
from wdmqkd.router import build_assignment, port_label, uniform_router_spec, wdm_requirements

STATUSES = ("abort", "no-detections", "reconcile-failed")


def spread(low, high):
    """Floats in [low, high], uniform in the logarithm so every decade is drawn:
    drawn uniformly, most dark rates and error rates would abort every session."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: min(high, 10**x))


@st.composite
def networks_and_sessions(draw):
    """A valid (NetworkSpec, SessionConfig) pair: 2-12 ports, 1-500 MHz,
    μ 10⁻³-5, e_opt 0-0.49, dark rates up to 0.999 of the gate rate,
    1-300k frames and a sample fraction from 10⁻⁶ to 1 - 10⁻⁹."""
    n_ports = draw(st.integers(2, 12))
    n_channels = wdm_requirements(n_ports)[1]
    period_ns = draw(st.integers(max(2, n_channels), 1000))  # every channel fits the frame
    rep_rate_hz = 1e9 / period_ns
    server = draw(st.integers(0, n_ports - 1))
    clients = [p for p in range(n_ports) if p != server]
    source = SourceModel(
        mean_photon_number=draw(spread(1e-3, 5)),
        rep_rate_hz=rep_rate_hz,
        e_opt=draw(st.just(0.0) | spread(1e-4, 0.49)),
    )
    detectors = {c: DetectorModel(
        efficiency=draw(st.floats(1e-3, 1)),
        dark_rate_hz=draw(st.just(0.0) | spread(1e-9, 0.999)) * rep_rate_hz,
        gate_width_ns=draw(st.floats(0.1, 10)),
    ) for c in clients}
    spec = NetworkSpec(
        router=uniform_router_spec(build_assignment(n_ports), draw(st.floats(0, 10))),
        server=server,
        source=source,
        detectors=detectors,
        eatt_db={c: draw(st.just(0.0) | st.floats(0, 40)) for c in clients},
        guard_ns=draw(st.integers(1, period_ns // n_channels)),
    )
    modes = ["broadcast", "unicast"] + (["multicast"] if len(clients) >= 2 else [])
    mode = draw(st.sampled_from(modes))
    if mode == "unicast":
        chosen = draw(st.lists(st.sampled_from(clients), min_size=1, max_size=2, unique=True))
    elif mode == "multicast":
        chosen = draw(st.lists(st.sampled_from(clients), min_size=2, unique=True))
    else:
        chosen = clients
    cfg = SessionConfig(
        server=server,
        clients=tuple(chosen),
        mode=mode,
        n_frames=draw(st.integers(1, 300_000)),
        sample_fraction=draw(spread(1e-6, 1 - 1e-9)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return spec, cfg


@pytest.mark.filterwarnings("ignore:mean photon number")  # μ > 1 is in range here
@settings(max_examples=100, deadline=None)
@given(networks_and_sessions())
def test_agreed_keys_or_known_session_error(pair):
    spec, cfg = pair
    try:
        result = run_network(spec, cfg).result
    except SessionError as err:
        assert err.status in STATUSES
    else:
        assert sorted(result.client_keys) == list(cfg.clients) and result.key_length > 0
        for key in result.client_keys.values():
            assert np.array_equal(key, result.final_key)


def as_config(pair):
    """The YAML config text of a (NetworkSpec, SessionConfig) pair, and its client ports."""
    spec, cfg = pair
    session = dataclasses.asdict(cfg)
    del session["server"]  # the network's
    session["clients"] = list(cfg.clients)
    network = {
        "router": {"ports": spec.router.assignment.n_ports,
                   "uniform_loss_db": spec.router.insertion_loss_db[(0, 1)]},
        "server": spec.server,
        "source": dataclasses.asdict(spec.source),
        "detectors": {p: dataclasses.asdict(d) for p, d in spec.detectors.items()},
        "eatt_db": dict(spec.eatt_db),
        "guard_ns": spec.guard_ns,
    }
    return yaml.safe_dump({"network": network, "session": session}), cfg.clients


@pytest.mark.filterwarnings("ignore:mean photon number")
@settings(max_examples=25, deadline=None)
@given(networks_and_sessions().map(as_config))
def test_simulate_exits_with_agreed_keys_or_abort(config):
    text, clients = config
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "keys"
        path.write_text(text, encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            keys = {f.name: f.read_text(encoding="utf-8") for f in out.iterdir()}
            assert sorted(keys) == sorted(f"key_{port_label(c)}.hex" for c in clients)
            assert len(set(keys.values())) == 1


def test_failing_property_reports_its_example(tmp_path):
    """Under the project's warning filters a failing property prints its
    falsifying example, not a traceback of hypothesis's pytest plugin."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 10\n",
        encoding="utf-8",
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout and "INTERNALERROR" not in proc.stdout, proc.stdout
