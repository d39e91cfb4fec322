"""Shared fixtures: a minimal in-memory network handle for protocol tests."""

import numpy as np
import pytest

from wdmqkd import netsim, protocol
from wdmqkd.photonics import SourceModel, sample_clicks
from wdmqkd.protocol import LinkParameters, ReconciliationError
from wdmqkd.router import build_assignment


class FakeNetwork:
    """Smallest handle satisfying the run_session contract.

    Quantum transmission is modeled directly with the photonics click
    sampler; there is no event log and no loss geometry, just fixed
    per-link click probabilities.
    """

    def __init__(
        self,
        n_ports=4,
        seed=0,
        p_sig=0.05,
        p_dark=0.0,
        e_opt=0.0,
        rep_rate_hz=1.0e6,
    ):
        self.n_ports = n_ports
        self.assignment = build_assignment(n_ports)
        self.p_sig = p_sig
        self.p_dark = p_dark
        self.e_opt = e_opt
        self.src = SourceModel(rep_rate_hz=rep_rate_hz, e_opt=e_opt)
        self._seed = seed
        self._protocol_rng = np.random.default_rng(
            np.random.SeedSequence((seed, 0xFACE))
        )

    def link_parameters(self, server, client):
        return LinkParameters(
            channel=self.assignment.pair_channel(server, client),
            p_sig=self.p_sig,
            p_dark=self.p_dark,
            e_opt=self.e_opt,
            rep_rate_hz=self.src.rep_rate_hz,
            total_loss_db=0.0,
        )

    def transmit_train(self, server, client, n_frames):
        rng = np.random.default_rng(
            np.random.SeedSequence((self._seed, server, client))
        )
        return sample_clicks(n_frames, self.p_sig, self.p_dark, self.e_opt, rng)

    def protocol_rng(self):
        return self._protocol_rng

    def new_transcript(self):
        return protocol.Transcript()


@pytest.fixture
def fake_network():
    return FakeNetwork


@pytest.fixture
def reconcile_fails_at_5db(monkeypatch):
    """Every network run at 5 dB eATT fails reconciliation; others run as usual."""
    run_network, reconcile = netsim.run_network, protocol.reconcile

    def fail(*args, **kwargs):
        raise ReconciliationError("final check failed")

    def run(spec, cfg):
        at_5db = 5.0 in spec.eatt_db.values()
        monkeypatch.setattr(protocol, "reconcile", fail if at_5db else reconcile)
        return run_network(spec, cfg)

    monkeypatch.setattr(netsim, "run_network", run)
