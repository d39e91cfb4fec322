"""The one integer rule: every port, count and seed argument refuses a bool
or a non-integral number with one message, and keeps a numpy integer as a
plain int."""

from dataclasses import replace

import numpy as np
import pytest

from wdmqkd.netsim import Network, assign_time_offsets, default_fourport_network
from wdmqkd.photonics import ClickRecord, sample_clicks
from wdmqkd.protocol import FlipMask, KeyBlock, SessionConfig
from wdmqkd.router import ChannelId, PortId, build_assignment, route, wdm_requirements

SPEC = default_fourport_network()
ASSIGNMENT = build_assignment(4)

# site -> (the name its message gives, a valid value, value -> the int the site keeps)
SITES = {
    "SessionConfig.server": (
        "server", 0, lambda v: SessionConfig(server=v, clients=(2,), mode="unicast").server),
    "SessionConfig.clients": (
        "client port", 2,
        lambda v: SessionConfig(server=0, clients=(v,), mode="unicast").clients[0]),
    "SessionConfig.n_frames": (
        "n_frames", 2000, lambda v: SessionConfig(server=0, clients=(1,), n_frames=v).n_frames),
    "SessionConfig.seed": (
        "seed", 3, lambda v: SessionConfig(server=0, clients=(1,), seed=v).seed),
    "NetworkSpec.server": ("server", 0, lambda v: replace(SPEC, server=v).server),
    "NetworkSpec.guard_ns": ("guard_ns", 100, lambda v: replace(SPEC, guard_ns=v).guard_ns),
    "Network.seed": (
        "seed", 3,
        lambda v: Network(SPEC, seed=v).protocol_rng().bit_generator.seed_seq.entropy),
    "Network.transmit_train": (
        "n_frames", 2000, lambda v: Network(SPEC).transmit_train(0, 1, v).n_frames),
    "assign_time_offsets.channels": (
        "channel", 2, lambda v: next(iter(assign_time_offsets([v], 1000)))),
    "assign_time_offsets.guard_ns": (
        "guard_ns", 100, lambda v: assign_time_offsets([0, 1], 1000, v)[1]),
    "assign_time_offsets.frame_period_ns": (
        "frame_period_ns", 1000, lambda v: assign_time_offsets([0, 1], v, 500)[1]),
    "sample_clicks": (
        "n_frames", 1000,
        lambda v: sample_clicks(v, 0.1, 0.0, 0.0, np.random.default_rng(0)).n_frames),
    "ClickRecord": ("n_frames", 4, lambda v: ClickRecord(v, [1], [0], [1], [0], [1]).n_frames),
    "FlipMask": ("length", 2, lambda v: FlipMask(v, [0, 1]).length),
    "KeyBlock.truncate": ("length", 1, lambda v: len(KeyBlock([0, 1], [3, 5]).truncate(v))),
    "PortId": ("port index", 2, lambda v: PortId(v).index),
    "ChannelId": ("channel index", 2, lambda v: ChannelId(v).index),
    "port reference": ("port index", 2, lambda v: ASSIGNMENT.port(v).index),
    "route.channel": ("channel", 0, lambda v: route(ASSIGNMENT, "A", v).index),
    "wdm_requirements": ("n_ports", 4, lambda v: wdm_requirements(v)[0]),
    "build_assignment": ("n_ports", 4, lambda v: build_assignment(v).n_ports),
}


@pytest.mark.parametrize("value", [True, 1.5, 2.0])
@pytest.mark.parametrize("site", SITES)
def test_non_integer_refused(site, value):
    name, _, keep = SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        keep(value)


@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_kept_as_plain_int(site):
    _, valid, keep = SITES[site]
    kept = keep(np.int64(valid))
    assert kept == keep(valid)
    assert type(kept) is int
