"""The one integer rule: every port, count and seed argument refuses a bool
or a non-integral number with one message, and keeps a numpy integer as a
plain int."""

import re
from dataclasses import replace

import numpy as np
import pytest

from wdmqkd.netsim import Network, assign_time_offsets, default_fourport_network
from wdmqkd.photonics import ClickRecord, sample_clicks
from wdmqkd.protocol import FlipMask, KeyBlock, SessionConfig
from wdmqkd.router import (
    ChannelId,
    PortId,
    RouterSpec,
    WavelengthAssignment,
    build_assignment,
    route,
    wdm_requirements,
)

SPEC = default_fourport_network()
ASSIGNMENT = build_assignment(4)
DETECTOR = SPEC.detectors[1]
LOSSES = SPEC.router.insertion_loss_db

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
    # the keys of port-keyed mappings; the site's key comes first, so a float equal to an
    # int port is not replaced by that port's key
    "NetworkSpec.detectors": (
        "detectors port", 1,
        lambda v: next(iter(replace(SPEC, detectors={v: DETECTOR, 2: DETECTOR, 3: DETECTOR})
                            .detectors))),
    "NetworkSpec.eatt_db": (
        "eatt_db port", 1,
        lambda v: next(iter(replace(SPEC, eatt_db={v: 0.0, 2: 0.0, 3: 0.0}).eatt_db))),
    "RouterSpec.insertion_loss_db": (
        "insertion_loss_db port", 0,
        lambda v: next(iter(RouterSpec(ASSIGNMENT, {(v, 1): 1.0} | LOSSES).insertion_loss_db))[0]),
    "WavelengthAssignment.channel_of": (
        "channel_of port", 0,
        lambda v: next(iter(WavelengthAssignment(2, {(v, 1): ChannelId(0)}).channel_of))[0]),
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


@pytest.mark.parametrize("make, message", [
    (lambda: WavelengthAssignment(4, {0: ChannelId(0)}),
     "channel_of keys must be port pairs, got 0"),
    (lambda: RouterSpec(ASSIGNMENT, {(0, 1, 2): 1.0} | LOSSES),
     "insertion_loss_db keys must be port pairs, got (0, 1, 2)"),
    (lambda: replace(SPEC, detectors={1: "x", 2: DETECTOR, 3: DETECTOR}),
     "detectors at port 1 must be a DetectorModel, got 'x'"),
], ids=["channel_of", "insertion_loss_db", "detectors"])
def test_port_keyed_mapping_refuses_a_bad_entry(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
