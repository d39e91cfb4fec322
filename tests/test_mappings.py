"""The one mapping rule: every port-keyed mapping refuses a non-mapping, a
key of the wrong shape, a key outside the router's ports, a key of more
than 4,300 digits and, where the values are records, a value of the wrong
type, each with a short ValueError that names its field; and every
record-typed field refuses a value of the wrong type alike."""

import re
from dataclasses import replace

import pytest
import yaml

from wdmqkd.cli import load_config
from wdmqkd.netsim import Network, default_fourport_network, sweep_attenuation
from wdmqkd.protocol import SessionConfig, run_session
from wdmqkd.router import ChannelId, RouterSpec, WavelengthAssignment, build_assignment

SPEC = default_fourport_network()
CFG = SessionConfig(server=0, clients=(1, 2, 3))
ASSIGNMENT = build_assignment(4)
LOSSES = SPEC.router.insertion_loss_db
HUGE = 10**5000


def configured(detectors, tmp_path):
    """The detectors a config file with ``network.detectors`` = ``detectors`` loads to."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"network": {"detectors": detectors}}), encoding="utf-8")
    return load_config(path).spec.detectors


# site -> (the field its refusals name, a valid mapping, (mapping, tmp_path) -> what
# the site keeps, a key of the wrong shape, a key outside the ports, a key of more
# than 4,300 digits, a value of the wrong type or None where values are numbers)
SITES = {
    "WavelengthAssignment.channel_of": (
        "channel_of", {(0, 1): ChannelId(0)}, lambda m, _: WavelengthAssignment(4, m).channel_of,
        0, (0, 4), (HUGE, 1), "x"),
    "RouterSpec.insertion_loss_db": (
        "insertion_loss_db", LOSSES, lambda m, _: RouterSpec(ASSIGNMENT, m).insertion_loss_db,
        (0, 1, 2), (4, 0), (0, HUGE), None),
    "NetworkSpec.detectors": (
        "detectors", SPEC.detectors, lambda m, _: replace(SPEC, detectors=m).detectors,
        (1, 2), 4, HUGE, "x"),
    "NetworkSpec.eatt_db": (
        "eatt_db", SPEC.eatt_db, lambda m, _: replace(SPEC, eatt_db=m).eatt_db,
        (1, 2), -1, HUGE, None),
    # a key YAML reads as an int of 5001 digits fails in the parser, so it is
    # written as text, which reads as the float inf
    "cli.network.detectors": (
        "network.detectors", {1: {}, 2: {}, 3: {}}, configured, "x", 4, "1" + "0" * 5000, 5),
}

BAD = ("non-mapping", "key-shape", "key-outside", "key-10**5000", "value-type")


def bad_input(bad, valid, shape, outside, huge, value):
    """The mapping, or the non-mapping, that gives the site the input ``bad``."""
    key, first = next(iter(valid.items()))
    return {"non-mapping": list(valid.values()), "key-shape": {shape: first} | valid,
            "key-outside": {outside: first} | valid, "key-10**5000": {huge: first} | valid,
            "value-type": valid | {key: value}}[bad]


# the numbers of insertion_loss_db and eatt_db go through the real-number rule (test_numbers.py)
@pytest.mark.parametrize("site, bad", [
    pytest.param(site, bad, id=f"{site}-{bad}") for site in SITES for bad in BAD
    if bad != "value-type" or SITES[site][-1] is not None
])
def test_bad_mapping_refused_naming_its_field(site, bad, tmp_path):
    name, valid, keep, *row = SITES[site]
    with pytest.raises(ValueError) as excinfo:
        keep(bad_input(bad, valid, *row), tmp_path)
    message = str(excinfo.value)
    assert re.match(rf"{re.escape(name)}[ .]", message) and len(message) < 120, message


@pytest.mark.parametrize("site", SITES)
def test_valid_mapping_kept(site, tmp_path):
    name, valid, keep, *_ = SITES[site]
    assert list(keep(valid, tmp_path)) == list(valid)


@pytest.mark.parametrize("make, message", [
    (lambda: WavelengthAssignment(4, {(1, 0): ChannelId(0)}),
     "channel_of port must be in [2, 3], got 0"),
    (lambda: RouterSpec(ASSIGNMENT, {(1, 1): 1.0} | LOSSES),
     "insertion_loss_db takes no entry at (1, 1)"),
    (lambda: RouterSpec(ASSIGNMENT, {(0, 1, HUGE): 1.0} | LOSSES),
     "insertion_loss_db keys must be port pairs, got (0, 1, 100…0 (5001 digits))"),
    (lambda: RouterSpec(ASSIGNMENT, {k: v for k, v in LOSSES.items() if k != (2, 1)}),
     "insertion_loss_db has no entry at (2, 1)"),
    (lambda: replace(SPEC, detectors={0: SPEC.detectors[1]} | SPEC.detectors),
     "detectors takes no entry at port 0"),
    (lambda: replace(SPEC, eatt_db=0.0), "eatt_db must be a mapping, got float"),
    (lambda: WavelengthAssignment(2, None), "channel_of must be a mapping, got NoneType"),
    (lambda: WavelengthAssignment(3, {(0, 1): 0}),
     "channel_of at (0, 1) must be a ChannelId, got 0"),
    (lambda: replace(SPEC, detectors=SPEC.detectors | {1: HUGE}),
     "detectors at port 1 must be a DetectorModel, got 100…0 (5001 digits)"),
], ids=["unsorted-pair", "diagonal", "long-triple", "missing", "extra", "eatt-scalar", "None", "channel-int",
        "value-10**5000"])
def test_mapping_refusal_text(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_partial_assignment_kept():
    """channel_of takes any subset of the pairs, so verify_assignment can judge it."""
    assignment = WavelengthAssignment(3, {(0, 2): ChannelId(1)})
    assert assignment.channel_of == {(0, 2): ChannelId(1)}
    assert assignment.channels == (ChannelId(1),)


# site -> (the name its message gives, the record type it takes, value -> what it keeps)
RECORDS = {
    "NetworkSpec.router": ("router", "RouterSpec", lambda v: replace(SPEC, router=v).router),
    "NetworkSpec.source": ("source", "SourceModel", lambda v: replace(SPEC, source=v).source),
    "RouterSpec.assignment": (
        "assignment", "WavelengthAssignment", lambda v: RouterSpec(v, LOSSES).assignment),
    # the record arguments of the network and session entry points
    "Network.spec": ("spec", "NetworkSpec", lambda v: Network(v).spec),
    "run_session.cfg": ("cfg", "SessionConfig", lambda v: run_session(v, Network(SPEC))),
    "sweep_attenuation.spec": ("spec", "NetworkSpec", lambda v: sweep_attenuation(v, CFG, [0])),
    "sweep_attenuation.cfg": ("cfg", "SessionConfig", lambda v: sweep_attenuation(SPEC, v, [0])),
}


@pytest.mark.parametrize("value", ["x", None, 4])
@pytest.mark.parametrize("site", RECORDS)
def test_record_field_of_wrong_type_refused(site, value):
    name, cls, keep = RECORDS[site]
    with pytest.raises(ValueError) as excinfo:
        keep(value)
    assert str(excinfo.value) == f"{name} must be a {cls}, got {value!r}"


@pytest.mark.parametrize("clients", [{1: "x", 2: "y"}, "12"], ids=["mapping", "text"])
def test_clients_mapping_or_text_refused(clients):
    with pytest.raises(ValueError) as excinfo:
        SessionConfig(server=0, clients=clients)
    assert str(excinfo.value) == f"clients must be a sequence of ports, got {clients!r}"
