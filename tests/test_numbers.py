"""The one real-number rule: every physical figure refuses a bool, a
non-number, NaN, an int past the float range and a value outside its
interval, and keeps an int or a numpy float as the plain float it equals.
Ranges of integer arguments are checked by the integer rule too (see
``test_integers.py`` for its types)."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wdmqkd.netsim import Network, default_fourport_network, run_network, sweep_attenuation
from wdmqkd.photonics import (
    DetectorModel,
    LinkBudget,
    SourceModel,
    attenuation_to_length,
    expected_qber,
    sample_clicks,
    transmittance,
)
from wdmqkd.protocol import (
    FlipMask,
    KeyBlock,
    SessionAbortError,
    SessionConfig,
    Transcript,
    estimate_qber,
    reconcile,
    run_session,
)
from wdmqkd.router import (
    ChannelId,
    PortId,
    UnroutableWavelengthError,
    build_assignment,
    import_loss_matrix,
    path_loss_db,
    route,
    uniform_router_spec,
)

SPEC = default_fourport_network()
ASSIGNMENT = build_assignment(4)
A = KeyBlock([0, 1, 1, 0, 1, 0, 0, 1], np.arange(8))
B = A.with_bits([0, 1, 0, 0, 1, 0, 0, 1])
SWEEP_CFG = SessionConfig(server=0, clients=(1, 2, 3), n_frames=2000, seed=3)


def clicked_frames(**probabilities):
    args = {"p_sig": 0.3, "p_dark": 0.01, "e_opt": 0.01, **probabilities}
    record = sample_clicks(50, **args, rng=np.random.default_rng(1))
    return tuple(record.frames.tolist())


# site -> (the name its message gives, a valid value, a value outside the
# site's interval, value -> what the site keeps or returns)
SITES = {
    "SourceModel.mean_photon_number": (
        "mean_photon_number", 1.0, 0.0,
        lambda v: SourceModel(mean_photon_number=v).mean_photon_number),
    "SourceModel.rep_rate_hz": (
        "rep_rate_hz", 1e6, math.inf, lambda v: SourceModel(rep_rate_hz=v).rep_rate_hz),
    "SourceModel.e_opt": ("e_opt", 0.0, 0.5, lambda v: SourceModel(e_opt=v).e_opt),
    "DetectorModel.efficiency": (
        "efficiency", 1.0, 1.5, lambda v: DetectorModel(efficiency=v).efficiency),
    "DetectorModel.dark_rate_hz": (
        "dark_rate_hz", 40.0, -1.0, lambda v: DetectorModel(dark_rate_hz=v).dark_rate_hz),
    "DetectorModel.gate_width_ns": (
        "gate_width_ns", 2.0, 0.0, lambda v: DetectorModel(gate_width_ns=v).gate_width_ns),
    "LinkBudget": (
        "loss component 'eATT'", 3.0, -1.0, lambda v: LinkBudget.of(("eATT", v)).components[0][1]),
    "transmittance": ("loss_db", 10.0, -1.0, transmittance),
    "expected_qber.p_sig": ("p_sig", 1.0, 1.5, lambda v: expected_qber(v, 0.01, 0.01)),
    "expected_qber.p_dark": ("p_dark", 1.0, -0.5, lambda v: expected_qber(0.1, v, 0.01)),
    "expected_qber.e_opt": ("e_opt", 0.0, 0.5, lambda v: expected_qber(0.1, 0.01, v)),
    "sample_clicks.p_sig": ("p_sig", 1.0, 1.5, lambda v: clicked_frames(p_sig=v)),
    "sample_clicks.p_dark": ("p_dark", 0.0, -0.5, lambda v: clicked_frames(p_dark=v)),
    "sample_clicks.e_opt": ("e_opt", 0.0, 0.5, lambda v: clicked_frames(e_opt=v)),
    "attenuation_to_length": ("extra_db", 5.0, -1.0, attenuation_to_length),
    "ChannelId.nm": ("nm", 1550.0, math.inf, lambda v: ChannelId(0, nm=v).nm),
    "RouterSpec.insertion_loss_db": (
        "insertion loss at (0, 1)", 2.0, -1.0,
        lambda v: uniform_router_spec(ASSIGNMENT, v).insertion_loss_db[(0, 1)]),
    "estimate_qber.sample_fraction": (
        "sample_fraction", 1.0, 0.0,
        lambda v: estimate_qber(A, B, v, np.random.default_rng(0)).estimate),
    "reconcile.qber_estimate": (
        "qber_estimate", 0.0, 2.0,
        lambda v: tuple(reconcile(A, B, v, Transcript(), np.random.default_rng(0)).bits)),
    "SessionConfig.sample_fraction": (
        "sample_fraction", 0.5, 1.0,
        lambda v: replace(SWEEP_CFG, sample_fraction=v).sample_fraction),
    "SessionConfig.qber_abort_threshold": (
        "qber_abort_threshold", 0.0, 0.6,
        lambda v: replace(SWEEP_CFG, qber_abort_threshold=v).qber_abort_threshold),
    "NetworkSpec.eatt_db": (
        "eatt_db at port 1", 3.0, -1.0,
        lambda v: replace(SPEC, eatt_db={1: v, 2: 0.0, 3: 0.0}).eatt_db[1]),
    "sweep_attenuation": (
        "attenuation", 5.0, -1.0, lambda v: sweep_attenuation(SPEC, SWEEP_CFG, [v])[0].atten_db),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site in SITES for value in (True, "x", None, math.nan)
    if (site, value) != ("ChannelId.nm", None)  # None tags no wavelength
] + [pytest.param(site, 10**400, id=f"{site}-10**400") for site in SITES])  # past float range
def test_non_real_refused(site, value):
    name, _, _, keep = SITES[site]
    message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        keep(value)


@pytest.mark.parametrize("site", SITES)
def test_value_outside_interval_refused(site):
    name, _, outside, keep = SITES[site]
    bound = r"(in [\[(]\S+, \S+[\])]|>= \S+)( dB)?"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be {bound}, "
                                         rf"got {re.escape(repr(outside))}$"):
        keep(outside)


@pytest.mark.parametrize("site", SITES)
def test_int_and_numpy_float_kept_as_plain_float(site):
    _, valid, _, keep = SITES[site]
    kept = keep(valid)
    inputs = [np.float64(valid)] + ([int(valid)] if valid.is_integer() else [])
    for value in inputs:
        assert keep(value) == kept
        assert type(keep(value)) is type(kept)
    if isinstance(kept, float):
        assert type(kept) is float


def test_interval_is_named():
    with pytest.raises(ValueError, match=re.escape("e_opt must be in [0, 0.5), got 0.5")):
        SourceModel(e_opt=0.5)
    with pytest.raises(ValueError, match=re.escape("efficiency must be in (0, 1], got 0.0")):
        DetectorModel(efficiency=0)
    with pytest.raises(ValueError, match=re.escape("nm must be in (0, inf), got inf")):
        ChannelId(0, nm=math.inf)


def test_infinite_loss_cuts_the_link():
    assert transmittance(math.inf) == 0.0
    assert replace(SPEC, eatt_db={1: math.inf, 2: 0.0, 3: 0.0}).eatt_db[1] == math.inf


@pytest.mark.parametrize("row, reason", [
    ("A B nan", "loss must be a real number, got nan"),
    ("A B -1", "loss must be >= 0 dB, got -1.0"),
])
def test_loss_file_value_refused_on_its_line(row, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(f'loss matrix line 2: {reason}')}$"):
        import_loss_matrix(f"# in out dB\n{row}\n", ASSIGNMENT)


@pytest.mark.parametrize("make, message", [
    (lambda: PortId(-1), "port index must be >= 0, got -1"),
    (lambda: ChannelId(-1), "channel index must be >= 0, got -1"),
    (lambda: build_assignment(1), "n_ports must be >= 2, got 1"),
    (lambda: replace(SPEC, server=4), "server must be in [0, 3], got 4"),
    (lambda: replace(SPEC, guard_ns=0), "guard_ns must be >= 1, got 0"),
    (lambda: replace(SWEEP_CFG, n_frames=0), "n_frames must be >= 1, got 0"),
    (lambda: sample_clicks(0, 0.1, 0.0, 0.0, np.random.default_rng(0)),
     "n_frames must be >= 1, got 0"),
    (lambda: FlipMask(-1, []), "length must be >= 0, got -1"),
    (lambda: A.truncate(9), "length must be in [0, 8], got 9"),
])
def test_integer_outside_range_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: replace(SWEEP_CFG, n_frames=-(10**5000 - 1) // 9),
     "n_frames must be >= 1, got -111…1 (5000 digits)"),
    (lambda: SourceModel(mean_photon_number=10**5000),
     "mean_photon_number must be a real number, got 100…0 (5001 digits)"),
], ids=["integer", "real"])
def test_integer_past_the_digit_limit_shown_abbreviated(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: SourceModel(mean_photon_number=Fraction(10**5000, 3)), ValueError,
     "mean_photon_number must be a real number, got Fraction(100…0 (5001 digits), 3)"),
    (lambda: path_loss_db(SPEC.router, 10**5000, 1), ValueError,
     "port index 100…0 (5001 digits) out of range [0, 4)"),
    (lambda: route(SPEC.router, 0, 10**5000), UnroutableWavelengthError,
     "channel 100…0 (5001 digits) is not connected at port A"),
    (lambda: Network(SPEC).link_parameters(0, 10**5000), ValueError,
     "port index 100…0 (5001 digits) out of range [0, 4)"),
], ids=["fraction", "path_loss_db", "route", "link_parameters"])
def test_long_integer_in_a_refusal_names_its_field(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_clients_not_a_sequence_refused():
    with pytest.raises(ValueError, match="^clients must be a sequence of ports, got 5$"):
        SessionConfig(server=0, clients=5)


@pytest.mark.parametrize("db_list", [
    (d for d in [0.0, 5.0]),
    np.array([0.0, 5.0]),
], ids=["generator", "numpy"])
def test_sweep_reads_any_sequence_of_attenuations(db_list):
    rows = sweep_attenuation(SPEC, SWEEP_CFG, db_list)
    want = [(db, c) for db in (0.0, 5.0) for c in (1, 2, 3)]
    assert [(r.atten_db, r.client) for r in rows] == want
    assert all(type(r.atten_db) is float for r in rows)


def test_empty_sweep_refused():
    with pytest.raises(ValueError, match="^db_list must be nonempty$"):
        sweep_attenuation(SPEC, SWEEP_CFG, iter([]))


@pytest.mark.parametrize("threshold", [0, 0.0, np.float64(0.0)], ids=["int", "float", "numpy"])
def test_zero_threshold_gives_one_abort_log(threshold):
    """The Abort payload prints the threshold, so each spelling of zero must print as 0.0."""
    net = Network(SPEC, seed=3)
    cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=3,
                        qber_abort_threshold=threshold)
    with pytest.raises(SessionAbortError):
        run_session(cfg, net)
    assert net.events.digest() == "6883383bb4584ae7a05137e5a44f1af5ad9c3e56b73be21e1e31c04bbaffa37d"


@pytest.mark.parametrize("width", [2, 2.0])
def test_gate_width_gives_one_log(width):
    """The gate lines print the width, so 2 and 2.0 must print alike."""
    detectors = {c: replace(d, gate_width_ns=width) for c, d in SPEC.detectors.items()}
    cfg = SessionConfig(server=0, clients=(1, 2, 3), n_frames=20_000, seed=3)
    run = run_network(replace(SPEC, detectors=detectors), cfg)
    assert run.events.digest() == "d2f8525336fa90451e06e6013b24134f0923b4515405cc407aded59766576a4b"
