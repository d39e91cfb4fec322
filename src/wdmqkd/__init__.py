"""Wavelength-addressed QKD network toolkit.

A passive WDM star network routes photons by wavelength: each unordered
pair of ports owns a dedicated channel, so a sender picks the destination
simply by choosing the laser wavelength.  This package constructs and
verifies such wavelength-assignment designs, models the photonic channel
at click-statistics level, and runs the server-client BB84 + key-reverse
protocol for unicast, multicast, and broadcast key agreement on top of a
deterministic event-log harness.
"""

from .router import (
    ChannelId,
    PortId,
    RouterSpec,
    WavelengthAssignment,
    build_assignment,
    fourport_router_spec,
    path_loss_db,
    route,
    verify_assignment,
    wavelength_for,
    wdm_requirements,
)
from .photonics import (
    ClickRecord,
    DetectorModel,
    LinkBudget,
    SourceModel,
    attenuation_to_length,
    expected_qber,
    p_dark_per_gate,
    p_signal_click,
    sample_clicks,
    transmittance,
)
from .protocol import (
    FlipMask,
    KeyBlock,
    SessionAbortError,
    SessionConfig,
    SessionResult,
    Transcript,
    apply_flip_mask,
    compute_flip_mask,
    estimate_qber,
    reconcile,
    run_session,
    sift,
)
from .netsim import (
    Network,
    NetworkRun,
    NetworkSpec,
    assign_time_offsets,
    default_fourport_network,
    run_network,
    sweep_attenuation,
    sweep_rows_to_csv,
)

__version__ = "0.1.0"
