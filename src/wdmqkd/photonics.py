"""Click-statistics model of one weak-pulse link through the router.

The chain is source, attenuation, gated detector.  A weak coherent pulse
with mean photon number μ survives a lossy path with transmittance T and
fires a detector of efficiency η with probability 1 - exp(-μηT); dark
counts add a basis-independent click floor.  The analytic error rate and
a Monte-Carlo gate simulation of the same model both live here so they
can be checked against each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DetectorModel",
    "LinkBudget",
    "SourceModel",
    "UndefinedRateError",
    "attenuation_to_length",
    "expected_qber",
    "p_dark_per_gate",
    "p_signal_click",
    "simulate_gate_array",
    "transmittance",
]


class UndefinedRateError(ValueError):
    """An error fraction was requested for a link that never clicks."""


# Shipped-system defaults.  Dark rates are per client in port order; the
# efficiency figure is the 1550 nm calibration applied to all channels.
DEFAULT_MU = 0.1
DEFAULT_E_OPT = 0.01
DEFAULT_REP_RATE_HZ = 1.0e6
DEFAULT_EFFICIENCY = 0.10
DEFAULT_GATE_WIDTH_NS = 2.5
DEFAULT_CLIENT_DARK_RATES_HZ = (41.7, 18.00, 15.40)
DEFAULT_FIBER_ALPHA_DB_PER_KM = 0.2


@dataclass(frozen=True)
class SourceModel:
    """Pulsed weak-coherent source with intrinsic encoding error.

    ``e_opt`` is the fraction of signal-origin detections that land in the
    wrong bin even with matching bases (finite interferometer visibility).
    """

    mean_photon_number: float = DEFAULT_MU
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ
    e_opt: float = DEFAULT_E_OPT

    def __post_init__(self) -> None:
        if self.mean_photon_number <= 0:
            raise ValueError(f"mean photon number must be > 0, got {self.mean_photon_number}")
        if self.mean_photon_number > 1:
            warnings.warn(
                f"mean photon number {self.mean_photon_number} > 1 is far from the "
                "pseudo-single-photon regime this model assumes",
                stacklevel=2,
            )
        if self.rep_rate_hz <= 0:
            raise ValueError(f"repetition rate must be > 0, got {self.rep_rate_hz}")
        if not 0 <= self.e_opt < 0.5:
            raise ValueError(f"e_opt must be in [0, 0.5), got {self.e_opt}")


@dataclass(frozen=True)
class DetectorModel:
    """Gated single-photon detector."""

    efficiency: float = DEFAULT_EFFICIENCY
    dark_rate_hz: float = 0.0
    gate_width_ns: float = DEFAULT_GATE_WIDTH_NS
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ

    def __post_init__(self) -> None:
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_rate_hz < 0:
            raise ValueError(f"dark rate must be >= 0, got {self.dark_rate_hz}")
        if self.gate_width_ns <= 0:
            raise ValueError(f"gate width must be > 0, got {self.gate_width_ns}")
        if self.rep_rate_hz <= 0:
            raise ValueError(f"repetition rate must be > 0, got {self.rep_rate_hz}")
        if self.dark_rate_hz >= self.rep_rate_hz:
            raise ValueError(
                f"dark rate {self.dark_rate_hz} Hz must stay below the "
                f"{self.rep_rate_hz} Hz gating rate"
            )


@dataclass(frozen=True)
class LinkBudget:
    """Ordered loss ledger for one path: ((label, dB), ...)."""

    components: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        norm = tuple((str(lbl), float(db)) for lbl, db in self.components)
        object.__setattr__(self, "components", norm)
        for lbl, db in self.components:
            if db < 0:
                raise ValueError(f"loss component {lbl!r} is negative: {db} dB")

    @classmethod
    def of(cls, *components: tuple[str, float]) -> "LinkBudget":
        return cls(tuple(components))

    @cached_property
    def total_db(self) -> float:
        return float(sum(db for _, db in self.components))

    @property
    def transmittance(self) -> float:
        return transmittance(self.total_db)

    def plus(self, label: str, db: float) -> "LinkBudget":
        return LinkBudget(self.components + ((label, float(db)),))


def transmittance(loss_db: float) -> float:
    """Power transmittance of a ``loss_db`` attenuation: 10^(-dB/10)."""
    if loss_db < 0:
        raise ValueError(f"loss must be >= 0 dB, got {loss_db}")
    return float(10.0 ** (-loss_db / 10.0))


def p_signal_click(src: SourceModel, budget: LinkBudget, det: DetectorModel) -> float:
    """Per-gate probability that the attenuated pulse fires the detector.

    Poissonian photon statistics give 1 - exp(-μ η T) for total path
    transmittance T.
    """
    rate = src.mean_photon_number * det.efficiency * budget.transmittance
    return float(-np.expm1(-rate))


def p_dark_per_gate(det: DetectorModel) -> float:
    """Dark-count probability per gate: dark rate over gating rate."""
    return det.dark_rate_hz / det.rep_rate_hz


def expected_qber(p_sig: float, p_dark: float, e_opt: float) -> float:
    """Analytic error fraction of sifted bits.

    Signal-origin clicks err with probability e_opt; dark-origin clicks
    carry a random bit, wrong half the time:

        (e_opt p_sig + p_dark/2) / (p_sig + p_dark)
    """
    if not 0 <= p_sig <= 1:
        raise ValueError(f"p_sig must be a probability, got {p_sig}")
    if not 0 <= p_dark <= 1:
        raise ValueError(f"p_dark must be a probability, got {p_dark}")
    if not 0 <= e_opt < 0.5:
        raise ValueError(f"e_opt must be in [0, 0.5), got {e_opt}")
    if p_sig + p_dark == 0:
        raise UndefinedRateError("no clicks at all: error fraction undefined")
    return (e_opt * p_sig + 0.5 * p_dark) / (p_sig + p_dark)


def simulate_gate_array(
    bits_sent: np.ndarray,
    basis_match: np.ndarray,
    p_sig: float,
    p_dark: float,
    e_opt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo realization of ``n`` gates at once.

    Returns (clicked, bits) boolean/uint8 arrays; ``bits`` is meaningful
    only where ``clicked``.  Signal-origin clicks with matching basis
    reproduce the sent bit, flipped with probability e_opt; dark-origin
    clicks and basis mismatches yield a uniform bit.

    Exactly four random blocks are consumed (signal, dark, flip, noise)
    regardless of outcomes, so stream position depends only on ``n``.
    """
    if not 0 <= p_sig <= 1 or not 0 <= p_dark <= 1:
        raise ValueError("click probabilities must lie in [0, 1]")
    if not 0 <= e_opt < 0.5:
        raise ValueError(f"e_opt must be in [0, 0.5), got {e_opt}")
    bits_sent = np.asarray(bits_sent, dtype=np.uint8)
    basis_match = np.asarray(basis_match, dtype=bool)
    if bits_sent.shape != basis_match.shape:
        raise ValueError("bits_sent and basis_match must have the same shape")
    n = bits_sent.size

    signal = rng.random(n) < p_sig
    dark = rng.random(n) < p_dark
    flip = rng.random(n) < e_opt
    noise = rng.integers(0, 2, size=n, dtype=np.uint8)

    clicked = signal | dark
    faithful = signal & basis_match
    bits = np.where(faithful, bits_sent ^ flip.astype(np.uint8), noise)
    bits = np.where(clicked, bits, 0).astype(np.uint8)
    return clicked, bits


def attenuation_to_length(
    extra_db: float, fiber_alpha: float = DEFAULT_FIBER_ALPHA_DB_PER_KM
) -> float:
    """Fiber length whose attenuation equals ``extra_db`` at ``fiber_alpha`` dB/km."""
    if fiber_alpha <= 0:
        raise ValueError(f"fiber attenuation must be > 0 dB/km, got {fiber_alpha}")
    if extra_db < 0:
        raise ValueError(f"attenuation must be >= 0 dB, got {extra_db}")
    return extra_db / fiber_alpha
