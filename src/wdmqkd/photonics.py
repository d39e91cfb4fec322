"""Click-statistics model of one weak-pulse link through the router.

The chain is source, attenuation, gated detector.  A weak coherent pulse
with mean photon number μ survives a lossy path with transmittance T and
fires a detector of efficiency η with probability 1 - exp(-μηT); dark
counts add a basis-independent click floor.  The analytic error rate and
a Monte-Carlo sampler of the same model both live here so they can be
checked against each other.  The sampler draws the clicks first and
returns only them, one sparse :class:`ClickRecord` per link, since only
clicked frames ever reach the protocol.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numbers import _integer, _real

__all__ = [
    "DetectorModel",
    "LinkBudget",
    "ClickRecord",
    "SourceModel",
    "attenuation_to_length",
    "expected_qber",
    "p_dark_per_gate",
    "p_signal_click",
    "sample_clicks",
    "transmittance",
]


# Shipped-system defaults.  Dark rates are per client in port order; the
# efficiency figure is the 1550 nm calibration applied to all channels.
DEFAULT_MU = 0.1
DEFAULT_E_OPT = 0.01
DEFAULT_REP_RATE_HZ = 1.0e6
DEFAULT_EFFICIENCY = 0.10
DEFAULT_GATE_WIDTH_NS = 2.5
DEFAULT_CLIENT_DARK_RATES_HZ = (41.7, 18.00, 15.40)


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
        for name, high, bounds in (("mean_photon_number", math.inf, "()"),
                                   ("rep_rate_hz", math.inf, "()"), ("e_opt", 0.5, "[)")):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, high, bounds))
        if self.mean_photon_number > 1:
            warnings.warn(
                f"mean photon number {self.mean_photon_number} > 1 is far from the "
                "pseudo-single-photon regime this model assumes",
                stacklevel=2,
            )


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector, gated once per frame of the source."""

    efficiency: float = DEFAULT_EFFICIENCY
    dark_rate_hz: float = 0.0
    gate_width_ns: float = DEFAULT_GATE_WIDTH_NS

    def __post_init__(self) -> None:
        for name, high, bounds in (("efficiency", 1, "(]"), ("dark_rate_hz", math.inf, "[]"),
                                   ("gate_width_ns", math.inf, "()")):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, high, bounds))


@dataclass(frozen=True)
class LinkBudget:
    """Ordered loss ledger for one path: ((label, dB), ...)."""

    components: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        norm = tuple((str(lbl), _real(db, f"loss component {lbl!r}", 0, unit="dB"))
                     for lbl, db in self.components)
        object.__setattr__(self, "components", norm)

    @classmethod
    def of(cls, *components: tuple[str, float]) -> "LinkBudget":
        return cls(tuple(components))

    @cached_property
    def total_db(self) -> float:
        return float(sum(db for _, db in self.components))

    @property
    def transmittance(self) -> float:
        return transmittance(self.total_db)


def transmittance(loss_db: float) -> float:
    """Power transmittance of a ``loss_db`` attenuation: 10^(-dB/10)."""
    return 10.0 ** (-_real(loss_db, "loss_db", 0, unit="dB") / 10.0)


def p_signal_click(src: SourceModel, budget: LinkBudget, det: DetectorModel) -> float:
    """Per-gate probability that the attenuated pulse fires the detector.

    Poissonian photon statistics give 1 - exp(-μ η T) for total path
    transmittance T.
    """
    rate = src.mean_photon_number * det.efficiency * budget.transmittance
    return float(-np.expm1(-rate))


def p_dark_per_gate(src: SourceModel, det: DetectorModel) -> float:
    """Dark-count probability per gate: dark rate over the source's rate,
    at which the detector gates."""
    return det.dark_rate_hz / src.rep_rate_hz


def _probabilities(p_sig, p_dark, e_opt) -> tuple[float, float, float]:
    """Two click probabilities, each in [0, 1], and ``e_opt``, in [0, 0.5), as plain floats."""
    return (_real(p_sig, "p_sig", 0, 1), _real(p_dark, "p_dark", 0, 1),
            _real(e_opt, "e_opt", 0, 0.5, "[)"))


def expected_qber(p_sig: float, p_dark: float, e_opt: float) -> float:
    """Analytic error fraction of sifted bits.

    Signal-origin clicks err with probability e_opt; dark-origin clicks
    carry a random bit, wrong half the time:

        (e_opt p_sig + p_dark/2) / (p_sig + p_dark)
    """
    p_sig, p_dark, e_opt = _probabilities(p_sig, p_dark, e_opt)
    if p_sig + p_dark == 0:
        raise ValueError("no clicks at all: error fraction undefined")
    return (e_opt * p_sig + 0.5 * p_dark) / (p_sig + p_dark)


@dataclass(frozen=True, eq=False)
class ClickRecord:
    """The clicked frames of one link out of ``n_frames`` sent.

    Element ``i`` of every array describes frame ``frames[i]``: the bases
    and bit the server sent, and the basis and bit the client measured.
    Frames that did not click are not stored.
    """

    n_frames: int
    frames: np.ndarray
    tx_bases: np.ndarray
    tx_bits: np.ndarray
    rx_bases: np.ndarray
    rx_bits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_frames", _integer(self.n_frames, "n_frames", 1))
        frames = np.array(self.frames, dtype=np.int64)
        if frames.ndim != 1 or (
            frames.size
            and (frames[0] < 0 or frames[-1] >= self.n_frames or np.any(np.diff(frames) <= 0))
        ):
            raise ValueError(f"frames must be distinct, sorted and in [0, {self.n_frames})")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        for name in ("tx_bases", "tx_bits", "rx_bases", "rx_bits"):
            arr = np.array(getattr(self, name), dtype=np.uint8)
            if arr.shape != frames.shape or (arr.size and arr.max() > 1):
                raise ValueError(f"{name} must hold one bit per clicked frame")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.frames.size


def _trusted(cls, *values):
    """``cls(*values)`` for values known to be valid: unchecked, uncopied, arrays frozen."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _random_bytes(rng: np.random.Generator, size: int) -> np.ndarray:
    """The bytes of ``rng.bytes(size)`` as a uint8 array, without its two
    copies: little-endian uint32 words, drawn as ``Generator.bytes`` draws
    them (which draws a word even for size 0; this draws none)."""
    words = rng.integers(0, 2**32, size=-(-size // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:size]


def _distinct_sorted(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` distinct integers drawn uniformly from [0, n), sorted.

    Draws with replacement and tops up until ``k`` are distinct; past
    n/2 it draws the ``n - k`` integers left out instead, so time and
    memory grow with ``k``, not ``n``.
    """
    if 2 * k > n:
        out = _distinct_sorted(n, n - k, rng)
        j = np.arange(k, dtype=np.int64)
        # the j-th kept integer lies above every left-out one with at most j kept below it
        return j + np.searchsorted(out - np.arange(out.size), j, side="right")
    # below 2**32 an int64 draw is a uint32 draw, which sorts twice as fast
    dtype = np.uint32 if n <= 2**32 else np.int64
    picked = np.empty(0, dtype=dtype)
    while picked.size < k:
        # sort and drop repeats by hand: np.unique hashes first and took ~20x longer
        new = np.sort(rng.integers(0, n, size=k - picked.size, dtype=dtype))
        new = new[np.concatenate(([True], new[1:] != new[:-1]))]
        if picked.size:  # merge the top-up's integers not yet picked
            at = np.searchsorted(picked, new)
            fresh = picked[np.minimum(at, picked.size - 1)] != new
            new = np.insert(picked, at[fresh], new[fresh])
        picked = new
    return picked.astype(np.int64, copy=False)


def sample_clicks(
    n_frames: int,
    p_sig: float,
    p_dark: float,
    e_opt: float,
    rng: np.random.Generator,
) -> ClickRecord:
    """Monte-Carlo realization of ``n_frames`` gates, drawn clicks first.

    Each gate clicks on a signal photon with probability ``p_sig`` or a
    dark count with probability ``p_dark``.  Signal-origin clicks with
    matching bases reproduce the sent bit, flipped with probability
    ``e_opt``; dark-origin clicks and basis mismatches yield a uniform
    bit.  A gate where both fire counts as signal.

    Only clicks are drawn, in this order: the click count k from a
    binomial with p_click = 1 - (1 - p_sig)(1 - p_dark); k distinct
    frames, uniform; then per click the origin (signal with probability
    p_sig / p_click), both bases, the sent bit, the flip and the noise
    bit, each bit the top bit of a random byte, as ``integers(0, 2,
    dtype=np.uint8)`` draws it.  This is the per-gate model's
    distribution.  How far ``rng`` advances depends on the clicks drawn,
    not on ``n_frames`` alone, and time and memory are O(clicks).
    """
    n_frames = _integer(n_frames, "n_frames", 1)
    p_sig, p_dark, e_opt = _probabilities(p_sig, p_dark, e_opt)
    p_click = min(1.0, p_sig + p_dark * (1 - p_sig))
    k = int(rng.binomial(n_frames, p_click))
    frames = _distinct_sorted(n_frames, k, rng)
    signal = rng.random(k) * p_click < p_sig
    # integers(0, 2, dtype=np.uint8) without its per-byte bounded draw
    tx_bases, rx_bases = (_random_bytes(rng, 2 * k) >> 7).reshape(2, k)
    tx_bits = _random_bytes(rng, k) >> 7
    flip = (rng.random(k) < e_opt).view(np.uint8)
    noise = _random_bytes(rng, k) >> 7
    # np.where(signal & matching bases, tx_bits ^ flip, noise), branch-free: np.where is slow here
    keep = (signal & (tx_bases == rx_bases)).view(np.uint8)
    rx_bits = noise ^ (keep & (noise ^ tx_bits ^ flip))
    # frames are distinct, sorted and in range, every other array holds bits
    return _trusted(ClickRecord, n_frames, frames, tx_bases, tx_bits, rx_bases, rx_bits)


def attenuation_to_length(extra_db: float) -> float:
    """Length of standard fiber, at 0.2 dB/km, whose attenuation equals ``extra_db``."""
    return _real(extra_db, "extra_db", 0, unit="dB") / 0.2
