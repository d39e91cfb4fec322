"""The two number rules of the library: ``_integer`` for every port, count
and seed, ``_real`` for every physical figure.  Each returns the plain
Python value, so a numpy number prints and digests as its plain twin."""

from __future__ import annotations

import math
import numbers

__all__: list[str] = []


def _integer(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as a plain int in [low, high]; a bool or a non-integral number is refused."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low <= value <= high:
        return value
    if high == math.inf:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    raise ValueError(f"{name} must be in [{low}, {high}], got {value}")


def _real(
    value, name: str, low: float, high: float = math.inf, bounds: str = "[]", unit: str = ""
) -> float:
    """``value`` as a plain float between ``low`` and ``high``, each end
    closed or open as ``bounds`` writes it ("[]", "[)", "(]" or "()").  A
    bool, a non-number, NaN and an int past the float range are refused;
    ``unit`` follows the bound in the refusal of a value outside the interval."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            raise ValueError(f"{name} must be a real number, got {value!r}") from None
    above_low = low < value if bounds[0] == "(" else low <= value
    if above_low and (value < high if bounds[1] == ")" else value <= high):
        return value
    if value != value:  # NaN, which no comparison admits
        raise ValueError(f"{name} must be a real number, got {value!r}")
    unit = f" {unit}" if unit else ""
    if high == math.inf and bounds == "[]":  # a half-line, written as _integer writes one
        raise ValueError(f"{name} must be >= {low:g}{unit}, got {value!r}")
    raise ValueError(
        f"{name} must be in {bounds[0]}{low:g}, {high:g}{bounds[1]}{unit}, got {value!r}"
    )
