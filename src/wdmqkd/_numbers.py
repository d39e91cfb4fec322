"""The argument rules of the library: ``_integer`` for every port, count and seed,
``_real`` for every physical figure, ``_instance`` for every record field, ``_keyed``
for every port-keyed mapping.  Each returns the plain Python value, so a numpy number
prints and digests as its plain twin, and shows a refused value through ``_shown``."""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping

__all__: list[str] = []

# 640 digits is the lowest limit Python lets a program set on int-to-text conversion
_LONG = 10**640


def _shown(value) -> str:
    """``repr(value)``, but an int of more than 640 digits as its first three and last
    digits and its length, ``-111…1 (5000 digits)``, a fraction with such a numerator
    or denominator as ``Fraction(100…0 (5001 digits), 3)`` and a tuple element by
    element, so no refusal converts a long integer to text."""
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
    if isinstance(value, numbers.Rational) and not isinstance(value, numbers.Integral):
        n, d = value.numerator, value.denominator
        if -_LONG < n < _LONG and d < _LONG:
            return repr(value)
        return f"{type(value).__name__}({_shown(n)}, {_shown(d)})"
    if not isinstance(value, int) or -_LONG < value < _LONG:
        return repr(value)
    n = abs(value)
    digits = int(math.log10(n)) + 1  # the float logarithm may miss by one at a power of ten
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    sign = "-" if value < 0 else ""
    return f"{sign}{n // 10 ** (digits - 3)}…{n % 10} ({digits} digits)"


def _integer(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as a plain int in [low, high]; a bool or a non-integral number is refused."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
    if low <= value <= high:
        return value
    if high == math.inf:
        raise ValueError(f"{name} must be >= {low}, got {_shown(value)}")
    raise ValueError(f"{name} must be in [{low}, {high}], got {_shown(value)}")


def _real(
    value, name: str, low: float, high: float = math.inf, bounds: str = "[]", unit: str = ""
) -> float:
    """``value`` as a plain float between ``low`` and ``high``, each end
    closed or open as ``bounds`` writes it ("[]", "[)", "(]" or "()").  A
    bool, a non-number, NaN and an int past the float range are refused;
    ``unit`` follows the bound in the refusal of a value outside the interval."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            raise ValueError(f"{name} must be a real number, got {_shown(value)}") from None
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


def _instance(value, name: str, cls: type):
    """``value``, which must be an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {_shown(value)}")
    return value


def _at(key) -> str:
    return f"port {key}" if isinstance(key, int) else str(key)


def _keyed(given, name: str, key, value, want=None) -> dict:
    """The mapping ``given`` as a dict of ``key(k)``, a port (or port pair) rule with the
    router's range, to ``value(v, key(k))`` or, if ``value`` is a class, to ``v``, an
    instance of it.  Two keys read as one, or keys other than ``want``, are refused."""
    if not isinstance(given, Mapping):
        raise ValueError(f"{name} must be a mapping, got {type(given).__name__}")
    keys: dict = {}  # each key as read -> the key given
    for k in given:
        read = key(k)
        if read in keys:
            raise ValueError(f"{name} names {_at(read)} twice, "
                             f"as {_shown(keys[read])} and {_shown(k)}")
        keys[read] = k
    if want is not None and keys.keys() != set(want):
        odd = min(keys.keys() ^ set(want))
        raise ValueError(f"{name} {'has' if odd in want else 'takes'} no entry at {_at(odd)}")
    if isinstance(value, type):
        cls, value = value, lambda v, k: _instance(v, f"{name} at {_at(k)}", cls)
    return {read: value(given[k], read) for read, k in keys.items()}
