"""The two array rules: every bit array and index set a public record keeps
refuses a float, a non-array, a 2-D array, an object array and a value out
of range with one message naming its field, and keeps an integer (or, for
bits, bool) array as a read-only copy of one dtype."""

import re

import numpy as np
import pytest

from wdmqkd.photonics import ClickRecord
from wdmqkd.protocol import FlipMask, KeyBlock, SessionConfig, SessionResult, Transcript

BLOCK = KeyBlock([0, 1, 1, 0], [2, 5, 7, 9])
CFG = SessionConfig(server=0, clients=(1,), mode="unicast")


def clicked(name, value):
    """A two-click record of four frames, ``value`` given as its array ``name``."""
    arrays = {"frames": [1, 3], "tx_bases": [0, 1], "tx_bits": [1, 0], "rx_bases": [0, 1],
              "rx_bits": [1, 1], name: value}
    return getattr(ClickRecord(4, **arrays), name)


# site -> (the name its message gives, a valid two-element value, the end of the index
# range or None for bits, value -> the array the site keeps)
SITES = {
    **{f"ClickRecord.{name}": (name, [0, 1], None, lambda v, name=name: clicked(name, v))
       for name in ("tx_bases", "tx_bits", "rx_bases", "rx_bits")},
    "ClickRecord.frames": ("frames", [1, 3], 4, lambda v: clicked("frames", v)),
    "KeyBlock.bits": ("bits", [0, 1], None, lambda v: KeyBlock(v, [1, 3]).bits),
    "KeyBlock.frames": ("frames", [1, 3], 2**63, lambda v: KeyBlock([0, 1], v).frames),
    "KeyBlock.take": ("indices", [1, 3], 4, lambda v: BLOCK.take(v).frames),
    "FlipMask.positions": ("positions", [1, 3], 4, lambda v: FlipMask(4, v).positions),
    "SessionResult.final_key": (
        "final_key", [0, 1], None,
        lambda v: SessionResult(CFG, v, 1, {}, (), Transcript()).final_key),
}

# bad input -> (valid value, end of the index range or None) -> the input
BAD = {
    "float": lambda v, high: np.asarray(v) + 0.5,
    "None": lambda v, high: None,
    "2-D": lambda v, high: [v],
    "object-2**70": lambda v, high: [v[0], 2**70],
    "negative": lambda v, high: [-1, v[1]],
    "out-of-range": lambda v, high: [v[0], 2 if high is None else high],
    # index sets only
    "unsorted": lambda v, high: v[::-1],
    "repeated": lambda v, high: [v[0], v[0]],
    "bool": lambda v, high: [False, True],
}
INDEX_ONLY = ("unsorted", "repeated", "bool")


def rule(site):
    """The start of the refusal ``site`` gives, up to what it got."""
    name, _, high, _ = SITES[site]
    if high is None:
        size = "" if site == "SessionResult.final_key" else " of length 2"
        return f"{name} must be an array of 0s and 1s{size}, got "
    shown = "inf" if site == "KeyBlock.frames" else high
    return f"{name} must be strictly increasing integers in [0, {shown}), got "


@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in SITES for bad in BAD
    if SITES[site][2] is not None or bad not in INDEX_ONLY  # bits repeat, in any order
])
def test_bad_array_refused(site, bad):
    _, valid, high, keep = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(rule(site))}") as err:
        keep(BAD[bad](valid, high))
    assert len(str(err.value)) < 120  # names the dtype and shape, never a value


@pytest.mark.parametrize("site, dtype", [
    (site, dtype) for site in SITES for dtype in (np.int32, np.uint8, bool)
    if SITES[site][2] is None or dtype is not bool
])
def test_integer_array_kept_as_read_only_copy(site, dtype):
    _, valid, high, keep = SITES[site]
    given = np.array(valid, dtype=dtype)
    kept = keep(given)
    assert kept.dtype == (np.uint8 if high is None else np.int64)
    assert not kept.flags.writeable
    assert kept.tolist() == keep(valid).tolist()
    given[0] = given[1]
    assert kept.tolist() == keep(valid).tolist()
