"""Bit-set helpers.

Subsets of a fixed finite carrier {0..n-1} are stored as plain ints, one bit
per element.  Everything downstream (ideals, topologies, spectra) works on
these masks, which keeps the exhaustive verification suites cheap.  A
relation is a list of masks, one row per element; :func:`transpose` flips it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

BitMask = int


def full_mask(n: int) -> BitMask:
    return (1 << n) - 1


def bits(mask: BitMask) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> BitMask:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def image_mask(mapping, source_mask: BitMask) -> BitMask:
    """Image of ``source_mask`` under the index map ``mapping``."""
    return mask_of(mapping[i] for i in bits(source_mask))


def preimage_mask(mapping, target_mask: BitMask) -> BitMask:
    """Indices whose image under ``mapping`` lands in ``target_mask``."""
    return mask_of(i for i, v in enumerate(mapping) if target_mask >> v & 1)


def is_subset(a: BitMask, b: BitMask) -> bool:
    return a & ~b == 0


def transpose(rows, width: int) -> list[BitMask]:
    """Bit i of ``out[j]`` is bit j of ``rows[i]``, for each ``j < width``.

    Each row becomes the string of its low ``width`` bits, lowest first, and
    ``zip`` reads the columns off in C, the last row as the highest bit.
    """
    if not rows or not width:  # format(0, "00b") is "0", not ""
        return [0] * width
    strings = [format(r, f"0{width}b")[: -width - 1 : -1] for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*strings)]
