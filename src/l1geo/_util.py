"""Small shared helpers: exact rational coercion/formatting and seed derivation."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import lcm

RationalLike = int | str | Fraction


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: every quantity in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid rational: {value!r} ({exc})") from None
    raise TypeError(f"expected int, str, or Fraction, got {type(value).__name__}")


def as_point(values, dimension: int) -> tuple[Fraction, ...]:
    """A point or offset of ``dimension`` exact coordinates (``as_fraction``
    each); a vector of another length raises ValueError."""
    point = tuple(as_fraction(v) for v in values)
    if len(point) != dimension:
        raise ValueError("dimension mismatch")
    return point


def frac_str(value: Fraction) -> str:
    """Canonical string for a rational: reduced "p/q", or plain "p" for integers."""
    return str(value)


def common_denominator(values) -> int:
    """lcm of the denominators of an iterable of Fractions (1 for empty input)."""
    d = 1
    for v in values:
        d = lcm(d, v.denominator)
    return d


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from heterogeneous parts (ints/strings).

    Used to give every suite instance its own reproducible RNG stream.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
