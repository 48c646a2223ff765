"""Small shared helpers: exact rational coercion/formatting, seed derivation
and the bounded memo of decided small sets."""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
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


# The memo's budget: the bytes its entries are charged, and what tracemalloc
# sees it retain, stay below this.
MEMO_BYTES = 1 << 20
# the charge of an entry besides what its caller states: its slot in the
# ordered dict and that dict's list node, and the (value, charge) pair
_ENTRY_BYTES = 320
MISSING = object()


class LRUMemo:
    """A least-recently-used memo within a byte budget.

    ``put`` charges an entry the bytes its caller states for the key and
    the value plus ``_ENTRY_BYTES``, and drops the least recently used
    entries while the charges pass the budget; an entry charged more than
    the whole budget is not kept.  Values are returned as they were put, so
    they must not be mutated.  A lock keeps the order and the charges
    consistent across threads.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.charged = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value kept for ``key``, now the most recently used, or
        ``MISSING``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISSING
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        """Keep ``value`` for ``key``; ``nbytes`` bounds the memory the key
        and the value hold that no other entry shares."""
        charge = nbytes + _ENTRY_BYTES
        if charge > self.budget:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.charged -= old[1]
            self._entries[key] = (value, charge)
            self.charged += charge
            while self.charged > self.budget:
                self.charged -= self._entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.charged = 0


# the one memo of the package: convexity verdicts and generated sets
MEMO = LRUMemo(MEMO_BYTES)
