"""Exact base-m fixed-point codes for multisets: the test-only reference
that the digit oracle's row keys are checked against.

A multiset over positions {1, 2, ...} of order at most m-1 is encoded as the
digits of a base-m fraction: position i contributes one count to the digit at
depth i. Addition of codes counts, shifting multiplies by m^-offset, and the
code is unique per multiset as long as no digit ever reaches m. Reaching m
is reported as an error rather than carried, because a carry would merge
distinct multisets.

A code keeps only its nonzero digits, as sorted ``(depth, count)`` pairs, so
counting one element is one dict update at any depth. Everything here is
integer arithmetic; no floating point.

The package's oracle (``wlsim.simulate.gnn_reference_step``) keys its rows
without these codes, so they live beside the tests. The module name is one
that no ``perfbench/`` module uses, because both directories are test paths
and their modules are imported by bare name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from wlsim.errors import INVALID_SCHEMA, ValidationError

#: Code of the ``ValidationError`` raised when a digit would reach the base.
DIGIT_OVERFLOW = "DIGIT_OVERFLOW"


def _check_base(base: int) -> None:
    if base < 2:
        raise ValidationError(INVALID_SCHEMA, f"base must be >= 2, got {base}")


def _count(counts: dict[int, int], depth: int, count: int, base: int) -> None:
    """Add ``count`` to the digit at ``depth``, refusing to reach the base."""
    s = counts.get(depth, 0) + count
    if s >= base:
        raise ValidationError(
            DIGIT_OVERFLOW,
            f"digit {s} at position {depth} reached base {base}; multiset order exceeded",
        )
    counts[depth] = s


@dataclass(frozen=True, init=False)
class DigitVector:
    """A base-``base`` fraction kept as its nonzero ``(depth, count)`` pairs."""

    base: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, base: int, digits: Iterable[int] = ()):
        _check_base(base)
        counts: dict[int, int] = {}
        for depth, d in enumerate(digits, start=1):
            if d < 0:
                raise ValidationError(INVALID_SCHEMA, f"negative digit at position {depth}")
            if d:
                _count(counts, depth, d, base)
        self._set(base, counts)

    def _set(self, base: int, counts: dict[int, int]) -> "DigitVector":
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairs", tuple(sorted(counts.items())))
        return self

    @property
    def digits(self) -> tuple[int, ...]:
        """The dense digits, index i holding depth i+1, trailing zeros stripped."""
        counts = dict(self.pairs)
        return tuple(counts.get(d, 0) for d in range(1, max(counts, default=0) + 1))


def _vector(base: int, counts: dict[int, int]) -> DigitVector:
    """Wrap counts that were checked as they were made."""
    return object.__new__(DigitVector)._set(base, counts)


def encode_multiset(positions: Iterable[int], base: int) -> DigitVector:
    """Count each element at its depth, checking every count against the base."""
    _check_base(base)
    counts: dict[int, int] = {}
    for p in positions:
        if p < 1:
            raise ValidationError(INVALID_SCHEMA, f"position must be >= 1, got {p}")
        _count(counts, p, 1, base)
    return _vector(base, counts)
