"""Shared one-dimensional search helpers (threshold bisection)."""

from __future__ import annotations

from typing import Callable

from .errors import ValidationError


def check_search_bounds(r_max: float, precision: float) -> None:
    """Reject an r_max or precision that is not positive and finite: a zero
    precision bisects forever, and NaN or infinity break the comparisons."""
    if not (0.0 < r_max < float("inf") and 0.0 < precision < float("inf")):
        raise ValidationError(
            f"r_max {r_max} and precision {precision} must be positive and finite"
        )


def smallest_passing(
    predicate: Callable[[float], bool],
    r_max: float,
    precision: float,
    r_start: float = 1.0,
) -> float | None:
    """Smallest ``r >= 0`` with ``predicate(r)`` true, assuming monotonicity.

    Exponential search for an upper bracket starting at ``r_start`` (or at
    ``r_max``, when that is smaller), then bisection down to ``precision``.
    Returns ``None`` when no ``r <= r_max`` passes; see
    :func:`check_search_bounds`.
    """
    check_search_bounds(r_max, precision)
    if predicate(0.0):
        return 0.0
    start = min(max(r_start, precision), r_max)
    hi = start
    while not predicate(hi):
        hi *= 2.0
        if hi > r_max:
            return None
    lo = 0.0 if hi == start else hi / 2.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi
