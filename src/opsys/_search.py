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
    ``r_max``, when that is smaller), its last probe clamped to ``r_max``,
    then bisection down to ``precision``.  Returns ``None`` when no
    ``r <= r_max`` passes; see :func:`check_search_bounds`.
    """
    check_search_bounds(r_max, precision)
    if predicate(0.0):
        return 0.0
    lo, hi = 0.0, min(max(r_start, precision), r_max)
    while not predicate(hi):
        if hi >= r_max:
            return None
        lo, hi = hi, min(2.0 * hi, r_max)
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi
