"""The order-unit radius cap and the one threshold bisection left.

``_RADIUS_MAX`` is the one cap of the primal and dual order-unit radii.
The bisection serves only the primal radius of a singular unit
(``systems._domination_radii``): it starts at r = 1 and stops at the cap.
"""

from __future__ import annotations

from typing import Callable

#: Largest order-unit radius searched for, primal and dual; above it nothing
#: is dominated.  Far below 2^52 times either radius precision, so the
#: bisection's bracket can always close to its precision.
_RADIUS_MAX = 1e6


def smallest_passing(predicate: Callable[[float], bool], precision: float) -> float | None:
    """Smallest ``r >= 0`` with ``predicate(r)`` true, assuming monotonicity.

    Exponential search for an upper bracket from r = 1, its last probe
    clamped to ``_RADIUS_MAX``, then bisection down to ``precision``.
    Returns ``None`` when no ``r <= _RADIUS_MAX`` passes.
    """
    if predicate(0.0):
        return 0.0
    lo, hi = 0.0, min(1.0, _RADIUS_MAX)
    while not predicate(hi):
        if hi >= _RADIUS_MAX:
            return None
        lo, hi = hi, min(2.0 * hi, _RADIUS_MAX)
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi
