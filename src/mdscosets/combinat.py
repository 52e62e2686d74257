"""Exact big-integer combinatorics shared by every formula in the library.

Everything returns Python ints; there is no floating point anywhere in
the numeric core.
"""

import math
from functools import lru_cache


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with the zero convention.

    Returns 0 whenever k < 0 or k > n.  The alternating sums in the
    coset-distribution formulas rely on that convention, so out-of-range
    k is not an error.  n must be non-negative.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# The single-sum rows, omega's one reader, ask only for the w = d-1 seed
# of each column, once per row build, so nothing is asked for again while
# its row is cached; the one-entry cache is kept for its hit and miss
# counters.
OMEGA_CACHE_SIZE = 1


@lru_cache(maxsize=OMEGA_CACHE_SIZE)
def omega(n: int, d: int, w: int, v: int) -> int:
    """Signed coefficient of a known low-weight count B_v in the tail formula.

    For a length-n MDS code of distance d,

        omega(n, d, w, v) = (-1)^(w-d) * C(n-v, w-v) * C(w-1-v, d-2-v)

    and the coefficient vanishes for every w <= d-2.  Requires
    0 <= w <= n and 0 <= v <= d-2.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight index w={w} outside [0, {n}]")
    if not 0 <= v <= d - 2:
        raise ValueError(f"low-weight index v={v} outside [0, {d - 2}]")
    if w <= d - 2:
        return 0
    sign = -1 if (w - d) % 2 else 1
    return sign * binom(n - v, w - v) * binom(w - 1 - v, d - 2 - v)
