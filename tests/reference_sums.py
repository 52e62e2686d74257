"""The defining sums of the MDS formulas, evaluated term by term.

The library builds its coefficient rows with running recurrences; these
are the sums those recurrences replace, written as the literature states
them, so the tests can compare every row entry with them.  Plain
`math.comb`, no caching, no recurrence.
"""

import math


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def mds_weight_distribution_sum(n, d, q):
    """A_0..A_n of an [n, n-d+1, d]_q MDS code (MacWilliams and Sloane,
    ch. 11): A_w = C(n,w) sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1)."""
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        acc = sum((-1) ** j * _binom(w, j) * (q ** (w - d + 1 - j) - 1)
                  for j in range(w - d + 1))
        counts[w] = _binom(n, w) * acc
    return tuple(counts)


def bw_known_part(n, d, q, w):
    """Prefix-free part of the double-sum form of B_w:
    C(n,w) sum_{j=0}^{w-d+1} (-1)^j C(w,j) q^(w-d+1-j)."""
    acc = sum((-1) ** j * _binom(w, j) * q ** (w - d + 1 - j)
              for j in range(w - d + 2))
    return _binom(n, w) * acc
