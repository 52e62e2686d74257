"""The defining sums of the MDS formulas, evaluated term by term.

The library builds its coefficient rows and closed-form terms with
running ratio recurrences; these are the sums and products those
recurrences replace, written as the literature states them, so the
tests can compare every entry with them.  Plain `math.comb`, no
caching, no recurrence.
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


def omega_coeff(n, d, w, v):
    """Coefficient of B_v in the single-sum form of B_w, w >= d-1:
    (-1)^(w-d) C(n-v, w-v) C(w-1-v, d-2-v)."""
    return (-1) ** ((w - d) % 2) * _binom(n - v, w - v) * _binom(w - 1 - v, d - 2 - v)


def bw_prefix_coeff(n, d, w, v):
    """Coefficient of B_v in the double-sum form of B_w, w >= d-1:
    sum_{j=w-d+2}^{w-v} (-1)^j C(j+n-w, j) C(n-v, w-j-v)."""
    return sum((-1) ** j * _binom(j + n - w, j) * _binom(n - v, w - j - v)
               for j in range(w - d + 2, w - v + 1))


def b_low_term(n, d, w):
    """Coefficient of B_{d-2} in B_w of the weight-2 and weight-(d-2)
    closed forms: (-1)^(w-d) C(n-d+2, n-w)."""
    return (-1) ** ((w - d) % 2) * _binom(n - d + 2, n - w)


def farthest_off_term(n, d, w):
    """What a farthest-off coset lacks of A_w at w >= d:
    (-1)^(w-d) C(n,w) C(w-1,d-2)."""
    return (-1) ** ((w - d) % 2) * _binom(n, w) * _binom(w - 1, d - 2)
