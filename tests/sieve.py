"""Prime powers for the tests, by a sieve that shares nothing with the
library's field-order check."""
import numpy as np


def orders(top):
    """(q, p, m) for every prime power q = p^m <= top, ascending in q."""
    prime = np.ones(top + 1, dtype=bool)
    prime[:2] = False
    for f in range(2, int(top ** 0.5) + 1):
        if prime[f]:
            prime[f * f::f] = False
    out = []
    for p in np.flatnonzero(prime).tolist():
        q, m = p, 1
        while q <= top:
            out.append((q, p, m))
            q, m = q * p, m + 1
    return sorted(out)


def prime_powers(top):
    """Every prime power q <= top, ascending."""
    return tuple(q for q, _, _ in orders(top))
