"""Two monomial automorphisms of the doubly-extended code, as maps of
syndromes, and the check that a census keeps every coset's class under
them.  It uses the construction's algebra only, no MDS theory.

The distance-d family matrix (mds._family_rows) has r = d-1 rows: a
column (1, a, ..., a^(r-1)) for each a != 0, then e_0 for a = 0 and
e_(r-1) for infinity; the triply-extended code (r = 3) adds the nucleus
(0, 1, 0).  Two maps send every column to a multiple of a column:

- a -> g*a is D = diag(1, g, ..., g^(r-1)), so syndrome digit t goes to
  g^t * s_t;
- Frobenius, s_t -> s_t^p, digit by digit.

Both keep the columns of the prefixes of length q (infinity dropped) and
q-1 (0 dropped too), and fix the nucleus.  A matrix M with H P = M H for
a monomial P carries the coset of s onto the coset of M s, weight for
weight, so a census must put the rows of s and M s in one class:
index[row(M s)] == index[row(s)] for every census row (Dür, "The
automorphism groups of Reed-Solomon codes", JCTA 44, 1987).
"""
from functools import lru_cache

import numpy as np

from mdscosets.codes import _row_syndrome, census_rows, syndrome_row


def _power(f, a, e):
    """a^e in the field f, by repeated products of labels."""
    out = np.asarray(1)
    for _ in range(e):
        out = f.mul_array(out, a)
    return out


def primitive_element(f):
    """The least label whose powers run through every nonzero element."""
    for g in range(2, f.q):
        powers = {int(_power(f, g, e)) for e in range(1, f.q)}
        if len(powers) == f.q - 1:
            return g
    return 1  # GF(2): the one nonzero element


def scale_map(f, g):
    """a -> g*a: syndrome digit t goes to g^t * s_t."""
    def scaled(digits):
        return [f.mul_array(s, _power(f, g, t)) for t, s in enumerate(digits)]
    return scaled


def frobenius_map(f):
    """s_t -> s_t^p, digit by digit; the identity at prime q."""
    pth = _power(f, np.arange(f.q), f.p)  # pth[x] = x^p

    def raised(digits):
        return [pth[s] for s in digits]
    return raised


def maps_of(f):
    """The two maps of the doubly-extended code over f, by name."""
    return {"scale": scale_map(f, primitive_element(f)), "frobenius": frobenius_map(f)}


@lru_cache(maxsize=None)
def census_syndromes(q, r):
    """The syndrome of every census row, as r digit arrays over the rows."""
    rows = [_row_syndrome(q, r, row) for row in range(census_rows(q, r))]
    return tuple(np.array(rows, dtype=np.int64).T)


def mismatched_rows(census, mapping):
    """The census rows s whose image M s lies in another class."""
    f, r = census.code.field, census.code.r
    images = syndrome_row(f, mapping(census_syndromes(f.q, r)))
    return np.flatnonzero(census.index[images] != census.index)
