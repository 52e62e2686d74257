"""Four automorphisms of the doubly-extended code, as maps of syndromes,
and the check that a census keeps every coset's class under them.  It
uses the construction's algebra only, no MDS theory.

The distance-d family matrix (mds._family_rows) has r = d-1 rows: a
column (1, a, ..., a^(r-1)) for each a != 0, then e_0 for a = 0 and
e_(r-1) for infinity; the triply-extended code (r = 3) adds the nucleus
(0, 1, 0).  Four maps send columns to multiples of columns:

- a -> g*a is D = diag(1, g, ..., g^(r-1)), so syndrome digit t goes to
  g^t * s_t;
- a -> a+1 is the lower-triangular Pascal matrix U[t, i] = C(t, i) mod p,
  since (a+1)^t = sum_i C(t, i) a^i, and U e_(r-1) = e_(r-1);
- a -> 1/a is the reversal J of the digits: J (1, a, ..., a^(r-1)) is
  a^(r-1) times the column of 1/a, and J swaps e_0 and e_(r-1);
- Frobenius, s_t -> s_t^p, digit by digit.

D and Frobenius keep the columns of the prefixes of lengths q+1, q
(infinity dropped) and q-1 (0 dropped too); U keeps q+1 and q, and J
keeps q+1 and q-1 (KEPT).  At even q all four fix the nucleus (U sends
it to (0, 1, 2) = (0, 1, 0)), so they keep the triply-extended code.
Together they generate PGammaL(2, q), the automorphism group of the
doubly-extended code.  A matrix M with H P = M H for a monomial P
carries the coset of s onto the coset of M s, weight for weight, so a
census must put the rows of s and M s in one class: index[row(M s)] ==
index[row(s)] for every census row (Dür, "The automorphism groups of
Reed-Solomon codes", JCTA 44, 1987).
"""
import math
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


def shift_map(f):
    """a -> a+1: syndrome digit t goes to sum_{i<=t} C(t, i) s_i, each
    term C(t, i) mod p copies of s_i added."""
    def shifted(digits):
        out = []
        for t in range(len(digits)):
            total = np.zeros_like(np.asarray(digits[0]))
            for i in range(t + 1):
                for _ in range(math.comb(t, i) % f.p):
                    total = f.add_array(total, digits[i])
            out.append(total)
        return out
    return shifted


def invert_map(f):
    """a -> 1/a: the syndrome digits in reverse order."""
    return lambda digits: list(digits)[::-1]


def maps_of(f):
    """The four maps of the doubly-extended code over f, by name."""
    return {"scale": scale_map(f, primitive_element(f)), "frobenius": frobenius_map(f),
            "shift": shift_map(f), "invert": invert_map(f)}


# n - q for each length whose columns a map keeps: q+2 is the
# triply-extended code at even q, whose nucleus all four fix
KEPT = {"scale": (2, 1, 0, -1), "frobenius": (2, 1, 0, -1),
        "shift": (2, 1, 0), "invert": (2, 1, -1)}


def maps_keeping(f, n):
    """The maps of maps_of(f) that keep a length-n code's columns."""
    return {name: m for name, m in maps_of(f).items() if n - f.q in KEPT[name]}


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
