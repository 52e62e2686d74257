"""Generalized Reed-Solomon parity-check constructions and the closed-form
MDS weight distribution.

The doubly-extended family puts, over GF(q), the q-1 Vandermonde columns
(1, a, a^2, ..., a^(d-2)), one per nonzero a in ascending label order,
next to the two extension columns (1, 0, ..., 0) and (0, ..., 0, 1),
giving a (d-1) x (q+1) matrix.  Scaling or reordering columns gives a
monomially equivalent code with the same coset census, so no other
column multipliers or evaluation orders are offered.  The
singly-extended family drops the last extension column, and for even q
the triply-extended d = 4 family adds the column (0, 1, 0) (the nucleus
of the conic the first q+1 columns trace out in PG(2, q)).
`family_length` is the one statement of each family's length.

Column removals yield the shorter MDS codes whose coset structure the
rest of the library classifies; keeping a family code's first n columns
is the pinned default removal.  The constructions check nothing
themselves: any d-1 columns of the doubly-extended matrix are
independent (MacWilliams and Sloane, ch. 11), so the full matrix and
every removal that keeps d-1 columns have full rank.  `LinearCode`
checks the rank once, and `build_code` certifies MDS-ness from the
code's census instead of trusting the construction.

`mds_weight_distribution` gives the codeword counts A_w of any
[n, n-d+1, d]_q MDS code as one row per (n, d, q), built by a running
recurrence in O(n) big-integer steps.  The cache keeps the last row
(WEIGHT_DIST_CACHE_SIZE = 1): its readers, the single-sum rows and
`dist_weight_d1`, ask for the same (n, d, q) back to back.
`check_mds_params` is the one place that refuses parameters no MDS code
has; the formula layer calls it before any work.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import DEFAULT_BUDGET, LinearCode, Matrix, WeightDistribution, _require
from .combinat import binom
from .gf import GF


@dataclass(frozen=True)
class MdsConstruction:
    """Pinned recipe for one constructed code: family, field, design
    distance, and which columns of the full family matrix were removed."""

    family: str  # "gdrs" (for "grs" too) or "gtrs"
    q: int
    d: int
    removed: tuple[int, ...]

    @property
    def delta(self) -> int:
        return len(self.removed)


# extension columns next to the q-1 Vandermonde ones, per family
_EXTENSIONS = {"gdrs": 2, "grs": 1, "gtrs": 3}
FAMILIES = tuple(_EXTENSIONS)


def family_length(family: str, q: int) -> int:
    """Length of the family's full code over GF(q): q+1 doubly extended,
    q singly extended, q+2 triply extended."""
    if family not in _EXTENSIONS:
        raise ValueError(f"unknown family {family!r} (expected gdrs, grs, or gtrs)")
    return q - 1 + _EXTENSIONS[family]


def has_triple_extension(q: int, d: int) -> bool:
    """Whether the triply-extended family has a design-distance-d code
    over GF(q): only at d = 4, and only for even q."""
    return d == 4 and q % 2 == 0


def _extended_rows(field: GF, d: int) -> np.ndarray:
    """The d-1 rows of the doubly-extended matrix, for any d >= 2."""
    alphas = np.arange(1, field.q)
    rows = np.zeros((d - 1, field.q + 1), dtype=np.int64)
    rows[0, :-2] = 1
    for t in range(1, d - 1):
        rows[t, :-2] = field.mul_array(rows[t - 1, :-2], alphas)
    rows[0, -2] = rows[d - 2, -1] = 1
    return rows


def _check_gdrs_distance(q: int, d: int) -> None:
    if d < 3:
        raise ValueError(f"design distance must be >= 3, got {d}")
    if d > q + 1:
        raise ValueError(f"design distance {d} too large for a length-{q + 1} code over GF({q})")


def _check_triple_extension(q: int) -> None:
    if not has_triple_extension(q, 4):
        raise ValueError(f"triple extension requires even q, got q={q}")


def _removals(ncols: int, design_d: int, idxs) -> list[int]:
    """The columns idxs of a matrix of ncols columns, sorted, refusing a
    removal that leaves fewer than design_d."""
    idxs = sorted(set(int(i) for i in idxs))
    if not idxs:
        raise ValueError("no columns to remove")
    if idxs[0] < 0 or idxs[-1] >= ncols:
        raise ValueError(f"column index out of range 0..{ncols - 1}")
    if ncols - len(idxs) < design_d:
        raise ValueError(
            f"too many removals: {ncols - len(idxs)} columns cannot carry distance {design_d}")
    return idxs


def gdrs_parity(field: GF, d: int) -> Matrix:
    """The (d-1) x (q+1) doubly-extended parity-check matrix over GF(q)."""
    _check_gdrs_distance(field.q, d)
    return Matrix(field, _extended_rows(field, d))


def gtrs_parity(field: GF) -> Matrix:
    """The 3 x (q+2) triply-extended parity-check matrix; q must be even.
    At q = 2 its doubly-extended part, three columns, has no code of
    distance 4 of its own, but with the nucleus it is the [4,1,4]_2 code."""
    _check_triple_extension(field.q)
    return Matrix(field, np.column_stack([_extended_rows(field, 4), (0, 1, 0)]))


def remove_columns(matrix: Matrix, idxs) -> Matrix:
    """Drop parity-check columns, keeping at least as many as the design
    distance needs."""
    return matrix.drop_columns(_removals(matrix.ncols, matrix.nrows + 1, idxs))


WEIGHT_DIST_CACHE_SIZE = 1


def check_mds_params(n: int, d: int, q: int) -> None:
    """Refuse (n, d, q) that no [n, n-d+1, d]_q MDS code can have, naming
    the bad parameter, before any formula does work on them."""
    if q < 2:
        raise ValueError(f"need a field size q >= 2, got q={q}")
    if not 3 <= d <= n:
        raise ValueError(f"need 3 <= d <= n, got d={d}, n={n}")
    if n > q + 2:
        raise ValueError(f"no MDS parameters with n={n} > q+2={q + 2}")
    if n >= sys.maxsize:  # a row holds B_0..B_n, and d <= n
        raise ValueError(f"n={n} is too large to index a row (limit n < {sys.maxsize})")


@lru_cache(maxsize=WEIGHT_DIST_CACHE_SIZE)
def mds_weight_distribution(n: int, d: int, q: int) -> WeightDistribution:
    """Closed-form codeword weight counts A_w of an [n, n-d+1, d]_q MDS code
    (MacWilliams and Sloane, ch. 11):

        A_w = C(n,w) * sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1),  w >= d.

    With T(w, m) = sum_{j<=m} (-1)^j C(w,j) q^(m-j) the sum is
    q*T(w, w-d) - (-1)^(w-d) C(w-1, w-d), and Pascal's rule gives

        T(w+1, m+1) = (q-1) T(w, m) + (-1)^(m+1) C(w, m+1),   T(d, 0) = 1,

    so the row costs O(n) big-integer steps.  C(n, w) and the signed
    (-1)^(m+1) C(w, m+1) run along exact ratios, the sign carried in the
    divisor, and (-1)^m C(w-1, m) is the latter's value one step back, so
    the row takes one binomial.
    """
    check_mds_params(n, d, q)
    counts = [0] * (n + 1)
    counts[0] = 1
    t = 1  # T(w, w-d)
    c_nw = binom(n, d)  # C(n, w)
    prev, e = 1, -d  # (-1)^m C(w-1, m) and (-1)^(m+1) C(w, m+1)
    for w in range(d, n + 1):
        counts[w] = c_nw * (q * t - prev)
        t = (q - 1) * t + e
        c_nw = c_nw * (n - w) // (w + 1)
        prev, e = e, e * (w + 1) // (d - w - 2)
    dist = WeightDistribution(tuple(counts))
    _require(dist.total() == q ** (n - d + 1), "MDS weight distribution does not total q^k")
    return dist


def build_code(field: GF, family: str, d: int | None = None, n: int | None = None,
               removed=(), budget: int = DEFAULT_BUDGET) -> tuple[LinearCode, MdsConstruction]:
    """Build a family code and certify MDS-ness by oracle.

    The code keeps the first `n` columns of the full family matrix (all
    of them by default), less the columns `removed` indexes (0-based).
    The "grs" family is the doubly-extended matrix with its last column
    dropped, matching the singly-extended construction.  The code's
    certification and every later census run under `budget`.
    """
    code, construction = _family_code(field, family, d, n, removed, budget)
    _certify(code)
    return code, construction


def _family_layout(q: int, family: str, d: int | None, n: int | None, removed
                   ) -> tuple[int, int, tuple[int, ...]]:
    """(d, columns of the full family matrix, dropped columns) of the code
    _family_code builds, with each of its refusals, in its order, from the
    numbers alone: no field is needed."""
    length = family_length(family, q)
    if family == "gtrs":
        if d not in (None, 4):
            raise ValueError("the triply-extended family has d = 4")
        d = 4
        _check_triple_extension(q)
        width = length
    else:
        if d is None:
            raise ValueError("design distance required")
        _check_gdrs_distance(q, d)
        width = family_length("gdrs", q)
    if n is None:
        n = length
    elif not d <= n <= length:
        raise ValueError(
            f"the {family} family over GF({q}) needs {d} <= n <= {length}, got n={n}")
    drop = {int(i) for i in removed} | set(range(n, width))
    return d, width, tuple(_removals(width, d, drop) if drop else ())


def _family_code(field: GF, family: str, d: int | None, n: int | None, removed,
                 budget: int) -> tuple[LinearCode, MdsConstruction]:
    """build_code's code and recipe, not yet certified."""
    d, _, drop = _family_layout(field.q, family, d, n, removed)
    H = gtrs_parity(field) if family == "gtrs" else gdrs_parity(field, d)
    if drop:
        H = remove_columns(H, drop)
    construction = MdsConstruction("gtrs" if family == "gtrs" else "gdrs", field.q, d, drop)
    return LinearCode(H, budget), construction


def _certify(code: LinearCode) -> None:
    """Refuse a code whose minimum distance, read from its census classes (a
    census at n-k runs for it when none has), is not n-k+1."""
    dist = code.min_distance()
    if dist != code.n - code.k + 1:
        raise ValueError(
            f"construction is not MDS: distance {dist} != {code.n - code.k + 1}")
