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


def gdrs_parity(field: GF, d: int) -> Matrix:
    """The (d-1) x (q+1) doubly-extended parity-check matrix over GF(q)."""
    q = field.q
    if d < 3:
        raise ValueError(f"design distance must be >= 3, got {d}")
    if d > q + 1:
        raise ValueError(f"design distance {d} too large for a length-{q + 1} code over GF({q})")
    return Matrix(field, _extended_rows(field, d))


def gtrs_parity(field: GF) -> Matrix:
    """The 3 x (q+2) triply-extended parity-check matrix; q must be even.
    At q = 2 its doubly-extended part, three columns, has no code of
    distance 4 of its own, but with the nucleus it is the [4,1,4]_2 code."""
    if not has_triple_extension(field.q, 4):
        raise ValueError(f"triple extension requires even q, got q={field.q}")
    return Matrix(field, np.column_stack([_extended_rows(field, 4), (0, 1, 0)]))


def remove_columns(matrix: Matrix, idxs) -> Matrix:
    """Drop parity-check columns, keeping at least as many as the design
    distance needs."""
    idxs = sorted(set(int(i) for i in idxs))
    if not idxs:
        raise ValueError("no columns to remove")
    if idxs[0] < 0 or idxs[-1] >= matrix.ncols:
        raise ValueError(f"column index out of range 0..{matrix.ncols - 1}")
    design_d = matrix.nrows + 1
    if matrix.ncols - len(idxs) < design_d:
        raise ValueError(
            f"too many removals: {matrix.ncols - len(idxs)} columns cannot carry distance {design_d}")
    return matrix.drop_columns(idxs)


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


@lru_cache(maxsize=WEIGHT_DIST_CACHE_SIZE)
def mds_weight_distribution(n: int, d: int, q: int) -> WeightDistribution:
    """Closed-form codeword weight counts A_w of an [n, n-d+1, d]_q MDS code
    (MacWilliams and Sloane, ch. 11):

        A_w = C(n,w) * sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1),  w >= d.

    With T(w, m) = sum_{j<=m} (-1)^j C(w,j) q^(m-j) the sum is
    q*T(w, w-d) - (-1)^(w-d) C(w-1, w-d), and Pascal's rule gives

        T(w+1, m+1) = (q-1) T(w, m) + (-1)^(m+1) C(w, m+1),   T(d, 0) = 1,

    so the row costs O(n) big-integer steps.  C(n, w) and C(w, m+1) =
    C(w, d-1) run along exact ratios, and C(w-1, m) is the latter's value
    one step back, so the row takes one binomial.
    """
    check_mds_params(n, d, q)
    counts = [0] * (n + 1)
    counts[0] = 1
    t = 1  # T(w, w-d)
    c_nw = binom(n, d)  # C(n, w)
    c_prev, c_next = 1, d  # C(w-1, m) and C(w, m+1)
    for w in range(d, n + 1):
        m = w - d
        sign = -1 if m % 2 else 1
        counts[w] = c_nw * (q * t - sign * c_prev)
        t = (q - 1) * t - sign * c_next
        c_nw = c_nw * (n - w) // (w + 1)
        c_prev, c_next = c_next, c_next * (w + 1) // (m + 2)
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


def _family_code(field: GF, family: str, d: int | None, n: int | None, removed,
                 budget: int) -> tuple[LinearCode, MdsConstruction]:
    """build_code's code and recipe, not yet certified."""
    q = field.q
    length = family_length(family, q)
    if family == "gtrs":
        if d not in (None, 4):
            raise ValueError("the triply-extended family has d = 4")
        d = 4
        H_full = gtrs_parity(field)
    else:
        if d is None:
            raise ValueError("design distance required")
        H_full = gdrs_parity(field, d)
    if n is None:
        n = length
    elif not d <= n <= length:
        raise ValueError(
            f"the {family} family over GF({q}) needs {d} <= n <= {length}, got n={n}")
    drop = tuple(sorted({int(i) for i in removed} | set(range(n, H_full.ncols))))
    H = remove_columns(H_full, drop) if drop else H_full
    construction = MdsConstruction("gtrs" if family == "gtrs" else "gdrs", q, d, drop)
    return LinearCode(H, budget), construction


def _certify(code: LinearCode) -> None:
    """Refuse a code whose minimum distance, read from its census memo (a
    census at n-k runs for it when none has), is not n-k+1."""
    dist = code.min_distance()
    if dist != code.n - code.k + 1:
        raise ValueError(
            f"construction is not MDS: distance {dist} != {code.n - code.k + 1}")
