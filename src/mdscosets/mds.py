"""Generalized Reed-Solomon parity-check constructions and the closed-form
MDS weight distribution.

The doubly-extended family puts, over GF(q), the q-1 Vandermonde columns
(1, a, a^2, ..., a^(d-2)), one per nonzero a in ascending label order,
next to the two extension columns (1, 0, ..., 0) and (0, ..., 0, 1),
giving a (d-1) x (q+1) matrix.  Scaling or reordering columns gives a
monomially equivalent code with the same coset census, so no other
column multipliers or evaluation orders are offered.  For even q the
triply-extended d = 4 family ("gtrs") adds the column (0, 1, 0) (the
nucleus of the conic the first q+1 columns trace out in PG(2, q)) to
the doubly-extended one ("gdrs").  `family_length` is the one statement
of each family's length, and refuses gtrs at odd q (no hyperoval).

One function, `_family_rows`, builds every full family matrix; at d = 4
its first n columns are the arcs of PG(2, q) that `geometry` names.

Column removals yield the shorter MDS codes whose coset structure the
rest of the library classifies: the singly-extended code, for one, is
the gdrs code less column q.  Keeping a family code's first n columns is
the pinned default removal.  A code's recipe, an MdsConstruction, is
laid out once, by `_family_layout`, which makes every refusal from the
numbers alone; `_family_code` builds the code from the recipe and
nothing else, the family matrix less the dropped columns.  A kernel run
on a recipe's code is a _Run, laid out from the numbers too, and
`_run_plan` charges every run of a plan before it builds any field, then
runs them; `build_code` lays out one code and runs its certification so.
The matrix itself is not checked: any d-1 columns of the doubly-extended
matrix are independent (MacWilliams and Sloane, ch. 11), so the full
matrix and every removal that keeps d-1 columns have full rank.
`LinearCode` checks the rank once, and each code is certified MDS from
its census instead of trusting the construction.

`mds_weight_distribution` gives the codeword counts A_w of any
[n, n-d+1, d]_q MDS code as one row per (n, d, q), built by a running
recurrence in O(n) big-integer steps.  The cache keeps the last row
(WEIGHT_DIST_CACHE_SIZE = 1); the single-sum formula rows are its only
reader in the library.  `check_mds_params` is the one place that refuses
parameters no MDS code has: any outside 3 <= d <= n <= q+2, and d = 3 and
d = q+1 at n = q+2 (MacWilliams and Sloane, ch. 11).  `_check_least_d`
adds a closed form's floor on d, and `_check_formula_rows` the rows'
bits, charged to codes._charge, at the top of each row builder.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import (DEFAULT_BUDGET, CosetCensus, LinearCode, WeightDistribution, _as_int,
                    _charge, _check_census, _prefix_censuses, _require)
from .combinat import binom
from .gf import GF, _check_ints, field_of_order


@dataclass(frozen=True)
class MdsConstruction:
    """Pinned recipe for one constructed code: family, field, design
    distance, and which columns of the full family matrix were removed."""

    family: str  # "gdrs" or "gtrs"
    q: int
    d: int
    removed: tuple[int, ...]

    @property
    def delta(self) -> int:
        return len(self.removed)

    @property
    def n(self) -> int:
        return family_length(self.family, self.q) - self.delta


# extension columns next to the q-1 Vandermonde ones, per family
_EXTENSIONS = {"gdrs": 2, "gtrs": 3}
FAMILIES = tuple(_EXTENSIONS)


def family_length(family: str, q: int) -> int:
    """Length of the family's full code over GF(q): q+1 doubly extended,
    q+2 triply extended, which needs even q."""
    if family not in _EXTENSIONS:
        raise ValueError(f"unknown family {family!r} (expected gdrs or gtrs)")
    if family == "gtrs" and not has_triple_extension(q, 4):
        raise ValueError(f"hyperoval requires even q, got q={q}")
    return q - 1 + _EXTENSIONS[family]


def has_triple_extension(q: int, d: int) -> bool:
    """Whether the triply-extended family has a design-distance-d code
    over GF(q): only at d = 4, and only for even q."""
    return d == 4 and q % 2 == 0


def _family_rows(field: GF, family: str, d: int) -> np.ndarray:
    """The d-1 doubly-extended rows, and for gtrs (d = 4) the nucleus column."""
    alphas = np.arange(1, field.q)
    rows = np.zeros((d - 1, family_length("gdrs", field.q)), dtype=np.int64)
    rows[0, :-2] = 1
    for t in range(1, d - 1):
        rows[t, :-2] = field.mul_array(rows[t - 1, :-2], alphas)
    rows[0, -2] = rows[d - 2, -1] = 1
    if family == "gtrs":
        rows = np.column_stack([rows, (0, 1, 0)])
    return rows


WEIGHT_DIST_CACHE_SIZE = 1


def _check_design_distance(n: int, d: int) -> None:
    """The one statement of 3 <= d <= n, for check_mds_params and symmetry_defect."""
    if not 3 <= d <= n:
        raise ValueError(f"need 3 <= d <= n, got d={d}, n={n}")


def check_mds_params(n: int, d: int, q: int) -> None:
    """Refuse (n, d, q) that no [n, n-d+1, d]_q MDS code can have, naming the
    bad parameter (any that is no int first, then q, d, n) before any work."""
    _check_ints(n=n, d=d, q=q)
    if q < 2:
        raise ValueError(f"need a field size q >= 2, got q={q}")
    _check_design_distance(n, d)
    if n > q + 2:
        raise ValueError(f"no MDS parameters with n={n} > q+2={q + 2}")
    if n == q + 2 and d in (3, q + 1):  # d <= q by A_{d+1} >= 0 at k >= 2, k <= q-1 by the dual
        raise ValueError(f"no MDS parameters with n=q+2={n} and d={d}")
    if n >= sys.maxsize:  # a row holds B_0..B_n, and d <= n
        raise ValueError(f"n={n} is too large to index a row (limit n < {sys.maxsize})")


def _check_least_d(n: int, d: int, q: int, least: int) -> None:
    """check_mds_params, then refuse a d below the `least` its caller serves."""
    check_mds_params(n, d, q)
    if d < least:
        raise ValueError(f"need d >= {least}, got {d}")


@lru_cache(maxsize=WEIGHT_DIST_CACHE_SIZE)
def _check_formula_rows(n: int, d: int, q: int) -> int:
    """check_mds_params, then refuse formula rows over DEFAULT_BUDGET bits;
    return the bits charged, a bound on 8 times the bytes a row build takes:
    N = n-d+2 weights of d-1 coefficients, each at most 2^(N-1) (d-1)
    C(n, d-1), with C(n, d-1) below 2^n and at most n^min(d-1, N-1), and a
    K_w = C(n,w) T(w, w-d+1) below 2^(n+1) q^(N-1); and for each of the N*d
    entries 3 times 36 bytes, 864 bits: an int and its slot (sys.getsizeof
    of a small int, 28, and a list slot, 8) for the entry kept and twice
    for what the build holds beside it (short columns' tuples, the double
    sum's bands, the single sum's A_w and omega seeds).  Each row builder
    calls it first.  Both forms charge the same rows of an (n, d, q), and
    are often asked for together, so the last charge is kept and the
    second form's is a lookup; a refusal is raised again each time."""
    check_mds_params(n, d, q)
    N = n - d + 2
    coefficient = min(n, min(d - 1, N - 1) * n.bit_length()) + (d - 1).bit_length() + N
    known = n + (N - 1) * q.bit_length() + 1
    bits = N * ((d - 1) * coefficient + known + 864 * d)
    _charge(bits, DEFAULT_BUDGET,
            lambda: f"formula rows need {bits} bits ({N} weights of {d - 1} coefficients up to "
                    f"{coefficient} bits and a K_w up to {known}, and 864 bits for each of "
                    f"the {N * d} entries)")
    return bits


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
    _check_formula_rows(n, d, q)
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
    Only `field.q` is read: the code is built on field_of_order(field.q).
    Its certification, charged before it is built, and every later census
    run under `budget`.
    """
    recipe = _family_layout(field.q, family, d, n, removed)
    [[census]] = _run_plan([_Run(recipe, recipe.d - 1)], budget)
    return census.code, recipe


def _family_layout(q: int, family: str, d: int | None, n: int | None, removed
                   ) -> MdsConstruction:
    """The recipe, d resolved and every dropped column listed, of build_code's
    code; each refusal is made in its order from the numbers alone."""
    width = family_length(family, q)
    if family == "gtrs":
        if d not in (None, 4):
            raise ValueError("the triply-extended family has d = 4")
        d = 4
    elif d is None:
        raise ValueError("design distance required")
    check_mds_params(width, d, q)
    n = width if n is None else _as_int(n, "n")
    if not d <= n <= width:
        raise ValueError(
            f"the {family} family over GF({q}) needs {d} <= n <= {width}, got n={n}")
    drop = sorted({_as_int(i, "a removed column") for i in removed} | set(range(n, width)))
    if drop and not 0 <= drop[0] <= drop[-1] < width:
        raise ValueError(f"column index out of range 0..{width - 1}")
    if width - len(drop) < d:
        raise ValueError(
            f"too many removals: {width - len(drop)} columns cannot carry distance {d}")
    return MdsConstruction(family, q, d, tuple(drop))


def _family_code(field: GF, recipe: MdsConstruction, budget: int) -> LinearCode:
    """The recipe's code, not yet certified: the family matrix less the
    dropped columns.  At q = 2 the three doubly-extended columns carry no
    code of distance 4 of their own, but with the nucleus they give the
    [4,1,4]_2 code."""
    H = np.delete(_family_rows(field, recipe.family, recipe.d), recipe.removed, axis=1)
    return LinearCode(field, H, budget)


class _Run(NamedTuple):
    """The kernel run on the recipe's code at wmax (d-1 certifies it), its
    table taken after each prefix length and its own."""

    recipe: MdsConstruction
    wmax: int
    lengths: tuple[int, ...] = ()

    def charge(self, budget: int) -> None:
        """codes._check_census of the run, from (q, n, n-k, wmax) alone."""
        _check_census(self.recipe.q, self.recipe.n, self.recipe.d - 1, self.wmax, budget)


def _run_plan(runs: list[_Run], budget: int) -> list[list[CosetCensus]]:
    """Charge every run in order, then build, run and certify each: the
    censuses of each run, every code they reach certified MDS."""
    for run in runs:
        run.charge(budget)
    done = []
    for recipe, wmax, lengths in runs:
        code = _family_code(field_of_order(recipe.q), recipe, budget)
        done.append(_prefix_censuses(code, [*lengths, code.n], wmax))
        for census in done[-1]:
            _certify(census.code)
    return done


def _certify(code: LinearCode) -> None:
    """Refuse a code whose minimum distance, read from its census classes (a
    census at n-k runs for it when none has), is not n-k+1."""
    dist = code.min_distance()
    if dist != code.n - code.k + 1:
        raise ValueError(
            f"construction is not MDS: distance {dist} != {code.n - code.k + 1}")
