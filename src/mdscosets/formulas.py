"""Closed-form coset weight distributions of MDS codes.

Given an [n, k, d]_q MDS code with codeword counts A_w and a coset V
whose low-weight counts B_0..B_{d-2} are known, the single-sum form of
the Bonneau relation gives, for w >= d-1,

    B_w = A_w - omega(n,d,w,0) + sum_{v=0}^{d-2} omega(n,d,w,v) * B_v .

Both forms are served from coefficient rows built once per (n, d, q):
for w = d-1..n a prefix-free part K_w and, for each v in 0..d-2, the
coefficient of B_v.  Only K_w reads q: each form's coefficient columns
are a function of (n, d) alone (`_single_sum_columns`,
`_double_sum_columns`).  A query is then one multiply-add per weight and
nonzero B_v, an add alone where B_v = 1.

`bonneau_transformed` builds its rows from the relation above:
K_w = A_w - omega(n,d,w,0) with A_w from `mds_weight_distribution`, and
by trinomial revision each coefficient column is the signed binomial
row (-1)^j C(n-d+1, j) times a factor read from omega(n,d,d-1,v),
divided exactly by w-v.  `bonneau_original` builds its rows from the
classical double-sum form of the same relation: its prefix-free part is
C(n,w) T(w, w-d+1), where T(w, m) = sum_{j<=m} (-1)^j C(w,j) q^(m-j)
runs along the recurrence T(w+1, m+1) = (q-1) T(w, m) + (-1)^(m+1)
C(w, m+1), and each prefix coefficient is a signed binomial times a
partial alternating sum of binomials, both on a band of n-d+2 entries
that Pascal's rule carries from column to column, starting from the
same signed binomial row.  Neither form reads the other's rows, A_w or
omega, so they stay two independent derivations whose rows must be
equal.  `verify`'s criterion 2 proves they are, at every q, for each
3 <= d <= n <= 18: the columns take no q, and each K_w is a polynomial
in q of degree at most w-d+1 <= n-d+1 (A_w is, MacWilliams and Sloane,
ch. 11, Thm. 6, and omega takes no q; T(w, m) has degree m), so rows
equal at n-d+2 distinct q are equal as polynomials in q.  Each column
is made in whole-row passes (`map`, `itertools.accumulate`), so a row
set of (n-d+2)(d-1) coefficients costs that many entry steps and holds
O(n-d+2) entries besides its rows; the double sum takes one binomial,
to seed K_w, and the single sum none besides its d-1 omega seeds.

Each closed form for weights 1, d-1, 2, d-2 and the mid range calls
`bonneau_transformed` at the prefix its theorem fixes (B_1 = 1; all
zero; B_2 = 1 and B_{d-2}; B_{d-2}; the unique leader's B_W = 1 and the
knowns), so both forms and the closed forms share one evaluation path.
The tests check each one against the paper's terms, evaluated as
independent sums, and criterion 3 checks the weight-1 and weight-(d-1)
forms against exact censuses.

Every coset of weight 1, and every one of weight d-1, has one
distribution, a function of (n, d, q) alone, so `dist_weight1` and
`dist_weight_d1` are memoized like the rows.  Each of the six caches,
the rows and the columns of either form and the two distributions,
keeps the entry of the last (n, d, q), or (n, d), asked for
(ROW_CACHE_SIZE = 1).  A stream of `dist` queries asks for one
(n, d, q) at a time, every prefix and closed form of it in a row: with
four prefixes per (n, d, q), 3 of 4 weight-1 and weight-(d-1) calls
hit.  `verify` does not: each criterion misses the
rows once for each code or tuple it reads (criterion 2 reads the q of
one (n, d) in a row, so it builds each (n, d)'s columns once), and
criterion 3 asks for each desk (n, d, q)'s two distributions at most
once, so their caches neither help nor cost it.

Every entry first refuses parameters no MDS code has by `check_mds_params`
(dist_weight1 and dist_weight_d1 in the row charge, their first work),
then come the other usage errors, and then each row builder refuses rows
over the default budget in bits, before any row or prefix is laid out.
All formulas are total functions of the prefix; only realizability can
fail.  A computed negative count means no actual coset has that prefix,
reported as InconsistentPrefixError in strict mode and as a plain
(negative) distribution otherwise, which keeps what-if queries possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, floordiv, mul, sub

from .codes import WeightDistribution, _as_int, _check_ints, _decimal, _require
from .combinat import binom, omega
from .mds import (_check_design_distance, _check_formula_rows, _check_least_d,
                  check_mds_params, mds_weight_distribution)

ROW_CACHE_SIZE = 1  # (n, d, q) row sets kept per form

# for each v in 0..d-2 the column of B_v's coefficients in B_{d-1}..B_n
Columns = tuple[tuple[int, ...], ...]
# (K_w for w = d-1..n, and the columns)
Rows = tuple[tuple[int, ...], Columns]


class InconsistentPrefixError(ValueError):
    """The given low-weight counts cannot belong to any real coset."""


def _counts(values, name: str, first: int):
    """The given counts B_first, B_first+1, ...: `values` itself when each
    is an exact int, else a tuple of each through _as_int as `name B_v`."""
    for value in values:
        if type(value) is not int:
            return tuple(_as_int(c, f"{name} B_{v}") for v, c in enumerate(values, first))
    return values


@dataclass(frozen=True)
class LowWeightPrefix:
    """Known counts B_0..B_{d-2} of a coset of an [n, n-d+1, d]_q MDS code."""

    n: int
    d: int
    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        check_mds_params(self.n, self.d, self.q)
        # a tuple prefix is kept as it is: tuple() of a tuple is that tuple
        object.__setattr__(self, "counts", _counts(tuple(self.counts), "prefix count", 0))
        if len(self.counts) != self.d - 1:
            raise ValueError(f"prefix must list B_0..B_{self.d - 2} ({self.d - 1} values), "
                             f"got {len(self.counts)}")
        if min(self.counts) < 0:
            raise ValueError("prefix counts must be non-negative")
        if self.counts[0] not in (0, 1):
            raise ValueError("B_0 must be 0 or 1")


def _alternating_binomials(m: int) -> list[int]:
    """(-1)^j C(m, j) for j = 0..m, each entry from the one before by the
    exact ratio -(m-j)/(j+1), its sign carried in the divisor."""
    return list(accumulate(range(m), lambda c, j: c * (m - j) // -(j + 1), initial=1))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _single_sum_columns(n: int, d: int) -> Columns:
    """The columns omega(n,d,w,v), free of q.  By trinomial revision,
    C(n-v, w-v) C(w-v, d-1-v) = C(n-v, d-1-v) C(n-d+1, w-d+1), so

        omega(n,d,w,v) = (-1)^(w-d+1) C(n-d+1, w-d+1) b_v / (w-v)

    with b_v = (d-1-v) omega(n,d,d-1,v): each column is the one signed
    binomial row times b_v, divided exactly by w-v."""
    row = _alternating_binomials(n - d + 1)
    b = [(d - 1 - v) * omega(n, d, d - 1, v) for v in range(d - 1)]
    return tuple(tuple(map(floordiv, map(mul, row, repeat(b[v])), range(d - 1 - v, n - v + 1)))
                 for v in range(d - 1))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _single_sum_rows(n: int, d: int, q: int) -> Rows:
    """K_w = A_w - omega(n,d,w,0) and the columns of _single_sum_columns.
    A_w is charged first."""
    A = mds_weight_distribution(n, d, q).counts
    cols = _single_sum_columns(n, d)
    return tuple(map(sub, A[d - 1:], cols[0])), cols


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _double_sum_columns(n: int, d: int) -> Columns:
    """The columns of the double sums, free of q:

        sum_{j=w-d+2}^{w-v} (-1)^j C(j+n-w, j) C(n-v, w-j-v).

    Each term is C(n-v, m) C(m, i) with m = w-v and i = m-j, so the sum
    is s_m S(m, l) with s_m = (-1)^m C(n-v, m), l = d-2-v and S(m, l) =
    sum_{i<=l} (-1)^i C(m, i), on the band m = l+1..l+n-d+2.  Both
    factors of the band of l follow from those of l-1 by Pascal's rule:
    s'_m = s_m - s_(m-1), and S(m+1, l) = S(m, l) - S(m, l-1) from
    S(l+1, l) = (-1)^l.  The band of l = -1 is s_m = (-1)^m C(n-d+1, m)
    and S(m, -1) = 0, so one band of each is live at a time."""
    s = _alternating_binomials(n - d + 1)
    S = [0] * (n - d + 2)
    cols = []
    for l in range(d - 1):
        s = list(map(sub, s[1:] + [0], s))
        S = list(accumulate(S[1:], sub, initial=(-1) ** l))
        cols.append(tuple(map(mul, s, S)))
    return tuple(reversed(cols))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _double_sum_rows(n: int, d: int, q: int) -> Rows:
    """K_w = C(n,w) T(w, w-d+1) by the T recurrence, T(d-1, 0) = 1, and
    the columns of _double_sum_columns.  The rows are charged first."""
    _check_formula_rows(n, d, q)
    known = []
    t = 1  # T(w, w-d+1)
    c_nw = binom(n, d - 1)  # C(n, w)
    e = 1 - d  # (-1)^(w-d) C(w, w-d+2), the sign carried in the divisor
    for w in range(d - 1, n + 1):
        known.append(c_nw * t)
        t = (q - 1) * t + e
        c_nw = c_nw * (n - w) // (w + 1)
        e = e * (w + 1) // (d - w - 3)
    return tuple(known), _double_sum_columns(n, d)


def _tail(rows: Rows, counts) -> list[int]:
    """B_{d-1}..B_n: K_w plus sum_v B_v * (column v), over the nonzero B_v.
    A B_v of 1, as B_0 or a unique leader's count often is, adds its
    column without a multiplication."""
    known, cols = rows
    tail = list(known)
    for col, b in zip(cols, counts):
        if b == 1:
            tail = list(map(add, tail, col))
        elif b:
            tail = [t + b * c for t, c in zip(tail, col)]
    return tail


def _distribution(prefix: LowWeightPrefix, rows: Rows, strict: bool) -> WeightDistribution:
    """B_0..B_n of a coset: its prefix, then the tail of `rows` at it."""
    n, d, q = prefix.n, prefix.d, prefix.q
    counts = list(prefix.counts) + _tail(rows, prefix.counts)
    dist = WeightDistribution(tuple(counts))
    _require(dist.total() == q ** (n - d + 1), "distribution from prefix does not total q^k")
    if strict and not dist.is_nonnegative():
        w = next(w for w, c in enumerate(counts) if c < 0)
        raise InconsistentPrefixError(
            f"inconsistent prefix: computed B_{w} = {_decimal(counts[w])} < 0")
    return dist


def bonneau_transformed(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Full coset distribution from its low-weight prefix, single-sum form."""
    return _distribution(prefix, _single_sum_rows(prefix.n, prefix.d, prefix.q), strict)


def bonneau_original(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Same distribution through the classical double-sum form."""
    return _distribution(prefix, _double_sum_rows(prefix.n, prefix.d, prefix.q), strict)


def _at_prefix(n: int, d: int, q: int, known: dict[int, int],
               strict: bool = True) -> WeightDistribution:
    """bonneau_transformed at the prefix B_0..B_{d-2} whose entries are
    `known` (v: B_v, the others 0), laid out only after the rows are
    charged."""
    _single_sum_rows(n, d, q)
    counts = [known.get(v, 0) for v in range(d - 1)]
    return bonneau_transformed(LowWeightPrefix(n, d, q, counts), strict)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def dist_weight1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all n(q-1) weight-1 cosets: B_1 = 1."""
    return _at_prefix(n, d, q, {1: 1})


def dist_weight_mid(n: int, d: int, q: int, W: int, knowns,
                    strict: bool = True) -> WeightDistribution:
    """Coset distribution for mid-range coset weights W.

    Low branch (2 <= W <= floor((d-1)/2), d >= 5): the coset has a unique
    leader, so B_W = 1 contributes its own term.  High branch
    (floor((d+1)/2) <= W <= d-3, d >= 6): B_W is among the knowns.
    `knowns` lists B_{d-W}..B_{d-2}, so W-1 values.
    """
    check_mds_params(n, d, q)
    knowns = _counts(tuple(knowns), "mid-weight known", d - W)
    low = 2 <= W <= (d - 1) // 2
    high = (d + 1) // 2 <= W <= d - 3
    if not (low or high):
        raise ValueError(f"W={W} outside both mid-range branches for d={d}")
    if len(knowns) != W - 1:
        raise ValueError(f"need the {W - 1} values B_{d - W}..B_{d - 2}, got {len(knowns)}")
    if min(knowns, default=0) < 0:
        raise ValueError("mid-weight knowns must be non-negative")
    known = dict(zip(range(d - W, d - 1), knowns))
    if low:
        known[W] = 1
    return _at_prefix(n, d, q, known, strict)


def dist_weight_d2(n: int, d: int, q: int, b_low: int,
                   strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-(d-2) coset from its B_{d-2} alone."""
    _check_least_d(n, d, q, 4)
    b_low = _as_int(b_low, "B_{d-2}")
    if b_low < 1:
        raise ValueError("a weight-(d-2) coset has B_{d-2} >= 1")
    return _at_prefix(n, d, q, {d - 2: b_low}, strict)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def dist_weight_d1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all weight-(d-1) (farthest-off)
    cosets: B_0..B_{d-2} are all 0."""
    return _at_prefix(n, d, q, {})


def dist_weight2(n: int, d: int, q: int, b_low: int,
                 strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-2 coset (d >= 5) from its B_{d-2}."""
    _check_least_d(n, d, q, 5)
    b_low = _as_int(b_low, "B_{d-2}")
    if b_low < 0:
        raise ValueError("B_{d-2} must be non-negative")
    return _at_prefix(n, d, q, {2: 1, d - 2: b_low}, strict)


@dataclass(frozen=True)
class SymmetryReport:
    """Reflection defects D_w = (-1)^(n+d) B_w - B_{n+d-2-w} of two cosets.

    For two weight-(d-2) cosets of one MDS code (or two weight-2 cosets,
    d >= 5) the defects coincide for every w in d-1..n even when the
    distributions themselves differ.
    """

    pairs: tuple[tuple[int, int, int], ...]  # (w, D_w of a, D_w of b)
    comparable: bool
    matched: bool


def symmetry_defect(dist_a: WeightDistribution, dist_b: WeightDistribution,
                    n: int, d: int) -> SymmetryReport:
    _check_ints(n=n, d=d)
    _check_design_distance(n, d)
    if dist_a.n != n or dist_b.n != n:
        raise ValueError("distribution lengths disagree with n")
    wa, wb = dist_a.min_positive_weight(), dist_b.min_positive_weight()
    comparable = wa == wb and wa in (2, d - 2)
    sign = 1 if (n + d) % 2 == 0 else -1
    pairs = []
    matched = comparable
    for w in range(d - 1, n + 1):
        mirror = n + d - 2 - w  # in d-2..n-1, as 3 <= d <= n
        da = sign * dist_a.counts[w] - dist_a.counts[mirror]
        db = sign * dist_b.counts[w] - dist_b.counts[mirror]
        pairs.append((w, da, db))
        if da != db:
            matched = False
    return SymmetryReport(tuple(pairs), comparable, matched)


def weight2_aggregate(n: int, d: int, q: int) -> int:
    """Total number of weight-(d-2) vectors over all weight-2 cosets:
    (q-1) C(n,2) C(n-2,d-2), valid for d >= 5."""
    _check_least_d(n, d, q, 5)
    return (q - 1) * binom(n, 2) * binom(n - 2, d - 2)


@dataclass(frozen=True)
class Weight2IdentityCondition:
    """Whether all weight-2 cosets can share one distribution, and the
    B_{d-2} value they would have to share."""

    condition_holds: bool
    b_low_if_identical: Fraction


def weight2_identical_check(n: int, d: int, q: int) -> Weight2IdentityCondition:
    """Integrality of C(n-2,d-2)/(q-1): necessary for all weight-2 cosets
    to have identical distributions.  For n = q+1 with gcd(q-1, d-2) = 1
    the condition always holds."""
    _check_least_d(n, d, q, 5)
    value = Fraction(binom(n - 2, d - 2), q - 1)
    holds = value.denominator == 1
    if n == q + 1 and math.gcd(q - 1, d - 2) == 1:
        _require(holds, "C(n-2,d-2)/(q-1) is not an integer though n = q+1 "
                 "and gcd(q-1, d-2) = 1")
    return Weight2IdentityCondition(holds, value)
