"""Closed-form coset weight distributions of MDS codes.

Given an [n, k, d]_q MDS code with codeword counts A_w and a coset V
whose low-weight counts B_0..B_{d-2} are known, the single-sum form of
the Bonneau relation gives, for w >= d-1,

    B_w = A_w - omega(n,d,w,0) + sum_{v=0}^{d-2} omega(n,d,w,v) * B_v .

Both forms are served from coefficient rows built once per (n, d, q):
for w = d-1..n a prefix-free part K_w and, for each v in 0..d-2, the
coefficient of B_v.  A query is then one multiply-add per weight and
nonzero B_v, an add alone where B_v = 1.

`bonneau_transformed` builds its rows from the relation above:
K_w = A_w - omega(n,d,w,0) with A_w from `mds_weight_distribution`, and
each coefficient column seeded with omega(n,d,d-1,v) and run down by the
exact ratio of neighbouring omegas.  `bonneau_original` builds its rows
from the classical double-sum form of the same relation: its prefix-free
part is C(n,w) T(w, w-d+1), where T(w, m) = sum_{j<=m} (-1)^j C(w,j)
q^(m-j) runs along the recurrence T(w+1, m+1) = (q-1) T(w, m) +
(-1)^(m+1) C(w, m+1), and its prefix coefficients are the double sums,
each factored into a signed binomial running down its column times a
partial alternating sum read from one Pascal table.  Neither form reads
the other's rows, A_w or omega, so they stay two independent derivations
whose rows must be equal, which `verify`'s criterion 2 checks.  Every
entry of either form follows from its neighbour in two big-integer
steps: one multiplication by the product of the small factors and one
exact floor division by the product of the others, the sign of the
ratio carried in the divisor.  A row set costs that per entry (plus a
multiplication by the Pascal entry in the double sums, and the n(d-1)
C-level differences of the Pascal table) and at most d binomials for
the seeds, not binomials per entry.

The per-weight functions read the single-sum rows but keep the
specialized terms the paper states for them (B_{d-1} = C(n-1, d-1) for
weight 1, the column (-1)^(w-d) C(n-d+2, n-w) of B_{d-2} for weights 2
and d-2, and the whole weight-(d-1) form), so each specialization is
checked twice: against the general formula and against exact censuses.
Their binomial terms, too, run along exact ratios, and the B_{d-2}
column is built once per (n, d) and multiplied by B_{d-2} in the one
pass that adds K_w.

Every coset of weight 1, and every one of weight d-1, has one
distribution, a function of (n, d, q) alone, so `dist_weight1` and
`dist_weight_d1` are memoized like the rows.  Each of these caches, the
rows of either form, the two distributions and the B_{d-2} column, keeps
the entry of the last (n, d, q) (or (n, d)) asked for (ROW_CACHE_SIZE =
1).  A stream of `dist` queries asks for one (n, d, q) at a time, every
prefix and closed form of it in a row: with four prefixes per (n, d, q),
3 of 4 weight-1 and weight-(d-1) calls and, at d >= 5, 7 of 8 B_{d-2}
column calls hit.  `verify` does not: criteria 1 and 3 each walk the
corpus and criterion 2 builds both forms once for each of its 436
tuples, so one full run misses the single-sum rows 614 times (the 436
tuples, then the 89 desk codes twice) and the double-sum rows 436
times, and criterion 3 asks for each desk (n, d, q)'s two distributions
at most once, so their caches neither help nor cost it.

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
from operator import add, sub

from .codes import WeightDistribution, _require
from .combinat import binom, omega
from .mds import check_mds_params, mds_weight_distribution

ROW_CACHE_SIZE = 1  # (n, d, q) row sets kept per form

# (K_w for w = d-1..n, and for each v in 0..d-2 the column of B_v's
# coefficients in B_{d-1}..B_n)
Rows = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class InconsistentPrefixError(ValueError):
    """The given low-weight counts cannot belong to any real coset."""


@dataclass(frozen=True)
class LowWeightPrefix:
    """Known counts B_0..B_{d-2} of a coset of an [n, n-d+1, d]_q MDS code."""

    n: int
    d: int
    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        check_mds_params(self.n, self.d, self.q)
        if len(self.counts) != self.d - 1:
            raise ValueError(f"prefix must list B_0..B_{self.d - 2} ({self.d - 1} values), "
                             f"got {len(self.counts)}")
        if min(self.counts) < 0:
            raise ValueError("prefix counts must be non-negative")
        if self.counts[0] not in (0, 1):
            raise ValueError("B_0 must be 0 or 1")


def _finalize(counts: list[int], q: int, n: int, d: int, strict: bool,
              what: str) -> WeightDistribution:
    dist = WeightDistribution(tuple(counts))
    _require(dist.total() == q ** (n - d + 1), f"distribution from {what} does not total q^k")
    if strict and not dist.is_nonnegative():
        w = next(w for w, c in enumerate(counts) if c < 0)
        raise InconsistentPrefixError(
            f"inconsistent {what}: computed B_{w} = {counts[w]} < 0")
    return dist


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _single_sum_rows(n: int, d: int, q: int) -> Rows:
    """K_w = A_w - omega(n,d,w,0) and the columns omega(n,d,w,v), each
    seeded at w = d-1 and run down by the ratio of neighbouring omegas,

        omega(w+1) = omega(w) (n-w)(w-v) / -((w+1-v)(w-d+2)),

    which is exact: it is C(n-v, w-v) C(w-1-v, d-2-v) stepped once in
    each binomial.  The small factors are multiplied first and the sign
    rides in the divisor, so an entry costs two big-integer steps."""
    check_mds_params(n, d, q)
    A = mds_weight_distribution(n, d, q).counts
    cols = []
    for v in range(d - 1):
        c = omega(n, d, d - 1, v)
        col = [c]
        for w in range(d - 1, n):
            c = c * ((n - w) * (w - v)) // -((w + 1 - v) * (w - d + 2))
            col.append(c)
        cols.append(tuple(col))
    return tuple(map(sub, A[d - 1:], cols[0])), tuple(cols)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _double_sum_rows(n: int, d: int, q: int) -> Rows:
    """K_w = C(n,w) T(w, w-d+1) by the T recurrence, T(d-1, 0) = 1, and
    the columns of the double sums

        sum_{j=w-d+2}^{w-v} (-1)^j C(j+n-w, j) C(n-v, w-j-v).

    Each term is C(n-v, m) C(m, i) with m = w-v and i = m-j, so the sum
    is (-1)^m C(n-v, m) S(m, d-2-v), where S(m, l) = sum_{i<=l} (-1)^i
    C(m, i) comes from the Pascal table S(m+1, l) = S(m, l) - S(m, l-1),
    S(m, 0) = 1, and (-1)^m C(n-v, m) runs down the column, its sign
    carried in the divisor -(m+1)."""
    check_mds_params(n, d, q)
    known = []
    t = 1  # T(w, w-d+1)
    c_nw = binom(n, d - 1)  # C(n, w)
    e = 1 - d  # (-1)^(m+1) C(w, m+1)
    for w in range(d - 1, n + 1):
        m = w - d + 1
        known.append(c_nw * t)
        t = (q - 1) * t + e
        c_nw = c_nw * (n - w) // (w + 1)
        e = e * (w + 1) // -(m + 2)
    # S[m][l] for m = 0..n and l = 0..d-2
    S = [[1] * (d - 1)]
    for _ in range(n):
        prev = S[-1]
        S.append([1, *map(sub, prev[1:], prev)])
    cols = []
    for v in range(d - 1):
        l = d - 2 - v
        m0 = d - 1 - v
        c = (-1) ** m0 * binom(n - v, m0)  # (-1)^m C(n-v, m)
        col = []
        for m in range(m0, n - v + 1):
            col.append(c * S[m][l])
            c = c * (n - v - m) // -(m + 1)
        cols.append(tuple(col))
    return tuple(known), tuple(cols)


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


def bonneau_transformed(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Full coset distribution from its low-weight prefix, single-sum form."""
    n, d, q = prefix.n, prefix.d, prefix.q
    B = list(prefix.counts) + _tail(_single_sum_rows(n, d, q), prefix.counts)
    return _finalize(B, q, n, d, strict, "prefix")


def bonneau_original(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Same distribution through the classical double-sum form."""
    n, d, q = prefix.n, prefix.d, prefix.q
    B = list(prefix.counts) + _tail(_double_sum_rows(n, d, q), prefix.counts)
    return _finalize(B, q, n, d, strict, "prefix")


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _b_low_column(n: int, d: int) -> tuple[int, ...]:
    """(-1)^(w-d) C(n-d+2, n-w), the coefficient of B_{d-2} in B_w of the
    weight-2 and weight-(d-2) forms, for w = d-1..n, by the ratio
    C(N, k-1) = C(N, k) k / (N-k+1) as n-w steps down from n-d+1, the
    sign carried in the divisor."""
    c = -(n - d + 2)  # the signed binomial at w = d-1
    col = [c]
    for w in range(d - 1, n):
        c = c * (n - w) // -(w - d + 3)
        col.append(c)
    return tuple(col)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def dist_weight1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all n(q-1) weight-1 cosets."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    known, cols = _single_sum_rows(n, d, q)
    B = [0] * (n + 1)
    B[1] = 1
    B[d - 1] = binom(n - 1, d - 1)
    B[d:] = map(add, known[1:], cols[1][1:])
    return _finalize(B, q, n, d, strict=True, what="weight-1 coset parameters")


def dist_weight_mid(n: int, d: int, q: int, W: int, knowns) -> WeightDistribution:
    """Coset distribution for mid-range coset weights W.

    Low branch (2 <= W <= floor((d-1)/2), d >= 5): the coset has a unique
    leader, so B_W = 1 contributes its own term.  High branch
    (floor((d+1)/2) <= W <= d-3, d >= 6): B_W is among the knowns.
    `knowns` lists B_{d-W}..B_{d-2}, so W-1 values.
    """
    check_mds_params(n, d, q)
    knowns = tuple(int(b) for b in knowns)
    low = 2 <= W <= (d - 1) // 2
    high = (d + 1) // 2 <= W <= d - 3
    if not (low or high):
        raise ValueError(f"W={W} outside both mid-range branches for d={d}")
    if len(knowns) != W - 1:
        raise ValueError(f"need the {W - 1} values B_{d - W}..B_{d - 2}, got {len(knowns)}")
    B = [0] * (d - 1)
    if low:
        B[W] = 1
    B[d - W:] = knowns
    B += _tail(_single_sum_rows(n, d, q), B)
    return _finalize(B, q, n, d, strict=True, what="mid-weight knowns")


def dist_weight_d2(n: int, d: int, q: int, b_low: int,
                   strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-(d-2) coset from its B_{d-2} alone."""
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    if b_low < 1:
        raise ValueError("a weight-(d-2) coset has B_{d-2} >= 1")
    known, _ = _single_sum_rows(n, d, q)
    B = [0] * (d - 1)
    B[d - 2] = b_low
    B += [k + b_low * t for k, t in zip(known, _b_low_column(n, d))]
    return _finalize(B, q, n, d, strict, "B_{d-2}")


@lru_cache(maxsize=ROW_CACHE_SIZE)
def dist_weight_d1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all weight-(d-1) (farthest-off) cosets."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    B[d - 1] = binom(n, d - 1)
    # (-1)^(w-d) C(n,w) C(w-1,d-2), from w = d on by the ratio of neighbours
    c = B[d - 1] * (n - d + 1) * (d - 1) // d
    for w in range(d, n + 1):
        B[w] = A[w] - c
        c = c * ((n - w) * w) // -((w + 1) * (w - d + 2))
    return _finalize(B, q, n, d, strict=True, what="farthest-off parameters")


def dist_weight2(n: int, d: int, q: int, b_low: int,
                 strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-2 coset (d >= 5) from its B_{d-2}."""
    if d < 5:
        raise ValueError(f"need d >= 5, got {d}")
    if b_low < 0:
        raise ValueError("B_{d-2} must be non-negative")
    known, cols = _single_sum_rows(n, d, q)
    B = [0] * (d - 1)
    B[2] = 1
    B[d - 2] = b_low
    B += [k + c + b_low * t for k, c, t in zip(known, cols[2], _b_low_column(n, d))]
    return _finalize(B, q, n, d, strict, "B_{d-2}")


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
    if dist_a.n != n or dist_b.n != n:
        raise ValueError("distribution lengths disagree with n")
    wa, wb = dist_a.min_positive_weight(), dist_b.min_positive_weight()
    comparable = wa == wb and wa in (2, d - 2)
    sign = 1 if (n + d) % 2 == 0 else -1
    pairs = []
    matched = comparable
    for w in range(d - 1, n + 1):
        mirror = n + d - 2 - w
        _require(0 <= mirror <= n, f"mirror weight {mirror} outside 0..{n}")
        da = sign * dist_a.counts[w] - dist_a.counts[mirror]
        db = sign * dist_b.counts[w] - dist_b.counts[mirror]
        pairs.append((w, da, db))
        if da != db:
            matched = False
    return SymmetryReport(tuple(pairs), comparable, matched)


def weight2_aggregate(n: int, d: int, q: int) -> int:
    """Total number of weight-(d-2) vectors over all weight-2 cosets:
    (q-1) C(n,2) C(n-2,d-2), valid for d >= 5."""
    if d < 5:
        raise ValueError(f"need d >= 5, got {d}")
    if d > n:
        raise ValueError(f"need d <= n, got d={d}, n={n}")
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
    if d < 5:
        raise ValueError(f"need d >= 5, got {d}")
    value = Fraction(binom(n - 2, d - 2), q - 1)
    holds = value.denominator == 1
    if n == q + 1 and math.gcd(q - 1, d - 2) == 1:
        _require(holds, "C(n-2,d-2)/(q-1) is not an integer though n = q+1 "
                 "and gcd(q-1, d-2) = 1")
    return Weight2IdentityCondition(holds, value)
