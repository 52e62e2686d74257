"""Closed-form coset weight distributions of MDS codes.

Given an [n, k, d]_q MDS code with codeword counts A_w and a coset V
whose low-weight counts B_0..B_{d-2} are known, the single-sum form of
the Bonneau relation gives, for w >= d-1,

    B_w = A_w - omega(n,d,w,0) + sum_{v=0}^{d-2} omega(n,d,w,v) * B_v .

`bonneau_original` implements the classical double-sum form of the same
relation; the two are implemented independently and must agree
everywhere, which the test suite enforces.  The per-weight functions
(weight 1, mid-range weights, weight d-2, weight d-1, weight 2)
implement the specialized formulas directly rather than delegating to
the general relation, so each specialization is checked twice: against
the general formula and against exact censuses.

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

from .codes import WeightDistribution, _require
from .combinat import binom, omega
from .mds import mds_weight_distribution


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
        if len(self.counts) != self.d - 1:
            raise ValueError(
                f"prefix must list B_0..B_{self.d - 2} ({self.d - 1} values), got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
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


def bonneau_transformed(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Full coset distribution from its low-weight prefix, single-sum form."""
    n, d, q = prefix.n, prefix.d, prefix.q
    A = mds_weight_distribution(n, d, q).counts
    B = list(prefix.counts) + [0] * (n - d + 2)
    for w in range(d - 1, n + 1):
        val = A[w] - omega(n, d, w, 0)
        for v in range(d - 1):
            if prefix.counts[v]:
                val += omega(n, d, w, v) * prefix.counts[v]
        B[w] = val
    return _finalize(B, q, n, d, strict, "prefix")


def bonneau_original(prefix: LowWeightPrefix, strict: bool = True) -> WeightDistribution:
    """Same distribution through the classical double-sum form."""
    n, d, q = prefix.n, prefix.d, prefix.q
    B = list(prefix.counts) + [0] * (n - d + 2)
    for w in range(d - 1, n + 1):
        B[w] = _bw_known_part(n, d, q, w) + _bw_prefix_part(prefix, w)
    return _finalize(B, q, n, d, strict, "prefix")


@lru_cache(maxsize=None)
def _bw_known_part(n: int, d: int, q: int, w: int) -> int:
    acc = 0
    for j in range(w - d + 2):
        term = binom(w, j) * q ** (w - d + 1 - j)
        acc += -term if j % 2 else term
    return binom(n, w) * acc


@lru_cache(maxsize=None)
def _bw_prefix_coeff(n: int, d: int, w: int, v: int) -> int:
    acc = 0
    for j in range(w - d + 2, w - v + 1):
        term = binom(j + n - w, j) * binom(n - v, w - j - v)
        acc += -term if j % 2 else term
    return acc


def _bw_prefix_part(prefix: LowWeightPrefix, w: int) -> int:
    n, d = prefix.n, prefix.d
    return sum(_bw_prefix_coeff(n, d, w, v) * prefix.counts[v]
               for v in range(d - 1) if prefix.counts[v])


def dist_weight1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all n(q-1) weight-1 cosets."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    B[1] = 1
    B[d - 1] = binom(n - 1, d - 1)
    for w in range(d, n + 1):
        B[w] = A[w] - omega(n, d, w, 0) + omega(n, d, w, 1)
    return _finalize(B, q, n, d, strict=True, what="weight-1 coset parameters")


def dist_weight_mid(n: int, d: int, q: int, W: int, knowns) -> WeightDistribution:
    """Coset distribution for mid-range coset weights W.

    Low branch (2 <= W <= floor((d-1)/2), d >= 5): the coset has a unique
    leader, so B_W = 1 contributes its own term.  High branch
    (floor((d+1)/2) <= W <= d-3, d >= 6): B_W is among the knowns.
    `knowns` lists B_{d-W}..B_{d-2}, so W-1 values.
    """
    knowns = tuple(int(b) for b in knowns)
    low = 2 <= W <= (d - 1) // 2
    high = (d + 1) // 2 <= W <= d - 3
    if low and d < 5:
        raise ValueError("low branch needs d >= 5")
    if high and d < 6:
        raise ValueError("high branch needs d >= 6")
    if not (low or high):
        raise ValueError(f"W={W} outside both mid-range branches for d={d}")
    if len(knowns) != W - 1:
        raise ValueError(f"need the {W - 1} values B_{d - W}..B_{d - 2}, got {len(knowns)}")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    if low:
        B[W] = 1
    for i, v in enumerate(range(d - W, d - 1)):
        B[v] = knowns[i]
    for w in range(d - 1, n + 1):
        val = A[w] - omega(n, d, w, 0)
        if low:
            val += omega(n, d, w, W)
        for v in range(d - W, d - 1):
            if B[v]:
                val += omega(n, d, w, v) * B[v]
        B[w] = val
    return _finalize(B, q, n, d, strict=True, what="mid-weight knowns")


def dist_weight_d2(n: int, d: int, q: int, b_low: int,
                   strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-(d-2) coset from its B_{d-2} alone."""
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    if b_low < 1:
        raise ValueError("a weight-(d-2) coset has B_{d-2} >= 1")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    B[d - 2] = b_low
    for w in range(d - 1, n + 1):
        sign = -1 if (w - d) % 2 else 1
        B[w] = A[w] - omega(n, d, w, 0) + sign * binom(n - d + 2, n - w) * b_low
    return _finalize(B, q, n, d, strict, "B_{d-2}")


def dist_weight_d1(n: int, d: int, q: int) -> WeightDistribution:
    """The one distribution shared by all weight-(d-1) (farthest-off) cosets."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    B[d - 1] = binom(n, d - 1)
    for w in range(d, n + 1):
        sign = -1 if (w - d) % 2 else 1
        B[w] = A[w] - sign * binom(n, w) * binom(w - 1, d - 2)
    return _finalize(B, q, n, d, strict=True, what="farthest-off parameters")


def dist_weight2(n: int, d: int, q: int, b_low: int,
                 strict: bool = True) -> WeightDistribution:
    """Coset distribution of a weight-2 coset (d >= 5) from its B_{d-2}."""
    if d < 5:
        raise ValueError(f"need d >= 5, got {d}")
    if b_low < 0:
        raise ValueError("B_{d-2} must be non-negative")
    A = mds_weight_distribution(n, d, q).counts
    B = [0] * (n + 1)
    B[2] = 1
    B[d - 2] = b_low
    for w in range(d - 1, n + 1):
        sign = -1 if (w - d) % 2 else 1
        B[w] = (A[w] - omega(n, d, w, 0) + omega(n, d, w, 2)
                + sign * binom(n - d + 2, n - w) * b_low)
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
