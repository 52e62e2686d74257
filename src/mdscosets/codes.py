"""Linear codes over GF(q) given by parity-check matrices, and the one
exact counting kernel every census, distance and covering radius comes
from.

The kernel is Wolf's syndrome trellis (J. K. Wolf, IEEE Trans. IT 24(1),
1978): a dense table T[s, w] of how many vectors of weight w <= wmax have
syndrome s, grown one coordinate (one parity-check column) at a time.
Every nonzero multiple of a syndrome has the same counts, so the table
runs on the quotient by scalars: one row for the zero syndrome and one
for each point of PG(n-k-1, q), 1 + (q^(n-k)-1)/(q-1) rows in all.
One type, CosetCensus, holds the table at any wmax: at wmax = n it is
the full coset census, at smaller wmax the low-weight census, where a
syndrome no vector of weight <= wmax reaches has weight -1.  At
wmax >= n - k it reaches every syndrome, and the first such census of a
LinearCode leaves it its coset classes as a memo: the cosets grouped by
(W, B_0..B_wmax) from one sort of the rows, from which the minimum
distance, the covering radius, the leader profile (how many cosets of
each weight W have each number B_W of minimum-weight vectors) and the
distinct prefixes B_0..B_{n-k-1} of the weight-2 cosets are read.  A
code asked for these before any census reached n - k runs one at n - k,
so no code runs the kernel twice for them: a census that comes first,
from the code's own run or from a prefix of a longer code's run, fills
the memo.  Each
column is admitted through the sums over the lines through its point (see
_syndrome_trellis), about three passes over each weight row it updates
whatever q is.  A vector on j coordinates weighs at most j, so column j
updates only the rows of weight 1 to min(wmax, j).  The budget counts
n*wmax*(1 + (q^(n-k)-1)/(q-1)) steps per census, an upper bound on the
row entries updated, not q^n vector visits, and a census that fits it
holds at most budget/n + 1 + (q^(n-k)-1)/(q-1) table entries.  Every
census takes one path, _prefix_censuses: one run on the longest code of
a chain of nested codes hands back its table after each of their
lengths, the censuses of the codes on those first coordinates at the
run's wmax.  coset_census and low_weight_census are that path on a
chain of one code.  A prefix no longer than wmax gets its full census,
and a longer one the low-weight census at wmax, which certifies it once
wmax reaches its n - k.

Every count is exact.  The work is checked against the code's budget,
fixed when the code is built, and every count against the int64 range
before any table is allocated; anything out of range is refused with
the limit named, never sampled.  The kernel counts in int64, and a census
keeps its table narrowed (see _narrowed): a reader promotes before arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combinat import binom
from .gf import GF

DEFAULT_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """A count would exceed its work budget or the int64 range."""


class InvariantError(RuntimeError):
    """A computed result breaks an identity that every correct result satisfies."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


@dataclass(frozen=True)
class WeightDistribution:
    """Exact vector counts per Hamming weight, B_0..B_n."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("a weight distribution needs at least B_0")
        for c in self.counts:
            if not isinstance(c, int):
                raise ValueError("weight distribution counts must be ints")

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)

    def num_nonzero_weights(self) -> int:
        """s(C): how many positive weights occur."""
        return sum(1 for c in self.counts[1:] if c)

    def min_positive_weight(self) -> int | None:
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        return None

    def is_nonnegative(self) -> bool:
        return min(self.counts) >= 0


def _label_array(field: GF, values) -> np.ndarray:
    """values as an int64 array of element labels of the field, refusing
    the first entry that is not an integer in [0, q)."""
    labels = np.asarray(values)
    if labels.dtype.kind in "iu":
        ok = (labels >= 0) & (labels < field.q)
    else:  # the entries as given, to name the first one that is no label
        labels = np.array(values, dtype=object)
        ok = np.vectorize(lambda a: isinstance(a, (int, np.integer)) and 0 <= a < field.q,
                          otypes=[bool])(labels)
    if not ok.all():
        bad = labels.ravel().tolist()[int(np.argmin(ok))]
        raise ValueError(f"{bad!r} is not an element label of GF({field.q})")
    return labels.astype(np.int64)


class Matrix:
    """Dense matrix over GF(q): an (nrows, ncols) array of element labels."""

    def __init__(self, field: GF, rows):
        self.field = field
        if not len(rows):
            raise ValueError("a matrix needs at least one row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        self.labels = _label_array(field, rows)
        self.nrows, self.ncols = self.labels.shape

    def drop_columns(self, idxs) -> "Matrix":
        return Matrix(self.field, np.delete(self.labels, list(idxs), axis=1))

    def rank(self) -> int:
        reduced, pivots = _rref(self.field, self.labels)
        return len(pivots)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over GF({self.field.q}))"


def _rref(field: GF, labels: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (nonzero rows, pivot columns)."""
    work = np.array(labels, dtype=np.int64)
    nrows, ncols = work.shape
    minus_one = field.p - 1  # the label of -1: constant digit p - 1
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        nonzero = np.flatnonzero(work[r:, c])
        if not nonzero.size:
            continue
        work[[r, r + nonzero[0]]] = work[[r + nonzero[0], r]]
        work[r] = field.mul_array(field.inv_array(work[r, c]), work[r])
        # row i less work[i, c] times the pivot row, for every row i but r
        factors = field.mul_array(minus_one, work[:, c])
        factors[r] = 0
        work = field.add_array(work, field.mul_array(factors[:, None], work[r]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


class LinearCode:
    """A length-n linear code over GF(q) defined by a full-rank parity-check matrix.

    `budget` caps the work of every census run on the code.  The first
    census of the code at weight n-k or more leaves it its coset classes,
    which min_distance, covering_radius, leader_profile and
    weight2_prefixes read; asked before any such census, they run one at
    n-k.
    """

    def __init__(self, H: Matrix, budget: int = DEFAULT_BUDGET):
        rank = H.rank()
        if rank != H.nrows:
            raise ValueError(
                f"parity-check matrix is rank-deficient: rank {rank} < {H.nrows} rows")
        self.H = H
        self.budget = budget
        self.field = H.field
        self.n = H.ncols
        self.k = H.ncols - H.nrows
        self._classes: list[CosetClass] | None = None  # see _census_from_table

    @property
    def r(self) -> int:
        """Redundancy n - k (number of parity checks)."""
        return self.n - self.k

    def _census_classes(self) -> list[CosetClass]:
        """The classes of the first census of this code that reached
        weight n-k, or of one run at n-k now.  A census at weight n-k
        reaches every syndrome, since H has rank n-k."""
        if self._classes is None:
            low_weight_census(self, self.r)
        return self._classes

    def leader_profile(self) -> dict[int, dict[int, int]]:
        """{W: {B_W: number of weight-W cosets}} for every coset weight W,
        where B_W counts the coset's minimum-weight vectors."""
        profile: dict[int, dict[int, int]] = {}
        for c in self._census_classes():
            tally = profile.setdefault(c.weight, {})
            B = c.distribution.counts[c.weight]
            tally[B] = tally.get(B, 0) + c.count
        return profile

    def min_distance(self) -> int:
        """Smallest positive codeword weight, read from the zero syndrome's
        class up to n-k; none there means d = n-k+1 (Singleton)."""
        if self.k == 0:
            raise ValueError("minimum distance is undefined for the zero code")
        zero = self._census_classes()[0].distribution.counts
        return next((w for w in range(1, self.r + 1) if zero[w]), self.r + 1)

    def covering_radius(self) -> int:
        """Max coset weight: the weight of the last class."""
        return self._census_classes()[-1].weight

    def weight2_prefixes(self) -> tuple[tuple[int, ...], ...]:
        """The distinct counts B_0..B_{n-k-1} of the weight-2 cosets,
        ascending: for an MDS code, the low-weight prefixes B_0..B_{d-2}
        that fix each weight-2 coset's whole distribution."""
        return tuple(dict.fromkeys(c.distribution.counts[:self.r]
                                   for c in self._census_classes() if c.weight == 2))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))"


# A census table has one row per syndrome up to scalars.  A vector and
# its multiples have the same weight, and H(alpha x) = alpha Hx, so every
# nonzero multiple of a syndrome s has the row of s.  Row 0 is the zero
# syndrome.  Each other row is a point of PG(n-k-1, q), given by the
# syndrome whose most significant nonzero digit s[t] is 1; its row is
# 1 + (q^t - 1)/(q - 1) + sum_{i<t} s[i] q^i, so the rows of the points
# with t = 0, 1, ... follow one another and no q^(n-k) table is needed.

def census_rows(q: int, r: int) -> int:
    """Rows of a census table: the zero syndrome and the points of PG(r-1, q)."""
    return 1 + (q**r - 1) // (q - 1)


def syndrome_row(f: GF, svec):
    """The census row of the syndrome svec: an int for int entries, and for
    label-array entries the array of rows, entry by entry."""
    q = f.q
    digits = np.asarray(svec, dtype=np.int64)
    nonzero = digits != 0
    top = len(digits) - 1 - np.argmax(nonzero[::-1], axis=0)  # most significant nonzero digit
    lead = np.take_along_axis(digits, top[None], axis=0)[0]
    powers = q ** np.arange(len(digits), dtype=np.int64)
    value = np.tensordot(powers, f.mul_array(digits, f.inv_array(lead)), axes=1)
    qt = powers[top]
    row = np.where(nonzero.any(axis=0), 1 + (qt - 1) // (q - 1) + value % qt, 0)
    return int(row) if digits.ndim == 1 else row


def _point_lines(f: GF, col: np.ndarray, add: np.ndarray | None,
                 mul: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The census rows in line order for the nonzero column h, and its
    inverse; add and mul are the field's (q, q) tables as int64, or None
    at r = 2, where the few sums and products come from add_array and
    mul_array.

    With h scaled so that its most significant nonzero digit p is 1, let H
    be its point.  The L = (q^(r-1) - 1)/(q - 1) lines through H split the
    other points into groups of q: entry c*L + i of the order is the c-th
    point of line i, so a sum over the leading axis of the reshaped (q, L)
    gather is one sum per line.  The last two entries are the rows of the
    zero syndrome and of H.  Line i runs through one point u with digit p
    equal to 0.  When u's leading digit s lies below p, the line is u and
    the points a*u + h, a != 0, whose digit p is 1.  When it lies above
    p, the points u + c*h, c in F_q, are already scaled, with digit c at
    p.  Both kinds are built digit by digit, in integers: no point is
    scaled.
    """
    q, r = f.q, len(col)
    p = int(np.flatnonzero(col)[-1])
    inv = f.inv_array(col[p])
    h = (mul[inv, col] if mul is not None else f.mul_array(inv, col)).tolist()
    first = [census_rows(q, t) for t in range(r + 1)]  # row of the unit vector e_t
    order = np.empty(first[r], dtype=np.int64)
    lines = order[:-2].reshape(q, (first[r] - 2) // q)
    point = first[p] + sum(h[t] * q**t for t in range(p))
    order[-2:] = 0, point

    # u leading at s < p, in row order 1, 2, ...: a*u + h has digit
    # add(a, h_s) at s and h_t above s; ahead[a - 1, z] is the part below
    # s for u's digits z there
    lines[0, :first[p] - 1] = np.arange(1, first[p])
    rest, ahead = point, np.zeros((q - 1, 1), dtype=np.int64)
    for s in range(p):
        rest -= h[s] * q**s
        digit = add[1:, h[s]] if add is not None else f.add_array(np.arange(1, q), h[s])
        lines[1:, first[s] - 1:first[s + 1] - 1] = rest + (digit * q**s)[:, None] + ahead
        if s + 1 < p:
            ahead = ((add[mul[1:], h[s]] * q**s)[:, :, None] + ahead[:, None, :]).reshape(q - 1, -1)

    # u leading at t > p: row first[t] + (digits p+1..t-1) + c*q^p + low[c, z],
    # low[c, z] the digits below p of u + c*h for u's digits z there
    if p < r - 1:
        low = np.zeros((q, 1), dtype=np.int64)
        for t in reversed(range(p)):
            low = (low[:, :, None] + (add[:, mul[:, h[t]]].T * q**t)[:, None, :]).reshape(q, -1)
        low += (np.arange(q, dtype=np.int64) * q**p)[:, None]
        high = np.concatenate([first[t] + q**(p + 1) * np.arange(q**(t - p - 1), dtype=np.int64)
                               for t in range(p + 1, r)])
        lines[:, first[p] - 1:] = (high[None, :, None] + low[:, None, :]).reshape(q, -1)

    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size, dtype=np.int64)
    return order, inverse


def census_refusal(code: LinearCode, wmax: int) -> BudgetExceededError | None:
    """The refusal a census of the code at wmax meets, or None when it may
    run: its work over the code's budget, counted in
    n*wmax*(1 + (q^(n-k) - 1)/(q - 1)) steps, or counts that could pass
    the int64 range.  The steps bound the entries of the weight rows the
    columns update: column j updates min(wmax, j) rows, at most wmax."""
    return _census_refusal(code.field.q, code.n, code.r, wmax, code.budget)


def _census_refusal(q: int, n: int, r: int, wmax: int, budget: int
                    ) -> BudgetExceededError | None:
    """census_refusal from the numbers alone, for a length-n code over
    GF(q) with r parity checks, before either is built."""
    work = n * wmax * census_rows(q, r)
    if work > budget:
        return BudgetExceededError(
            f"syndrome trellis needs {work} steps n*wmax*(1+(q^(n-k)-1)/(q-1)), "
            f"over the budget of {budget}")
    vectors = sum(binom(n, w) * (q - 1) ** w for w in range(wmax + 1))
    if vectors >= 2**63:
        return BudgetExceededError(
            f"{vectors} vectors of weight <= {wmax} overflow the int64 counts "
            f"(limit 2^63)")
    return None


def _narrowed(rows: np.ndarray) -> np.ndarray:
    """Weight-major int64 rows as a census table of the narrowest signed type."""
    narrow = rows.T.astype(np.min_scalar_type(-1 - int(rows.max())), order="C")
    _require(np.array_equal(narrow, rows.T), f"census counts do not fit {narrow.dtype}")
    return narrow


def _syndrome_trellis(code: LinearCode, wmax: int, lengths: Iterable[int]
                      ) -> list[np.ndarray]:
    """T[s, w]: how many vectors of weight w <= wmax have syndrome s, one
    census row s per point (see census_rows), after each of the prefix
    lengths.

    Starting from the empty word (T[0, 0] = 1), coordinate j is admitted by

        T_j[s, w] = T_{j-1}[s, w] + sum_{c != 0} T_{j-1}[s - c*h_j, w - 1],

    where h_j is column j of H.  Let h_j != 0 have point H.  For a point
    P != H the q - 1 syndromes s - c*h_j lie one on each point of the line
    PH but H, P itself included, so the sum is S - T_{j-1}[P, w - 1], S the
    sum of T_{j-1}[., w - 1] over the q points of that line but H.  For H
    it is T_{j-1}[0, w - 1] + (q - 2) T_{j-1}[H, w - 1], and for the zero
    syndrome (q - 1) T_{j-1}[H, w - 1].  So each weight row takes one
    gather into line order (_point_lines), one sum per line and one gather
    back.  A vector on the first j coordinates weighs at most j, so column
    j updates only the rows w <= min(wmax, j).  It updates them from the
    top down, so row w - 1 is still T_{j-1} when row w reads it.  A zero
    column adds (q - 1) T_{j-1}[s, w - 1].

    Returns the tables after each of the lengths, in ascending order: the
    one after j columns is the table of the code on the first j
    coordinates at weight min(wmax, j), narrowed (see _narrowed).  Both
    refusals (see census_refusal) fire before any table exists.
    """
    f = code.field
    q, n = f.q, code.n
    if not 0 <= wmax <= n:
        raise ValueError(f"wmax={wmax} outside [0, {n}]")
    lengths = sorted(set(lengths))
    if not lengths or not 0 <= lengths[0] <= lengths[-1] <= n:
        raise ValueError(f"prefix lengths {lengths} not a nonempty set in [0, {n}]")
    refusal = census_refusal(code, wmax)
    if refusal is not None:
        raise refusal
    states = census_rows(q, code.r)

    table = np.zeros((wmax + 1, states), dtype=np.int64)  # weight-major while growing
    table[0, 0] = 1
    # the table after j columns, in the census layout: row per point, narrowed
    snapshots = [_narrowed(table[:1])] if lengths[0] == 0 else []
    # two row buffers serve every update; take's default mode="raise"
    # would buffer `out` again, and the indices are a permutation anyway
    lines, back = np.empty(states, dtype=np.int64), np.empty(states, dtype=np.int64)
    grouped = lines[:-2].reshape(q, (states - 2) // q)  # [c, i]: point c of line i
    # (q, q) tables only at r >= 3, where a line order is about q^2 long
    # anyway; at r = 2 _point_lines reads none
    add = mul = None
    if code.r >= 3:
        add = f.add_table().astype(np.int64)
        mul = f.mul_array(np.arange(q)[:, None], np.arange(q))
    for j, col in enumerate(code.H.labels.T[:lengths[-1]], 1):
        top = min(wmax, j)
        if not col.any():
            for w in range(top, 0, -1):
                table[w] += (q - 1) * table[w - 1]
        else:
            order, inverse = _point_lines(f, col, add, mul)
            for w in range(top, 0, -1):
                np.take(table[w - 1], order, out=lines, mode="clip")
                zero, point = lines[-2:]
                grouped -= grouped.sum(axis=0)  # T[P] - (sum of T over P's line less H)
                lines[-2:] = -(q - 1) * point, -zero - (q - 2) * point
                np.take(lines, inverse, out=back, mode="clip")
                table[w] -= back
        if j in lengths:
            snapshots.append(_narrowed(table[:top + 1]))
    return snapshots


@dataclass(frozen=True)
class CosetClass:
    """All cosets sharing one weight and one distribution B_0..B_wmax."""

    weight: int
    distribution: WeightDistribution
    count: int


class CosetCensus:
    """Per-point counts of the vectors of weight <= wmax, from one trellis run.

    The table has one row per census row (see census_rows): the zero
    syndrome, then one row for the q - 1 syndromes of each point, and
    every count of cosets counts a point's row q - 1 times.  At wmax = n
    the rows are the full coset weight distributions; at smaller wmax they
    are exact as far as they reach.  A syndrome reached by no vector of
    weight <= wmax has weight -1 here (meaning: bigger than wmax), and its
    row is all zero.  Rows are grouped into `classes` only when `classes`
    is first read.  The kernel's table comes narrowed (see _narrowed).
    """

    def __init__(self, code: LinearCode, table: np.ndarray):
        self.code = code
        q, n, k = code.field.q, code.n, code.k
        self.total_cosets = q ** code.r
        self.table = table  # (1 + (q^r-1)/(q-1), wmax+1) exact counts
        self.wmax = table.shape[1] - 1
        first = (table > 0).argmax(axis=1)  # 0 on an all-zero row too
        has = table[np.arange(len(table)), first] > 0
        # -1..wmax in the smallest integer type, as the table is kept
        self.weights = np.where(has, first, -1).astype(np.min_scalar_type(-1 - self.wmax))
        self.fully_covered = bool(has.all())
        if self.wmax == n:
            # sum accumulates a narrow integer type in the platform integer
            _require(int(table[0].sum()) + (q - 1) * int(table[1:].sum()) == q**n,
                     "census table does not hold q^n vectors")
            _require(bool(np.all(table.sum(axis=1) == q**k)),
                     "a census row does not hold q^k vectors")
        _require(self.count_of_weight(0) == 1, "census needs exactly one weight-0 coset")

    @cached_property
    def classes(self) -> list[CosetClass]:
        """Syndromes sharing one (weight, B_0..B_wmax), sorted by that key."""
        table, weights = self.table, self.weights
        # sort by (weight, B_0, ..., B_wmax); lexsort's last key is the primary one
        order = np.lexsort((*table.T[::-1], weights))
        rows = np.take(table, order, axis=0)
        # a class starts where some B_w changes: the weight is a function of the row
        starts = np.zeros(len(rows), dtype=bool)
        starts[0] = True
        for column in rows.T:
            starts[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(starts)
        counts = np.add.reduceat(np.where(order == 0, 1, self.code.field.q - 1), starts)
        classes = [CosetClass(w, WeightDistribution(tuple(row)), cnt)
                   for w, row, cnt in zip(weights[order[starts]].tolist(),
                                          rows[starts].tolist(), counts.tolist())]
        _require(sum(c.count for c in classes) == self.total_cosets,
                 "census classes do not hold q^(n-k) cosets")
        return classes

    def classes_of_weight(self, W: int) -> list[CosetClass]:
        return [c for c in self.classes if c.weight == W]

    def count_of_weight(self, W: int) -> int:
        q = self.code.field.q
        return int(self.weights[0] == W) + (q - 1) * int(np.count_nonzero(self.weights[1:] == W))

    def code_distribution(self) -> WeightDistribution:
        return self.distribution_of_syndrome((0,) * self.code.r)

    def distribution_of_syndrome(self, svec) -> WeightDistribution:
        row = syndrome_row(self.code.field, svec)
        return WeightDistribution(tuple(self.table[row].tolist()))


def _census_from_table(code: LinearCode, table: np.ndarray) -> CosetCensus:
    """The census of a trellis table of the code.  The first census of the
    code that reaches weight n-k leaves the code its classes as the memo;
    only they are kept, not the table, so a corpus of codes does not hold
    every table alive."""
    census = CosetCensus(code, table)
    if code._classes is None and census.wmax >= code.r:
        _require(census.fully_covered, "a syndrome is unreached at weight n-k")
        code._classes = census.classes
    return census


def _prefix_censuses(chain: list[LinearCode], wmax: int) -> list[CosetCensus]:
    """The census at weight min(wmax, n) of each code of `chain`,
    ascending in n, where each code's H is the first n columns of the last
    one's: one trellis run on the last code at wmax, its table taken after
    each of their lengths.  A code longer than wmax gets the low-weight
    census at wmax, which fills its memo once wmax reaches its n-k.  A
    chain that is not nested is refused before the kernel runs."""
    longest = chain[-1]
    for code in chain:
        _require(np.array_equal(code.H.labels, longest.H.labels[:, :code.n]),
                 f"{code} is not a prefix of {longest}")
    tables = _syndrome_trellis(longest, wmax, [code.n for code in chain])
    return [_census_from_table(code, table) for code, table in zip(chain, tables)]


def coset_census(code: LinearCode) -> CosetCensus:
    """Exact weight distribution of every coset: the trellis at wmax = n."""
    return _prefix_censuses([code], code.n)[0]


def low_weight_census(code: LinearCode, wmax: int) -> CosetCensus:
    """Syndrome census of every vector of weight <= wmax: the trellis at wmax."""
    return _prefix_censuses([code], wmax)[0]
