"""Linear codes over GF(q) given by parity-check matrices, and the one
exact counting kernel every census, distance and covering radius comes
from.  A LinearCode holds its own parity-check matrix, H, as an int64
array of element labels, and checks the labels and its rank when it is
built.

The kernel is Wolf's syndrome trellis (J. K. Wolf, IEEE Trans. IT 24(1),
1978): a dense table T[s, w] of how many vectors of weight w <= wmax have
syndrome s, grown one coordinate (one parity-check column) at a time.
Every nonzero multiple of a syndrome has the same counts, so the table
runs on the quotient by scalars: one row for the zero syndrome and one
for each point of PG(n-k-1, q), 1 + (q^(n-k)-1)/(q-1) rows in all.
One type, CosetCensus, holds a table at any wmax as its classes, the
cosets grouped by (W, B_0..B_wmax) from one sort of the rows, and an
index that gives each row its class; the table itself is dropped.  At
wmax = n it is the full coset census, at smaller wmax the low-weight
census, where a syndrome no vector of weight <= wmax reaches has weight
-1.  At wmax >= n - k it reaches every syndrome, and the first such
census of a LinearCode, as it is built, checks that and leaves the code
its coset classes as a memo, from which the minimum distance, the
covering radius, the leader profile (how many cosets of each weight W
have each number B_W of minimum-weight vectors) and the distinct
prefixes B_0..B_{n-k-1} of the weight-2 cosets are read.  A code asked
for these before any census reached n - k runs one at n - k, so no code
runs the kernel twice for them: a census that comes first, from the
code's own run or from a prefix of a longer code's run, fills the memo.
Each column is admitted through the sums over the lines through its
point (see _syndrome_trellis), about three passes over each weight row
it updates whatever q is.  A vector on j coordinates weighs at most j,
so column j updates only the rows of weight 1 to min(wmax, j).  The
budget counts
n*wmax*(1 + (q^(n-k)-1)/(q-1)) steps per census, an upper bound on the
row entries updated, not q^n vector visits, and a run that fits it
holds at most budget/n + 1 + (q^(n-k)-1)/(q-1) table entries.  Every
census takes one path, _prefix_censuses: one run on a code hands over
its table after each prefix length asked for, the census at the run's
wmax of the code on those first coordinates, each classed before the
run goes on.  The code on the first n columns of H is built only when
the run reaches n, so the refusals come before any such code exists;
it must keep H's rank, as every prefix of at least d - 1 columns of an
MDS code's H does.  The run hands over the working table itself, valid
until it resumes, with its own row buffers freed, so a census holds its
table of wmax + 1 weight rows and at most five weight rows more, each
1 + (q^(n-k)-1)/(q-1) int64 entries.  coset_census and
low_weight_census are that path at the code's own length.  A prefix no
longer than wmax gets its full census, and a longer one the low-weight
census at wmax, which certifies it once wmax reaches its n - k.

Every count is exact.  `_charge` is the one budget rule: it refuses work
over a budget, both numbers named, never sampled.  It charges four
units: the kernel's steps against the code's budget, fixed when the code
is built, and a bisecant walk's point normalizations and plane entries
(geometry) and formula rows' bits (mds) against DEFAULT_BUDGET.  Beside
the kernel's charge a guard refuses counts that could pass the int64
range, before any table is allocated.  The kernel counts in int64, and
a census keeps its classes' counts as Python ints, so its totals check
exactly.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .combinat import binom
from .gf import GF, InvariantError, _check_ints

DEFAULT_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """A count would exceed its work budget or the int64 range."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


def _check_budget(budget) -> None:
    """Refuse a work budget that is not a positive int, naming it."""
    _check_ints(budget=budget)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")


def _as_int(value, name: str) -> int:
    """A given integer (a count, a column index) as a Python int, refused
    with its name unless it is an integer: a bool is none, though Python
    counts it an int, nor is a float or a string, which int() would read."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class WeightDistribution:
    """Exact vector counts per Hamming weight, B_0..B_n."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("a weight distribution needs at least B_0")
        for c in self.counts:
            if type(c) is not int:  # a bool is no count, though Python's int
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
    the first entry that is not an integer in [0, q).  A bool is no label,
    though Python counts it an int and numpy reads True among ints as 1."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        labels = values
        ok = (labels >= 0) & (labels < field.q)
    else:  # the entries as given, to name the first one that is no label
        labels = np.array(values, dtype=object)
        ok = np.vectorize(lambda a: (isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                                     and 0 <= a < field.q), otypes=[bool])(labels)
    if not ok.all():
        bad = labels.ravel().tolist()[int(np.argmin(ok))]
        raise ValueError(f"{bad!r} is not an element label of GF({field.q})")
    return labels.astype(np.int64)


def _rank(field: GF, labels: np.ndarray) -> int:
    """Rank over GF(q), by Gauss-Jordan elimination of a copy of the labels."""
    work = np.array(labels, dtype=np.int64)
    nrows, ncols = work.shape
    minus_one = field.p - 1  # the label of -1: constant digit p - 1
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
        r += 1
        if r == nrows:
            break
    return r


class LinearCode:
    """A length-n linear code over GF(q) defined by a full-rank parity-check matrix.

    `rows` are the matrix's rows of element labels of `field`; H keeps
    them as an (n-k, n) int64 array.  `budget`, a positive int, caps the
    work of every census run on the code.  The first census of the code
    at weight n-k or more leaves it its coset classes, which
    min_distance, covering_radius, leader_profile and weight2_prefixes
    read; asked before any such census, they run one at n-k.
    """

    def __init__(self, field: GF, rows, budget: int = DEFAULT_BUDGET):
        _check_budget(budget)
        if not len(rows):
            raise ValueError("a matrix needs at least one row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        self.H = _label_array(field, rows)
        nrows, self.n = self.H.shape
        rank = _rank(field, self.H)
        if rank != nrows:
            raise ValueError(
                f"parity-check matrix is rank-deficient: rank {rank} < {nrows} rows")
        self.budget = budget
        self.field = field
        self.k = self.n - nrows
        self._classes: list[CosetClass] | None = None  # see CosetCensus

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
    label-array entries the array of rows, entry by entry.  Each digit,
    least significant first, picks in place the lead and the row offset
    where it is nonzero; then the digits below the top one, scaled by the
    lead's inverse, are added, the offset taking the lead's own q^t off."""
    q = f.q
    digits = [np.asarray(d) for d in svec]
    top = len(digits) - 1
    lead = np.zeros(digits[0].shape, dtype=np.result_type(*digits))
    row = np.zeros(digits[0].shape, dtype=np.int64)
    for t, digit in enumerate(digits):
        nonzero = digit != 0
        np.copyto(lead, digit, where=nonzero)
        np.copyto(row, census_rows(q, t) - (q**t if t < top else 0), where=nonzero)
    scale = f.inv_array(lead)
    for t in range(top):  # summed in place, the q = 256 walk took 4x the page faults
        row = row + f.mul_array(digits[t], scale) * q**t
    return int(row) if row.ndim == 0 else row


def _row_syndrome(q: int, r: int, row: int) -> tuple[int, ...]:
    """The syndrome of r labels, least significant first, that syndrome_row
    puts in census row `row`: zero for row 0, else the point whose top
    nonzero digit t is 1, its digits below t row - census_rows(q, t) in
    base q."""
    digits = [0] * r
    if row:
        t = max(t for t in range(r) if census_rows(q, t) <= row)
        offset = row - census_rows(q, t)
        for i in range(t):
            offset, digits[i] = divmod(offset, q)
        digits[t] = 1
    return tuple(digits)


def _point_lines(f: GF, col: np.ndarray, add: np.ndarray | None,
                 mul: np.ndarray | None) -> np.ndarray:
    """The census rows in line order for the nonzero column h; add and mul
    are the field's (q, q) tables as int64, or None at r = 2, where the
    few sums and products come from add_array and mul_array.

    With h scaled so that its most significant nonzero digit p is 1, let H
    be its point.  The L = (q^(r-1) - 1)/(q - 1) lines through H split the
    other points into groups of q: entry c*L + i of the order is the c-th
    point of line i, so a sum over the leading axis of the reshaped (q, L)
    gather is one sum per line.  The last two entries are the rows of the
    zero syndrome and of H.  Line i runs through one point u with digit p
    equal to 0.  When u's leading digit s lies below p, the line is u and
    the points a*u + h, a != 0, whose digit p is 1.  When it lies above
    p, the points u + c*h, c in F_q, are already scaled, with digit c at
    p.  Both kinds are built digit by digit, in integers, into the order
    itself: no point is scaled, and the one temporary near a row long is
    the second kind's part up to digit p, when p = r - 2.
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
    # add(a, h_s) at s, h_t above s and add(a*z_t, h_t) below s for u's
    # digits z there.  So block s is block s-1, its part from digit s-1 up
    # swapped for head[a - 1] at s and up plus digit s-1
    lines[0, :first[p] - 1] = np.arange(1, first[p])
    rest = point
    for s in range(p):
        rest -= h[s] * q**s
        digit = add[1:, h[s]] if add is not None else f.add_array(np.arange(1, q), h[s])
        head = rest + digit * q**s
        block = lines[1:, first[s] - 1:first[s + 1] - 1]  # (q - 1, q^s)
        if s == 0:
            block[:, 0] = head
        else:
            step = (head - last_head)[:, None] + add[mul[1:], h[s - 1]] * q**(s - 1)
            np.add(step[:, :, None], last_block[:, None, :], out=block.reshape(q - 1, q, -1))
        last_head, last_block = head, block

    # u leading at t > p: row first[t] + (digits p+1..t-1) + c*q^p + low[c, z],
    # low[c, z] the digits up to p of u + c*h for u's digits z below p
    if p < r - 1:
        low = (np.arange(q, dtype=np.int64) * q**p)[:, None]
        for t in reversed(range(p)):
            low = (low[:, :, None] + (add[:, mul[:, h[t]]].T * q**t)[:, None, :]).reshape(q, -1)
        high = np.concatenate([first[t] + q**(p + 1) * np.arange(q**(t - p - 1), dtype=np.int64)
                               for t in range(p + 1, r)])
        # a view: each line's tail is contiguous, so the split needs no copy
        block = lines[:, first[p] - 1:].reshape(q, high.size, low.shape[1])
        np.add(high[:, None], low[:, None, :], out=block)
    return order


def _digit_count(x: int) -> int:
    """Decimal digits of x != 0, without converting it to a string: with
    t = floor(log10(2) * bit_length), |x| has t digits or t + 1."""
    x = abs(x)
    t = int(x.bit_length() * math.log10(2))
    return t + (x >= 10**t)


def _decimal(x: int) -> str:
    """x in decimal, or past Python's int-to-str digit limit its size, as
    "(a 5000-digit number)", signed: the one way a refusal names a count."""
    try:
        return f"{x}"
    except ValueError:  # past the limit, sys.get_int_max_str_digits()
        return ("-" if x < 0 else "") + f"(a {_digit_count(x)}-digit number)"


def _charge(work: int, budget: int, needs: Callable[[], str]) -> None:
    """The one budget rule: refuse work over the budget, naming both.
    `needs()` names the work in its unit (kernel steps, walk normalizations
    or row bits); it runs only for a refusal, so a charge that passes
    formats no text."""
    if work > budget:
        raise BudgetExceededError(f"{needs()}, over the budget of {budget}")


def _check_census(q: int, n: int, r: int, wmax: int, budget: int) -> None:
    """Charge a census at wmax of a length-n code over GF(q) with r parity
    checks n*wmax*(1 + (q^r - 1)/(q - 1)) steps, and refuse counts that
    could pass the int64 range.  The steps bound the entries of the weight
    rows the columns update: column j updates min(wmax, j) rows, at most
    wmax.  No count exceeds the vectors of weight <= wmax, nor q^k: an
    entry after j columns counts vectors with one syndrome, at most
    q^(j - rank H_j), and rank H_j >= r - (n - j).  Each trellis step is a
    ring operation, so int64, which wraps mod 2^64, gives each count
    exactly once it is below 2^63, even where a line sum wraps (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5).  It needs only
    the numbers, so it can fire before the field is built.  Where
    q^k < 2^63 no count can pass 2^63, and it sums no vectors; else it
    adds the terms C(n, w) (q-1)^w from w = wmax down only until their
    sum passes q^k, since the full sum for a long code takes seconds to
    minutes."""
    _check_budget(budget)
    work = n * wmax * census_rows(q, r)
    _charge(work, budget,
            lambda: f"syndrome trellis needs {_decimal(work)} steps n*wmax*(1+(q^(n-k)-1)/(q-1))")
    entries = q ** (n - r)
    if entries < 2**63:
        return
    vectors, term = 0, binom(n, wmax) * (q - 1) ** wmax
    for w in range(wmax, -1, -1):
        vectors += term
        if vectors >= entries:
            break
        term = term * w // ((n - w + 1) * (q - 1))  # C(n, w-1) (q-1)^(w-1)
    if vectors >= 2**63:
        what = (f"{_decimal(vectors)} vectors of weight <= {wmax}" if vectors < entries
                else f"entries up to q^k = {_decimal(entries)}")
        raise BudgetExceededError(f"{what} overflow the int64 counts (limit 2^63)")


def _syndrome_trellis(code: LinearCode, wmax: int, lengths: Iterable[int]
                      ) -> Iterator[np.ndarray]:
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
    gather into line order (_point_lines), one sum per line and one scatter
    back.  A vector on the first j coordinates weighs at most j, so column
    j updates only the rows w <= min(wmax, j).  It updates them from the
    top down, so row w - 1 is still T_{j-1} when row w reads it.  A zero
    column adds (q - 1) T_{j-1}[s, w - 1].

    Yields the working int64 table itself after each of the lengths,
    ascending, in the census layout (a row per point): the one after j
    columns is the table of the code on the first j coordinates at weight
    min(wmax, j).  A snapshot is valid until the generator resumes, which
    admits the next columns into the same memory; _prefix_censuses
    classes each one before it asks for the next.  Its working rows, a
    row buffer and the line order of the column being admitted (see
    _admit_columns), are freed before each yield.  So a run holds its
    table, wmax + 1 weight rows of census_rows(q, r) int64 entries, and
    about two rows more while it admits columns, and the classing of a
    snapshot about three more: every census stays within its table and
    five rows.  Both refusals (see _check_census) fire before any table
    exists.  The two scalar products, at the rows of 0 and H, stay below
    q^k, so no scalar overflow warns: a column in the span of the earlier
    ones meets entries of at most q^(k-1), and one outside it a zero
    entry at H.
    """
    f = code.field
    q, n = f.q, code.n
    if not 0 <= wmax <= n:
        raise ValueError(f"wmax={wmax} outside [0, {n}]")
    lengths = sorted(set(lengths))
    if not lengths or not 0 <= lengths[0] <= lengths[-1] <= n:
        raise ValueError(f"prefix lengths {lengths} not a nonempty set in [0, {n}]")
    _check_census(q, n, code.r, wmax, code.budget)

    table = np.zeros((wmax + 1, census_rows(q, code.r)), dtype=np.int64)  # weight-major
    table[0, 0] = 1
    # (q, q) tables only at r >= 3, where a line order is about q^2 long
    # anyway; at r = 2 _point_lines reads none
    add = mul = None
    if code.r >= 3:
        add = f.add_table().astype(np.int64)
        mul = f.mul_array(np.arange(q)[:, None], np.arange(q))
    done = 0
    for length in lengths:
        _admit_columns(f, table, code.H.T[done:length], done, add, mul)
        done = length
        yield table[:min(wmax, length) + 1].T


def _admit_columns(f: GF, table: np.ndarray, columns: np.ndarray, done: int,
                   add: np.ndarray | None, mul: np.ndarray | None) -> None:
    """Admit the columns after the first `done` ones into the weight-major
    table, in place (see _syndrome_trellis).  One row buffer serves every
    column, and each nonzero column builds its line order, freed before
    the next column builds its own; the buffer is freed on return."""
    q, states = f.q, table.shape[1]
    lines = np.empty(states, dtype=np.int64)
    grouped = lines[:-2].reshape(q, (states - 2) // q)  # [c, i]: point c of line i
    for j, col in enumerate(columns, done + 1):
        top = min(len(table) - 1, j)
        if not col.any():
            for w in range(top, 0, -1):
                table[w] += (q - 1) * table[w - 1]
            continue
        order = _point_lines(f, col, add, mul)
        for w in range(top, 0, -1):
            # take's default mode="raise" would buffer `out` again, and the
            # order is a permutation anyway
            np.take(table[w - 1], order, out=lines, mode="clip")
            zero, point = lines[-2:]
            grouped -= grouped.sum(axis=0)  # T[P] - (sum of T over P's line less H)
            lines[-2:] = -(q - 1) * point, -zero - (q - 2) * point
            np.subtract.at(table[w], order, lines)  # scattered back: no inverse order
        del order


@dataclass(frozen=True)
class CosetClass:
    """All cosets sharing one weight and one distribution B_0..B_wmax."""

    weight: int
    distribution: WeightDistribution
    count: int


class CosetCensus:
    """Per-point counts of the vectors of weight <= wmax, from one trellis table.

    The table has one row per census row (see census_rows): the zero
    syndrome, then one row for the q - 1 syndromes of each point, and
    every count of cosets counts a point's row q - 1 times.  At wmax = n
    the rows are the full coset weight distributions; at smaller wmax they
    are exact as far as they reach.  A syndrome reached by no vector of
    weight <= wmax has weight -1 here (meaning: bigger than wmax), and its
    row is all zero.  The table is sorted once into `classes`, the rows
    sharing one (weight, B_0..B_wmax) in that order, and dropped;
    `index[row]` is each census row's class, in the narrowest unsigned type.
    The first census of a code that reaches weight n - k must reach every
    syndrome, and leaves the code its classes as the memo.
    """

    def __init__(self, code: LinearCode, table: np.ndarray):
        self.code = code
        q, n, k = code.field.q, code.n, code.k
        self.total_cosets = q ** code.r
        self.wmax = table.shape[1] - 1
        weights = np.full(len(table), -1)  # each row's lowest w with B_w > 0
        for w in range(self.wmax, -1, -1):
            weights[table[:, w] > 0] = w
        # sort by (weight, B_0, ..., B_wmax); lexsort's last key is the primary one
        order = np.lexsort((*table.T[::-1], weights))
        # a class starts where some B_w changes: the weight is a function of
        # the row.  One buffer holds each column in sort order, then each
        # sorted row's class
        starts = np.zeros(len(order), dtype=bool)
        starts[0] = True
        ranked = np.empty_like(order)
        for column in table.T:
            np.take(column, order, out=ranked, mode="clip")
            starts[1:] |= ranked[1:] != ranked[:-1]
        np.copyto(ranked, starts)
        np.cumsum(ranked, out=ranked)  # in place: from the bools it would cast a copy
        ranked -= 1
        firsts = np.flatnonzero(starts)
        heads = order[firsts]
        self.index = np.empty(len(order), dtype=np.min_scalar_type(len(heads) - 1))
        self.index[order] = ranked
        # a class counts q - 1 cosets per row, but 1 for the zero syndrome's row
        counts = np.diff(firsts, append=len(order)) * (q - 1)
        counts[self.index[0]] -= q - 2
        self.classes = [CosetClass(w, WeightDistribution(tuple(row)), cnt)
                        for w, row, cnt in zip(weights[heads].tolist(),
                                               table[heads].tolist(), counts.tolist())]
        _require(sum(c.count for c in self.classes) == self.total_cosets,
                 "census classes do not hold q^(n-k) cosets")
        if self.wmax == n:
            _require(all(c.distribution.total() == q**k for c in self.classes),
                     "a census class does not hold q^k vectors")
        _require(self.count_of_weight(0) == 1, "census needs exactly one weight-0 coset")
        if code._classes is None and self.wmax >= code.r:
            _require(self.count_of_weight(-1) == 0, "a syndrome is unreached at weight n-k")
            code._classes = self.classes

    def classes_of_weight(self, W: int) -> list[CosetClass]:
        return [c for c in self.classes if c.weight == W]

    def count_of_weight(self, W: int) -> int:
        return sum(c.count for c in self.classes_of_weight(W))

    def code_distribution(self) -> WeightDistribution:
        """The code's own distribution: row 0, the zero syndrome's."""
        return self.classes[self.index[0]].distribution

    def distribution_of_syndrome(self, svec) -> WeightDistribution:
        """The distribution of the coset of svec, n-k element labels."""
        try:
            labels = _label_array(self.code.field, svec)
        except ValueError as err:
            raise ValueError(f"syndrome {svec!r}: {err}") from None
        if labels.shape != (self.code.r,):
            raise ValueError(f"syndrome {svec!r} is not a row of n-k = {self.code.r} labels")
        return self.classes[self.index[syndrome_row(self.code.field, labels)]].distribution


def _prefix_censuses(code: LinearCode, lengths: list[int], wmax: int) -> list[CosetCensus]:
    """The census at weight min(wmax, n) of the code on the first n
    columns of `code`'s H, for each n of `lengths`, ascending: one trellis
    run on `code` at wmax, its table taken after each length.  Each
    prefix shorter than `code` is built when the run reaches it, so both
    refusals come before any prefix code exists, and a prefix longer than
    wmax gets the low-weight census at wmax, which fills its memo once
    wmax reaches its n-k."""
    lengths = sorted(set(lengths))
    # each snapshot is classed before the kernel resumes and writes the
    # next columns over it: a snapshot is the working table, and a census
    # keeps nothing of it
    return [CosetCensus(code if n == code.n else
                        LinearCode(code.field, code.H[:, :n], code.budget), table)
            for n, table in zip(lengths, _syndrome_trellis(code, wmax, lengths))]


def coset_census(code: LinearCode) -> CosetCensus:
    """Exact weight distribution of every coset: the trellis at wmax = n."""
    return _prefix_censuses(code, [code.n], code.n)[0]


def low_weight_census(code: LinearCode, wmax: int) -> CosetCensus:
    """Syndrome census of every vector of weight <= wmax: the trellis at wmax."""
    _check_ints(wmax=wmax)
    return _prefix_censuses(code, [code.n], wmax)[0]
