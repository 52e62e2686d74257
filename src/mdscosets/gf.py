"""Exact arithmetic in finite fields GF(q), q = p^m.

Field elements are canonical integers in [0, q).  For extension fields
(m > 1) the integer packs the polynomial-basis coefficient vector in
base p, constant term in the least significant digit, so 0 and 1 are
the additive and multiplicative identities of every field, and p - 1 is
-1.  A prime field is the case m = 1 of the same scheme.

There is one arithmetic path, on arrays of labels: add_array adds digit
by digit mod p (add_table caches it for all pairs), and mul_array and
inv_array look products and inverses up in log/antilog tables over a
generator of the multiplicative group, the least label whose powers reach
every unit before they return to 1.  Those powers are the antilog table,
built once per field from direct products (modular for prime fields,
reduced by the modulus otherwise), in integers only.

A field is named by its order alone, as the paper states every result:
GF(q) is the one constructor, and check_field_order(q) the one check of
an order, which returns (p, m) and builds no table.  Each order has one
field: an extension field always takes the pinned modulus
default_irreducible(p, m).  The fields of one order are isomorphic
(Lidl and Niederreiter, Finite Fields, ch. 2), so no weight count
depends on the modulus, and none is offered in its place.

Construction verifies its own tables: the stored generator has exact
multiplicative order q - 1 and every nonzero element has an inverse,
or InvariantError is raised.  gf imports no other module of the
package, so the package's one InvariantError is defined here, and so
are its four rules for reading a caller's values:

- _check_ints, a parameter: exactly an int, so a bool, a float and a
  numpy integer are refused.  check_field_order applies it to q first;
  it also reads (n, d, q) in check_mds_params, a budget, a wmax, a
  mid-range W, a covering's (n, k, q, mu) and parent_R, the arguments
  of binom and omega, and a verify run's d filters and criterion
  numbers.
- _as_int, one count or column index (B_{d-2}, n and the removed
  columns of a family code): any integer but a bool, read as a Python
  int, so a numpy integer is taken.
- _counts, a row of counts (a WeightDistribution's B_0..B_n, a
  LowWeightPrefix, the mid-weight knowns): any sequence, but no set or
  mapping, kept as a tuple, each entry read by _as_int and named B_v.
- _label_array, a matrix of labels, read by its three readers: a
  LinearCode's rows, an Arc's points (rows of 3) and a census's
  syndrome (one row of n-k).  It returns a (rows, width) int64 array,
  and is the one check of the matrix's shape: the rows must be a
  sequence, each row a sequence of one width, each entry an integer in
  [0, q) but a bool, and the first that is not is refused by name.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Mapping, Sequence, Set
from functools import lru_cache

import numpy as np

MAX_FIELD_ORDER = 1 << 16


class InvariantError(RuntimeError):
    """A computed result breaks an identity that every correct result satisfies."""


def _check_ints(**params) -> None:
    """The one rule for int parameters: refuse, naming the first, any that
    is not an int (a bool is none, nor a numpy integer)."""
    for name, value in params.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def _as_int(value, name: str) -> int:
    """A given integer (a count, a column index) as a Python int, refused
    with its name unless it is an integer: a bool is none, though Python
    counts it an int, nor is a float or a string, which int() would read."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_sequence(values) -> bool:
    """Whether values are a sequence: any iterable but a set or a mapping,
    which have no order of their own, or a 0-d array, which has no entries."""
    # a tuple or a list, as every distribution the library builds, skips
    # the checks against abstract classes, each a few tenths of a microsecond
    return isinstance(values, (tuple, list)) or (
        isinstance(values, Iterable) and not isinstance(values, Set | Mapping)
        and getattr(values, "ndim", 1) != 0)


def _counts(values, name: str, first: int) -> tuple[int, ...]:
    """The given counts B_first, B_first+1, ... as a tuple: `values` itself
    when it is a tuple of exact ints, else each through _as_int as
    `name B_v`; refused, naming them, when they are no sequence."""
    if not _is_sequence(values):
        raise ValueError(f"{name}s must be a sequence of integers, got {values!r}")
    values = tuple(values)  # tuple() of a tuple is that tuple
    for value in values:
        if type(value) is not int:
            return tuple(_as_int(c, f"{name} B_{v}") for v, c in enumerate(values, first))
    return values


def _label_array(field: GF, values, noun: str, width: int | None = None) -> np.ndarray:
    """The rows of `values` as a (rows, width) int64 array of element labels
    of `field`, the one reader of a matrix of labels.  A 2-D numpy integer
    array of `width` columns (any, when None) and entries in [0, q), as
    every matrix the library builds, is read as it is.  Any other input is
    read as Python values and refused, naming what it refuses, at the
    first of: `values` that are no sequence; a row that is no sequence,
    or whose length is not `width` (the first row's, when None); an entry
    that is no integer in [0, q), with its row.  A bool is no label,
    though Python counts it an int and numpy reads True among ints as 1."""
    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 2
            and width in (None, values.shape[1]) and ((values >= 0) & (values < field.q)).all()):
        return values.astype(np.int64)
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not _is_sequence(values):
        raise ValueError(f"{noun}s must be a sequence of rows of labels, got {values!r}")
    rows = [tuple(row) if _is_sequence(row) else row for row in values]
    for row in rows:
        if not isinstance(row, tuple):
            raise ValueError(f"{noun} {row!r} is not a sequence of labels")
        if len(row) != (width := len(row) if width is None else width):
            raise ValueError(f"{noun} {row} is not a row of {width} labels")
    bad = next(((row, a) for row in rows for a in row if isinstance(a, bool)
                or not isinstance(a, int | np.integer) or not 0 <= a < field.q), None)
    if bad:
        raise ValueError(f"{noun} {bad[0]}: {bad[1]!r} is not an element label of GF({field.q})")
    return np.array(rows, dtype=np.int64).reshape(len(rows), width or 0)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Polynomials over GF(p) pick a field modulus and, reduced by it, build
# the tables.  Coefficient lists are ascending: coeffs[i] multiplies x^i.

def _poly_rem(a: list[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a mod the monic b over GF(p): its len(b) - 1 coefficients."""
    a = a[:]
    db = len(b) - 1
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
    return a[:db]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic polynomial of degree >= 1 irreducible over GF(p)? Trial
    division by every monic polynomial up to half degree, x included."""
    m = len(coeffs) - 1
    for t in range(1, m // 2 + 1):
        for packed in range(p ** t):
            g = [(packed // p**i) % p for i in range(t)] + [1]
            if not any(_poly_rem(coeffs, g, p)):
                return False
    return True


@lru_cache(maxsize=None)
def default_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The pinned default modulus for GF(p^m): the monic irreducible of
    degree m whose low-coefficient encoding sum(c_i * p^i) is smallest."""
    monic = ([(packed // p**i) % p for i in range(m)] + [1] for packed in range(p ** m))
    return tuple(next(coeffs for coeffs in monic if _is_irreducible(coeffs, p)))


def check_field_order(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, the one check of a field order: a q that is no
    int is refused first, then a q over MAX_FIELD_ORDER, in constant time,
    not factorized, then any q that is no prime power.  No table is
    built, so callers refuse q with it before any work."""
    _check_ints(q=q)
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the configured maximum {MAX_FIELD_ORDER}")
    fac = _factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, m), = fac.items()
    return p, m


class GF:
    """The finite field GF(q), q = p^m, operating on canonical integer labels."""

    def __init__(self, q: int):
        self.p, self.m = check_field_order(q)
        self.q = q
        self.poly = None if self.m == 1 else default_irreducible(self.p, self.m)
        self._ppow = [self.p ** i for i in range(self.m)]
        self._build_tables()
        self._add_table: np.ndarray | None = None

    # -- raw ops on packed coefficient vectors, used to build the tables --

    def _raw_mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        p, m = self.p, self.m
        da = [(a // pp) % p for pp in self._ppow]
        db = [(b // pp) % p for pp in self._ppow]
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        return sum(c * pp for c, pp in zip(_poly_rem(prod, self.poly, p), self._ppow))

    def _build_tables(self) -> None:
        # at most q - 1 powers of each g, so a faulty product still ends; at q = 2, g = 1
        q = self.q
        for g in range(1, q):
            alog = [1]
            while len(alog) < q - 1 and (power := self._raw_mul(alog[-1], g)) != 1:
                alog.append(power)
            if len(alog) == q - 1:
                break
        self.generator = g
        if sorted(alog) != list(range(1, q)):
            raise InvariantError(f"generator {self.generator} does not have order {q - 1}")
        # log[0] is 2(q-1) and the antilog runs over two cycles of q-1 and
        # then zeros, so log[a] + log[b] indexes the product of any a, b, a
        # zero factor landing past the cycles, on 0.  inverse[0] is 0.
        q1 = q - 1
        alog1 = np.array(alog, dtype=np.int64)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[alog1] = np.arange(q1)
        self._log[0] = 2 * q1
        self._alog = np.concatenate([alog1, alog1, np.zeros(2 * q1 + 1, dtype=np.int64)])
        self._inverse = np.concatenate([[0], alog1[-self._log[1:] % q1]])
        units = np.arange(1, q)
        lacking = units[self.mul_array(units, self.inv_array(units)) != 1]
        if lacking.size:
            raise InvariantError(f"element {lacking[0]} of GF({q}) lacks an inverse")

    def add_array(self, a, b) -> np.ndarray:
        """Elementwise sums of two label arrays (broadcast), digit by digit
        in base p."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return sum(((a // pp + b // pp) % self.p) * pp for pp in self._ppow)

    def add_table(self) -> np.ndarray:
        """Cached (q, q) addition table of add_array; backs the vectorized
        censuses and plane walks."""
        if self._add_table is None:
            idx = np.arange(self.q)
            dtype = np.uint8 if self.q <= 256 else np.uint16
            self._add_table = self.add_array(idx[:, None], idx).astype(dtype)
        return self._add_table

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise products of two label arrays (broadcast), by table lookup."""
        return self._alog[self._log[a] + self._log[b]]

    def inv_array(self, a) -> np.ndarray:
        """Elementwise inverses of a label array; zero maps to zero."""
        return self._inverse[a]

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}={self.p}^{self.m}, poly={self.poly})"


@lru_cache(maxsize=None, typed=True)  # typed: a 4.0 or np.int64(4) is no cached GF(4)
def field_of_order(q: int) -> GF:
    """GF(q) for a prime power q, shared per q."""
    return GF(q)
