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
package, so the package's one InvariantError is defined here.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

MAX_FIELD_ORDER = 1 << 16


class InvariantError(RuntimeError):
    """A computed result breaks an identity that every correct result satisfies."""


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
    """(p, m) with q = p^m, the one check of a field order: a q over
    MAX_FIELD_ORDER is refused first, in constant time, not factorized,
    then any q that is no prime power.  No table is built, so callers
    refuse q with it before any work."""
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


@lru_cache(maxsize=None)
def field_of_order(q: int) -> GF:
    """GF(q) for a prime power q, shared per q."""
    return GF(q)
