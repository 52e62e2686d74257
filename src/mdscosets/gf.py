"""Exact arithmetic in finite fields GF(q), q = p^m.

Field elements are canonical integers in [0, q).  For extension fields
(m > 1) the integer packs the polynomial-basis coefficient vector in
base p, constant term in the least significant digit, so 0 and 1 are
the additive and multiplicative identities of every field, and p - 1 is
-1.  A prime field is the case m = 1 of the same scheme.

There is one arithmetic path, on arrays of labels: add_array adds digit
by digit mod p (add_table caches it for all pairs), and mul_array and
inv_array look products and inverses up in log/antilog tables over a
generator of the multiplicative group.  The tables are built once per
field from direct products (modular for prime fields, reduced by the
modulus otherwise), in integers only.

Construction verifies its own tables: the stored generator has exact
multiplicative order q - 1 and every nonzero element has an inverse.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_FIELD_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for the supported field sizes."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


# Polynomials over GF(p) appear only while picking a field modulus.
# Coefficient lists are ascending: coeffs[i] multiplies x^i.

def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a mod b over GF(p); b must be monic."""
    a = a[:]
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        c = a[-1]
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic polynomial irreducible over GF(p)? Trial division up to half degree."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if coeffs[0] == 0:
        return m == 1
    for t in range(1, m // 2 + 1):
        for packed in range(p ** t):
            g = [(packed // p**i) % p for i in range(t)] + [1]
            if not _poly_rem(coeffs, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def default_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The pinned default modulus for GF(p^m): the monic irreducible of
    degree m whose low-coefficient encoding sum(c_i * p^i) is smallest."""
    for packed in range(p ** m):
        coeffs = [(packed // p**i) % p for i in range(m)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


def _modulus(p: int, m: int, poly: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The modulus of GF(p^m), None for a prime field, after every check
    GF makes before it builds a table."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    q = p ** m
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the configured maximum {MAX_FIELD_ORDER}")
    if m == 1:
        if poly is not None:
            raise ValueError("a modulus polynomial only applies to extension fields")
        return None
    coeffs = tuple(poly) if poly is not None else default_irreducible(p, m)
    if len(coeffs) != m + 1 or coeffs[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {m}, got {coeffs}")
    if any(not 0 <= c < p for c in coeffs):
        raise ValueError(f"modulus coefficients must lie in [0, {p})")
    if not _is_irreducible(list(coeffs), p):
        raise ValueError(f"modulus {coeffs} is reducible over GF({p})")
    return coeffs


class GF:
    """The finite field GF(p^m) operating on canonical integer labels."""

    def __init__(self, p: int, m: int = 1, poly: tuple[int, ...] | None = None):
        self.poly = _modulus(p, m, poly)
        self.p = p
        self.m = m
        self.q = p ** m
        self._ppow = [p ** i for i in range(m)]
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
        if self.poly is None:
            raise AssertionError(f"extension field GF({self.q}) has no modulus")
        for deg in range(2 * m - 2, m - 1, -1):
            c = prod[deg]
            if c:
                for t in range(m + 1):
                    prod[deg - m + t] = (prod[deg - m + t] - c * self.poly[t]) % p
        return sum(prod[i] * self._ppow[i] for i in range(m))

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.q
        if q == 2:
            self.generator = 1
        else:
            fac = _factorize(q - 1)
            gen = None
            for g in range(2, q):
                if all(self._raw_pow(g, (q - 1) // ell) != 1 for ell in fac):
                    gen = g
                    break
            if gen is None:
                raise AssertionError(f"no generator found for GF({q})")
            self.generator = gen
        alog = [1] * (q - 1)
        for i in range(1, q - 1):
            alog[i] = self._raw_mul(alog[i - 1], self.generator)
        if sorted(alog) != list(range(1, q)):
            raise AssertionError(f"generator {self.generator} does not have order {q - 1}")
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
            raise AssertionError(f"element {lacking[0]} of GF({q}) lacks an inverse")

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


def _prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, refusing any q that is no prime power; a q over
    MAX_FIELD_ORDER is refused first, in constant time, not factorized."""
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the configured maximum {MAX_FIELD_ORDER}")
    fac = _factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, m), = fac.items()
    return p, m


def check_field_order(q: int, poly: tuple[int, ...] | None = None) -> None:
    """Refuse, as field_of_order would, a q or modulus it refuses, without
    building the field's tables."""
    _modulus(*_prime_power(q), poly)


@lru_cache(maxsize=None)
def field_of_order(q: int, poly: tuple[int, ...] | None = None) -> GF:
    """GF(q) for a prime power q, shared per (q, modulus)."""
    return GF(*_prime_power(q), poly)
