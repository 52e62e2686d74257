"""Pure-Python brute force the library is checked against.  It uses
neither numpy nor any MDS theory, and it shares nothing with the library
but a code's parity-check matrix H: it carries its own GF(p^m), its own
elimination and its own point normalization, and of the library's field
it reads only p, m and the modulus.

It defines the field, the syndrome H x^T of a vector, a generator matrix
of a code by elimination on H, the points of PG(2, q), the determinant
of three plane points, the line through two of them and the number of
unisecants through an arc point, and from these the brute counts:
every vector's syndrome and weight, the codeword weights spanned by G,
and the bisecant count of every off-arc point.
"""
from functools import lru_cache, reduce


class Field:
    """GF(p^m) on the library's element labels: a label packs the
    coefficients c_0..c_{m-1} of a polynomial over GF(p) in base p, c_0
    least significant (MacWilliams and Sloane, The Theory of
    Error-Correcting Codes, ch. 3-4).  Sums are digit sums mod p and
    products are polynomial products reduced by the monic modulus
    poly = (c_0, ..., c_m), which a prime field (m = 1) does not need;
    both are tabulated once for all pairs, so an operand that is no label
    raises KeyError.  The inverse of a is a^(q-2).  Construction checks
    that every nonzero element has an inverse, which fails for a
    reducible modulus."""

    def __init__(self, p, m, poly):
        self.p, self.m, self.q, self.poly = p, m, p**m, poly
        pairs = [(a, b) for a in range(self.q) for b in range(self.q)]
        self._sums = {(a, b): self._label([(x + y) % p for x, y in
                                           zip(self._digits(a), self._digits(b))])
                      for a, b in pairs}
        self._products = {(a, b): self._product(a, b) for a, b in pairs}
        self._negatives = {a: b for (a, b), s in self._sums.items() if s == 0}
        self._inverses = {a: self.power(a, self.q - 2) for a in range(1, self.q)}
        for a, b in self._inverses.items():
            if self.mul(a, b) != 1:
                raise ValueError(f"GF({p}^{m}) modulo {poly} is no field: {a} has no inverse")

    def _digits(self, a):
        return [a // self.p**i % self.p for i in range(self.m)]

    def _label(self, digits):
        return sum(c * self.p**i for i, c in enumerate(digits))

    def _product(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * m - 2, m - 1, -1):  # x^deg = x^(deg-m) (x^m - poly)
            c = prod[deg]
            for t in range(m + 1):
                prod[deg - m + t] = (prod[deg - m + t] - c * self.poly[t]) % p
        return self._label(prod[:m])

    def add(self, a, b):
        return self._sums[a, b]

    def neg(self, a):
        return self._negatives[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._products[a, b]

    def power(self, a, e):
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        return self._inverses[a]


@lru_cache(maxsize=None)
def _field(p, m, poly):
    return Field(p, m, poly)


def field_of(field):
    """The oracle's own GF(p^m) with the modulus of `field`, a library
    field or an oracle one: only its p, m and poly are read."""
    return _field(field.p, field.m, field.poly)


def normalize(field, coords):
    """The multiple of a nonzero vector whose first nonzero entry is 1."""
    F = field_of(field)
    lead = next(c for c in coords if c)
    scale = F.inv(lead)
    return tuple(F.mul(scale, c) for c in coords)


def rref(field, rows):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    F = field_of(field)
    work = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        scale = F.inv(work[r][c])
        work[r] = [F.mul(scale, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _rows(code):
    """The rows of the code's H as lists of ints."""
    return [[int(h) for h in row] for row in code.H]


def syndrome(code, x):
    """H x^T as a tuple, one GF sum per parity check."""
    if len(x) != code.n:
        raise ValueError(f"vector length {len(x)} != code length {code.n}")
    F = field_of(code.field)
    return tuple(reduce(F.add, (F.mul(h, a) for h, a in zip(row, x)), 0)
                 for row in _rows(code))


def generator_matrix(code):
    """The rows of a generator matrix: one per free column of the reduced
    H, that column set to 1 and the pivot columns solved for."""
    F = field_of(code.field)
    reduced, pivots = rref(F, _rows(code))
    rows = []
    for c in [c for c in range(code.n) if c not in pivots]:
        g = [0] * code.n
        g[c] = 1
        for t, pc in enumerate(pivots):
            g[pc] = F.neg(reduced[t][c])
        rows.append(g)
    return rows


def plane_points(field):
    """All q^2 + q + 1 points of PG(2, q), each scaled so its first
    nonzero coordinate is 1: (1, y, z), then (0, 1, z), then (0, 0, 1)."""
    q = field_of(field).q
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts.append((0, 0, 1))
    return pts


def det3(field, a, b, c):
    """The determinant of the 3x3 matrix with rows a, b, c; zero exactly
    when the three points are collinear."""
    F = field_of(field)
    pos = F.add(F.add(F.mul(a[0], F.mul(b[1], c[2])),
                      F.mul(a[1], F.mul(b[2], c[0]))),
                F.mul(a[2], F.mul(b[0], c[1])))
    neg = F.add(F.add(F.mul(a[2], F.mul(b[1], c[0])),
                      F.mul(a[0], F.mul(b[2], c[1]))),
                F.mul(a[1], F.mul(b[0], c[2])))
    return F.sub(pos, neg)


def line_through(field, a, b):
    """Normalized dual coordinates a x b of the line joining two distinct points."""
    F = field_of(field)
    cross = (F.sub(F.mul(a[1], b[2]), F.mul(a[2], b[1])),
             F.sub(F.mul(a[2], b[0]), F.mul(a[0], b[2])),
             F.sub(F.mul(a[0], b[1]), F.mul(a[1], b[0])))
    return normalize(F, cross)


def unisecants_through(arc, point):
    """Lines of PG(2, q) meeting the arc only at `point`: the q+1 lines
    through it less the secants to the other arc points."""
    if point not in arc.points:
        raise ValueError("not an arc point")
    secants = {line_through(arc.field, point, p) for p in arc.points if p != point}
    return field_of(arc.field).q + 1 - len(secants)


def _brute_levels(code):
    """For j = 0..n, the (syndrome, weight) of every vector on the first j
    coordinates, walking F_q^n one coordinate at a time: each vector's
    syndrome is its prefix's plus x_j*h_j, read from per-column tables
    built with the oracle's field."""
    F = field_of(code.field)
    add = [[F.add(a, b) for b in range(F.q)] for a in range(F.q)]
    cols = [[tuple(F.mul(c, h) for h in col) for c in range(F.q)]
            for col in zip(*_rows(code))]
    level = [((0,) * code.r, 0)]  # (syndrome, weight) of every prefix x_0..x_{j-1}
    yield level
    for col in cols:
        level = [(tuple(add[s][t] for s, t in zip(syn, col[c])), w + (c > 0))
                 for syn, w in level for c in range(F.q)]
        yield level


def _tabulate(level, n):
    table = {}
    for syn, w in level:
        table.setdefault(syn, [0] * (n + 1))[w] += 1
    return table


def brute_table(code):
    """{syndrome: [vectors of weight 0..n]}, over all of F_q^n."""
    *_, level = _brute_levels(code)
    return _tabulate(level, code.n)


def brute_prefix_tables(code):
    """For j = 0..n, brute_table of the code on its first j coordinates,
    {syndrome: [vectors of weight 0..j]}, from one walk."""
    return [_tabulate(level, j) for j, level in enumerate(_brute_levels(code))]


def brute_codeword_weights(code):
    """B_0..B_n of the code, walking the q^k codewords spanned by G."""
    F, words = field_of(code.field), [(0,) * code.n]
    add = [[F.add(a, b) for b in range(F.q)] for a in range(F.q)]
    for g in generator_matrix(code):
        scaled = [[F.mul(c, y) for y in g] for c in range(F.q)]
        words = [tuple(add[x][y] for x, y in zip(w, s)) for w in words for s in scaled]
    weights = [code.n - w.count(0) for w in words]
    return tuple(weights.count(i) for i in range(code.n + 1))


def brute_bisecant_classes(arc):
    """((bisecants, points), ...) largest first: each off-arc point p of
    PG(2, q) lies on as many bisecants as arc pairs a, b with det3(a, b, p) = 0."""
    F, tally = field_of(arc.field), {}
    for p in plane_points(F):
        if p not in arc.points:
            b = sum(det3(F, a, c, p) == 0
                    for i, a in enumerate(arc.points) for c in arc.points[i + 1:])
            tally[b] = tally.get(b, 0) + 1
    return tuple(sorted(tally.items(), reverse=True))
