"""Pure-Python brute force the library is checked against; it uses
neither numpy nor any MDS theory, only GF arithmetic, H, elimination
(`_rref`) and normalize_point.

It defines the syndrome H x^T of a vector, a generator matrix of a code
by elimination on H, the points of PG(2, q), the determinant of three
plane points, the line through two of them and the number of unisecants
through an arc point, and from these the brute counts:
every vector's syndrome and weight, the codeword weights spanned by G,
and the bisecant count of every off-arc point.
"""
from functools import reduce

from mdscosets.codes import _rref
from mdscosets.geometry import normalize_point


def syndrome(code, x):
    """H x^T as a tuple, one GF sum per parity check."""
    if len(x) != code.n:
        raise ValueError(f"vector length {len(x)} != code length {code.n}")
    f = code.field
    return tuple(reduce(f.add, (f.mul(h, a) for h, a in zip(row, x)), 0)
                 for row in code.H.rows)


def generator_matrix(code):
    """The rows of a generator matrix: one per free column of the reduced
    H, that column set to 1 and the pivot columns solved for."""
    f = code.field
    reduced, pivots = _rref(f, code.H.rows)
    rows = []
    for c in [c for c in range(code.n) if c not in pivots]:
        g = [0] * code.n
        g[c] = 1
        for t, pc in enumerate(pivots):
            g[pc] = f.neg(reduced[t][c])
        rows.append(g)
    return rows


def plane_points(field):
    """All q^2 + q + 1 points of PG(2, q), canonically normalized, in the
    library's plane order."""
    q = field.q
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts.append((0, 0, 1))
    return pts


def det3(field, a, b, c):
    """The determinant of the 3x3 matrix with rows a, b, c; zero exactly
    when the three points are collinear."""
    f = field
    pos = f.add(f.add(f.mul(a[0], f.mul(b[1], c[2])),
                      f.mul(a[1], f.mul(b[2], c[0]))),
                f.mul(a[2], f.mul(b[0], c[1])))
    neg = f.add(f.add(f.mul(a[2], f.mul(b[1], c[0])),
                      f.mul(a[0], f.mul(b[2], c[1]))),
                f.mul(a[1], f.mul(b[0], c[2])))
    return f.sub(pos, neg)


def line_through(field, a, b):
    """Normalized dual coordinates a x b of the line joining two distinct points."""
    f = field
    cross = (f.sub(f.mul(a[1], b[2]), f.mul(a[2], b[1])),
             f.sub(f.mul(a[2], b[0]), f.mul(a[0], b[2])),
             f.sub(f.mul(a[0], b[1]), f.mul(a[1], b[0])))
    return normalize_point(f, cross)


def unisecants_through(arc, point):
    """Lines of PG(2, q) meeting the arc only at `point`: the q+1 lines
    through it less the secants to the other arc points."""
    if point not in arc.points:
        raise ValueError("not an arc point")
    secants = {line_through(arc.field, point, p) for p in arc.points if p != point}
    return arc.field.q + 1 - len(secants)


def brute_table(code):
    """{syndrome: [vectors of weight 0..n]}, walking all of F_q^n one
    coordinate at a time: each vector's syndrome is its prefix's plus
    x_j*h_j, read from per-column tables built with GF.mul and GF.add."""
    f, n = code.field, code.n
    add = [[f.add(a, b) for b in range(f.q)] for a in range(f.q)]
    cols = [[tuple(f.mul(c, h) for h in col) for c in range(f.q)] for col in code.H.columns()]
    level = [((0,) * code.r, 0)]  # (syndrome, weight) of every prefix x_0..x_{j-1}
    for col in cols:
        level = [(tuple(add[s][t] for s, t in zip(syn, col[c])), w + (c > 0))
                 for syn, w in level for c in range(f.q)]
    table = {}
    for syn, w in level:
        table.setdefault(syn, [0] * (n + 1))[w] += 1
    return table


def brute_codeword_weights(code):
    """B_0..B_n of the code, walking the q^k codewords spanned by G."""
    f, words = code.field, [(0,) * code.n]
    add = [[f.add(a, b) for b in range(f.q)] for a in range(f.q)]
    for g in generator_matrix(code):
        scaled = [[f.mul(c, y) for y in g] for c in range(f.q)]
        words = [tuple(add[x][y] for x, y in zip(w, s)) for w in words for s in scaled]
    weights = [code.n - w.count(0) for w in words]
    return tuple(weights.count(i) for i in range(code.n + 1))


def brute_bisecant_classes(arc):
    """((bisecants, points), ...) largest first: each off-arc point p of
    PG(2, q) lies on as many bisecants as arc pairs a, b with det3(a, b, p) = 0."""
    f, tally = arc.field, {}
    for p in plane_points(f):
        if p not in arc.points:
            b = sum(det3(f, a, c, p) == 0
                    for i, a in enumerate(arc.points) for c in arc.points[i + 1:])
            tally[b] = tally.get(b, 0) + 1
    return tuple(sorted(tally.items(), reverse=True))
