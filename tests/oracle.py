"""Pure-Python brute force the library is checked against; it uses
neither numpy nor any MDS theory, only GF arithmetic, H, G, det3 and plane_points."""
from mdscosets.geometry import det3, plane_points


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
    for g in code.generator_matrix.rows:
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
