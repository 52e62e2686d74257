"""Pure-Python brute force the census kernel is checked against; it uses
neither numpy nor any MDS theory, only LinearCode.syndrome and G."""
import itertools


def brute_table(code):
    """{syndrome: [vectors of weight 0..n]}, walking all of F_q^n."""
    table = {}
    for x in itertools.product(range(code.field.q), repeat=code.n):
        table.setdefault(code.syndrome(x), [0] * (code.n + 1))[code.n - x.count(0)] += 1
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
