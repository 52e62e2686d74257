"""A second census, over the dual code: every census row from the
MacWilliams identity.  It reads only H and does its field arithmetic in
the oracle's own GF(p^m) (oracle.Field), so it shares no field
arithmetic and no counting code with the library, and it uses no MDS
theory (MacWilliams and Sloane, The Theory of Error-Correcting Codes,
ch. 5; Delsarte, Inform. Control 23, 1973).

With chi a nontrivial additive character of GF(q), the vectors of weight
w with syndrome s number

    q^r T[s, w] = sum_{y in F_q^r} chi(-y.s) K_w(wt(yH)),
    K_w(j) = sum_i (-1)^i (q-1)^(w-i) C(j, i) C(n-j, w-i)   (Krawtchouk).

Scaling y by lam != 0 keeps wt(yH) and scales y.s, and the sum of
chi(-lam*t) over lam != 0 is q-1 for t = 0 and -1 otherwise.  So with P
over one vector per point of PG(r-1, q), and K(j) the row K_0(j)..K_n(j),

    q^r T[s, .] = K(0) + sum_P ((q-1)[P.s = 0] - [P.s != 0]) K(wt(PH)),

which for s = 0 is K(0) + (q-1) sum_P K(wt(PH)).  The work is r passes
over a points-by-points table plus one small exact product.
"""
from itertools import product
from math import comb

import numpy as np

from oracle import field_of


def points(q, r):
    """One vector per point of PG(r-1, q): those whose first nonzero entry is 1."""
    return [v for v in product(range(q), repeat=r)
            if any(v) and next(x for x in v if x) == 1]


def krawtchouk(n, q):
    """K[j][w] = K_w(j) for 0 <= j, w <= n, as Python ints."""
    return [[sum((-1) ** i * (q - 1) ** (w - i) * comb(j, i) * comb(n - j, w - i)
                 for i in range(w + 1))
             for w in range(n + 1)] for j in range(n + 1)]


def _products(F, X, Y):
    """The product X Y over the oracle field F of label arrays X (a, r)
    and Y (r, b), one entry of the inner sum at a time, through tables of
    F's sums and products."""
    add = np.array([[F.add(a, b) for b in range(F.q)] for a in range(F.q)])
    mul = np.array([[F.mul(a, b) for b in range(F.q)] for a in range(F.q)])
    acc = np.zeros((X.shape[0], Y.shape[1]), dtype=np.int64)
    for t in range(X.shape[1]):
        acc = add[acc, mul[X[:, t, None], Y[t, None, :]]]
    return acc


def dual_table(code):
    """{syndrome: [vectors of weight 0..n]} for the zero syndrome and one
    syndrome per point of PG(r-1, q), those of `points`."""
    F, n, r = field_of(code.field), code.n, code.r
    q = F.q
    pts = np.array(points(q, r), dtype=np.int64).reshape(-1, r)
    weights = np.count_nonzero(_products(F, pts, code.H), axis=1)  # wt(PH)
    syndromes = np.vstack([np.zeros((1, r), dtype=np.int64), pts])
    coef = np.where(_products(F, syndromes, pts.T) == 0, q - 1, -1)
    # by_weight[s, j]: sum of the coefficients of the points P with wt(PH) = j
    by_weight = coef @ (weights[:, None] == np.arange(n + 1)).astype(np.int64)
    K = np.array(krawtchouk(n, q), dtype=object)
    scaled = K[0] + by_weight.astype(object) @ K
    table = {}
    for s, row in zip(syndromes, scaled):
        counts = [int(c) // q**r for c in row]
        if any(c * q**r != int(x) for c, x in zip(counts, row)):
            raise ValueError(f"syndrome {tuple(s)}: {list(row)} is not divisible by q^r")
        table[tuple(int(x) for x in s)] = counts
    return table
