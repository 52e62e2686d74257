"""Incidence computations in the projective plane PG(2, q).

Points are homogeneous coordinate triples normalized so the first
nonzero coordinate is 1, making equality a plain tuple comparison; the
array code ranks them in plane order (see _plane_ranks), and an Arc
reads its normalized points back from their ranks.  Bisecants are
counted by walking them, not by testing points against lines: on an
arc, the bisecant through a and b holds, besides a and b, exactly the
q-1 points a + t*b (t != 0), none of them on the arc (Hirschfeld,
Projective Geometries over Finite Fields).  The walk runs on the field's
array tables over the pairs i < j in order, in blocks of consecutive
pairs holding at most WALK_BLOCK_POINTS points: each block's points
a_i + t*a_j are formed, normalized and ranked as arrays and tallied in
place by one np.add.at, so a walk's temporaries stay a few MiB at any q
the budget admits.  The walk refuses, before its first block, any arc
whose C(n,2)*(q-1) normalizations exceed the default budget.  Building
an Arc runs the walk once: distinct points are an arc exactly when it
meets none of them, and the same blocks tally the bisecants through
every point, which the census and the bridge read.

The arcs of interest trace the parity-check columns of the distance-4
codes: the conic {(1, t, t^2)} u {(0,0,1)}, for even q the regular
hyperoval (conic plus nucleus (0,1,0)), and the conic with its last one
or two points removed.  A bisecant census sorts the points off an arc
by how many of the arc's bisecants pass through them; the census on the
code side must match it coset class by coset class, which
`geometry_code_bridge` verifies by gathering the census rows of all
q^2+q+1 points at once (one row stands for the q-1 syndromes lam*pt of
a point) and checking them as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (DEFAULT_BUDGET, BudgetExceededError, LinearCode, Matrix,
                    _label_array, low_weight_census, syndrome_row)
from .combinat import binom
from .gf import GF


# The q^2 + q + 1 points of PG(2, q) are ranked in plane order:
# (1, y, z) -> y*q + z, then (0, 1, z) -> q^2 + z, then (0, 0, 1) -> q^2 + q.

def _plane_ranks(field: GF, x, y, z) -> np.ndarray:
    """Plane rank of each point (x, y, z), scaled so its leading nonzero
    coordinate is 1."""
    q = field.q
    scale = field.inv_array(np.where(x != 0, x, np.where(y != 0, y, z)))
    y1, z1 = field.mul_array(scale, y), field.mul_array(scale, z)
    return np.where(x != 0, y1 * q + z1, np.where(y != 0, q * q + z1, q * q + q))


def _plane_coords(q: int, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized coordinates (x, y, z) of the points of plane rank `rank`."""
    affine, line = rank < q * q, rank < q * q + q
    x = affine.astype(np.int64)
    y = np.where(affine, rank // q, line.astype(np.int64))
    z = np.where(affine, rank % q, np.where(line, rank - q * q, 1))
    return x, y, z


WALK_BLOCK_POINTS = 1 << 16  # points a_i + t*a_j per block of the walk


def _bisecant_walk(field: GF, coords: np.ndarray):
    """Yield (i, j, ranks) for blocks of consecutive arc point pairs i < j,
    in order: i and j index the block's pairs, and ranks[m, t - 1] is the
    plane rank of a_i + t*a_j for pair m and t != 0.  On an arc these are
    the q-1 off-arc points of the bisecant a_i a_j.  A block holds at most
    WALK_BLOCK_POINTS points, or one pair when q - 1 exceeds the cap.  The
    walk's budget (bisecant_walk_refusal) is checked before any block."""
    q, n = field.q, len(coords)
    refusal = bisecant_walk_refusal(q, n)
    if refusal is not None:
        raise refusal
    add = field.add_table().ravel()  # add(x, y) at x*q + y: one flat gather per block
    t = np.arange(1, q)
    # the pairs (i, j) in order, numbered from 0: those of i from first[i]
    first = np.cumsum([0] + list(range(n - 1, 0, -1)))
    total, per_block = int(first[-1]), max(1, WALK_BLOCK_POINTS // (q - 1))
    for start in range(0, total, per_block):
        pairs = np.arange(start, min(start + per_block, total))
        i = np.searchsorted(first, pairs, side="right") - 1
        j = pairs - first[i] + i + 1
        a, b = coords[i][:, :, None], coords[j][:, :, None]
        yield i, j, _plane_ranks(field, *(add[a[:, c] * q + field.mul_array(t, b[:, c])]
                                          for c in range(3)))


def bisecant_walk_refusal(q: int, n: int) -> BudgetExceededError | None:
    """The refusal the bisecant walk of an n-arc in PG(2, q) meets, or None
    when it may run: its C(n,2)*(q-1) point normalizations over
    DEFAULT_BUDGET.  It needs only q and n, so it can fire before the
    field or any plane-sized array is built."""
    work = binom(n, 2) * (q - 1)
    if work > DEFAULT_BUDGET:
        return BudgetExceededError(
            f"bisecant walk needs {work} point normalizations C(n,2)*(q-1), "
            f"over the budget of {DEFAULT_BUDGET}")
    return None


class Arc:
    """An ordered n-arc in PG(2, q): no three points collinear.

    Distinct points form an arc exactly when the bisecant walk meets none
    of them: the walk from a_i to a_j reaches every other point of their
    line.  The one walk also tallies the bisecants through each point of
    the plane, indexed by plane rank, for the census and the bridge."""

    def __init__(self, field: GF, points):
        self.field = field
        for p in points:
            if len(p) != 3:
                raise ValueError(f"not a projective point: {tuple(np.asarray(p).tolist())}")
        given = _label_array(field, points).reshape(-1, 3)
        zero = ~given.any(axis=1)
        if zero.any():
            raise ValueError(f"not a projective point: {tuple(given[np.argmax(zero)].tolist())}")
        self._ranks = _plane_ranks(field, *given.T)
        size = field.q ** 2 + field.q + 1
        index = np.full(size, -1, dtype=np.int64)
        index[self._ranks] = np.arange(len(self._ranks))
        if (index[self._ranks] != np.arange(len(self._ranks))).any():
            raise ValueError("repeated arc point")  # a later point took its rank
        coords = np.column_stack(_plane_coords(field.q, self._ranks))
        self.points = [tuple(c) for c in coords.tolist()]
        self._counts = np.zeros(size, dtype=np.int64)
        for i, j, walked in _bisecant_walk(field, coords):
            hit = index[walked]
            ms, ts = np.nonzero(hit >= 0)
            if ms.size:
                # the first point i with a hit is the least on any
                # collinear triple, so every point its pairs hit lies past
                # it; name the least such triple in ascending order
                least = int(i[ms].min())
                second, third = min(sorted((int(j[m]), int(hit[m, t])))
                                    for m, t in zip(ms, ts) if i[m] == least)
                raise ValueError(f"points {least},{second},{third} are collinear; not an arc")
            np.add.at(self._counts, walked.ravel(), 1)

    @property
    def n(self) -> int:
        return len(self.points)


def _conic(field: GF) -> np.ndarray:
    """The points of conic_points, one per row, for the arcs built from the conic."""
    a = np.arange(1, field.q)
    return np.vstack([np.column_stack([np.ones_like(a), a, field.mul_array(a, a)]),
                      [(1, 0, 0), (0, 0, 1)]])


def conic_points(field: GF) -> Arc:
    """The (q+1)-point conic traced by the distance-4 parity-check columns:
    (1, a, a^2) for a = 0 and each nonzero a ascending, then (0, 0, 1)."""
    return Arc(field, _conic(field))


def hyperoval_points(field: GF) -> Arc:
    """For even q, the regular hyperoval: the conic plus its nucleus (0,1,0)."""
    if field.p != 2:
        raise ValueError(f"hyperoval requires even q, got q={field.q}")
    return Arc(field, np.vstack([_conic(field), [(0, 1, 0)]]))


def shortened_conic(field: GF, remove: int = 1) -> Arc:
    """The conic with its last `remove` points dropped (the default column
    choice; the censuses below do not depend on which points go)."""
    if remove not in (1, 2):
        raise ValueError("remove one or two conic points")
    return Arc(field, _conic(field)[:-remove])


@dataclass(frozen=True)
class PointCensus:
    """Off-arc points of PG(2, q) grouped by bisecant count, largest first."""

    classes: tuple[tuple[int, int], ...]  # (bisecant count, number of points)
    covered: int


def bisecant_census(arc: Arc) -> PointCensus:
    """Class the off-arc points by the bisecant counts the arc's walk
    tallied; those the walk never reached lie on none."""
    counts = arc._counts
    off_arc = counts.size - arc.n
    values, npts = np.unique(counts[counts > 0], return_counts=True)
    tally = {int(b): int(c) for b, c in zip(values, npts)}
    reached = int(npts.sum())
    if off_arc > reached:
        tally[0] = off_arc - reached
    return PointCensus(tuple(sorted(tally.items(), reverse=True)), off_arc)


# Predicted censuses for the conic family, per parity of q.

def conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    if q % 2:
        return (((q + 1) // 2, (q * q - q) // 2),
                ((q - 1) // 2, (q * q + q) // 2))
    return ((q // 2, q * q - 1), (0, 1))


def shortened_conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    if q < 5:
        raise ValueError("shortened-conic census formulas need q >= 5")
    if q % 2:
        return (((q - 1) // 2, (q * q + q) // 2),
                ((q - 3) // 2, (q * q - q) // 2),
                (0, 1))
    return ((q // 2, q - 1),
            ((q - 2) // 2, q * q - q),
            (0, 2))


def double_shortened_conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    if q < 7:
        raise ValueError("double-shortened-conic census formulas need q >= 7")
    if q % 2:
        return (((q - 1) // 2, (q + 1) // 2),
                ((q - 3) // 2, (q - 1) * (q + 4) // 2),
                ((q - 5) // 2, (q - 1) * (q - 3) // 2),
                (0, 2))
    return (((q - 2) // 2, 3 * (q - 1)),
            ((q - 4) // 2, (q - 1) * (q - 2)),
            (0, 3))


def hyperoval_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    if q % 2:
        raise ValueError("hyperovals need even q")
    return (((q + 2) // 2, q * q - 1),)


@dataclass(frozen=True)
class BridgeEntry:
    bisecants: int
    points: int
    coset_weight: int
    cosets: int


@dataclass
class BridgeReport:
    """Point classes of an arc matched against the coset classes of its code."""

    code: LinearCode
    census: PointCensus
    entries: tuple[BridgeEntry, ...]


def geometry_code_bridge(arc: Arc) -> BridgeReport:
    """Treat the arc points as parity-check columns and verify, class by
    class, that an off-arc point on b >= 1 bisecants yields q-1 cosets of
    weight 2 with B_2 = b, and a point on none yields q-1 weight-3 cosets.
    Arc points themselves must yield the weight-1 cosets."""
    f = arc.field
    q = f.q
    H = Matrix(f, np.transpose(arc.points))
    code = LinearCode(H)
    census = low_weight_census(code, 3)
    counts = arc._counts
    # rows[p] is the census row of the q-1 syndromes lam*pt, pt the point
    # of plane rank p
    coords = _plane_coords(q, np.arange(counts.size))
    rows = census.table[syndrome_row(f, coords)]
    on_arc = np.zeros(counts.size, dtype=bool)
    on_arc[arc._ranks] = True
    B1, B2, B3 = rows[:, 1], rows[:, 2], rows[:, 3]
    ok = np.where(on_arc, B1 == 1,
                  (B1 == 0) & np.where(counts >= 1, B2 == counts, (B2 == 0) & (B3 != 0)))
    if not ok.all():
        p = int(np.argmin(ok))  # first failure in plane order
        pt = tuple(int(c[p]) for c in coords)
        row = tuple(rows[p].tolist())
        if on_arc[p]:
            raise ValueError(f"arc point {pt}: expected a weight-1 coset, got {row}")
        if counts[p]:
            raise ValueError(
                f"class with {counts[p]} bisecants: point {pt} gives coset counts {row}")
        raise ValueError(f"bisecant-free class: point {pt} gives coset counts {row}")
    census = bisecant_census(arc)
    entries = tuple(BridgeEntry(b, npts, 2 if b else 3, (q - 1) * npts)
                    for b, npts in census.classes)
    return BridgeReport(code, census, entries)
