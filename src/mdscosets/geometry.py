"""Incidence computations in the projective plane PG(2, q).

Points are homogeneous coordinate triples normalized so the first
nonzero coordinate is 1, making equality a plain tuple comparison.
Bisecants are counted by walking them, not by testing points against
lines: on an arc, the bisecant through a and b holds, besides a and b,
exactly the q-1 points a + t*b (t != 0), none of them on the arc.

The arcs of interest trace the parity-check columns of the distance-4
codes: the conic {(1, t, t^2)} u {(0,0,1)}, for even q the regular
hyperoval (conic plus nucleus (0,1,0)), and the conic with its last one
or two points removed.  A bisecant census sorts the points off an arc
by how many of the arc's bisecants pass through them; the census on the
code side must match it coset class by coset class, which
`geometry_code_bridge` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import DEFAULT_BUDGET, LinearCode, Matrix, _require, low_weight_census
from .gf import GF

Point = tuple[int, int, int]


def normalize_point(field: GF, coords) -> Point:
    coords = tuple(field.check(c) for c in coords)
    if len(coords) != 3 or not any(coords):
        raise ValueError(f"not a projective point: {coords}")
    lead = next(c for c in coords if c)
    scale = field.inv(lead)
    return tuple(field.mul(scale, c) for c in coords)  # type: ignore[return-value]


def det3(field: GF, a: Point, b: Point, c: Point) -> int:
    f = field
    pos = f.add(f.add(f.mul(a[0], f.mul(b[1], c[2])),
                      f.mul(a[1], f.mul(b[2], c[0]))),
                f.mul(a[2], f.mul(b[0], c[1])))
    neg = f.add(f.add(f.mul(a[2], f.mul(b[1], c[0])),
                      f.mul(a[0], f.mul(b[2], c[1]))),
                f.mul(a[1], f.mul(b[0], c[2])))
    return f.sub(pos, neg)


def plane_points(field: GF) -> list[Point]:
    """All q^2 + q + 1 points of PG(2, q), canonically normalized."""
    q = field.q
    pts: list[Point] = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts.append((0, 0, 1))
    return pts


class Arc:
    """An ordered n-arc in PG(2, q): no three points collinear."""

    def __init__(self, field: GF, points):
        self.field = field
        self.points = [normalize_point(field, p) for p in points]
        if len(set(self.points)) != len(self.points):
            raise ValueError("repeated arc point")
        n = len(self.points)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if det3(field, self.points[i], self.points[j], self.points[k]) == 0:
                        raise ValueError(
                            f"points {i},{j},{k} are collinear; not an arc")

    @property
    def n(self) -> int:
        return len(self.points)


def conic_points(field: GF) -> Arc:
    """The (q+1)-point conic traced by the distance-4 parity-check columns:
    (1, a, a^2) for a = 0 and each nonzero a ascending, then (0, 0, 1)."""
    q = field.q
    pts = [(1, a, field.mul(a, a)) for a in range(1, q)]
    pts.append((1, 0, 0))
    pts.append((0, 0, 1))
    return Arc(field, pts)


def hyperoval_points(field: GF) -> Arc:
    """For even q, the regular hyperoval: the conic plus its nucleus (0,1,0)."""
    if field.p != 2:
        raise ValueError(f"hyperoval requires even q, got q={field.q}")
    base = conic_points(field)
    return Arc(field, base.points + [(0, 1, 0)])


def shortened_conic(field: GF, remove: int = 1) -> Arc:
    """The conic with its last `remove` points dropped (the default column
    choice; the censuses below do not depend on which points go)."""
    if remove not in (1, 2):
        raise ValueError("remove one or two conic points")
    base = conic_points(field)
    return Arc(field, base.points[:-remove])


@dataclass(frozen=True)
class PointCensus:
    """Off-arc points of PG(2, q) grouped by bisecant count, largest first."""

    classes: tuple[tuple[int, int], ...]  # (bisecant count, number of points)
    covered: int


def _bisecant_counts(arc: Arc) -> dict[Point, int]:
    """{off-arc point: bisecants through it}, walking each bisecant's q-1
    off-arc points a + t*b once; points on no bisecant are absent."""
    f = arc.field
    counts: dict[Point, int] = {}
    for i, a in enumerate(arc.points):
        for b in arc.points[i + 1:]:
            for t in f.nonzero():
                pt = normalize_point(f, [f.add(x, f.mul(t, y)) for x, y in zip(a, b)])
                counts[pt] = counts.get(pt, 0) + 1
    _require(set(arc.points).isdisjoint(counts), "a bisecant meets the arc a third time")
    return counts


def _point_census(arc: Arc, counts: dict[Point, int]) -> PointCensus:
    """Class the off-arc points by bisecant count; those the walk never
    reached lie on none."""
    q = arc.field.q
    off_arc = q * q + q + 1 - arc.n
    tally: dict[int, int] = {}
    for b in counts.values():
        tally[b] = tally.get(b, 0) + 1
    if off_arc > len(counts):
        tally[0] = off_arc - len(counts)
    return PointCensus(tuple(sorted(tally.items(), reverse=True)), off_arc)


def bisecant_census(arc: Arc) -> PointCensus:
    return _point_census(arc, _bisecant_counts(arc))


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


def geometry_code_bridge(arc: Arc, budget: int = DEFAULT_BUDGET) -> BridgeReport:
    """Treat the arc points as parity-check columns and verify, class by
    class, that an off-arc point on b >= 1 bisecants yields q-1 cosets of
    weight 2 with B_2 = b, and a point on none yields q-1 weight-3 cosets.
    Arc points themselves must yield the weight-1 cosets."""
    f = arc.field
    q = f.q
    H = Matrix(f, [[p[t] for p in arc.points] for t in range(3)])
    code = LinearCode(H, budget)
    census = low_weight_census(code, 3)
    counts = _bisecant_counts(arc)
    on_arc = set(arc.points)
    for pt in plane_points(f):
        row_checks = [census.distribution_of_syndrome([f.mul(lam, c) for c in pt]).counts
                      for lam in range(1, q)]
        if pt in on_arc:
            for row in row_checks:
                if row[1] != 1:
                    raise ValueError(f"arc point {pt}: expected a weight-1 coset, got {row}")
            continue
        b = counts.get(pt, 0)
        for row in row_checks:
            if b >= 1:
                if row[1] != 0 or row[2] != b:
                    raise ValueError(
                        f"class with {b} bisecants: point {pt} gives coset counts {row}")
            else:
                if row[1] != 0 or row[2] != 0 or row[3] == 0:
                    raise ValueError(
                        f"bisecant-free class: point {pt} gives coset counts {row}")
    census = _point_census(arc, counts)
    entries = tuple(BridgeEntry(b, npts, 2 if b else 3, (q - 1) * npts)
                    for b, npts in census.classes)
    return BridgeReport(code, census, entries)
