"""Incidence computations in the projective plane PG(2, q).

An Arc reads its points as rows of three labels by gf._label_array, the
one reader of a matrix of labels, and keeps them as homogeneous
coordinate triples normalized so the first nonzero coordinate is 1,
making equality a plain tuple comparison.  Elsewhere a point is its
census row (codes.syndrome_row), the triple read as a syndrome, so the
arc's tallies line up entry for entry with a census of its code.  Bisecants are
counted by walking them, not by testing points against lines: on an
arc, the bisecant through a and b holds, besides a and b, exactly the
q-1 points a + t*b (t != 0), none of them on the arc (Hirschfeld,
Projective Geometries over Finite Fields).  The walk runs on the field's
array tables over the pairs i < j in order, in blocks of consecutive
pairs holding at most WALK_BLOCK_POINTS points: each block's points
a_i + t*a_j are formed and ranked as arrays and tallied in
place by one np.add.at, so a walk's temporaries stay a few MiB at any q
the budget admits.  Before its first block, the walk charges its
C(n,2)*(q-1) point normalizations to codes._charge, and then the plane
entries the arc's tallies and the field's addition table hold.  Building
an Arc runs the walk once: distinct points are an arc exactly when it
meets none of them, and the same blocks tally the bisecants through
every point, which the census and the bridge read.

The arcs of interest are the first n parity-check columns of the
distance-4 family matrix (mds._family_rows): the conic {(1, t, t^2)} u
{(0,0,1)} (gdrs), for even q the regular hyperoval (gtrs: the conic plus
its nucleus (0,1,0)), and the conic less its last one or two points.
_arc_layout is the one rule for where each arc, and so its census
formula, exists: every *_census_formulas asks it first and refuses what
`census geometry` refuses.  A bisecant census classes the off-arc points
by how many of the arc's bisecants pass through them; it and the
formulas share one class layout, _point_classes (no empty class, equal
counts merged, largest first).  `geometry_code_bridge` checks the code's
census against it class by class, reading each census row's class through
the census's index (one row stands for the q-1 syndromes lam*pt of a
point) and comparing them with the tallies as arrays.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codes import (DEFAULT_BUDGET, LinearCode, _charge, _row_syndrome,
                    census_rows, low_weight_census, syndrome_row)
from .combinat import binom
from .gf import GF, _label_array, check_field_order, field_of_order
from .mds import _family_rows, family_length


WALK_BLOCK_POINTS = 1 << 16  # points a_i + t*a_j per block of the walk


def _bisecant_walk(field: GF, coords: np.ndarray):
    """Yield (i, j, rows) for blocks of consecutive arc point pairs i < j,
    in order: i and j index the block's pairs, and rows[m, t - 1] is the
    census row of a_i + t*a_j for pair m and t != 0.  On an arc these are
    the q-1 off-arc points of the bisecant a_i a_j.  Every block but the
    last holds max(1, WALK_BLOCK_POINTS // (q - 1)) pairs, so at most
    WALK_BLOCK_POINTS points: the floor of one pair binds only for a cap
    below q - 1, which MAX_FIELD_ORDER = WALK_BLOCK_POINTS rules out.  Its
    budget (_check_walk) is Arc's to check, before the walk."""
    q, n = field.q, len(coords)
    add = field.add_table().ravel()  # add(x, y) at x*q + y: one flat gather per block
    t = np.arange(1, q)
    pairs_i, pairs_j = np.triu_indices(n, 1)  # the pairs i < j in order
    per_block = max(1, WALK_BLOCK_POINTS // (q - 1))
    for start in range(0, len(pairs_i), per_block):
        i, j = pairs_i[start:start + per_block], pairs_j[start:start + per_block]
        a, b = coords[i][:, :, None], coords[j][:, :, None]
        yield i, j, syndrome_row(field, [add[a[:, c] * q + field.mul_array(t, b[:, c])]
                                         for c in range(3)])


def _check_walk(q: int, n: int) -> None:
    """Charge the bisecant walk of an n-arc in PG(2, q) its C(n,2)*(q-1)
    point normalizations, then the plane entries the arc and its walk
    hold: the arc's two census_rows(q, 3) tallies (point index and
    bisecant counts) and the field's (q, q) addition table.  It needs only
    q and n, so it fires before the field or any plane-sized array is
    built.  Every named arc the walk admits has q <= 733, and its plane
    fits, so only a short arc at a large q meets the second charge."""
    work = binom(n, 2) * (q - 1)
    _charge(work, DEFAULT_BUDGET,
            lambda: f"bisecant walk needs {work} point normalizations C(n,2)*(q-1)")
    entries = 2 * census_rows(q, 3) + q * q
    _charge(entries, DEFAULT_BUDGET,
            lambda: f"arc plane needs {entries} entries 2*(q^2+q+1)+q^2")


def _leading_one(field: GF, points: np.ndarray) -> np.ndarray:
    """The nonzero points, rows of three labels, each scaled so its first
    nonzero coordinate is 1."""
    lead = points[np.arange(len(points)), np.argmax(points != 0, axis=1)]
    return field.mul_array(points, field.inv_array(lead)[:, None])


class Arc:
    """An ordered n-arc in PG(2, q): no three points collinear.

    Distinct points form an arc exactly when the bisecant walk meets none
    of them: the walk from a_i to a_j reaches every other point of their
    line.  The one walk also tallies the bisecants through each point of
    the plane by census row, one entry per row of a census of the arc's
    code, for the census and the bridge; row 0, the zero syndrome, is no
    point and stays 0."""

    def __init__(self, field: GF, points):
        self.field = field
        given = _label_array(field, points, "point", 3)
        zero = ~given.any(axis=1)
        if zero.any():
            raise ValueError(f"not a projective point: {tuple(given[np.argmax(zero)].tolist())}")
        _check_walk(field.q, len(given))  # before any plane-sized array
        coords = _leading_one(field, given)
        self.points = [tuple(c) for c in coords.tolist()]
        self._ranks = syndrome_row(field, coords.T)
        size = census_rows(field.q, 3)
        index = np.full(size, -1, dtype=np.int64)
        index[self._ranks] = np.arange(len(self._ranks))
        if (index[self._ranks] != np.arange(len(self._ranks))).any():
            raise ValueError("repeated arc point")  # a later point took its row
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


def _arc_layout(name: str, q: int) -> tuple[str, int]:
    """(family, n) of the arc `name` in PG(2, q), the first n columns of the
    family's d = 4 matrix.  Each refusal comes from the name and q alone,
    after q itself; family_length makes the hyperoval's at odd q."""
    check_field_order(q)
    if name == "conic":
        return "gdrs", family_length("gdrs", q)
    if name == "hyperoval":
        return "gtrs", family_length("gtrs", q)
    remove = None
    if name.startswith("conic-minus:"):
        with contextlib.suppress(ValueError):
            remove = int(name[len("conic-minus:"):])
    if remove is None:
        raise ValueError(f"unknown arc {name!r} (conic, hyperoval, conic-minus:K)")
    if remove not in (1, 2):
        raise ValueError("remove one or two conic points")
    return "gdrs", family_length("gdrs", q) - remove


def _named_arc(name: str, q: int) -> Arc:
    """The arc `name` (conic, hyperoval or conic-minus:K) in PG(2, q): every
    usage error, then the walk's budget, then GF(q) and the arc."""
    family, n = _arc_layout(name, q)
    _check_walk(q, n)
    field = field_of_order(q)
    return Arc(field, _family_rows(field, family, 4)[:, :n].T)


def conic_points(field: GF) -> Arc:
    """The (q+1)-point conic traced by the distance-4 parity-check columns:
    (1, a, a^2) for each nonzero a ascending, then (1, 0, 0), then (0, 0, 1).
    Like each named arc, it is built on field_of_order(field.q)."""
    return _named_arc("conic", field.q)


def hyperoval_points(field: GF) -> Arc:
    """For even q, the regular hyperoval: the conic plus its nucleus (0,1,0),
    built on field_of_order(field.q)."""
    return _named_arc("hyperoval", field.q)


def shortened_conic(field: GF, remove: int = 1) -> Arc:
    """The conic with its last `remove` points dropped (the default column
    choice; the censuses below do not depend on which points go), built on
    field_of_order(field.q)."""
    return _named_arc(f"conic-minus:{remove}", field.q)


@dataclass(frozen=True)
class PointCensus:
    """Off-arc points of PG(2, q) grouped by bisecant count, largest first."""

    classes: tuple[tuple[int, int], ...]  # (bisecant count, number of points)
    covered: int


def _point_classes(pairs) -> tuple[tuple[int, int], ...]:
    """(bisecant count, points) pairs laid out as census classes: counts
    with no points dropped, equal counts' points added, largest first."""
    tally = Counter()
    for b, npts in pairs:
        tally[int(b)] += int(npts)
    return tuple(sorted(((b, c) for b, c in tally.items() if c), reverse=True))


def bisecant_census(arc: Arc) -> PointCensus:
    """Class the off-arc points by the bisecant counts the arc's walk
    tallied; those the walk never reached lie on none."""
    counts = arc._counts[1:]  # row 0, the zero syndrome, is no point
    off_arc = counts.size - arc.n
    values, npts = np.unique(counts[counts > 0], return_counts=True)
    return PointCensus(_point_classes([*zip(values, npts), (0, off_arc - npts.sum())]), off_arc)


def conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    _arc_layout("conic", q)
    if q % 2:
        return _point_classes((((q + 1) // 2, (q * q - q) // 2),
                               ((q - 1) // 2, (q * q + q) // 2)))
    return _point_classes(((q // 2, q * q - 1), (0, 1)))


def shortened_conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    _arc_layout("conic-minus:1", q)
    if q % 2:
        return _point_classes((((q - 1) // 2, (q * q + q) // 2),
                               ((q - 3) // 2, (q * q - q) // 2), (0, 1)))
    return _point_classes(((q // 2, q - 1), ((q - 2) // 2, q * q - q), (0, 2)))


def double_shortened_conic_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    _arc_layout("conic-minus:2", q)
    if q % 2:
        return _point_classes((((q - 1) // 2, (q + 1) // 2),
                               ((q - 3) // 2, (q - 1) * (q + 4) // 2),
                               ((q - 5) // 2, (q - 1) * (q - 3) // 2),
                               (0, 2)))
    return _point_classes((((q - 2) // 2, 3 * (q - 1)),
                           ((q - 4) // 2, (q - 1) * (q - 2)),
                           (0, 3)))


def hyperoval_census_formulas(q: int) -> tuple[tuple[int, int], ...]:
    _, n = _arc_layout("hyperoval", q)
    return _point_classes(((n // 2, q * q + q + 1 - n),))


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
    if arc.n < 3:  # fewer columns than the 3 parity checks of a point
        raise ValueError(f"the bridge needs at least 3 arc points, got {arc.n}")
    f = arc.field
    q = f.q
    code = LinearCode(f, np.transpose(arc.points))
    census = low_weight_census(code, 3)
    # the census rows of the code are the arc's: rows[p - 1] is B_0..B_3
    # of the q-1 syndromes lam*pt of the point pt of row p >= 1
    rows = np.array([c.distribution.counts for c in census.classes])[census.index[1:]]
    counts = arc._counts[1:]
    on_arc = np.zeros(counts.size, dtype=bool)
    on_arc[arc._ranks - 1] = True
    B1, B2, B3 = rows[:, 1], rows[:, 2], rows[:, 3]
    ok = np.where(on_arc, B1 == 1,
                  (B1 == 0) & np.where(counts >= 1, B2 == counts, (B2 == 0) & (B3 != 0)))
    if not ok.all():
        p = int(np.argmin(ok))  # first failure in census-row order
        syndrome = _row_syndrome(q, code.r, p + 1)
        pt = tuple(_leading_one(f, np.array([syndrome]))[0].tolist())
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
