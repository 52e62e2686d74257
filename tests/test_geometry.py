import contextlib
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mdscosets import cli, geometry
from mdscosets.codes import (DEFAULT_BUDGET, BudgetExceededError, CosetCensus,
                             census_rows, low_weight_census, syndrome_row)
from mdscosets.combinat import binom
from mdscosets.geometry import (Arc, bisecant_census, conic_census_formulas, conic_points,
                                double_shortened_conic_census_formulas,
                                geometry_code_bridge, hyperoval_census_formulas,
                                hyperoval_points, shortened_conic,
                                shortened_conic_census_formulas)
from mdscosets.gf import GF, field_of_order
from mdscosets.mds import _family_code, _family_layout
from class_rows import rows_of
from oracle import (brute_bisecant_classes, det3, field_of, line_through,
                    normalize, plane_points, unisecants_through)
from sieve import prime_powers


def test_point_normalization():
    # an arc keeps each point scaled to a leading 1, as the oracle does
    f5 = field_of_order(5)
    assert Arc(f5, [(2, 4, 1), (0, 3, 1)]).points == [(1, 2, 3), (0, 1, 2)]
    assert normalize(f5, (2, 4, 1)) == (1, 2, 3)
    assert normalize(f5, (0, 3, 1)) == (0, 1, 2)


@pytest.mark.parametrize("points, text", [
    ([(1, 0, 0), (1, 5, 0)], "5 is not an element label of GF(5)"),
    ([(1, 0, 0), (1, -1, 0)], "-1 is not an element label of GF(5)"),
    ([(1, 0, 0), (1, 2.0, 0)], "2.0 is not an element label of GF(5)"),
    ([(True, 0, 0), (0, True, 0), (0, 0, 1)], "True is not an element label of GF(5)"),
    ([(1, 0, 0), (0, 1, 0), (False, 0, 1)], "False is not an element label of GF(5)"),
    ([(1, 0, 0), (0, 0, 0)], "not a projective point: (0, 0, 0)"),
    ([(1, 0, 0), (1, 2)], "not a projective point: (1, 2)"),
    ([(1, 0, 0), (1, 2, 3, 4)], "not a projective point: (1, 2, 3, 4)"),
    ([(1, 2, 3), (0, 1, 0), (2, 4, 1)], "repeated arc point"),
], ids=["out-of-range", "negative", "float", "true", "false", "zero", "short", "long",
        "repeated"])
def test_arc_refuses_a_bad_point(points, text):
    with pytest.raises(ValueError) as err:
        Arc(field_of_order(5), points)
    assert str(err.value) == text


def test_plane_has_expected_point_count():
    for q in (4, 5, 7):
        f = field_of_order(q)
        pts = plane_points(f)
        assert len(pts) == q * q + q + 1
        assert len(set(pts)) == len(pts)


def test_conic_is_an_arc_and_matches_parity_columns():
    # each named arc, for each q <= 32, is its family's first n columns:
    # (1, a, a^2) for nonzero a ascending, (1, 0, 0), (0, 0, 1), then the
    # nucleus (0, 1, 0), computed in the oracle's field, and, where the
    # family has a code of length n, that code's parity-check columns
    for q in prime_powers(32):
        f = field_of_order(q)
        F = field_of(f)
        columns = [(1, a, F.mul(a, a)) for a in range(1, q)]
        columns += [(1, 0, 0), (0, 0, 1), (0, 1, 0)]
        names = ["conic", "conic-minus:1", "conic-minus:2"] + ["hyperoval"] * (q % 2 == 0)
        for name in names:
            family, n = geometry._arc_layout(name, q)
            arc = geometry._named_arc(name, q)
            assert arc.points == columns[:n], (q, name)
            if n >= 4:
                H = _family_code(f, _family_layout(q, family, 4, n, ()), DEFAULT_BUDGET).H
                assert [normalize(f, col) for col in H.T.tolist()] == arc.points


def test_named_arcs_are_pinned():
    # the points of each named arc for every q <= 64, as the conic's own
    # builder gave them before the arcs were read from the family matrix
    digest = hashlib.sha256()
    for q in prime_powers(64):
        f = field_of_order(q)
        arcs = [("conic", conic_points(f)), ("conic-minus:1", shortened_conic(f, 1)),
                ("conic-minus:2", shortened_conic(f, 2))]
        if q % 2 == 0:
            arcs.append(("hyperoval", hyperoval_points(f)))
        for name, arc in arcs:
            digest.update(f"{q} {name} {arc.points}\n".encode())
    assert digest.hexdigest() == \
        "2a8437166cb0d4b2c9e0c9ab689e1f0adbb115ec2212b758f8f86ef28110bf9d"


@pytest.mark.parametrize("name, q, build, text", [
    ("hyperoval", 7, hyperoval_points, "hyperoval requires even q, got q=7"),
    ("hyperoval", 739, hyperoval_points, "hyperoval requires even q, got q=739"),
    ("conic-minus:3", 5, lambda f: shortened_conic(f, 3), "remove one or two conic points"),
    ("conic-minus:x", 5, lambda f: geometry._named_arc("conic-minus:x", f.q),
     "unknown arc 'conic-minus:x' (conic, hyperoval, conic-minus:K)"),
    ("moon", 5, lambda f: geometry._named_arc("moon", f.q),
     "unknown arc 'moon' (conic, hyperoval, conic-minus:K)"),
    ("conic", 6, conic_points, "6 is not a prime power"),
], ids=["hyperoval-7", "hyperoval-739", "conic-minus-3", "conic-minus-x", "moon", "q-6"])
def test_a_bad_arc_is_refused_with_one_text_before_any_field(monkeypatch, capsys,
                                                            name, q, build, text):
    # _arc_layout decides every refusal from the name and q alone; the
    # library builder (on a field built beforehand) and `census geometry`
    # (before its field) refuse with its text, and no field table is built
    with contextlib.suppress(ValueError):
        field_of_order(q)

    def no_field(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr(GF, "_build_tables", no_field)
    monkeypatch.setattr(geometry, "field_of_order", no_field)
    for call in (lambda: geometry._arc_layout(name, q), lambda: build(field_of_order(q))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text
    assert cli.main(["census", "geometry", "--q", str(q), "--arc", name]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


def test_collinear_points_rejected():
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="collinear"):
        Arc(f5, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="repeated"):
        Arc(f5, [(1, 0, 0), (2, 0, 0)])


def test_even_conic_is_extendable_by_the_nucleus():
    f4 = field_of_order(4)
    conic = conic_points(f4)
    extended = Arc(f4, conic.points + [(0, 1, 0)])  # still an arc: incomplete conic
    assert extended.n == 6
    assert hyperoval_points(f4).points == extended.points
    with pytest.raises(ValueError):
        hyperoval_points(field_of_order(5))


def test_arc_line_counts():
    # every n-arc has C(n,2) bisecants and q+2-n unisecants per arc point
    for q, remove in [(5, 0), (5, 1), (7, 2)]:
        f = field_of_order(q)
        arc = shortened_conic(f, remove) if remove else conic_points(f)
        lines = {line_through(f, a, b)
                 for i, a in enumerate(arc.points) for b in arc.points[i + 1:]}
        assert len(lines) == binom(arc.n, 2)
        for p in arc.points:
            assert unisecants_through(arc, p) == q + 2 - arc.n


def test_bisecant_census_conic_examples():
    assert bisecant_census(conic_points(field_of_order(5))).classes == ((3, 10), (2, 15))
    assert bisecant_census(conic_points(field_of_order(7))).classes == ((4, 21), (3, 28))
    assert bisecant_census(conic_points(field_of_order(8))).classes == ((4, 63), (0, 1))


def test_bisecant_census_shortened_examples():
    f5 = field_of_order(5)
    assert bisecant_census(shortened_conic(f5, 1)).classes == ((2, 15), (1, 10), (0, 1))
    f7 = field_of_order(7)
    assert bisecant_census(shortened_conic(f7, 2)).classes == \
        ((3, 4), (2, 33), (1, 12), (0, 2))


_FORMULAS = {"conic": conic_census_formulas,
             "conic-minus:1": shortened_conic_census_formulas,
             "conic-minus:2": double_shortened_conic_census_formulas,
             "hyperoval": hyperoval_census_formulas}


@pytest.mark.parametrize("q", prime_powers(32))
def test_census_formula_predictions(q):
    # each formula holds wherever its arc exists, the hyperoval at every
    # even q; on its own it totals the off-arc points and the C(n,2)
    # bisecants' q-1 off-arc points each
    for name, formulas in _FORMULAS.items():
        if name == "hyperoval" and q % 2:
            continue
        want = formulas(q)
        _, n = geometry._arc_layout(name, q)
        assert sum(npts for _, npts in want) == q * q + q + 1 - n
        assert sum(b * npts for b, npts in want) == binom(n, 2) * (q - 1)
        assert bisecant_census(geometry._named_arc(name, q)).classes == want, name


def test_census_totals():
    # each bisecant carries q-1 off-arc points
    for q, remove in [(5, 0), (7, 1), (8, 2)]:
        f = field_of_order(q)
        arc = shortened_conic(f, remove) if remove else conic_points(f)
        census = bisecant_census(arc)
        assert census.covered == q * q + q + 1 - arc.n
        assert sum(b * npts for b, npts in census.classes) == binom(arc.n, 2) * (q - 1)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13))
def test_bisecant_census_matches_brute_oracle(q):
    f = field_of_order(q)
    arcs = [conic_points(f), shortened_conic(f, 1), shortened_conic(f, 2),
            Arc(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])]
    if q % 2 == 0:
        arcs.append(hyperoval_points(f))
    # any subset of an arc is an arc: seeded random ones, in random order
    rng = random.Random(q)
    for full in arcs[:1] + arcs[4:]:
        for _ in range(2):
            size = rng.randint(min(3, full.n), full.n)
            arcs.append(Arc(f, rng.sample(full.points, size)))
    for arc in arcs:
        assert bisecant_census(arc).classes == brute_bisecant_classes(arc), arc.points


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_arc_rejects_exactly_the_collinear_sets(q):
    # the first collinear triple (i < j < k), if any, is the one named
    f = field_of_order(q)
    rng = random.Random(100 + q)
    rejected = 0
    for _ in range(40):
        pts = rng.sample(plane_points(f), rng.randint(4, min(6, q * q + q + 1)))
        triples = [t for t in itertools.combinations(range(len(pts)), 3)
                   if det3(f, *(pts[i] for i in t)) == 0]
        if not triples:
            assert Arc(f, pts).n == len(pts)
            continue
        rejected += 1
        i, j, k = triples[0]
        with pytest.raises(ValueError, match=f"points {i},{j},{k} are collinear"):
            Arc(f, pts)
    assert rejected


@pytest.mark.parametrize("q", (4, 5, 8))
def test_each_arc_walks_its_bisecants_once(monkeypatch, q):
    # building the arc walks it; the census and the bridge read that walk
    walks = 0
    walk = geometry._bisecant_walk

    def counting(field, coords):
        nonlocal walks
        walks += 1
        return walk(field, coords)
    monkeypatch.setattr(geometry, "_bisecant_walk", counting)
    f = field_of_order(q)
    builds = [conic_points, lambda f: shortened_conic(f, 2)]
    if q % 2 == 0:
        builds.append(hyperoval_points)
    for build in builds:
        walks = 0
        bisecant_census(build(f))
        assert walks == 1
    walks = 0
    geometry_code_bridge(conic_points(f))
    assert walks == 1


def test_line_through_is_incidence_symmetric():
    f5 = field_of_order(5)
    a, b = (1, 2, 3), (1, 0, 0)
    ln = line_through(f5, a, b)
    F5 = field_of(f5)
    for pt in (a, b):
        dot = F5.add(F5.add(F5.mul(ln[0], pt[0]), F5.mul(ln[1], pt[1])), F5.mul(ln[2], pt[2]))
        assert dot == 0


def test_geometry_code_bridge_conic():
    f5 = field_of_order(5)
    report = geometry_code_bridge(conic_points(f5))
    assert (report.code.n, report.code.k) == (6, 3)
    got = {(e.bisecants, e.points, e.coset_weight, e.cosets) for e in report.entries}
    assert got == {(3, 10, 2, 40), (2, 15, 2, 60)}


def test_geometry_code_bridge_shortened_conic():
    f5 = field_of_order(5)
    report = geometry_code_bridge(shortened_conic(f5, 1))
    got = {(e.bisecants, e.points, e.coset_weight, e.cosets) for e in report.entries}
    assert (0, 1, 3, 4) in got  # the removed point: 4 weight-3 cosets


def test_geometry_code_bridge_nucleus():
    f4 = field_of_order(4)
    report = geometry_code_bridge(conic_points(f4))
    got = {(e.bisecants, e.points, e.coset_weight, e.cosets) for e in report.entries}
    assert (0, 1, 3, 3) in got  # the nucleus: q-1 weight-3 cosets


def test_the_bridge_refuses_an_arc_of_fewer_than_3_points(monkeypatch):
    # the conic less two points at q = 3 and q = 2 has 2 and 1 points,
    # too few columns for the code's 3 parity checks; no code is built
    def no_code(*args):
        raise AssertionError("a code was built")
    monkeypatch.setattr(geometry, "LinearCode", no_code)
    for q, n in ((3, 2), (2, 1)):
        with pytest.raises(ValueError) as err:
            geometry_code_bridge(shortened_conic(field_of_order(q), 2))
        assert str(err.value) == f"the bridge needs at least 3 arc points, got {n}"


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_the_bridge_matches_the_formulas_at_the_smallest_fields(q):
    # every named arc of at least 3 points: its code's census meets the
    # bisecant classes its formula predicts
    for name, formulas in _FORMULAS.items():
        if name == "hyperoval" and q % 2 or geometry._arc_layout(name, q)[1] < 3:
            continue
        report = geometry_code_bridge(geometry._named_arc(name, q))
        assert report.census.classes == formulas(q), name
        assert sum(e.cosets for e in report.entries) == (q - 1) * report.census.covered


def _bridge_with_altered_rows(monkeypatch, arc, alter):
    """Run the bridge on a census whose rows `alter(table, index)` edits;
    index(pt, lam) is the row of the syndrome lam*pt, the row of pt's point."""
    f = arc.field

    def index(pt, lam):
        return syndrome_row(f, [field_of(f).mul(lam, c) for c in pt])

    def altered(code, wmax):
        table = rows_of(low_weight_census(code, wmax)).table
        alter(table, index)
        return CosetCensus(code, table)
    monkeypatch.setattr(geometry, "low_weight_census", altered)
    with pytest.raises(ValueError) as err:
        geometry_code_bridge(arc)
    return str(err.value)


def test_bridge_names_the_first_failing_point(monkeypatch):
    # each failure is planted at two points, each through a multiple
    # lam*pt of the point (the later one in census-row order at a smaller
    # lam), and the earlier one is named; on the q = 4 conic
    # 15 points lie on 2 bisecants, and the two points dropped from the
    # q = 7 conic lie on none
    arc = conic_points(field_of_order(4))
    assert (1, 0, 0) in arc.points and (0, 0, 1) in arc.points

    def arc_point(table, index):
        table[index((0, 0, 1), 1), 1] = 0
        table[index((1, 0, 0), 3), 1] = 0
    assert _bridge_with_altered_rows(monkeypatch, arc, arc_point) == \
        "arc point (1, 0, 0): expected a weight-1 coset, got (0, 0, 0, 4)"

    def bisecant_point(table, index):
        table[index((1, 0, 2), 1), 2] += 1
        table[index((1, 2, 0), 2), 2] += 1
    assert _bridge_with_altered_rows(monkeypatch, arc, bisecant_point) == \
        "class with 2 bisecants: point (1, 2, 0) gives coset counts (0, 0, 3, 4)"

    def last_digit_leads(table, index):
        # both lead at the last digit: (1, 0, 2) scales to (3, 0, 1), row
        # 6 + 3, and (1, 1, 2) to (3, 3, 1), row 6 + 3 + 3*4
        table[index((1, 1, 2), 1), 2] += 1
        table[index((1, 0, 2), 3), 2] += 1
    assert _bridge_with_altered_rows(monkeypatch, arc, last_digit_leads) == \
        "class with 2 bisecants: point (1, 0, 2) gives coset counts (0, 0, 3, 4)"

    def bisecant_free(table, index):
        table[index((0, 0, 1), 1), 3] = 0
        table[index((1, 0, 0), 6), 3] = 0
    arc = shortened_conic(field_of_order(7), 2)
    assert (1, 0, 0) not in arc.points and (0, 0, 1) not in arc.points
    assert _bridge_with_altered_rows(monkeypatch, arc, bisecant_free) == \
        "bisecant-free class: point (1, 0, 0) gives coset counts (0, 0, 0, 0)"


def test_bridge_reads_the_rows_through_a_uint8_class_index(monkeypatch):
    # the bridge compares the census rows of the plane's points, read
    # through the class index, with the arc's int64 bisecant counts: on
    # each census and on the census of its rebuilt int64 table every
    # comparison holds and the reports agree
    arcs = [conic_points(field_of_order(q)) for q in (4, 5, 7, 8, 9, 11, 13)]
    arcs += [hyperoval_points(field_of_order(8)), shortened_conic(field_of_order(11), 2)]
    censuses = []

    def kept(code, wmax):
        censuses.append(low_weight_census(code, wmax))
        return censuses[-1]

    def from_rows(code, wmax):
        return CosetCensus(code, rows_of(low_weight_census(code, wmax)).table)
    for arc in arcs:
        monkeypatch.setattr(geometry, "low_weight_census", kept)
        indexed = geometry_code_bridge(arc)
        monkeypatch.setattr(geometry, "low_weight_census", from_rows)
        rebuilt = geometry_code_bridge(arc)
        assert (indexed.census, indexed.entries) == (rebuilt.census, rebuilt.entries), arc.n
    assert {c.index.dtype.name for c in censuses} == {"uint8"}


def test_censuses_hold_python_ints():
    # the CLI serializes these; numpy integers would not round-trip as JSON
    arc = shortened_conic(field_of_order(5), 1)
    report = geometry_code_bridge(arc)
    assert report.census == bisecant_census(arc)
    values = [report.census.covered, *(v for c in report.census.classes for v in c)]
    values += [v for e in report.entries for v in vars(e).values()]
    assert all(type(v) is int for v in values)


def test_census_formulas_refuse_a_q_without_the_arc(capsys):
    # each formula refuses exactly what `census geometry` refuses for its
    # arc (_arc_layout's refusal), with the same text
    refusals = [(name, q, f"{q} is not a prime power")
                for name in _FORMULAS for q in (0, 1, 6, -3)]
    refusals += [(name, 65537, "field order 65537 exceeds the configured maximum 65536")
                 for name in _FORMULAS]
    refusals += [("hyperoval", 5, "hyperoval requires even q, got q=5")]
    for name, q, message in refusals:
        with pytest.raises(ValueError) as err:
            _FORMULAS[name](q)
        assert str(err.value) == message
        assert cli.main(["census", "geometry", "--q", str(q), "--arc", name]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bisecant_walk_budget_boundary():
    # the conic walk fits up to q = 733 (196842852 steps) and not at 739
    geometry._check_walk(733, 734)
    with pytest.raises(BudgetExceededError) as err:
        geometry._check_walk(739, 740)
    assert "201791340 point normalizations" in str(err.value)


@pytest.mark.parametrize("q", [5, 8])
def test_each_walk_block_holds_the_pairs_its_cap_allows(monkeypatch, q):
    # every block but the last holds max(1, cap // (q - 1)) pairs, at
    # most cap points; the floor of one pair binds at a cap below q - 1
    f = field_of_order(q)
    coords = np.array(conic_points(f).points)
    pairs = binom(len(coords), 2)
    for cap in (1, q - 1, 2 * q - 1, geometry.WALK_BLOCK_POINTS):
        monkeypatch.setattr(geometry, "WALK_BLOCK_POINTS", cap)
        per_block = max(1, cap // (q - 1))
        full, last = divmod(pairs, per_block)
        sizes = [len(i) for i, _, _ in geometry._bisecant_walk(f, coords)]
        assert sizes == [per_block] * full + [last] * (last > 0), cap


def test_the_library_refuses_a_walk_over_the_budget_before_any_block(monkeypatch):
    # the conic of PG(2, 739) needs 201791340 normalizations: the arc
    # refuses as `census geometry` does, before the walk forms a block
    f = field_of_order(739)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        conic_points(f)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(BudgetExceededError) as walk:
        geometry._check_walk(739, 740)
    assert str(err.value) == str(walk.value)
    monkeypatch.setattr(f, "add_table", lambda: pytest.fail("the walk read the field's tables"))
    for build in (conic_points, lambda f: shortened_conic(f, 1)):
        with pytest.raises(BudgetExceededError, match="bisecant walk needs"):
            build(f)


def test_an_arc_over_the_walk_budget_is_refused_before_any_plane_array():
    # the conic of PG(2, 4096) would take two arrays of q^2+q+1 = 16.8M
    # int64 entries (134 MB each); the refusal comes first
    f = field_of_order(4096)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="bisecant walk needs"):
            conic_points(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_short_arc_whose_plane_is_over_the_budget_is_refused_before_any_plane_array():
    # three points walk only 3*(q-1) normalizations, but at q = 16384 the
    # arc's two tallies and the field's addition table would hold
    # 2*(q^2+q+1) + q^2 = 805339140 entries (over 8 GB as the arc builds)
    f = field_of_order(16384)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            Arc(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("arc plane needs 805339140 entries 2*(q^2+q+1)+q^2, "
                              "over the budget of 200000000")
    assert peak < 2**20 and f._add_table is None
    geometry._check_walk(4096, 3)  # 50,348,034 entries fit


def _per_step_walk(f, points):
    """The bisecant tally of the plane by census row, walked one arc point
    a_i at a time over all later a_j, or the text naming the first
    collinear triple."""
    q = f.q
    coords = np.array([normalize(f, p) for p in points])
    rows = syndrome_row(f, coords.T)
    index = np.full(census_rows(q, 3), -1)
    index[rows] = np.arange(len(points))
    counts = np.zeros(census_rows(q, 3), dtype=np.int64)
    add, t = f.add_table(), np.arange(1, q)
    for i in range(len(points) - 1):
        a, later = coords[i], coords[i + 1:, :, None]
        walked = syndrome_row(f, [add[a[c], f.mul_array(t, later[:, c])] for c in range(3)])
        hit = index[walked]
        js, ts = np.nonzero(hit >= 0)
        if js.size:
            j, k = min(sorted((int(j) + i + 1, int(k))) for j, k in zip(js, hit[js, ts]))
            return f"points {i},{j},{k} are collinear; not an arc"
        counts += np.bincount(walked.ravel(), minlength=counts.size)
    return counts


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_block_walk_matches_the_per_step_walk(monkeypatch, q):
    # blocks cut anywhere, down to one pair, tally the same bisecants and
    # name the same collinear triple as a walk one arc point at a time:
    # on shuffled arcs and on arcs with a point or two of the plane added
    f = field_of_order(q)
    rng = random.Random(700 + q)
    plane = plane_points(f)
    full = (hyperoval_points(f) if q % 2 == 0 else conic_points(f)).points
    sets = []
    for _ in range(12):
        pts = rng.sample(full, rng.randint(min(3, len(full)), len(full)))
        for _ in range(rng.randint(0, 2)):
            extra = rng.choice([p for p in plane if p not in pts])
            pts.insert(rng.randint(0, len(pts)), extra)
        sets.append(pts)
    named = tallied = 0
    for cap in (1, q - 1, 2 * q - 1, 5 * q, geometry.WALK_BLOCK_POINTS):
        monkeypatch.setattr(geometry, "WALK_BLOCK_POINTS", cap)
        for pts in sets:
            want = _per_step_walk(f, pts)
            if isinstance(want, str):
                named += 1
                with pytest.raises(ValueError) as err:
                    Arc(f, pts)
                assert str(err.value) == want, (cap, pts)
            else:
                tallied += 1
                assert np.array_equal(Arc(f, pts)._counts, want), (cap, pts)
    assert tallied and (named or q == 2)


def test_verify_and_a_conic_census_leave_numpy_ma_unimported():
    # numpy.ma costs its import time and memory inside the first call
    # that pulls it in; nothing verify or the arc walk calls does
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = ("import sys\n"
              "from mdscosets import bisecant_census, conic_points, field_of_order\n"
              "from mdscosets.verify import DeskCache, run_acceptance\n"
              "run_acceptance(DeskCache())\n"
              "bisecant_census(conic_points(field_of_order(31)))\n"
              "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
