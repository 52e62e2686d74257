"""A census keeps every coset's class under the doubly-extended code's
scale, shift, invert and Frobenius maps, on each length that keeps the
map (tests/automorphisms.py)."""
import copy

import numpy as np
import pytest

from automorphisms import census_syndromes, maps_keeping, maps_of, mismatched_rows
from mdscosets.codes import census_rows, coset_census, syndrome_row
from mdscosets.gf import field_of_order
from mdscosets.mds import _family_rows
from sieve import prime_powers


def _rows_of_columns(f, columns):
    """The census rows of the columns of a matrix, as a set."""
    return set(syndrome_row(f, list(columns)).tolist())


@pytest.mark.parametrize("q", prime_powers(16))
def test_each_map_sends_every_column_to_a_multiple_of_a_column(q):
    # at lengths q+1, q and q-1 of every d, and with the nucleus at even
    # q, for each map that keeps the length
    f = field_of_order(q)
    for d in range(3, min(q + 1, 6) + 1):
        full = _family_rows(f, "gdrs", d)
        matrices = [full[:, :n] for n in (q + 1, q, q - 1)]
        if d == 4 and q % 2 == 0:
            matrices.append(_family_rows(f, "gtrs", 4))
        for H in matrices:
            columns = _rows_of_columns(f, H)
            for name, mapping in maps_keeping(f, H.shape[1]).items():
                assert _rows_of_columns(f, mapping(list(H))) == columns, (q, d, H.shape, name)


@pytest.mark.parametrize("q", (2, 4, 7, 8, 9))
def test_each_map_permutes_the_census_rows(q):
    f = field_of_order(q)
    for r in (2, 3, 4):
        for mapping in maps_of(f).values():
            images = syndrome_row(f, mapping(census_syndromes(q, r)))
            assert sorted(images.tolist()) == list(range(census_rows(q, r)))


def _mapped_codes(desk):
    """The desk codes of lengths q+1, q and q-1, and the triply-extended
    codes at q = 4 and 8 (the second is over the corpus size limit)."""
    gdrs = [e.code for e in desk.entries if e.family == "gdrs" and e.n >= e.q - 1]
    return gdrs + [desk.code(q, 4, family="gtrs") for q in (4, 8)]


def test_every_census_keeps_its_classes_under_each_map_of_its_length(desk):
    codes = _mapped_codes(desk)
    assert len(codes) == 45  # 43 gdrs codes at q <= 9, then two gtrs
    # the corpus censuses, and the one of [10,7,4]_8, past the size limit
    censuses = [desk.census(code) for code in codes[:-1]] + [coset_census(codes[-1])]
    checked = {}
    for code, census in zip(codes, censuses):
        for name, mapping in maps_keeping(code.field, code.n).items():
            assert not mismatched_rows(census, mapping).size, (code, name)
            checked[name] = checked.get(name, 0) + 1
    # shift on the 28 gdrs codes of length q+1 or q, invert on the 30 of
    # length q+1 or q-1, and each on both gtrs codes
    assert checked == {"scale": 45, "frobenius": 45, "shift": 30, "invert": 32}


def test_a_map_that_does_not_keep_the_length_moves_rows(desk):
    # invert sends the column of a = 0 to infinity, which a length-q code
    # lacks, and shift sends a = -1 to 0, which a length-(q-1) code lacks:
    # each moves rows to other classes on every such desk code
    moved = {}
    for code in _mapped_codes(desk)[:-2]:  # the gdrs codes
        census, maps = desk.census(code), maps_of(code.field)
        for name in maps.keys() - maps_keeping(code.field, code.n).keys():
            moved[code.n - code.field.q, name, code] = mismatched_rows(census, maps[name]).size
    assert {(offset, name) for offset, name, _ in moved} == {(0, "invert"), (-1, "shift")}
    assert all(moved.values())
    assert moved[0, "invert", desk.code(7, 4, 7)] == 14


@pytest.mark.parametrize("q, n, frobenius", [(7, 8, 0), (8, 9, 2), (9, 8, 2)])
def test_a_row_moved_to_another_class_breaks_the_check(desk, q, n, frobenius):
    # the last row of a d = 5 code's first weight-3 class, put in its
    # second: each map that moves the row finds it and its preimage, and
    # Frobenius is the identity at prime q
    census = desk.census(desk.code(q, 5, n))
    first, second = [i for i, c in enumerate(census.classes) if c.weight == 3][:2]
    doctored = copy.copy(census)
    doctored.index = census.index.copy()
    doctored.index[np.flatnonzero(census.index == first)[-1]] = second
    maps = maps_of(census.code.field)
    assert mismatched_rows(doctored, maps["scale"]).size == 2
    assert mismatched_rows(doctored, maps["frobenius"]).size == frobenius
