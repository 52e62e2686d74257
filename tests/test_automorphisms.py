"""A census keeps every coset's class under the doubly-extended code's
scale and Frobenius maps (tests/automorphisms.py)."""
import copy

import numpy as np
import pytest

from automorphisms import census_syndromes, maps_of, mismatched_rows
from mdscosets.codes import census_rows, syndrome_row
from mdscosets.gf import field_of_order
from mdscosets.mds import _family_rows
from sieve import prime_powers


def _rows_of_columns(f, columns):
    """The census rows of the columns of a matrix, as a set."""
    return set(syndrome_row(f, list(columns)).tolist())


@pytest.mark.parametrize("q", prime_powers(16))
def test_each_map_sends_every_column_to_a_multiple_of_a_column(q):
    # at lengths q+1, q and q-1 of every d, and with the nucleus at even q
    f = field_of_order(q)
    for d in range(3, min(q + 1, 6) + 1):
        full = _family_rows(f, "gdrs", d)
        matrices = [full[:, :n] for n in (q + 1, q, q - 1)]
        if d == 4 and q % 2 == 0:
            matrices.append(_family_rows(f, "gtrs", 4))
        for H in matrices:
            columns = _rows_of_columns(f, H)
            for name, mapping in maps_of(f).items():
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


def test_every_census_keeps_its_classes_under_both_maps(desk):
    codes = _mapped_codes(desk)
    assert len(codes) == 45  # 43 gdrs codes at q <= 9, then two gtrs
    for code in codes:
        census = desk.census(code)
        for name, mapping in maps_of(code.field).items():
            assert not mismatched_rows(census, mapping).size, (code, name)


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
