import numpy as np
import pytest

from mdscosets import codes, mds
from mdscosets.codes import DEFAULT_BUDGET, LinearCode, coset_census
from mdscosets.geometry import conic_points
from mdscosets.gf import GF, field_of_order
from mdscosets.mds import FAMILIES, build_code, family_length, mds_weight_distribution
from oracle import brute_codeword_weights, brute_table, field_of


def family_code(field, family, d=None, removed=()):
    """The family code as build_code builds it, not yet certified."""
    return mds._family_code(field, mds._family_layout(field.q, family, d, None, removed),
                            DEFAULT_BUDGET)


def test_gdrs_matrix_layout():
    f5 = field_of_order(5)
    H = family_code(f5, "gdrs", 4).H
    assert H.shape == (3, 6)
    # alpha columns are (1, a, a^2); the extension columns are unit vectors
    F5 = field_of(f5)
    cols = H.T.tolist()
    for i, a in enumerate(range(1, 5)):
        assert cols[i] == [1, a, F5.mul(a, a)]
    assert cols[4] == [1, 0, 0]
    assert cols[5] == [0, 0, 1]


def test_gdrs_codes_are_mds():
    for q, d, expect in [(5, 4, (6, 3)), (5, 3, (6, 4)), (4, 3, (5, 3))]:
        f = field_of_order(q)
        code = family_code(f, "gdrs", d)
        assert (code.n, code.k) == expect
        assert code.min_distance() == d


def test_gdrs_rejections():
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="design distance required"):
        build_code(f5, "gdrs")
    with pytest.raises(ValueError, match=r"need 3 <= d <= n, got d=2, n=6"):
        build_code(f5, "gdrs", 2)
    with pytest.raises(ValueError, match=r"need 3 <= d <= n, got d=7, n=6"):
        build_code(f5, "gdrs", 7)  # d > q + 1


def test_family_layout_is_the_recipe():
    # d resolved and every dropped column listed, from the numbers alone
    assert mds._family_layout(5, "gdrs", 4, 5, (1,)) == mds.MdsConstruction("gdrs", 5, 4, (1, 5))
    assert mds._family_layout(4, "gtrs", None, None, ()) == mds.MdsConstruction("gtrs", 4, 4, ())
    code, recipe = build_code(field_of_order(5), "gdrs", 4, removed=[2])
    assert recipe == mds._family_layout(5, "gdrs", 4, None, [2])
    assert code.H.tolist() == family_code(field_of_order(5), "gdrs", 4, [2]).H.tolist()


def test_removed_columns_and_n_must_be_integers():
    # int() read 2.7 and True as column 2 and 1, and '1' as 1; range()
    # refused n = 5.0 with a TypeError
    f5 = field_of_order(5)
    for removed in ([2.7], [True], ["1"]):
        with pytest.raises(ValueError) as err:
            build_code(f5, "gdrs", 4, removed=removed)
        assert str(err.value) == f"a removed column must be an integer, got {removed[0]!r}"
    for n in (5.0, False, "5"):
        with pytest.raises(ValueError) as err:
            build_code(f5, "gdrs", 4, n=n)
        assert str(err.value) == f"n must be an integer, got {n!r}"
    # integer types are read as ints
    code, recipe = build_code(f5, "gdrs", 4, n=np.int64(5), removed=[np.int16(2)])
    assert recipe == mds.MdsConstruction("gdrs", 5, 4, (2, 5))
    assert type(recipe.removed[0]) is int and code.n == 4


def test_gtrs_examples():
    f4 = field_of_order(4)
    code = family_code(f4, "gtrs")
    assert (code.n, code.k) == (6, 3)
    assert code.min_distance() == 4
    assert code.covering_radius() == 2
    f8 = field_of_order(8)
    code8 = family_code(f8, "gtrs")
    assert (code8.n, code8.k) == (10, 7)
    assert code8.min_distance() == 4
    assert code8.H[:, -1].tolist() == [0, 1, 0]  # the nucleus
    with pytest.raises(ValueError, match="hyperoval requires even q, got q=5"):
        build_code(field_of_order(5), "gtrs")
    with pytest.raises(ValueError, match="the triply-extended family has d = 4"):
        build_code(f8, "gtrs", 5)


def test_binary_triple_extension_is_the_length_4_repetition_code():
    # the three doubly-extended columns over GF(2) carry no distance-4
    # code of their own, but with the nucleus they give [4,1,4]_2
    code, cons = build_code(field_of_order(2), "gtrs")
    assert (code.n, code.k, code.min_distance()) == (4, 1, 4)
    assert (cons.family, cons.d, cons.removed) == ("gtrs", 4, ())
    census = coset_census(code)
    brute = brute_table(code)
    assert len(brute) == census.total_cosets == 8
    for svec, row in brute.items():
        assert census.distribution_of_syndrome(svec).counts == tuple(row), svec


def test_remove_columns_examples():
    f5 = field_of_order(5)
    full = family_code(f5, "gdrs", 4)
    code5 = family_code(f5, "gdrs", 4, removed=[5])
    assert (code5.n, code5.k) == (5, 2)
    assert code5.H.tolist() == full.H[:, :5].tolist()
    assert code5.covering_radius() == 3
    f7 = field_of_order(7)
    code67 = family_code(f7, "gdrs", 4, removed=[6, 7])
    assert (code67.n, code67.k) == (6, 3)
    assert code67.covering_radius() == 3
    # the removal refusals, in order: an index out of range, then too few
    # columns left for the design distance
    with pytest.raises(ValueError, match="too many removals: 2 columns cannot carry distance 4"):
        build_code(f5, "gdrs", 4, removed=[2, 3, 4, 5])
    with pytest.raises(ValueError, match=r"column index out of range 0\.\.5"):
        build_code(f5, "gdrs", 4, removed=[9])
    with pytest.raises(ValueError, match="out of range"):
        build_code(f5, "gdrs", 4, removed=[-1, 1, 2, 3, 4])


@pytest.mark.parametrize("family, q, d, removed", [
    ("gdrs", 7, 4, (0, 3)), ("gdrs", 5, 3, (1, 5)), ("gtrs", 8, None, ()),
    ("gtrs", 4, None, (2,))])
def test_build_code_checks_rank_once(monkeypatch, family, q, d, removed):
    # LinearCode runs the one rank elimination; the constructions trust
    # the MDS matrix, and the census certifies the distance
    calls = 0
    rank = codes._rank

    def counting(field, labels):
        nonlocal calls
        calls += 1
        return rank(field, labels)
    monkeypatch.setattr(codes, "_rank", counting)
    code, _ = build_code(field_of_order(q), family, d, removed=removed)
    assert calls == 1
    assert code.min_distance() == code.n - code.k + 1


def test_mds_weight_distribution_examples():
    assert mds_weight_distribution(6, 4, 5).counts == (1, 0, 0, 0, 60, 24, 40)
    assert mds_weight_distribution(5, 4, 5).counts == (1, 0, 0, 0, 20, 4)
    # k = 1: the q-1 nonzero codewords all have full weight
    assert mds_weight_distribution(5, 5, 5).counts == (1, 0, 0, 0, 0, 4)
    with pytest.raises(ValueError):
        mds_weight_distribution(6, 2, 5)
    with pytest.raises(ValueError):
        mds_weight_distribution(9, 4, 5)  # n > q + 2


@pytest.mark.parametrize("q,d,n", [(5, 4, 6), (5, 4, 5), (5, 3, 6), (5, 5, 6),
                                   (7, 5, 7), (4, 3, 5), (8, 4, 9)])
def test_closed_form_matches_brute_enumeration(q, d, n):
    f = field_of_order(q)
    code, _ = build_code(f, "gdrs", d, n=n)
    want = mds_weight_distribution(n, d, q)
    assert want.counts == brute_codeword_weights(code)
    assert coset_census(code).code_distribution() == want


def test_gtrs_closed_form_matches_brute():
    f4 = field_of_order(4)
    code, _ = build_code(f4, "gtrs")
    want = mds_weight_distribution(6, 4, 4)
    assert want.counts == brute_codeword_weights(code)
    assert coset_census(code).code_distribution() == want


def test_nucleus_gives_weight3_cosets_for_even_q():
    # odd q conic code is complete (R=2); even q leaves q-1 weight-3 cosets
    f5 = field_of_order(5)
    code_odd, _ = build_code(f5, "gdrs", 4)
    assert coset_census(code_odd).count_of_weight(3) == 0
    f4 = field_of_order(4)
    code_even, _ = build_code(f4, "gdrs", 4)
    assert coset_census(code_even).count_of_weight(3) == 3


def test_grs_family_drops_last_column():
    # the singly-extended code is the gdrs code less its last column; no
    # family of its own spells it
    f5 = field_of_order(5)
    code, cons = build_code(f5, "gdrs", 4, removed=(5,))
    assert (code.n, code.k) == (5, 2)
    assert (cons.family, cons.removed) == ("gdrs", (5,))
    with pytest.raises(ValueError, match="unknown family 'grs' \\(expected gdrs or gtrs\\)"):
        build_code(f5, "grs", 4)


def test_column_multipliers_do_not_change_the_census():
    # monomially equivalent codes share every census class (empirical check)
    f5 = field_of_order(5)
    unit, _ = build_code(f5, "gdrs", 4)
    vs = (1, 2, 3, 4, 2, 3)
    F5 = field_of(f5)
    scaled = LinearCode(f5, [[F5.mul(v, h) for v, h in zip(vs, row)]
                             for row in unit.H.tolist()])
    a = [(c.weight, c.distribution.counts, c.count) for c in coset_census(unit).classes]
    b = [(c.weight, c.distribution.counts, c.count) for c in coset_census(scaled).classes]
    assert a == b


def test_construction_records_removals():
    f7 = field_of_order(7)
    code, cons = build_code(f7, "gdrs", 4, n=6)
    assert cons.removed == (6, 7)
    assert cons.delta == 2


def _family_lengths():
    """(family, q, d, n) for every prime power q <= 9 and every (d, n) the
    family has."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for family in FAMILIES:
            if family == "gtrs":
                ds = (4,) if q % 2 == 0 else ()
            else:
                ds = range(3, q + 2)
            for d in ds:
                for n in range(d, family_length(family, q) + 1):
                    yield family, q, d, n


def test_family_lengths():
    assert FAMILIES == ("gdrs", "gtrs")
    assert [family_length(fam, 8) for fam in FAMILIES] == [9, 10]
    assert family_length("gdrs", 7) == 8
    with pytest.raises(ValueError, match="hyperoval requires even q, got q=7"):
        family_length("gtrs", 7)
    with pytest.raises(ValueError, match="unknown family 'rs'"):
        family_length("rs", 7)
    with pytest.raises(ValueError, match="unknown family 'rs'"):
        build_code(field_of_order(7), "rs", 4)


def test_length_keeps_the_first_columns_of_the_family_matrix():
    # n=n is the removal of the trailing columns, recipe included.  The
    # matrices are the subject here, so the census that certifies each
    # code (tested above, and over budget for the largest d) is not run:
    # each code is built from its recipe as build_code builds it
    cases = list(_family_lengths())
    assert len(cases) == 116
    for family, q, d, n in cases:
        f = field_of_order(q)
        cons = mds._family_layout(q, family, d, n, ())
        want_cons = mds._family_layout(q, family, d, None, range(n, family_length(family, q)))
        code, want = (mds._family_code(f, c, DEFAULT_BUDGET) for c in (cons, want_cons))
        assert code.H.tolist() == want.H.tolist(), (family, q, d, n)
        assert cons == want_cons, (family, q, d, n)
        assert code.n == n


@pytest.mark.parametrize("family", FAMILIES)
def test_length_outside_the_family_is_refused(family):
    f4 = field_of_order(4)
    for n in (3, family_length(family, 4) + 1):  # below d = 4, past the full length
        with pytest.raises(ValueError, match=f"got n={n}$"):
            build_code(f4, family, 4, n=n)


def test_certification_refuses_a_code_that_is_not_mds():
    # a repeated column gives a weight-2 codeword where n-k+1 = 3
    code = LinearCode(field_of_order(5), np.array([[1, 1, 0, 1], [0, 0, 1, 1]]))
    with pytest.raises(ValueError) as err:
        mds._certify(code)
    assert str(err.value) == "construction is not MDS: distance 2 != 3"


def test_a_built_code_and_a_named_arc_live_on_the_shared_field_of_their_order():
    # only field.q is read: a fresh GF(5) yields objects on field_of_order(5)
    assert build_code(GF(5), "gdrs", 4)[0].field is field_of_order(5)
    assert conic_points(GF(5)).field is field_of_order(5)
