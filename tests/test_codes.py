import math
import tracemalloc
from collections import Counter
from itertools import groupby, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdscosets import codes
from mdscosets.codes import (BudgetExceededError, CosetCensus, InvariantError,
                             LinearCode, WeightDistribution, census_rows,
                             coset_census, low_weight_census, syndrome_row)
from mdscosets.gf import GF, field_of_order
from mdscosets.mds import _family_code, _family_layout, build_code, mds_weight_distribution
from class_rows import rows_of
from dual_census import dual_table
from oracle import (brute_codeword_weights, brute_prefix_tables, brute_table,
                    field_of, generator_matrix, syndrome)


def test_code_from_parity_shapes():
    f5 = field_of_order(5)
    code = _family_code(f5, _family_layout(5, "gdrs", 4, None, ()), codes.DEFAULT_BUDGET)
    assert (code.n, code.k) == (6, 3)
    f2 = field_of_order(2)
    parity = LinearCode(f2, [[1] * 7])
    assert (parity.n, parity.k) == (7, 6)


def test_rank_deficient_parity_rejected():
    f5 = field_of_order(5)
    for rows, rank in (([[1, 2, 3], [0, 0, 0]], 1), ([[1, 2, 3], [2, 4, 1]], 1),
                       ([[1, 2], [2, 4], [0, 1]], 2)):
        with pytest.raises(ValueError) as err:
            LinearCode(f5, rows)
        assert str(err.value) == \
            f"parity-check matrix is rank-deficient: rank {rank} < {len(rows)} rows"


def test_matrix_needs_rows_of_one_length():
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="at least one row"):
        LinearCode(f5, [])
    with pytest.raises(ValueError, match="ragged"):
        LinearCode(f5, [[1, 2], [3]])


def test_code_checks_rows_then_labels_then_rank():
    # each pair of adjacent checks, met at once, is refused by the first
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="^ragged rows$"):
        LinearCode(f5, [[1, 2, 7], [3]])
    # read as 0, the False would leave the rows rank-deficient
    with pytest.raises(ValueError, match="^False is not an element label of GF\\(5\\)$"):
        LinearCode(f5, [[1, 2, 3], [0, 0, False]])


@pytest.mark.parametrize("entry, text", [
    (5, "5 is not an element label of GF(5)"),
    (-1, "-1 is not an element label of GF(5)"),
    (2.0, "2.0 is not an element label of GF(5)"),
    (True, "True is not an element label of GF(5)"),  # numpy reads it as 1 among ints
    (False, "False is not an element label of GF(5)"),
], ids=["out-of-range", "negative", "float", "true", "false"])
def test_matrix_refuses_a_non_label(entry, text):
    # the first bad entry is named as given, after good ones
    with pytest.raises(ValueError) as err:
        LinearCode(field_of_order(5), [[1, 2, 3], [4, entry, entry]])
    assert str(err.value) == text


def test_syndrome_row_on_ints_and_label_arrays():
    # (1, 2, 3) over GF(5) scales by 3^-1 = 2 to (2, 4, 1), whose leading
    # digit sits at t = 2: row 1 + (5^2 - 1)/4 + 2 + 4*5
    f5 = field_of_order(5)
    row = syndrome_row(f5, (1, 2, 3))
    assert row == 1 + 6 + 2 + 4 * 5 and type(row) is int
    assert syndrome_row(f5, (0, 0, 0)) == 0 and syndrome_row(f5, (1, 0, 0)) == 1
    # (2, 4, 1) is 2*(1, 2, 3); (0, 4, 0) scales to (0, 1, 0), row 1 + 1
    rows = syndrome_row(f5, (np.array([1, 2, 0, 0]), np.array([2, 4, 4, 0]),
                             np.array([3, 1, 0, 0])))
    assert rows.tolist() == [row, row, 2, 0]


@pytest.mark.parametrize("q, r", [(2, 3), (3, 1), (4, 3), (5, 2), (7, 2), (9, 2),
                                  (3, 4), (8, 3), (2, 5)])
def test_each_census_row_is_one_point(q, r):
    # the rows of all q^r syndromes: 0 for the zero syndrome alone, and
    # every other row 1..(q^r-1)/(q-1) for exactly the q-1 multiples of one;
    # the lead digit takes every position up to r = 5, in scalars and arrays
    f = field_of_order(q)
    svecs = list(product(range(q), repeat=r))
    rows = syndrome_row(f, np.array(svecs).T)
    assert [syndrome_row(f, s) for s in svecs] == rows.tolist()
    assert census_rows(q, r) == 1 + (q**r - 1) // (q - 1)
    assert np.bincount(rows).tolist() == [1] + [q - 1] * (census_rows(q, r) - 1)
    F = field_of(f)
    for s, row in zip(svecs, rows):
        for c in range(1, q):
            assert syndrome_row(f, [F.mul(c, x) for x in s]) == row


@pytest.mark.parametrize("q, r", [(2, 2), (4, 3), (5, 3), (3, 4)])
def test_row_syndrome_inverts_syndrome_row(q, r):
    # every census row's syndrome, its top nonzero digit 1, maps back to it
    f = field_of_order(q)
    syndromes = [codes._row_syndrome(q, r, row) for row in range(census_rows(q, r))]
    assert [syndrome_row(f, s) for s in syndromes] == list(range(census_rows(q, r)))
    assert syndromes[0] == (0,) * r
    assert all(next(x for x in reversed(s) if x) == 1 for s in syndromes[1:])


def test_syndrome_linearity():
    f5 = field_of_order(5)
    code = _family_code(f5, _family_layout(5, "gdrs", 4, None, ()), codes.DEFAULT_BUDGET)
    G = generator_matrix(code)
    assert len(G) == code.k
    assert all(syndrome(code, g) == (0,) * 3 for g in G)  # H G^T = 0
    for i in range(code.n):
        e = [0] * code.n
        e[i] = 1
        assert list(syndrome(code, e)) == code.H[:, i].tolist()
    x = [1, 2, 0, 4, 0, 3]
    y = [0, 1, 1, 0, 2, 0]
    F5 = field_of(f5)
    s = syndrome(code, [F5.add(a, b) for a, b in zip(x, y)])
    assert s == tuple(F5.add(a, b) for a, b in zip(syndrome(code, x), syndrome(code, y)))
    with pytest.raises(ValueError):
        syndrome(code, [0, 1])


def test_brute_weight_distribution_examples():
    f5 = field_of_order(5)
    for n, want in [(6, (1, 0, 0, 0, 60, 24, 40)), (5, (1, 0, 0, 0, 20, 4))]:
        code, _ = build_code(f5, "gdrs", 4, n=n)
        assert brute_codeword_weights(code) == want
        assert tuple(brute_table(code)[(0, 0, 0)]) == want
        assert coset_census(code).code_distribution().counts == want


def test_code_distribution_is_the_zero_syndromes_row(desk):
    for entry in desk.entries:
        census = desk.census(entry)
        dist = census.code_distribution()
        assert dist == census.distribution_of_syndrome((0,) * entry.code.r), entry.label
        assert dist == mds_weight_distribution(entry.n, entry.d, entry.q), entry.label


def test_brute_weight_distribution_zero_code():
    f3 = field_of_order(3)
    code = LinearCode(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert code.k == 0
    assert brute_codeword_weights(code) == (1, 0, 0, 0)
    assert coset_census(code).code_distribution().counts == (1, 0, 0, 0)


def test_budget_refusals_name_the_budget():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    with pytest.raises(BudgetExceededError, match="budget of 100"):
        coset_census(LinearCode(code.field, code.H, budget=100))
    with pytest.raises(BudgetExceededError, match="budget of 10"):
        LinearCode(code.field, code.H, budget=10).min_distance()
    with pytest.raises(BudgetExceededError):
        low_weight_census(LinearCode(code.field, code.H, budget=10), 3)


def test_a_budget_must_be_a_positive_int():
    # a negative budget was accepted and refused every census as over it
    f5 = field_of_order(5)
    H = [[1, 1, 1, 1]]
    for budget, message in [(0, "budget must be positive, got 0"),
                            (-1, "budget must be positive, got -1"),
                            (True, "budget must be an int, got True"),
                            (1e6, "budget must be an int, got 1000000.0")]:
        with pytest.raises(ValueError) as err:
            LinearCode(f5, H, budget=budget)
        assert str(err.value) == message
    assert LinearCode(f5, H, budget=1).budget == 1


def test_a_code_keeps_the_budget_it_was_built_with():
    # certifying [6,3,4]_5 takes 6*3*32 = 576 kernel steps, its full
    # census twice that; the census runs under the code's own budget
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6, budget=576)
    with pytest.raises(BudgetExceededError, match="budget of 576"):
        coset_census(code)
    assert code.budget == 576


def test_a_refused_run_builds_no_prefix_code(monkeypatch):
    # [8,5,4]_7 is certified in 8*3*58 = 1392 steps, but its full census
    # needs 8*8*58 = 3712: the run is refused before it reaches any
    # length, so no prefix code is built and no rank is checked
    full, _ = build_code(field_of_order(7), "gdrs", 4, budget=3711)
    ranks = []
    rank = codes._rank

    def counted(field, labels):
        ranks.append(labels.shape)
        return rank(field, labels)
    monkeypatch.setattr(codes, "_rank", counted)
    with pytest.raises(BudgetExceededError) as refusal:
        codes._prefix_censuses(full, [4, 5, full.n], full.n)
    assert str(refusal.value) == ("syndrome trellis needs 3712 steps "
                                  "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 3711")
    assert ranks == []


def test_budget_unit_is_pinned():
    # the unit is n*wmax*(1 + (q^(n-k)-1)/(q-1)), one step per entry of
    # each updated weight row: 6*3*32 = 576 steps to certify [6,3,4]_5
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6, budget=576)
    assert code.min_distance() == 4
    with pytest.raises(BudgetExceededError) as refusal:
        build_code(field_of_order(5), "gdrs", 4, n=6, budget=575)
    assert str(refusal.value) == ("syndrome trellis needs 576 steps "
                                  "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 575")


def _summed_int64_refusal(q, n, r, wmax):
    """The int64 guard's refusal text with every C(n,w)(q-1)^w term
    summed, or None where no count can pass 2^63."""
    vectors = sum(math.comb(n, w) * (q - 1) ** w for w in range(wmax + 1))
    entries = q ** (n - r)
    if min(vectors, entries) < 2**63:
        return None
    what = (f"{vectors} vectors of weight <= {wmax}" if vectors < entries
            else f"entries up to q^k = {entries}")
    return f"{what} overflow the int64 counts (limit 2^63)"


def test_the_int64_guard_refuses_as_the_full_sum_would():
    # the guard stops adding terms once their sum passes q^k; it refuses,
    # and names, exactly what the sum of every term would
    grid = [(q, n, r, wmax) for q in (2, 3, 16, 256, 65536) for n in range(1, 41, 3)
            for r in range(0, min(n, 6) + 1) for wmax in range(0, n + 1, 2)]
    # q^k = 2^63 exactly, and one below, and q^n = 2^63 vectors: a count
    # of 2^63 does not fit int64
    grid += [(2, n, 3, wmax) for n in (65, 66) for wmax in range(0, n + 1, 5)]
    grid += [(2, 63, 0, 63), (8, 21, 0, 21), (8, 21, 0, 20)]
    texts = Counter()
    for q, n, r, wmax in grid:
        want = _summed_int64_refusal(q, n, r, wmax)
        try:
            codes._check_census(q, n, r, wmax, 10**60)
            got = None
        except BudgetExceededError as refusal:
            got = str(refusal)
        assert got == want, (q, n, r, wmax)
        texts[None if want is None else want.split()[1]] += 1
    assert texts[None] and texts["vectors"] and texts["up"]  # every outcome occurs


def test_census_has_one_row_per_point():
    # the zero syndrome and the 31 points of PG(2, 5); the 124 nonzero
    # syndromes of [6,3,4]_5 are counted q-1 = 4 to a row
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    for census in (coset_census(code), low_weight_census(code, 2)):
        assert len(census.index) == 1 + (5**3 - 1) // 4 == 32
        assert census.total_cosets == 125
        assert sum(c.count for c in census.classes) == 125
    for q, d, r in [(4, 3, 2), (7, 5, 4), (8, 4, 3)]:
        code, _ = build_code(field_of_order(q), "gdrs", d, n=d + 1)
        assert code.r == r
        assert len(low_weight_census(code, 1).index) == 1 + (q**r - 1) // (q - 1)


def test_a_census_keeps_its_classes_and_index_not_its_table():
    # [17,12,6]_16 has 69,906 census rows in 14 classes: a table of them
    # at wmax = n would keep 10 MB of int64 counts, the index keeps 70 kB
    code, _ = build_code(field_of_order(16), "gdrs", 6, n=17)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        census = coset_census(code)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (len(census.index), len(census.classes)) == (69906, 14)
    assert census.index.dtype == np.uint8
    assert kept < 1 << 20


@pytest.mark.parametrize("q,d,lengths,wmax", [(19, 6, [20], 5), (11, 6, [6, 7, 12], 7)],
                         ids=["[20,15,6]_19-at-5", "desk-q11-d6-chain"])
def test_a_census_peaks_within_its_table_and_five_rows(q, d, lengths, wmax):
    # the kernel hands each snapshot over in place, with its row buffers
    # freed, so a run and the classing of its snapshots hold the table of
    # wmax + 1 weight rows and at most five rows more, each census_rows(q,
    # r) int64 entries: 6.30 MiB and 1.05 MiB a row for [20,15,6]_19 at
    # wmax = 5.  The desk's q = 11, d = 6 chain runs on to its length-12
    # parent, as DeskCache runs it, building its prefix codes as it goes
    full = _family_code(field_of_order(q), _family_layout(q, "gdrs", d, None, ()),
                        codes.DEFAULT_BUDGET)
    row = census_rows(q, full.r) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        censuses = codes._prefix_censuses(full, lengths, wmax)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [c.code.n for c in censuses] == lengths
    assert peak <= (wmax + 1 + 5) * row, peak / row


def test_census_classes_of_conic_code():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    census = coset_census(code)
    assert census.total_cosets == 125
    assert census.count_of_weight(1) == 24
    by_b2 = {cls.distribution.counts[2]: cls.count
             for cls in census.classes_of_weight(2)}
    assert by_b2 == {3: 40, 2: 60}
    zero = census.classes_of_weight(0)
    assert len(zero) == 1 and zero[0].count == 1


@pytest.mark.parametrize("svec, text", [
    ((0, 0, 0, 0), "syndrome (0, 0, 0, 0) is not a row of n-k = 3 labels"),
    ((0, 0), "syndrome (0, 0) is not a row of n-k = 3 labels"),
    ((-1, 0, 0), "syndrome (-1, 0, 0): -1 is not an element label of GF(5)"),
    ((7, 0, 0), "syndrome (7, 0, 0): 7 is not an element label of GF(5)"),
    ((True, False, False), "syndrome (True, False, False): True is not an element label of GF(5)"),
], ids=["long", "short", "negative", "past-q", "bool"])
def test_distribution_of_syndrome_refuses_what_is_no_syndrome(svec, text):
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    census = coset_census(code)
    with pytest.raises(ValueError) as err:
        census.distribution_of_syndrome(svec)
    assert str(err.value) == text
    # a syndrome of the code reads its coset's class through the index
    assert census.distribution_of_syndrome((1, 0, 0)) == census.classes_of_weight(1)[0].distribution


def test_census_weight3_class_of_shortened_code():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=5)
    census = coset_census(code)
    w3 = census.classes_of_weight(3)
    assert len(w3) == 1
    assert w3[0].count == 4
    assert w3[0].distribution.counts == (0, 0, 0, 10, 5, 10)


def test_census_is_deterministically_sorted():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    census = coset_census(code)
    keys = [(cls.weight, cls.distribution.counts) for cls in census.classes]
    assert keys == sorted(keys)


def test_min_distance_and_covering_radius_examples():
    f5 = field_of_order(5)
    code6, _ = build_code(f5, "gdrs", 4, n=6)
    assert code6.min_distance() == 4
    assert code6.covering_radius() == 2
    code5, _ = build_code(f5, "gdrs", 4, n=5)
    assert code5.covering_radius() == 3
    f8 = field_of_order(8)
    gtrs, _ = build_code(f8, "gtrs")
    assert gtrs.min_distance() == 4
    assert gtrs.covering_radius() == 2


def test_min_distance_agrees_with_brute():
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 5, n=7)
    weights = brute_codeword_weights(code)
    brute_d = next(w for w in range(1, code.n + 1) if weights[w])
    assert LinearCode(code.field, code.H).min_distance() == brute_d == 5


def _brute_rows(code, brute):
    """The census row of each syndrome brute_table(code) counts, and its
    counts, in one order: every syndrome's full row, each point's q-1
    syndromes included."""
    svecs = list(brute)
    rows = syndrome_row(code.field, np.array(svecs).T)
    return rows, np.array([brute[s] for s in svecs], dtype=np.int64)


def test_kernel_matches_brute_oracle_on_small_desk_codes(desk):
    small = [e for e in desk.entries if e.q ** e.n <= 10**5]
    assert len(small) == 38
    for entry in small:
        code = LinearCode(entry.code.field, entry.code.H)  # nothing cached from the corpus build
        q, n = code.field.q, code.n
        brute = brute_table(code)
        assert len(brute) == q ** code.r, entry.label
        at, want = _brute_rows(code, brute)
        census = desk.census(entry)
        assert len(census.index) == census_rows(q, code.r), entry.label
        assert np.array_equal(rows_of(census).table[at], want), entry.label
        rows = sorted((next(w for w, c in enumerate(row) if c), tuple(row))
                      for row in brute.values())
        assert [((c.weight, c.distribution.counts), c.count) for c in census.classes] \
            == [(key, len(list(group))) for key, group in groupby(rows)], entry.label
        for wmax in range(n + 1):
            assert np.array_equal(rows_of(low_weight_census(code, wmax)).table[at],
                                  want[:, :wmax + 1]), (entry.label, wmax)
        zero = brute[(0,) * code.r]
        assert code.min_distance() == next(w for w in range(1, n + 1) if zero[w])
        radius = max(next(w for w, c in enumerate(row) if c) for row in brute.values())
        assert code.covering_radius() == radius, entry.label


def test_kernel_matches_dual_census_on_desk_codes(desk):
    # the MacWilliams census shares no code with the trellis: each of its
    # rows (one syndrome per point, and the zero syndrome) is the
    # kernel's row of that syndrome, at wmax = n and cut at every wmax
    entries = [e for e in desk.entries if e.q ** e.code.r <= 15000]
    assert len(entries) == 77
    for entry in entries:
        code = entry.code
        dual = dual_table(code)
        at = syndrome_row(code.field, np.array(list(dual)).T)
        assert sorted(at.tolist()) == list(range(census_rows(entry.q, code.r))), entry.label
        want = np.array(list(dual.values()), dtype=np.int64)
        assert np.array_equal(rows_of(desk.census(entry)).table[at], want), entry.label
        for wmax in range(code.n):
            assert np.array_equal(rows_of(low_weight_census(code, wmax)).table[at],
                                  want[:, :wmax + 1]), (entry.label, wmax)


def _check_class_index(census):
    """The census keeps one index entry per census row, in the narrowest
    unsigned type that names every class; each class holds a row, and
    the rows rebuilt through the index give the census back: the same
    classes and index, and cosets of each weight tallied row by row, the
    zero syndrome once and each point q - 1 times."""
    q, rows = census.code.field.q, rows_of(census)
    assert census.index.dtype == np.min_scalar_type(len(census.classes) - 1)
    assert census.index.dtype.kind == "u"
    assert sorted(set(census.index.tolist())) == list(range(len(census.classes)))
    again = CosetCensus(census.code, rows.table)
    assert again.classes == census.classes
    assert np.array_equal(again.index, census.index)
    for W in range(-1, census.wmax + 1):
        tally = sum(1 if row == 0 else q - 1
                    for row, w in enumerate(rows.weights.tolist()) if w == W)
        assert census.count_of_weight(W) == tally, W


def test_each_desk_census_indexes_its_classes_in_uint8(desk):
    # no desk census has more than 23 classes
    for entry in desk.entries:
        _check_class_index(desk.census(entry))
    dtypes = Counter(desk.census(entry).index.dtype.name for entry in desk.entries)
    assert dtypes == {"uint8": 89}


@st.composite
def parity_checks(draw):
    """A code of full-rank H over a small field whose columns may be zero,
    repeated or parallel, small enough (q^n <= 2*10^4) for the pure-Python
    oracle."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    f = field_of_order(q)
    nmax = max(n for n in range(1, 15) if q ** n <= 2 * 10**4)
    r = draw(st.integers(1, min(3, nmax)))
    n = draw(st.integers(r, nmax))
    cols = []
    for _ in range(n):
        kinds = ("random", "random", "zero") + (("parallel",) if cols else ())
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            cols.append(draw(st.lists(st.integers(0, q - 1), min_size=r, max_size=r)))
        elif kind == "zero":
            cols.append([0] * r)
        else:
            c = draw(st.integers(1, q - 1))
            cols.append([field_of(f).mul(c, x) for x in draw(st.sampled_from(cols))])
    H = np.array([[col[t] for col in cols] for t in range(r)], dtype=np.int64)
    assume(codes._rank(f, H) == r)
    return LinearCode(f, H)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_kernel_matches_brute_oracle_on_random_parity_checks(code):
    brute = brute_table(code)
    at, want = _brute_rows(code, brute)
    for svec, row in dual_table(code).items():  # the second oracle, zero and parallel columns too
        assert brute[svec] == row, svec
    for wmax in range(code.n + 1):
        census = low_weight_census(code, wmax)
        assert len(census.index) == census_rows(code.field.q, code.r)
        assert np.array_equal(rows_of(census).table[at], want[:, :wmax + 1]), wmax
        _check_class_index(census)


def _prefix(code, j):
    """The code's first j coordinates, as the kernel reads a code: its H
    may be rank-deficient, so it is no LinearCode."""
    return SimpleNamespace(field=code.field, n=j, r=code.r, budget=code.budget,
                           H=code.H[:, :j])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_each_prefix_snapshot_is_a_run_of_the_prefix(code):
    # at every wmax, the table after each prefix of j columns is a run on
    # those j columns alone at min(wmax, j), and the brute count of them
    # (every drawn code has q^n <= 2*10^4).  A snapshot is the working
    # table, valid until the run resumes, so each is checked before that
    q, n = code.field.q, code.n
    brute = [_brute_rows(code, table) for table in brute_prefix_tables(code)]
    alone = {}  # (j, top): the run on the first j columns alone at top
    for wmax in range(n + 1):
        snapshots = 0
        for j, table in enumerate(codes._syndrome_trellis(code, wmax, range(n + 1))):
            snapshots += 1
            top = min(wmax, j)
            if (j, top) not in alone:
                alone[j, top] = next(codes._syndrome_trellis(_prefix(code, j), top, [j]))
            assert table.shape == (census_rows(q, code.r), top + 1), (wmax, j)
            assert np.array_equal(table, alone[j, top]), (wmax, j)
            at, want = brute[j]
            assert np.array_equal(table[at], want[:, :top + 1]), (wmax, j)
            unreached = np.ones(len(table), dtype=bool)
            unreached[at] = False
            assert not table[unreached].any(), (wmax, j)
            if j == n:
                assert np.array_equal(table, next(codes._syndrome_trellis(code, wmax, [n]))), wmax
        assert snapshots == n + 1, wmax


def _takes(code, wmax):
    """np.take calls of one kernel run on the code, and the count the
    row skip allows: min(wmax, j) rows for the j-th column if nonzero, as
    rows above j hold no vector yet, and none for a zero column."""
    calls = []
    take = np.take

    def counted(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "take", counted)
        list(codes._syndrome_trellis(code, wmax, [code.n]))
    return len(calls), sum(min(wmax, j) for j, col in enumerate(code.H.T, 1) if col.any())


def test_the_kernel_skips_the_rows_no_column_reaches_on_the_desk(desk):
    # [7,4,4]_7 takes 1+2+3+3+3+3+3 = 18 rows at wmax = n-k and 28 at n
    for entry in desk.entries:
        for wmax in (entry.code.r, entry.n):
            ran, allowed = _takes(entry.code, wmax)
            assert ran == allowed, (entry.label, wmax)
    seven = next(e for e in desk.entries if e.label == "[7,4,4]_7 gdrs")
    assert [_takes(seven.code, w)[0] for w in (3, 7)] == [18, 28]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(parity_checks())
@example(LinearCode(field_of_order(3), [[1, 0, 0, 1], [0, 0, 1, 1]]))  # column 2 is zero
def test_the_kernel_skips_the_rows_no_column_reaches(code):
    for wmax in range(code.n + 1):
        ran, allowed = _takes(code, wmax)
        assert ran == allowed, wmax


def test_kernel_refuses_prefix_lengths_outside_the_code():
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    for lengths in ([], [7], [-1, 3]):
        with pytest.raises(ValueError, match="prefix lengths"):
            list(codes._syndrome_trellis(code, 3, lengths))


def test_a_census_at_two_parity_checks_builds_no_field_table(monkeypatch):
    # at r = 2 a line order has q + 2 entries, and the kernel reads no
    # (q, q) table for them
    def no_table(self):
        raise AssertionError("a (q, q) table was built")
    monkeypatch.setattr(GF, "add_table", no_table)
    for q in (8, 9):
        # two Vandermonde columns and both extension columns, so points
        # with their leading digit at 0 and at 1
        code, _ = build_code(field_of_order(q), "gdrs", 3, removed=range(2, q - 1))
        assert sorted(map(tuple, code.H.T)) == [(0, 1), (1, 0), (1, 1), (1, 2)]
        at, want = _brute_rows(code, brute_table(code))
        assert np.array_equal(rows_of(coset_census(code)).table[at], want), q
    with pytest.raises(AssertionError, match="table was built"):  # r = 3 keeps its tables
        build_code(field_of_order(5), "gdrs", 4)


class _KernelRan(Exception):
    pass


def _no_kernel(code, wmax, lengths):
    raise _KernelRan


def _memo(code):
    """(d, covering radius, leader profile, weight-2 prefixes); the zero
    code has no d."""
    return (code.min_distance() if code.k else None, code.covering_radius(),
            code.leader_profile(), code.weight2_prefixes())


def _tallies(census):
    """{W: {B_W: cosets}} over the census's rows of weight W >= 0, counted
    row by row: the zero syndrome once, each point q-1 times."""
    q = census.code.field.q
    tally = {}
    rows = rows_of(census)
    for row, (w, counts) in enumerate(zip(rows.weights.tolist(), rows.table.tolist())):
        if w >= 0:
            tally.setdefault(w, Counter())[counts[w]] += 1 if row == 0 else q - 1
    return {w: dict(tally[w]) for w in sorted(tally)}


def _check_memo_against_tallies(code, table):
    """For each wmax >= n-k, a fresh code's memo from the trellis table
    cut at wmax holds per-W tallies of that census, and the distinct
    B_0..B_{n-k-1} of its weight-2 rows: from n-k = 3 on, the weight-2
    classes of the census cut at n-k-1."""
    r = code.r
    for wmax in range(r, code.n + 1):
        fresh = LinearCode(code.field, code.H)
        census = CosetCensus(fresh, table[:, :wmax + 1])
        rows = rows_of(census)
        rows = zip(rows.weights.tolist(), rows.table.tolist())
        prefixes = tuple(sorted({tuple(row[:r]) for w, row in rows if w == 2}))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_syndrome_trellis", _no_kernel)
            assert fresh.leader_profile() == _tallies(census)
            assert fresh.weight2_prefixes() == prefixes, wmax
            if r >= 3:
                below = CosetCensus(fresh, table[:, :r])  # the census at n-k-1
                assert prefixes == tuple(
                    cls.distribution.counts for cls in below.classes_of_weight(2)), wmax


def _check_memo_from_each_census(code):
    """A census of a fresh code at any wmax in [n-k, n] leaves the memo a
    fresh code's run at n-k leaves, read with the kernel switched off; a
    census below n-k leaves none."""
    want = _memo(LinearCode(code.field, code.H))
    for wmax in range(code.n + 1):
        fresh = LinearCode(code.field, code.H)
        low_weight_census(fresh, wmax)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_syndrome_trellis", _no_kernel)
            if wmax >= code.r:
                assert _memo(fresh) == want, wmax
            else:
                with pytest.raises(_KernelRan):
                    _memo(fresh)


def test_each_census_from_n_minus_k_up_certifies_desk_codes(desk):
    for entry in desk.entries:
        _check_memo_from_each_census(entry.code)


def test_one_sort_memo_matches_tallies_on_desk_censuses(desk):
    for entry in desk.entries:
        _check_memo_against_tallies(entry.code, rows_of(desk.census(entry)).table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_one_sort_memo_matches_tallies_on_random_parity_checks(code):
    _check_memo_against_tallies(code, next(codes._syndrome_trellis(code, code.n, [code.n])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_each_census_from_n_minus_k_up_certifies_random_parity_checks(code):
    _check_memo_from_each_census(code)


def test_corrupted_census_table_raises_invariant_error():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    table = rows_of(coset_census(code)).table
    table[7, 3] += 1
    with pytest.raises(InvariantError, match="q\\^k"):
        CosetCensus(code, table)


def test_the_first_census_at_n_minus_k_leaves_the_memo():
    # a census below n-k, or one whose table fails a census check, leaves
    # a fresh code no memo; the first at n-k sets it, and no later one
    # replaces it
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    table = next(codes._syndrome_trellis(code, code.n, [code.n])).copy()
    fresh = LinearCode(code.field, code.H)
    CosetCensus(fresh, table[:, :code.r])
    assert fresh._classes is None
    corrupted = table.copy()
    corrupted[7, 3] += 1
    with pytest.raises(InvariantError, match="q\\^k"):
        CosetCensus(fresh, corrupted)
    unreached = table[:, :code.r + 1].copy()
    unreached[7] = 0
    with pytest.raises(InvariantError, match="a syndrome is unreached at weight n-k"):
        CosetCensus(fresh, unreached)
    assert fresh._classes is None
    first = CosetCensus(fresh, table[:, :code.r + 1])
    assert fresh._classes == first.classes
    for wmax in range(code.r, code.n + 1):
        CosetCensus(fresh, table[:, :wmax + 1])
        assert fresh._classes is first.classes, wmax


def test_low_weight_census_matches_full_census():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    full = coset_census(code)
    lw = low_weight_census(code, 3)
    assert lw.count_of_weight(-1) == 0  # R = 2 < 3
    assert (rows_of(lw).table == rows_of(full).table[:, :4]).all()
    assert _tallies(lw)[2] == {2: 60, 3: 40}
    assert np.array_equal(rows_of(lw).weights, rows_of(full).weights)

    # below the covering radius R = 3 of [5,2,4]_5 some syndromes go unreached
    code, _ = build_code(f5, "gdrs", 4, n=5)
    full = coset_census(code)
    whole = rows_of(full)
    every = syndrome_row(f5, np.array(list(product(range(5), repeat=3))).T)
    R = code.covering_radius()
    assert R == 3
    for wmax in range(R):
        cut = low_weight_census(code, wmax)
        assert cut.count_of_weight(-1) > 0
        assert cut.wmax == wmax
        assert np.array_equal(rows_of(cut).weights,
                              np.where(whole.weights <= wmax, whole.weights, -1))
        assert cut.count_of_weight(-1) == full.total_cosets - sum(
            full.count_of_weight(W) for W in range(wmax + 1))
        # every syndrome's full row cut at wmax and regrouped, unreached
        # rows as one weight -1 class
        rows = sorted((w if w <= wmax else -1, tuple(int(x) for x in row[:wmax + 1]))
                      for w, row in ((whole.weights[i], whole.table[i]) for i in every))
        assert [((c.weight, c.distribution.counts), c.count) for c in cut.classes] \
            == [(key, len(list(group))) for key, group in groupby(rows)], wmax
        for W in range(wmax + 1):
            assert _tallies(cut)[W] == code.leader_profile()[W], (wmax, W)


def test_shortened_hamming_coset_structure():
    # [n, n-2, 3]_q with n < q+1: the q^2-1-n(q-1) weight-2 cosets share
    # one distribution with B_2 = C(n,2)
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 3, n=5)
    census = coset_census(code)
    w2 = census.classes_of_weight(2)
    assert len(w2) == 1
    assert w2[0].count == 7 * 7 - 1 - 5 * 6 == 18
    assert w2[0].distribution.counts[2] == 10


def test_unique_leader_region():
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 5, n=7)  # t = 2
    census = coset_census(code)
    for W in (1, 2):
        for cls in census.classes_of_weight(W):
            assert cls.distribution.counts[W] == 1


def test_weight_distribution_type():
    wd = WeightDistribution((1, 0, 0, 4))
    assert wd.n == 3 and wd.total() == 5
    assert wd.num_nonzero_weights() == 1
    assert wd.min_positive_weight() == 3
    with pytest.raises(ValueError):
        WeightDistribution(())
    for counts in [(True, 0, 0, 4), (1, 0, 0, 4.0)]:  # a bool is no count, though Python's int
        with pytest.raises(ValueError, match="^weight distribution counts must be ints$"):
            WeightDistribution(counts)


def test_a_code_prints_its_length_and_dimension():
    assert repr(build_code(field_of_order(5), "gdrs", 4)[0]) == "LinearCode([6,3] over GF(5))"


def test_the_zero_vector_alone_has_no_positive_weight():
    assert WeightDistribution((1, 0, 0)).min_positive_weight() is None


def test_the_zero_code_has_no_minimum_distance():
    zero = LinearCode(field_of_order(3), np.eye(2, dtype=np.int64))
    assert zero.k == 0
    with pytest.raises(ValueError) as err:
        zero.min_distance()
    assert str(err.value) == "minimum distance is undefined for the zero code"


def test_the_kernel_refuses_a_wmax_outside_the_length():
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=5)
    for wmax in (-1, 6):
        with pytest.raises(ValueError) as err:
            next(codes._syndrome_trellis(code, wmax, [5]))
        assert str(err.value) == f"wmax={wmax} outside [0, 5]"
