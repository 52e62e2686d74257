from collections import Counter
from itertools import groupby, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdscosets import codes
from mdscosets.codes import (BudgetExceededError, CosetCensus, InvariantError,
                             LinearCode, Matrix, WeightDistribution, census_rows,
                             coset_census, low_weight_census, syndrome_row)
from mdscosets.gf import GF, field_of_order
from mdscosets.mds import build_code, gdrs_parity
from dual_census import dual_table
from oracle import (brute_codeword_weights, brute_prefix_tables, brute_table,
                    field_of, generator_matrix, syndrome)


def test_code_from_parity_shapes():
    f5 = field_of_order(5)
    code = LinearCode(gdrs_parity(f5, 4))
    assert (code.n, code.k) == (6, 3)
    f2 = field_of_order(2)
    parity = LinearCode(Matrix(f2, [[1] * 7]))
    assert (parity.n, parity.k) == (7, 6)


def test_rank_deficient_parity_rejected():
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="rank"):
        LinearCode(Matrix(f5, [[1, 2, 3], [0, 0, 0]]))
    with pytest.raises(ValueError, match="rank"):
        LinearCode(Matrix(f5, [[1, 2, 3], [2, 4, 1]]))


def test_matrix_needs_rows_of_one_length():
    f5 = field_of_order(5)
    with pytest.raises(ValueError, match="at least one row"):
        Matrix(f5, [])
    with pytest.raises(ValueError, match="ragged"):
        Matrix(f5, [[1, 2], [3]])
    assert Matrix(f5, [[1, 2, 3]]).drop_columns([0, 2]).labels.tolist() == [[2]]


@pytest.mark.parametrize("entry, text", [
    (5, "5 is not an element label of GF(5)"),
    (-1, "-1 is not an element label of GF(5)"),
    (2.0, "2.0 is not an element label of GF(5)"),
], ids=["out-of-range", "negative", "float"])
def test_matrix_refuses_a_non_label(entry, text):
    # the first bad entry is named as given, after good ones
    with pytest.raises(ValueError) as err:
        Matrix(field_of_order(5), [[1, 2, 3], [4, entry, entry]])
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


@pytest.mark.parametrize("q, r", [(2, 3), (3, 1), (4, 3), (5, 2), (7, 2), (9, 2)])
def test_each_census_row_is_one_point(q, r):
    # the rows of all q^r syndromes: 0 for the zero syndrome alone, and
    # every other row 1..(q^r-1)/(q-1) for exactly the q-1 multiples of one
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


def test_syndrome_linearity():
    f5 = field_of_order(5)
    code = LinearCode(gdrs_parity(f5, 4))
    G = generator_matrix(code)
    assert len(G) == code.k
    assert all(syndrome(code, g) == (0,) * 3 for g in G)  # H G^T = 0
    for i in range(code.n):
        e = [0] * code.n
        e[i] = 1
        assert list(syndrome(code, e)) == code.H.labels[:, i].tolist()
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


def test_brute_weight_distribution_zero_code():
    f3 = field_of_order(3)
    code = LinearCode(Matrix(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert code.k == 0
    assert brute_codeword_weights(code) == (1, 0, 0, 0)
    assert coset_census(code).code_distribution().counts == (1, 0, 0, 0)


def test_budget_refusals_name_the_budget():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    with pytest.raises(BudgetExceededError, match="budget of 100"):
        coset_census(LinearCode(code.H, budget=100))
    with pytest.raises(BudgetExceededError, match="budget of 10"):
        LinearCode(code.H, budget=10).min_distance()
    with pytest.raises(BudgetExceededError):
        low_weight_census(LinearCode(code.H, budget=10), 3)


def test_a_code_keeps_the_budget_it_was_built_with():
    # certifying [6,3,4]_5 takes 6*3*32 = 576 kernel steps, its full
    # census twice that; the census runs under the code's own budget
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6, budget=576)
    with pytest.raises(BudgetExceededError, match="budget of 576"):
        coset_census(code)
    assert code.budget == 576


def test_budget_unit_is_pinned():
    # the unit is n*wmax*(1 + (q^(n-k)-1)/(q-1)), one step per entry of
    # each updated weight row: 6*3*32 = 576 steps to certify [6,3,4]_5
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6, budget=576)
    assert code.min_distance() == 4
    with pytest.raises(BudgetExceededError) as refusal:
        build_code(field_of_order(5), "gdrs", 4, n=6, budget=575)
    assert str(refusal.value) == ("syndrome trellis needs 576 steps "
                                  "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 575")


def test_census_has_one_row_per_point():
    # the zero syndrome and the 31 points of PG(2, 5); the 124 nonzero
    # syndromes of [6,3,4]_5 are counted q-1 = 4 to a row
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    for census in (coset_census(code), low_weight_census(code, 2)):
        assert census.table.shape[0] == 1 + (5**3 - 1) // 4 == 32
        assert census.total_cosets == 125
        assert sum(c.count for c in census.classes) == 125
    for q, d, r in [(4, 3, 2), (7, 5, 4), (8, 4, 3)]:
        code, _ = build_code(field_of_order(q), "gdrs", d, n=d + 1)
        assert code.r == r
        assert len(low_weight_census(code, 1).table) == 1 + (q**r - 1) // (q - 1)


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
    assert LinearCode(code.H).min_distance() == brute_d == 5


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
        code = LinearCode(entry.code.H)  # nothing cached from the corpus build
        q, n = code.field.q, code.n
        brute = brute_table(code)
        assert len(brute) == q ** code.r, entry.label
        at, want = _brute_rows(code, brute)
        census = desk.census(entry)
        assert len(census.table) == census_rows(q, code.r), entry.label
        assert np.array_equal(census.table[at], want), entry.label
        rows = sorted((next(w for w, c in enumerate(row) if c), tuple(row))
                      for row in brute.values())
        assert [((c.weight, c.distribution.counts), c.count) for c in census.classes] \
            == [(key, len(list(group))) for key, group in groupby(rows)], entry.label
        for wmax in range(n + 1):
            assert np.array_equal(low_weight_census(code, wmax).table[at],
                                  want[:, :wmax + 1]), (entry.label, wmax)
        zero = brute[(0,) * code.r]
        assert code.min_distance() == next(w for w in range(1, n + 1) if zero[w])
        radius = max(next(w for w, c in enumerate(row) if c) for row in brute.values())
        assert code.covering_radius() == radius, entry.label


def test_kernel_matches_dual_census_on_desk_codes(desk):
    # the MacWilliams census shares no code with the trellis: each of its
    # rows (one syndrome per point, and the zero syndrome) is the
    # kernel's row of that syndrome, at wmax = n and cut at every wmax
    entries = [e for e in desk.entries if e.q ** e.code.r <= 2000]
    assert len(entries) == 60
    for entry in entries:
        code = entry.code
        dual = dual_table(code)
        at = syndrome_row(code.field, np.array(list(dual)).T)
        assert sorted(at.tolist()) == list(range(census_rows(entry.q, code.r))), entry.label
        want = np.array(list(dual.values()), dtype=np.int64)
        assert np.array_equal(desk.census(entry).table[at], want), entry.label
        for wmax in range(code.n):
            assert np.array_equal(low_weight_census(code, wmax).table[at],
                                  want[:, :wmax + 1]), (entry.label, wmax)


def _narrowest_signed(top):
    """The narrowest signed integer type that holds 0..top."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


def _check_narrow_table_reads_as_int64(census):
    """The census keeps its table in the narrowest signed type of its
    largest count, and reads as the census of the table's int64 copy:
    the same classes, code distribution and cosets of each weight, the
    latter also tallied row by row, the zero syndrome once and each
    point q - 1 times."""
    table, q = census.table, census.code.field.q
    assert table.dtype == _narrowest_signed(int(table.max()))
    wide = CosetCensus(census.code, table.astype(np.int64))
    assert census.classes == wide.classes
    assert census.code_distribution() == wide.code_distribution()
    for W in range(-1, census.wmax + 1):
        tally = sum(1 if row == 0 else q - 1
                    for row, w in enumerate(census.weights.tolist()) if w == W)
        assert census.count_of_weight(W) == wide.count_of_weight(W) == tally, W


def test_each_desk_table_is_narrowed_and_reads_as_its_int64_copy(desk):
    # most desk counts fit in 8 or 16 bits; the 6 int32 tables are the
    # censuses with a count past 32767
    for entry in desk.entries:
        _check_narrow_table_reads_as_int64(desk.census(entry))
    dtypes = Counter(desk.census(entry).table.dtype.name for entry in desk.entries)
    assert dtypes == {"int8": 48, "int16": 35, "int32": 6}


@st.composite
def parity_checks(draw):
    """A full-rank H over a small field whose columns may be zero, repeated
    or parallel, small enough (q^n <= 2*10^4) for the pure-Python oracle."""
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
    H = Matrix(f, [[col[t] for col in cols] for t in range(r)])
    assume(H.rank() == r)
    return H


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_kernel_matches_brute_oracle_on_random_parity_checks(H):
    code = LinearCode(H)
    brute = brute_table(code)
    at, want = _brute_rows(code, brute)
    for svec, row in dual_table(code).items():  # the second oracle, zero and parallel columns too
        assert brute[svec] == row, svec
    for wmax in range(code.n + 1):
        census = low_weight_census(code, wmax)
        assert len(census.table) == census_rows(code.field.q, code.r)
        assert np.array_equal(census.table[at], want[:, :wmax + 1]), wmax
        _check_narrow_table_reads_as_int64(census)


def _prefix(code, j):
    """The code's first j coordinates, as the kernel reads a code: its H
    may be rank-deficient, so it is no LinearCode."""
    return SimpleNamespace(field=code.field, n=j, r=code.r, budget=code.budget,
                           H=SimpleNamespace(labels=code.H.labels[:, :j]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_each_prefix_snapshot_is_a_run_of_the_prefix(H):
    # at every wmax, the table after each prefix of j columns is a run on
    # those j columns alone at min(wmax, j), and the brute count of them
    # (every drawn code has q^n <= 2*10^4)
    code = LinearCode(H)
    q, n = code.field.q, code.n
    brute = [_brute_rows(code, table) for table in brute_prefix_tables(code)]
    alone = {}  # (j, top): the run on the first j columns alone at top
    for wmax in range(n + 1):
        tables = codes._syndrome_trellis(code, wmax, range(n + 1))
        assert len(tables) == n + 1
        for j, table in enumerate(tables):
            top = min(wmax, j)
            if (j, top) not in alone:
                alone[j, top] = codes._syndrome_trellis(_prefix(code, j), top, [j])[0]
            assert table.shape == (census_rows(q, code.r), top + 1), (wmax, j)
            assert np.array_equal(table, alone[j, top]), (wmax, j)
            at, want = brute[j]
            assert np.array_equal(table[at], want[:, :top + 1]), (wmax, j)
            unreached = np.ones(len(table), dtype=bool)
            unreached[at] = False
            assert not table[unreached].any(), (wmax, j)
        assert np.array_equal(tables[-1], codes._syndrome_trellis(code, wmax, [n])[0]), wmax


def test_kernel_refuses_prefix_lengths_outside_the_code():
    code, _ = build_code(field_of_order(5), "gdrs", 4, n=6)
    for lengths in ([], [7], [-1, 3]):
        with pytest.raises(ValueError, match="prefix lengths"):
            codes._syndrome_trellis(code, 3, lengths)


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
        assert sorted(map(tuple, code.H.labels.T)) == [(0, 1), (1, 0), (1, 1), (1, 2)]
        at, want = _brute_rows(code, brute_table(code))
        assert np.array_equal(coset_census(code).table[at], want), q
    with pytest.raises(AssertionError, match="table was built"):  # r = 3 keeps its tables
        build_code(field_of_order(5), "gdrs", 4)


def test_a_chain_that_is_not_nested_is_refused_before_the_kernel(kernel_runs):
    f = field_of_order(7)
    short, _ = build_code(f, "gdrs", 4, n=5)
    shifted, _ = build_code(f, "gdrs", 4, n=8, removed=[0])  # [7,4]_7 without column 0
    kernel_runs.clear()  # the certifications of the two codes
    with pytest.raises(InvariantError) as refused:
        codes._prefix_censuses([short, shifted], 5)
    assert str(refused.value) == f"{short} is not a prefix of {shifted}"
    assert kernel_runs == []


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
    for row, (w, counts) in enumerate(zip(census.weights.tolist(), census.table.tolist())):
        if w >= 0:
            tally.setdefault(w, Counter())[counts[w]] += 1 if row == 0 else q - 1
    return {w: dict(tally[w]) for w in sorted(tally)}


def _check_memo_against_tallies(H, table):
    """For each wmax >= n-k, a fresh code's memo from the trellis table
    cut at wmax holds per-W tallies of that census, and the distinct
    B_0..B_{n-k-1} of its weight-2 rows: from n-k = 3 on, the weight-2
    classes of the census cut at n-k-1."""
    r = H.nrows
    for wmax in range(r, H.ncols + 1):
        code = LinearCode(H)
        census = codes._census_from_table(code, table[:, :wmax + 1])
        rows = zip(census.weights.tolist(), census.table.tolist())
        prefixes = tuple(sorted({tuple(row[:r]) for w, row in rows if w == 2}))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_syndrome_trellis", _no_kernel)
            assert code.leader_profile() == _tallies(census)
            assert code.weight2_prefixes() == prefixes, wmax
            if r >= 3:
                below = CosetCensus(code, table[:, :r])  # the census at n-k-1
                assert prefixes == tuple(
                    cls.distribution.counts for cls in below.classes_of_weight(2)), wmax


def _check_memo_from_each_census(H):
    """A census of a fresh code at any wmax in [n-k, n] leaves the memo a
    fresh code's run at n-k leaves, read with the kernel switched off; a
    census below n-k leaves none."""
    want = _memo(LinearCode(H))
    for wmax in range(H.ncols + 1):
        code = LinearCode(H)
        low_weight_census(code, wmax)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_syndrome_trellis", _no_kernel)
            if wmax >= H.nrows:
                assert _memo(code) == want, wmax
            else:
                with pytest.raises(_KernelRan):
                    _memo(code)


def test_each_census_from_n_minus_k_up_certifies_desk_codes(desk):
    for entry in desk.entries:
        _check_memo_from_each_census(entry.code.H)


def test_one_sort_memo_matches_tallies_on_desk_censuses(desk):
    for entry in desk.entries:
        _check_memo_against_tallies(entry.code.H, desk.census(entry).table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_one_sort_memo_matches_tallies_on_random_parity_checks(H):
    _check_memo_against_tallies(H, codes._syndrome_trellis(LinearCode(H), H.ncols, [H.ncols])[0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parity_checks())
def test_each_census_from_n_minus_k_up_certifies_random_parity_checks(H):
    _check_memo_from_each_census(H)


def test_corrupted_census_table_raises_invariant_error():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    table = coset_census(code).table.astype(np.int64)
    table[7, 3] += 1
    with pytest.raises(InvariantError, match="q\\^n"):
        CosetCensus(code, table)


def test_low_weight_census_matches_full_census():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    full = coset_census(code)
    lw = low_weight_census(code, 3)
    assert "classes" not in vars(lw)  # rows are grouped only when read
    assert lw.fully_covered  # R = 2 < 3
    assert (lw.table == full.table[:, :4]).all()
    assert _tallies(lw)[2] == {2: 60, 3: 40}
    assert np.array_equal(lw.weights, full.weights)

    # below the covering radius R = 3 of [5,2,4]_5 some syndromes go unreached
    code, _ = build_code(f5, "gdrs", 4, n=5)
    full = coset_census(code)
    every = syndrome_row(f5, np.array(list(product(range(5), repeat=3))).T)
    R = code.covering_radius()
    assert R == 3
    for wmax in range(R):
        cut = low_weight_census(code, wmax)
        assert not cut.fully_covered
        assert cut.wmax == wmax
        assert np.array_equal(cut.weights, np.where(full.weights <= wmax, full.weights, -1))
        assert cut.count_of_weight(-1) == full.total_cosets - sum(
            full.count_of_weight(W) for W in range(wmax + 1))
        # every syndrome's full row cut at wmax and regrouped, unreached
        # rows as one weight -1 class
        rows = sorted((w if w <= wmax else -1, tuple(int(x) for x in row[:wmax + 1]))
                      for w, row in ((full.weights[i], full.table[i]) for i in every))
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
