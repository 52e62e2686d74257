"""Coefficient rows of the two Bonneau forms: every entry against the
defining sums, both forms against each other and every closed form on
random parameters, each entry's degree in q, the q^k check of both
forms, the row charge against the bits the rows hold and the bytes a
build takes, the work and memory a row build takes, and the bounds of
the formula caches."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import chain, repeat
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdscosets import combinat, formulas, mds, verify
from mdscosets.codes import InvariantError
from mdscosets.combinat import omega
from mdscosets.formulas import (InconsistentPrefixError, LowWeightPrefix,
                                _double_sum_rows, _single_sum_rows,
                                bonneau_original, bonneau_transformed,
                                dist_weight1, dist_weight2, dist_weight_d1,
                                dist_weight_d2, dist_weight_mid)
from mdscosets.mds import check_mds_params, mds_weight_distribution
from reference_sums import (b_low_term, bw_known_part, bw_prefix_coeff,
                            farthest_off_term, mds_weight_distribution_sum,
                            omega_coeff)
from sieve import prime_powers

# the stream's extremes, then the boundaries of the MDS range: n = q+2,
# d = n and q = 2, then a narrow band (n-d+2 = 5) under many columns
ROW_TUPLES = [(257, 10, 256), (200, 9, 199), (128, 7, 127), (66, 4, 64),
              (18, 4, 16), (5, 5, 5), (3, 3, 2), (18, 16, 16), (4, 4, 2),
              (5, 5, 3), (33, 33, 32), (10, 10, 8), (40, 37, 41)]


PRIME_POWERS = prime_powers(256)


def _admitted(n, d, q):
    try:
        check_mds_params(n, d, q)
    except ValueError:
        return False
    return True


def test_refused_n_q_plus_2_tuples_are_those_with_a_negative_count():
    # an [n, n-d+1, d]_q MDS code and its dual, MDS with distance n-d+2,
    # need every codeword count A_w >= 0; in 3 <= d <= n <= q+2 that
    # fails exactly where check_mds_params refuses (n = q+2, d = 3 or q+1)
    refused = set()
    for q in prime_powers(16):
        for n in range(3, q + 3):
            for d in range(3, n + 1):
                negative = min(mds_weight_distribution_sum(n, d, q)) < 0 or \
                    min(mds_weight_distribution_sum(n, n - d + 2, q)) < 0
                assert _admitted(n, d, q) != negative, (n, d, q)
                if negative:
                    refused.add((n, d, q))
    assert len(refused) == 19


@pytest.mark.parametrize("n,d,q", ROW_TUPLES)
def test_weight_distribution_recurrence_matches_defining_sum(n, d, q):
    assert mds_weight_distribution(n, d, q).counts == mds_weight_distribution_sum(n, d, q)


@pytest.mark.parametrize("n,d,q", ROW_TUPLES)
def test_rows_match_defining_sums(n, d, q):
    ws = range(d - 1, n + 1)
    A = mds_weight_distribution_sum(n, d, q)
    single_known, single_cols = _single_sum_rows(n, d, q)
    double_known, double_cols = _double_sum_rows(n, d, q)
    assert single_known == tuple(A[w] - omega(n, d, w, 0) for w in ws)
    assert double_known == tuple(bw_known_part(n, d, q, w) for w in ws)
    assert len(single_cols) == len(double_cols) == d - 1
    for v, col in enumerate(single_cols):
        assert col == tuple(omega(n, d, w, v) for w in ws)
    for v, col in enumerate(double_cols):
        assert col == tuple(bw_prefix_coeff(n, d, w, v) for w in ws)
    # the two forms agree for every prefix, so their rows must be equal
    assert single_known == double_known
    assert single_cols == double_cols
    _assert_charge_covers_the_rows(n, d, q, (single_known, single_cols))


def _assert_charge_covers_the_rows(n, d, q, rows):
    """The row charge is at least the bits the rows hold."""
    known, cols = rows
    held = sum(x.bit_length() for col in (known,) + cols for x in col)
    assert mds._check_formula_rows(n, d, q) >= held


@st.composite
def mds_params(draw):
    q = draw(st.sampled_from(tuple(q for q in PRIME_POWERS if q <= 64)))
    n = draw(st.integers(3, q + 2))
    d = draw(st.integers(3, min(n, 16)).filter(lambda d: _admitted(n, d, q)))
    return n, d, q


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(mds_params())
def test_rows_and_closed_form_terms_match_reference_sums(params):
    n, d, q = params
    ws = range(d - 1, n + 1)
    A = mds_weight_distribution_sum(n, d, q)
    single_known, single_cols = _single_sum_rows(n, d, q)
    double_known, double_cols = _double_sum_rows(n, d, q)
    assert single_known == tuple(A[w] - omega_coeff(n, d, w, 0) for w in ws)
    assert double_known == tuple(bw_known_part(n, d, q, w) for w in ws)
    assert single_cols == tuple(tuple(omega_coeff(n, d, w, v) for w in ws)
                                for v in range(d - 1))
    assert double_cols == tuple(tuple(bw_prefix_coeff(n, d, w, v) for w in ws)
                                for v in range(d - 1))
    _assert_charge_covers_the_rows(n, d, q, (single_known, single_cols))
    # the paper's terms of the closed forms, each against its own sum: the
    # B_{d-2} column (-1)^(w-d) C(n-d+2, n-w) of weights 2 and d-2, and
    # B_{d-1} = C(n-1, d-1) of weight 1
    assert single_cols[d - 2] == tuple(b_low_term(n, d, w) for w in ws)
    B = (0, 1) + (0,) * (d - 3) + tuple(
        A[w] - omega_coeff(n, d, w, 0) + omega_coeff(n, d, w, 1) for w in ws)
    assert B[d - 1] == math.comb(n - 1, d - 1)
    _assert_strict_form(lambda: dist_weight1(n, d, q), B)
    if d >= 4:  # B_{d-2} = 7 times its column
        assert dist_weight_d2(n, d, q, 7, strict=False).counts[d - 1:] == tuple(
            A[w] - omega_coeff(n, d, w, 0) + 7 * b_low_term(n, d, w) for w in ws)
    if d >= 5:  # B_2 = 1 and B_{d-2} = 7
        assert dist_weight2(n, d, q, 7, strict=False).counts == \
            (0, 0, 1) + (0,) * (d - 5) + (7,) + tuple(
                A[w] - omega_coeff(n, d, w, 0) + omega_coeff(n, d, w, 2)
                + 7 * b_low_term(n, d, w) for w in ws)
    B = (0,) * (d - 1) + (math.comb(n, d - 1),) + \
        tuple(A[w] - farthest_off_term(n, d, w) for w in range(d, n + 1))
    _assert_strict_form(lambda: dist_weight_d1(n, d, q), B)


def _assert_strict_form(form, counts):
    """A strict closed form gives `counts`, or refuses them when one is
    negative."""
    if min(counts) < 0:
        with pytest.raises(InconsistentPrefixError):
            form()
    else:
        assert form().counts == counts


def _closed_forms(n, d, q, counts, W):
    """(closed form, the prefix it describes) for each closed form defined
    at (n, d); B_{d-2} and the mid-range knowns come from `counts`."""
    zero = [0] * (d - 1)
    w1 = zero.copy()
    w1[1] = 1
    forms = [(lambda: dist_weight1(n, d, q), w1),
             (lambda: dist_weight_d1(n, d, q), zero)]
    b = counts[d - 2]
    if d >= 4:
        p = zero.copy()
        p[d - 2] = max(1, b)
        forms.append((lambda: dist_weight_d2(n, d, q, max(1, b)), p))
    if d >= 5:
        p = zero.copy()
        p[2], p[d - 2] = 1, b
        forms.append((lambda: dist_weight2(n, d, q, b), p))
    if W is not None:
        knowns = counts[d - W:]
        p = zero.copy()
        p[d - W:] = knowns
        if W <= (d - 1) // 2:
            p[W] = 1
        forms.append((lambda: dist_weight_mid(n, d, q, W, knowns), p))
    return forms


@st.composite
def queries(draw):
    q = draw(st.sampled_from(PRIME_POWERS))
    d = draw(st.integers(3, min(10, q + 1)))
    n = draw(st.integers(d, q + 1))
    size = draw(st.sampled_from((3, 200, 10**6)))
    counts = (draw(st.integers(0, 1)),) + tuple(
        draw(st.integers(0, size)) for _ in range(d - 2))
    mids = list(range(2, (d - 1) // 2 + 1)) + list(range((d + 1) // 2, d - 2))
    W = draw(st.sampled_from(mids)) if mids else None
    return n, d, q, counts, W


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(queries())
def test_forms_and_closed_forms_agree_on_random_parameters(query):
    n, d, q, counts, W = query
    prefix = LowWeightPrefix(n, d, q, counts)
    assert bonneau_original(prefix, strict=False) == \
        bonneau_transformed(prefix, strict=False)
    for form, ref_counts in _closed_forms(n, d, q, counts, W):
        ref = bonneau_transformed(LowWeightPrefix(n, d, q, tuple(ref_counts)),
                                  strict=False)
        if ref.is_nonnegative():
            assert form() == ref
        else:
            with pytest.raises(InconsistentPrefixError):
                form()


def _degree_failures():
    """(builder, n, d, entry) of each row entry, K_w or a coefficient,
    whose (n-d+2)-th forward difference over the n-d+3 values q =
    n-1..2n-d+1 is not 0, for each 3 <= d <= n <= verify.IDENTITY_N: an
    entry that is a polynomial in q of degree at most n-d+1 has 0 there."""
    bad = []
    for name in ("_double_sum_rows", "_single_sum_rows"):
        build = getattr(formulas, name)
        for n in range(3, verify.IDENTITY_N + 1):
            for d in range(3, n + 1):
                values = [(*known, *chain.from_iterable(cols))
                          for known, cols in map(build, repeat(n), repeat(d),
                                                 range(n - 1, 2 * n - d + 2))]
                for _ in range(n - d + 2):
                    values = [tuple(map(sub, b, a)) for a, b in zip(values, values[1:])]
                bad += [(name, n, d, i) for i, x in enumerate(values[0]) if x]
    return bad


def test_every_row_entry_is_a_polynomial_in_q_of_degree_at_most_n_minus_d_plus_1():
    # the premise of criterion 2: rows equal at n-d+2 values of q are then
    # equal at every q
    assert _degree_failures() == []


def test_a_term_that_vanishes_on_the_compared_q_fails_only_the_degree_test(monkeypatch):
    # a double-sum K_w doctored with prod (q - p) over criterion 2's q:
    # the criterion compares nothing that differs, but each doctored
    # entry now has degree n-d+2 in q
    build = formulas._double_sum_rows

    def doctored(n, d, q):
        known, cols = build(n, d, q)
        vanishing = math.prod(q - p for p in range(n - 1, 2 * n - d + 1))
        return tuple(k + vanishing for k in known), cols
    monkeypatch.setattr(formulas, "_double_sum_rows", doctored)
    monkeypatch.setattr(verify, "_double_sum_rows", doctored)
    assert verify.criterion_bonneau_equality(None).passed
    assert _degree_failures() == [
        ("_double_sum_rows", n, d, i) for n in range(3, verify.IDENTITY_N + 1)
        for d in range(3, n + 1) for i in range(n - d + 2)]


@pytest.mark.parametrize("form,rows", [(bonneau_original, "_double_sum_rows"),
                                       (bonneau_transformed, "_single_sum_rows")],
                         ids=["original", "transformed"])
def test_forms_check_every_total(monkeypatch, form, rows):
    build = getattr(formulas, rows)

    def off_by_one(n, d, q):
        known, cols = build(n, d, q)
        return (known[0] + 1,) + known[1:], cols
    monkeypatch.setattr(formulas, rows, off_by_one)
    for counts in ((1, 0, 0), (0, 3, 7)):
        with pytest.raises(InvariantError, match="does not total q\\^k"):
            form(LowWeightPrefix(6, 4, 5, counts), strict=False)


def test_row_builds_take_no_per_entry_binomials(monkeypatch):
    n, d, q = 257, 10, 256
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[module.__name__, name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("omega", "binom", "mds_weight_distribution"):
        counting(formulas, name)
    counting(mds, "binom")
    formulas._double_sum_columns.cache_clear()  # each build makes its columns
    formulas._single_sum_columns.cache_clear()
    formulas._double_sum_rows.__wrapped__(n, d, q)
    # the double sums read neither omega nor A_w; one binomial seeds K_w,
    # and every column follows from one signed binomial row
    assert calls["mdscosets.formulas", "omega"] == 0
    assert calls["mdscosets.formulas", "mds_weight_distribution"] == 0
    assert calls["mdscosets.formulas", "binom"] == 1
    calls.clear()
    formulas._single_sum_rows.__wrapped__(n, d, q)
    # one omega per column, at w = d-1, scales the one signed binomial row
    assert calls["mdscosets.formulas", "omega"] == d - 1
    assert calls["mdscosets.formulas", "binom"] == 0
    calls.clear()
    mds.mds_weight_distribution.__wrapped__(n, d, q)
    assert calls["mdscosets.mds", "binom"] == 1
    # the closed forms take none: each is the tail of the rows at its prefix
    formulas.dist_weight1.__wrapped__(n, d, q)
    formulas.dist_weight_d1.__wrapped__(n, d, q)
    formulas.dist_weight2(n, d, q, 7, strict=False)
    assert calls["mdscosets.formulas", "binom"] == 0


@pytest.mark.parametrize("rows", [_double_sum_rows, _single_sum_rows],
                         ids=["double", "single"])
def test_a_row_build_holds_its_rows_and_one_band(rows):
    # 589 columns on a band of 12 weights: the rows hold about 0.3 MiB,
    # where a (d-1) x (n+1) table of binomials would take 15 MiB
    mds_weight_distribution.cache_clear()
    tracemalloc.start()
    try:
        rows.__wrapped__(600, 590, 601)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n,d,q", ROW_TUPLES + [(1000, 1000, 1009)])
def test_the_row_charge_bounds_the_bytes_each_row_build_takes(n, d, q):
    # the charge counts 108 bytes an entry besides the value bits, and at
    # d = n its 2000 entries take most of it; a build of any size also
    # takes up to 2 KiB of interpreter objects (frames, iterators, the
    # seeds' cache entries)
    charge = mds._check_formula_rows(n, d, q) // 8
    for rows in (_double_sum_rows, _single_sum_rows):
        mds_weight_distribution.cache_clear()
        omega.cache_clear()
        tracemalloc.start()
        try:
            rows.__wrapped__(n, d, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge + 2048, (rows.__name__, peak, charge)


def _ask_closed_forms(n, d, q, counts):
    """Every closed form defined at (n, d), its refusal of an unrealizable
    prefix included."""
    for form, _ in _closed_forms(n, d, q, counts, None):
        try:
            form()
        except InconsistentPrefixError:
            pass


def _module_caches():
    return [fn for mod in (combinat, mds, formulas)
            for fn in vars(mod).values()
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__]


def test_formula_caches_are_bounded():
    caches = _module_caches()
    names = {fn.__qualname__ for fn in caches}
    assert {"omega", "mds_weight_distribution", "_single_sum_rows", "_double_sum_rows",
            "_single_sum_columns", "_double_sum_columns", "dist_weight1",
            "dist_weight_d1"} <= names
    for fn in caches:
        assert fn.cache_parameters()["maxsize"] is not None, fn.__qualname__
    # the benchmark harness reads these two
    combinat.omega.cache_info()
    mds.mds_weight_distribution.cache_info()
    rng = random.Random(500)
    small_qs = [q for q in PRIME_POWERS if q <= 32]
    for _ in range(500):
        q = rng.choice(small_qs)
        d = rng.randint(3, min(10, q + 1))
        n = rng.randint(d, q + 1)
        counts = (rng.randint(0, 1),) + tuple(rng.randint(0, 9) for _ in range(d - 2))
        prefix = LowWeightPrefix(n, d, q, counts)
        bonneau_original(prefix, strict=False)
        bonneau_transformed(prefix, strict=False)
        _ask_closed_forms(n, d, q, counts)
    for fn in caches:
        info = fn.cache_info()
        assert info.currsize <= info.maxsize, fn.__qualname__
        assert info.misses > info.maxsize, fn.__qualname__  # the stream overflowed it


# distinct (n, d) back to back, each with consistent weight-1 and
# weight-(d-1) forms, which a refusal would leave uncached
MEMO_TUPLES = [(257, 10, 256), (18, 5, 16), (200, 9, 199), (33, 6, 32),
               (128, 7, 127), (18, 4, 16), (66, 4, 64)]


def test_stream_builds_rows_and_closed_forms_once_per_tuple():
    memos = [formulas._single_sum_rows, formulas._double_sum_rows,
             dist_weight1, dist_weight_d1]
    for fn in memos:
        fn.cache_clear()
    rng = random.Random(24)
    for n, d, q in MEMO_TUPLES:
        for _ in range(4):  # prefixes per (n, d, q), as the benchmark stream asks
            counts = (rng.randint(0, 1),) + tuple(rng.randint(0, 99) for _ in range(d - 2))
            prefix = LowWeightPrefix(n, d, q, counts)
            assert bonneau_original(prefix, strict=False) == \
                bonneau_transformed(prefix, strict=False)
            _ask_closed_forms(n, d, q, counts)
        # each memo serves what a fresh build gives
        assert _single_sum_rows(n, d, q) == _single_sum_rows.__wrapped__(n, d, q)
        assert _double_sum_rows(n, d, q) == _double_sum_rows.__wrapped__(n, d, q)
        assert dist_weight1(n, d, q) == dist_weight1.__wrapped__(n, d, q)
        assert dist_weight_d1(n, d, q) == dist_weight_d1.__wrapped__(n, d, q)
    for fn in memos:
        info = fn.cache_info()
        assert info.misses == len(MEMO_TUPLES), fn.__qualname__
        assert info.currsize == 1, fn.__qualname__
