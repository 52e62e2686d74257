"""Coefficient rows of the two Bonneau forms: every entry against the
defining sums, both forms against each other and every closed form on
random parameters, the q^k check of both forms, the work a row build
does, and the bounds of the formula caches."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdscosets import combinat, formulas, mds
from mdscosets.codes import InvariantError
from mdscosets.combinat import omega
from mdscosets.formulas import (InconsistentPrefixError, LowWeightPrefix,
                                _double_sum_rows, _single_sum_rows,
                                bonneau_original, bonneau_transformed,
                                _b_low_column, dist_weight1, dist_weight2,
                                dist_weight_d1, dist_weight_d2, dist_weight_mid)
from mdscosets.mds import mds_weight_distribution
from reference_sums import (b_low_term, bw_known_part, bw_prefix_coeff,
                            farthest_off_term, mds_weight_distribution_sum,
                            omega_coeff)

# the stream's extremes, then the boundaries of the MDS range: n = q+2,
# d = n and q = 2
ROW_TUPLES = [(257, 10, 256), (200, 9, 199), (128, 7, 127), (66, 3, 64),
              (18, 4, 16), (5, 5, 5), (3, 3, 2), (18, 3, 16), (4, 4, 2),
              (4, 3, 2), (33, 33, 32), (10, 10, 8)]


def _is_prime_power(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = tuple(q for q in range(2, 257) if _is_prime_power(q))


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


@st.composite
def mds_params(draw):
    q = draw(st.sampled_from(tuple(q for q in PRIME_POWERS if q <= 64)))
    n = draw(st.integers(3, q + 2))
    d = draw(st.integers(3, min(n, 16)))
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
    assert _b_low_column(n, d) == tuple(b_low_term(n, d, w) for w in ws)
    if d >= 4:  # the column times B_{d-2} = 7, taken in the pass that adds K_w
        assert dist_weight_d2(n, d, q, 7, strict=False).counts[d - 1:] == tuple(
            A[w] - omega_coeff(n, d, w, 0) + 7 * b_low_term(n, d, w) for w in ws)
    B = [0] * (d - 1) + [math.comb(n, d - 1)] + \
        [A[w] - farthest_off_term(n, d, w) for w in range(d, n + 1)]
    if min(B) < 0:
        with pytest.raises(InconsistentPrefixError):
            dist_weight_d1(n, d, q)
    else:
        assert dist_weight_d1(n, d, q).counts == tuple(B)


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
    formulas._double_sum_rows.__wrapped__(n, d, q)
    # the double sums read neither omega nor A_w; they seed K_w and each
    # of the d-1 columns with one binomial and step every other entry
    assert calls["mdscosets.formulas", "omega"] == 0
    assert calls["mdscosets.formulas", "mds_weight_distribution"] == 0
    assert calls["mdscosets.formulas", "binom"] <= d
    calls.clear()
    formulas._single_sum_rows.__wrapped__(n, d, q)
    # one omega per column, at w = d-1; the (n-d+2)(d-1) entries follow by ratios
    assert calls["mdscosets.formulas", "omega"] == d - 1
    assert calls["mdscosets.formulas", "binom"] == 0
    calls.clear()
    mds.mds_weight_distribution.__wrapped__(n, d, q)
    assert calls["mdscosets.mds", "binom"] == 1
    # the B_{d-2} column takes none, the weight-(d-1) form one
    formulas._b_low_column.__wrapped__(n, d)
    formulas.dist_weight_d1.__wrapped__(n, d, q)
    assert calls["mdscosets.formulas", "binom"] == 1


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
    assert {"omega", "mds_weight_distribution", "_single_sum_rows",
            "_double_sum_rows", "_b_low_column", "dist_weight1",
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
               (128, 7, 127), (18, 4, 16), (66, 3, 64)]


def test_stream_builds_rows_and_closed_forms_once_per_tuple():
    memos = [formulas._single_sum_rows, formulas._double_sum_rows,
             dist_weight1, dist_weight_d1, formulas._b_low_column]
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
        assert _b_low_column(n, d) == _b_low_column.__wrapped__(n, d)
    for fn in memos:
        info = fn.cache_info()
        assert info.misses == len(MEMO_TUPLES), fn.__qualname__
        assert info.currsize == 1, fn.__qualname__
