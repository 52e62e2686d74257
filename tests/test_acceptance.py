"""Desk-corpus acceptance run: one test per verification criterion.

The shared `desk` fixture builds every corpus code's census once per
session; each test prints its criterion's pass/fail line plus details.

Criterion 7 is split: the covering certificates hold, but the deep-hole
count equality is refuted by the exhaustive censuses themselves on deep
column removals (smallest counterexample [5,1,5]_5: 24 weight-4 cosets
where the formula predicts 4).  That test fails by design rather than
weakening the claimed equality; see the failure message for the list of
counterexamples.
"""

import hashlib

import numpy as np
import pytest

from mdscosets import codes, formulas, verify
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code
from mdscosets.verify import (CRITERIA, DESK_DS, DeskCache, covering_certificates,
                              deep_hole_equality, run_acceptance)


def _run(desk, number):
    name, fn = CRITERIA[number]
    result = fn(desk)
    print(result.summary())
    for line in result.lines:
        print("   ", line)
    return result


def test_criterion_1_oracle_equivalence(desk):
    result = _run(desk, 1)
    assert result.passed, "\n".join(result.lines)


def test_criterion_2_bonneau_equality(desk):
    result = _run(desk, 2)
    assert result.passed, "\n".join(result.lines)


def test_criterion_2_reports_each_disagreeing_prefix(desk, monkeypatch):
    # shift column v = 1 of the double-sum rows at (12, 6, 13) by +1 at
    # w = d-1 and -1 at w = d: every total holds, so only the comparison
    # sees it, on each synthetic prefix with B_1 != 0, in draw order
    rows = formulas._double_sum_rows

    def shifted(n, d, q):
        known, cols = rows(n, d, q)
        if (n, d, q) == (12, 6, 13):
            col = (cols[1][0] + 1, cols[1][1] - 1) + cols[1][2:]
            cols = cols[:1] + (col,) + cols[2:]
        return known, cols
    monkeypatch.setattr(formulas, "_double_sum_rows", shifted)
    result = CRITERIA[2][1](desk)
    assert not result.passed
    # the documented draw: one seeded Generator, one draw per tuple,
    # B_0 in {0, 1} and B_1..B_{d-2} in 0..99
    rng = np.random.default_rng(20260810)
    expected = []
    for (n, d, q) in verify.SYNTHETIC_TUPLES:
        drawn = rng.integers(0, [2] + [100] * (d - 2), size=(verify.SYNTHETIC_PER_TUPLE, d - 1))
        if (n, d, q) == (12, 6, 13):
            expected += [f"(n,d,q)=(12,6,13) prefix {row}: forms disagree"
                         for row in drawn.tolist() if row[1]]
    assert result.lines[1:] == expected
    assert result.lines[0] == "557 census prefixes plus 80000 synthetic prefixes compared"
    assert result.lines[1] == "(n,d,q)=(12,6,13) prefix [1, 96, 37, 24, 44]: forms disagree"
    digest = hashlib.sha256("\n".join(result.lines).encode()).hexdigest()
    assert digest.startswith("ad3ad2af2880a55a")


def test_criterion_2_runs_the_scalar_forms_only_on_census_prefixes(desk, monkeypatch):
    # the synthetic prefixes go through the batch evaluator; the scalar
    # forms see each census class once
    calls = {"original": 0, "transformed": 0}

    def counting(form, fn):
        def wrapper(*args, **kwargs):
            calls[form] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(verify, "bonneau_original",
                        counting("original", verify.bonneau_original))
    monkeypatch.setattr(verify, "bonneau_transformed",
                        counting("transformed", verify.bonneau_transformed))
    classes = sum(len(desk.census(entry).classes) for entry in desk.entries)
    assert CRITERIA[2][1](desk).passed
    assert calls == {"original": classes, "transformed": classes}


def test_criterion_2_draws_the_full_ranges(desk, monkeypatch):
    # every tuple gets its rows, and each column covers its whole range,
    # so a bound on the draw cannot quietly narrow the check; each tuple
    # goes through each form once, as one matrix, and the exact bound
    # keeps every comparison in int64
    calls = []
    tails = verify.bonneau_tails

    def capturing(n, d, q, prefixes, form):
        got = tails(n, d, q, prefixes, form)
        calls.append(((n, d, q), form, np.array(prefixes), got.dtype))
        return got
    monkeypatch.setattr(verify, "bonneau_tails", capturing)
    assert CRITERIA[2][1](desk).passed
    assert [(t, form) for t, form, _, _ in calls] == [
        (t, form) for t in verify.SYNTHETIC_TUPLES for form in ("original", "transformed")]
    assert all(dtype == np.int64 for _, _, _, dtype in calls)
    for ((n, d, q), form, drawn, _), (_, _, other, _) in zip(calls[::2], calls[1::2]):
        assert np.array_equal(drawn, other)
        assert drawn.shape == (verify.SYNTHETIC_PER_TUPLE, d - 1)
        assert set(drawn[:, 0].tolist()) == {0, 1}
        for v in range(1, d - 1):
            assert drawn[:, v].min() == 0 and drawn[:, v].max() == 99


def test_criterion_3_closed_forms(desk):
    result = _run(desk, 3)
    assert result.passed, "\n".join(result.lines)


def test_criterion_4_conic_censuses(desk):
    result = _run(desk, 4)
    assert result.passed, "\n".join(result.lines)


def test_criterion_5_symmetry(desk):
    result = _run(desk, 5)
    assert result.passed, "\n".join(result.lines)


def test_criterion_6_aggregate(desk):
    result = _run(desk, 6)
    assert result.passed, "\n".join(result.lines)


def test_criterion_7_covering_certificates(desk):
    lines, bad = covering_certificates(desk)
    print("criterion 7 (certificates):", "PASS" if not bad else "FAIL")
    for line in lines + bad:
        print("   ", line)
    assert not bad, "\n".join(bad)


def test_criterion_7_deep_hole_counts(desk):
    lines, bad = deep_hole_equality(desk)
    print("criterion 7 (deep-hole counts):", "PASS" if not bad else "FAIL")
    for line in lines + bad:
        print("   ", line)
    assert not bad, (
        "the exhaustive censuses refute the (q-1)*Delta deep-hole count on "
        "these removal codes (see the decisions ledger for the analysis):\n"
        + "\n".join(bad))


def test_criterion_8_structural(desk):
    result = _run(desk, 8)
    assert result.passed, "\n".join(result.lines)


def test_criterion_9_remark_survey(desk):
    result = _run(desk, 9)
    assert result.passed, "\n".join(result.lines)


def test_run_acceptance_reuses_corpus_codes(kernel_runs):
    # the criteria read the corpus's own certified codes instead of
    # rebuilding them; on the q = 5 corpus rebuilding took 33 kernel runs,
    # 8 of them repeats, certifying each corpus code apart from its full
    # census took 25, one run per corpus code 15, and one per chain 9.
    # The 10 corpus codes form 4 chains, one run each, the survey reads
    # [6,2,5]_5's memo, and the 4 criterion-7 codes outside the corpus
    # run once each
    results = run_acceptance(DeskCache(qs=(5,)))
    runs = [(code.field.q, tuple(map(tuple, code.H.labels.tolist())), wmax)
            for code, wmax, _ in kernel_runs]
    assert [r.passed for r in results] == [True] * 6 + [False, True, True]
    assert len(runs) == 8
    assert len(set(runs)) == len(runs)  # no (code, wmax) pair runs twice


def _chains(entries):
    """The corpus entries grouped by chain, (q, d, family), in corpus order."""
    chains = {}
    for e in entries:
        chains.setdefault((e.q, e.d, e.family), []).append(e)
    return list(chains.values())


def test_desk_cache_runs_the_kernel_once_per_chain(kernel_runs, monkeypatch):
    # every desk code's full census fits the default budget, so building
    # the corpus runs the kernel once per chain, at wmax = n of its
    # longest code, and takes every code's census from that run, each
    # code certified from its own; reading every census runs nothing
    # more.  The q = 9 and 11 chains stop short of length q+1, and each
    # run goes on to the length-(q+1) parent, whose snapshot certifies
    # it.  That is one line order per nonzero column of each run's code:
    # 24 runs and 201 orders, where one run per code took 89 and 526, and
    # stopping at the corpus 24 and 173 with 8 more runs for the parents
    orders = []
    point_lines = codes._point_lines

    def counted_point_lines(f, col, add, mul):
        orders.append(col.tolist())
        return point_lines(f, col, add, mul)

    monkeypatch.setattr(codes, "_point_lines", counted_point_lines)
    cache = DeskCache()
    for entry in cache.entries:
        cache.census(entry)
    chains = _chains(cache.entries)
    ridden = [cache.code(c[-1].q, c[-1].d, family=c[-1].family) for c in chains]
    assert len(cache.entries) == 89
    assert kernel_runs == [
        (code, c[-1].n, [e.n for e in c] + ([code.n] if c[-1].n < code.n else []))
        for code, c in zip(ridden, chains)]
    assert orders == [col.tolist() for code in ridden
                      for col in code.H.labels.T if col.any()]
    assert all(e.code.min_distance() == e.d for e in cache.entries)
    assert [code.n for code in ridden if code.n > 9] == [10] * 4 + [12] * 4
    assert all(code.min_distance() == code.r + 1 for code in ridden)
    assert (len(kernel_runs), len(orders)) == (24, 201)


def test_full_verify_runs_the_kernel_once_per_chain(kernel_runs):
    # criterion 7 reads the q = 9 and 11 parents from the memos their
    # chain runs left, and the survey reads every code's weight-2 rows
    # from its memo: a full default-budget verify runs the kernel 24
    # times, where certifying the parents apart took 8 more runs and the
    # survey 5 more
    results = run_acceptance()
    runs = [(code.field.q, tuple(map(tuple, code.H.labels.tolist())), wmax)
            for code, wmax, _ in kernel_runs]
    assert [r.passed for r in results] == [True] * 6 + [False, True, True]
    assert len(runs) == len(set(runs)) == 24


def test_parent_snapshots_certify_the_parents_and_are_dropped():
    # the q = 9 chains' run hands back each parent's census at the
    # chain's wmax; its memo equals that of a parent built apart, and the
    # cache holds the corpus censuses only
    cache = DeskCache(qs=(9,))
    assert set(cache._census) == {e.code for e in cache.entries}
    for d in DESK_DS:
        parent = cache.code(9, d)
        apart, _ = build_code(field_of_order(9), "gdrs", d)
        assert parent.n == 10 and parent not in cache._census
        assert parent._leaders == apart._leaders
        assert parent.weight2_prefixes() == apart.weight2_prefixes()


def test_survey_reads_one_way_at_every_budget(kernel_runs):
    # at 100000 steps the q = 11, d = 5 chain's full census (71785) fits
    # but its run on to [12,8,5]_11 (123060) does not, so the parent is
    # certified at n-k (70320 steps) when first asked for, and the survey
    # reads the memo that run left; at the default budget the parent
    # rode the chain run and the survey reads that memo; the findings
    # agree, and the survey itself runs no kernel
    findings = {}
    for budget, certification in ((100_000, [(12, 4)]), (codes.DEFAULT_BUDGET, [])):
        cache = DeskCache(budget, qs=(11,), ds=(5,))
        kernel_runs.clear()
        assert cache.code(11, 5).min_distance() == 5
        assert [(code.n, wmax) for code, wmax, _ in kernel_runs] == certification
        findings[budget] = verify.weight2_identity_survey(cache)
        assert [(code.n, wmax) for code, wmax, _ in kernel_runs] == certification
    assert findings[100_000] == findings[codes.DEFAULT_BUDGET] == [
        {"q": 11, "d": 5, "n": 12, "gcd": 1, "b_low_if_identical": 12,
         "status": "confirmed", "b_values": [12]}]


def test_each_chain_snapshot_is_its_prefix_codes_own_run(desk):
    # each corpus code's census is a snapshot of its chain's one run; it
    # is the table a run of the code alone gives, entry for entry
    for entry in desk.entries:
        alone = codes._syndrome_trellis(codes.LinearCode(entry.code.H), entry.n, [entry.n])[0]
        table = desk.census(entry).table
        assert table.shape == alone.shape and np.array_equal(table, alone), entry.label


def test_desk_cache_builds_the_code_it_is_asked_for():
    cache = DeskCache(qs=(4,), ds=(4,))
    with pytest.raises(ValueError, match="the triply-extended family has d = 4"):
        cache.code(4, 5, family="gtrs")
    short = cache.code(4, 4, n=5, family="gtrs")
    assert (short.n, short.k, short.min_distance()) == (5, 2, 4)
    assert cache.code(4, 4, family="gtrs") is cache.entries[-1].code
    with pytest.raises(ValueError, match="n=7"):
        cache.code(4, 4, n=7, family="gtrs")
    assert cache.code(4, 3, family="grs").n == 4
