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

import copy
import dataclasses
import hashlib
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mdscosets import codes, mds, verify
from mdscosets.codes import WeightDistribution
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code
from mdscosets.verify import (CRITERIA, DESK_DS, CorpusEntry, DeskCache,
                              covering_certificates, deep_hole_equality, run_acceptance)


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


def _doctor_censuses(monkeypatch, changes):
    """DeskCache.census with the census of each corpus code whose label
    `changes` names handed out as a shallow copy that its change edits;
    every other census as counted."""
    census = DeskCache.census

    def doctored(self, code):
        real = census(self, code)
        if not isinstance(code, CorpusEntry) or code.label not in changes:
            return real
        edited = copy.copy(real)
        edited.classes = list(real.classes)  # over the cached property
        changes[code.label](edited)
        return edited
    monkeypatch.setattr(DeskCache, "census", doctored)


def _changed_for(monkeypatch, name, at, change):
    """verify.<name> with its result at the arguments `at` passed through
    `change`, at every other argument as computed."""
    fn = getattr(verify, name)

    def changed(*args):
        return change(fn(*args)) if args == at else fn(*args)
    monkeypatch.setattr(verify, name, changed)


def _raised(dist, w, by=1):
    """dist with B_w raised by `by`."""
    counts = list(dist.counts)
    counts[w] += by
    return WeightDistribution(tuple(counts))


def test_criterion_1_names_each_class_its_prefix_does_not_rebuild(desk, monkeypatch):
    # the single-sum form, fed the prefix of [5,2,4]_5's weight-1 class,
    # moves one vector from weight 4 to weight 5
    fn = verify.bonneau_transformed

    def moved(prefix):
        dist = fn(prefix)
        if (prefix.n, prefix.d, prefix.q, prefix.counts) == (5, 4, 5, (0, 1, 0)):
            dist = _raised(_raised(dist, 4, -1), 5)
        return dist
    monkeypatch.setattr(verify, "bonneau_transformed", moved)
    result = CRITERIA[1][1](desk)
    assert not result.passed
    assert result.lines == [
        "89 codes, 557 census classes reconstructed",
        "[5,2,4]_5 gdrs W=1: (0, 1, 0, 4, 12, 8) != census (0, 1, 0, 4, 13, 7)"]


def test_criterion_2_bonneau_equality(desk):
    result = _run(desk, 2)
    assert result.passed, "\n".join(result.lines)


def _break_double_sum_rows(monkeypatch, change):
    """Criterion 2 with the double-sum rows at (12, 6, 13) passed through
    `change`, every other tuple's rows left as built."""
    rows = verify._double_sum_rows

    def broken(n, d, q):
        return change(*rows(n, d, q)) if (n, d, q) == (12, 6, 13) else rows(n, d, q)
    monkeypatch.setattr(verify, "_double_sum_rows", broken)


def test_criterion_2_reports_each_disagreeing_prefix(desk, monkeypatch):
    # shift column v = 1 by +1 at w = d-1 and -1 at w = d: every total
    # holds, so only the row comparison sees it, at its first entry
    def shifted(known, cols):
        col = (cols[1][0] + 1, cols[1][1] - 1) + cols[1][2:]
        return known, cols[:1] + (col,) + cols[2:]
    _break_double_sum_rows(monkeypatch, shifted)
    result = CRITERIA[2][1](desk)
    assert not result.passed
    assert result.lines == [
        "436 (n, d, q) tuples: rows differ on 1",
        "(n,d,q)=(12,6,13): coefficient of B_1 at w=5: double sum -329, single sum -330"]


def test_criterion_2_names_a_differing_k_entry(desk, monkeypatch):
    def raised(known, cols):
        return known[:2] + (known[2] + 1,) + known[3:], cols
    _break_double_sum_rows(monkeypatch, raised)
    result = CRITERIA[2][1](desk)
    assert not result.passed
    assert result.lines[1:] == [
        "(n,d,q)=(12,6,13): K at w=7: double sum 78409, single sum 78408"]


def test_criterion_2_reads_no_census(desk, monkeypatch):
    def refused(self, code):
        raise AssertionError("criterion 2 read a census")
    monkeypatch.setattr(DeskCache, "census", refused)
    result = CRITERIA[2][1](desk)
    assert result.passed
    assert result.lines == ["436 (n, d, q) tuples: double-sum rows equal single-sum rows"]


def test_criterion_3_closed_forms(desk):
    result = _run(desk, 3)
    assert result.passed, "\n".join(result.lines)


def test_criterion_3_names_each_closed_form_the_census_refutes(desk, monkeypatch):
    # [4,1,4]_5 loses its weight-1 class; [5,2,4]_5 counts 19 weight-1
    # cosets, not 20, and its weight-3 class twice; the weight-1 form of
    # (5, 4, 5) and the weight-(d-1) form of (5, 3, 5) gain a vector
    def no_weight_1(census):
        census.classes = [c for c in census.classes if c.weight != 1]

    def miscounted(census):
        census.classes = [dataclasses.replace(c, count=19) if c.weight == 1 else c
                          for c in census.classes] + census.classes_of_weight(3)
    _doctor_censuses(monkeypatch, {"[4,1,4]_5 gdrs": no_weight_1,
                                   "[5,2,4]_5 gdrs": miscounted})
    _changed_for(monkeypatch, "dist_weight1", (5, 4, 5), lambda dist: _raised(dist, 5))
    _changed_for(monkeypatch, "dist_weight_d1", (5, 3, 5), lambda dist: _raised(dist, 5))
    result = CRITERIA[3][1](desk)
    assert not result.passed
    assert result.lines == [
        "89 codes checked",
        "[5,3,3]_5 gdrs: weight-(d-1) distribution mismatch",
        "[4,1,4]_5 gdrs: 0 weight-1 classes",
        "[5,2,4]_5 gdrs: weight-1 class count 19 != 20",
        "[5,2,4]_5 gdrs: weight-1 distribution mismatch",
        "[5,2,4]_5 gdrs: 2 distinct weight-(d-1) classes"]


def test_criterion_4_conic_censuses(desk):
    result = _run(desk, 4)
    assert result.passed, "\n".join(result.lines)


def test_criterion_4_names_each_census_the_formulas_miss(desk, monkeypatch):
    # the conic formulas at q = 7 put one more point on 3 bisecants
    _changed_for(monkeypatch, "conic_census_formulas", (7,),
                 lambda classes: classes[:-1] + ((classes[-1][0], classes[-1][1] + 1),))
    result = CRITERIA[4][1](desk)
    assert not result.passed
    assert result.lines[1] == "conic q=7: ((4, 21), (3, 28))"
    assert result.lines[-1] == "conic q=7: census ((4, 21), (3, 28)) != formulas ((4, 21), (3, 29))"
    assert len(result.lines) == 13  # 12 arcs checked, one refuted


def test_criterion_5_symmetry(desk):
    result = _run(desk, 5)
    assert result.passed, "\n".join(result.lines)


def test_criterion_5_names_each_pair_whose_defects_differ(desk, monkeypatch):
    # the defects of [5,2,4]_5's two weight-2 classes, the one pair of a
    # q = 5 code of length 5 and the frozen instance, reported unmatched
    fn = verify.symmetry_defect

    def unmatched(dist_a, dist_b, n, d):
        rep = fn(dist_a, dist_b, n, d)
        if (n, d, dist_a.total()) == (5, 4, 25):
            rep = dataclasses.replace(rep, matched=False)
        return rep
    monkeypatch.setattr(verify, "symmetry_defect", unmatched)
    result = CRITERIA[5][1](desk)
    assert not result.passed
    assert result.lines == [
        "285 class pairs compared",
        "[5,2,4]_5 gdrs: defect mismatch between B=(0, 0, 1, 7, 8, 9) and B=(0, 0, 2, 4, 11, 8)",
        "[5,2,4]_5 weight-2 pair: expected matched defect -10 at w=5"]


def test_criterion_6_aggregate(desk):
    result = _run(desk, 6)
    assert result.passed, "\n".join(result.lines)


def test_criterion_6_names_each_aggregate_off_its_formula(desk, monkeypatch):
    _changed_for(monkeypatch, "weight2_aggregate", (6, 5, 5), lambda total: total + 1)
    result = CRITERIA[6][1](desk)
    assert not result.passed
    assert result.lines == [
        "32 codes with d >= 5 checked; (6,5,5) -> 241",
        "[6,2,5]_5 gdrs: aggregate 240 != 241",
        "(6,5,5) aggregate formula gave 241, expected 240"]


def test_criterion_7_covering_certificates(desk):
    lines, bad = covering_certificates(desk)
    print("criterion 7 (certificates):", "PASS" if not bad else "FAIL")
    for line in lines + bad:
        print("   ", line)
    assert not bad, "\n".join(bad)


def test_criterion_7_names_each_certificate_the_census_breaks(desk, monkeypatch):
    # every classification reads one more minimum multiplicity mu and a
    # mu-density one higher
    fn = verify.mcf_classify

    def shifted(code):
        rep = fn(code)
        return dataclasses.replace(rep, mu=rep.mu + 1, mu_density=rep.mu_density + 1)
    monkeypatch.setattr(verify, "mcf_classify", shifted)
    lines, bad = covering_certificates(desk)
    assert lines[:2] == ["[5,2,4]_5: R=3 mu=11 APMCF=True", "[6,3,4]_4 gtrs: R=2 mu=4 PMCF=True"]
    assert bad[:2] == [
        "[5,2,4]_5: expected a (3,10)-APMCF certificate, got McfReport(n=5, k=2, q=5, "
        "d=4, R=3, mu=11, is_apmcf=True, is_pmcf=False, mu_density=Fraction(2, 1), "
        "deep_hole_coset_count=4, farthest_profile=((10, 4),))",
        "[6,3,4]_4 gtrs: expected a (2,3)-PMCF certificate, got McfReport(n=6, k=3, q=4, "
        "d=4, R=2, mu=4, is_apmcf=True, is_pmcf=True, mu_density=Fraction(2, 1), "
        "deep_hole_coset_count=45, farthest_profile=((3, 45),))"]
    # gamma_mu is 1+1/q on each [q+1,q-2,4]_q, with mu = 2 at q = 5: the
    # closed form C(6,2)(q-1)^2 / (mu (q^3-1-6(q-1))) = 240/(100 mu) reads
    # 4/5 at mu = 3
    assert lines[2:] == [f"[{q + 1},{q - 2},4]_{q}: gamma_mu = {2 + Fraction(1, q)}"
                         for q in (5, 7, 9, 11)]
    assert bad[2:] == [line for q in (5, 7, 9, 11) for line in (
        f"[{q + 1},{q - 2},4]_{q}: gamma_mu {2 + Fraction(1, q)} != 1+1/{q}",
        f"[{q + 1},{q - 2},4]_{q}: closed form {Fraction(q - 1, q)} "
        f"!= census {2 + Fraction(1, q)}")]


def test_criterion_7_deep_hole_counts(desk):
    lines, bad = deep_hole_equality(desk)
    print("criterion 7 (deep-hole counts):", "PASS" if not bad else "FAIL")
    for line in lines + bad:
        print("   ", line)
    assert not bad, (
        "the exhaustive censuses refute the (q-1)*Delta deep-hole count on "
        "these removal codes (see the decisions ledger for the analysis):\n"
        + "\n".join(bad))


# the desk outcome the benchmark is checked against: a digest of each
# census's classes and each refuted (q-1)*Delta count
DESK_PINS = Path(__file__).resolve().parents[1] / "perfbench" / "desk_pins.json"
REFUTATION = re.compile(r"(?P<label>.+) \(Delta=\d+, parent R=\d+\): census counts "
                        r"(?P<census>\d+) weight-\d+ cosets, formula says (?P<formula>\d+)")


def test_desk_reproduces_the_pinned_digests_and_refutations(desk):
    pins = json.loads(DESK_PINS.read_text())
    digests = {}
    for entry in desk.entries:
        text = ";".join(f"{c.weight}:{c.count}:{','.join(map(str, c.distribution.counts))}"
                        for c in desk.census(entry).classes)
        digests[entry.label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == pins["census"] and len(digests) == 89
    matches = [REFUTATION.fullmatch(line) for line in deep_hole_equality(desk)[1]]
    assert None not in matches
    assert sorted([m["label"], int(m["census"]), int(m["formula"])] for m in matches) \
        == pins["criterion_7_refutations"] and len(matches) == 27


def test_criterion_8_structural(desk):
    result = _run(desk, 8)
    assert result.passed, "\n".join(result.lines)


def test_criterion_8_names_each_broken_invariant(desk, monkeypatch):
    # [5,2,4]_5's zero coset counts two weight-0 vectors, its code one
    # fewer weight-5 codeword, and one weight-1 row is read as weight 2
    def broken(census):
        zero = census.classes[0]
        census.classes[0] = dataclasses.replace(zero, distribution=_raised(zero.distribution, 0))
        census.table = census.table.astype(np.int64)
        census.table[0, 5] = 0
        census.weights = census.weights.copy()
        census.weights[1] = 2
    _doctor_censuses(monkeypatch, {"[5,2,4]_5 gdrs": broken})
    result = CRITERIA[8][1](desk)
    assert not result.passed
    assert result.lines == [
        "89 codes checked",
        "[5,2,4]_5 gdrs: class total 26 != q^k",
        "[5,2,4]_5 gdrs: s(C) = 1 != k = 2",
        "[5,2,4]_5 gdrs: weight-0 coset leader not unique",
        "[5,2,4]_5 gdrs: 16 weight-1 cosets, expected 20"]


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
        memo, apart_memo = ((c.min_distance(), c.covering_radius(), c.leader_profile(),
                             c.weight2_prefixes()) for c in (parent, apart))
        assert memo == apart_memo and memo[0] == d


def test_one_sort_per_census(monkeypatch):
    # a code's memo is the classes of its certifying census, so a
    # certification sorts the census rows once (twice more when the memo
    # sorted for its leader profile and weight-2 prefixes), and the
    # corpus with every census's classes read sorts once per census: 89
    # corpus codes and 8 parents
    sorts = []
    lexsort = np.lexsort

    def counted(keys, *args, **kwargs):
        sorts.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    build_code(field_of_order(11), "gdrs", 5)
    assert len(sorts) == 1
    sorts.clear()
    cache = DeskCache()
    for entry in cache.entries:
        cache.census(entry).classes
    assert (len(cache.entries), len(sorts)) == (89, 97)


def test_desk_chains_build_one_family_matrix_each(monkeypatch):
    # each chain builds its full-length code once and takes every shorter
    # code's matrix as its first n columns: 24 family codes and 23 gdrs
    # matrices (the gtrs chain builds its own), where building each code
    # apart took 97 and 96; each of the 97 codes still checks its rank
    calls = Counter()
    for module, name in ((verify, "_family_code"), (mds, "gdrs_parity"), (codes, "_rref")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cache = DeskCache()
    assert len(cache.entries) == 89
    assert calls == {"_family_code": 24, "gdrs_parity": 23, "_rref": 97}


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
