"""Desk-corpus acceptance run: one test per verification criterion.

The shared `desk` fixture builds every corpus code's census once per
session; each test prints its criterion's pass/fail line plus details.

Criterion 7 is split: the covering certificates hold, but the deep-hole
count equality is refuted by the exhaustive censuses themselves on deep
column removals (smallest counterexample [5,1,5]_5: 24 weight-4 cosets
where the formula predicts 4).  That test fails by design rather than
weakening the claimed equality; its failure message lists the counterexamples.
"""

import copy
import dataclasses
import hashlib
import json
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mdscosets import codes, gf, mds, verify
from mdscosets.codes import WeightDistribution, census_rows
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code
from mdscosets.verify import (CRITERIA, DESK_DS, CorpusEntry, DeskCache, aggregate_failures,
                              closed_form_failures, covering_certificates, deep_hole_equality,
                              rebuild_failures, run_acceptance, structural_failures,
                              symmetry_failures)
from automorphisms import maps_keeping, mismatched_rows
from class_rows import rows_of
from dual_census import dual_table


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
        edited.classes = list(real.classes)  # a list of its own to edit
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


def test_criterion_2_names_the_first_differing_row_entry(desk, monkeypatch):
    # shift column v = 1 by +1 at w = d-1 and -1 at w = d: every total
    # holds, so only the row comparison sees it, at its first entry
    def shifted(known, cols):
        col = (cols[1][0] + 1, cols[1][1] - 1) + cols[1][2:]
        return known, cols[:1] + (col,) + cols[2:]
    _break_double_sum_rows(monkeypatch, shifted)
    result = CRITERIA[2][1](desk)
    assert not result.passed
    assert result.lines == [
        "952 (n, d, q) tuples, n-d+2 q for each 3 <= d <= n <= 18: rows differ on 1",
        "(n,d,q)=(12,6,13): coefficient of B_1 at w=5: double sum -329, single sum -330"]


def test_criterion_2_names_a_differing_k_entry(desk, monkeypatch):
    def raised(known, cols):
        return known[:2] + (known[2] + 1,) + known[3:], cols
    _break_double_sum_rows(monkeypatch, raised)
    result = CRITERIA[2][1](desk)
    assert not result.passed
    assert result.lines[1:] == [
        "(n,d,q)=(12,6,13): K at w=7: double sum 78409, single sum 78408"]


def test_criterion_2_reads_no_census():
    class Unread:  # nor the corpus, nor anything else of its cache: its tuples are fixed
        def __getattr__(self, name):
            raise AssertionError(f"criterion 2 read the cache's {name}")
    result = CRITERIA[2][1](Unread())
    assert result.passed and len(result.lines) == 1
    assert result.lines[0].startswith("952 (n, d, q) tuples, n-d+2 q for each ")


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
    assert result.lines[2] == "conic q=7: ((4, 21), (3, 28))"
    assert result.lines[-1] == "conic q=7: census ((4, 21), (3, 28)) != formulas ((4, 21), (3, 29))"
    assert len(result.lines) == 19  # 18 arcs checked, one refuted


def test_criterion_5_symmetry(desk):
    result = _run(desk, 5)
    assert result.passed, "\n".join(result.lines)


def test_criterion_5_names_each_pair_whose_defects_differ(desk, monkeypatch):
    # the defects of [5,2,4]_5's two weight-2 classes, the one pair of a
    # q = 5 code of length 5 and the frozen instance, reported unmatched
    fn = verify.symmetry_defect

    def unmatched(dist_a, dist_b, d):
        rep = fn(dist_a, dist_b, d)
        if (dist_a.n, d, dist_a.total()) == (5, 4, 25):
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


def test_criterion_7_reports_a_count_below_the_lower_bound(monkeypatch):
    # the even-q conic parent [5,2,4]_4 has R = 3 != d-2, so [4,1,4]_4's
    # 6 weight-3 cosets need only reach (q-1)*Delta = 3; its report,
    # doctored to count 2, misses that bound, and the criterion says so
    cache = DeskCache(qs=(4,), ds=(4,))
    entry = next(e for e in cache.entries if e.delta == 1)
    _changed_for(monkeypatch, "count_deep_hole_cosets", (entry.code, entry.construction, 3),
                 lambda rep: dataclasses.replace(rep, count=2))
    assert deep_hole_equality(cache)[1] == ["[4,1,4]_4 gdrs: deep-hole count 2 below bound 3"]


def test_criterion_2_names_row_sets_that_differ_only_in_shape():
    double = ([1, 2], [[0, 1]])
    assert verify._first_difference(3, double, ([1, 2, 3], [[0, 1]])) == "row shapes differ"
    assert verify._first_difference(3, double, ([1, 5], [[0, 1]])) == (
        "K at w=3: double sum 2, single sum 5")


@pytest.mark.parametrize("which", [0, 1])
def test_criterion_5_reads_the_defects_of_both_frozen_classes(desk, monkeypatch, which):
    # the frozen instance compares [5,2,4]_5's two weight-2 classes, not
    # one class with itself: a w = 5 defect doctored on either is reported
    fn = verify.symmetry_defect
    doctored = desk.census(desk.code(5, 4, 5)).classes_of_weight(2)[which].distribution

    def shifted(dist_a, dist_b, d):
        rep = fn(dist_a, dist_b, d)
        return dataclasses.replace(rep, pairs=tuple(
            (w, da + (w == 5 and dist_a == doctored), db + (w == 5 and dist_b == doctored))
            for w, da, db in rep.pairs))
    monkeypatch.setattr(verify, "symmetry_defect", shifted)
    assert CRITERIA[5][1](desk).lines == [
        "285 class pairs compared", "[5,2,4]_5 weight-2 pair: expected matched defect -10 at w=5"]


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
    # [5,2,4]_5's zero coset counts two weight-0 vectors and no weight-5
    # codeword, and its weight-1 class loses the q - 1 = 4 cosets of a point
    def broken(census):
        zero, one = census.classes[:2]
        census.classes[0] = dataclasses.replace(
            zero, distribution=_raised(_raised(zero.distribution, 0), 5, -zero.distribution.counts[5]))
        census.classes[1] = dataclasses.replace(one, count=one.count - 4)
    _doctor_censuses(monkeypatch, {"[5,2,4]_5 gdrs": broken})
    result = CRITERIA[8][1](desk)
    assert not result.passed
    assert result.lines == [
        "89 codes checked",
        "[5,2,4]_5 gdrs: class total 22 != q^k",
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
    # The 10 corpus codes form 4 chains, one run each; the survey reads
    # [6,2,5]_5's memo, criterion 7's certificates read [5,2,4]_5 and
    # [6,3,4]_5 from theirs, and the certificates at other q, once 4 runs
    # more, are not read
    results = run_acceptance(DeskCache(qs=(5,)))
    runs = [(code.field.q, tuple(map(tuple, code.H.tolist())), wmax)
            for code, wmax, _ in kernel_runs]
    assert [r.passed for r in results] == [True] * 6 + [False, True, True]
    assert len(runs) == 4
    assert len(set(runs)) == len(runs)  # no (code, wmax) pair runs twice
    assert {q for q, _, _ in runs} == {5}


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
                      for col in code.H.T if col.any()]
    assert all(e.code.min_distance() == e.d for e in cache.entries)
    assert [code.n for code in ridden if code.n > 9] == [10] * 4 + [12] * 4
    assert all(code.min_distance() == code.r + 1 for code in ridden)
    assert (len(kernel_runs), len(orders)) == (24, 201)


def test_full_verify_runs_the_kernel_once_per_chain(kernel_runs):
    # criterion 7 reads the q = 9 and 11 parents from the memos their
    # chain runs left, and the survey reads every code's weight-2 rows
    # from its memo: a full verify runs the kernel 24
    # times, where certifying the parents apart took 8 more runs and the
    # survey 5 more
    results = run_acceptance(DeskCache())
    runs = [(code.field.q, tuple(map(tuple, code.H.tolist())), wmax)
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
    # code's matrix as its first n columns: 24 family codes, each from one
    # set of doubly-extended rows (the gtrs code adds its nucleus), where
    # building each code apart took 97; each of the 97 codes still checks
    # its rank, and is certified once, the 8 ridden parents included
    calls = Counter()
    for module, name in ((mds, "_family_code"), (mds, "_family_rows"), (codes, "_rank"),
                         (mds, "_certify")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cache = DeskCache()
    assert len(cache.entries) == 89
    assert calls == {"_family_code": 24, "_family_rows": 24, "_rank": 97, "_certify": 97}


def test_desk_cache_certifies_each_code_as_it_builds_it(desk, monkeypatch):
    # each corpus code and each ridden q = 9 and 11 parent is certified
    # from its census as the chain run builds it, so handing one out
    # builds, certifies and counts nothing, and its memo is already there
    def too_late(*args, **kwargs):
        raise AssertionError("built, certified or counted after the cache was built")

    for module, name in ((verify, "_run_plan"), (mds, "_certify"),
                         (codes, "_syndrome_trellis")):
        monkeypatch.setattr(module, name, too_late)
    for entry in desk.entries:
        assert desk.code(entry.q, entry.d, entry.n, entry.family) is entry.code
        assert entry.code.min_distance() == entry.d
    for q in (9, 11):
        for d in DESK_DS:
            parent = desk.code(q, d)
            assert (parent.n, parent.min_distance()) == (q + 1, d)


def test_survey_reads_the_memo_the_parent_ride_left(kernel_runs):
    # the q = 11, d = 5 chain stops at [11,7,5]_11 and its run goes on to
    # [12,8,5]_11, so the parent is certified from the memo that run left;
    # criterion 9 reads the same memo and runs no kernel itself
    cache = DeskCache(qs=(11,), ds=(5,))
    kernel_runs.clear()
    assert cache.code(11, 5).min_distance() == 5
    assert run_acceptance(cache, [9])[0].lines == [
        "q=11 d=5: confirmed (B_(d-2) values [12], predicted 12); empirical, not asserted"]
    assert kernel_runs == []


def test_a_survey_parent_over_the_budget_is_reported_and_never_built(kernel_runs):
    # gcd(63, 4) = 1, so [65,60,6]_64 would be surveyed, but certifying
    # it needs 65*5*(1+(64^5-1)/63) steps; no chain reaches it, so
    # cache.code charges it when criterion 9 asks for it, from the
    # numbers, before any build, and criterion 9 reports the refusal
    cache = DeskCache(qs=(64,), ds=(6,))
    assert run_acceptance(cache, [9])[0].lines == [
        "q=64 d=6: not surveyed: syndrome trellis needs 5539144650 steps "
        "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 200000000; "
        "empirical, not asserted"]
    assert kernel_runs == [] and cache.entries == []


# codes past the desk's size limit, each checked on its full census by
# the functions criteria 1, 3, 5, 6 and 8 map over the corpus: the
# length-14 codes at q = 13, at q = 16 the length 15, the longest whose
# 16^n vectors fit int64, and the full-length codes at q = 16 and 17
# whose counts fit int64 (q^k < 2^63), though their q^n vectors do not
@pytest.mark.parametrize("q, family, d, n, checked", [
    (13, "gdrs", 4, 14, (4, 1, 1, 0, 1)),
    (13, "gdrs", 5, 14, (6, 1, 2, 1, 1)),
    (13, "gdrs", 6, 14, (23, 1, 13, 1, 1)),
    (16, "gdrs", 4, 15, (5, 1, 1, 0, 1)),
    (16, "gdrs", 5, 15, (15, 1, 39, 1, 1)),
    (16, "gdrs", 3, 17, (2, 1, 0, 0, 1)),
    (16, "gtrs", 4, 18, (3, 1, 0, 0, 1)),
    (16, "gdrs", 4, 17, (4, 1, 0, 0, 1)),
    (16, "gdrs", 5, 17, (6, 1, 2, 1, 1)),
    (16, "gdrs", 6, 17, (14, 1, 3, 1, 1)),
    (17, "gdrs", 4, 18, (4, 1, 1, 0, 1)),
    (17, "gdrs", 5, 18, (6, 1, 3, 1, 1)),
    (17, "gdrs", 6, 18, (29, 1, 9, 1, 1)),
], ids=["14-11-4_13", "14-10-5_13", "14-9-6_13", "15-12-4_16", "15-11-5_16",
        "17-15-3_16", "18-15-4_16-gtrs", "17-14-4_16", "17-13-5_16", "17-12-6_16",
        "18-15-4_17", "18-14-5_17", "18-13-6_17"])
def test_the_theorem_checks_hold_past_the_desk(q, family, d, n, checked):
    code, _ = build_code(field_of_order(q), family, d, n)
    census = codes.coset_census(code)
    results = [check(census) for check in (rebuild_failures, closed_form_failures,
                                           symmetry_failures, aggregate_failures,
                                           structural_failures)]
    assert results == [(count, []) for count in checked]
    # and keeps every coset's class under each automorphism of its length
    # (tests/automorphisms.py): shift is no map of the length-15 codes at q = 16
    maps = maps_keeping(code.field, n)
    assert len(maps) == (3 if n == q - 1 else 4)
    for name, mapping in maps.items():
        assert not mismatched_rows(census, mapping).size, name


def test_a_census_past_int64_vectors_is_the_dual_census():
    # full-length codes whose q^n vectors pass int64: [17,14,4]_16 with
    # entries up to about 2^55, and three whose entries reach 2^59 or
    # 2^60, below q^k < 2^63, though their line sums may pass 2^63 and
    # wrap; each coset's row is the MacWilliams census's
    for q, family, d, rows, bits in ((16, "gdrs", 4, 274, 55), (16, "gdrs", 3, 18, 59),
                                     (16, "gtrs", 4, 274, 59), (17, "gdrs", 4, 308, 60)):
        code, _ = build_code(field_of_order(q), family, d)
        census = codes.coset_census(code)
        dual = dual_table(code)
        assert len(dual) == census_rows(q, d - 1) == rows
        for svec, row in dual.items():
            assert census.distribution_of_syndrome(svec).counts == tuple(row), (q, family, svec)
        assert max(max(row) for row in dual.values()).bit_length() == bits


def test_the_corpus_fits_the_default_budget_under_any_filter(monkeypatch):
    # the chain runs the corpus lays out for every prime power q < 600 and
    # every d: each run, at wmax = n of the chain's longest corpus code
    # and on to the full-length parent where the size limit cuts the
    # chain short, fits the default budget, so no --q or --d filter meets
    # a refusal; past q = 584, q^3 > 2*10^8 and the corpus is empty
    chains = []
    monkeypatch.setattr(verify, "_run_plan", lambda runs, budget: chains.extend(runs) or [])
    for q in range(2, 600):
        if len(gf._factorize(q)) == 1:
            DeskCache(qs=(q,), ds=range(3, q + 2))
    for run in chains:
        run.charge(codes.DEFAULT_BUDGET)
        # the full census of each corpus code
        assert run.wmax == max(run.lengths, default=run.recipe.n)
    rides = sum(run.wmax < run.recipe.n for run in chains)
    assert (len(chains), rides, max(run.recipe.q for run in chains)) == (205, 181, 577)


def test_each_desk_entry_is_its_recipes_code():
    # every entry's recipe is the one _family_layout lays out, and it keys
    # the cache's own code
    cache = DeskCache()
    for e in cache.entries:
        assert e.construction == mds._family_layout(e.q, e.family, e.d, e.n, ())
        assert cache.code(e.q, e.d, e.n, e.family) is e.code


def test_a_corpus_filter_past_the_size_limit_builds_nothing(monkeypatch):
    # 4096^3 > 2*10^8: the corpus at q = 4096 is empty, and the cache
    # sees that from the powers of q up to the limit, building no code
    monkeypatch.setattr(mds, "_family_code", lambda *args: pytest.fail("built a code"))
    start = time.perf_counter()
    cache = DeskCache(qs=(4096,))
    assert time.perf_counter() - start < 1
    assert cache.entries == []


def test_a_design_distance_below_3_is_refused_where_no_d_has_a_corpus_code(monkeypatch):
    # under a limit of 10, 5^2 already passes it, so no d has a corpus
    # code at q = 5; d = 2 is still refused, not read as an empty filter
    monkeypatch.setattr(verify, "DESK_AMBIENT_LIMIT", 10)
    assert DeskCache(qs=(5,), ds=(3,)).entries == []
    with pytest.raises(ValueError) as err:
        DeskCache(qs=(5,), ds=(2,))
    assert str(err.value) == "need 3 <= d <= n, got d=2, n=6"


def test_each_chain_snapshot_is_its_prefix_codes_own_run(desk):
    # each corpus code's census is a snapshot of its chain's one run; it
    # is the table a run of the code alone gives, entry for entry
    for entry in desk.entries:
        code = codes.LinearCode(entry.code.field, entry.code.H)
        alone = next(codes._syndrome_trellis(code, entry.n, [entry.n]))
        table = rows_of(desk.census(entry)).table
        assert table.shape == alone.shape and np.array_equal(table, alone), entry.label


def test_desk_cache_builds_the_code_it_is_asked_for():
    # a code of the run's q and d is the cache's own or built once; a
    # code of any other q or d is None, whatever its family or length
    cache = DeskCache(qs=(4,), ds=(3, 4, 5))
    with pytest.raises(ValueError, match="the triply-extended family has d = 4"):
        cache.code(4, 5, family="gtrs")
    short = cache.code(4, 4, n=5, family="gtrs")
    assert (short.n, short.k, short.min_distance()) == (5, 2, 4)
    assert cache.code(4, 4, n=5, family="gtrs") is short
    assert cache.code(4, 4, family="gtrs") is next(
        e.code for e in cache.entries if e.family == "gtrs")
    with pytest.raises(ValueError, match="n=7"):
        cache.code(4, 4, n=7, family="gtrs")
    assert cache.code(4, 3, n=4).n == 4
    with pytest.raises(ValueError, match="unknown family 'grs'"):
        cache.code(4, 3, family="grs")
    for q, d, family in ((5, 4, "gdrs"), (8, 4, "gtrs"), (4, 6, "gdrs"), (4, 6, "grs")):
        assert cache.code(q, d, family=family) is None, (q, d, family)


def test_desk_cache_keeps_each_q_and_d_once():
    # a repeated filter lays out each chain once, three entries for
    # three codes where six were laid out, and criterion 4 walks each
    # arc once
    cache = DeskCache(qs=(5, 5), ds=(4, 4))
    assert (cache.qs, cache.ds) == ((5,), (4,))
    assert [e.label for e in cache.entries] == ["[4,1,4]_5 gdrs", "[5,2,4]_5 gdrs",
                                                "[6,3,4]_5 gdrs"]
    assert run_acceptance(cache, [4])[0].lines == [
        "conic q=5: ((3, 10), (2, 15))",
        "shortened conic q=5: ((2, 15), (1, 10), (0, 1))",
        "double-shortened conic q=5: ((2, 3), (1, 18), (0, 6))"]
    # a value equal to another of another type is no repeat, but refused
    for qs, ds, text in (((5, 5.0), (4,), "q must be an int, got 5.0"),
                         ((5,), (4, 4.0), "d must be an int, got 4.0")):
        with pytest.raises(ValueError, match=text):
            DeskCache(qs=qs, ds=ds)


@pytest.mark.parametrize("qs, ds, text", [
    ((65536,), (4.0,), "d must be an int, got 4.0"),  # no chain fits: once refused nothing
    ((4096,), ("x",), "d must be an int, got 'x'"),   # once a TypeError from d <= top
    ((5,), (4, 4.0), "d must be an int, got 4.0"),
], ids=["no-chain", "str", "after-an-int"])
def test_desk_cache_refuses_a_d_that_is_no_int_before_any_layout(monkeypatch, qs, ds, text):
    monkeypatch.setattr(verify, "_family_layout", lambda *args: pytest.fail("laid out"))
    monkeypatch.setattr(gf.GF, "_build_tables", lambda self: pytest.fail("built a field"))
    with pytest.raises(ValueError) as err:
        DeskCache(qs=qs, ds=ds)
    assert str(err.value) == text


@pytest.mark.parametrize("numbers, text", [
    ([10], "numbers[0] = 10 names no criterion 1..9"),  # once a KeyError
    ([0], "numbers[0] = 0 names no criterion 1..9"),
    ([1, 10], "numbers[1] = 10 names no criterion 1..9"),  # criterion 1 does not run first
    (5, "numbers must be a sequence of criterion numbers, got 5"),  # once a TypeError
    ([2.0], "numbers[0] must be an int, got 2.0"),  # once ran criterion 2
    ([True], "numbers[0] must be an int, got True"),  # once ran criterion 1
], ids=["10", "0", "1-then-10", "no-sequence", "float", "bool"])
def test_run_acceptance_refuses_a_number_before_any_criterion_runs(monkeypatch, numbers,
                                                                   text):
    cache = DeskCache(qs=(65536,))
    monkeypatch.setattr(verify, "CRITERIA", {num: (name, lambda cache: pytest.fail("ran"))
                                             for num, (name, _) in CRITERIA.items()})
    with pytest.raises(ValueError) as err:
        run_acceptance(cache, numbers)
    assert str(err.value) == text


def test_desk_cache_hands_out_only_corpus_censuses(desk):
    # census looks a corpus census up and counts nothing: a code outside
    # the corpus, as criterion 7's [10,7,4]_8 gtrs, has none
    outside = desk.code(8, 4, family="gtrs")
    assert outside.n == 10 and all(e.code is not outside for e in desk.entries)
    with pytest.raises(KeyError):
        desk.census(outside)
