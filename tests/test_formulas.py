import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mdscosets import codes, formulas
from mdscosets.codes import coset_census
from mdscosets.combinat import binom, omega
from mdscosets.formulas import (InconsistentPrefixError, LowWeightPrefix,
                                _double_sum_rows, bonneau_original,
                                bonneau_transformed, dist_weight1,
                                dist_weight2, dist_weight_d1, dist_weight_d2,
                                dist_weight_mid, symmetry_defect,
                                weight2_aggregate, weight2_identical_check)
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code, check_mds_params, mds_weight_distribution
from reference_sums import bw_known_part
from sieve import prime_powers


def test_prefix_validation():
    with pytest.raises(ValueError, match="q >= 2, got q=1"):
        LowWeightPrefix(5, 4, 1, (0, 0, 1))
    with pytest.raises(ValueError, match="d <= n, got d=2"):
        LowWeightPrefix(6, 2, 5, (0,))
    with pytest.raises(ValueError, match="d <= n, got d=7, n=6"):
        LowWeightPrefix(6, 7, 5, (0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("n,counts,message", [
    (6, (0, 1), "prefix must list B_0..B_2 (3 values), got 2"),
    (6, (0, 1, 0, 0), "prefix must list B_0..B_2 (3 values), got 4"),
    (6, (0, -1, 0), "prefix counts must be non-negative"),
    (6, (2, 0, 0), "B_0 must be 0 or 1"),
    (8, (0, 0, 1), "no MDS parameters with n=8 > q+2=7"),
    (6, (True, 0, 0), "prefix count B_0 must be an integer, got True"),
    (6, (0, 1.0, 0), "prefix count B_1 must be an integer, got 1.0"),
    (6, (0, 0, "1"), "prefix count B_2 must be an integer, got '1'"),
], ids=["short", "long", "negative", "b0", "n-over-q+2", "bool", "float", "string"])
def test_prefix_refuses_each_rule(n, counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LowWeightPrefix(n, 4, 5, counts)


def test_prefix_is_a_value_whatever_sequence_gives_it():
    # a list prefix is stored as a tuple, so it hashes and equals the
    # tuple prefix; a tuple prefix keeps its own counts, no copy made
    counts = (0, 1, 0)
    as_tuple = LowWeightPrefix(6, 4, 5, counts)
    as_list = LowWeightPrefix(6, 4, 5, list(counts))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert type(as_list.counts) is tuple
    assert as_tuple.counts is counts


def test_bonneau_transformed_examples():
    assert bonneau_transformed(LowWeightPrefix(6, 4, 5, (0, 1, 0))).counts == \
        (0, 1, 0, 10, 35, 45, 34)
    # the zero coset reproduces the code's own distribution
    assert bonneau_transformed(LowWeightPrefix(6, 4, 5, (1, 0, 0))).counts == \
        mds_weight_distribution(6, 4, 5).counts
    assert bonneau_transformed(LowWeightPrefix(5, 4, 5, (0, 0, 2))).counts == \
        (0, 0, 2, 4, 11, 8)
    # numpy integers are counts too, read as Python ints: as int64 they
    # would overflow against the rows' big coefficients
    counts = (0, 0, 0, 5, 0, 0, 0, 0, 3)
    prefix = LowWeightPrefix(60, 10, 59, tuple(np.int64(c) for c in counts))
    assert all(type(c) is int for c in prefix.counts)
    assert bonneau_transformed(prefix, strict=False) == \
        bonneau_transformed(LowWeightPrefix(60, 10, 59, counts), strict=False)


def test_bonneau_totals_are_qk_even_for_unreal_prefixes():
    dist = bonneau_transformed(LowWeightPrefix(6, 4, 5, (0, 7, 3)), strict=False)
    assert dist.total() == 125


def test_inconsistent_prefix_reporting():
    bad = LowWeightPrefix(5, 4, 5, (0, 0, 50))
    with pytest.raises(InconsistentPrefixError):
        bonneau_transformed(bad)
    loose = bonneau_transformed(bad, strict=False)
    assert not loose.is_nonnegative()
    assert loose.total() == 25


def test_original_form_examples_and_term_check():
    for n, counts in [(6, (0, 1, 0)), (6, (1, 0, 0)), (5, (0, 0, 2))]:
        prefix = LowWeightPrefix(n, 4, 5, counts)
        assert bonneau_original(prefix) == bonneau_transformed(prefix)
    # the prefix-free part at (n,d,q,w)=(6,4,5,4) is A_4 - omega = 60 - 45
    assert bw_known_part(6, 4, 5, 4) == 15
    assert bw_known_part(6, 4, 5, 4) == \
        mds_weight_distribution(6, 4, 5).counts[4] - omega(6, 4, 4, 0)
    known, _ = _double_sum_rows(6, 4, 5)
    assert known[4 - 3] == 15  # rows start at w = d-1


def test_forms_agree_on_random_prefixes():
    rng = random.Random(7)
    for (n, d, q) in [(6, 4, 5), (8, 5, 7), (12, 6, 13)]:
        for _ in range(300):
            counts = [rng.randint(0, 1)] + [rng.randint(0, 30) for _ in range(d - 2)]
            prefix = LowWeightPrefix(n, d, q, tuple(counts))
            assert bonneau_original(prefix, strict=False) == \
                bonneau_transformed(prefix, strict=False)


def test_dist_weight1_examples():
    assert dist_weight1(6, 4, 5).counts == (0, 1, 0, 10, 35, 45, 34)
    assert dist_weight1(5, 4, 5).counts == (0, 1, 0, 4, 13, 7)
    d = dist_weight1(9, 5, 8)
    assert d.counts[3] == 0 and d.counts[2] == 0 and d.counts[1] == 1
    assert d.counts[4] == binom(8, 4)
    with pytest.raises(ValueError):
        dist_weight1(6, 2, 5)


def test_dist_weight1_is_a_prefix_specialization():
    for (n, d, q) in [(6, 4, 5), (7, 5, 7), (9, 6, 8)]:
        prefix = LowWeightPrefix(n, d, q, (0, 1) + (0,) * (d - 3))
        assert dist_weight1(n, d, q) == bonneau_transformed(prefix)


def test_dist_weight_d2_examples():
    assert dist_weight_d2(5, 4, 5, 2).counts == (0, 0, 2, 4, 11, 8)
    assert dist_weight_d2(5, 4, 5, 1).counts == (0, 0, 1, 7, 8, 9)
    assert dist_weight_d2(6, 4, 5, 3).counts == (0, 0, 3, 8, 33, 48, 33)
    with pytest.raises(ValueError):
        dist_weight_d2(5, 4, 5, 0)
    with pytest.raises(InconsistentPrefixError):
        dist_weight_d2(5, 4, 5, 40)


def test_dist_weight_d1_examples():
    assert dist_weight_d1(5, 4, 5).counts == (0, 0, 0, 10, 5, 10)
    # shortened-Hamming shape at d = 3: B_2 = C(n,2)
    d = dist_weight_d1(6, 3, 5)
    assert d.counts == (0, 0, 15, 40, 165, 240, 165)
    assert dist_weight_d1(9, 4, 8).counts[3] == binom(9, 3)


def test_dist_weight_d1_is_the_empty_prefix_specialization():
    for (n, d, q) in [(5, 4, 5), (6, 5, 5), (7, 4, 7)]:
        prefix = LowWeightPrefix(n, d, q, (0,) * (d - 1))
        assert dist_weight_d1(n, d, q) == bonneau_transformed(prefix)


def test_dist_weight2_examples():
    assert dist_weight2(6, 5, 5, 1).counts == (0, 0, 1, 1, 6, 11, 6)
    assert dist_weight2(6, 5, 5, 1).total() == 25
    # B_{d-2} = 0 is legal input; realizability shows up as non-negativity
    d0 = dist_weight2(6, 5, 5, 0, strict=False)
    assert d0.total() == 25
    with pytest.raises(ValueError):
        dist_weight2(6, 4, 5, 1)  # needs d >= 5
    # definition chase: at d = 5 the weight-2 formula is the (0,0,1,b) prefix
    for b in (0, 1, 2):
        assert dist_weight2(6, 5, 5, b, strict=False) == \
            bonneau_transformed(LowWeightPrefix(6, 5, 5, (0, 0, 1, b)), strict=False)


def test_dist_weight_mid_low_branch_matches_weight2():
    for b in (0, 1, 2):
        assert dist_weight_mid(6, 5, 5, 2, (b,)) == dist_weight2(6, 5, 5, b)


def test_dist_weight_mid_high_branch_matches_census():
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 6, n=7)  # [7,2,6]_7
    census = coset_census(code)
    checked = 0
    for cls in census.classes_of_weight(3):
        knowns = cls.distribution.counts[3:5]  # B_3, B_4
        assert dist_weight_mid(7, 6, 7, 3, knowns) == cls.distribution
        checked += 1
    assert checked >= 2


def test_dist_weight_mid_low_branch_matches_census():
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 5, n=7)  # [7,3,5]_7, t = 2
    census = coset_census(code)
    for cls in census.classes_of_weight(2):
        knowns = (cls.distribution.counts[3],)
        assert dist_weight_mid(7, 5, 7, 2, knowns) == cls.distribution


def test_dist_weight_mid_range_errors():
    with pytest.raises(ValueError, match="outside"):
        dist_weight_mid(7, 5, 7, 3, (1, 1))   # 3 > floor((5-1)/2), and no high branch at d=5
    with pytest.raises(ValueError, match="outside"):
        dist_weight_mid(6, 4, 5, 2, (1,))     # d = 4 has no mid range
    with pytest.raises(ValueError):
        dist_weight_mid(6, 5, 5, 2, (1, 2))   # wrong number of knowns


@pytest.mark.parametrize("strict", [True, False])
def test_dist_weight_mid_refuses_a_negative_known_before_any_row(monkeypatch, strict):
    # B_5 = -5 is an input, not a computed count: a usage error in either
    # mode, raised before the rows are charged or built; so is a B_5 that
    # is no integer, which int() would have read as 2 or 3
    def no_rows(n, d, q):
        raise AssertionError("rows were built")
    monkeypatch.setattr(formulas, "_single_sum_rows", no_rows)
    for known, message in [(-5, "mid-weight knowns must be non-negative"),
                           (2.7, "mid-weight known B_5 must be an integer, got 2.7"),
                           ("3", "mid-weight known B_5 must be an integer, got '3'"),
                           (True, "mid-weight known B_5 must be an integer, got True")]:
        with pytest.raises(ValueError) as err:
            dist_weight_mid(10, 7, 9, 2, [known], strict=strict)
        assert type(err.value) is ValueError
        assert str(err.value) == message


def _code(budget=codes.DEFAULT_BUDGET):
    """[5,2,4]_5 under `budget`."""
    return codes.LinearCode(field_of_order(5), build_code(field_of_order(5), "gdrs", 4,
                                                          n=5)[0].H, budget)


@pytest.mark.parametrize("call, text", [
    (lambda: codes.low_weight_census(_code(), True), "wmax must be an int, got True"),
    (lambda: codes.low_weight_census(_code(), "2"), "wmax must be an int, got '2'"),
    (lambda: codes.low_weight_census(_code(), 2.0), "wmax must be an int, got 2.0"),
    (lambda: codes.low_weight_census(_code(budget=1), "2"), "wmax must be an int, got '2'"),
    (lambda: dist_weight_mid(7, 5, 7, 2.0, [1]), "W must be an int, got 2.0"),
    (lambda: dist_weight_mid(7, 5, 7, "2", [1]), "W must be an int, got '2'"),
    (lambda: dist_weight_mid(7, 5, 7, 2, 5), "mid-weight knowns must be a sequence of "
     "integers, got 5"),
    (lambda: dist_weight_mid(7, 5, 7, 2.0, 5), "W must be an int, got 2.0"),
    (lambda: dist_weight_mid(7, 8, 7, "2", 5), "need 3 <= d <= n, got d=8, n=7"),
    (lambda: dist_weight_mid(10**6, 5, 10**6, "2", [1]), "W must be an int, got '2'"),
    (lambda: LowWeightPrefix(5, 4, 5, 5), "prefix counts must be a sequence of integers, "
     "got 5"),
    (lambda: LowWeightPrefix(5, 6, 5, 5), "need 3 <= d <= n, got d=6, n=5"),
], ids=["wmax-bool", "wmax-str", "wmax-float", "wmax-before-charge", "W-float", "W-str",
        "knowns-int", "W-before-knowns", "params-before-W", "W-before-charge",
        "prefix-int", "params-before-prefix"])
def test_a_public_input_of_the_wrong_kind_is_refused_by_name_in_order(call, text):
    # through the one int rule, or as no sequence of counts: the
    # parameters first, then the form's own arguments, then the charge
    # (the rows at n = q = 10^6 and the census at budget 1 would be refused)
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == text


def test_symmetry_defect_instance():
    a = dist_weight_d2(5, 4, 5, 2)
    b = dist_weight_d2(5, 4, 5, 1)
    rep = symmetry_defect(a, b, 4)
    assert rep.comparable and rep.matched
    w5 = next(p for p in rep.pairs if p[0] == 5)
    assert w5 == (5, -10, -10)
    # identical distributions are trivially matched
    rep2 = symmetry_defect(a, a, 4)
    assert rep2.matched
    # a weight-1 class is not comparable to a weight-2 class
    rep3 = symmetry_defect(dist_weight1(5, 4, 5), a, 4)
    assert not rep3.comparable and not rep3.matched


def test_closed_forms_refuse_a_design_distance_or_b_low_out_of_range(monkeypatch):
    refusals = [
        (lambda: dist_weight_d2(6, 3, 5, 1), "need d >= 4, got 3"),
        (lambda: dist_weight_d2(6, 4, 5, 0), "a weight-(d-2) coset has B_{d-2} >= 1"),
        (lambda: dist_weight_d1(6, 2, 5), "need 3 <= d <= n, got d=2, n=6"),
        (lambda: dist_weight2(6, 4, 5, 1), "need d >= 5, got 4"),
        (lambda: dist_weight2(6, 5, 5, -1), "B_{d-2} must be non-negative"),
        (lambda: weight2_identical_check(6, 4, 5), "need d >= 5, got 4"),
        (lambda: symmetry_defect(dist_weight_d2(5, 4, 5, 1), dist_weight_d2(6, 4, 5, 2), 4),
         "distribution lengths differ: 5 and 6"),
    ]
    # the two weight-2 cosets of [6,3,4]_5 under a d outside 3..6: the
    # caller's error, not a report (d = 2 read as comparable, d = 7 > n)
    # nor a broken invariant (d <= 1 put a mirror weight below 0)
    a, b = dist_weight_d2(6, 4, 5, 2), dist_weight_d2(6, 4, 5, 3)
    refusals += [(lambda d=d: symmetry_defect(a, b, d), f"need 3 <= d <= n, got d={d}, n=6")
                 for d in (-1, 0, 1, 2, 7)]
    # a d that is no int is named by the int rule of check_mds_params,
    # before the lengths are compared; n is read from the distributions
    refusals += [(lambda: symmetry_defect(a, dist_weight1(5, 4, 5), 4.0),
                  "d must be an int, got 4.0"),
                 (lambda: symmetry_defect(a, b, True), "d must be an int, got True"),
                 (lambda: symmetry_defect(a, b, np.int64(4)),
                  f"d must be an int, got {np.int64(4)!r}")]
    for call, message in refusals:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # a B_{d-2} that is no integer is refused before any row is built
    def no_rows(n, d, q):
        raise AssertionError("rows were built")
    monkeypatch.setattr(formulas, "_single_sum_rows", no_rows)
    for call, value in [(dist_weight_d2, 2.0), (dist_weight_d2, True), (dist_weight2, 2.5),
                        (dist_weight2, "1")]:
        with pytest.raises(ValueError) as err:
            call(9, 7, 8, value)
        assert str(err.value) == f"B_{{d-2}} must be an integer, got {value!r}"


# every formula entry, each other argument made invalid too
FORMULA_ENTRIES = {
    "LowWeightPrefix": lambda n, d, q: LowWeightPrefix(n, d, q, (5,)),
    "dist_weight1": dist_weight1,
    "dist_weight_d1": dist_weight_d1,
    "dist_weight_d2": lambda n, d, q: dist_weight_d2(n, d, q, 0),
    "dist_weight2": lambda n, d, q: dist_weight2(n, d, q, -1),
    "dist_weight_mid": lambda n, d, q: dist_weight_mid(n, d, q, 99, (5,)),
    "mds_weight_distribution": mds_weight_distribution,
    "weight2_aggregate": weight2_aggregate,
    "weight2_identical_check": weight2_identical_check,
}


@pytest.mark.parametrize("entry", FORMULA_ENTRIES)
@pytest.mark.parametrize("n, d, q", [(3, 4, 5), (9, 5, 5), (6, 5, 1)])
def test_every_formula_entry_refuses_non_mds_parameters_first(entry, n, d, q):
    with pytest.raises(ValueError) as want:
        check_mds_params(n, d, q)
    with pytest.raises(ValueError) as got:
        FORMULA_ENTRIES[entry](n, d, q)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("call, message", [
    (lambda: dist_weight1(np.int64(5), 3, 4), f"n must be an int, got {np.int64(5)!r}"),
    (lambda: LowWeightPrefix(5.0, 3, 4, (1, 0)), "n must be an int, got 5.0"),
    (lambda: weight2_aggregate(6.0, 5, 5), "n must be an int, got 6.0"),
    (lambda: dist_weight_d1(5, True, 4), "d must be an int, got True"),
    (lambda: check_mds_params(5, 3, 4.0), "q must be an int, got 4.0"),
    (lambda: check_mds_params(5, 3.0, 1), "d must be an int, got 3.0"),  # before q's range
], ids=["numpy-n", "float-n-prefix", "float-n-aggregate", "bool-d", "float-q", "type-first"])
def test_mds_parameters_must_be_ints(call, message):
    # a numpy integer, a float or a bool is refused by name before any
    # range check or row charge reads it
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_weight2_aggregate_values():
    assert weight2_aggregate(6, 5, 5) == 240
    assert weight2_aggregate(7, 5, 7) == 1260
    with pytest.raises(ValueError):
        weight2_aggregate(4, 5, 5)
    with pytest.raises(ValueError):
        weight2_aggregate(7, 4, 7)
    # parameters no MDS code has: 10 > q+2 = 5
    with pytest.raises(ValueError) as err:
        weight2_aggregate(10, 5, 3)
    assert str(err.value) == "no MDS parameters with n=10 > q+2=5"


def test_weight2_identical_check():
    ok = weight2_identical_check(6, 5, 5)
    assert ok.condition_holds and ok.b_low_if_identical == 1
    no = weight2_identical_check(7, 5, 7)
    assert not no.condition_holds
    assert no.b_low_if_identical == Fraction(10, 6)
    # n = q+1 with gcd(q-1, d-2) = 1 always satisfies the condition
    for (q, d) in [(8, 5), (9, 5), (11, 5), (8, 6)]:
        assert weight2_identical_check(q + 1, d, q).condition_holds
    # with only one of the two, C(n-2,d-2)/(q-1) = 1/4 may fail it, and
    # nothing is raised
    for n, d, q in [(6, 6, 5), (5, 5, 5)]:
        assert (n == q + 1) != (math.gcd(q - 1, d - 2) == 1)
        assert weight2_identical_check(n, d, q) == (
            formulas.Weight2IdentityCondition(False, Fraction(1, 4)))
    with pytest.raises(ValueError) as err:
        weight2_identical_check(4, 6, 5)
    assert str(err.value) == "need 3 <= d <= n, got d=6, n=4"


def test_digit_count_at_powers_of_ten():
    # 10^k has k+1 digits and 10^k - 1 has k, past the 4300-digit str limit too
    for k in [*range(80), 4299, 4300, 4301, 4400]:
        for sign in (1, -1):
            assert codes._digit_count(sign * 10**k) == k + 1, (sign, k)
            if k:
                assert codes._digit_count(sign * (10**k - 1)) == k, (sign, k)


def test_each_closed_form_is_the_transformed_form_after_its_row_charge(monkeypatch):
    # every closed form charges its rows, then evaluates them once at its
    # theorem's prefix, through the body both Bonneau forms share; it
    # builds no LowWeightPrefix, and equals bonneau_transformed there
    events = []
    rows, distribution, prefix = (formulas._single_sum_rows, formulas._distribution,
                                  formulas.LowWeightPrefix)

    def charged(n, d, q):
        events.append("rows")
        return rows(n, d, q)

    def at(n, d, q, counts, got_rows, strict):
        events.append(("distribution", (n, d, q), tuple(counts), got_rows is rows(n, d, q),
                       strict))
        return distribution(n, d, q, counts, got_rows, strict)

    def laid_out(*args):
        raise AssertionError("a closed form built a LowWeightPrefix")
    monkeypatch.setattr(formulas, "_single_sum_rows", charged)
    monkeypatch.setattr(formulas, "_distribution", at)
    monkeypatch.setattr(formulas, "LowWeightPrefix", laid_out)
    n, d, q = 9, 7, 8
    for call, counts, strict in [
            (lambda: dist_weight1.__wrapped__(n, d, q), (0, 1, 0, 0, 0, 0), True),
            (lambda: dist_weight_d1.__wrapped__(n, d, q), (0,) * 6, True),
            (lambda: dist_weight2(n, d, q, 3, strict=False), (0, 0, 1, 0, 0, 3), False),
            (lambda: dist_weight_d2(n, d, q, 4), (0, 0, 0, 0, 0, 4), True),
            (lambda: dist_weight_mid(n, d, q, 2, [5]), (0, 0, 1, 0, 0, 5), True),
            (lambda: dist_weight_mid(n, d, q, 4, [1, 2, 3]), (0, 0, 0, 1, 2, 3), True)]:
        events.clear()
        got = call()
        assert events == ["rows", ("distribution", (n, d, q), counts, True, strict)]
        assert got == bonneau_transformed(prefix(n, d, q, counts), strict)


def _divisor_count(m):
    return sum(1 for i in range(1, m + 1) if m % i == 0)


# the full-length gdrs codes of Remark 6.6's survey ladder, as (d, q)
SURVEY_LADDER = [(d, q) for d, top in ((5, 32), (6, 16), (7, 11))
                 for q in prime_powers(top) if d <= q + 1]


def test_weight2_classes_of_full_length_codes_on_the_survey_ladder():
    # empirical, as criterion 9 reports it: with gcd(q-1, d-2) = 1 all
    # weight-2 cosets share the B_{d-2} that weight2_identical_check
    # predicts, and with k >= 2 the weight-2 classes are as many as the
    # divisors of the gcd; the two k = 1 codes are pinned as they are
    assert len(SURVEY_LADDER) == 27
    b_low, k1 = {}, {}
    for d, q in SURVEY_LADDER:
        code, _ = build_code(field_of_order(q), "gdrs", d)
        prefixes = code.weight2_prefixes()
        b_low[d, q] = sorted(p[d - 2] for p in prefixes)
        gcd = math.gcd(q - 1, d - 2)
        if gcd == 1:
            assert b_low[d, q] == [weight2_identical_check(q + 1, d, q).b_low_if_identical], (d, q)
        if code.k == 1:
            k1[d, q] = (len(prefixes), _divisor_count(gcd))
        else:
            assert len(prefixes) == _divisor_count(gcd), (d, q)
    assert sum(math.gcd(q - 1, d - 2) == 1 for d, q in SURVEY_LADDER) == 14
    assert (b_low[5, 32], b_low[6, 9]) == ([145], [8, 9, 10])
    assert k1 == {(5, 4): (2, 2), (6, 5): (2, 3)}


def test_failed_integrality_forces_multiple_census_classes():
    # when C(n-2,d-2)/(q-1) is not an integer the census must show at least
    # two distinct weight-2 distributions
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 5, n=7)
    census = coset_census(code)
    assert not weight2_identical_check(7, 5, 7).condition_holds
    assert len(census.classes_of_weight(2)) >= 2
