import random
import re
from fractions import Fraction

import pytest

from mdscosets.codes import coset_census
from mdscosets.combinat import binom, omega
from mdscosets.formulas import (InconsistentPrefixError, LowWeightPrefix,
                                _double_sum_rows, bonneau_original,
                                bonneau_transformed, dist_weight1,
                                dist_weight2, dist_weight_d1, dist_weight_d2,
                                dist_weight_mid, symmetry_defect,
                                weight2_aggregate, weight2_identical_check)
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code, mds_weight_distribution
from reference_sums import bw_known_part


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
], ids=["short", "long", "negative", "b0", "n-over-q+2"])
def test_prefix_refuses_each_rule(n, counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LowWeightPrefix(n, 4, 5, counts)


def test_bonneau_transformed_examples():
    assert bonneau_transformed(LowWeightPrefix(6, 4, 5, (0, 1, 0))).counts == \
        (0, 1, 0, 10, 35, 45, 34)
    # the zero coset reproduces the code's own distribution
    assert bonneau_transformed(LowWeightPrefix(6, 4, 5, (1, 0, 0))).counts == \
        mds_weight_distribution(6, 4, 5).counts
    assert bonneau_transformed(LowWeightPrefix(5, 4, 5, (0, 0, 2))).counts == \
        (0, 0, 2, 4, 11, 8)


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


def test_symmetry_defect_instance():
    a = dist_weight_d2(5, 4, 5, 2)
    b = dist_weight_d2(5, 4, 5, 1)
    rep = symmetry_defect(a, b, 5, 4)
    assert rep.comparable and rep.matched
    w5 = next(p for p in rep.pairs if p[0] == 5)
    assert w5 == (5, -10, -10)
    # identical distributions are trivially matched
    rep2 = symmetry_defect(a, a, 5, 4)
    assert rep2.matched
    # a weight-1 class is not comparable to a weight-2 class
    rep3 = symmetry_defect(dist_weight1(5, 4, 5), a, 5, 4)
    assert not rep3.comparable and not rep3.matched


def test_weight2_aggregate_values():
    assert weight2_aggregate(6, 5, 5) == 240
    assert weight2_aggregate(7, 5, 7) == 1260
    with pytest.raises(ValueError):
        weight2_aggregate(4, 5, 5)
    with pytest.raises(ValueError):
        weight2_aggregate(7, 4, 7)


def test_weight2_identical_check():
    ok = weight2_identical_check(6, 5, 5)
    assert ok.condition_holds and ok.b_low_if_identical == 1
    no = weight2_identical_check(7, 5, 7)
    assert not no.condition_holds
    assert no.b_low_if_identical == Fraction(10, 6)
    # n = q+1 with gcd(q-1, d-2) = 1 always satisfies the condition
    for (q, d) in [(8, 5), (9, 5), (11, 5), (8, 6)]:
        assert weight2_identical_check(q + 1, d, q).condition_holds


def test_failed_integrality_forces_multiple_census_classes():
    # when C(n-2,d-2)/(q-1) is not an integer the census must show at least
    # two distinct weight-2 distributions
    f7 = field_of_order(7)
    code, _ = build_code(f7, "gdrs", 5, n=7)
    census = coset_census(code)
    assert not weight2_identical_check(7, 5, 7).condition_holds
    assert len(census.classes_of_weight(2)) >= 2
