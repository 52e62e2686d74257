import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mdscosets.codes import BudgetExceededError, LinearCode, coset_census
from mdscosets.covering import (count_deep_hole_cosets, mcf_classify,
                                mu_density_closed_form, saturating_set_report)
from mdscosets.geometry import Arc, bisecant_census
from mdscosets.gf import field_of_order
from mdscosets.mds import build_code
from oracle import field_of, generator_matrix, syndrome


def test_apmcf_certificate_for_shortened_conic_code():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=5)
    rep = mcf_classify(code)
    assert (rep.R, rep.mu) == (3, 10)
    assert rep.is_mcf and rep.is_apmcf and not rep.is_pmcf
    assert rep.mu_density == 1
    assert rep.deep_hole_coset_count == 4
    assert rep.farthest_profile == ((10, 4),)


def test_pmcf_certificate_for_triply_extended_code():
    f4 = field_of_order(4)
    code, _ = build_code(f4, "gtrs")
    rep = mcf_classify(code)
    assert (rep.R, rep.mu) == (2, 3)
    assert rep.is_apmcf and rep.is_pmcf  # d = 4 = 2R


def test_mu_density_of_odd_conic_codes():
    for q in (5, 7):
        f = field_of_order(q)
        code, _ = build_code(f, "gdrs", 4)
        rep = mcf_classify(code)
        assert rep.R == 2
        assert rep.mu == (q - 1) // 2
        assert not rep.is_apmcf
        assert rep.mu_density == 1 + Fraction(1, q)
        assert mu_density_closed_form(rep.n, rep.k, q, rep.mu) == rep.mu_density


@pytest.mark.parametrize("args, got", [
    ((4, 2, 3, 1), "mu=1 and 0"),  # the perfect [4,2,3]_3 code: no weight-2 coset
    ((6, 4, 4, 1), "mu=1 and -3"),
    ((6, 3, 5, 0), "mu=0 and 100"),
], ids=["perfect-code", "negative-count", "mu-0"])
def test_mu_density_closed_form_refuses_outside_its_domain(args, got):
    with pytest.raises(ValueError) as err:
        mu_density_closed_form(*args)
    assert str(err.value) == f"need mu >= 1 and q^(n-k)-1-n(q-1) >= 1 weight-2 cosets, got {got}"


def test_mu_density_closed_form_refuses_a_parameter_that_is_no_int():
    # a bool or a float read as a number gave 20/13 or a TypeError
    for args, message in [((5, 2, 5, True), "mu must be an int, got True"),
                          ((5.0, 2, 5, 10), "n must be an int, got 5.0"),
                          ((5, 2, "5", 10), "q must be an int, got '5'")]:
        with pytest.raises(ValueError) as err:
            mu_density_closed_form(*args)
        assert str(err.value) == message


def test_mu_density_over_budget_codes_use_low_weight_path():
    # 9^10 and 11^12 ambient spaces are both far over the default budget
    for q in (9, 11):
        f = field_of_order(q)
        code, _ = build_code(f, "gdrs", 4)
        rep = mcf_classify(code)
        assert rep.mu_density == 1 + Fraction(1, q)


def test_mcf_profile_agrees_with_full_census():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4)
    rep = mcf_classify(code)
    census = coset_census(code)
    want = {}
    for cls in census.classes_of_weight(rep.R):
        b = cls.distribution.counts[rep.R]
        want[b] = want.get(b, 0) + cls.count
    assert dict(rep.farthest_profile) == want


def test_distance_and_multiplicity_spot_check():
    # every vector of a weight-W coset sits at distance W from the code and
    # sees exactly B_W codewords at that distance
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=5)
    census = coset_census(code)
    G = generator_matrix(code)
    F5 = field_of(f5)
    codewords = []
    for msg in itertools.product(range(5), repeat=code.k):
        w = [0] * code.n
        for m, row in zip(msg, G):
            if m:
                w = [F5.add(a, F5.mul(m, b)) for a, b in zip(w, row)]
        codewords.append(tuple(w))
    rng = random.Random(11)
    for _ in range(200):
        x = tuple(rng.randrange(5) for _ in range(code.n))
        dists = [sum(1 for a, b in zip(x, c) if a != b) for c in codewords]
        dmin = min(dists)
        dist = census.distribution_of_syndrome(syndrome(code, x))
        if dmin == 0:
            assert dist.counts[0] == 1
        else:
            assert dist.min_positive_weight() == dmin
            assert dists.count(dmin) == dist.counts[dmin]


def test_deep_hole_counts_where_the_formula_holds():
    f5 = field_of_order(5)
    code, cons = build_code(f5, "gdrs", 4, n=5)
    rep = count_deep_hole_cosets(code, cons)
    assert rep.count == rep.bound == 4
    assert rep.equality_required and rep.parent_R == 2
    f7 = field_of_order(7)
    code7, cons7 = build_code(f7, "gdrs", 4, n=6)
    assert count_deep_hole_cosets(code7, cons7).count == 12


ODD_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31)


@pytest.mark.parametrize("q", ODD_QS)
def test_deep_hole_count_holds_below_half_the_odd_conic(q):
    # for odd q an off-conic point lies on (q+1)/2 or (q-1)/2 bisecants
    # with disjoint point pairs, so removing fewer than (q-1)/2 conic
    # points strips no bisecant-covered point bare: the d = 4 count is
    # exactly (q-1)*Delta for every such removal
    f = field_of_order(q)
    parent, _ = build_code(f, "gdrs", 4)
    parent_R = parent.covering_radius()
    assert parent_R == 2
    rng = random.Random(q)
    for delta in range(1, (q - 1) // 2):
        code, cons = build_code(f, "gdrs", 4, removed=rng.sample(range(q + 1), delta))
        assert count_deep_hole_cosets(code, cons, parent_R).count == (q - 1) * delta


def test_d4_deep_hole_count_is_q_minus_1_times_the_bisecant_free_points(desk):
    # at r = 3 a code's columns are an arc, and a point on no bisecant
    # spans q-1 weight-3 cosets, so a d = 4 code has (q-1)*N_0 of them;
    # (q-1)*Delta is only a lower bound, met on 5 of the 21 d = 4
    # removals, and no desk removal code falls below it
    d4 = [e for e in desk.entries if e.d == 4]
    assert (len(d4), sum(e.family == "gtrs" for e in d4)) == (26, 1)
    no_bisecant = {}
    for entry in d4:
        code = entry.code
        N_0 = dict(bisecant_census(Arc(code.field, code.H.T)).classes).get(0, 0)
        assert desk.census(entry).count_of_weight(3) == (entry.q - 1) * N_0, entry.label
        no_bisecant[entry.label] = N_0
    assert no_bisecant["[4,1,4]_5 gdrs"] == 6  # 24 weight-3 cosets, not (q-1)*Delta = 8
    removals = [e for e in desk.entries if e.delta >= 1]
    deep = {e.label: sum(e.code.leader_profile().get(e.d - 1, {}).values()) for e in removals}
    bound = {e.label: (e.q - 1) * e.delta for e in removals}
    assert len(removals) == 73
    assert all(deep[label] >= bound[label] for label in deep)
    d4_removals = [e.label for e in removals if e.d == 4]
    assert len(d4_removals) == 21
    assert [label for label in d4_removals if deep[label] == bound[label]] == [
        "[5,2,4]_5 gdrs", "[6,3,4]_7 gdrs", "[7,4,4]_7 gdrs", "[7,4,4]_9 gdrs", "[8,5,4]_9 gdrs"]


def test_deep_hole_inequality_branch_for_even_parent():
    # the even-q conic parent has R = 3 != d-2, so only the bound applies
    f4 = field_of_order(4)
    code, cons = build_code(f4, "gdrs", 4, n=4)
    rep = count_deep_hole_cosets(code, cons)
    assert not rep.equality_required
    assert rep.parent_R == 3
    assert rep.count == 6 >= rep.bound == 3


def test_deep_hole_requires_a_removal_construction():
    f5 = field_of_order(5)
    code, cons = build_code(f5, "gdrs", 4)
    with pytest.raises(ValueError, match="column-removal"):
        count_deep_hole_cosets(code, cons)


def test_deep_hole_formula_counterexample_is_reported():
    # exhaustive enumeration refutes the claimed equality for [5,1,5]_5:
    # the census finds 24 weight-4 cosets, the formula predicts (q-1)*Delta = 4
    f5 = field_of_order(5)
    code, cons = build_code(f5, "gdrs", 5, n=5)
    rep = count_deep_hole_cosets(code, cons)
    assert (rep.count, rep.bound, rep.parent_R, rep.equality_required) == (24, 4, 3, True)
    assert not rep.holds
    assert rep.refutation == (" (Delta=1, parent R=3): census counts 24 weight-4 cosets, "
                              "formula says 4")


def test_deep_hole_count_below_the_lower_bound_is_reported():
    # [5,2,4]_5 has 4 weight-3 cosets; read as a three-column removal
    # under a parent of R = 3 != d-2, the bound (q-1)*Delta = 12 is missed
    code, cons = build_code(field_of_order(5), "gdrs", 4, n=5)
    rep = count_deep_hole_cosets(code, replace(cons, removed=(0, 1, 2)), parent_R=3)
    assert (rep.count, rep.bound, rep.equality_required, rep.holds) == (4, 12, False, False)
    assert rep.refutation == ": deep-hole count 4 below bound 12"


def test_covering_radius_matches_census():
    f5 = field_of_order(5)
    for (d, n, want) in [(4, 6, 2), (4, 5, 3), (5, 6, 3)]:
        code, _ = build_code(f5, "gdrs", d, n=n)
        assert code.covering_radius() == want
        assert coset_census(code).classes_of_weight(want)
    code, _ = build_code(f5, "gdrs", 4, n=6)
    assert LinearCode(code.field, code.H, budget=10_000).covering_radius() == 2


def test_even_q_conic_code_has_radius_3():
    # the nucleus keeps the even-q length-(q+1) code at R = d-1 = 3
    f8 = field_of_order(8)
    code, _ = build_code(f8, "gdrs", 4)
    assert LinearCode(code.field, code.H, budget=10**6).covering_radius() == 3
    f4 = field_of_order(4)
    code4, _ = build_code(f4, "gdrs", 4)
    assert code4.covering_radius() == 3


def test_one_trellis_pass_per_code(kernel_runs):
    code, cons = build_code(field_of_order(11), "gdrs", 5, removed=(0, 3))
    rep = mcf_classify(code)
    dh = count_deep_hole_cosets(code, cons, parent_R=3)
    assert [wmax for _, wmax, _ in kernel_runs] == [code.r]
    assert dh.count == rep.deep_hole_coset_count  # R = d-1 here
    assert code.leader_profile()[rep.R] == dict(rep.farthest_profile)


def test_deep_hole_parent_is_built_within_the_budget():
    # the [6,3,4]_5 parent needs 6*3*32 = 576 kernel steps, the
    # [5,2,4]_5 code itself 5*3*32 = 480
    f5 = field_of_order(5)
    code, cons = build_code(f5, "gdrs", 4, n=5, budget=500)
    with pytest.raises(BudgetExceededError, match="budget of 500"):
        count_deep_hole_cosets(code, cons)
    code, cons = build_code(f5, "gdrs", 4, n=5, budget=576)
    assert count_deep_hole_cosets(code, cons).parent_R == 2


def test_deep_hole_rule():
    # (q-1)*Delta = 4 for [5,2,4]_5: equality when the parent's R is d-2,
    # a lower bound otherwise
    code, cons = build_code(field_of_order(5), "gdrs", 4, n=5)
    rep = count_deep_hole_cosets(code, cons, parent_R=2)
    assert (rep.count, rep.weight, rep.bound, rep.delta, rep.equality_required) == (4, 3, 4, 1, True)
    assert rep.holds and rep.refutation == ""
    assert not replace(rep, count=5).holds
    bound = count_deep_hole_cosets(code, cons, parent_R=3)
    assert not bound.equality_required
    assert bound.holds and replace(bound, count=5).holds
    assert not replace(bound, count=3).holds


def test_saturating_set_statements():
    f5 = field_of_order(5)
    code, _ = build_code(f5, "gdrs", 4, n=5)
    rep = mcf_classify(code)
    sat = saturating_set_report(code, rep)
    assert sat["certified"]
    assert sat["kind"] == "OS"
    assert sat["rho"] == 2 and sat["mu"] == 10
    assert sat["space"] == "PG(2,5)"

    f4 = field_of_order(4)
    gtrs, _ = build_code(f4, "gtrs")
    sat4 = saturating_set_report(gtrs, mcf_classify(gtrs))
    assert sat4["rho"] == 1 and sat4["mu"] == 3 and sat4["kind"] == "OS"

    conic5, _ = build_code(f5, "gdrs", 4)
    rep5 = mcf_classify(conic5)
    sat5 = saturating_set_report(conic5, rep5)
    assert sat5["kind"] == "saturating"  # MCF but not almost perfect

    fake = replace(rep, mu=0)
    assert not saturating_set_report(code, fake)["certified"]
