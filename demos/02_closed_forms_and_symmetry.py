"""The per-weight closed forms and the reflection symmetry.

Weight-1 cosets and farthest-off (weight d-1) cosets of an MDS code each
share a single universal distribution depending only on (n, d, q).
Weight-(d-2) cosets may split into several distributions, but the
reflection defects (-1)^(n+d) B_w - B_{n+d-2-w} coincide across them.
"""

from mdscosets import (build_code, coset_census, dist_weight1, dist_weight_d1,
                       dist_weight_d2, field_of_order, symmetry_defect,
                       weight2_aggregate, weight2_identical_check)

f5 = field_of_order(5)

print("universal weight-1 coset distribution of [6,3,4]_5:")
print(" ", dist_weight1(6, 4, 5).counts)

print("\nuniversal farthest-off distribution of [5,2,4]_5 (R = 3):")
print(" ", dist_weight_d1(5, 4, 5).counts)

code, _ = build_code(f5, "gdrs", 4, n=5)
census = coset_census(code)
two = census.classes_of_weight(2)
print("\n[5,2,4]_5 has two weight-2 classes:")
for cls in two:
    again = dist_weight_d2(5, 4, 5, cls.distribution.counts[2])
    print(f"  {cls.count} cosets with B = {cls.distribution.counts}"
          f"  (closed form agrees: {again == cls.distribution})")

rep = symmetry_defect(two[0].distribution, two[1].distribution, 4)
print("\ntheir reflection defects coincide even though the distributions differ:")
for w, da, db in rep.pairs:
    print(f"  w={w}: {da} vs {db}")
print(f"  matched: {rep.matched}")

print("\nweight-2 aggregates for d = 5:")
print(f"  [6,2,5]_5: sum of B_3 over all weight-2 cosets = {weight2_aggregate(6, 5, 5)}")
cond = weight2_identical_check(6, 5, 5)
print(f"  identical distributions possible: {cond.condition_holds} "
      f"(shared B_3 would be {cond.b_low_if_identical})")
cond7 = weight2_identical_check(7, 5, 7)
print(f"  [7,3,5]_7: condition holds: {cond7.condition_holds} "
      f"(C(5,3)/(q-1) = {cond7.b_low_if_identical} is not an integer)")
