"""Reconstructing every coset distribution of a code from d-2 numbers.

The [6,3,4]_5 code built on the conic columns has 125 cosets.  A full
census (exact counts of all 5^6 vectors by syndrome and weight) sorts
them into four classes.  Feeding each class's low-weight counts
B_0..B_2 into the single-sum relation reproduces the entire
distribution, tail included.
"""

from mdscosets import (LowWeightPrefix, bonneau_original, bonneau_transformed,
                       build_code, coset_census, field_of_order)

f5 = field_of_order(5)
code, _ = build_code(f5, "gdrs", 4, n=6)
print(f"code: [{code.n},{code.k},{code.min_distance()}]_5, "
      f"covering radius {code.covering_radius()}")

census = coset_census(code)
print(f"\n{census.total_cosets} cosets fall into {len(census.classes)} classes:")
for cls in census.classes:
    print(f"  weight {cls.weight}: {cls.count:>3} cosets  B = {cls.distribution.counts}")

print("\nreconstruction from the B_0..B_2 prefix alone:")
for cls in census.classes:
    prefix = LowWeightPrefix(code.n, 4, 5, cls.distribution.counts[:3])
    rebuilt = bonneau_transformed(prefix)
    also = bonneau_original(prefix)
    mark = "ok" if rebuilt == cls.distribution == also else "MISMATCH"
    print(f"  prefix {prefix.counts} -> {rebuilt.counts}  [{mark}]")

print("\nwhat-if query: no coset has prefix (0, 0, 50); the tail goes negative:")
loose = bonneau_transformed(LowWeightPrefix(5, 4, 5, (0, 0, 50)), strict=False)
print(f"  {loose.counts}  (total still {loose.total()} = 5^2)")
