"""Plane geometry mirrored in coset structure.

The columns of the distance-4 parity-check matrix trace a conic in
PG(2, q).  Each point off the arc, multiplied by the q-1 nonzero
scalars, names the syndromes of q-1 cosets, and the number of bisecants
through the point is exactly the number of weight-2 vectors in each of
those cosets.  Points on no bisecant name the weight-3 cosets.
"""

from mdscosets import (bisecant_census, conic_points, coset_census,
                       field_of_order, geometry_code_bridge, hyperoval_points,
                       shortened_conic)

for q in (5, 7):
    f = field_of_order(q)
    census = bisecant_census(conic_points(f))
    print(f"conic in PG(2,{q}): off-arc points by bisecant count: {census.classes}")

f8 = field_of_order(8)
print(f"conic in PG(2,8) (incomplete, nucleus on no bisecant): "
      f"{bisecant_census(conic_points(f8)).classes}")
print(f"hyperoval in PG(2,8): {bisecant_census(hyperoval_points(f8)).classes}")

f5 = field_of_order(5)
print(f"\nshortened conic, q=5: {bisecant_census(shortened_conic(f5, 1)).classes}")
f7 = field_of_order(7)
print(f"doubly shortened conic, q=7: {bisecant_census(shortened_conic(f7, 2)).classes}")

print("\npoint classes vs coset classes of the matching codes:")
for arc, name in [(conic_points(f5), "conic q=5"),
                  (shortened_conic(f5, 1), "shortened conic q=5"),
                  (conic_points(field_of_order(4)), "conic q=4 (nucleus!)")]:
    report = geometry_code_bridge(arc)
    print(f"  {name} -> [{report.code.n},{report.code.k}] code")
    for e in report.entries:
        kind = f"B_2 = {e.bisecants}" if e.coset_weight == 2 else "weight 3"
        print(f"     {e.points} points on {e.bisecants} bisecants "
              f"<-> {e.cosets} cosets ({kind})")

# a point read as a syndrome: the nucleus of the conic in PG(2, 4) lies on
# no bisecant, so its cosets have no weight-2 vector
census = coset_census(geometry_code_bridge(conic_points(field_of_order(4))).code)
print(f"\nnucleus (0, 1, 0), q=4: B = {census.distribution_of_syndrome((0, 1, 0)).counts}")
