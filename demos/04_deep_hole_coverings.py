"""Classifying deep holes: multiple coverings of the farthest-off points.

Every vector of a weight-R coset lies at distance R from the code and
sees exactly B_R codewords there, so the census at weight R certifies
multiple-covering quality exactly: mu, almost perfect (all weight-R
cosets agree), perfect (additionally d >= 2R), and the exact rational
mu-density.  The classification works even when q^n is astronomically
large, by counting only the low-weight vectors.
"""

from mdscosets import (build_code, count_deep_hole_cosets, field_of_order,
                       mcf_classify, saturating_set_report)


def parent_R(field, d):
    """Covering radius of the full-length code a removal code is cut from."""
    return build_code(field, "gdrs", d)[0].covering_radius()


f5 = field_of_order(5)
code, cons = build_code(f5, "gdrs", 4, n=5)
rep = mcf_classify(code)
print(f"[5,2,4]_5: R={rep.R}, mu={rep.mu}, APMCF={rep.is_apmcf}, PMCF={rep.is_pmcf}")
print(" ", saturating_set_report(rep)["statement"])
dh = count_deep_hole_cosets(code, cons, parent_R(f5, 4))
print(f"  deep-hole cosets: {dh.count} = (q-1)*Delta = {dh.bound} "
      f"(parent covering radius {dh.parent_R})")

gtrs, _ = build_code(field_of_order(4), "gtrs")
rep4 = mcf_classify(gtrs)
print(f"\n[6,3,4]_4 (hyperoval code): R={rep4.R}, mu={rep4.mu}, PMCF={rep4.is_pmcf}")
print(" ", saturating_set_report(rep4)["statement"])

print("\nmu-density 1 + 1/q across the odd conic codes "
      "(9^10 and 11^12 ambient spaces never enumerated):")
for q in (5, 7, 9, 11):
    c, _ = build_code(field_of_order(q), "gdrs", 4)
    r = mcf_classify(c)
    print(f"  [{q + 1},{q - 2},4]_{q}: mu={r.mu}, gamma_mu = {r.mu_density}")

print("\nwhere the (q-1)*Delta deep-hole count breaks (exhaustively refuted):")
for d, n in ((4, 4), (5, 5)):
    c, cons = build_code(f5, "gdrs", d, n=n)
    dh = count_deep_hole_cosets(c, cons, parent_R(f5, d))
    print(f"  [{n},1,{d}]_5{dh.refutation}")
