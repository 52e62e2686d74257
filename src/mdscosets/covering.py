"""Covering-theoretic classification: multiple coverings of the
farthest-off points (deep holes), their density, and the translation to
multiple saturating sets.

Every vector of a weight-W coset lies at distance exactly W from the
code and sees exactly B_W codewords at that distance, so the farthest-off
structure of a code is read off the per-syndrome counts at weight R:
mu is the minimum B_R over weight-R cosets, the covering is almost
perfect when every weight-R coset shares that value, perfect when
additionally d >= 2R, and the mu-density is the exact rational

    gamma_mu = sum(B_R over weight-R cosets) / (mu * #weight-R cosets).

All of it is read from the code's leader profile (LinearCode.leader_profile),
a tally of the classes of the census at weight n-k or more that also
certifies d: it reaches every syndrome, and the deep holes of an MDS
code, whose covering radius never exceeds d - 1, are its weight-(d-1)
cosets.  Their number for a column-removal code is checked against
the (q-1)*Delta rule by count_deep_hole_cosets, whose report says
whether the rule holds: a refutation is reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import LinearCode, _check_ints, _require
from .combinat import binom
from .mds import MdsConstruction, build_code


class DeepHoleMismatchError(RuntimeError):
    """Raised by nothing: count_deep_hole_cosets reports a refuted
    (q-1)*Delta rule in its DeepHoleReport.  Kept, and exported, only
    because perfbench/workloads.py imports it; it goes once that reads
    the report's `holds` instead."""


@dataclass(frozen=True)
class McfReport:
    """Certificate that a code multiply covers its farthest-off points."""

    n: int
    k: int
    q: int
    d: int
    R: int
    mu: int
    is_apmcf: bool
    is_pmcf: bool
    mu_density: Fraction
    deep_hole_coset_count: int
    farthest_profile: tuple[tuple[int, int], ...]  # (B_R value, coset count)

    @property
    def is_mcf(self) -> bool:
        return self.mu >= 1


def mcf_classify(code: LinearCode) -> McfReport:
    R = code.covering_radius()
    profile = code.leader_profile()[R]
    d = code.min_distance()
    mu = min(profile)
    total = sum(profile.values())
    weighted = sum(b * c for b, c in profile.items())
    apmcf = len(profile) == 1
    density = Fraction(weighted, mu * total)
    _require((density == 1) == apmcf, "mu-density is 1 exactly when the code is APMCF")
    return McfReport(
        n=code.n, k=code.k, q=code.field.q, d=d, R=R, mu=mu,
        is_apmcf=apmcf, is_pmcf=apmcf and d >= 2 * R,
        mu_density=density, deep_hole_coset_count=total,
        farthest_profile=tuple(sorted(profile.items())))


def mu_density_closed_form(n: int, k: int, q: int, mu: int) -> Fraction:
    """gamma_mu for covering radius 2 and d > 3:
    C(n,2)(q-1)^2 / (mu (q^(n-k) - 1 - n(q-1))), whose last factor counts
    the weight-2 cosets there; refused unless each is an int and mu and that
    count are positive."""
    _check_ints(n=n, k=k, q=q, mu=mu)
    cosets = q ** (n - k) - 1 - n * (q - 1)
    if mu < 1 or cosets < 1:
        raise ValueError(f"need mu >= 1 and q^(n-k)-1-n(q-1) >= 1 weight-2 cosets, "
                         f"got mu={mu} and {cosets}")
    return Fraction(binom(n, 2) * (q - 1) ** 2, mu * cosets)


@dataclass(frozen=True)
class DeepHoleReport:
    """Count of weight-(d-1) cosets of a column-removal code, checked
    against (q-1)*Delta: equality when the parent reaches only d-2,
    the lower bound otherwise.  A refuted rule is reported, not raised."""

    count: int
    weight: int  # d-1
    bound: int
    delta: int
    parent_R: int
    equality_required: bool

    @property
    def holds(self) -> bool:
        if self.equality_required:
            return self.count == self.bound
        return self.count >= self.bound

    @property
    def refutation(self) -> str:
        """What the census says against the rule, to follow the code's
        label; empty when the rule holds."""
        if self.holds:
            return ""
        if self.equality_required:
            return (f" (Delta={self.delta}, parent R={self.parent_R}): census counts "
                    f"{self.count} weight-{self.weight} cosets, formula says {self.bound}")
        return f": deep-hole count {self.count} below bound {self.bound}"


def count_deep_hole_cosets(code: LinearCode, construction: MdsConstruction,
                           parent_R: int | None = None) -> DeepHoleReport:
    """Count the code's weight-(d-1) cosets, read from its leader
    profile, against the (q-1)*Delta rule for a parent of covering
    radius `parent_R`; the parent, when `parent_R` is not given, is built
    under the code's own budget."""
    if construction.delta < 1:
        raise ValueError("the deep-hole count applies to column-removal codes")
    if parent_R is None:
        parent, _ = build_code(code.field, construction.family, construction.d,
                               budget=code.budget)
        parent_R = parent.covering_radius()
    d = construction.d
    return DeepHoleReport(
        count=sum(code.leader_profile().get(d - 1, {}).values()), weight=d - 1,
        bound=(construction.q - 1) * construction.delta, delta=construction.delta,
        parent_R=parent_R, equality_required=parent_R == d - 2)


def saturating_set_report(code: LinearCode, report: McfReport) -> dict:
    """Translate an MCF certificate into the statement about the
    parity-check columns as a multiple saturating set in PG(n-k-1, q)."""
    if not report.is_mcf or report.R < 1:
        return {"certified": False,
                "reason": "input certificate does not cover the farthest-off points"}
    kind = "OS" if report.is_apmcf else "saturating"
    rho = report.R - 1
    space = f"PG({code.n - code.k - 1},{code.field.q})"
    return {
        "certified": True,
        "space": space,
        "set_size": code.n,
        "rho": rho,
        "mu": report.mu,
        "kind": kind,
        "statement": (f"the {code.n} parity-check columns form a "
                      f"({rho},{report.mu})-{kind} set in {space}"),
    }
