"""Desk-corpus verification: every theorem-level claim the library makes,
checked against exact censuses of a fixed family of constructed codes.

The corpus holds every code the constructors produce for
q in {4, 5, 7, 8, 9, 11}, d in {3, 4, 5, 6}, d <= n <= q+1 (plus the
triply-extended length q+2 for even q at d = 4), subject to the fixed
size limit q^n <= DESK_AMBIENT_LIMIT = 2*10^8.  DeskCache counts and
certifies it in one kernel run per chain of prefix codes, each within
the default budget under any q and d filter and charged before any
field is built.  The criteria read these codes through the memos their
censuses left, so a full run counts each chain once: 24 kernel runs.  A
code's recipe, the one mds._family_layout lays out, keys it in the cache.

One rule decides what a run reads: the codes of its own q and d.  A
q or d outside the filters builds no field and runs no kernel; a
criterion whose fixed code (criterion 5's frozen pair, criterion 7's
certificates) lies outside them checks nothing for it and prints no line
about it.

Each criterion returns a CriterionResult; `run_acceptance` executes the
requested subset and is shared by the test suite and the CLI `verify`
command.  Criteria 1, 3, 5, 6 and 8 each map one theorem's check over
the corpus: a function of one MDS code's CosetCensus that returns how
many things it checked and a failure text for each that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations

from .codes import DEFAULT_BUDGET, BudgetExceededError, CosetCensus, LinearCode
from .combinat import binom
from .covering import count_deep_hole_cosets, mcf_classify, mu_density_closed_form
from .formulas import (LowWeightPrefix, _double_sum_rows, _single_sum_rows,
                       bonneau_transformed, dist_weight1, dist_weight_d1,
                       symmetry_defect, weight2_aggregate,
                       weight2_identical_check)
from .gf import check_field_order
from .geometry import (_named_arc, bisecant_census, conic_census_formulas,
                       double_shortened_conic_census_formulas,
                       shortened_conic_census_formulas)
from .mds import (MdsConstruction, _family_layout, _Run, _run_plan, family_length,
                  has_triple_extension)

DESK_QS = (4, 5, 7, 8, 9, 11)
DESK_DS = (3, 4, 5, 6)
DESK_AMBIENT_LIMIT = 2 * 10**8  # corpus membership, q^n; independent of the census budget


@dataclass(frozen=True)
class CorpusEntry:
    """A desk code and the recipe it was built from; q, d, family and
    Delta are the recipe's, n is the code's."""

    code: LinearCode
    construction: MdsConstruction  # as mds._family_layout lays it out
    q = property(lambda self: self.construction.q)
    d = property(lambda self: self.construction.d)
    n = property(lambda self: self.code.n)
    family = property(lambda self: self.construction.family)
    delta = property(lambda self: self.construction.delta)

    @property
    def label(self) -> str:
        return f"[{self.n},{self.code.k},{self.d}]_{self.q} {self.family}"


def _once(values) -> tuple:
    """Each filter value once, in order, compared by type and value as
    field_of_order's cache compares them: 5.0 is no repeat of 5, but a
    value to refuse."""
    return tuple({(type(v), v): v for v in values}.values())


class DeskCache:
    """Corpus plus memoized censuses and the codes the criteria read.

    The run's q and d are the filters `qs` and `ds`, each kept once, and
    the cache reads only codes of those q and d.  The gdrs codes of one
    (q, d) form a chain: each keeps the first n
    columns of the full-length code's matrix, built once per chain.  One
    kernel run on that code, at the longest corpus length, counts the
    full census of each of them, building each code as the run reaches
    its length (see codes._prefix_censuses).  A chain cut short of its
    family length (q = 9 and 11) runs on to the full-length parent that
    criteria 7 and 9 read, whose low-weight census leaves its memo and
    is dropped.  Every code of the run, the
    parent included, is certified from its memo (see mds._run_plan).
    The triply-extended code is a chain of its own, added wherever its
    length fits, with or without a gdrs code of its d.  `census` looks
    up the census of a corpus code, counted by its chain's run.  `code`
    hands out the cache's own codes, keyed by recipe, and builds (once,
    by _run_plan, charged first) only a code of the run's q and d that
    no chain reached, as criterion 9's survey codes past a chain; for a
    code of any other q or d it returns None.
    """

    def __init__(self, qs=DESK_QS, ds=DESK_DS):
        self.qs, self.ds = _once(qs), _once(ds)
        self.entries: list[CorpusEntry] = []
        self._census: dict[LinearCode, CosetCensus] = {}
        self._codes: dict = {}  # recipe -> code
        chains = []  # one kernel run per chain, on the family's full-length code
        for q in self.qs:
            check_field_order(q)
            # the longest n with q^n <= DESK_AMBIENT_LIMIT; q >= 2 keeps n within its bits
            longest = max(n for n in range(DESK_AMBIENT_LIMIT.bit_length() + 1)
                          if q ** n <= DESK_AMBIENT_LIMIT)
            top = min(family_length("gdrs", q), longest)  # the longest gdrs corpus code
            for d in self.ds:
                if d <= top or d < 3:  # a d below 3 goes on to its refusal
                    chains.append(_Run(_family_layout(q, "gdrs", d, None, ()), top,
                                       tuple(range(d, top + 1))))
                if has_triple_extension(q, d) and family_length("gtrs", q) <= longest:
                    gtrs = _family_layout(q, "gtrs", d, None, ())
                    chains.append(_Run(gtrs, gtrs.n))
        for (full, wmax, _), censuses in zip(chains, _run_plan(chains, DEFAULT_BUDGET)):
            for census in censuses:
                code = census.code
                recipe = _family_layout(full.q, full.family, full.d, code.n, ())
                self._codes[recipe] = code
                if code.n <= wmax:  # a parent's census is dropped
                    self._census[code] = census
                    self.entries.append(CorpusEntry(code, recipe))

    def census(self, code: LinearCode | CorpusEntry) -> CosetCensus:
        """Coset census of a corpus code (or of a corpus entry's code)."""
        if isinstance(code, CorpusEntry):
            code = code.code
        return self._census[code]

    def code(self, q: int, d: int, n: int | None = None,
             family: str = "gdrs") -> LinearCode | None:
        """The [n, n-d+1, d]_q family code, full length by default, when q
        and d are the run's: the cache's own when it holds it, else built
        and certified once; None when q or d is not the run's."""
        if q not in self.qs or d not in self.ds:
            return None
        recipe = _family_layout(q, family, d, n, ())
        if recipe not in self._codes:
            self._codes[recipe] = _run_plan([_Run(recipe, d - 1)], DEFAULT_BUDGET)[0][0].code
        return self._codes[recipe]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    lines: list[str] = dataclass_field(default_factory=list)

    def summary(self) -> str:
        return f"criterion {self.number} [{self.name}]: {'PASS' if self.passed else 'FAIL'}"


def _ndqk(census: CosetCensus) -> tuple[int, int, int, int]:
    """n, d = n-k+1, q and k of the MDS code a census counts."""
    code = census.code
    return code.n, code.r + 1, code.field.q, code.k


def _over_corpus(cache: DeskCache, check) -> tuple[int, list[str]]:
    """A per-census check mapped over the corpus: the total it checked and
    its failure texts, each behind its code's label."""
    checked, bad = 0, []
    for entry in cache.entries:
        count, failures = check(cache.census(entry))
        checked += count
        bad += [entry.label + text for text in failures]
    return checked, bad


def rebuild_failures(census: CosetCensus) -> tuple[int, list[str]]:
    """Feeding each class's low-weight prefix B_0..B_{d-2} into the
    single-sum relation reproduces the class's full distribution exactly."""
    n, d, q, _ = _ndqk(census)
    bad = []
    for cls in census.classes:
        rebuilt = bonneau_transformed(LowWeightPrefix(n, d, q, cls.distribution.counts[:d - 1]))
        if rebuilt != cls.distribution:
            bad.append(f" W={cls.weight}: {rebuilt.counts} != census {cls.distribution.counts}")
    return len(census.classes), bad


def criterion_oracle_equivalence(cache: DeskCache) -> CriterionResult:
    classes, bad = _over_corpus(cache, rebuild_failures)
    return CriterionResult(1, "oracle equivalence", not bad, [
        f"{len(cache.entries)} codes, {classes} census classes reconstructed"] + bad)


IDENTITY_N = 18  # criterion 2 proves the identity for every 3 <= d <= n <= IDENTITY_N


def _first_difference(d: int, double, single) -> str:
    """The first entry, K_w or the coefficient of a B_v, where two row
    sets differ, with both values."""
    (double_known, double_cols), (single_known, single_cols) = double, single
    rows = [("K", double_known, single_known)]
    rows += [(f"coefficient of B_{v}", a, b)
             for v, (a, b) in enumerate(zip(double_cols, single_cols))]
    for name, a, b in rows:
        for w, (x, y) in enumerate(zip(a, b), start=d - 1):
            if x != y:
                return f"{name} at w={w}: double sum {x}, single sum {y}"
    return "row shapes differ"


def criterion_bonneau_equality(cache: DeskCache) -> CriterionResult:
    """Double-sum and single-sum forms agree on every prefix, at every q,
    for each 3 <= d <= n <= IDENTITY_N.  Both tails are K + P @ C, affine
    in the prefix P, and every prefix set holds the zero prefix and each
    unit prefix, so the forms agree everywhere exactly when their rows K
    and C agree entry for entry.  Neither form's columns C read q, and
    each K_w is a polynomial in q of degree at most n-d+1 (see formulas),
    so rows equal at n-d+2 distinct q are equal at every q.  They are
    compared at the consecutive q = n-1..2n-d, which check_mds_params
    admits: a polynomial identity needs no field.  Neither the corpus nor
    a census is read, so the filters of `cache` change nothing."""
    tuples = [(n, d, q) for n in range(3, IDENTITY_N + 1) for d in range(3, n + 1)
              for q in range(n - 1, 2 * n - d + 1)]
    bad = []
    for n, d, q in tuples:
        double, single = _double_sum_rows(n, d, q), _single_sum_rows(n, d, q)
        if double != single:
            bad.append(f"(n,d,q)=({n},{d},{q}): {_first_difference(d, double, single)}")
    verdict = (f"rows differ on {len(bad)}" if bad
               else "double-sum rows equal single-sum rows at every q")
    lines = [f"{len(tuples)} (n, d, q) tuples, n-d+2 q for each "
             f"3 <= d <= n <= {IDENTITY_N}: {verdict}"]
    lines += bad
    return CriterionResult(2, "double-sum vs single-sum equality", not bad, lines)


def closed_form_failures(census: CosetCensus) -> tuple[int, list[str]]:
    """One weight-1 class, of n(q-1) cosets, matching its closed form, and
    at most one weight-(d-1) class, matching its own."""
    n, d, q, _ = _ndqk(census)
    w1 = census.classes_of_weight(1)
    if len(w1) != 1:
        return 1, [f": {len(w1)} weight-1 classes"]
    bad = []
    if w1[0].count != n * (q - 1):
        bad.append(f": weight-1 class count {w1[0].count} != {n * (q - 1)}")
    if w1[0].distribution != dist_weight1(n, d, q):
        bad.append(": weight-1 distribution mismatch")
    top = census.classes_of_weight(d - 1)
    if len(top) > 1:
        bad.append(f": {len(top)} distinct weight-(d-1) classes")
    elif top and top[0].distribution != dist_weight_d1(n, d, q):
        bad.append(": weight-(d-1) distribution mismatch")
    return 1, bad


def criterion_closed_forms(cache: DeskCache) -> CriterionResult:
    checked, bad = _over_corpus(cache, closed_form_failures)
    return CriterionResult(3, "weight-1 / weight-(d-1) closed forms", not bad,
                           [f"{checked} codes checked"] + bad)


def criterion_conic_censuses(cache: DeskCache) -> CriterionResult:
    """The bisecant census of the conic, and of the conic less one and
    less two points, at every q of the run equals its arc's census
    formulas.  An arc whose walk is over the budget is not surveyed."""
    bad, checked = [], []
    families = (("conic", "conic", conic_census_formulas),
                ("shortened conic", "conic-minus:1", shortened_conic_census_formulas),
                ("double-shortened conic", "conic-minus:2",
                 double_shortened_conic_census_formulas))
    for label, name, formulas in families:
        for q in cache.qs:
            try:
                got = bisecant_census(_named_arc(name, q)).classes
            except BudgetExceededError as refusal:
                checked.append(f"{label} q={q}: not surveyed: {refusal}")
                continue
            want = formulas(q)
            checked.append(f"{label} q={q}: {got}")
            if got != want:
                bad.append(f"{label} q={q}: census {got} != formulas {want}")
    return CriterionResult(4, "conic bisecant censuses", not bad, checked + bad)


def symmetry_failures(census: CosetCensus) -> tuple[int, list[str]]:
    """Reflection defects agree across every pair of weight-(d-2) classes,
    and of weight-2 classes when d >= 5."""
    _, d, _, _ = _ndqk(census)
    pairs = [pair for W in ((d - 2, 2) if d >= 5 else (d - 2,))
             for pair in combinations(census.classes_of_weight(W), 2)]
    return len(pairs), [f": defect mismatch between B={a.distribution.counts} and "
                        f"B={b.distribution.counts}" for a, b in pairs
                        if not symmetry_defect(a.distribution, b.distribution, d).matched]


def criterion_symmetry(cache: DeskCache) -> CriterionResult:
    pairs, bad = _over_corpus(cache, symmetry_failures)
    # frozen instance, when the run holds it: the two weight-2 classes of
    # [5,2,4]_5 defect to -10 at w=5
    frozen = cache.code(5, 4, 5)
    if frozen is not None:
        two = cache.census(frozen).classes_of_weight(2)
        rep = len(two) == 2 and symmetry_defect(two[0].distribution, two[1].distribution, 4)
        if not (rep and rep.matched and (5, -10, -10) in rep.pairs):
            bad.append("[5,2,4]_5 weight-2 pair: expected matched defect -10 at w=5")
    return CriterionResult(5, "symmetry of non-identical distributions", not bad,
                           [f"{pairs} class pairs compared"] + bad)


def aggregate_failures(census: CosetCensus) -> tuple[int, list[str]]:
    """At d >= 5, the sum of B_{d-2} over all weight-2 cosets equals
    (q-1) C(n,2) C(n-2,d-2); below, nothing is checked."""
    n, d, q, _ = _ndqk(census)
    if d < 5:
        return 0, []
    total = sum(cls.count * cls.distribution.counts[d - 2]
                for cls in census.classes_of_weight(2))
    want = weight2_aggregate(n, d, q)
    return 1, [f": aggregate {total} != {want}"] if total != want else []


def criterion_aggregate(cache: DeskCache) -> CriterionResult:
    checked, bad = _over_corpus(cache, aggregate_failures)
    inst = weight2_aggregate(6, 5, 5)
    if inst != 240:
        bad.append(f"(6,5,5) aggregate formula gave {inst}, expected 240")
    return CriterionResult(6, "weight-2 aggregate count", not bad,
                           [f"{checked} codes with d >= 5 checked; (6,5,5) -> {inst}"] + bad)


def covering_certificates(cache: DeskCache) -> tuple[list[str], list[str]]:
    """The fixed MCF certificates, each read only when the run holds its
    code: [5,2,4]_5 is a (3,10)-APMCF, the gtrs [6,3,4]_4 a (2,3)-PMCF,
    and the full-length d = 4 codes at q = 5, 7, 9, 11 have
    gamma_mu = 1+1/q."""
    bad, lines = [], []
    for code, label, kind, want in (
            (cache.code(5, 4, 5), "[5,2,4]_5", "APMCF", (3, 10, True, False)),
            (cache.code(4, 4, family="gtrs"), "[6,3,4]_4 gtrs", "PMCF", (2, 3, True, True))):
        if code is not None:
            rep = mcf_classify(code)
            lines.append(f"{label}: R={rep.R} mu={rep.mu} "
                         f"{kind}={rep.is_pmcf if kind == 'PMCF' else rep.is_apmcf}")
            if (rep.R, rep.mu, rep.is_apmcf, rep.is_pmcf) != want:
                bad.append(f"{label}: expected a ({want[0]},{want[1]})-{kind} certificate, "
                           f"got {rep}")
    for q in (5, 7, 9, 11):
        code = cache.code(q, 4)
        if code is not None:
            rep = mcf_classify(code)
            label = f"[{rep.n},{rep.k},4]_{q}"
            lines.append(f"{label}: gamma_mu = {rep.mu_density}")
            if rep.mu_density != 1 + Fraction(1, q):
                bad.append(f"{label}: gamma_mu {rep.mu_density} != 1+1/{q}")
            if rep.R == 2 and rep.d > 3:
                closed = mu_density_closed_form(rep.n, rep.k, q, rep.mu)
                if closed != rep.mu_density:
                    bad.append(f"{label}: closed form {closed} != census {rep.mu_density}")
    return lines, bad


def deep_hole_equality(cache: DeskCache) -> tuple[list[str], list[str]]:
    """Deep-hole coset counts vs (q-1)*Delta over every removal code.

    The equality is demanded whenever the parent reaches only d-2, yet the
    exhaustive censuses refute it for deep removals (smallest counterexample
    [4,1,4]_5: 24 weight-3 cosets, not 8; next [5,1,5]_5: 24 weight-4
    cosets, not 4), so expect failures here; they are genuine.  Each count
    is read from the memo its chain's run left.
    """
    bad = []
    removals = [entry for entry in cache.entries if entry.delta >= 1]
    for entry in removals:
        parent_R = cache.code(entry.q, entry.d).covering_radius()
        rep = count_deep_hole_cosets(entry.code, entry.construction, parent_R)
        if not rep.holds:
            bad.append(entry.label + rep.refutation)
    lines = [f"{len(removals)} column-removal codes checked against (q-1)*Delta"]
    return lines, bad


def criterion_covering(cache: DeskCache) -> CriterionResult:
    cert_lines, cert_bad = covering_certificates(cache)
    dh_lines, dh_bad = deep_hole_equality(cache)
    bad = cert_bad + dh_bad
    return CriterionResult(7, "covering classification", not bad,
                           cert_lines + dh_lines + bad)


def structural_failures(census: CosetCensus) -> tuple[int, list[str]]:
    """Totals q^k everywhere; s(C) = k where the nonzero-weight count is
    pinned; C(n,W)(q-1)^W weight-W cosets, each with one leader, for
    W <= floor((d-1)/2)."""
    n, d, q, k = _ndqk(census)
    bad = []
    for cls in census.classes:
        if cls.distribution.total() != q ** k:
            bad.append(f": class total {cls.distribution.total()} != q^k")
            break
    s = census.code_distribution().num_nonzero_weights()
    full = family_length("gdrs", q)
    if (n < full or (n == full and k != 2)) and s != k:
        bad.append(f": s(C) = {s} != k = {k}")
    for W in range(0, (d - 1) // 2 + 1):
        want = binom(n, W) * (q - 1) ** W
        got = census.count_of_weight(W)
        if got != want:
            bad.append(f": {got} weight-{W} cosets, expected {want}")
        bad += [f": weight-{W} coset leader not unique"
                for cls in census.classes_of_weight(W) if cls.distribution.counts[W] != 1]
    return 1, bad


def criterion_structural(cache: DeskCache) -> CriterionResult:
    checked, bad = _over_corpus(cache, structural_failures)
    return CriterionResult(8, "structural invariants", not bad, [f"{checked} codes checked"] + bad)


def criterion_remark_empirical(cache: DeskCache) -> CriterionResult:
    """Empirical survey: do all weight-2 cosets of the length-(q+1) codes
    with gcd(q-1, d-2) = 1 share one distribution?  Reported, never asserted.
    The prefixes B_0..B_{d-2} suffice, since they fix the whole
    distribution (criterion 1), and the classes of each code's
    certifying census, its memo, hold those of its weight-2 cosets, so
    the survey runs no kernel of its own.  A code whose certification is
    over the budget is not surveyed, and never built."""
    lines = []
    for q in cache.qs:
        n = family_length("gdrs", q)
        for d in (d for d in cache.ds if d in (5, 6) and d <= n):
            gcd = math.gcd(q - 1, d - 2)
            if gcd != 1:
                status = f"gcd(q-1,d-2)={gcd} != 1"
            else:
                try:
                    prefixes = cache.code(q, d).weight2_prefixes()
                except BudgetExceededError as refusal:
                    status = f"not surveyed: {refusal}"
                else:
                    predicted = weight2_identical_check(n, d, q).b_low_if_identical
                    status = (f"{'confirmed' if len(prefixes) == 1 else 'refuted'} "
                              f"(B_(d-2) values {sorted({p[d - 2] for p in prefixes})}, "
                              f"predicted {predicted})")
            lines.append(f"q={q} d={d}: {status}; empirical, not asserted")
    if not lines:
        lines.append("no instances with d in {5, 6} under the current filters")
    return CriterionResult(9, "weight-2 identity survey (reported, not asserted)",
                           True, lines)


CRITERIA = {
    1: ("oracle-equivalence", criterion_oracle_equivalence),
    2: ("bonneau-equality", criterion_bonneau_equality),
    3: ("closed-forms", criterion_closed_forms),
    4: ("conic-census", criterion_conic_censuses),
    5: ("symmetry", criterion_symmetry),
    6: ("aggregate", criterion_aggregate),
    7: ("covering", criterion_covering),
    8: ("structural", criterion_structural),
    9: ("remark-6-6", criterion_remark_empirical),
}

THEOREM_NAMES = {name: num for num, (name, _) in CRITERIA.items()}


def run_acceptance(cache: DeskCache, numbers=None) -> list[CriterionResult]:
    """Run the criteria `numbers` (all by default) on the corpus `cache`
    holds; the q and d filters are the cache's own."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    return [CRITERIA[num][1](cache) for num in numbers]
