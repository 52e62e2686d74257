"""Desk-corpus verification: every theorem-level claim the library makes,
checked against exact censuses of a fixed family of constructed codes.

The corpus holds every code the constructors produce for
q in {4, 5, 7, 8, 9, 11}, d in {3, 4, 5, 6}, d <= n <= q+1 (plus the
triply-extended length q+2 for even q at d = 4), subject to the fixed
size limit q^n <= DESK_AMBIENT_LIMIT = 2*10^8.  Censuses are cached.
The codes of one (q, d) are prefixes of one another, so one kernel run
per such chain counts the full census of every code in it that fits the
budget, and each of these codes is certified from its census.  Where
the limit cuts a gdrs chain short of length q+1 (q = 9 and 11), the run
goes on to q+1 when that fits the budget, and its table there, a
low-weight census at the chain's wmax, certifies the length-(q+1)
parent that criteria 7 and 9 read.  The criteria take these codes from
the cache and read them through the memos their censuses left, so a
full default-budget run counts each chain once: 24 kernel runs.

Each criterion returns a CriterionResult; `run_acceptance` executes the
requested subset and is shared by the test suite and the CLI `verify`
command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .codes import (DEFAULT_BUDGET, CosetCensus, LinearCode, Matrix, _prefix_censuses,
                    census_refusal, coset_census)
from .combinat import binom
from .covering import deep_hole_report, mcf_classify, mu_density_closed_form
from .formulas import (LowWeightPrefix, _double_sum_rows, _single_sum_rows,
                       bonneau_transformed, dist_weight1, dist_weight_d1,
                       symmetry_defect, weight2_aggregate,
                       weight2_identical_check)
from .gf import field_of_order
from .geometry import (bisecant_census, conic_census_formulas, conic_points,
                       double_shortened_conic_census_formulas, shortened_conic,
                       shortened_conic_census_formulas)
from .mds import (MdsConstruction, _certify, _family_code, _family_layout, family_length,
                  has_triple_extension)

DESK_QS = (4, 5, 7, 8, 9, 11)
DESK_DS = (3, 4, 5, 6)
DESK_AMBIENT_LIMIT = 2 * 10**8  # corpus membership, q^n; independent of the census budget


@dataclass(frozen=True)
class CorpusEntry:
    """A desk code and the recipe it was built from; q, d, family and
    Delta are the recipe's, n is the code's."""

    code: LinearCode
    construction: MdsConstruction
    q = property(lambda self: self.construction.q)
    d = property(lambda self: self.construction.d)
    n = property(lambda self: self.code.n)
    family = property(lambda self: self.construction.family)
    delta = property(lambda self: self.construction.delta)

    @property
    def label(self) -> str:
        return f"[{self.n},{self.code.k},{self.d}]_{self.q} {self.family}"


class DeskCache:
    """Corpus plus memoized censuses and the codes the criteria read.

    The gdrs codes of one (q, d) form a chain: each keeps the first n
    columns of the full-length code's matrix, built once per chain, so
    each is a prefix of the longest.  Full censuses fit the budget for a
    leading run of each chain (the work grows with n), and one kernel run
    at the longest of their lengths counts them all, handing back its
    table after each of those lengths; each such code is certified from
    the memo its census leaves (see codes._prefix_censuses).  A chain cut
    short of its family length runs on to the full-length parent when the
    run fits the budget there too; the parent's low-weight census leaves
    its memo, and only that is kept.  Any other corpus code is certified
    at n-k, as `build_code` does, in corpus order, so a small budget
    refuses the same code with the same step count.  The triply-extended
    code is a chain of its own.  `code` hands out the cache's own codes
    and builds (once, under the cache's budget) only the others,
    certifying each when first asked for: a parent from the memo its ride
    left, or at n-k when it did not ride, so no budget refuses where it
    did not.  `census` is keyed by code, so each code's kernel runs happen
    once per cache.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET, qs=DESK_QS, ds=DESK_DS):
        self.budget = budget
        self.qs = tuple(qs)
        self.ds = tuple(ds)
        self.entries: list[CorpusEntry] = []
        self._census: dict[LinearCode, CosetCensus] = {}
        self._codes: dict[tuple[int, int, int, str], LinearCode] = {}
        for q in self.qs:
            fld = field_of_order(q)
            length = family_length("gdrs", q)
            for d in self.ds:
                if d > length:
                    continue  # no gdrs code; the corpus adds no triple extension without one
                self._add_chain(fld, "gdrs", d, [n for n in range(d, length + 1)
                                                 if q ** n <= DESK_AMBIENT_LIMIT])
                if (has_triple_extension(q, d)
                        and q ** family_length("gtrs", q) <= DESK_AMBIENT_LIMIT):
                    self._add_chain(fld, "gtrs", d, [family_length("gtrs", q)])

    def _add_chain(self, fld, family: str, d: int, lengths: list[int]) -> None:
        """Add the family's codes of the given lengths, ascending, each the
        first n columns of the full-length code's matrix: one kernel run
        censuses those whose full census fits, and the full-length parent
        when the run fits on it too, then each code is certified in turn."""
        full, recipe = _family_code(fld, family, d, None, (), self.budget)
        built = [(full, recipe) if n == full.n else
                 (LinearCode(Matrix(fld, full.H.labels[:, :n]), self.budget),
                  MdsConstruction(recipe.family, fld.q, d,
                                  _family_layout(fld.q, family, d, n, ())[2]))
                 for n in lengths]
        fits = [code for code, _ in built if census_refusal(code, code.n) is None]
        riders = list(fits)
        if fits and built[-1][0] is not full and census_refusal(full, fits[-1].n) is None:
            riders.append(full)
        if fits:
            # zip stops at the corpus codes: a parent's table is dropped
            self._census.update(zip(fits, _prefix_censuses(riders, fits[-1].n)))
        for code, construction in built:
            _certify(code)
            self.entries.append(CorpusEntry(code, construction))
            self._codes[fld.q, d, code.n, construction.family] = code
        self._codes[fld.q, d, full.n, family] = full  # certified by `code`

    def census(self, code: LinearCode | CorpusEntry) -> CosetCensus:
        """Coset census of a code (or of a corpus entry's code), counted once."""
        if isinstance(code, CorpusEntry):
            code = code.code
        if code not in self._census:
            self._census[code] = coset_census(code)
        return self._census[code]

    def code(self, q: int, d: int, n: int | None = None,
             family: str = "gdrs") -> LinearCode:
        """The [n, n-d+1, d]_q family code, full length by default: the
        cache's own when it holds it, else built once, certified either way."""
        if n is None:
            n = family_length(family, q)
        key = (q, d, n, family)
        if key not in self._codes:
            self._codes[key], _ = _family_code(field_of_order(q), family, d, n, (),
                                               self.budget)
        _certify(self._codes[key])
        return self._codes[key]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    lines: list[str] = dataclass_field(default_factory=list)

    def summary(self) -> str:
        return f"criterion {self.number} [{self.name}]: {'PASS' if self.passed else 'FAIL'}"


def _prefix_of(entry: CorpusEntry, counts: tuple[int, ...]) -> LowWeightPrefix:
    return LowWeightPrefix(entry.n, entry.d, entry.q, counts[: entry.d - 1])


def criterion_oracle_equivalence(cache: DeskCache) -> CriterionResult:
    """Feeding each census class's low-weight prefix into the single-sum
    relation must reproduce the class's full distribution exactly."""
    bad = []
    classes = 0
    for entry in cache.entries:
        census = cache.census(entry)
        for cls in census.classes:
            classes += 1
            rebuilt = bonneau_transformed(_prefix_of(entry, cls.distribution.counts))
            if rebuilt != cls.distribution:
                bad.append(f"{entry.label} W={cls.weight}: {rebuilt.counts} "
                           f"!= census {cls.distribution.counts}")
    lines = [f"{len(cache.entries)} codes, {classes} census classes reconstructed"]
    lines += bad
    return CriterionResult(1, "oracle equivalence", not bad, lines)


IDENTITY_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)  # every prime power up to 16


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
    """Double-sum and single-sum forms agree on every prefix.  Both tails
    are K + P @ C, affine in the prefix P, and every prefix set holds the
    zero prefix and each unit prefix, so the forms agree everywhere
    exactly when their rows K and C agree entry for entry.  That identity
    is decided outright for every MDS (n, d, q) with q in IDENTITY_QS and
    for each corpus code's own (n, d, q); no census is read."""
    tuples = dict.fromkeys([(n, d, q) for q in IDENTITY_QS
                            for n in range(3, q + 3) for d in range(3, n + 1)]
                           + [(entry.n, entry.d, entry.q) for entry in cache.entries])
    bad = []
    for n, d, q in tuples:
        double, single = _double_sum_rows(n, d, q), _single_sum_rows(n, d, q)
        if double != single:
            bad.append(f"(n,d,q)=({n},{d},{q}): {_first_difference(d, double, single)}")
    verdict = (f"rows differ on {len(bad)}" if bad
               else "double-sum rows equal single-sum rows")
    lines = [f"{len(tuples)} (n, d, q) tuples: {verdict}"]
    lines += bad
    return CriterionResult(2, "double-sum vs single-sum equality", not bad, lines)


def criterion_closed_forms(cache: DeskCache) -> CriterionResult:
    """Weight-1 and weight-(d-1) closed forms match their census classes;
    the weight-1 class counts n(q-1) cosets."""
    bad = []
    for entry in cache.entries:
        census = cache.census(entry)
        n, d, q = entry.n, entry.d, entry.q
        w1 = census.classes_of_weight(1)
        if len(w1) != 1:
            bad.append(f"{entry.label}: {len(w1)} weight-1 classes")
            continue
        if w1[0].count != n * (q - 1):
            bad.append(f"{entry.label}: weight-1 class count {w1[0].count} != {n * (q - 1)}")
        if w1[0].distribution != dist_weight1(n, d, q):
            bad.append(f"{entry.label}: weight-1 distribution mismatch")
        top = census.classes_of_weight(d - 1)
        if len(top) > 1:
            bad.append(f"{entry.label}: {len(top)} distinct weight-(d-1) classes")
        elif top and top[0].distribution != dist_weight_d1(n, d, q):
            bad.append(f"{entry.label}: weight-(d-1) distribution mismatch")
    return CriterionResult(3, "weight-1 / weight-(d-1) closed forms", not bad,
                           [f"{len(cache.entries)} codes checked"] + bad)


CONIC_QS = (5, 7, 8)
SHORTENED_QS = (5, 7, 8, 9, 11)
DOUBLE_SHORTENED_QS = (7, 8, 9, 11)


def criterion_conic_censuses(cache: DeskCache) -> CriterionResult:
    bad = []
    checked = []
    families = (("conic", CONIC_QS, conic_points, conic_census_formulas),
                ("shortened conic", SHORTENED_QS,
                 lambda fld: shortened_conic(fld, 1), shortened_conic_census_formulas),
                ("double-shortened conic", DOUBLE_SHORTENED_QS,
                 lambda fld: shortened_conic(fld, 2),
                 double_shortened_conic_census_formulas))
    for label, qs, build, formulas in families:
        for q in qs:
            got = bisecant_census(build(field_of_order(q))).classes
            want = formulas(q)
            checked.append(f"{label} q={q}: {got}")
            if got != want:
                bad.append(f"{label} q={q}: census {got} != formulas {want}")
    return CriterionResult(4, "conic bisecant censuses", not bad, checked + bad)


def criterion_symmetry(cache: DeskCache) -> CriterionResult:
    """Reflection defects agree across every pair of weight-(d-2) classes,
    and of weight-2 classes when d >= 5."""
    bad = []
    pairs = 0
    for entry in cache.entries:
        census = cache.census(entry)
        n, d = entry.n, entry.d
        groups = [census.classes_of_weight(d - 2)]
        if d >= 5:
            groups.append(census.classes_of_weight(2))
        for classes in groups:
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    pairs += 1
                    rep = symmetry_defect(classes[i].distribution,
                                          classes[j].distribution, n, d)
                    if not rep.matched:
                        bad.append(f"{entry.label}: defect mismatch between "
                                   f"B={classes[i].distribution.counts} and "
                                   f"B={classes[j].distribution.counts}")
    # frozen instance: the two weight-2 classes of [5,2,4]_5 defect to -10 at w=5
    two = cache.census(cache.code(5, 4, 5)).classes_of_weight(2)
    inst_ok = len(two) == 2
    if inst_ok:
        rep = symmetry_defect(two[0].distribution, two[1].distribution, 5, 4)
        w5 = next(p for p in rep.pairs if p[0] == 5)
        inst_ok = rep.matched and w5[1] == -10 and w5[2] == -10
    if not inst_ok:
        bad.append("[5,2,4]_5 weight-2 pair: expected matched defect -10 at w=5")
    return CriterionResult(5, "symmetry of non-identical distributions", not bad,
                           [f"{pairs} class pairs compared"] + bad)


def criterion_aggregate(cache: DeskCache) -> CriterionResult:
    """Sum of B_{d-2} over all weight-2 cosets equals (q-1) C(n,2) C(n-2,d-2)."""
    bad = []
    checked = 0
    for entry in cache.entries:
        if entry.d < 5:
            continue
        checked += 1
        census = cache.census(entry)
        total = sum(cls.count * cls.distribution.counts[entry.d - 2]
                    for cls in census.classes_of_weight(2))
        want = weight2_aggregate(entry.n, entry.d, entry.q)
        if total != want:
            bad.append(f"{entry.label}: aggregate {total} != {want}")
    inst = weight2_aggregate(6, 5, 5)
    if inst != 240:
        bad.append(f"(6,5,5) aggregate formula gave {inst}, expected 240")
    return CriterionResult(6, "weight-2 aggregate count", not bad,
                           [f"{checked} codes with d >= 5 checked; (6,5,5) -> {inst}"] + bad)


def covering_certificates(cache: DeskCache) -> tuple[list[str], list[str]]:
    bad = []
    lines = []

    rep = mcf_classify(cache.code(5, 4, 5))
    lines.append(f"[5,2,4]_5: R={rep.R} mu={rep.mu} APMCF={rep.is_apmcf}")
    if not (rep.R == 3 and rep.mu == 10 and rep.is_apmcf and not rep.is_pmcf):
        bad.append(f"[5,2,4]_5: expected a (3,10)-APMCF certificate, got {rep}")

    rep = mcf_classify(cache.code(4, 4, family="gtrs"))
    lines.append(f"[6,3,4]_4 gtrs: R={rep.R} mu={rep.mu} PMCF={rep.is_pmcf}")
    if not (rep.R == 2 and rep.mu == 3 and rep.is_pmcf):
        bad.append(f"[6,3,4]_4 gtrs: expected a (2,3)-PMCF certificate, got {rep}")

    for q in (5, 7, 9, 11):
        rep = mcf_classify(cache.code(q, 4))
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
    [5,1,5]_5: 24 cosets, not 4), so expect failures here; they are genuine.
    """
    bad = []
    removals = 0
    for entry in cache.entries:
        if entry.delta < 1:
            continue
        removals += 1
        count = cache.census(entry).count_of_weight(entry.d - 1)
        parent_R = cache.code(entry.q, entry.d).covering_radius()
        rep = deep_hole_report(entry.construction, count, parent_R)
        if rep.holds:
            continue
        if rep.equality_required:
            bad.append(f"{entry.label} (Delta={rep.delta}, parent R={rep.parent_R}): "
                       f"census counts {count} weight-{entry.d - 1} cosets, "
                       f"formula says {rep.bound}")
        else:
            bad.append(f"{entry.label}: deep-hole count {count} below bound {rep.bound}")
    lines = [f"{removals} column-removal codes checked against (q-1)*Delta"]
    return lines, bad


def criterion_covering(cache: DeskCache) -> CriterionResult:
    cert_lines, cert_bad = covering_certificates(cache)
    dh_lines, dh_bad = deep_hole_equality(cache)
    bad = cert_bad + dh_bad
    return CriterionResult(7, "covering classification", not bad,
                           cert_lines + dh_lines + bad)


def criterion_structural(cache: DeskCache) -> CriterionResult:
    """Totals q^k everywhere; s(C) = k where the nonzero-weight count is
    pinned; the number of weight-W cosets for W <= floor((d-1)/2)."""
    bad = []
    for entry in cache.entries:
        census = cache.census(entry)
        n, d, q, k = entry.n, entry.d, entry.q, entry.code.k
        for cls in census.classes:
            if cls.distribution.total() != q ** k:
                bad.append(f"{entry.label}: class total {cls.distribution.total()} != q^k")
                break
        s = census.code_distribution().num_nonzero_weights()
        full = family_length("gdrs", q)
        if n < full or (n == full and k != 2):
            if s != k:
                bad.append(f"{entry.label}: s(C) = {s} != k = {k}")
        for W in range(0, (d - 1) // 2 + 1):
            want = binom(n, W) * (q - 1) ** W
            got = census.count_of_weight(W)
            if got != want:
                bad.append(f"{entry.label}: {got} weight-{W} cosets, expected {want}")
            for cls in census.classes_of_weight(W):
                if cls.distribution.counts[W] != 1:
                    bad.append(f"{entry.label}: weight-{W} coset leader not unique")
    return CriterionResult(8, "structural invariants", not bad,
                           [f"{len(cache.entries)} codes checked"] + bad)


def weight2_identity_survey(cache: DeskCache) -> list[dict]:
    """Empirical survey: do all weight-2 cosets of the length-(q+1) codes
    with gcd(q-1, d-2) = 1 share one distribution?  Reported, never asserted.
    The prefixes B_0..B_{d-2} suffice, since they fix the whole
    distribution (criterion 1), and the classes of each code's
    certifying census, its memo, hold those of its weight-2 cosets, so
    the survey runs no kernel of its own at any budget."""
    findings = []
    for q in cache.qs:
        n = family_length("gdrs", q)
        for d in cache.ds:
            if d not in (5, 6) or d > n:
                continue
            gcd = math.gcd(q - 1, d - 2)
            finding = {"q": q, "d": d, "n": n, "gcd": gcd}
            if gcd != 1:
                finding["status"] = "not applicable"
                findings.append(finding)
                continue
            cond = weight2_identical_check(n, d, q)
            finding["b_low_if_identical"] = cond.b_low_if_identical
            prefixes = cache.code(q, d).weight2_prefixes()
            finding["status"] = "confirmed" if len(prefixes) == 1 else "refuted"
            finding["b_values"] = sorted({p[d - 2] for p in prefixes})
            findings.append(finding)
    return findings


def criterion_remark_empirical(cache: DeskCache) -> CriterionResult:
    findings = weight2_identity_survey(cache)
    lines = []
    for f in findings:
        if f["status"] == "not applicable":
            lines.append(f"q={f['q']} d={f['d']}: gcd(q-1,d-2)={f['gcd']} != 1; "
                         "empirical, not asserted")
        else:
            lines.append(f"q={f['q']} d={f['d']}: {f['status']} "
                         f"(B_(d-2) values {f['b_values']}, "
                         f"predicted {f['b_low_if_identical']}); empirical, not asserted")
    if not findings:
        lines.append("no instances with d in {5, 6} under the current filters")
    complete = all("status" in f for f in findings)
    return CriterionResult(9, "weight-2 identity survey (reported, not asserted)",
                           complete, lines)


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


def run_acceptance(cache: DeskCache | None = None,
                   numbers=None) -> list[CriterionResult]:
    """Run the criteria `numbers` (all by default) on the corpus `cache`
    holds; the budget, q and d filters are the cache's own."""
    if cache is None:
        cache = DeskCache()
    if numbers is None:
        numbers = sorted(CRITERIA)
    return [CRITERIA[num][1](cache) for num in numbers]
