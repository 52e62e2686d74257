"""The benchmark's three workloads: inputs made from a seed, the operations,
and checks of every output that hold whatever the seed.

desk           The paper's own corpus, as `mdscosets verify --corpus default`
               runs it: build `DeskCache()`, census each of the 89 desk codes
               (one operation each), then run criteria 1..9 one at a time.
               The dense ambient census dominates.  The corpus is fixed, so
               the seed and `--seconds` change nothing.
prefix-stream  A seeded stream of `dist` queries over (n, d, q), q <= 256,
               3 <= d <= 10.  Each query (one operation) evaluates both
               Bonneau forms and every closed form defined at (n, d); one
               query in 16 also goes through `cli.main`.  Big-integer
               formulas with mostly cold caches; `codes` is never called.
               The stream holds TUPLES_PER_SECOND * seconds tuples.
beyond-desk    Codes and planes above the ambient budget q^n <= 2*10^8,
               where only the sparse paths run: MDS certification, the
               low-weight census, covering classification and the
               bisecant geometry.  One operation is one code classified or
               one arc censused.  A fixed ladder; the seed picks which
               columns the removal codes drop, which does not change the
               cost.

A workload is a pair (setup, run).  setup(seed, seconds, rec) builds every
field the workload uses and returns the inputs; run(inputs, rec) performs
the operations through rec.op and rec.call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stdout
from pathlib import Path

from mdscosets import (DeepHoleMismatchError, InconsistentPrefixError,
                       LowWeightPrefix, binom, bisecant_census,
                       bonneau_original, bonneau_transformed, build_code,
                       conic_points, count_deep_hole_cosets, dist_weight1,
                       dist_weight2, dist_weight_d1, dist_weight_d2,
                       dist_weight_mid, field_of_order, geometry_code_bridge,
                       hyperoval_points, mcf_classify, mu_density_closed_form,
                       shortened_conic)
from mdscosets.cli import main as cli_main
from mdscosets.geometry import (conic_census_formulas,
                                double_shortened_conic_census_formulas,
                                hyperoval_census_formulas,
                                shortened_conic_census_formulas)
from mdscosets.verify import DESK_QS, DeskCache, run_acceptance

DESK_PINS = Path(__file__).with_name("desk_pins.json")


def _fields(qs, rec) -> None:
    for q in sorted(set(qs)):
        with rec.call("gf.field_of_order"):
            field_of_order(q)


# --- desk ---------------------------------------------------------------

REFUTATION = re.compile(r"^(?P<label>.+) \(Delta=\d+, parent R=\d+\): census counts "
                        r"(?P<census>\d+) weight-\d+ cosets, formula says (?P<formula>\d+)$")
# Substrings that mark every other failure line criterion 7 can print.
FAILURE_MARKS = ("expected", "!=", "below bound")


def census_digest(census) -> str:
    """Short digest of a census's classes: weight, coset count, distribution."""
    text = ";".join(f"{c.weight}:{c.count}:{','.join(map(str, c.distribution.counts))}"
                    for c in census.classes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def criterion_7_refutations(result) -> tuple[list[list], list[str]]:
    """(label, census count, formula count) of each refuted (q-1)*Delta
    claim, and any other failure line, in criterion 7's output."""
    found, other = [], []
    for line in result.lines:
        m = REFUTATION.match(line)
        if m:
            found.append([m["label"], int(m["census"]), int(m["formula"])])
        elif any(mark in line for mark in FAILURE_MARKS):
            other.append(line)
    return found, other


def acceptance_problems(results, refutations) -> list[str]:
    """The desk gate: criteria 1-6, 8 and 9 pass; criterion 7 fails with
    exactly the pinned refutations of (q-1)*Delta and no other line."""
    by_number = {r.number: r for r in results}
    problems = []
    if sorted(by_number) != list(range(1, 10)):
        problems.append(f"criteria run: {sorted(by_number)}, expected 1..9")
    for num, res in sorted(by_number.items()):
        if num != 7 and not res.passed:
            problems.append(f"criterion {num} failed: {res.lines[-1:]}")
    if 7 in by_number:
        found, other = criterion_7_refutations(by_number[7])
        if by_number[7].passed:
            problems.append("criterion 7 passed, but the paper's claim is pinned as refuted")
        problems += [f"criterion 7: unexpected failure line: {line}" for line in other]
        want = sorted(map(tuple, refutations))
        got = sorted(map(tuple, found))
        if got != want:
            problems.append(f"criterion 7 refutations drifted: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"new {sorted(set(got) - set(want))}")
    return problems


def setup_desk(seed: int, seconds: int, rec) -> dict:
    _fields(DESK_QS, rec)
    return json.loads(DESK_PINS.read_text())


def run_desk(pins: dict, rec) -> None:
    with rec.call("verify.DeskCache"):
        cache = DeskCache()
    for entry in cache.entries:
        q, n, r = entry.q, entry.n, entry.code.r
        with rec.op(entry.label) as op:
            with rec.call("codes.coset_census", census_vectors=q ** n,
                          census_table_bytes=q ** r * (n + 1) * 8):
                census = cache.census(entry)
            got, want = census_digest(census), pins["census"].get(entry.label)
            op.check(got == want, f"census digest {got} != pinned {want}")
    with rec.op("acceptance gate", latency=False) as op:
        labels = {e.label for e in cache.entries}
        op.check(labels == set(pins["census"]),
                 f"corpus drifted: missing {sorted(set(pins['census']) - labels)}, "
                 f"new {sorted(labels - set(pins['census']))}")
        results = []
        for k in range(1, 10):
            rec.speed.probe()  # the gate runs for seconds; keep the speed estimate local
            with rec.call(f"verify.criterion_{k}"):
                results += run_acceptance(cache=cache, numbers=[k])
        for problem in acceptance_problems(results, pins["criterion_7_refutations"]):
            op.fail(problem)


# --- prefix-stream ------------------------------------------------------

TUPLES_PER_SECOND = 70
PREFIXES_PER_TUPLE = 4
CLI_EVERY = 16


def _is_prime_power(q: int) -> bool:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = tuple(q for q in range(2, 257) if _is_prime_power(q))


def stream_tuples(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """`count` tuples (n, d, q) that visit every prime power q <= 256 in
    turn.  For each q, d cycles through 3..min(10, q+1) from a seeded
    offset and n is drawn from equal strata of [d, q+1], so the mix of
    sizes, and with it the cost, is the same for every seed."""
    rounds = -(-count // len(PRIME_POWERS))
    strata = {q: rng.sample(range(rounds), rounds) for q in PRIME_POWERS}
    offset = {q: rng.randrange(8) for q in PRIME_POWERS}
    out = []
    for i in range(count):
        q = PRIME_POWERS[i % len(PRIME_POWERS)]
        k = i // len(PRIME_POWERS)
        ds = range(3, min(10, q + 1) + 1)
        d = ds[(k + offset[q]) % len(ds)]
        span = q + 2 - d
        n = min(q + 1, d + int((strata[q][k] + rng.random()) / rounds * span))
        out.append((n, d, q))
    return out


def setup_prefix_stream(seed: int, seconds: int, rec) -> list[tuple]:
    """Queries (n, d, q, prefix B_0..B_{d-2}, mid-weight W or None, via_cli)."""
    rng = random.Random(seed)
    tuples = stream_tuples(rng, max(1, TUPLES_PER_SECOND * seconds))
    _fields((q for _, _, q in tuples), rec)
    queries = []
    for n, d, q in tuples:
        mids = list(range(2, (d - 1) // 2 + 1)) + list(range((d + 1) // 2, d - 2))
        for _ in range(PREFIXES_PER_TUPLE):
            counts = (rng.randint(0, 1),) + tuple(rng.randint(0, 99) for _ in range(d - 2))
            W = rng.choice(mids) if mids else None
            via_cli = len(queries) % CLI_EVERY == CLI_EVERY - 1
            queries.append((n, d, q, counts, W, via_cli))
    return queries


def _closed_forms(n: int, d: int, q: int, counts: tuple, W: int | None):
    """(function, arguments, the prefix it describes) for each closed form
    defined at (n, d); B_{d-2} and the mid-range knowns come from `counts`."""
    zero = [0] * (d - 1)
    w1 = zero.copy()
    w1[1] = 1
    forms = [(dist_weight1, (n, d, q), w1), (dist_weight_d1, (n, d, q), zero)]
    if d >= 4:
        b = max(1, counts[d - 2])
        p = zero.copy()
        p[d - 2] = b
        forms.append((dist_weight_d2, (n, d, q, b), p))
    if d >= 5:
        p = zero.copy()
        p[2], p[d - 2] = 1, counts[d - 2]
        forms.append((dist_weight2, (n, d, q, counts[d - 2]), p))
    if W is not None:
        knowns = counts[d - W:d - 1]
        p = zero.copy()
        p[d - W:d - 1] = knowns
        if W <= (d - 1) // 2:
            p[W] = 1
        forms.append((dist_weight_mid, (n, d, q, W, knowns), p))
    return forms


def _transformed(rec, n, d, q, counts):
    with rec.call("formulas.bonneau_transformed", prefixes=1):
        return bonneau_transformed(LowWeightPrefix(n, d, q, tuple(counts)), strict=False)


def run_query(query: tuple, rec, op) -> None:
    n, d, q, counts, W, via_cli = query
    prefix = LowWeightPrefix(n, d, q, counts)
    with rec.call("formulas.bonneau_original", prefixes=1):
        orig = bonneau_original(prefix, strict=False)
    tran = _transformed(rec, n, d, q, counts)
    op.check(orig == tran, "the two Bonneau forms disagree")
    for fn, args, ref_counts in _closed_forms(n, d, q, counts, W):
        # A closed form refuses exactly when the loose result has a negative count.
        ref = _transformed(rec, n, d, q, ref_counts)
        with rec.call(f"formulas.{fn.__name__}"):
            try:
                got = fn(*args)
            except InconsistentPrefixError:
                got = None
        want = ref if ref.is_nonnegative() else None
        op.check(got == want, f"{fn.__name__}{args} != bonneau_transformed({ref_counts})")
    if via_cli:
        original = counts[-1] % 2 == 1
        argv = ["dist", "--bonneau", "--n", str(n), "--d", str(d), "--q", str(q),
                "--prefix", ",".join(map(str, counts)), "--loose", "--format", "json"]
        out = io.StringIO()
        with rec.call("cli.main"), redirect_stdout(out):
            code = cli_main(argv + (["--original"] if original else []))
        op.check(code == 0, f"cli exit code {code}")
        if code == 0:
            payload = json.loads(out.getvalue())
            op.check([int(c) for c in payload["counts"]] == list(tran.counts)
                     and payload["consistent"] == tran.is_nonnegative(),
                     "cli JSON counts differ from the library's")


def run_prefix_stream(queries: list[tuple], rec) -> None:
    for query in queries:
        n, d, q = query[:3]
        with rec.op(f"dist n={n} d={d} q={q}") as op:
            run_query(query, rec, op)


# --- beyond-desk --------------------------------------------------------

# (q, d) of the full GDRS parents.  Each is classified with one seeded
# removal of each Delta in its tuple.  The Delta = 1 and 2 removals of
# (16, 5) are left out: their low-weight census alone peaks at 1.1-1.5 GB.
CODE_LADDER = (((11, 4), (1, 2)), ((11, 5), (1, 2)), ((11, 6), (1, 2)),
               ((13, 4), (1, 2)), ((13, 5), (1, 2)), ((16, 4), (1, 2)),
               ((16, 5), ()))
# Planes whose arcs get a bisecant census, and those whose conic also
# goes through the code bridge.  The steps between the q keep operation
# costs close together, and the cheap q = 13 arcs put the median inside
# the cluster of q = 19 arcs, so the median and tail latencies do not jump
# between far-apart operations.  q = 31 and bridges above q = 23 are left
# out: the q = 27 bridge peaks near 0.9 GB and the q = 31 one near 2 GB.
PLANE_QS = (13, 16, 17, 19, 23, 25, 27)
BRIDGE_QS = (16, 19, 23)

ARCS = {
    "conic": (conic_points, conic_census_formulas),
    "conic-minus-1": (lambda f: shortened_conic(f, 1), shortened_conic_census_formulas),
    "conic-minus-2": (lambda f: shortened_conic(f, 2), double_shortened_conic_census_formulas),
    "hyperoval": (hyperoval_points, hyperoval_census_formulas),
}


def setup_beyond_desk(seed: int, seconds: int, rec) -> list[tuple]:
    """Items ("code", q, d, removed columns) and ("arc" | "bridge", q, arc
    name), each parent code ahead of its removals."""
    rng = random.Random(seed)
    items = []
    for (q, d), deltas in CODE_LADDER:
        items.append(("code", q, d, ()))
        for delta in deltas:
            items.append(("code", q, d, tuple(sorted(rng.sample(range(q + 1), delta)))))
    for q in PLANE_QS:
        for name in ARCS:
            if name != "hyperoval" or q % 2 == 0:
                items.append(("arc", q, name))
        if q in BRIDGE_QS:
            items.append(("bridge", q, "conic"))
    _fields((item[1] for item in items), rec)
    return items


def _plane_work(q: int, n: int) -> int:
    """Incidence tests of a bisecant count: off-arc points x C(n, 2)."""
    return (q * q + q + 1 - n) * binom(n, 2)


def run_code(item: tuple, parent_R: dict, rec, op) -> None:
    _, q, d, removed = item
    fld = field_of_order(q)
    with rec.call("mds.build_code"):
        code, cons = build_code(fld, "gdrs", d, removed=removed)
    op.check((code.n, code.k) == (q + 1 - len(removed), q + 2 - d - len(removed)),
             f"built [{code.n},{code.k}]")
    with rec.call("covering.mcf_classify"):
        rep = mcf_classify(code)
    op.check(rep.d == d and rep.mu >= 1 and rep.R <= d - 1, f"MCF report {rep}")
    if rep.R == 2 and d > 3:
        closed = mu_density_closed_form(rep.n, rep.k, q, rep.mu)
        op.check(closed == rep.mu_density,
                 f"mu-density {rep.mu_density} != closed form {closed}")
    if not removed:
        parent_R[(q, d)] = rep.R
        return
    with rec.call("covering.count_deep_hole_cosets"):
        try:
            dh = count_deep_hole_cosets(code, cons, parent_R=parent_R.get((q, d)))
        except DeepHoleMismatchError:
            op.verdict("refuted")
            return
    if rep.R == d - 1:
        op.check(dh.count == rep.deep_hole_coset_count,
                 f"deep-hole count {dh.count} != {rep.deep_hole_coset_count} weight-R cosets")


def run_arc(item: tuple, rec, op) -> None:
    kind, q, name = item
    build, formulas = ARCS[name]
    arc = build(field_of_order(q))
    if kind == "arc":
        with rec.call("geometry.bisecant_census", incidence_tests=_plane_work(q, arc.n)):
            census = bisecant_census(arc)
    else:
        lowweight = sum(binom(arc.n, w) * (q - 1) ** w for w in range(4))
        with rec.call("geometry.geometry_code_bridge", incidence_tests=_plane_work(q, arc.n),
                      lowweight_vectors=lowweight):
            report = geometry_code_bridge(arc)
        census = report.census
        op.check(all(e.cosets == (q - 1) * e.points for e in report.entries),
                 "bridge coset counts are not (q-1) x points")
    op.check(census.classes == formulas(q),
             f"{name} census {census.classes} != formulas {formulas(q)}")


def run_beyond_desk(items: list[tuple], rec) -> None:
    parent_R: dict = {}
    for item in items:
        label = " ".join(map(str, item))
        with rec.op(label) as op:
            if item[0] == "code":
                run_code(item, parent_R, rec, op)
            else:
                run_arc(item, rec, op)


WORKLOADS = {
    "desk": (setup_desk, run_desk),
    "prefix-stream": (setup_prefix_stream, run_prefix_stream),
    "beyond-desk": (setup_beyond_desk, run_beyond_desk),
}
