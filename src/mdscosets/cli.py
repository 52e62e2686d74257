"""Command-line front end.

Every run is fully determined by its arguments (no randomness anywhere),
so outputs are byte-reproducible.  Counts serialize as decimal strings,
never JSON numbers: they routinely exceed 2^53 and must survive any
consumer, and they print in full past Python's int-to-str digit limit.
Rationals print as "a/b".  Each field is built on its pinned modulus,
and `census code` and `covering classify` name a code by its family,
gdrs or gtrs, and the columns removed from it (the singly-extended code
is `--family gdrs --remove q`).  Each checks --budget, before building
the field, on the one census that bounds all it runs: its full census,
or the certification of the parent, whose columns hold the code's.

Exit codes: 0 success, 1 a refuted claim (a `verify` criterion, or the
(q-1)*Delta deep-hole check of `covering classify`; either prints its
full output first), 2 usage error, 3 budget refusal (work over
--budget, or counts that could pass 2^63; a `census geometry` walk or
`dist` formula rows over the default budget).  An --out path that cannot
be written is a usage error, refused before any other work and without
creating or truncating the file.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from .codes import (DEFAULT_BUDGET, BudgetExceededError, _check_budget, _check_census,
                    coset_census)
from .covering import count_deep_hole_cosets, mcf_classify, saturating_set_report
from .formulas import (LowWeightPrefix, bonneau_original, bonneau_transformed,
                       dist_weight1, dist_weight2, dist_weight_d1, dist_weight_d2,
                       dist_weight_mid)
from .geometry import _arc_layout, _check_walk, _named_arc, bisecant_census
from .gf import check_field_order, field_of_order
from .mds import FAMILIES, _certify, _family_code, _family_layout, family_length
from .verify import DESK_DS, DESK_QS, THEOREM_NAMES, DeskCache, run_acceptance

SCHEMA = "mdscosets.v1"


def _csv_ints(text: str, option: str) -> list[int]:
    ints = []
    for tok in filter(None, text.split(",")):
        try:
            ints.append(int(tok))
        except ValueError:
            raise ValueError(f"{option} takes comma-separated integers, got {tok!r}") from None
    return ints


def _code_from_args(args, full: bool):
    """The family code `census code` (full) and `covering classify` name,
    and its recipe; each command certifies it MDS itself.  Before the field
    is built, the recipe and the budget are checked as building would
    check them, then, from (q, length, n-k, wmax) alone, the one census
    that bounds the command: the full census (full), which also certifies
    the code, or the certification of the full-length parent (the code
    without --remove).  A removal code's own certification has fewer
    columns at the same n-k and wmax, so no more steps, vectors of weight
    <= wmax or q^k."""
    check_field_order(args.q)
    recipe = _family_layout(args.q, args.family, args.d, None,
                            _csv_ints(args.remove or "", "--remove"))
    _check_budget(args.budget)
    width = family_length(recipe.family, args.q)
    n = width - recipe.delta
    length, wmax = (n, n) if full else (width, recipe.d - 1)
    _check_census(args.q, length, recipe.d - 1, wmax, args.budget)
    return _family_code(field_of_order(args.q), recipe, args.budget), recipe


def _check_out(path: str) -> None:
    """Refuse, as writing would but neither creating nor truncating it, an
    --out path that is a directory, whose folder is missing or no folder,
    or that is not open to writing."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        why = errno.EISDIR
    elif not os.path.isdir(folder):
        why = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        why = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {path}: {os.strerror(why)}")


def _emit(args, payload, table_lines, csv_lines=None):
    """Print, or write to --out, the output in args.format.  The three
    arguments build the JSON payload, the table lines and the CSV lines;
    only the one args.format names is called."""
    fmt = args.format
    # exact counts print at any size; the digit limit holds again for input
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            text = json.dumps(payload(), indent=2)
        elif fmt == "csv":
            text = "\n".join(csv_lines())
        else:
            text = "\n".join(table_lines())
    finally:
        sys.set_int_max_str_digits(limit)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:  # as _check_out would have refused it
            raise ValueError(f"cannot write --out {args.out}: {err.strerror}") from None
    else:
        print(text)


def _strs(counts) -> list[str]:
    return [str(int(c)) for c in counts]


def cmd_dist(args) -> int:
    n, d, q = args.n, args.d, args.q
    if args.bonneau:
        if args.prefix is None:
            raise ValueError("--bonneau needs --prefix B_0,...,B_(d-2)")
        prefix = LowWeightPrefix(n, d, q, tuple(_csv_ints(args.prefix, "--prefix")))
        fn = bonneau_original if args.original else bonneau_transformed
        dist = fn(prefix, strict=not args.loose)
        form = "bonneau-original" if args.original else "bonneau-transformed"
    else:
        form = args.closed_form
        if form == "w1":
            dist = dist_weight1(n, d, q)
        elif form == "d1":
            dist = dist_weight_d1(n, d, q)
        elif form in ("d2", "w2"):
            if args.b is None:
                raise ValueError(f"--closed-form {form} needs --b B_(d-2)")
            fn = dist_weight_d2 if form == "d2" else dist_weight2
            dist = fn(n, d, q, args.b, strict=not args.loose)
        else:  # "mid", the last of the parser's choices
            if args.W is None or args.knowns is None:
                raise ValueError("--closed-form mid needs --W and --knowns")
            dist = dist_weight_mid(n, d, q, args.W, _csv_ints(args.knowns, "--knowns"),
                                   strict=not args.loose)
    consistent = dist.is_nonnegative()

    def payload():
        return {
            "schema": SCHEMA,
            "command": "dist",
            "form": form,
            "params": {"n": n, "d": d, "q": q},
            "counts": _strs(dist.counts),
            "total": str(dist.total()),
            "consistent": consistent,
        }

    def table():
        return ([f"coset distribution ({form}, n={n}, d={d}, q={q})", "  w  B_w"]
                + [f"{w:>3}  {c}" for w, c in enumerate(dist.counts)]
                + [f"total {dist.total()}" + ("" if consistent else "  (inconsistent)")])

    def csv_lines():
        return ["w,B_w"] + [f"{w},{c}" for w, c in enumerate(dist.counts)]
    _emit(args, payload, table, csv_lines)
    return 0


def cmd_census_code(args) -> int:
    code, construction = _code_from_args(args, full=True)
    census = coset_census(code)  # which also certifies the code
    _certify(code)
    q = code.field.q

    def payload():
        return {
            "schema": SCHEMA,
            "command": "census-code",
            "code": {"n": code.n, "k": code.k, "d": code.min_distance(),
                     "q": q, "family": construction.family,
                     "removed": list(construction.removed)},
            "total_cosets": str(census.total_cosets),
            "classes": [{
                "class_index": i,
                "weight_W": cls.weight,
                "coset_count": str(cls.count),
                "counts": _strs(cls.distribution.counts),
            } for i, cls in enumerate(census.classes)],
        }

    def table():
        return ([f"coset census of [{code.n},{code.k}]_{q} ({census.total_cosets} cosets)",
                 "  W  cosets  distribution"]
                + [f"{cls.weight:>3}  {cls.count:>6}  {list(cls.distribution.counts)}"
                   for cls in census.classes])

    def csv_lines():
        header = "class_index,weight_W,coset_count," + ",".join(
            f"B_{w}" for w in range(code.n + 1))
        return [header] + [
            f"{i},{cls.weight},{cls.count}," + ",".join(_strs(cls.distribution.counts))
            for i, cls in enumerate(census.classes)]
    _emit(args, payload, table, csv_lines)
    return 0


def cmd_census_geometry(args) -> int:
    name, q = args.arc, args.q
    _check_walk(q, _arc_layout(name, q)[1])  # every usage error, then the walk's budget
    arc = _named_arc(field_of_order(q), name)
    census = bisecant_census(arc)

    def payload():
        return {
            "schema": SCHEMA,
            "command": "census-geometry",
            "arc": name,
            "q": q,
            "arc_size": arc.n,
            "off_arc_points": str(census.covered),
            "classes": [{"bisecants": b, "points": str(npts)}
                        for b, npts in census.classes],
        }

    def table():
        return ([f"bisecant census of {name} ({arc.n} points) in PG(2,{q})",
                 "  bisecants  points"]
                + [f"{b:>10}  {npts}" for b, npts in census.classes])

    def csv_lines():
        return ["bisecants,points"] + [f"{b},{npts}" for b, npts in census.classes]
    _emit(args, payload, table, csv_lines)
    return 0


def cmd_covering(args) -> int:
    code, construction = _code_from_args(args, full=False)
    _certify(code)
    report = mcf_classify(code)
    sat = saturating_set_report(code, report)
    payload = {
        "schema": SCHEMA,
        "command": "covering-classify",
        "code": {"n": report.n, "k": report.k, "d": report.d, "q": report.q},
        "R": report.R,
        "mu": str(report.mu),
        "is_mcf": report.is_mcf,
        "is_apmcf": report.is_apmcf,
        "is_pmcf": report.is_pmcf,
        "mu_density": str(report.mu_density),
        "deep_hole_cosets": str(report.deep_hole_coset_count),
        "farthest_profile": [{"B_R": str(b), "cosets": str(c)}
                             for b, c in report.farthest_profile],
        "saturating_set": sat,
    }
    table = [
        f"covering classification of [{report.n},{report.k},{report.d}]_{report.q}",
        f"R = {report.R}, mu = {report.mu}",
        f"APMCF: {report.is_apmcf}   PMCF: {report.is_pmcf}",
        f"mu-density = {report.mu_density}",
        f"weight-R cosets: {report.deep_hole_coset_count}",
        sat.get("statement", sat.get("reason", "")),
    ]
    holds = True
    if construction.delta >= 1:
        dh = count_deep_hole_cosets(code, construction)
        holds = dh.holds
        payload["deep_hole_check"] = {
            "count": str(dh.count), "bound": str(dh.bound),
            "delta": dh.delta, "parent_R": dh.parent_R,
            "equality_required": dh.equality_required, "holds": holds,
        }
        table.append(f"deep-hole count {dh.count} vs (q-1)*Delta = {dh.bound} "
                     f"(parent R = {dh.parent_R})" + ("" if holds else ": refuted"))
    _emit(args, lambda: payload, lambda: table)
    return 0 if holds else 1


def cmd_verify(args) -> int:
    numbers = [THEOREM_NAMES[args.theorem]] if args.theorem else None
    cache = DeskCache(qs=DESK_QS if args.q is None else (args.q,),
                      ds=DESK_DS if args.d is None else (args.d,))
    results = run_acceptance(cache, numbers)
    all_passed = all(r.passed for r in results)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "all_passed": all_passed,
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "lines": r.lines} for r in results],
    }
    table = []
    for r in results:
        table.append(r.summary())
        table += [f"    {line}" for line in r.lines]
    _emit(args, lambda: payload, lambda: table)
    return 0 if all_passed else 1


@functools.cache  # one argparse tree per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    def options(formats):
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--format", choices=formats, default="table")
        common.add_argument("--out", help="write the output to a file")
        return common

    with_csv = options(("table", "json", "csv"))
    without_csv = options(("table", "json"))
    # the commands that build one family code, the only ones that read a
    # budget (the desk corpus of `verify` fits the default)
    family_code = argparse.ArgumentParser(add_help=False)
    family_code.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                             help="max syndrome-trellis steps n*wmax*(1+(q^(n-k)-1)/(q-1)) "
                                  "per count")
    family_code.add_argument("--family", choices=FAMILIES, required=True)
    family_code.add_argument("--q", type=int, required=True)
    family_code.add_argument("--d", type=int)
    family_code.add_argument("--remove", help="columns of the full family matrix to drop")

    parser = argparse.ArgumentParser(
        prog="mdscosets",
        description="exact coset weight distributions of MDS codes")
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", parents=[with_csv],
                          help="closed-form or Bonneau-computed coset distribution")
    mode = dist.add_mutually_exclusive_group(required=True)
    mode.add_argument("--closed-form", choices=("w1", "d1", "d2", "w2", "mid"))
    mode.add_argument("--bonneau", action="store_true")
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--d", type=int, required=True)
    dist.add_argument("--q", type=int, required=True)
    dist.add_argument("--b", type=int, help="known B_(d-2)")
    dist.add_argument("--W", type=int, help="coset weight for --closed-form mid")
    dist.add_argument("--knowns", help="B_(d-W),...,B_(d-2) for --closed-form mid")
    dist.add_argument("--prefix", help="B_0,...,B_(d-2) for --bonneau")
    dist.add_argument("--original", action="store_true",
                      help="use the double-sum form")
    dist.add_argument("--loose", action="store_true",
                      help="report inconsistent prefixes instead of erroring")
    dist.set_defaults(func=cmd_dist)

    census = sub.add_parser("census", help="coset or bisecant census")
    csub = census.add_subparsers(dest="what", required=True)
    ccode = csub.add_parser("code", parents=[with_csv, family_code])
    ccode.set_defaults(func=cmd_census_code)
    cgeom = csub.add_parser("geometry", parents=[with_csv])
    cgeom.add_argument("--q", type=int, required=True)
    cgeom.add_argument("--arc", required=True,
                       help="conic | hyperoval | conic-minus:K")
    cgeom.set_defaults(func=cmd_census_geometry)

    covering = sub.add_parser("covering", help="covering classification")
    covsub = covering.add_subparsers(dest="what", required=True)
    classify = covsub.add_parser("classify", parents=[without_csv, family_code])
    classify.set_defaults(func=cmd_covering)

    verify = sub.add_parser("verify", parents=[without_csv],
                            help="run the desk-corpus verification")
    verify.add_argument("--theorem", choices=sorted(THEOREM_NAMES), help="one criterion only")
    verify.add_argument("--q", type=int, help="restrict the corpus to one q")
    verify.add_argument("--d", type=int, help="restrict the corpus to one d")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out:  # a usage error, refused before any other work
            _check_out(args.out)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InconsistentPrefixError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
