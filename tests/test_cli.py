import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdscosets import cli, codes, geometry, mds, verify
from mdscosets.cli import main
from mdscosets.gf import GF, field_of_order
from mdscosets.mds import FAMILIES
from mdscosets.verify import THEOREM_NAMES, DeskCache, deep_hole_equality
from sieve import prime_powers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_closed_form_w1(capsys):
    code, out, _ = run(capsys, "dist", "--closed-form", "w1",
                       "--n", "6", "--d", "4", "--q", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "mdscosets.v1"
    assert payload["counts"] == ["0", "1", "0", "10", "35", "45", "34"]
    assert payload["total"] == "125"
    assert payload["consistent"] is True


def test_dist_bonneau_prefix(capsys):
    code, out, _ = run(capsys, "dist", "--bonneau", "--prefix", "0,0,2",
                       "--n", "5", "--d", "4", "--q", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == ["0", "0", "2", "4", "11", "8"]


def test_dist_bonneau_original_agrees(capsys):
    code, out, _ = run(capsys, "dist", "--bonneau", "--original",
                       "--prefix", "0,0,2", "--n", "5", "--d", "4", "--q", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == ["0", "0", "2", "4", "11", "8"]


def test_dist_closed_form_mid(capsys):
    code, out, _ = run(capsys, "dist", "--closed-form", "mid", "--W", "2",
                       "--knowns", "1", "--n", "6", "--d", "5", "--q", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == ["0", "0", "1", "1", "6", "11", "6"]


def test_dist_closed_form_w2_and_d2(capsys):
    code, out, _ = run(capsys, "dist", "--closed-form", "w2", "--b", "1",
                       "--n", "6", "--d", "5", "--q", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == ["0", "0", "1", "1", "6", "11", "6"]
    code2, out2, _ = run(capsys, "dist", "--closed-form", "d2", "--b", "3",
                         "--n", "6", "--d", "4", "--q", "5", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["counts"] == ["0", "0", "3", "8", "33", "48", "33"]


@pytest.mark.parametrize("mode, message", [
    (("--bonneau",), "--bonneau needs --prefix B_0,...,B_(d-2)"),
    (("--closed-form", "w2"), "--closed-form w2 needs --b B_(d-2)"),
    (("--closed-form", "d2"), "--closed-form d2 needs --b B_(d-2)"),
    (("--closed-form", "mid", "--W", "2"), "--closed-form mid needs --W and --knowns"),
    (("--closed-form", "mid", "--knowns", "1"), "--closed-form mid needs --W and --knowns"),
], ids=["bonneau", "w2", "d2", "mid-without-knowns", "mid-without-W"])
def test_dist_refuses_a_form_without_its_inputs(capsys, mode, message):
    code, out, err = run(capsys, "dist", *mode, "--n", "6", "--d", "5", "--q", "5")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("--closed-form", "w1", "--n", str(sys.maxsize + 1), "--d", "3", "--q", str(2**64)),
     f"n={sys.maxsize + 1} is too large to index a row (limit n < {sys.maxsize})"),
    (("--closed-form", "d1", "--n", str(sys.maxsize), "--d", "3", "--q", str(2**64)),
     f"n={sys.maxsize} is too large to index a row (limit n < {sys.maxsize})"),
    (("--closed-form", "mid", "--W", "2", "--knowns", "1",
      "--n", "6", "--d", str(sys.maxsize + 1), "--q", "5"),
     f"need 3 <= d <= n, got d={sys.maxsize + 1}, n=6"),
], ids=["w1", "d1", "mid"])
def test_dist_refuses_parameters_past_a_row_index(capsys, argv, message):
    # the first two overflowed the index range and the third asked for a
    # row of sys.maxsize entries, each with a traceback and exit 1, the
    # code of a refuted claim; each is a usage error now, before any row
    # is built
    code, out, err = run(capsys, "dist", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# with M = sys.maxsize and n = M-1, d = 3, q = 2^64: N = n-d+2 = M-2
# weights of 2 coefficients up to 2*63 + 2 + N bits and a K_w up to
# n + (N-1)*65 + 1 bits, and 864 bits for each of the 3N entries
MAXSIZE_CHARGE = (f"{(sys.maxsize - 2) * (68 * sys.maxsize + 2649)} bits ({sys.maxsize - 2} "
                  f"weights of 2 coefficients up to {sys.maxsize + 126} bits and a K_w up "
                  f"to {66 * sys.maxsize - 195}, and 864 bits for each of the "
                  f"{3 * (sys.maxsize - 2)} entries)")
CHARGE_2000 = ("3893772000 bits (1002 weights of 999 coefficients up to 3012 bits and a K_w "
               "up to 13012, and 864 bits for each of the 1002000 entries)")


@pytest.mark.parametrize("argv, charge", [
    (("--closed-form", "d1", "--n", str(sys.maxsize - 1), "--d", "3", "--q", str(2**64)),
     MAXSIZE_CHARGE),
    (("--closed-form", "w1", "--n", "2000", "--d", "1000", "--q", "2003"), CHARGE_2000),
    (("--bonneau", "--prefix", ",".join(["1"] + ["0"] * 998),
      "--n", "2000", "--d", "1000", "--q", "2003"), CHARGE_2000),
    (("--closed-form", "d1", "--n", "1400", "--d", "700", "--q", "1409"),
     "1467320400 bits (702 weights of 699 coefficients up to 2112 bits and a K_w up to 9112, "
     "and 864 bits for each of the 491400 entries)"),
    (("--closed-form", "d1", "--n", "1000000", "--d", "1000000", "--q", "1000003"),
     "1813999958 bits (2 weights of 999999 coefficients up to 42 bits and a K_w up to "
     "1000021, and 864 bits for each of the 2000000 entries)"),
], ids=["d1-below-the-index-limit", "w1", "bonneau", "d1-1400", "d1-at-d-equal-n"])
def test_dist_refuses_formula_rows_over_the_budget(capsys, argv, charge):
    # the first ended in a MemoryError traceback (exit 1), the second
    # took seconds and the last answered in seconds at 268 MiB; each is
    # refused from (n, d, q) before any row is built, and after every
    # usage error (the prefix has its d-1 values)
    start = time.perf_counter()
    code, out, err = run(capsys, "dist", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == (f"budget refusal: formula rows need {charge}, "
                   f"over the budget of {codes.DEFAULT_BUDGET}\n")


@pytest.mark.parametrize("n, d, q", [(5000, 5000, 5003), (3000, 2990, 3001)])
def test_dist_answers_rows_of_few_weights(capsys, n, d, q):
    # n-d+2 = 2 and 12 weights under thousands of columns: the charge,
    # 8.9e6 and 3.7e7 bits, counts the small entries they hold
    code, out, err = run(capsys, "dist", "--closed-form", "d1", "--n", str(n), "--d", str(d),
                         "--q", str(q), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["total"] == str(q ** (n - d + 1))


@pytest.mark.parametrize("argv, text", [
    (("--bonneau", "--prefix", "1,2"), "prefix must list B_0..B_3998 (3999 values), got 2"),
    (("--closed-form", "mid", "--W", "99", "--knowns", "1"),
     "need the 98 values B_3901..B_3998, got 1"),
], ids=["bonneau", "mid"])
def test_dist_usage_errors_come_before_the_row_charge(capsys, argv, text):
    # the rows of (5000, 4000, 5003) are over the budget, but a prefix or
    # knowns of the wrong length is a usage error first, as at (10, 7, 9)
    assert run(capsys, "dist", *argv, "--n", "5000", "--d", "4000", "--q", "5003") == (
        2, "", f"error: {text}\n")


@pytest.mark.parametrize("form", [("w1",), ("d1",), ("d2", "--b", "1"), ("w2", "--b", "0"),
                                  ("mid", "--W", "2", "--knowns", "1")],
                         ids=lambda form: form[0])
def test_a_closed_form_is_charged_before_its_prefix_is_laid_out(capsys, form):
    # each closed form's d-1 prefix entries come after the row charge:
    # at d = 2*10^7 they would take 160 MB
    big = str(2 * 10**7)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "dist", "--closed-form", *form,
                             "--n", big, "--d", big, "--q", big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "") and err.startswith("budget refusal: formula rows need ")
    assert peak < 1 << 24


# a weight-1 distribution whose largest count has 4341 digits, past
# Python's default int-to-str limit of 4300
BIG_DIST = ("dist", "--closed-form", "w1", "--n", "105", "--d", "3", "--q", str(2**140))


def _exact_int(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_dist_prints_counts_of_any_size(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *BIG_DIST, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert max(map(len, payload["counts"])) > limit
    counts = [_exact_int(c) for c in payload["counts"]]
    assert sum(counts) == _exact_int(payload["total"]) == (2**140) ** 103
    code, out, err = run(capsys, *BIG_DIST, "--format", "table")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == [f"{w:>3}  {c}" for w, c in enumerate(payload["counts"])] \
        + [f"total {payload['total']}"]
    code, out, err = run(capsys, *BIG_DIST, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"{w},{c}" for w, c in enumerate(payload["counts"])]
    # the limit holds again once the output is rendered, so an input of
    # that many digits is still refused
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "dist", "--closed-form", "d2", "--n", "6", "--d", "4",
                         "--q", "5", "--b", "9" * (limit + 1))
    assert (code, out) == (2, "")
    assert "invalid int value" in err


EXTREME = st.sampled_from((sys.maxsize - 1, sys.maxsize, 2**64, 10**30))


@st.composite
def cli_argvs(draw):
    """argv for one of the five commands, its integers small or, one time
    in six, extreme.  Extremes go only where they are refused before any
    work: a code or a walk gets a field of at most 9 elements, and
    `verify` a small q."""
    def num(small=st.integers(-1, 9)):
        return str(draw(EXTREME if draw(st.integers(0, 5)) == 0 else small))

    def csv(size=5):  # non-negative, so that argparse reads no value as an option
        return ",".join(num(st.integers(0, 9)) for _ in range(draw(st.integers(0, size))))

    def maybe(flag, value):
        return [flag, value] if draw(st.booleans()) else []

    budget = st.integers(-1, 10**4).map(str)
    formats = ("table", "json", "csv")
    command = draw(st.sampled_from(
        ("dist", "census code", "census geometry", "covering classify", "verify")))
    argv = command.split()
    if command == "dist":
        form = draw(st.sampled_from(("w1", "d1", "d2", "w2", "mid", "bonneau", "original")))
        argv += (["--closed-form", form] if form not in ("bonneau", "original")
                 else ["--bonneau"] + (["--original"] if form == "original" else []))
        # (n, d, q) near the MDS range: d <= n <= q+2 holds about half the time
        d = draw(st.integers(-1, 9))
        n = d + draw(st.integers(-1, 3))
        q = n + draw(st.integers(-3, 1))
        argv += ["--n", num(st.just(n)), "--d", num(st.just(d)), "--q", num(st.just(q)),
                 "--b", num(), "--W", num(), "--knowns", csv(), "--prefix", csv()]
        argv += draw(st.sampled_from(([], ["--loose"])))
    elif command == "census geometry":
        argv += ["--q", num(), "--arc", draw(st.sampled_from(
            ("conic", "hyperoval", "conic-minus:1", "conic-minus:2", "conic-minus:7", "line")))]
    elif command == "verify":
        argv += ["--q", num(st.sampled_from((-1, 2, 3, 4, 5, 6)))]
        argv += maybe("--d", num())
        argv += maybe("--theorem", draw(st.sampled_from(sorted(THEOREM_NAMES) + ["none"])))
        formats = formats[:2]
    else:  # census code, covering classify: a code over at most GF(5)
        argv += ["--family", draw(st.sampled_from(FAMILIES)),
                 "--q", num(st.sampled_from((-1, 2, 3, 4, 5, 6))), "--d", num(st.integers(2, 7))]
        argv += maybe("--remove", csv(2))
        argv += maybe("--budget", draw(budget))
        if command == "covering classify":
            formats = formats[:2]
    return argv + ["--format", draw(st.sampled_from(formats))]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(list(BIG_DIST))
@given(cli_argvs())
def test_every_call_ends_in_a_documented_exit_code(argv):
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2, 3)
    if argv == list(BIG_DIST):
        assert code == 0
    if code == 1:  # a refuted claim: verify, or the deep-hole check of a removal code
        assert argv[0] == "verify" or (
            argv[:2] == ["covering", "classify"] and err.getvalue() == ""
            and any(mark in out.getvalue() for mark in (": refuted\n", '"holds": false')))
    assert sys.get_int_max_str_digits() == limit


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "conic-census",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["criteria"][0]["number"] == 4


def test_dist_usage_error_for_small_d(capsys):
    code, _, err = run(capsys, "dist", "--closed-form", "w1",
                       "--n", "6", "--d", "2", "--q", "5")
    assert (code, err) == (2, "error: need 3 <= d <= n, got d=2, n=6\n")


@pytest.mark.parametrize("q", ["-3", "0", "1"])
def test_dist_refuses_a_field_size_below_2(capsys, q):
    code, _, err = run(capsys, "dist", "--closed-form", "w1",
                       "--n", "5", "--d", "4", "--q", q)
    assert code == 2
    assert f"q >= 2, got q={q}" in err
    code, _, err = run(capsys, "dist", "--bonneau", "--prefix", "0,0,1",
                       "--n", "5", "--d", "4", "--q", q)
    assert code == 2
    assert f"q >= 2, got q={q}" in err


def test_dist_inconsistent_prefix_loose(capsys):
    code, out, _ = run(capsys, "dist", "--bonneau", "--loose",
                       "--prefix", "0,0,50", "--n", "5", "--d", "4", "--q", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["consistent"] is False
    strict_code, _, err = run(capsys, "dist", "--bonneau",
                              "--prefix", "0,0,50", "--n", "5", "--d", "4", "--q", "5")
    assert strict_code == 2
    assert "inconsistent" in err


@pytest.mark.parametrize("loose", [(), ("--loose",)], ids=["strict", "loose"])
def test_dist_mid_refuses_a_negative_known(capsys, loose):
    assert run(capsys, "dist", "--closed-form", "mid", "--n", "10", "--d", "7", "--q", "9",
               "--W", "2", "--knowns=-5", *loose, "--format", "csv") == (
        2, "", "error: mid-weight knowns must be non-negative\n")


def test_dist_mid_honors_loose(capsys):
    # B_6 of this prefix comes out negative: refused, or printed under --loose
    argv = ("dist", "--closed-form", "mid", "--n", "10", "--d", "7", "--q", "9",
            "--W", "2", "--knowns", "99999")
    assert run(capsys, *argv) == (
        2, "", "error: inconsistent prefix: computed B_6 = -499855 < 0\n")
    code, out, err = run(capsys, *argv, "--loose")
    assert (code, err) == (0, "")
    assert " -499855" in out and out.endswith("  (inconsistent)\n")
    code, out, _ = run(capsys, *argv, "--loose", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["consistent"] is False and "-499855" in payload["counts"]


def test_an_inconsistent_count_past_the_digit_limit_is_named_by_its_size(capsys):
    # B_4 comes out negative with 4303 digits, past Python's int-to-str
    # limit of 4300, so the error names its sign and digit count instead;
    # a count within the limit is printed as it is
    code, out, err = run(capsys, "dist", "--closed-form", "d2", "--n", "1500", "--d", "5",
                         "--q", "1499", "--b", "9" * 4299)
    assert (code, out) == (2, "")
    assert err == "error: inconsistent prefix: computed B_4 = -(a 4303-digit number) < 0\n"
    assert run(capsys, "dist", "--bonneau", "--prefix", "0,0,50", "--n", "5", "--d", "4",
               "--q", "5") == (2, "", "error: inconsistent prefix: computed B_3 = -140 < 0\n")


def test_census_code_classes(capsys):
    code, out, _ = run(capsys, "census", "code", "--family", "gdrs",
                       "--q", "5", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 4
    assert payload["total_cosets"] == "125"
    weights = [c["weight_W"] for c in payload["classes"]]
    assert weights == sorted(weights)


def test_census_code_csv_columns(capsys):
    code, out, _ = run(capsys, "census", "code", "--family", "gdrs",
                       "--q", "5", "--d", "4", "--format", "csv")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("class_index,weight_W,coset_count,B_0,")
    assert head.endswith("B_6")


def test_census_budget_refusal(capsys):
    # certifying [14,7,8]_13 needs 14*7*(1 + (13^7-1)/12) = 5.1*10^8
    # kernel steps, over the default budget, while 13^14 stays below 2^63
    code, _, err = run(capsys, "census", "code", "--family", "gdrs",
                       "--q", "13", "--d", "8")
    assert code == 3
    assert "budget" in err


def test_census_code_refuses_before_any_kernel_run(capsys, kernel_runs):
    # certifying [6,3,4]_5 takes 576 steps and its full census 1152: the
    # command runs only the full census, which also certifies the code, so
    # every budget under 1152 names its 1152 steps before any kernel run
    argv = ("census", "code", "--family", "gdrs", "--q", "5", "--d", "4")
    code, out, err = run(capsys, *argv, "--budget", "1151")
    assert (code, out, kernel_runs) == (3, "", [])
    assert err == ("budget refusal: syndrome trellis needs 1152 steps "
                   "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 1151\n")
    code, _, err = run(capsys, *argv, "--budget", "575")
    assert code == 3 and "needs 1152 steps" in err and kernel_runs == []
    code, out, _ = run(capsys, *argv, "--budget", "1152", "--format", "json")
    assert code == 0 and [wmax for _, wmax, _ in kernel_runs] == [6]
    assert json.loads(out)["code"]["d"] == 4
    # a usage error still comes before a budget refusal
    code, _, err = run(capsys, *argv, "--remove", "9", "--budget", "1")
    assert code == 2 and "out of range" in err
    assert [wmax for _, wmax, _ in kernel_runs] == [6]


def _refusal(steps, budget=200_000_000):
    return (f"budget refusal: syndrome trellis needs {steps} steps "
            f"n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of {budget}\n")


def test_budget_refusals_come_before_the_field_is_built(capsys, monkeypatch):
    # (q, n, n-k, wmax) alone fix each refusal, so neither the field's
    # tables nor the kernel are built for it
    def no_work(*args):
        raise AssertionError("work before the refusal")
    monkeypatch.setattr(GF, "_build_tables", no_work)
    monkeypatch.setattr(codes, "_syndrome_trellis", no_work)
    gdrs = ("--family", "gdrs", "--d", "3")
    cases = [
        # the full census of [65537,65535,3]_65536, and its certification
        # at n-k = 2
        (("census", "code", "--q", "65536", *gdrs), _refusal(65537 * 65537 * 65538)),
        (("covering", "classify", "--q", "65536", *gdrs), _refusal(65537 * 2 * 65538)),
        # the full census of [4097,4095,3]_4096, whose certification fits
        (("census", "code", "--q", "4096", *gdrs), _refusal(4097 * 4097 * 4098)),
        (("covering", "classify", "--q", "4096", *gdrs, "--budget", "1000"),
         _refusal(4097 * 2 * 4098, 1000)),
        # [13,10,4]_13 certifies in 7176 steps, its parent [14,11,4]_13 in
        # 7728: under either, the refusal names the 7728 the command needs
        (("covering", "classify", "--family", "gdrs", "--q", "13", "--d", "4",
          "--remove", "1", "--budget", "7500"), _refusal(7728, 7500)),
        (("covering", "classify", "--family", "gdrs", "--q", "13", "--d", "4",
          "--remove", "1", "--budget", "7000"), _refusal(7728, 7000)),
    ]
    for argv, refusal in cases:
        assert run(capsys, *argv) == (3, "", refusal), argv
    # the field's own refusals still come first, with their texts
    for q, text in [("6", "6 is not a prime power"),
                    ("131072", "field order 131072 exceeds the configured maximum 65536")]:
        argv = ("census", "code", "--q", q, *gdrs)
        assert run(capsys, *argv) == (2, "", f"error: {text}\n"), argv


@pytest.fixture
def charges(monkeypatch):
    """Every work codes._charge is asked to charge, and every field a
    plan's run asks for, in order."""
    events = []
    charge, fields = codes._charge, mds.field_of_order

    def charged(work, budget, needs):
        events.append(("charge", work))
        charge(work, budget, needs)

    def field(q):
        events.append(("field", q))
        return fields(q)
    monkeypatch.setattr(codes, "_charge", charged)
    monkeypatch.setattr(mds, "field_of_order", field)
    return events


def _plan_and_kernel(events):
    """The works charged before the first field is asked for, and after it."""
    first = next((i for i, (kind, _) in enumerate(events) if kind == "field"), len(events))
    return ([work for _, work in events[:first]],
            [work for kind, work in events[first:] if kind == "charge"])


def test_the_plan_charge_bounds_every_kernel_charge(capsys, charges):
    # each command charges the runs it lays out before it asks for any
    # field, the one that bounds the rest first, and the kernel then
    # charges the same runs as it makes them; one step less refuses the
    # command before any field.  The desk charges its 24 chain runs so
    # too
    cases = [(*command, "--family", family, "--q", str(q), "--d", str(d), *removed)
             for q in prime_powers(16)
             for family, d in [("gdrs", d) for d in range(3, 7)] + [("gtrs", 4)] * (q % 2 == 0)
             for removed in ((), ("--remove", "0"), ("--remove", "0,1"))
             for command in (("census", "code"), ("covering", "classify"))]
    ran = 0
    for argv in cases:
        charges.clear()
        code, _, _ = run(capsys, *argv)
        if code == 2:  # no such family code: refused before any charge
            assert charges == [], argv
            continue
        plan, kernel = _plan_and_kernel(charges)
        assert code in (0, 1) and plan == kernel and plan[0] == max(kernel), argv
        charges.clear()
        code, out, err = run(capsys, *argv, "--budget", str(plan[0] - 1))
        assert (code, out, _plan_and_kernel(charges)) == (3, "", ([plan[0]], [])), argv
        assert err == _refusal(plan[0], plan[0] - 1)
        ran += 1
    assert ran == 202
    charges.clear()
    DeskCache()
    plan, kernel = _plan_and_kernel(charges)
    assert len(plan) == 24 and plan == kernel


@pytest.mark.parametrize("argv, option, token", [
    (("census", "code", "--family", "gdrs", "--q", "5", "--d", "4", "--remove", "1,x"),
     "--remove", "x"),
    (("covering", "classify", "--family", "gdrs", "--q", "5", "--d", "4", "--remove", "2.0"),
     "--remove", "2.0"),
    (("dist", "--bonneau", "--prefix", "0,y,1", "--n", "5", "--d", "4", "--q", "5"),
     "--prefix", "y"),
    (("dist", "--closed-form", "mid", "--W", "2", "--knowns", "1,,z",
      "--n", "6", "--d", "5", "--q", "5"), "--knowns", "z"),
])
def test_a_list_option_names_the_token_it_cannot_read(capsys, argv, option, token):
    assert run(capsys, *argv) == (
        2, "", f"error: {option} takes comma-separated integers, got {token!r}\n")


def test_census_int64_overflow_refusal(capsys):
    # the kernel's work, about 3.5*10^7, is inside the budget, but a count
    # of the [33,31,3]_32 census may reach q^k = 32^31, past int64
    assert run(capsys, "census", "code", "--family", "gdrs", "--q", "32", "--d", "3") == (
        3, "", f"budget refusal: entries up to q^k = {32**31} overflow the int64 "
               "counts (limit 2^63)\n")
    # [17,14,4]_16 and gtrs [18,15,4]_16 hold 16^17 and 16^18 vectors,
    # past int64, but no count of their censuses passes 16^15 = 2^60
    for argv, head in ((("--family", "gdrs", "--q", "16", "--d", "4"), "[17,14]_16 (4096"),
                       (("--family", "gtrs", "--q", "16"), "[18,15]_16 (4096")):
        code, out, err = run(capsys, "census", "code", *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"coset census of {head} cosets)\n")


def _digits(x):
    """Decimal digits of |x|, past Python's int-to-str limit too."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(abs(x)))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, q, d, n, wmax", [
    ("census code", 4096, 4000, 4097, 4097),
    ("covering classify", 4096, 4000, 4097, 3999),
    ("census code", 2048, 1400, 2049, 2049),
], ids=["census-4096", "covering-4096", "census-2048"])
def test_a_refusal_names_a_count_past_the_digit_limit_by_its_size(capsys, command, q, d, n, wmax):
    # each run's steps have more digits than Python converts to a string
    # (4300 by default): the refusal names how many, and exits 3
    digits = _digits(n * wmax * codes.census_rows(q, d - 1))
    assert digits > sys.get_int_max_str_digits()
    start = time.perf_counter()
    assert run(capsys, *command.split(), "--family", "gdrs", "--q", str(q), "--d", str(d)) == (
        3, "", _refusal(f"(a {digits}-digit number)"))
    assert time.perf_counter() - start < 1


def test_the_int64_refusal_of_a_long_code_comes_at_once(capsys):
    # the steps of [4097,4095,3]_4096 and [65537,65535,3]_65536 fit a
    # budget of 10^30, but a count may reach q^k: the guard stops adding
    # up the vectors of weight <= wmax once they pass q^k (summing them
    # all took 1.9 s at q = 4096, and over 5 minutes at q = 65536)
    for q, digits in ((4096, 14793), (65536, 315649)):
        assert int(math.log10(q ** (q - 1))) + 1 == digits  # no str() of q^k: it is slow
        start = time.perf_counter()
        assert run(capsys, "census", "code", "--family", "gdrs", "--q", str(q), "--d", "3",
                   "--budget", str(10**30)) == (
            3, "", f"budget refusal: entries up to q^k = (a {digits}-digit number) "
                   "overflow the int64 counts (limit 2^63)\n")
        assert time.perf_counter() - start < 1, q


def test_census_geometry(capsys):
    code, out, _ = run(capsys, "census", "geometry", "--q", "5",
                       "--arc", "conic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == [{"bisecants": 3, "points": "10"},
                                  {"bisecants": 2, "points": "15"}]
    code2, out2, _ = run(capsys, "census", "geometry", "--q", "5",
                         "--arc", "conic-minus:1", "--format", "json")
    assert code2 == 0
    assert len(json.loads(out2)["classes"]) == 3
    code3, _, err = run(capsys, "census", "geometry", "--q", "5", "--arc", "moon")
    assert code3 == 2 and "unknown arc" in err


@pytest.mark.parametrize("q, arc, text", [
    ("739", "hyperoval", "hyperoval requires even q, got q=739"),
    ("65536", "conic-minus:3", "remove one or two conic points"),
    ("5", "conic-minus:x", "unknown arc 'conic-minus:x' (conic, hyperoval, conic-minus:K)"),
], ids=["hyperoval-739", "conic-minus-3", "conic-minus-x"])
def test_census_geometry_usage_errors_come_before_the_budget_and_the_field(
        capsys, monkeypatch, q, arc, text):
    # the arc is decided from its name and q alone, before the walk
    # budget (the hyperoval of PG(2, 739) would be over it) and before the
    # field (GF(65536) takes over a second to build)
    def too_early(*args):
        raise AssertionError("the walk budget or the field came before the usage error")

    monkeypatch.setattr(geometry, "_check_walk", too_early)
    monkeypatch.setattr(geometry, "field_of_order", too_early)
    assert run(capsys, "census", "geometry", "--q", q, "--arc", arc) == (
        2, "", f"error: {text}\n")


_LIBRARY_GTRS = {
    "family_length": lambda q: mds.family_length("gtrs", q),
    "build_code": lambda q: mds.build_code(field_of_order(q), "gtrs"),
    "hyperoval_points": lambda q: geometry.hyperoval_points(field_of_order(q)),
    "hyperoval_census_formulas": geometry.hyperoval_census_formulas,
}
_CLI_GTRS = {
    "census-code": ("census", "code", "--family", "gtrs"),
    "census-code-d5": ("census", "code", "--family", "gtrs", "--d", "5"),
    "covering-classify": ("covering", "classify", "--family", "gtrs"),
    "census-geometry": ("census", "geometry", "--arc", "hyperoval"),
}


@pytest.mark.parametrize("q", [3, 9])
@pytest.mark.parametrize("entry", [*_LIBRARY_GTRS, *_CLI_GTRS])
def test_the_triply_extended_family_is_refused_at_odd_q_with_one_text(capsys, entry, q):
    # mds.family_length makes the one refusal; every library and CLI entry
    # that reaches the family or its arc, the hyperoval, passes it on
    text = f"hyperoval requires even q, got q={q}"
    if entry in _LIBRARY_GTRS:
        with pytest.raises(ValueError) as err:
            _LIBRARY_GTRS[entry](q)
        assert str(err.value) == text
    else:
        assert run(capsys, *_CLI_GTRS[entry], "--q", str(q)) == (2, "", f"error: {text}\n")


def test_census_geometry_refuses_a_walk_over_the_budget_before_any_field(capsys, monkeypatch):
    # the conic of PG(2, 4096) has C(4097, 2)*4095 walk steps; no field
    # table, plane array or walk step comes before the refusal
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(geometry, "field_of_order", no_field)
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "geometry", "--q", "4096", "--arc", "conic")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("budget refusal: bisecant walk needs 34359736320 point normalizations "
                   "C(n,2)*(q-1), over the budget of 200000000\n")
    for arc in ("hyperoval", "conic-minus:1", "conic-minus:2"):
        code, _, err = run(capsys, "census", "geometry", "--q", "1024", "--arc", arc)
        assert code == 3 and "bisecant walk needs" in err
    # the smallest conic over the budget, which the library's walk would
    # also refuse, is refused here before its field is built
    code, out, err = run(capsys, "census", "geometry", "--q", "739", "--arc", "conic")
    assert (code, out) == (3, "")
    assert err == ("budget refusal: bisecant walk needs 201791340 point normalizations "
                   "C(n,2)*(q-1), over the budget of 200000000\n")


def test_field_order_usage_errors_come_first_in_constant_time(capsys):
    # both commands refuse q itself before any budget check, and a q over
    # the maximum before it is factorized, which at 10^18+3 would take
    # about 10^9 trial divisions
    huge = 10**18 + 3
    for q, text in [(10000, "10000 is not a prime power"),
                    (65537, "field order 65537 exceeds the configured maximum 65536"),
                    (huge, f"field order {huge} exceeds the configured maximum 65536")]:
        for argv in (("census", "geometry", "--arc", "conic"),
                     ("census", "code", "--family", "gdrs", "--d", "3")):
            start = time.perf_counter()
            assert run(capsys, *argv, "--q", str(q)) == (2, "", f"error: {text}\n"), argv
            assert time.perf_counter() - start < 1, (q, argv)


def test_census_geometry_outputs_up_to_q_64_are_pinned(capsys):
    # every arc, in every format, for each of the 27 planes q <= 64, as
    # before the walk had a size guard (the digest of the outputs then)
    digest = hashlib.sha256()
    for q in prime_powers(64):
        for arc in ("conic", "hyperoval", "conic-minus:1", "conic-minus:2"):
            for fmt in ("table", "json", "csv"):
                code, out, err = run(capsys, "census", "geometry", "--q", str(q),
                                     "--arc", arc, "--format", fmt)
                digest.update(f"{q} {arc} {fmt} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == \
        "c108216591999e3f20d1212ce4c9356a6f9ac2fc4b0d8e9fe045f0ca99407085"


@pytest.mark.parametrize("argv, text", [
    (("census", "code", "--family", "gdrs", "--q", "8", "--d", "3", "--poly", "1,0,1,1"),
     "unrecognized arguments: --poly 1,0,1,1"),
    (("census", "geometry", "--q", "8", "--arc", "hyperoval", "--poly", "1,0,1,1"),
     "unrecognized arguments: --poly 1,0,1,1"),
    (("covering", "classify", "--family", "gdrs", "--q", "8", "--d", "4", "--poly", "1,0,1,1"),
     "unrecognized arguments: --poly 1,0,1,1"),
    (("census", "code", "--family", "grs", "--q", "5", "--d", "4"),
     "argument --family: invalid choice: 'grs'"),
    (("covering", "classify", "--family", "grs", "--q", "5", "--d", "4"),
     "argument --family: invalid choice: 'grs'"),
], ids=["census-code-poly", "census-geometry-poly", "covering-poly",
        "census-code-grs", "covering-grs"])
def test_no_modulus_option_and_no_grs_family(capsys, argv, text):
    # every field takes its pinned modulus, and the singly-extended code
    # is spelled --family gdrs --remove q: both are usage errors
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: mdscosets ") and text in err


HOLDS = ',\n    "holds": true'


def test_gdrs_removal_spells_the_singly_extended_code(capsys):
    # `census code` and `covering classify` of --family gdrs --remove q
    # print, in table and json, the bytes --family grs printed (the digest
    # of those outputs), with the deep-hole check's "holds" key added
    digest = hashlib.sha256()
    for q, d in ((4, 3), (5, 4), (7, 3), (8, 5)):
        for command in (("census", "code"), ("covering", "classify")):
            for fmt in ("table", "json"):
                code, out, err = run(capsys, *command, "--family", "gdrs", "--remove", str(q),
                                     "--q", str(q), "--d", str(d), "--format", fmt)
                if command[0] == "covering" and fmt == "json":
                    # the one key added since: each of these deep-hole checks holds
                    assert out.count(HOLDS) == 1
                    out = out.replace(HOLDS, "")
                digest.update(f"{q} {d} {' '.join(command)} {fmt} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == \
        "4b204bc61bffd0bf182e5f0e87983cf1d04d0bc5b060da6c73da637259022230"


def test_covering_classify_gtrs(capsys):
    code, out, _ = run(capsys, "covering", "classify", "--family", "gtrs",
                       "--q", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 2 and payload["mu"] == "3"
    assert payload["is_pmcf"] is True
    assert payload["saturating_set"]["kind"] == "OS"


def test_covering_classify_grs_with_deep_hole_check(capsys):
    # the singly-extended [5,2,4]_5 code: the gdrs code less column q
    code, out, _ = run(capsys, "covering", "classify", "--family", "gdrs", "--remove", "5",
                       "--q", "5", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 3 and payload["mu"] == "10"
    assert payload["is_apmcf"] is True
    assert payload["deep_hole_check"]["count"] == "4"
    assert payload["deep_hole_check"]["equality_required"] is True


def test_covering_classify_counterexample_exits_1(capsys):
    # the [5,1,5]_5 removal refutes the deep-hole formula: the whole
    # classification is printed, the deep-hole line marked refuted
    code, out, err = run(capsys, "covering", "classify", "--family", "gdrs",
                         "--q", "5", "--d", "5", "--remove", "5")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "R = 4, mu = 5" in lines
    assert "the 5 parity-check columns form a (3,5)-OS set in PG(3,5)" in lines
    assert lines[-1] == "deep-hole count 24 vs (q-1)*Delta = 4 (parent R = 3): refuted"


def test_covering_classify_reports_what_criterion_7_reports(capsys):
    # [4,1,4]_5, the smallest refuted removal: its JSON deep-hole check
    # is the report criterion 7 prints
    code, out, err = run(capsys, "covering", "classify", "--family", "gdrs", "--q", "5",
                         "--d", "4", "--remove", "4,5", "--format", "json")
    assert (code, err) == (1, "")
    check = json.loads(out)["deep_hole_check"]
    assert check == {"count": "24", "bound": "8", "delta": 2, "parent_R": 2,
                     "equality_required": True, "holds": False}
    line = (f"[4,1,4]_5 gdrs (Delta={check['delta']}, parent R={check['parent_R']}): "
            f"census counts {check['count']} weight-3 cosets, formula says {check['bound']}")
    assert line in deep_hole_equality(DeskCache(qs=(5,), ds=(4,)))[1]


def test_verify_theorem_subsets(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "conic-census")
    assert code == 0
    assert "criterion 4" in out and "PASS" in out
    code2, out2, _ = run(capsys, "verify", "--theorem", "symmetry", "--q", "5")
    assert code2 == 0
    code3, out3, _ = run(capsys, "verify", "--theorem", "remark-6-6", "--q", "5")
    assert code3 == 0
    assert "empirical, not asserted" in out3


def test_criterion_2_counts_the_tuples_it_compares(capsys):
    # n-d+2 values of q for each 3 <= d <= n <= 18, whatever the filters:
    # the criterion reads no corpus
    for argv in ((), ("--q", "7"), ("--q", "17"), ("--q", "2", "--d", "4"), ("--q", "65536")):
        _, out, _ = run(capsys, "verify", "--theorem", "bonneau-equality", *argv)
        assert out.splitlines()[1] == ("    952 (n, d, q) tuples, n-d+2 q for each "
                                       "3 <= d <= n <= 18: double-sum rows equal "
                                       "single-sum rows at every q"), argv


@pytest.mark.parametrize("argv, digest, checked", [
    (("--q", "2"), "4074cc5c6da175d24dafb9693be8d6aafe1e026035e4c688a47ddcf4cea516d7", 2),
    (("--q", "3", "--d", "4"),
     "a89c61fadc64b61a8817a773488e13cdc0d7b3b2863069d8dac5b250afe65088", 1),
], ids=["q2", "q3-d4"])
def test_verify_corpus_at_d_up_to_q_plus_1(capsys, argv, digest, checked):
    # at q = 2 the corpus skips every gdrs d > q+1 but keeps the
    # triply-extended [4,1,4]_2 beside the d = 3 code; at q = 3, d = q+1
    # keeps one code
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert f"    {checked} codes checked" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("table", "f5ac6977cccc2a70d6b4d528abccb9762f9daad08517ee36177449f0117ae0a0"),
    ("json", "7e35b15d3229285045bddaee6428f2d19ba0ce69c8a38403d7eeb4936d2bd1e8"),
], ids=["table", "json"])
def test_default_verify_output_is_pinned(capsys, fmt, digest):
    # the whole desk run, byte for byte; criterion 7's refutations make it exit 1
    code, out, _ = run(capsys, "verify", "--format", fmt)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_reports_a_survey_parent_over_the_budget(capsys, kernel_runs):
    # criterion 9 would certify [65,60,6]_64, over the budget: it reports
    # that instead, and the exit code is that of criteria 1-8
    code, out, err = run(capsys, "verify", "--q", "64")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "    q=64 d=6: not surveyed: syndrome trellis needs 5539144650 steps "
        "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 200000000; "
        "empirical, not asserted")
    assert kernel_runs and all(ran.r < 5 for ran, _, _ in kernel_runs)  # no d = 6 code


def test_criterion_4_walks_the_arcs_of_the_filtered_q(capsys):
    # the arcs at q = 2 only, the run's one field; at q = 739 every arc's
    # walk is over the budget, reported as criterion 9 reports its own
    code, out, err = run(capsys, "verify", "--q", "2", "--theorem", "conic-census")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["criterion 4 [conic bisecant censuses]: PASS",
                                "    conic q=2: ((1, 3), (0, 1))",
                                "    shortened conic q=2: ((1, 1), (0, 4))",
                                "    double-shortened conic q=2: ((0, 6),)"]
    code, out, err = run(capsys, "verify", "--q", "739")
    assert (code, err) == (0, "")
    assert ("    conic q=739: not surveyed: bisecant walk needs 201791340 point "
            "normalizations C(n,2)*(q-1), over the budget of 200000000") in out.splitlines()


def test_verify_refuses_before_it_builds(capsys, monkeypatch):
    # verify lays out its corpus chains, its arcs' walks and the survey's
    # certifications, and charges each before it builds a field: at
    # q = 65536 and 4096 the corpus is empty and every walk and
    # certification is over the budget, so no field of that order is
    # built, only the fields of criterion 7's fixed certificates (building
    # GF(2^16) first took most of the 1.5 s such a run once took)
    built = []
    build = GF._build_tables

    def recorded(self):
        built.append(self.q)
        build(self)
    monkeypatch.setattr(GF, "_build_tables", recorded)
    fresh = functools.lru_cache(maxsize=None)(field_of_order.__wrapped__)
    for module in (mds, geometry):  # every field of the run is built anew
        monkeypatch.setattr(module, "field_of_order", fresh)
    for q, digest in ((65536, "f8722103ea9896b4fd4738eabb80a1dd09fb1c292c104f18f70b764c3086be88"),
                      (4096, "f332547d48ad3373fd9779ab7df82638d59bc538808a21c25f4c9c1ae52d8283")):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--q", str(q))
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert q not in built
    assert built and set(built) <= {4, 5, 7, 8, 9, 11}


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "nonsense")
    assert code == 2 and "invalid choice: 'nonsense'" in err


@pytest.mark.parametrize("argv, message", [
    (("--q", "0"), "error: 0 is not a prime power\n"),
    (("--d", "0"), "error: need 3 <= d <= n, got d=0, n=5\n"),
], ids=["q0", "d0"])
def test_verify_refuses_a_zero_filter(capsys, argv, message):
    # a zero --q or --d is a filter like any other, not an absent one
    assert run(capsys, "verify", *argv) == (2, "", message)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dist.json"
    code, out, _ = run(capsys, "dist", "--closed-form", "d1",
                       "--n", "5", "--d", "4", "--q", "5",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["counts"] == ["0", "0", "0", "10", "5", "10"]


_DIST_OUT = ("dist", "--closed-form", "d1", "--n", "5", "--d", "4", "--q", "5", "--out")


def test_out_to_a_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # exit 1 is a refuted claim's; a path that cannot be written is the
    # caller's error, named on stderr with no traceback
    missing = tmp_path / "missing" / "dist.json"
    assert run(capsys, *_DIST_OUT, str(missing)) == (
        2, "", f"error: cannot write --out {missing}: No such file or directory\n")
    assert run(capsys, *_DIST_OUT, str(tmp_path)) == (
        2, "", f"error: cannot write --out {tmp_path}: Is a directory\n")


def test_out_not_open_to_writing_is_refused(tmp_path, capsys, monkeypatch):
    # a root user may write anywhere, so a stand-in os.access denies it:
    # an existing file is asked about itself, a new one its folder, and
    # neither is created nor truncated
    asked = []

    def denied(path, mode):
        asked.append((path, mode))
        return False
    monkeypatch.setattr(os, "access", denied)
    kept, new = tmp_path / "kept", tmp_path / "new"
    kept.write_text("kept\n")
    for path, checked in ((kept, kept), (new, tmp_path)):
        assert run(capsys, *_DIST_OUT, str(path)) == (
            2, "", f"error: cannot write --out {path}: Permission denied\n")
        assert asked == [(str(checked), os.W_OK)]
        asked.clear()
    assert kept.read_text() == "kept\n" and not new.exists()


def test_out_that_fails_at_write_time_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a path that passes the up-front check but cannot be opened, here a
    # directory with the check switched off, is refused when it is written
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    assert run(capsys, *_DIST_OUT, str(tmp_path)) == (
        2, "", f"error: cannot write --out {tmp_path}: Is a directory\n")


@pytest.mark.parametrize("argv, code", [
    (("dist", "--closed-form", "d1", "--n", "5", "--d", "4", "--q", "5"), 0),
    (("covering", "classify", "--family", "gdrs", "--q", "5", "--d", "4", "--remove", "4,5"), 1),
    (("dist", "--closed-form", "d1", "--n", "5", "--d", "2", "--q", "5"), 2),
], ids=["ok", "refuted", "usage"])
def test_entry_exits_with_the_code_main_returns(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["mdscosets", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == code == main(list(argv))


def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # --out is a usage error like the others: it comes before a budget
    # refusal (exit 2, not 3) and before the corpus is built, and the
    # file is neither created nor truncated
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")
    monkeypatch.setattr(codes, "_syndrome_trellis", no_work)
    monkeypatch.setattr(cli, "DeskCache", no_work)
    missing = tmp_path / "missing" / "x"
    refusal = f"error: cannot write --out {missing}: No such file or directory\n"
    assert run(capsys, "census", "code", "--family", "gdrs", "--q", "64", "--d", "40",
               "--out", str(missing)) == (2, "", refusal)
    assert run(capsys, "verify", "--q", "5", "--out", str(missing)) == (2, "", refusal)
    assert not (tmp_path / "missing").exists()
    kept = tmp_path / "kept"
    kept.write_text("kept\n")
    code, _, _ = run(capsys, "census", "code", "--family", "gdrs", "--q", "6", "--d", "4",
                     "--out", str(kept))
    assert code == 2 and kept.read_text() == "kept\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_below_one_is_a_usage_error(capsys, monkeypatch, budget):
    # "over the budget of -5" (exit 3) read a usage error as a refusal
    monkeypatch.setattr(codes, "_syndrome_trellis", lambda *args: pytest.fail("ran"))
    for command in (("census", "code"), ("covering", "classify")):
        assert run(capsys, *command, "--family", "gdrs", "--q", "5", "--d", "4",
                   "--budget", budget) == (2, "", f"error: budget must be positive, got {budget}\n")


def test_each_family_command_lays_its_code_out_once(capsys, monkeypatch):
    # the CLI's plan and build read one recipe; a removal code's plan
    # lays out its parent once more, for the deep-hole check
    calls = Counter()
    for module in (cli, mds):
        def counted(*args, _fn=getattr(module, "_family_layout"), _name=module.__name__):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, "_family_layout", counted)
    for argv, expect in [(("census", "code", "--family", "gdrs", "--q", "5", "--d", "4"),
                          {"mdscosets.cli": 1}),
                         (("census", "code", "--family", "gtrs", "--q", "4", "--remove", "1"),
                          {"mdscosets.cli": 1}),
                         (("covering", "classify", "--family", "gdrs", "--q", "5", "--d", "4"),
                          {"mdscosets.cli": 1}),
                         (("covering", "classify", "--family", "gdrs", "--q", "5", "--d", "4",
                           "--remove", "5"), {"mdscosets.cli": 2})]:
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == expect, argv


def test_usage_error_exit_code(capsys):
    assert main(["dist", "--closed-form", "w1"]) == 2  # missing required args
    assert main(["nonsense"]) == 2
    # options a command does not read are not offered
    assert main(["dist", "--closed-form", "w1", "--n", "6", "--d", "4", "--q", "5",
                 "--budget", "5"]) == 2
    assert main(["verify", "--format", "csv"]) == 2
    assert main(["verify", "--corpus", "default"]) == 2  # refused before any corpus is built
    assert main(["verify", "--budget", "400"]) == 2  # the corpus fits the default budget


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built once per process; a usage error, --help and a
    # good call through it print what a freshly built parser prints
    assert cli.build_parser() is cli.build_parser()
    calls = [("dist", "--closed-form", "w1"),
             ("dist", "--help"),
             ("dist", "--closed-form", "w1", "--n", "6", "--d", "4", "--q", "5")]
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "required" in shared[0][2] and "usage:" in shared[1][1]


def test_only_the_format_asked_for_is_built(capsys, monkeypatch):
    # a table or CSV run builds no JSON payload, and a JSON run converts
    # each count to decimal once, for the payload alone
    calls = [("dist", "--bonneau", "--n", "12", "--d", "6", "--q", "11",
              "--prefix", "0,0,1,4,7"),
             ("census", "code", "--family", "gdrs", "--q", "5", "--d", "4"),
             ("census", "geometry", "--q", "7", "--arc", "conic")]
    for argv in calls:
        for fmt in ("table", "csv"):
            want = run(capsys, *argv, "--format", fmt)
            with monkeypatch.context() as patch:
                patch.setattr(cli.json, "dumps", lambda *a, **k: pytest.fail("JSON built"))
                assert run(capsys, *argv, "--format", fmt) == want
    converted = []
    strs = cli._strs

    def counting(counts):
        converted.append(len(counts))
        return strs(counts)
    monkeypatch.setattr(cli, "_strs", counting)
    code, out, _ = run(capsys, *calls[0], "--format", "json")
    assert code == 0 and converted == [13]
    assert json.loads(out)["counts"][:5] == ["0", "0", "1", "4", "7"]
