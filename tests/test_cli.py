import hashlib
import json
import sys
import time

import pytest

from mdscosets import cli, codes
from mdscosets.cli import main
from mdscosets.gf import GF


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
    assert code == 2
    assert "d >= 3" in err


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
    # certifying [6,3,4]_5 takes 576 steps and its full census 1152: under
    # 1151 the full census is refused before the certification runs, and
    # at 1152 the one full census also certifies the code
    argv = ("census", "code", "--family", "gdrs", "--q", "5", "--d", "4")
    code, out, err = run(capsys, *argv, "--budget", "1151")
    assert (code, out, kernel_runs) == (3, "", [])
    assert err == ("budget refusal: syndrome trellis needs 1152 steps "
                   "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 1151\n")
    code, _, err = run(capsys, *argv, "--budget", "575")
    assert code == 3 and "needs 576 steps" in err and kernel_runs == []
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
        # the certification at n-k = 2 of [65537,65535,3]_65536
        (("census", "code", "--q", "65536", *gdrs), _refusal(65537 * 2 * 65538)),
        (("covering", "classify", "--q", "65536", *gdrs), _refusal(65537 * 2 * 65538)),
        # the full census of [4097,4095,3]_4096, whose certification fits
        (("census", "code", "--q", "4096", *gdrs), _refusal(4097 * 4097 * 4098)),
        (("covering", "classify", "--q", "4096", *gdrs, "--budget", "1000"),
         _refusal(4097 * 2 * 4098, 1000)),
        # [13,10,4]_13 certifies in 7176 steps, its parent [14,11,4]_13 in 7728
        (("covering", "classify", "--family", "gdrs", "--q", "13", "--d", "4",
          "--remove", "1", "--budget", "7500"), _refusal(7728, 7500)),
    ]
    for argv, refusal in cases:
        assert run(capsys, *argv) == (3, "", refusal), argv
    # the field's own refusals still come first, with their texts
    for q, poly, text in [("6", None, "6 is not a prime power"),
                          ("131072", None, "field order 131072 exceeds the configured maximum 65536"),
                          ("65536", "1,1", "modulus must be monic of degree 16, got (1, 1)")]:
        argv = ("census", "code", "--q", q, *gdrs) + (("--poly", poly) if poly else ())
        assert run(capsys, *argv) == (2, "", f"error: {text}\n"), argv


def test_census_int64_overflow_refusal(capsys):
    # the kernel's work, about 3.5*10^7, is inside the budget, but the
    # 32^31 codewords of the [33,31,3]_32 code overflow int64 counts
    code, _, err = run(capsys, "census", "code", "--family", "gdrs",
                       "--q", "32", "--d", "3")
    assert code == 3
    assert "2^63" in err


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


def test_census_geometry_refuses_a_walk_over_the_budget_before_any_field(capsys, monkeypatch):
    # the conic of PG(2, 4096) has C(4097, 2)*4095 walk steps; no field
    # table, plane array or walk step comes before the refusal
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "field_of_order", no_field)
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


def _prime_powers(top):
    return [q for q in range(2, top + 1)
            if len({p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, p))}) == 1]


def test_census_geometry_outputs_up_to_q_64_are_pinned(capsys):
    # every arc, in every format, for each of the 27 planes q <= 64, as
    # before the walk had a size guard (the digest of the outputs then)
    digest = hashlib.sha256()
    for q in _prime_powers(64):
        for arc in ("conic", "hyperoval", "conic-minus:1", "conic-minus:2"):
            for fmt in ("table", "json", "csv"):
                code, out, err = run(capsys, "census", "geometry", "--q", str(q),
                                     "--arc", arc, "--format", fmt)
                digest.update(f"{q} {arc} {fmt} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == \
        "c108216591999e3f20d1212ce4c9356a6f9ac2fc4b0d8e9fe045f0ca99407085"


def test_census_field_poly_override(capsys):
    code, out, _ = run(capsys, "census", "code", "--family", "gdrs",
                       "--q", "8", "--d", "3", "--poly", "1,0,1,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["total_cosets"] == "64"


def test_covering_classify_gtrs(capsys):
    code, out, _ = run(capsys, "covering", "classify", "--family", "gtrs",
                       "--q", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 2 and payload["mu"] == "3"
    assert payload["is_pmcf"] is True
    assert payload["saturating_set"]["kind"] == "OS"


def test_covering_classify_grs_with_deep_hole_check(capsys):
    code, out, _ = run(capsys, "covering", "classify", "--family", "grs",
                       "--q", "5", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 3 and payload["mu"] == "10"
    assert payload["is_apmcf"] is True
    assert payload["deep_hole_check"]["count"] == "4"
    assert payload["deep_hole_check"]["equality_required"] is True


def test_covering_classify_counterexample_exits_1(capsys):
    # the [5,1,5]_5 removal refutes the deep-hole formula: verification mismatch
    code, _, err = run(capsys, "covering", "classify", "--family", "gdrs",
                       "--q", "5", "--d", "5", "--remove", "5")
    assert code == 1
    assert "mismatch" in err


def test_verify_theorem_subsets(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "conic-census")
    assert code == 0
    assert "criterion 4" in out and "PASS" in out
    code2, out2, _ = run(capsys, "verify", "--theorem", "symmetry", "--q", "5")
    assert code2 == 0
    code3, out3, _ = run(capsys, "verify", "--theorem", "remark-6-6", "--q", "5")
    assert code3 == 0
    assert "empirical, not asserted" in out3


def test_criterion_2_counts_the_census_prefixes_it_compares(capsys):
    # the 436 MDS tuples with q <= 16 hold every tuple of the default and
    # the q = 7 corpus; the q = 17 corpus adds its 10 own tuples
    for argv, tuples in (((), 436), (("--q", "7"), 436), (("--q", "17"), 446)):
        _, out, _ = run(capsys, "verify", "--theorem", "bonneau-equality", *argv)
        assert out.splitlines()[1] == (f"    {tuples} (n, d, q) tuples: "
                                       "double-sum rows equal single-sum rows")


@pytest.mark.parametrize("argv, digest", [
    (("--q", "2"), "162e44611342674d26e10c548ab57c3bc9047b4765f2cb205a12b9e0a375b526"),
    (("--q", "3", "--d", "4"),
     "8c4d0e36fa7c18e0f1a242d37b4c9e31f1a776baa695b357b21515191b006e79"),
], ids=["q2", "q3-d4"])
def test_verify_corpus_at_d_up_to_q_plus_1(capsys, argv, digest):
    # at q = 2 the corpus skips every d > q+1, the triply-extended d = 4
    # included (the corpus adds it only next to a gdrs code of its d);
    # d = q+1 keeps one code
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert "    1 codes checked" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_refuses_the_first_certification_over_the_budget(capsys):
    # [5,2,4]_4's full census (550 steps) is over a budget of 400, so it is
    # certified at n-k, which fits; [5,1,5]_4's certification (1720 steps)
    # is the first the budget refuses
    code, out, err = run(capsys, "verify", "--q", "4", "--budget", "400")
    assert (code, out) == (3, "")
    assert err == ("budget refusal: syndrome trellis needs 1720 steps "
                   "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 400\n")


def test_verify_refusal_where_the_budget_cuts_a_chain(capsys, kernel_runs):
    # under 5000 steps the q = 5, d = 5 chain is cut: [5,1,5]_5's full
    # census (3925 steps) runs alone, [6,2,5]_5's (5652) does not, so that
    # code is certified at n-k (3768); the d = 3 and d = 4 chains run once
    # each, and [6,1,6]_5's certification (23460 steps) is called and
    # refused before it builds a table
    code, out, err = run(capsys, "verify", "--q", "5", "--budget", "5000")
    assert (code, out) == (3, "")
    assert err == ("budget refusal: syndrome trellis needs 23460 steps "
                   "n*wmax*(1+(q^(n-k)-1)/(q-1)), over the budget of 5000\n")
    assert [(code.n, wmax, lengths) for code, wmax, lengths in kernel_runs] == [
        (6, 6, [3, 4, 5, 6]), (6, 6, [4, 5, 6]), (5, 5, [5]), (6, 4, [6]), (6, 5, [6])]


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "nonsense")
    assert code == 2 and "unknown theorem" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dist.json"
    code, out, _ = run(capsys, "dist", "--closed-form", "d1",
                       "--n", "5", "--d", "4", "--q", "5",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["counts"] == ["0", "0", "0", "10", "5", "10"]


def test_usage_error_exit_code(capsys):
    assert main(["dist", "--closed-form", "w1"]) == 2  # missing required args
    assert main(["nonsense"]) == 2
    # options a command does not read are not offered
    assert main(["dist", "--closed-form", "w1", "--n", "6", "--d", "4", "--q", "5",
                 "--budget", "5"]) == 2
    assert main(["verify", "--format", "csv"]) == 2
    assert main(["verify", "--corpus", "default"]) == 2  # refused before any corpus is built


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
