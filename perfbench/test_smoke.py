"""Smoke test of the benchmark harness at its smallest sizes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from mdscosets.verify import CriterionResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    out = _run(ROOT, "--workload", "prefix-stream", "--seed", "3", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for name, unit in dict(want, op_p50_ms="ms", op_tail_ms="ms", failed_frac="ratio").items():
        assert f" {unit}" in next(line for line in out.stdout.splitlines()
                                  if line.startswith(name + " "))


def test_wrong_expected_output_counts_in_failed_frac(monkeypatch):
    build, _ = workloads.ARCS["conic"]
    monkeypatch.setitem(workloads.ARCS, "conic", (build, lambda q: ((1, 1),)))
    items = [("arc", 5, "conic"), ("arc", 5, "conic-minus-1"), ("code", 5, 4, ())]
    rec = harness.Recorder(trace=True)
    result = harness.timed_run("beyond-desk", items, rec)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["failures"][0].startswith("arc 5 conic: conic census")
    assert result["layers"]["covering.codes_classified"] == [1, "count"]


def test_exception_counts_as_failure():
    rec = harness.Recorder(trace=False)
    result = harness.timed_run("beyond-desk", [("code", 6, 4, ())], rec)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "ValueError" in result["failures"][0]


def test_prefix_stream_checks_pass_on_small_stream():
    rec = harness.Recorder(trace=False)
    queries = workloads.setup_prefix_stream(5, 1, rec)[:64]
    result = harness.timed_run("prefix-stream", queries, rec)
    assert (result["attempted"], result["failed"]) == (64, 0)
    assert rec.calls["cli.main"] == 4


def _desk_results(pins, extra7=(), failing=()):
    refuted = [f"{label} (Delta=1, parent R=2): census counts {c} weight-3 cosets, "
               f"formula says {f}" for label, c, f in pins["criterion_7_refutations"]]
    lines7 = ["[5,2,4]_5: R=3 mu=10 APMCF=True", "73 column-removal codes checked"]
    return [CriterionResult(k, "c", k != 7 and k not in failing,
                            lines7 + refuted + list(extra7) if k == 7 else ["ok"])
            for k in range(1, 10)]


def test_desk_gate():
    pins = json.loads(workloads.DESK_PINS.read_text())
    assert len(pins["census"]) == 89
    assert len(pins["criterion_7_refutations"]) == 27
    assert ["[4,1,4]_5 gdrs", 24, 8] in pins["criterion_7_refutations"]
    refuted = pins["criterion_7_refutations"]
    assert workloads.acceptance_problems(_desk_results(pins), refuted) == []
    assert workloads.acceptance_problems(_desk_results(pins, failing=(3,)), refuted)
    extra = ["[5,2,4]_5: expected a (3,10)-APMCF certificate, got x"]
    assert workloads.acceptance_problems(_desk_results(pins, extra7=extra), refuted)
    assert workloads.acceptance_problems(_desk_results(pins), refuted[1:])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(tmp_path, "--workload", "desk", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
