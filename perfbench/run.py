"""The mdscosets benchmark: one workload, one run, every metric checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {desk,prefix-stream,beyond-desk}
                             --seed N --seconds S --trace {0,1}

With --trace 0 the workload runs once, untraced, in a fresh interpreter
(perfbench/harness.py) and the end-to-end metrics are reported.  Times
are in reference seconds: each measured interval is scaled by the speed
a probe measured next to it (speed.py), because the speed of this kind
of shared machine swings by a quarter within a minute.

    setup_s      median of SETUP_SAMPLES set-ups, each timed from the start
                 of a fresh interpreter until its inputs are ready, scaled
                 by the first probes of the timed phase that follows
    wall_s       length of the timed phase
    ops_per_s    operations completed without failure per second
    peak_rss_mb  ru_maxrss of the process that ran the workload, in MiB

op_p50_ms (median operation latency), op_tail_ms (latency at the highest
percentile that still has at least ten operations beyond it) and
failed_frac are printed and recorded but left out of the JSON line.
Each latency lands on single operations whose neighbours in the latency
order differ in cost, so over ten seeds their spread reached the largest
allowed bound (0.25 of the median): op_p50_ms on desk and beyond-desk,
op_tail_ms on beyond-desk.  failed_frac reads 0 on a correct run; the
JSON line carries attempted and failed instead.

With --trace 1 the workload runs untraced and then traced, each in its
own interpreter, one after the other, and the per-layer metrics of the
traced run are reported, with the tracing overhead (traced minus
untraced wall_s) as trace.overhead_s.  The spans go to
perfbench/results/<workload>-seed<N>-spans.json.

Every run also writes a run record to perfbench/results/ holding the
metrics, failed_frac, the tail percentile and operation count, the cache
counters, the computed work counts, the raw times and the probe
durations, the git sha (when the checkout is a repository) and a digest
of src/mdscosets, the Python and numpy versions, nproc, the CPU model,
the seed and /proc/loadavg at start and end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when that
line was printed, whether or not every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NEAREST, REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# The names of workloads.WORKLOADS, repeated so that this parent process
# never imports the library.
WORKLOADS = ("desk", "prefix-stream", "beyond-desk")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # a run ends within 180 s


class RunError(RuntimeError):
    """A child process failed; the run prints no result."""


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _loadavg() -> str:
    return _read("/proc/loadavg").strip()


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdscosets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_child(config: dict, deadline: float) -> tuple[float, dict | None]:
    """Start harness.py in a fresh interpreter.  Returns the raw seconds
    from its start until it printed `ready`, and its result (None when
    only set-up was asked for).  The child is always waited for."""
    # A fixed hash seed keeps set and dict order, and so the work done, the
    # same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "harness.py"), json.dumps(config)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise RunError(f"harness did not get ready: {first!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("harness ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"harness exited with code {proc.returncode}")
    if config["setup_only"]:
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.strip()]
    return setup_s, json.loads(lines[-1])


def end_to_end(result: dict, setup_s: float) -> dict:
    done = result["attempted"] - result["failed"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "ops_per_s": {"value": done / result["wall_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["layers"].items()}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
    return metrics


def measure(args) -> dict:
    """Run the workload as --trace asks; return the run record."""
    deadline = time.monotonic() + DEADLINE_S
    stem = f"{args.workload}-seed{args.seed}"
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": False, "setup_only": False, "spans": None}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": _loadavg()}
    if args.trace:
        _, untraced = run_child(base, deadline)
        spans = RESULTS / f"{stem}-spans.json"
        _, result = run_child(dict(base, trace=True, spans=str(spans)), deadline)
        metrics = per_layer(result, untraced)
        record["untraced_wall_s"] = untraced["wall_s"]
        record["spans_file"] = str(spans.relative_to(ROOT))
        correct = result["failed"] == 0 and untraced["failed"] == 0
    else:
        samples = [run_child(dict(base, setup_only=True), deadline)[0]
                   for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_child(base, deadline)
        samples.append(setup_s)
        factor = REFERENCE_PROBE_S / statistics.median(result["probe_s"][:NEAREST])
        metrics = end_to_end(result, statistics.median(samples) * factor)
        record["setup_samples_raw_s"] = samples
        correct = result["failed"] == 0
    record.update({
        "loadavg_end": _loadavg(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "metrics": metrics,
        "result": result,
    })
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (ROOT / "src" / "mdscosets" / "__init__.py", HERE / "desk_pins.json"):
        if not need.is_file():
            print(f"benchmark: {need.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        record = measure(args)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    lat = result["latency"]
    for name, m in record["metrics"].items():
        print(f"{name:36} {m['value']:.6g} {m['unit']}")
    print(f"{'op_p50_ms':36} {lat['p50_ms']:.6g} ms")
    print(f"{'op_tail_ms':36} {lat['tail_ms']:.6g} ms")
    print(f"{'failed_frac':36} {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    print(f"op_tail_ms is p{lat['tail_pct']:.1f} of {lat['ops']} timed operations")
    raw = result["latency_raw"]
    print(f"raw seconds: wall_s {result['wall_raw_s']:.6g}, op_p50_ms {raw['p50_ms']:.6g}, "
          f"op_tail_ms {raw['tail_ms']:.6g}; reference/raw {result['speed_factor']:.4g}")
    print(f"verdicts {result['verdicts']}; loadavg {record['loadavg_start']} -> "
          f"{record['loadavg_end']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"run record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
