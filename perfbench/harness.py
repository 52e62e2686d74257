"""One timed run of one workload, in a fresh interpreter.

`run.py` starts this file as a child process, so the caches that
`functools.lru_cache` keeps for the life of a process (`field_of_order`,
`omega`, `mds_weight_distribution`, the Bonneau coefficients) start cold,
as they do for every CLI call.  The child:

1. imports the library from the checkout's `src/`, builds the fields the
   workload uses and generates its inputs from the seed, then prints
   `ready` (the parent times set-up up to that line);
2. runs the workload's operations one after another in this one thread;
3. prints one JSON line with the timings, the failure counts, the cache
   counters, the peak RSS and, when tracing, the per-layer metrics.

Times are in reference seconds (see speed.py); raw times come along.

Usage: python3 perfbench/harness.py '<json config>' where the config holds
workload, seed, seconds, trace, setup_only and spans (a path or null).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from speed import SpeedTrack

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that sum the durations of spans with these names.
SPAN_TIMES = {
    "gf.field_build_s": ("gf.field_of_order",),
    "mds.build_code_s": ("mds.build_code",),
    "codes.census_s": ("codes.coset_census",),
    "formulas.transformed_s": ("formulas.bonneau_transformed",),
    "formulas.original_s": ("formulas.bonneau_original",),
    "formulas.closed_form_s": ("formulas.dist_weight1", "formulas.dist_weight_d1",
                               "formulas.dist_weight_d2", "formulas.dist_weight2",
                               "formulas.dist_weight_mid"),
    "geometry.bisecant_census_s": ("geometry.bisecant_census",),
    "geometry.bridge_s": ("geometry.geometry_code_bridge",),
    "covering.mcf_classify_s": ("covering.mcf_classify",),
    "covering.deep_hole_s": ("covering.count_deep_hole_cosets",),
    "verify.corpus_build_s": ("verify.DeskCache",),
    **{f"verify.criterion_{k}_s": (f"verify.criterion_{k}",) for k in range(1, 10)},
    "cli.main_s": ("cli.main",),
}


class Op:
    """One operation in progress: collects its problems and verdicts."""

    def __init__(self):
        self.problems: list[str] = []
        self.verdicts: list[str] = []

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def verdict(self, name: str) -> None:
        self.verdicts.append(name)


class Recorder:
    """Times operations, counts failures and computed work, and, when
    tracing, keeps a span for every call the benchmark makes into a layer.

    A span is [name, start, end, parent span index, operation id]; spans
    stay in memory until the run ends.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()  # computed from the inputs, not measured
        self.verdicts: Counter = Counter()
        self.latencies: list[tuple[float, float]] = []  # (start, seconds)
        self.speed = SpeedTrack()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._op_id: int | None = None

    def _begin(self, name: str) -> int | None:
        if not self.trace:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, sid: int | None) -> None:
        if sid is not None:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def call(self, name: str, **work: int):
        """A call into a library layer; `work` adds computed work counts."""
        self.calls[name] += 1
        self.work.update(work)
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    @contextmanager
    def op(self, label: str, latency: bool = True):
        """One operation.  An exception inside it, a budget refusal
        included, is a failure of that operation and does not stop the run.
        `latency=False` keeps a gate check out of the latency figures."""
        self.attempted += 1
        self._op_id = self.attempted
        op = Op()
        self.speed.probe()
        sid = self._begin("op")
        t0 = time.perf_counter()
        try:
            yield op
        except Exception as exc:  # the run must go on and report the failure
            op.fail(f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            self._end(sid)
            self._op_id = None
        if latency:
            self.latencies.append((t0, elapsed))
        self.verdicts.update(op.verdicts)
        if op.problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in op.problems)

    def span_seconds(self, names) -> float:
        return sum(self.speed.scaled(s[1], s[2] - s[1]) for s in self.spans if s[0] in names)


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail latency in ms.  The tail is the highest percentile
    that still has at least ten operations beyond it (the maximum when
    fewer than eleven operations ran)."""
    lat = sorted(latencies)
    n = len(lat)
    if n == 0:
        return {"ops": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0}
    mid = n // 2
    p50 = lat[mid] if n % 2 else (lat[mid - 1] + lat[mid]) / 2
    k = n - 11 if n >= 11 else n - 1
    return {"ops": n, "p50_ms": p50 * 1e3, "tail_ms": lat[k] * 1e3,
            "tail_pct": 100.0 * (k + 1) / n}


def cache_counters() -> dict:
    """Hits, misses and entries of the lru caches the per-layer metrics read."""
    from mdscosets import combinat, gf, mds
    fns = {"gf.field_of_order": gf.field_of_order,
           "combinat.omega": combinat.omega,
           "mds.mds_weight_distribution": mds.mds_weight_distribution}
    out = {}
    for name, fn in fns.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder, before: dict, after: dict,
                  wall_raw_s: float, cpu_s: float) -> dict:
    """Every per-layer metric as {name: [value, unit]}.  Times come from the
    spans, in reference seconds, except the CPU time, which is raw; counts
    marked computed come from the inputs of each call."""
    def hit_ratio(cache: str) -> float:
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        return _ratio(hits, hits + misses)

    t = {name: rec.span_seconds(spans) for name, spans in SPAN_TIMES.items()}
    bonneau_s = t["formulas.transformed_s"] + t["formulas.original_s"]
    geometry_s = t["geometry.bisecant_census_s"] + t["geometry.bridge_s"]
    m = {name: [value, "s"] for name, value in t.items()}
    m.update({
        "gf.fields_built": [after["gf.field_of_order"]["entries"], "count"],
        "combinat.omega_hit_ratio": [hit_ratio("combinat.omega"), "ratio"],
        "combinat.omega_entries": [after["combinat.omega"]["entries"], "count"],
        "mds.build_code_calls": [rec.calls["mds.build_code"], "count"],
        "mds.weight_dist_hit_ratio": [hit_ratio("mds.mds_weight_distribution"), "ratio"],
        "codes.census_calls": [rec.calls["codes.coset_census"], "count"],
        "codes.census_vectors": [rec.work["census_vectors"], "count"],
        "codes.census_vectors_per_s": [
            _ratio(rec.work["census_vectors"], t["codes.census_s"]), "1/s"],
        "codes.census_table_bytes": [rec.work["census_table_bytes"], "bytes"],
        "formulas.prefixes": [rec.work["prefixes"], "count"],
        "formulas.prefixes_per_s": [_ratio(rec.work["prefixes"], bonneau_s), "1/s"],
        "geometry.incidence_tests": [rec.work["incidence_tests"], "count"],
        "geometry.incidence_tests_per_s": [
            _ratio(rec.work["incidence_tests"], geometry_s), "1/s"],
        "geometry.bridge_lowweight_vectors": [rec.work["lowweight_vectors"], "count"],
        "covering.codes_classified": [rec.calls["covering.mcf_classify"], "count"],
        "covering.deep_hole_refuted": [rec.verdicts["refuted"], "count"],
        "cli.calls": [rec.calls["cli.main"], "count"],
        "proc.cpu_s": [cpu_s, "s"],
        "proc.cpu_per_wall": [_ratio(cpu_s, wall_raw_s), "ratio"],
        "trace.spans": [len(rec.spans), "count"],
    })
    return m


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_run(workload: str, inputs, rec: Recorder) -> dict:
    """Run a workload on prepared inputs and summarise the run."""
    import numpy
    import workloads

    before = cache_counters()
    cpu0 = _cpu_seconds()
    rec.speed.probe(force=True)
    t0 = time.perf_counter()
    workloads.WORKLOADS[workload][1](inputs, rec)
    t1 = time.perf_counter()
    rec.speed.probe(force=True)
    probe_s = rec.speed.probe_time(t0, t1)
    cpu_s = _cpu_seconds() - cpu0 - probe_s
    wall_raw_s = t1 - t0 - probe_s
    wall_s = rec.speed.scaled_span(t0, t1)
    after = cache_counters()
    result = {
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "speed_factor": wall_s / wall_raw_s,
        "probe_s": rec.speed.durations,
        "cpu_s": cpu_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures[:50],
        "verdicts": dict(rec.verdicts),
        "latency": latency_summary([rec.speed.scaled(*lat) for lat in rec.latencies]),
        "latency_raw": latency_summary([elapsed for _, elapsed in rec.latencies]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches_before": before,
        "caches_after": after,
        "work_computed": dict(rec.work),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if rec.trace:
        result["layers"] = layer_metrics(rec, before, after, wall_raw_s, cpu_s)
    return result


def main(config: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import mdscosets  # noqa: F401  (the import is part of set-up)
    import workloads

    rec = Recorder(config["trace"])
    setup = workloads.WORKLOADS[config["workload"]][0]
    inputs = setup(config["seed"], config["seconds"], rec)
    print("ready", flush=True)
    if config["setup_only"]:
        return 0
    result = timed_run(config["workload"], inputs, rec)
    if config["spans"]:
        keys = ("name", "start", "end", "parent", "op")
        with open(config["spans"], "w") as fh:
            json.dump([dict(zip(keys, s)) for s in rec.spans], fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
