"""Write desk_pins.json: the outcome the `desk` workload is checked against.

It pins a digest of every desk code's census classes and the refutations
of the paper's (q-1)*Delta deep-hole claim that criterion 7 reports, each
as (label, census count, formula count).  Re-pin only with a change that
is meant to alter these outputs, and say so in the change.

Usage, from the repository root: python3 perfbench/pin_desk.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mdscosets.verify import DeskCache, run_acceptance  # noqa: E402

from workloads import DESK_PINS, census_digest, criterion_7_refutations  # noqa: E402


def main() -> None:
    cache = DeskCache()
    census = {e.label: census_digest(cache.census(e)) for e in cache.entries}
    if len(census) != len(cache.entries):
        raise SystemExit("desk labels are not unique")
    results = run_acceptance(cache=cache)
    refuted, other = criterion_7_refutations(results[6])
    failing = [r.number for r in results if not r.passed]
    if failing != [7] or other:
        raise SystemExit(f"unexpected desk outcome: failing {failing}, lines {other}")
    DESK_PINS.write_text(json.dumps(
        {"census": census, "criterion_7_refutations": sorted(refuted)}, indent=1) + "\n")
    print(f"pinned {len(census)} census digests and {len(refuted)} refutations")


if __name__ == "__main__":
    main()
