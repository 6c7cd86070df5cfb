"""Ungated reference pass: every registered case once, in registration order.

    python3 perfbench/reference.py [--out perfbench/reference.json]

The first pass is the same work as `qstrings verify` (300 cases, one
thread, one process). It records per-suite totals, the ten slowest cases
and every case's milliseconds with its suite. It is not a workload and
gates nothing; it keeps the numbers comparable with the baseline that
ROADMAP.md quotes.

A second pass times each case of the two verify workloads' pools alone in a
fresh worker process, the way those workloads run them: the median of
five passes over the pool, each pass running every case once, so that the
machine's drift over minutes falls on every case alike. In one process a
case can reuse theta factors an earlier case computed, so its time there
depends on what ran before it; alone it does not. These isolated
milliseconds are the cost table that balances the seeded verify samples,
so rewriting this file changes which cases a seed selects.
`--isolated-only` redoes only this second pass and keeps the rest of the
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from env import ROOT, run_info, use_source_tree
from workloads import in_pool

HERE = ROOT / "perfbench"

# ROADMAP.md baseline, measured on a 2-core machine with Python 3.11.7.
ROADMAP_BASELINE = {"verify_s": 188.5, "slowest": {"change-z/1": 29.2}}


def isolated_ms(workload, cases, passes=5) -> dict:
    """Median milliseconds of each pool case over `passes` passes over the
    pool, one fresh process per case and pass."""
    ms = {case.id: [] for case in cases if in_pool(workload, case.id, case.suite)}
    for _ in range(passes):
        for cid in ms:
            plan = {"workload": workload, "cases": [cid]}
            proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(plan),
                                  capture_output=True, text=True, check=True)
            done = json.loads(proc.stdout.strip().splitlines()[-1])
            if done["failed"]:
                raise SystemExit(f"{cid} failed in isolation: {done['failures']}")
            ms[cid].append(1000 * done["wall_s"])
    return {cid: round(statistics.median(v), 1) for cid, v in ms.items()}


def write(doc, out) -> None:
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"isolated costs -> {out}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "reference.json"))
    ap.add_argument("--isolated-only", action="store_true",
                    help="redo only the isolated pass, keep the rest of the file")
    args = ap.parse_args(argv)

    use_source_tree()
    from qstrings import verify

    cases = verify.registry()
    if args.isolated_only:
        with open(args.out) as fh:
            doc = json.load(fh)
        doc["isolated_ms"] = {w: isolated_ms(w, cases) for w in ("verify-quotient", "verify-product")}
        write(doc, args.out)
        return 0
    t0 = time.perf_counter()
    results = [verify.run_case(c) for c in cases]
    total_s = time.perf_counter() - t0

    per_suite = defaultdict(lambda: {"cases": 0, "seconds": 0.0})
    for r in results:
        per_suite[r.case.suite]["cases"] += 1
        per_suite[r.case.suite]["seconds"] += r.millis / 1000
    slowest = sorted(results, key=lambda r: -r.millis)[:10]
    doc = {
        "run": run_info(),
        "roadmap_baseline": ROADMAP_BASELINE,
        "verify_s": round(total_s, 3),
        "passed": sum(r.status == "pass" for r in results),
        "cases": len(results),
        "per_suite_s": {s: {"cases": v["cases"], "seconds": round(v["seconds"], 3)}
                        for s, v in sorted(per_suite.items(), key=lambda kv: -kv[1]["seconds"])},
        "slowest_ms": {r.case.id: round(r.millis, 1) for r in slowest},
        "case_ms": {r.case.id: [r.case.suite, round(r.millis, 1)] for r in results},
        "isolated_ms": {w: isolated_ms(w, cases) for w in ("verify-quotient", "verify-product")},
    }
    write(doc, args.out)
    print(f"{doc['passed']}/{doc['cases']} pass in {doc['verify_s']} s -> {args.out}")
    return 0 if doc["passed"] == doc["cases"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
