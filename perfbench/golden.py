"""Build golden.json: the expected output of every eval-session request.

    python3 perfbench/golden.py

Runs each request of `workloads.eval_universe()` once through
`qstrings.cli.main` and stores the sha256 of its standard output, with its
milliseconds as the reference cost that balances the seeded request
streams. Every seed draws from this one table, so any seed can be checked.
Regenerate it only on purpose: a changed digest means changed output.
"""

from __future__ import annotations

import json
import sys
import time

from env import ROOT, run_info, use_source_tree
from worker import run_cli, sha256
from workloads import eval_universe, request_key


def main() -> int:
    use_source_tree()
    from qstrings import cli

    table = {"_run": run_info()}
    bad = 0
    for stratum, requests in eval_universe().items():
        for argv in requests:
            t0 = time.perf_counter()
            rc, text = run_cli(cli, argv)
            ms = 1000 * (time.perf_counter() - t0)
            if rc != 0:
                bad += 1
                print(f"exit {rc}: {request_key(argv)}", file=sys.stderr)
            table[request_key(argv)] = {"sha256": sha256(text), "ms": round(ms, 1)}
        print(f"{stratum}: {len(requests)} requests", file=sys.stderr)
    with open(ROOT / "perfbench" / "golden.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
