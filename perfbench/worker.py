"""One measured round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py < plan.json > result.json

The plan (from workloads.plan, plus "trace" and "spans_out") arrives on
standard input; the result is one JSON object on standard output. A fresh
process per round gives fresh caches and an honest ru_maxrss. Failures are
counted, never raised: a case that is not `pass`, a nonzero exit code, an
exception or an output that differs from its golden digest is one failed
operation, and the round goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from env import use_source_tree

KEEP_FAILURES = 10


def _order_of(argv):
    return int(argv[argv.index("--order") + 1]) if "--order" in argv else None


def run_cli(cli, argv):
    """(exit code, stdout) of one CLI request; an exception is exit code -1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the request
        return exc.code, out.getvalue()
    except Exception as exc:  # a crash in the program is a failed operation
        return -1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Round:
    def __init__(self):
        self.ops = []  # [milliseconds, ok, order]
        self.failures = []
        self.outputs = hashlib.sha256()

    def record(self, ms, ok, why, output, order=None):
        self.ops.append([ms, ok, order])
        self.outputs.update(output.encode())
        if not ok and len(self.failures) < KEEP_FAILURES:
            self.failures.append(why)


def run_verify_cases(verify, case_ids, rnd: Round):
    cases = {c.id: c for c in verify.registry()}
    for cid in case_ids:
        t0 = time.perf_counter()
        try:
            result = verify.run_case(cases[cid])
        except Exception as exc:
            rnd.record(1000 * (time.perf_counter() - t0), False,
                       f"{cid}: {type(exc).__name__}: {exc}", f"{cid} raised")
            continue
        ms = 1000 * (time.perf_counter() - t0)
        row = verify.report_to_json(verify.VerifyReport([result]))
        rnd.record(ms, result.status == "pass", f"{cid}: {result.status} {result.error}", row)


def run_eval_requests(cli, requests, golden, rnd: Round):
    for argv in requests:
        key = " ".join(argv)
        t0 = time.perf_counter()
        rc, text = run_cli(cli, argv)
        ms = 1000 * (time.perf_counter() - t0)
        want = golden.get(key, {}).get("sha256")
        ok = rc == 0 and sha256(text) == want
        why = f"{key}: exit {rc}" if rc != 0 else f"{key}: output differs from golden"
        rnd.record(ms, ok, why, text, _order_of(argv))


def run_verify_cli(cli, argv, expect, rnd: Round):
    """One `qstrings verify` invocation; each expected case is one check."""
    t0 = time.perf_counter()
    rc, text = run_cli(cli, argv)
    ms = 1000 * (time.perf_counter() - t0)
    try:
        rows = {r["case_id"]: r["status"] for r in json.loads(text)}
    except (ValueError, KeyError, TypeError):
        rows = {}
    bad = [cid for cid in expect if rows.get(cid) != "pass"]
    bad += [cid for cid in rows if cid not in expect]
    if rc != 0 and not bad:
        bad = [f"exit {rc}"]
    # one timed operation (the invocation); every case is an attempted check
    rnd.ops.append([ms, not bad, None])
    rnd.outputs.update(text.encode())
    rnd.failures += [f"{b}: not pass" for b in bad[:KEEP_FAILURES]]
    return len(expect), len(bad)


def main() -> int:
    plan = json.load(sys.stdin)
    workload = plan["workload"]
    t0 = time.perf_counter()
    use_source_tree()
    import qstrings  # noqa: F401  (the import is part of set-up)
    from qstrings import cli, verify

    tracer = None
    if plan.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()  # before the registry builds
    if workload == "eval-session":
        cli.build_parser()
    else:
        verify.registry()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if plan.get("setup_only"):
        print(json.dumps(result))
        return 0

    rnd = Round()
    checks = failed = None
    t1 = time.perf_counter()
    if workload in ("verify-quotient", "verify-product"):
        run_verify_cases(verify, plan["cases"], rnd)
    elif workload == "eval-session":
        run_eval_requests(cli, plan["requests"], plan["golden"], rnd)
    else:
        checks, failed = run_verify_cli(cli, plan["argv"], plan["expect"], rnd)
    wall_s = time.perf_counter() - t1

    if checks is None:
        checks, failed = len(rnd.ops), sum(not ok for _, ok, _ in rnd.ops)
    result.update({
        "wall_s": wall_s,
        "ops": rnd.ops,
        "attempted": checks,
        "failed": failed,
        "failures": rnd.failures,
        "digest": rnd.outputs.hexdigest(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        result["totals"] = tracer.totals()
        if plan.get("spans_out"):
            tracer.dump(plan["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
