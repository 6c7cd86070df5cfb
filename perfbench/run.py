"""The qstrings benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-quotient, verify-product, eval-session (see
perfbench/README.md for what each one exercises and why).

run.py builds the run's inputs from the seed, then runs measured rounds,
each in fresh `python3 perfbench/worker.py` processes, one at a time:

* `--trace 0` repeats the round while, judged by the last round, another
  one would end no later than half a round past S seconds (at least
  once), and reports the end-to-end metrics. Every round runs the
  same operations in the same order; `wall_s` is the median round's time.
  `setup_s` is a median over the set-ups of many fresh processes.
* `--trace 1` runs one untraced and one traced round and reports the
  per-layer metrics of the traced one, plus `trace.overhead`, the traced
  over the untraced wall time. On verify-product it also runs a fixed
  selection of theta cases through `qstrings verify` with two jobs and
  with one, the times behind `verify.parallel_eff`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from env import ROOT, run_info

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # set-up-only processes per run, after one discarded warm-up
RUN_BUDGET_S = 170  # the whole run must end within 180 s
P90_MIN_OPS = 100  # report op_ms.p90 only with this many operations per round

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
RUNNER_METRICS = (
    ("verify.parallel_eff", "ratio"), ("cli.eval.o50_ms", "ms"),
    ("cli.eval.o100_ms", "ms"), ("cli.eval.o200_ms", "ms"), ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    pass


def run_worker(plan: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(plan),
                              capture_output=True, text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the run budget of {RUN_BUDGET_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(plan: dict, deadline: float, spans_dir=None) -> dict:
    """One round of the plan. A verify sample runs each case in its own
    fresh process, so that no case reuses theta factors that an earlier
    case of the sample left in the cache; the round's figures are the sums
    (and the largest RSS) over its processes."""
    plans = [dict(plan, cases=[cid]) for cid in plan["cases"]] if "cases" in plan else [plan]
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        plans = [dict(p, trace=True, spans_out=str(spans_dir / f"process-{i:03d}.jsonl"))
                 for i, p in enumerate(plans)]
    parts = [run_worker(p, deadline) for p in plans]
    merged = {
        "setups": [p["setup_s"] for p in parts],
        "wall_s": sum(p["wall_s"] for p in parts),
        "ops": [op for p in parts for op in p["ops"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "digest": hashlib.sha256("".join(p["digest"] for p in parts).encode()).hexdigest(),
        "rss_kb": max(p["rss_kb"] for p in parts),
    }
    if spans_dir is not None:
        merged["totals"] = tracing.merge(p["totals"] for p in parts)
    return merged


def per_order_ms(rnd: dict, order: int) -> float:
    ms = [m for m, _ok, o in rnd["ops"] if o == order]
    return statistics.median(ms) if ms else 0.0


def fastest_ms(rounds) -> list:
    """Each operation's fastest time over the rounds. Every round runs the
    same operations in the same order."""
    return [min(op[0] for op in ops) for ops in zip(*(r["ops"] for r in rounds))]


def trace_metrics(args, plan, deadline, groups) -> dict:
    """One untraced and one traced round -> the per-layer metrics. Each
    list appended to `groups` holds rounds whose outputs must agree."""
    base = run_round(plan, deadline)
    spans_dir = OUT / f"spans-{args.workload}-{args.seed}"
    traced = run_round(plan, deadline, spans_dir)
    groups.append([base, traced])
    totals = traced["totals"]
    metrics = tracing.layer_metrics([totals])
    if args.workload == "verify-product":
        # the runner's concurrency, on product-path cases: case times taken
        # inside the threads include waits for the GIL, so the serial time
        # of the same cases is the numerator
        par = workloads.parallel_plan()
        argv = par["argv"]
        k = argv.index("--jobs")
        parallel = run_round(par, deadline)
        serial = run_round(dict(par, argv=argv[:k] + argv[k + 2:]), deadline)
        groups.append([parallel, serial])
        metrics["verify.parallel_eff"] = serial["wall_s"] / (int(argv[k + 1]) * parallel["wall_s"])
    else:
        metrics["verify.parallel_eff"] = totals.get("verify.run_case.total_s", 0.0) / traced["wall_s"]
    for order in (50, 100, 200):
        metrics[f"cli.eval.o{order}_ms"] = per_order_ms(base, order)
    metrics["trace.overhead"] = traced["wall_s"] / base["wall_s"]
    print(f"  spans: {spans_dir.relative_to(ROOT)}/")
    return metrics


def measure(args) -> tuple:
    """(checks attempted, checks failed, outputs agree, metrics with units)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = workloads.plan(args.workload, args.seed)
    groups = []
    if args.trace:
        metrics = trace_metrics(args, plan, deadline, groups)
        units = dict(tracing.LAYER_METRICS + RUNNER_METRICS)
    else:
        setup_plan = dict(plan, setup_only=True)
        run_worker(setup_plan, deadline)  # warm-up: writes bytecode caches
        setups = [run_worker(setup_plan, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        rounds = []
        groups.append(rounds)
        t0 = time.monotonic()
        last = 0.0
        # start another round while it should end within half a round of the
        # run's time: on average the rounds then fill the run's time
        while not rounds or time.monotonic() - t0 + last / 2 <= args.seconds:
            r0 = time.monotonic()
            rounds.append(run_round(plan, deadline))
            last = time.monotonic() - r0
        setups += [s for r in rounds for s in r["setups"]]
        best_ms = fastest_ms(rounds)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        }
        units = dict(END_TO_END)
        print(f"  rounds: {len(rounds)}, operations per round: {len(best_ms)}, "
              f"set-ups timed: {len(setups)}, wall_s per round: "
              + " ".join(f"{r['wall_s']:.4g}" for r in rounds))
        # latency quantiles of sub-second operations spread too widely from
        # run to run on a shared machine to be gated; they are printed
        print(f"  {'op_ms.p50':<30} {statistics.median(best_ms):.6g} ms (not gated)")
        if len(best_ms) >= P90_MIN_OPS:
            p90 = statistics.quantiles(best_ms, n=10, method="inclusive")[-1]
            print(f"  {'op_ms.p90':<30} {p90:.6g} ms (not gated)")
    rounds = [r for g in groups for r in g]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    agree = all(len({r["digest"] for r in g}) == 1 for g in groups)
    for r in rounds:
        for why in r["failures"]:
            print(f"FAIL {why}")
    if not agree:
        print("FAIL outputs differ between rounds of the same cases")
    return attempted, failed, agree, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qstrings benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qstrings" / "__init__.py").is_file():
        print(f"error: no qstrings source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} | "
              + " ".join(f"{k}={v}" for k, v in run_info().items()))
        attempted, failed, agree, metrics = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        note = " (computed from operands at the wrapped boundary)" if name in tracing.COMPUTED else ""
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<30} {failed / attempted if attempted else 1.0:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0 and agree, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
