"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check the seeded inputs, that tracing changes no output, that the
checks count failures instead of aborting, and that run.py refuses to
run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP_CASES = ["j-split/m=3", "split-law/n=1/0", "z-period/3"]
CHEAP_REQUESTS = [
    workloads.eval_request("f(1,2,1; q,q; 1)", 50),
    workloads.eval_request("theta_side(2,2,0)", 50),
    workloads.eval_request("f(3,3,1; -q^2,q; 1)", 100),
    workloads.eval_request("f(1,2,1; q,q; 1)", 50),
]


def run_worker(plan: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(plan),
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def eval_plan(requests):
    golden = workloads.load("golden.json")
    keys = [workloads.request_key(a) for a in requests]
    return {"workload": "eval-session", "requests": requests,
            "golden": {k: golden[k] for k in keys}}


@pytest.mark.parametrize("workload", ["verify-quotient", "verify-product", "eval-session"])
def test_seed_fixes_the_inputs(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    assert workloads.plan(workload, 7) != workloads.plan(workload, 8)


def test_parallel_selection_is_fixed():
    plan = workloads.parallel_plan()
    assert plan == workloads.parallel_plan()
    assert len(plan["expect"]) == 4


def test_operation_latency_is_its_fastest_round():
    rounds = [{"ops": [[10.0, True, None], [30.0, True, None]]},
              {"ops": [[12.0, True, None], [20.0, True, None]]}]
    assert run.fastest_ms(rounds) == [10.0, 20.0]


@pytest.mark.parametrize("workload", ["verify-quotient", "verify-product"])
def test_verify_sample_is_balanced(workload):
    pool = workloads.verify_pool(workload)
    totals = []
    for seed in range(5):
        cases = workloads.plan(workload, seed)["cases"]
        assert len(cases) == len(set(cases)) == workloads.SAMPLE_SIZE[workload]
        assert set(cases) <= set(pool)
        totals.append(sum(pool[c] for c in cases))
    assert max(totals) / min(totals) < 1.03


def test_eval_stream_shape():
    plan = workloads.plan("eval-session", 3)
    reqs = [workloads.request_key(a) for a in plan["requests"]]
    assert len(reqs) >= 100
    repeats = len(reqs) - len(set(reqs))
    assert 0.2 <= repeats / len(reqs) <= 0.3
    assert set(reqs) == set(plan["golden"])
    fine = [a for a in plan["requests"] if a[1].startswith(("j(", "m("))]
    assert fine and all(int(a[a.index("--order") + 1]) <= 50 for a in fine)


def test_traced_round_gives_the_same_outputs():
    plans = [
        {"workload": "verify-product", "cases": CHEAP_CASES[:2]},
        {"workload": "verify-quotient", "cases": CHEAP_CASES[2:]},
        eval_plan(CHEAP_REQUESTS),
    ]
    for plan in plans:
        plain = run_worker(plan)
        traced = run_worker(dict(plan, trace=True))
        assert plain["failed"] == traced["failed"] == 0
        assert plain["digest"] == traced["digest"]
        metrics = tracing.layer_metrics([traced["totals"]])
        assert list(metrics) == [name for name, _unit in tracing.LAYER_METRICS]


def test_span_of_a_raising_call_is_kept():
    tracer = tracing.Tracer()

    def fails():
        raise ValueError("no")

    inner = tracer.wrap("theta.jtheta", fails)

    def outer():
        try:
            inner()
        except ValueError:
            return "caught"

    assert tracer.wrap("expr.evaluate", outer)() == "caught"
    totals = tracer.totals()
    assert totals["theta.jtheta.calls"] == totals["expr.evaluate.calls"] == 1


def test_traced_parallel_verify_keeps_thread_parents(tmp_path):
    spans = tmp_path / "spans.jsonl"
    plan = {"workload": "verify-jobs", "expect": ["j-split/m=12", "j-split/m=2", "j-split/m=3"],
            "argv": ["verify", "--suite", "theta", "--filter", "j-split", "--jobs", "2",
                     "--format", "json"]}
    plain = run_worker(plan)
    traced = run_worker(dict(plan, trace=True, spans_out=str(spans)))
    assert plain["attempted"] == traced["attempted"] == 3
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    names = {r[0]: r[1] for r in rows}
    cases = [r for r in rows if r[1] == "verify.run_case"]
    assert len(cases) == 3
    # each case runs on a pool thread: it opens its own stack
    assert all(r[4] is None for r in cases)
    assert all(r[4] is None or r[4] in names for r in rows)
    assert {names[r[4]] for r in rows if r[1] == "verify.lhs"} == {"verify.run_case"}


def test_corrupted_golden_entry_is_a_failure():
    plan = eval_plan(CHEAP_REQUESTS)
    key = workloads.request_key(CHEAP_REQUESTS[1])
    plan["golden"][key] = dict(plan["golden"][key], sha256="0" * 64)
    out = run_worker(plan)
    assert out["attempted"] == len(CHEAP_REQUESTS)
    assert out["failed"] == 1
    assert key in out["failures"][0]


def test_failing_case_is_counted_and_the_round_goes_on():
    out = run_worker({"workload": "verify-product", "cases": ["no-such-case", CHEAP_CASES[0]]})
    assert (out["attempted"], out["failed"]) == (2, 1)


def test_run_refuses_to_start_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "eval-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
