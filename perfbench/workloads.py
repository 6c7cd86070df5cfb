"""The three workloads: what each one runs, drawn from `--seed`.

Everything here is plain data. run.py builds a plan (a list of case ids
or CLI argument lists) and hands it to a fresh worker process, so the
program receives only the generated inputs.

Seeded samples are balanced against a table of reference costs so that two
seeds select different inputs but about the same amount of work: the
spread of a timing across seeds then measures the program, not the draw.
The verify costs come from reference.json (each case timed alone in a fresh
process, as the verify workloads run it), the eval costs from golden.json.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-quotient", "verify-product", "eval-session")

# verify-quotient: the appell suite plus four hecke families, all of which
# assemble theta quotients with denominators. Cases that alone take 5 s or
# more are left out so that a run stays short and a seed cannot draw a
# third of the run's time in one case; their siblings (change-z/3,
# acdivb/n=2/1, acdivb/n=3/*) take the same path.
QUOTIENT_SUITES = ("appell",)
QUOTIENT_FAMILIES = ("acdivb/", "masterF/", "genfn/", "singshift/")
QUOTIENT_LEFT_OUT = ("change-z/0", "change-z/1", "change-z/2", "change-z/4",
                     "acdivb/n=2/0", "acdivb/n=2/2")
PRODUCT_SUITES = ("theta",)
# cases per round: about 10 s of reference cost each (12-14 s with the
# processes' start-up), so that a run repeats the round and reports the
# median. An odd count puts the median case in one stratum of neighbouring
# costs; many small strata keep the errors of the cost table from adding up.
SAMPLE_SIZE = {"verify-quotient": 9, "verify-product": 11}

# The runner's concurrency, measured in verify-product's traced run: a fixed
# theta-suite selection run through the CLI with two threads. elliptic/n=-1
# and n=-2 are four cases of about 1.2 s each on the product path; the 31 s
# weierstrass/* selection would not fit the run-time budget.
PARALLEL_ARGV = ["verify", "--suite", "theta", "--filter", "elliptic/n=-",
                 "--jobs", "2", "--format", "json"]

# eval-session: (stratum, unique requests, repeats) per run. A repeat is an
# exact copy of an earlier request of its stratum, so about a quarter of the
# stream repeats. The costly strata (string@100/200, theta_side@100, the
# fine lattices) are few, so that a round takes about 10 s and a run repeats
# it; a stratum with one member always gives its middle-cost request.
EVAL_STREAM = (
    ("string@50", 20, 7),
    ("string@100", 3, 1),
    ("string@200", 1, 0),
    ("theta_side@50", 10, 3),
    ("theta_side@100", 1, 1),
    ("eta@50", 6, 3),
    ("jquot@50", 10, 4),
    ("jquot@100", 2, 1),
    ("hecke_f", 15, 7),
    ("fine_j@20", 2, 1),
    ("fine_m@20", 2, 1),
)


def _labels():
    """Every valid string-function label (N, ell, m) with N <= 4, m < 2N."""
    return [(N, ell, m) for N in range(1, 5) for ell in range(N + 1)
            for m in range(2 * N) if (ell - m) % 2 == 0]


def eval_request(text, order):
    return ["eval", text, "--order", str(order), "--format", "json"]


def eval_universe() -> dict:
    """stratum -> list of CLI argument lists; golden.json covers all of them."""
    u = {}
    for order in (50, 100, 200):
        u[f"string@{order}"] = [
            ["string", "--N", str(N), "--ell", str(ell), "--m", str(m),
             "--order", str(order), *norm, "--format", "json"]
            for N, ell, m in _labels() for norm in ([], ["--normalized"])
        ]
    for order in (50, 100):
        u[f"theta_side@{order}"] = [eval_request(f"theta_side({N},{ell},{m})", order)
                                    for N, ell, m in _labels()]
    u["eta@50"] = [eval_request(t, 50) for t in (
        "eta(1)^3", "eta(2)^2/eta(1)", "eta(1)^(-1)", "eta(1)^2*eta(2)",
        "eta(2)^3/eta(1)^2", "eta(1)*eta(3)", "eta(2)/eta(1)^2", "eta(1)^5/eta(2)^2")]
    jq = [f"J[{a},{m}]/J[{b},{m}]" for m, a, b in (
        (5, 1, 2), (7, 1, 3), (7, 2, 3), (7, 1, 2), (8, 1, 3), (10, 1, 4),
        (10, 3, 4), (12, 1, 5), (12, 2, 5), (9, 2, 4), (6, 1, 2), (11, 3, 5))]
    u["jquot@50"] = [eval_request(t, 50) for t in jq]
    u["jquot@100"] = [eval_request(t, 100) for t in jq]
    u["hecke_f"] = [eval_request(t, order) for order in (50, 100, 200) for t in (
        "f(1,2,1; q,q; 1)", "f(3,3,1; -q^2,q; 1)", "f(1,3,1; q,q^2; 1)",
        "f(2,3,2; q,-q; 1)", "f(1,4,1; -q,q^2; 1)")]
    u["fine_j@20"] = [eval_request(f"j(q^({a}/{p}), q)", 20) for a, p in (
        (1, 5), (2, 5), (1, 3), (2, 7), (3, 7), (1, 7), (3, 5), (4, 7))]
    u["fine_m@20"] = [eval_request(t, 20) for t in (
        "m(q, q^2, -1)", "m(q^(1/2), q, -1)", "m(-q, q^3, q^(1/2))",
        "m(q^(1/5), q, q^(1/3))", "m(-q^(1/3), q, q^(2/7))", "m(q^(2/5), q, -q^(1/3))")]
    return u


def request_key(argv) -> str:
    return " ".join(argv)


def load(name):
    with open(HERE / name) as fh:
        return json.load(fh)


def balanced_sample(cost: dict, n: int, rng, tol=0.02) -> list:
    """n keys of `cost`, one from each of n strata of neighbouring cost,
    drawn by `rng`; then members are swapped within their stratum until the
    summed cost is within `tol` of the strata means' sum (or no swap helps).
    The middle and the costliest stratum always give their middle member:
    the first keeps the sample's median steady, the second fixes the one
    input that dominates a sample's time and memory. The swaps keep the
    total steady."""
    items = sorted(cost, key=lambda k: (cost[k], k))
    if n <= 0:
        return []
    if n >= len(items):
        return items
    strata = [items[len(items) * i // n: len(items) * (i + 1) // n] for i in range(n)]
    pick = [rng.choice(s) for s in strata]
    pinned = {n // 2, n - 1}
    for i in pinned:
        pick[i] = strata[i][len(strata[i]) // 2]
    target = sum(sum(cost[k] for k in s) / len(s) for s in strata)
    total = sum(cost[k] for k in pick)
    for _ in range(8 * n):
        if abs(total - target) <= tol * target:
            break
        i = rng.randrange(n)
        if i in pinned:
            continue
        best = min(strata[i], key=lambda k: abs(total - cost[pick[i]] + cost[k] - target))
        if abs(total - cost[pick[i]] + cost[best] - target) < abs(total - target):
            total += cost[best] - cost[pick[i]]
            pick[i] = best
    return pick


def in_pool(workload, case_id, suite) -> bool:
    if workload == "verify-quotient":
        return (suite in QUOTIENT_SUITES or case_id.startswith(QUOTIENT_FAMILIES)) \
            and not case_id.startswith(QUOTIENT_LEFT_OUT)
    return workload == "verify-product" and suite in PRODUCT_SUITES


def verify_pool(workload) -> dict:
    """case id -> reference milliseconds, each case alone in a fresh process."""
    return dict(load("reference.json")["isolated_ms"][workload])


def plan(workload, seed) -> dict:
    """The inputs for one run, and the expected results the worker checks
    them against: the same seed always gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("verify-quotient", "verify-product"):
        pool = verify_pool(workload)
        cases = balanced_sample(pool, SAMPLE_SIZE[workload], rng)
        rng.shuffle(cases)
        return {"workload": workload, "cases": cases}
    if workload == "eval-session":
        golden = load("golden.json")
        universe = eval_universe()
        stream = []
        for stratum, n_unique, n_repeat in EVAL_STREAM:
            members = {request_key(a): a for a in universe[stratum]}
            cost = {k: golden[k]["ms"] for k in members}
            chosen = balanced_sample(cost, n_unique, rng)
            again = balanced_sample({k: cost[k] for k in chosen}, n_repeat, rng)
            stream += [members[k] for k in chosen + again]
        # shuffle, then move each repeat behind its first occurrence
        rng.shuffle(stream)
        seen, firsts, repeats = set(), [], []
        for argv in stream:
            key = request_key(argv)
            (repeats if key in seen else firsts).append(argv)
            seen.add(key)
        for argv in repeats:
            first = next(i for i, a in enumerate(firsts) if a == argv)
            firsts.insert(rng.randrange(first + 1, len(firsts) + 1), argv)
        golden = {request_key(a): golden[request_key(a)] for a in firsts}
        return {"workload": workload, "requests": firsts, "golden": golden}
    raise ValueError(f"unknown workload {workload!r}")


def parallel_plan() -> dict:
    """The fixed `qstrings verify --jobs 2` selection behind
    `verify.parallel_eff`, with the cases it must report as passing."""
    filt = PARALLEL_ARGV[PARALLEL_ARGV.index("--filter") + 1]
    expect = sorted(c for c, (suite, _ms) in load("reference.json")["case_ms"].items()
                    if suite == "theta" and filt in c)
    return {"workload": "verify-jobs", "argv": PARALLEL_ARGV, "expect": expect}
