"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Every criterion is exact (tolerance zero): series are compared coefficient
by coefficient over exact rationals, so a pass means identity to the stated
order, full stop.
"""

import random
import time
from fractions import Fraction as F

from qstrings import verify
from qstrings.appell import appell_m
from qstrings.cli import main as cli_main
from qstrings.expr import ParseError, parse, pretty
from qstrings.hecke import genfn_rhs, hecke_f
from qstrings.series import Monomial, margin_scale, pad
from qstrings.strings import StringLabel, calC_hecke, calC_oracle
from qstrings.theta import jtheta

from test_expr import ROUND_TRIP_CORPUS

q = Monomial.q
mq = Monomial.mq


def run_prefixes(prefixes, order=None, budget=None, label=""):
    t0 = time.time()
    cases = [c for c in verify.registry()
             if any(c.id.startswith(p) for p in prefixes)]
    assert cases, prefixes
    results = [verify.run_case(c, order) for c in cases]
    elapsed = time.time() - t0
    bad = [r for r in results if r.status != "pass"]
    detail = "; ".join(f"{r.case.id}: {r.error or r.mismatch}" for r in bad[:4])
    status = "PASS" if not bad else "FAIL"
    print(f"{status} {label}: {len(results) - len(bad)}/{len(results)} identities "
          f"in {elapsed:.1f}s" + (f" [{detail}]" if detail else ""))
    assert not bad, detail
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.1f}s exceeded the {budget}s budget"
    return results


def test_criterion_1_level_theorems():
    results = run_prefixes(
        ["level1/", "level2/l", "level3/l", "level4/l"],
        budget=60, label="criterion 1 (level theorems, order 30)",
    )
    assert len(results) == 40
    assert all(r.order == 30 for r in results)


def test_criterion_2_oracle_cross_check():
    results = run_prefixes(
        ["oracle-cross/"],
        budget=60, label="criterion 2 (oracle cross-check, order 25)",
    )
    assert len(results) == 40
    assert all(r.order == 25 for r in results)


def test_criterion_3_kp_examples():
    results = run_prefixes(
        ["kp/KP"],
        budget=120, label="criterion 3 (classical examples, 10 powers of q)",
    )
    assert len(results) == 5
    assert all(r.order == 10 for r in results)


def test_criterion_4_evaluation_propositions():
    t0 = time.time()
    results = run_prefixes(
        ["f131/", "f141/", "level4-hecke/", "level4-string/"],
        label="criterion 4 (evaluation propositions, order 30)",
    )
    # 3 + 4 + (7 proposition rows + 3 companion evaluations) + 7
    assert len(results) == 24
    assert time.time() - t0 < 120


def test_criterion_5_structural_theorems():
    run_prefixes(
        ["masterF/", "acdivb/", "genfn/", "singshift/p=2", "singshift/p=3",
         "f-shift/", "f-flip/"],
        label="criterion 5 (structural expansions at sampled arguments)",
    )


def test_criterion_6_appell_laws():
    results = run_prefixes(
        ["z-period/", "flip/", "x-step/", "change-z/", "mxqz-eval/"],
        label="criterion 6 (Appell-Lerch laws)",
    )
    assert len(results) == 22
    evals = [r for r in results if r.case.id.startswith("mxqz-eval/")]
    assert all(r.order == 40 for r in evals)


def test_criterion_7_theta_laws():
    run_prefixes(
        ["triple-product/", "elliptic/", "reflect", "dissect/", "unity-dissect/",
         "weierstrass/", "two-square-split/", "sign-difference/", "sign-sum/",
         "split-law/", "j-split/", "level4/theta-evaluation", "level4/twelfth-split",
         "rearrange/", "split-chain/"],
        label="criterion 7 (theta laws)",
    )


def test_criterion_8_parser(capsys):
    rng = random.Random(20260810)
    crashes = 0
    for _ in range(100_000):
        n = rng.randrange(0, 32)
        s = bytes(rng.randrange(0, 256) for _ in range(n)).decode("latin-1")
        try:
            parse(s)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0

    for s in ROUND_TRIP_CORPUS:
        ast = parse(s)
        assert parse(pretty(ast)) == ast

    codes = []
    codes.append(cli_main(["eval", "J[1,2"]))
    codes.append(cli_main(["eval", "1/j(q,q)"]))
    codes.append(cli_main(["string", "--N", "2", "--ell", "1", "--m", "2"]))
    capsys.readouterr()
    assert codes == [2, 3, 4]
    with capsys.disabled():
        print("PASS criterion 8 (parser): 100000 fuzz inputs, "
              f"{len(ROUND_TRIP_CORPUS)} round trips, exit codes {codes}")


def test_criterion_9_determinism_and_margins():
    for suite in ("notation", "appell", "kp_examples", "mps"):
        a = verify.report_to_json(verify.run_suite(suite))
        b = verify.report_to_json(verify.run_suite(suite))
        assert a == b, f"suite {suite} not byte-identical"

    probes = [
        lambda: hecke_f(1, 5, 1, q(5), q(-7), 1, 20),
        lambda: hecke_f(3, 3, 1, q(5), q(4), 2, 25),
        lambda: appell_m(mq(3), 4, Monomial(2, F(0)), 25),
        lambda: jtheta(mq(F(2, 7)), 1, 25),
        lambda: calC_oracle(StringLabel(4, 2, 2), 20),
        lambda: calC_hecke(StringLabel(3, 1, 3), 20),
        lambda: genfn_rhs(4, q(F(2, 7)), q(F(3, 5)), 1, 14),
    ]
    # the default windows carry no slack; the audit widens every one of them
    # by two steps of its modulus, so the comparison is never vacuous
    assert pad(1) == 0
    baseline = [f() for f in probes]
    with margin_scale(2):
        assert pad(1) > 0
        widened = [f() for f in probes]
    for lo, hi in zip(baseline, widened):
        assert lo.terms == {e: c for e, c in hi.terms.items() if e < lo.trunc}
        assert lo.trunc <= hi.trunc
    print("PASS criterion 9 (determinism): byte-identical reports; "
          "a two-step audit slack moved no coefficient")
