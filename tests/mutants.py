"""The mutation catalogue: named source edits that the tests must catch.

Each mutant is an exact edit of one file of the package (the `before` text,
which occurs exactly once there, becomes `after`) plus the pytest node ids
that must fail on it.  The script applies each mutant to a temporary copy of
the repository and runs those tests with ``-x``, once under each of the
fixed hypothesis seeds SEEDS, each run in a fresh copy; a mutant is killed
when they fail under both seeds, survives when they pass under both and is
flaky when the seeds disagree: its verdict then rests on the draws.  The
script exits 0 only when every mutant is killed.  A survivor means that a
test is missing, or that the mutant is equivalent and belongs in EQUIVALENT
with its reason; a flaky mutant needs a deterministic killer.
``tests/test_mutants.py`` checks in Tier-1 that every `before` text still
occurs exactly once, so the catalogue fails loudly when code moves.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named ones

Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)  # --hypothesis-seed values, one run each


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    before: str
    after: str
    tests: tuple  # pytest node ids, relative to the repository root


THETA, APPELL, HECKE = "src/qstrings/theta.py", "src/qstrings/appell.py", "src/qstrings/hecke.py"
SERIES, STRINGS = "src/qstrings/series.py", "src/qstrings/strings.py"
EXPR, CASES = "src/qstrings/expr.py", "src/qstrings/cases.py"
PLAN_PROPERTY = "tests/test_theta.py::test_int_plan_matches_the_fraction_plan"
CHAIN_PROPERTY = "tests/test_theta.py::test_theta_quotient_matches_the_sequential_restatement"
TRUNC_CHAINS = "tests/test_series.py::test_int_truncs_follow_the_fraction_restatement_over_chains"

MUTANTS = (
    # -- the int planning of theta quotients, Appell-Lerch sums and windows
    Mutant("valuation-lo-off-by-one", THETA,
           "    lo = (B - 2 * X) // (2 * B)\n",
           "    lo = (B - 2 * X) // (2 * B) + 1\n",
           (PLAN_PROPERTY, "tests/test_theta.py::test_valuation_is_least_exponent")),
    Mutant("zero-test-modulo-the-lattice", THETA,
           "    if any(int_is_zero(*f) for f in nums):",
           "    if any(int_is_zero(u, X, D) for u, X, _ in nums):",
           (PLAN_PROPERTY,)),
    Mutant("deficit-signs-swapped", THETA,
           "on_lattice(pre_qexp, D) - sum(n_vals) + sum(d_vals)",
           "on_lattice(pre_qexp, D) + sum(n_vals) - sum(d_vals)",
           (PLAN_PROPERTY,)),
    Mutant("window-pad-dropped", THETA,
           "(u, X, B, v, v + max(deficit, B) + pad(B))",
           "(u, X, B, v, v + max(deficit, B))",
           (PLAN_PROPERTY,)),
    Mutant("window-floor-dropped", THETA,
           "(u, X, B, v, v + max(deficit, B) + pad(B))",
           "(u, X, B, v, v + deficit + pad(B))",
           (PLAN_PROPERTY,)),
    Mutant("parabola-lo-off-by-one", THETA,
           "    if A * lo * (lo - 1) + 2 * (B * lo - W) >= 0:\n        lo += 1\n",
           "    if A * lo * (lo - 1) + 2 * (B * lo - W) >= 0:\n        lo += 2\n",
           (PLAN_PROPERTY, "tests/test_theta.py::test_parabola_range_matches_bruteforce")),
    Mutant("jtheta-window-floor-for-ceil", THETA,
           "        return QSeries.zero()\n    return QSeries.lattice(D, *int_jtheta(x.unit_k, X, B, lattice_bound(order, D)",
           "        return QSeries.zero()\n    return QSeries.lattice(D, *int_jtheta(x.unit_k, X, B, order.numerator * D // order.denominator",
           ("tests/test_theta.py",)),
    Mutant("appell-geometric-tail-one-short", APPELL,
           "run = [(e_r + t * d, lead_k + rho_k * t) for t in range(-((e_r - W) // d))]",
           "run = [(e_r + t * d, lead_k + rho_k * t) for t in range(-((e_r - W) // d) - 1)]",
           ("tests/test_appell.py",)),
    Mutant("appell-divisor-window-sigma-sign", APPELL,
           "    W_d = max(o_z + Bc, T + 2 * o_z - sigma + pad(Bc))  # win_d; sigma <= 0",
           "    W_d = max(o_z + Bc, T + 2 * o_z + sigma + pad(Bc))  # win_d; sigma <= 0",
           ("tests/test_appell.py",)),
    Mutant("theta-times-window-ignores-rest", HECKE,
           "    W = T - low.numerator * D // low.denominator + pad(B)",
           "    W = T + pad(B)",
           ("tests/test_hecke.py::TestG1b1",)),
    Mutant("j1-cubed-window-floor-dropped", STRINGS,
           "    W = max(T - sigma.numerator * D // sigma.denominator, M) + pad(M)",
           "    W = T - sigma.numerator * D // sigma.denominator + pad(M)",
           ("tests/test_strings.py",)),
    Mutant("jm-cubed-drops-n-zero", THETA,
           "for n in range(max(r.start, 0), r.stop)}",
           "for n in range(max(r.start, 1), r.stop)}",
           ("tests/test_theta.py::test_Jm_cubed_is_the_cube_of_Jm",)),
    # -- the int kernels of series.py
    Mutant("bound-floor-for-ceil", SERIES,
           "    return -(-r.numerator * den // r.denominator)\n",
           "    return r.numerator * den // r.denominator\n",
           ("tests/test_series.py::TestCompare", "tests/test_theta.py")),
    # -- the int truncations: a trunc off the lattice lifts den, and a
    # product's trunc adds each side's trunc to the other side's least key
    Mutant("den-not-lifted-for-an-off-lattice-trunc", SERIES,
           "    m = trunc.denominator // gcd(den, trunc.denominator)\n",
           "    m = 1\n",
           ("tests/test_series.py::TestOffLatticeTrunc", TRUNC_CHAINS)),
    Mutant("mul-tk-offset-by-its-own-least-key", SERIES,
           "        tk = min(ta + min(br[0][0] if br else tb, bi[0][0] if bi else tb),\n"
           "                 tb + min(ar[0][0] if ar else ta, ai[0][0] if ai else ta))\n",
           "        tk = min(ta + min(ar[0][0] if ar else ta, ai[0][0] if ai else ta),\n"
           "                 tb + min(br[0][0] if br else tb, bi[0][0] if bi else tb))\n",
           ("tests/test_series.py::TestAddMul::test_mul_trunc_off_both_lattices",
            "tests/test_series.py::test_mul_matches_poly_mul_oracle", TRUNC_CHAINS)),
    # -- the division on one int buffer: its rescale, its residue classes,
    # its length, the chain's truncations and the folded prefactor
    Mutant("long-divide-keeps-finished-numerators", SERIES,
           "                b[:] = [x * N for x in b]\n",
           "                b[j:] = [x * N for x in b[j:]]\n",
           ("tests/test_series.py::test_mul_div_on_non_minimal_lattices",
            "tests/test_series.py::test_division_by_non_unit_leads_matches_oracle")),
    Mutant("conjugate-left-off-the-dividend", SERIES,
           "            a, f = a * fc, f * fc\n",
           "            f = f * fc\n",
           ("tests/test_series.py::TestDivision::test_non_real_divisor",
            "tests/test_series.py::test_division_by_non_unit_leads_matches_oracle", CHAIN_PROPERTY)),
    Mutant("chain-exactness-forgets-the-zero-dividend", SERIES,
           "        exact = exact and (f.tk.__class__ is float or not (a.real or a.imag))\n",
           "        exact = exact and f.tk.__class__ is float\n",
           ("tests/test_series.py::TestDivision",)),
    Mutant("buffer-step-ignores-the-dividend-offsets", SERIES,
           "            r = x % h\n",
           "            r = 0\n",
           ("tests/test_series.py::TestDivision", CHAIN_PROPERTY)),
    Mutant("buffer-length-floor-for-ceil", SERIES,
           "                lists[r] = x, [0] * -((x - B) // h)\n",
           "                lists[r] = x, [0] * ((B - x) // h)\n",
           ("tests/test_series.py::TestDivision", CHAIN_PROPERTY)),
    Mutant("chain-trunc-from-the-previous-ord", SERIES,
           "        T, o, V = min(T - v, o + f.tk * mf - 2 * v), o - v, V + v\n",
           "        T, o, V = min(T - v, o + f.tk * mf - 2 * v), o, V + v\n",
           ("tests/test_series.py::TestDivision::test_chain_trunc_moves_with_each_least_exponent",
            CHAIN_PROPERTY)),
    Mutant("prefactor-fold-sign", SERIES,
           "    e = on_lattice(shift.qexp, L) - V\n",
           "    e = -on_lattice(shift.qexp, L) - V\n",
           ("tests/test_theta.py::TestThetaQuotient", CHAIN_PROPERTY)),
    Mutant("combo-keeps-the-bound", SERIES,
           "    t = {k: a * c for k, c in x.items() if k < bound} if a else {}",
           "    t = {k: a * c for k, c in x.items() if k <= bound} if a else {}",
           ("tests/test_series.py::TestAddMul::test_sum_drops_the_term_at_the_lower_trunc",
            "tests/test_series.py::test_add_sub_neg_match_oracle")),
    Mutant("convolve-breaks-past-the-bound", SERIES,
           "            if k >= bound:\n                break\n",
           "            if k > bound:\n                break\n",
           ("tests/test_series.py",)),
    # -- a finite product, the JSON writer and the second pass of eval
    Mutant("pochhammer-finite-product-one-short", THETA,
           "min(W - n * min(k0, 0), k0 + n * step)",
           "min(W - n * min(k0, 0), k0 + (n - 1) * step)",
           ("tests/test_theta.py::TestPochhammer",)),
    Mutant("json-imaginary-part-over-the-real-gcd", SERIES,
           "cden // gr, im // gi, cden // gi))",
           "cden // gr, im // gr, cden // gr))",
           ("tests/test_series.py::TestGaussianRational",)),
    Mutant("eval-second-pass-one-above", EXPR,
           'out = _eval_series(node, work + (order - out.trunc), "expr", raises)',
           'out = _eval_series(node, work + 1, "expr", raises)',
           ("tests/test_expr.py::test_evaluate_takes_at_most_two_passes",)),
    Mutant("eval-divisor-raise-forgotten", EXPR,
           "                raises[key] = r\n",
           "",
           ("tests/test_expr.py::TestEvaluate",)),
    Mutant("appell-sum-window-below-order-plus-o_z", APPELL,
           "    W = T + o_z + pad(Bc)  # win_s",
           "    W = T + 2 * o_z + pad(Bc)  # win_s",
           ("tests/test_appell.py::TestFunctionalEquations",)),
    # -- the plain records and the registry built on first use
    Mutant("monomial-unit-not-reduced", SERIES,
           'object.__setattr__(self, "unit_k", unit_k % 4)',
           'object.__setattr__(self, "unit_k", unit_k)',
           ("tests/test_series.py::TestMonomial",)),
    Mutant("string-label-parity-unchecked", STRINGS,
           "        if (m - ell) % 2 != 0:\n",
           "        if False:\n",
           ("tests/test_strings.py::TestLabel",)),
    Mutant("registry-returns-the-cases-unbuilt", CASES,
           "\n_register_notation()\n_register_theta()\n_register_appell()\n_register_hecke()\n"
           "_register_strings()\n_register_mps()\n_register_kp()\n",
           "\n",
           ("tests/test_imports.py::test_cli_start_up_loads_neither_the_cases_nor_the_thread_pool",)),
)

# mutants no test can kill, with the reason; the Tier-1 guard checks their
# `before` texts too
EQUIVALENT = (
    (Mutant("factor-range-pad-dropped", THETA,
            "        return QSeries.lattice(D, *int_jtheta(unit_k, X, B, W + pad(B)), Fraction(W, D))",
            "        return QSeries.lattice(D, *int_jtheta(unit_k, X, B, W), Fraction(W, D))",
            ()),
     "the sum's range is exact, and QSeries.lattice drops every term at or above the trunc W/D, "
     "so the audit slack widens a range whose extra terms are never stored"),
)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.before) != 1:
        raise ValueError(f"{mutant.name}: `before` occurs {text.count(mutant.before)} times in {mutant.file}")
    path.write_text(text.replace(mutant.before, mutant.after))


def run(mutant: Mutant, seed: int) -> tuple:
    """(outcome, seconds) for one mutant under one hypothesis seed, in a
    temporary copy of the repository: killed when its tests fail, survived
    when they pass, and an error on any other pytest exit (no such test, a
    usage error)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               f"--hypothesis-seed={seed}", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
        outcome = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"ERROR {proc.returncode}")
        return outcome, time.perf_counter() - t0


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    not_killed = 0
    for m in chosen:
        runs = [run(m, seed) for seed in SEEDS]
        outcomes = {outcome for outcome, _ in runs}
        outcome = outcomes.pop() if len(outcomes) == 1 else "flaky"
        not_killed += outcome != "killed"
        secs = "  ".join(f"{secs:6.1f} s" for _, secs in runs)
        print(f"{outcome:8}  {secs}  {m.name}", flush=True)
    for m, reason in EQUIVALENT:
        print(f"{'equiv':8}  {'':8}  {m.name}: {reason}")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
