"""Verification runner: run registered identity cases and report on them.

Every identity in scope is an :class:`IdentityCase`: a named pair of series
builders plus lattice/order metadata; the 300 cases live in
:mod:`qstrings.cases`, which ``registry`` imports on its first call.
``run_suite`` evaluates both sides of each selected case at the case's order
(or an override), compares coefficient-by-coefficient, and reports pass /
first-mismatch / builder-error per case.  Reports are deterministic: case
order is fixed by registration, and the JSON form contains no volatile
fields unless timings are requested explicitly.
"""

from __future__ import annotations

import contextvars
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .series import Mismatch, QSeries, format_coeff

F = Fraction

SUITES = (
    "notation",
    "theta",
    "appell",
    "hecke",
    "strings_levels",
    "strings_symmetries",
    "mps",
    "kp_examples",
)

Builder = Callable[[Fraction], QSeries]


@dataclass(frozen=True)
class IdentityCase:
    id: str
    suite: str
    lhs: Builder
    rhs: Builder
    lattice_den: int
    default_order: Fraction
    paper_ref: str


class CaseResult(NamedTuple):
    case: IdentityCase
    status: str  # 'pass' | 'mismatch' | 'error'
    order: Fraction
    millis: float
    mismatch: Optional[Mismatch] = None
    error: str = ""


class VerifyReport:
    __slots__ = ("results",)

    def __init__(self, results: list):
        self.results = results

    @property
    def failures(self):
        return [r for r in self.results if r.status != "pass"]

    @property
    def all_pass(self) -> bool:
        return not self.failures


# -- registry ---------------------------------------------------------------------


def registry() -> list:
    """Every registered case, in registration order.  The first call imports
    `cases`, which builds them all; `eval` and `string` never call it."""
    from .cases import CASES

    return list(CASES)


def list_cases(filter: Optional[str] = None, suite: Optional[str] = None) -> list:
    out = registry()
    if suite and suite != "all":
        out = [c for c in out if c.suite == suite]
    if filter:
        out = [c for c in out if filter in c.id]
    return out


# -- runner ------------------------------------------------------------------


def run_case(case: IdentityCase, order: Optional[Fraction] = None) -> CaseResult:
    T = F(order) if order is not None else case.default_order
    t0 = time.perf_counter()
    try:
        lhs = case.lhs(T)
        rhs = case.rhs(T)
        for side in (lhs, rhs):
            # k/den lies on the lattice 1/lattice_den iff den divides
            # k*lattice_den, for every k when den divides lattice_den
            if case.lattice_den % side.den == 0:
                continue
            bad = [k for k in side.keys() if k * case.lattice_den % side.den]
            if bad:
                raise AssertionError(
                    f"exponent {F(min(bad), side.den)} off the /{case.lattice_den} lattice"
                )
        mm = lhs.compare(rhs, T)
    except Exception as exc:
        ms = 1000 * (time.perf_counter() - t0)
        return CaseResult(case, "error", T, ms, error=f"{type(exc).__name__}: {exc}")
    ms = 1000 * (time.perf_counter() - t0)
    if mm is None:
        return CaseResult(case, "pass", T, ms)
    return CaseResult(case, "mismatch", T, ms, mismatch=mm)


def run_suite(suite: str = "all", order: Optional[Fraction] = None,
              jobs: int = 1, filter: Optional[str] = None) -> VerifyReport:
    cases = list_cases(filter=filter, suite=suite)
    if jobs > 1:
        # each worker runs in a copy of the caller's context, so settings such
        # as margin_scale carry over without being shared between cases
        from concurrent.futures import ThreadPoolExecutor

        ctx = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda c: ctx.copy().run(run_case, c, order), cases))
    else:
        results = [run_case(c, order) for c in cases]
    return VerifyReport(results)


# -- rendering ---------------------------------------------------------------


def report_to_json(report: VerifyReport, timings: bool = False) -> str:
    rows = []
    for r in report.results:
        row = {
            "case_id": r.case.id,
            "suite": r.case.suite,
            "status": r.status,
            "order": str(r.order),
            "paper_ref": r.case.paper_ref,
        }
        if r.status == "mismatch":
            row["mismatch"] = {
                "exponent": str(r.mismatch.exponent),
                "lhs": format_coeff(r.mismatch.left),
                "rhs": format_coeff(r.mismatch.right),
            }
        if r.status == "error":
            row["error"] = r.error
        if timings:
            row["millis"] = round(r.millis, 3)
        rows.append(row)
    return json.dumps(rows, indent=2, sort_keys=True)


def report_to_text(report: VerifyReport) -> str:
    width = max((len(r.case.id) for r in report.results), default=10)
    lines = []
    for r in report.results:
        status = r.status.upper()
        extra = ""
        if r.status == "mismatch":
            extra = (f"  at q^{r.mismatch.exponent}: "
                     f"{format_coeff(r.mismatch.left)} vs {format_coeff(r.mismatch.right)}")
        elif r.status == "error":
            extra = f"  {r.error}"
        lines.append(f"{r.case.id:<{width}}  {status:<8} order {str(r.order):<6} "
                     f"{r.millis:9.1f} ms{extra}")
    n = len(report.results)
    bad = len(report.failures)
    lines.append(f"{n - bad}/{n} passed" + (f", {bad} FAILED" if bad else ""))
    return "\n".join(lines)
