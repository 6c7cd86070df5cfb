"""The verification harness itself: registry, runner, reports."""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

from oracles import series_to_json_terms
from qstrings.series import Monomial, QSeries, margin_scale, pad
from qstrings.theta import Jm
from qstrings import verify
from qstrings.verify import (
    CaseResult,
    IdentityCase,
    VerifyReport,
    list_cases,
    registry,
    report_to_json,
    report_to_text,
    run_case,
    run_suite,
)

MANIFEST = Path(__file__).parent / "data" / "case_manifest.txt"
# case id, then the digests of its lhs and its rhs at the default order
DIGESTS = Path(__file__).parent / "data" / "case_digests.txt"


def side_digest(s: QSeries) -> str:
    """sha256 of a series' JSON terms and its trunc: the boundary view, so the
    digest does not depend on how the series is stored."""
    return hashlib.sha256((json.dumps(series_to_json_terms(s)) + str(s.trunc)).encode()).hexdigest()


def case_digests() -> list:
    return [(c.id, side_digest(c.lhs(c.default_order)), side_digest(c.rhs(c.default_order)))
            for c in registry()]


class TestRegistry:
    def test_matches_manifest(self):
        want = [tuple(line.split("\t")) for line in MANIFEST.read_text().splitlines()]
        got = [(c.suite, c.id) for c in registry()]
        assert got == want

    def test_sides_match_digests(self):
        # a pass/fail status cannot see a slip that moves both sides alike
        want = [tuple(line.split("\t")) for line in DIGESTS.read_text().splitlines()]
        assert case_digests() == want

    def test_sides_match_digests_under_audit_slack(self):
        # every window widened by two steps of its modulus moves no
        # coefficient and no trunc of any side of any case
        want = [tuple(line.split("\t")) for line in DIGESTS.read_text().splitlines()]
        with margin_scale(2):
            assert pad(1) > 0
            got = case_digests()
        assert got == want

    def test_size_and_uniqueness(self):
        cases = registry()
        assert len(cases) >= 60
        ids = [c.id for c in cases]
        assert len(set(ids)) == len(ids)

    def test_known_suites_only(self):
        assert {c.suite for c in registry()} <= set(verify.SUITES)

    def test_filter(self):
        assert len(list_cases("f131")) == 3
        assert list_cases("does-not-exist") == []
        assert all(c.suite == "kp_examples" for c in list_cases(suite="kp_examples"))


class TestRunner:
    def test_fault_injection_reports_first_mismatch(self):
        base = IdentityCase(
            "injected", "theta",
            lambda T: Jm(1, T),
            lambda T: Jm(1, T) + Monomial.q(5).as_series(),
            1, F(12), "fault injection",
        )
        r = run_case(base)
        assert r.status == "mismatch"
        assert r.mismatch.exponent == 5

    def test_result_and_report_records(self):
        case = IdentityCase("rec", "theta", Jm, Jm, 1, F(3), "")
        r = CaseResult(case, "pass", F(3), 1.5)
        assert (r.mismatch, r.error) == (None, "")
        assert r == CaseResult(case, "pass", F(3), 1.5, None, "")
        assert repr(r).startswith("CaseResult(case=IdentityCase(id='rec'")
        assert repr(r).endswith("order=Fraction(3, 1), millis=1.5, mismatch=None, error='')")
        bad = r._replace(status="error", error="E")
        report = VerifyReport([r, bad])
        assert report.failures == [bad] and not report.all_pass
        assert VerifyReport([r]).all_pass

    def test_off_lattice_exponent_names_the_least(self):
        off = QSeries({F(7, 3): 1, F(0): 1, F(1, 2): 1, F(5, 2): 1}, F(10))
        case = IdentityCase("off-lattice", "theta", lambda T: off, lambda T: off, 1, F(5), "")
        r = run_case(case)
        assert r.status == "error"
        assert r.error == "AssertionError: exponent 1/2 off the /1 lattice"

    def test_builder_error_captured(self):
        def boom(T):
            raise ValueError("deliberate")

        case = IdentityCase("boom", "theta", boom, lambda T: QSeries.zero(), 1, F(5), "")
        r = run_case(case)
        assert r.status == "error"
        assert "deliberate" in r.error

    def test_lattice_check(self):
        case = IdentityCase(
            "off-lattice", "theta",
            lambda T: Monomial(0, F(1, 7)).as_series(),
            lambda T: Monomial(0, F(1, 7)).as_series(),
            2, F(5), "",
        )
        r = run_case(case)
        assert r.status == "error" and "lattice" in r.error

    # den 10 with only even keys is the /5 lattice; an odd key is 1/10 off it
    EVEN = QSeries.lattice(10, {0: 1, 4: 2}, {16: 1}, F(5))

    def test_non_minimal_den_on_the_lattice_passes(self):
        assert self.EVEN.den == 10
        case = IdentityCase("even", "theta", lambda T: self.EVEN, lambda T: self.EVEN, 5, F(5), "")
        assert run_case(case).status == "pass"

    def test_odd_key_is_off_the_lattice(self):
        odd = QSeries.lattice(10, {0: 1, 4: 2, 3: 1, 7: 1}, {}, F(5))
        assert odd.den == 10
        case = IdentityCase("odd", "theta", lambda T: self.EVEN, lambda T: odd, 5, F(5), "")
        r = run_case(case)
        assert r.status == "error"
        assert r.error == "AssertionError: exponent 3/10 off the /5 lattice"

    def test_off_lattice_imaginary_term_is_an_error(self):
        # the side's real part lies on the /5 lattice; its only off-lattice
        # term, at q^(1/2), is imaginary
        side = QSeries.lattice(10, {0: 1, 4: 2}, {16: 1, 5: 3}, F(5))
        case = IdentityCase("imag-off", "theta", lambda T: self.EVEN, lambda T: side, 5, F(5), "")
        r = run_case(case)
        assert r.status == "error"
        assert r.error == "AssertionError: exponent 1/2 off the /5 lattice"

    def test_order_override_and_monotonicity(self):
        case = next(c for c in registry() if c.id == "f121/x=q,y=q")
        for T in (5, 10, 18):
            assert run_case(case, F(T)).status == "pass"

    def test_parallel_report_identical(self):
        seq = run_suite("kp_examples", jobs=1)
        par = run_suite("kp_examples", jobs=4)
        assert report_to_json(seq) == report_to_json(par)

    def test_parallel_workers_inherit_margin_scale(self, monkeypatch):
        monkeypatch.setattr(verify, "run_case", lambda case, order: pad(1))
        with margin_scale(3):
            report = run_suite("notation", jobs=2)
        assert report.results and set(report.results) == {3}

    def test_json_deterministic_and_complete(self):
        a = report_to_json(run_suite("notation"))
        b = report_to_json(run_suite("notation"))
        assert a == b
        rows = json.loads(a)
        assert all(set(r) >= {"case_id", "suite", "status", "order", "paper_ref"}
                   for r in rows)
        assert all("millis" not in r for r in rows)

    def test_json_timings_optional(self):
        rows = json.loads(report_to_json(run_suite("notation"), timings=True))
        assert all("millis" in r for r in rows)

    def test_text_report_has_summary(self):
        rep = run_suite("notation")
        text = report_to_text(rep)
        assert text.splitlines()[-1].startswith(f"{len(rep.results)}/{len(rep.results)}")


if __name__ == "__main__":  # rewrite the digests: only for an intended change of output
    DIGESTS.write_text("".join("\t".join(row) + "\n" for row in case_digests()))
