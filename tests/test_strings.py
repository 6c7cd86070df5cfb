"""String functions: oracle vs production path, tables, symmetries, examples."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qstrings

from qstrings.series import Monomial, margin_scale
from qstrings.strings import (
    C_full,
    InvalidLabel,
    InvalidParity,
    StringLabel,
    UnsupportedLevel,
    _LEVEL_THETA,
    calC_hecke,
    calC_oracle,
    eta_quotient,
    kp_eta_side,
    kp_string_side,
    level_theta_side,
    mps_cor2_rhs,
    mps_cor3_rhs,
    mps_split_rhs,
    normalized_theta_form,
    s_exponent,
    symmetry_reduce,
)
from qstrings.theta import J, Jbar, Jm

from oracles import pochhammer_product, poly_div, poly_mul, product_expand


def assert_equal(a, b, upto):
    m = a.compare(b, upto)
    assert m is None, m


def all_labels(max_level=4):
    for N in range(1, max_level + 1):
        for ell in range(N + 1):
            for m in range(2 * N):
                if (m - ell) % 2 == 0:
                    yield StringLabel(N, ell, m)


class TestLabel:
    def test_validation(self):
        with pytest.raises(InvalidParity):
            StringLabel(2, 1, 2)
        with pytest.raises(InvalidLabel):
            StringLabel(2, 3, 1)
        with pytest.raises(InvalidLabel):
            StringLabel(0, 0, 0)

    def test_record_behaviour(self):
        lbl = StringLabel(4, 1, 3)
        assert lbl == StringLabel(4, 1, 3) and lbl != StringLabel(4, 1, 5)
        assert hash(lbl) == hash((4, 1, 3))
        assert repr(lbl) == "StringLabel(N=4, ell=1, m=3)"
        assert (lbl.N, lbl.ell, lbl.m) == (4, 1, 3)
        with pytest.raises(AttributeError):
            lbl.m = 5
        with pytest.raises(AttributeError):
            del lbl.N

    def test_s_exponent_values(self):
        assert s_exponent(StringLabel(2, 1, 1)) == 0
        assert s_exponent(StringLabel(4, 0, 0)) == F(-1, 12)
        assert s_exponent(StringLabel(3, 0, 2)) == F(-49, 120)
        assert s_exponent(StringLabel(1, 0, 0)) == F(-1, 24)
        assert s_exponent(StringLabel(4, 1, 1)) == F(-1, 48)


class TestOracle:
    def test_level1_constant(self):
        s = calC_oracle(StringLabel(1, 0, 0), 10)
        assert s[0].as_fraction() == 1

    def test_level1_is_j1_squared_over_cube(self):
        T = 30
        lhs = calC_oracle(StringLabel(1, 0, 0), T) * (Jm(1, T) ** 3)
        assert_equal(lhs.truncate(T), (Jm(1, T) ** 2), T)

    def test_level2_row(self):
        T = 25
        lhs = calC_oracle(StringLabel(2, 1, 1), T) * (Jm(1, T) ** 3)
        assert_equal(lhs.truncate(T), Jm(1, T) * Jm(2, T), T)

    @pytest.mark.parametrize("lbl", list(all_labels(3)))
    def test_matches_hecke_path_levels_1_to_3(self, lbl):
        T = 25
        assert_equal(calC_oracle(lbl, T), calC_hecke(lbl, T), T)

    def test_matches_hecke_path_level4_sample(self):
        T = 20
        for lbl in [StringLabel(4, 0, 0), StringLabel(4, 2, 2), StringLabel(4, 1, 7),
                    StringLabel(4, 4, 6), StringLabel(4, 3, 5)]:
            assert_equal(calC_oracle(lbl, T), calC_hecke(lbl, T), T)

    def test_window_stability(self):
        lbl = StringLabel(3, 1, 3)
        lo = calC_oracle(lbl, 15)
        hi = calC_oracle(lbl, 25).truncate(15)
        assert lo.terms == hi.terms and lo.trunc == hi.trunc


@st.composite
def labels(draw):
    N = draw(st.integers(1, 5))
    ell = draw(st.integers(0, N))
    return StringLabel(N, ell, ell + 2 * draw(st.integers(-N - 1, N)))


# orders off the lattice 1/2 of the cone sum and of f_{1,1+N,1}
OFF_HALF = st.sampled_from([3, 5, 7]).flatmap(
    lambda d: st.integers(-2 * d, 16 * d).filter(lambda k: k % d).map(lambda k: F(k, d)))


@settings(max_examples=60, deadline=None)
@given(labels(), OFF_HALF)
# nothing lies below a negative order, and J_1^3 must still hold its term 1
@example(StringLabel(1, 0, 0), F(-7, 3))
def test_calC_paths_agree_without_slack(lbl, T):
    # the cone walk and the Hecke enumeration are exact without any slack: at
    # slack 0 the two paths agree term by term, and an audit slack moves nothing
    want = calC_oracle(lbl, T)
    assert want.trunc == T
    for k in (0, 2):
        with margin_scale(k):
            for got in (calC_oracle(lbl, T), calC_hecke(lbl, T)):
                assert got.terms == want.terms and got.trunc == want.trunc


class TestLevelTheorems:
    @pytest.mark.parametrize("lbl", list(all_labels()))
    def test_rows(self, lbl):
        for T in (F(25), F(37, 3)):
            got, want = level_theta_side(lbl, T), normalized_theta_form(lbl, T)
            assert got.trunc == want.trunc == T
            assert got.terms == want.terms

    def test_table_is_keyed_by_canonical_labels(self):
        assert len(_LEVEL_THETA) == 15
        assert all(symmetry_reduce(key) == key for key in _LEVEL_THETA)
        assert {symmetry_reduce(lbl) for lbl in all_labels()} == set(_LEVEL_THETA)

    @pytest.mark.parametrize("N, ell, m", [(1, 1, -1), (2, 0, 4), (3, 1, 7), (4, 2, -2), (5, 1, 11)])
    def test_m_outside_the_rows(self, N, ell, m):
        msg = f"tabulated rows need 0 <= m < {2 * N}, got {m}"
        with pytest.raises(InvalidLabel, match=f"^{re.escape(msg)}$"):
            level_theta_side(StringLabel(N, ell, m), 10)

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevel):
            level_theta_side(StringLabel(5, 0, 0), 10)

    def test_level3_theta2_two_spellings(self):
        # q^(1/3) J1 (J_{11,15} + q J_{1,15}) = J1 (J_{4,15} + q J_{14,15})
        T = 30
        printed = level_theta_side(StringLabel(3, 2, 0), T)
        proof_form = Jm(1, T) * (J(4, 15, T) + J(14, 15, T - 1).shift(Monomial.q(1)))
        # the two agree after pulling the q^(1/3) prefactor out of the first
        assert_equal(printed, proof_form.shift(Monomial(0, F(1, 3))).truncate(T), T)


class TestCFull:
    def test_kp3a_leading_exponent(self):
        s = C_full(StringLabel(3, 0, 2), 3)
        assert s.ord == F(71, 120)

    def test_prefactor_level2(self):
        s = C_full(StringLabel(2, 1, 1), 10)
        t = calC_hecke(StringLabel(2, 1, 1), 10)
        assert s.terms == t.terms  # s(1,1,2) = 0

    def test_level4_string_evaluations(self):
        T = 30
        j1 = Jm(1, T)
        cases = [
            ((4, 0, 0), (j1 * Jbar(3, 6, T) + j1 * J(1, 2, T)).scale(F(1, 2))),
            ((4, 0, 4), ((j1 * Jbar(3, 6, T) - j1 * J(1, 2, T)).scale(F(1, 2))).shift(Monomial.q(1))),
            ((4, 0, 2), (j1 * Jbar(6, 24, T)).shift(Monomial.q(1))),
            ((4, 1, 1), j1 * Jbar(3, 8, T)),
            # the level-4 table row theta_4 forces the q prefactor here
            ((4, 1, 3), (j1 * Jbar(1, 8, T)).shift(Monomial.q(1))),
            ((4, 2, 0), j1 * Jbar(1, 6, T)),
            ((4, 2, 2), J(1, 4, T) * J(6, 12, T)),
        ]
        for (N, ell, m), rhs in cases:
            lhs = calC_hecke(StringLabel(N, ell, m), T) * (Jm(1, T) ** 3)
            assert_equal(lhs.truncate(T), rhs.truncate(T), T)


class TestSymmetries:
    def test_reduce_canonical(self):
        assert symmetry_reduce(StringLabel(2, 0, 2)) == StringLabel(2, 0, 2)
        assert symmetry_reduce(StringLabel(1, 1, 1)) == StringLabel(1, 0, 0)
        assert symmetry_reduce(StringLabel(3, 1, 5)) == StringLabel(3, 1, 1)
        assert symmetry_reduce(StringLabel(4, 3, 7)) == StringLabel(4, 1, 3)
        assert symmetry_reduce(StringLabel(2, 2, -4)) == StringLabel(2, 0, 2)

    @pytest.mark.parametrize("N,ell,m", [(2, 0, 2), (3, 1, 3), (4, 2, 2), (4, 1, 3)])
    def test_c_symmetries_as_series(self, N, ell, m):
        T = 18
        base_label = StringLabel(N, ell, m)
        c0 = C_full(base_label, T)
        for other in [StringLabel(N, ell, -m), StringLabel(N, ell, 2 * N - m),
                      StringLabel(N, N - ell, N - m)]:
            assert_equal(c0, C_full(other, T), T)

    @pytest.mark.parametrize("N,ell,m", [(2, 0, 2), (3, 1, 3), (4, 2, 2)])
    def test_master_normalization_invariance(self, N, ell, m):
        # q^{-(m^2-l^2)/4N} calC is invariant under all three label maps
        T = 18

        def f(lbl):
            e = -F(lbl.m ** 2 - lbl.ell ** 2, 4 * lbl.N)
            return calC_hecke(lbl, T - e).shift(Monomial(0, e))

        ref = f(StringLabel(N, ell, m))
        for other in [StringLabel(N, ell, -m), StringLabel(N, ell, 2 * N - m),
                      StringLabel(N, N - ell, N - m)]:
            assert_equal(ref, f(other), T)

    def test_reduced_label_same_function(self):
        lbl = StringLabel(3, 1, 5)
        red = symmetry_reduce(lbl)
        T = 15
        assert_equal(C_full(lbl, T), C_full(red, T), T)


class TestMps:
    def test_split_vs_oracle_difference(self):
        T = 25
        lhs = (C_full(StringLabel(4, 0, 0), T, oracle=True)
               - C_full(StringLabel(4, 0, 4), T, oracle=True))
        rhs = mps_split_rhs(2, 0, 0, -1, 1, T)
        assert_equal(lhs, rhs, T)

    def test_split_vs_oracle_sum(self):
        T = 25
        lhs = (C_full(StringLabel(4, 0, 0), T, oracle=True)
               + C_full(StringLabel(4, 0, 4), T, oracle=True))
        rhs = mps_split_rhs(2, 0, 0, 1, 1, T)
        assert_equal(lhs, rhs, T)

    def test_split_closed_form(self):
        # the minus split at K=2 equals q^(-1/12) J1 J_{1,2} / J1^3
        T = 20
        rhs = mps_split_rhs(2, 0, 0, -1, 1, T)
        sh = Monomial(0, F(-1, 12))
        j13 = Jm(1, T - sh.qexp) ** 3
        lhs = ((Jm(1, T - sh.qexp) * J(1, 2, T - sh.qexp)) * j13.inverse()).shift(sh)
        assert_equal(lhs.truncate(T), rhs, T)

    def test_split_base2_odd_parity(self):
        # K = 1 needs q -> q^2 to stay on an integer lattice inside f
        T = 20
        lhs = (C_full(StringLabel(2, 0, 0), 2 * T, oracle=True).substitute_power(2).truncate(T * 2)
               - C_full(StringLabel(2, 0, 2), 2 * T, oracle=True).substitute_power(2).truncate(T * 2))
        rhs = mps_split_rhs(1, 0, 0, -1, 2, 2 * T)
        assert_equal(lhs.truncate(T), rhs.truncate(T), T)

    def test_cor3_level4(self):
        T = 25
        lhs = C_full(StringLabel(4, 2, 2), T, oracle=True)
        rhs = mps_cor3_rhs(2, 2, 1, T)
        assert_equal(lhs, rhs, T)

    def test_cor2_level4(self):
        T = 25
        lhs = C_full(StringLabel(4, 2, 0), T, oracle=True)
        rhs = mps_cor2_rhs(2, 0, 1, T)
        assert_equal(lhs, rhs, T)

    def test_cor_rhs_and_parity(self):
        s = mps_cor3_rhs(2, 0, 1, 10)
        assert s.trunc >= 10
        with pytest.raises(InvalidParity):
            mps_cor3_rhs(2, 1, 1, 10)
        with pytest.raises(InvalidParity):
            mps_cor2_rhs(2, 1, 1, 10)


class TestKpExamples:
    @pytest.mark.parametrize("name,den", [
        ("KP2A", 16), ("KP3A", 120), ("KP3B", 120), ("KP3C", 120), ("KP4B", 12),
    ])
    def test_sides_agree(self, name, den):
        T = F(6)
        lhs = kp_string_side(name, T)
        rhs = kp_eta_side(name, T)
        assert_equal(lhs, rhs, T)
        assert all(e.denominator <= den for e in lhs.support())

    @pytest.mark.parametrize("factors", [
        [(1, -2), (F(1, 2), 1)],
        [(1, -2), (F(1, 6), -1), (F(1, 12), 2)],
        [(1, -2)],
        [(2, 3), (1, -1)],
        [(F(1, 3), -3), (F(2, 5), 1)],
    ])
    @pytest.mark.parametrize("T", [F(6), F(7, 3)])
    def test_eta_quotient_matches_product_oracle(self, factors, T):
        # eta(s)^p = q^(s*p/24) (q^s; q^s)^p, each power by repeated products
        # or long division of the brute-force product
        pre = sum(F(s) * p for s, p in factors) / 24
        bound = T - pre
        acc = {F(0): F(1)}
        for s, p in factors:
            poch = pochhammer_product(F(1), F(s), F(s), bound)
            for _ in range(abs(p)):
                acc = poly_mul(acc, poch, bound) if p > 0 else poly_div(acc, poch, bound)
        want = {e + pre: c for e, c in acc.items() if c}
        got = eta_quotient(factors, T)
        assert got.trunc == T
        assert {e: c.as_fraction() for e, c in got.terms.items()} == want

    @pytest.mark.parametrize("name,shift,t,excluded", [
        ("KP3A", F(27, 40), F(3), {2, 3}),
        ("KP3B", F(1, 120), F(1, 3), {1, 4}),
        ("KP3C", F(3, 40), F(1, 3), {2, 3}),
    ])
    @pytest.mark.parametrize("T", [F(6), F(7, 3)])
    def test_restricted_products_match_product_oracle(self, name, shift, t, excluded, T):
        # q^shift eta(1)^(-2) prod over n mod 5 not in E of (1 - q^(t n)),
        # expanded factor by factor and divided twice by (q; q)_inf
        pre = shift - F(1, 12)
        bound = T - pre
        n_max = int(bound / t) + 1
        acc = product_expand([(1, t * n) for n in range(1, n_max + 1) if n % 5 not in excluded],
                             bound)
        poch = pochhammer_product(F(1), F(1), F(1), bound)
        acc = poly_div(poly_div(acc, poch, bound), poch, bound)
        want = {e + pre: c for e, c in acc.items() if c}
        got = kp_eta_side(name, T)
        assert got.trunc == T
        assert {e: c.as_fraction() for e, c in got.terms.items()} == want

    @pytest.mark.parametrize("side", [kp_eta_side, kp_string_side])
    def test_unknown_example(self, side):
        with pytest.raises(ValueError, match="unknown example 'KP9'") as err:
            side("KP9", 6)
        for name in ("KP2A", "KP3A", "KP3B", "KP3C", "KP4B"):
            assert name in str(err.value)

    def test_oracle_path_agrees_too(self):
        T = F(4)
        lhs = (C_full(StringLabel(2, 0, 0), T, oracle=True)
               - C_full(StringLabel(2, 0, 2), T, oracle=True))
        assert_equal(lhs, kp_eta_side("KP2A", T), T)


def test_precision_shortfall_survives_optimize():
    # a numerator known only below q^3 cannot give a string function to q^10;
    # the check must raise even under python -O, which strips asserts
    code = (
        "from fractions import Fraction as F\n"
        "from qstrings import PrecisionShortfall, QSeries\n"
        "from qstrings.strings import _divide_by_j1_cubed\n"
        "try:\n"
        "    _divide_by_j1_cubed(QSeries.one(F(3)), F(10))\n"
        "except PrecisionShortfall:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(qstrings.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
