"""Theta constructors against brute-force oracles and the classical laws."""

import math
from fractions import Fraction as F
from functools import reduce
from math import inf as INF
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qstrings.series import GaussianRational, Monomial, QSeries, divide, margin_scale, pad
from qstrings.theta import (
    DivergentProduct,
    J,
    Jbar,
    Jm,
    Jm_cubed,
    OutOfStrip,
    ThetaZeroDenominator,
    comb2,
    eta,
    int_is_zero,
    int_parabola,
    is_theta_zero,
    j_split_components,
    jtheta,
    jtheta_prod,
    jtheta_sum,
    jtheta_valuation,
    parabola_range,
    pochhammer,
    quotient_plan,
    theta_quotient,
)

from oracles import (Gauss, int_coeffs, jtheta_sum_bruteforce, jtheta_sum_gaussian, pochhammer_product,
                     product_expand, theta_quotient_plan, truncated_div, truncated_mul)

q = Monomial.q
mq = Monomial.mq

PENTAGONAL_13 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def assert_equal(a: QSeries, b: QSeries, upto):
    m = a.compare(b, upto)
    assert m is None, f"mismatch at q^{m.exponent}: {m.left} vs {m.right}" if m else ""


def jtheta_by_product(x: Monomial, base, order) -> QSeries:
    """j(x; q^base) from the triple product, after moving x into the strip.

    With x = q^(n*base) x0 and 0 <= x0.qexp < base, quasi-periodicity gives
    j(x; q^base) = (-1)^n q^(-base*C(n,2)) x0^(-n) j(x0; q^base).
    """
    base = F(base)
    n = math.floor(x.qexp / base)
    e0 = x.qexp - n * base
    shift = Monomial(2 * n - n * x.unit_k, -base * comb2(n) - n * e0)
    return jtheta_prod(Monomial(x.unit_k, e0), base, order - shift.qexp).shift(shift)


def gaussian_terms(s: QSeries) -> dict:
    return {e: (c.re, c.im) for e, c in s.terms.items()}


class TestPochhammer:
    def test_pentagonal(self):
        s = pochhammer(q(1), 1, None, 13)
        assert [int(s[k].as_fraction()) for k in range(13)] == PENTAGONAL_13

    def test_empty_product(self):
        s = pochhammer(q(1), 1, 0, 10)
        assert s[0].as_fraction() == 1 and not s.compare(QSeries.one(10), 10)

    def test_finite_matches_bruteforce(self):
        s = pochhammer(q(F(1, 2)), F(3, 2), 4, 9)
        d = pochhammer_product(F(1), F(1, 2), F(3, 2), F(9))
        # brute force is the infinite product; redo with 4 factors
        d = product_expand([(F(1), F(1, 2) + i * F(3, 2)) for i in range(4)], F(9))
        assert {e: c.as_fraction() for e, c in s.terms.items()} == d

    def test_divergent(self):
        with pytest.raises(DivergentProduct):
            pochhammer(q(-1), 1, None, 5)

    def test_unit_argument_constant_factor(self):
        # (-1; q)_inf = 2 * (-q; q)_inf
        a = pochhammer(Monomial(2, F(0)), 1, None, 8)
        b = pochhammer(mq(1), 1, None, 8).scale(2)
        assert_equal(a, b, 8)

    def test_one_argument_gives_exact_zero(self):
        assert pochhammer(q(0), 1, None, 8).is_exact_zero

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_length_is_rejected(self, n):
        # (q; q)_{-1} = 1/(1 - q^0) is a pole, not 1
        with pytest.raises(ValueError, match="n must be non-negative"):
            pochhammer(q(1), 1, n, 5)


class TestJthetaSum:
    def test_zero_argument_family(self):
        for n in (-2, 0, 1, 3):
            s = jtheta_sum(q(n), 1, 25)
            assert not s.terms

    def test_j_minus_one(self):
        s = jtheta_sum(Monomial(2, F(0)), 1, 7)
        assert int_coeffs({e: c.as_fraction() for e, c in s.terms.items()}, 7) == [2, 2, 0, 2, 0, 0, 2]

    def test_against_bruteforce_fractional(self):
        s = jtheta_sum(q(F(2, 5)), F(7, 5), 12)
        d = jtheta_sum_bruteforce(1, F(2, 5), F(7, 5), F(12))
        assert {e: c.as_fraction() for e, c in s.terms.items()} == d

    def test_imaginary_unit(self):
        s = jtheta_sum(Monomial(1, F(1)), 4, 15)
        # n = 0 and n = 1 terms: 1 - i q
        assert s[0].re == 1 and s[1].im == -1


class TestTripleProduct:
    SAMPLES = [
        (q(F(1, 2)), F(1)), (q(F(1, 3)), F(1)), (q(F(2, 3)), F(1)),
        (q(F(1, 5)), F(1)), (q(F(3, 5)), F(1)), (q(F(1, 7)), F(1)),
        (q(F(5, 7)), F(1)), (q(1), F(3)), (q(2), F(3)), (q(1), F(2)),
        (q(2), F(5)), (q(3), F(7)), (q(F(1, 2)), F(2)), (q(F(3, 2)), F(2)),
        (q(F(5, 2)), F(4)), (mq(0), F(1)), (mq(1), F(2)), (mq(1), F(3)),
        (mq(3), F(8)), (mq(2), F(5)), (mq(F(1, 2)), F(1)), (mq(F(1, 3)), F(2)),
        (mq(F(5, 3)), F(2)), (q(F(7, 3)), F(3)), (mq(6), F(24)),
    ]

    def test_sum_equals_product_25_samples(self):
        assert len(self.SAMPLES) == 25
        for x, base in self.SAMPLES:
            assert_equal(jtheta(x, base, 30), jtheta_prod(x, base, 30), 30)

    @pytest.mark.parametrize("T", [F(-3), F(-1, 2), F(0), F(1, 3)])
    def test_exact_to_orders_near_and_below_zero(self, T):
        # nothing lies below such an order, but the product must still be
        # exact up to it, whatever its window
        for x, base in [(Monomial(1, 0), F(1, 2)), (mq(F(1, 3)), F(2, 3)), (mq(0), F(1))]:
            s = jtheta_prod(x, base, T)
            assert s.trunc == T and s.terms == jtheta_sum(x, base, T).terms

    def test_strip_enforced(self):
        with pytest.raises(OutOfStrip):
            jtheta_prod(q(5), 3, 10)
        with pytest.raises(OutOfStrip):
            jtheta_prod(q(0), 3, 10)


class TestJthetaCanonical:
    def test_exact_zero_detection(self):
        assert jtheta(q(3), 1, 20).is_exact_zero
        assert jtheta(q(0), 1, 20).is_exact_zero
        assert jtheta(q(-4), 2, 20).is_exact_zero
        assert not jtheta(mq(0), 1, 20).is_exact_zero

    def test_elliptic_reduction_matches_sum(self):
        # the sum off the strip against the product after the reduction:
        # j(q^4; q^3) lies one period above the strip, j(q^-5; q^2) three below
        for x, base, T in [(q(4), 3, 20), (q(-5), 2, 20), (mq(-3), F(5, 2), 15)]:
            assert_equal(jtheta(x, base, T), jtheta_by_product(x, base, T), T)

    def test_one_seven_symmetry(self):
        # j(x;q) = j(q/x;q) at x = q^(1/3)
        assert_equal(jtheta(q(F(1, 3)), 1, 25), jtheta(q(F(2, 3)), 1, 25), 25)

    def test_imaginary_fallback(self):
        # units +-i take the same sum as +-1; check one against both oracles
        x = Monomial(1, F(1))
        assert gaussian_terms(jtheta(x, 4, 15)) == jtheta_sum_gaussian(1, F(1), F(4), F(15))
        assert_equal(jtheta(x, 4, 15), jtheta_by_product(x, 4, 15), 15)

    def test_valuation(self):
        assert jtheta_valuation(q(1), 3) == 0
        assert jtheta_valuation(q(4), 3) == -1
        assert jtheta_valuation(q(F(1, 2)), 1) == 0
        assert jtheta_valuation(mq(0), 2) == 0
        # j(i*q; q^4): minimum of C(n,2)*4 + n over n; n=0 gives 0
        assert jtheta_valuation(Monomial(1, F(1)), 4) == 0
        with pytest.raises(ThetaZeroDenominator):
            jtheta_valuation(q(3), 1)

    @pytest.mark.parametrize("base", [-1, 0, F(-1, 3)])
    def test_valuation_and_zero_test_need_a_positive_base(self, base):
        for f in (jtheta_valuation, is_theta_zero):
            with pytest.raises(ValueError, match="base must be positive"):
                f(q(F(1, 3)), base)

    def test_valuation_matches_series(self):
        for x, base in [(q(4), 3), (q(-5), 2), (q(F(9, 2)), F(5, 2)), (mq(-2), 3),
                        (Monomial(1, F(-3)), 2), (Monomial(3, F(5)), 2)]:
            s = jtheta(x, base, 12)
            assert s.ord == jtheta_valuation(x, base)


class TestShorthands:
    def test_J1(self):
        s = Jm(1, 13)
        assert [int(s[k].as_fraction()) for k in range(13)] == PENTAGONAL_13

    def test_Jm_is_Jm3m(self):
        assert_equal(Jm(2, 24), J(2, 6, 24), 24)

    def test_product_rearrangements(self):
        # the standard list, each checked as a series identity to order 30
        T = 30
        j1, j2, j3, j4, j6, j12 = (Jm(m, T) for m in (1, 2, 3, 4, 6, 12))
        cases = [
            (Jbar(0, 1, T) * j1, j2 * j2 * 2),                    # Jbar01 = 2 J2^2/J1
            (Jbar(0, 1, T), Jbar(1, 4, T) * 2),                   # Jbar01 = 2 Jbar14
            (Jbar(1, 2, T) * j1 * j1 * j4 * j4, j2 ** 5),          # Jbar12 = J2^5/(J1^2 J4^2)
            (J(1, 2, T) * j2, j1 * j1),                            # J12 = J1^2/J2
            (Jbar(1, 3, T) * j1 * j6, j2 * j3 * j3),               # Jbar13 = J2 J3^2/(J1 J6)
            (J(1, 4, T) * j2, j1 * j4),                            # J14 = J1 J4/J2
            (J(1, 6, T) * j2 * j3, j1 * j6 * j6),                  # J16 = J1 J6^2/(J2 J3)
            (Jbar(1, 6, T) * j1 * j4 * j6, j2 * j2 * j3 * j12),    # Jbar16 = J2^2 J3 J12/(J1 J4 J6)
        ]
        for lhs, rhs in cases:
            assert_equal(lhs, rhs, 25)


class TestEta:
    def test_eta1(self):
        s = eta(1, 10)
        t = Jm(1, F(10) - F(1, 24)).shift(Monomial(0, F(1, 24)))
        assert_equal(s, t, 10)

    def test_eta12_lattice(self):
        s = eta(F(1, 2), 5)
        assert all(e.denominator in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48) for e in s.terms)
        assert s.ord == F(1, 48)

    def test_eta12_exponent_arithmetic(self):
        s = eta(12, 30)
        t = Jm(12, F(30) - F(1, 2)).shift(Monomial(0, F(1, 2)))
        assert_equal(s, t, 30)


class TestJSplit:
    def test_m1_identity(self):
        comps = j_split_components(q(F(1, 2)), 1, 1, 20)
        assert len(comps) == 1
        assert_equal(comps[0], jtheta(q(F(1, 2)), 1, 20), 20)

    @pytest.mark.parametrize("mm,z,base", [
        (2, q(F(1, 2)), F(1)),
        (2, mq(1), F(4)),
        (3, q(2), F(5)),
        (3, q(1), F(5)),
        (12, q(F(1, 2)), F(1)),
    ])
    def test_components_sum(self, mm, z, base):
        T = 20
        total = QSeries.zero()
        for c in j_split_components(z, base, mm, T):
            total = total + c
        assert_equal(total, jtheta(z, base, T), T)


class TestThetaQuotient:
    def test_simple_quotient(self):
        # Jbar_{1,2} = J2^5 / (J1^2 J4^2) as a quotient build
        T = 25
        lhs = theta_quotient(
            num=[(q(2), 6)] * 5,
            den=[(q(1), 3)] * 2 + [(q(4), 12)] * 2,
            order=T,
        )
        assert_equal(lhs, Jbar(1, 2, T), T)

    def test_zero_numerator_short_circuits(self):
        s = theta_quotient(num=[(q(3), 1)], den=[(q(1), 3)], order=10)
        assert s.is_exact_zero

    @pytest.mark.parametrize("num, den", [
        ([(q(1), 0)], []),
        ([], [(q(1), F(-1, 2))]),
        ([(q(1), 3)], [(mq(0), 0)]),
    ])
    def test_non_positive_modulus_is_rejected(self, num, den):
        # as jtheta does; the plan's zero test X % B needs B > 0
        with pytest.raises(ValueError, match="base must be positive"):
            theta_quotient(num, den, 5)

    def test_zero_denominator_raises(self):
        with pytest.raises(ThetaZeroDenominator):
            theta_quotient(num=[(q(1), 3)], den=[(q(2), 1)], order=10)

    def test_prefactor_and_scalar(self):
        T = 12
        s = theta_quotient(num=[(q(1), 3)], den=[], order=T,
                           prefactor=Monomial(2, F(5, 2)), scalar=F(1, 2))
        t = J(1, 3, T - F(5, 2)).shift(Monomial(2, F(5, 2))).scale(F(1, 2))
        assert_equal(s, t, T)


    @pytest.mark.parametrize("num, den, order, prefactor, scalar", [
        ([(q(1), 3), (mq(F(1, 2)), 2)], [(mq(0), 4)], 8, Monomial(1, F(1, 3)), -1),
        ([], [(q(1), 3), (mq(F(2, 5)), 1)], 6, Monomial(2, F(-1, 5)), F(1, 2)),
        ([(q(2), 6)] * 2, [], 10, Monomial.one(), 1),
        ([(Monomial(1, F(1, 7)), 1)], [(Monomial(3, F(2, 7)), 2)], 5, Monomial(3, F(5, 7)),
         GaussianRational(1, 2)),
    ])
    def test_matches_assembly_from_the_prefactor(self, num, den, order, prefactor, scalar):
        # the assembly that starts from the one-term series scalar * prefactor
        # and multiplies every factor into it, each at the same order
        n_vals = [jtheta_valuation(x, b) for x, b in num]
        d_vals = [jtheta_valuation(x, b) for x, b in den]
        deficit = order - prefactor.qexp - sum(n_vals) + sum(d_vals)
        want = prefactor.as_series().scale(scalar)
        for (x, b), v in zip(num, n_vals):
            want = want * jtheta(x, b, v + max(deficit, F(b)) + pad(b))
        for (x, b), v in zip(den, d_vals):
            want = want / jtheta(x, b, v + max(deficit, F(b)) + pad(b))
        want = want.truncate(order)
        got = theta_quotient(num, den, order, prefactor=prefactor, scalar=scalar)
        assert got.terms == want.terms and got.trunc == want.trunc == order


# -- the general theta-function laws at fixed sample points -------------------

GENERIC_X = [q(F(1, 5)), mq(F(2, 7)), q(3), Monomial(1, F(1, 2)), q(F(3, 7))]
GENERIC_Y = [q(F(1, 3)), q(F(2, 5)), mq(F(1, 7)), q(F(5, 7)), Monomial(3, F(1, 3))]


def jt(x, order, base=1):
    return jtheta(x, base, order)


class TestEllipticLaw:
    @pytest.mark.parametrize("n", [-2, -1, 1, 2])
    def test_elliptic(self, n):
        T = 25
        for x in GENERIC_X:
            base = F(1)
            lhs = jtheta(Monomial(0, n * base) * x, base, T)
            shift = Monomial(2 * n - n * x.unit_k, -base * comb2(n) - n * x.qexp)
            rhs = jtheta(x, base, T - shift.qexp).shift(shift)
            assert_equal(lhs, rhs, T)


class TestReflectionLaw:
    def test_one_seven(self):
        T = 25
        for x in GENERIC_X:
            qx = Monomial(-x.unit_k, 1 - x.qexp)  # q/x
            assert_equal(jt(x, T), jt(qx, T), T)


class TestProductDissection:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dissection(self, n):
        # j(x;q) * J_n^n = J_1 * prod_k j(q^k x; q^n)
        T = 25
        for x in GENERIC_X[:4]:
            lhs = jt(x, T) * (Jm(n, T) ** n)
            rhs = Jm(1, T)
            for k in range(n):
                rhs = rhs * jtheta(Monomial(0, F(k)) * x, n, T)
            t = min(lhs.trunc, rhs.trunc)
            assert_equal(lhs, rhs, min(t, T))


class TestRootsOfUnityDissection:
    def test_n2(self):
        # j(x^2;q^2) J_1^2 = J_2 j(x;q) j(-x;q)
        T = 25
        for x in GENERIC_X[:4]:
            lhs = jtheta(x ** 2, 2, T) * (Jm(1, T) ** 2)
            rhs = Jm(2, T) * jt(x, T) * jt(-x, T)
            assert_equal(lhs, rhs, T)

    def test_n4(self):
        # j(x^4;q^4) J_1^4 = J_4 j(x;q) j(ix;q) j(-x;q) j(-ix;q)
        T = 20
        i = Monomial(1, F(0))
        for x in [q(F(1, 5)), q(F(2, 7)), q(F(1, 3))]:
            lhs = jtheta(x ** 4, 4, T) * (Jm(1, T) ** 4)
            rhs = Jm(4, T)
            for u in range(4):
                rhs = rhs * jt((i ** u) * x, T)
            assert_equal(lhs, rhs, T)


class TestWeierstrass:
    QUADS = [
        (q(F(1, 5)), q(F(1, 7)), q(F(1, 11)), q(F(1, 13))),
        (q(F(2, 5)), q(F(3, 7)), q(F(5, 11)), q(F(4, 13))),
        (mq(F(1, 5)), q(F(1, 7)), q(F(1, 11)), q(F(1, 13))),
        (q(F(1, 2)), q(F(1, 5)), q(F(1, 7)), q(F(1, 11))),
        (q(F(1, 3)), mq(F(1, 5)), q(F(2, 7)), q(F(3, 11))),
        (q(F(3, 5)), q(F(2, 7)), mq(F(5, 11)), q(F(1, 13))),
        (q(F(1, 5)), q(F(4, 7)), q(F(2, 11)), mq(F(3, 13))),
        (q(F(2, 5)), q(F(1, 7)), q(F(3, 11)), Monomial(1, F(1, 13))),
        (q(F(1, 7)), q(F(1, 5)), q(F(1, 13)), q(F(1, 11))),
        # the quadruple with d = -i used for level-4 work
        (mq(5), q(4), q(2), Monomial(3, F(0))),
    ]

    def test_three_term_relation(self):
        T = 20
        for a, b, c, d in self.QUADS:
            base = F(12) if d == Monomial(3, F(0)) else F(1)
            lhs = (jtheta(a * c, base, T) * jtheta(a / c, base, T)
                   * jtheta(b * d, base, T) * jtheta(b / d, base, T))
            r1 = (jtheta(a * d, base, T) * jtheta(a / d, base, T)
                  * jtheta(b * c, base, T) * jtheta(b / c, base, T))
            bc = b / c
            r2 = (jtheta(a * b, base, T) * jtheta(a / b, base, T)
                  * jtheta(c * d, base, T) * jtheta(c / d, base, T))
            rhs = r1 + r2.shift(bc)
            t = min(lhs.trunc, rhs.trunc, T)
            assert_equal(lhs, rhs, t)


class TestHalpernTrios:
    def test_product_to_two_squares(self):
        # j(x;q) j(y;q) = j(-xy;q^2) j(-q/x*y;q^2) - x j(-qxy;q^2) j(-y/x;q^2)
        T = 20
        for x, y in zip(GENERIC_X, GENERIC_Y):
            lhs = jt(x, T) * jt(y, T)
            t1 = jtheta(-(x * y), 2, T) * jtheta(-(Monomial.q(1) / x * y), 2, T)
            t2 = jtheta(-(Monomial.q(1) * x * y), 2, T) * jtheta(-(y / x), 2, T)
            rhs = t1 - t2.shift(x)
            assert_equal(lhs, rhs, min(lhs.trunc, rhs.trunc, T))

    def test_difference_form(self):
        # j(-x;q) j(y;q) - j(x;q) j(-y;q) = 2x j(y/x;q^2) j(qxy;q^2)
        T = 20
        for x, y in zip(GENERIC_X, GENERIC_Y):
            lhs = jt(-x, T) * jt(y, T) - jt(x, T) * jt(-y, T)
            rhs = (jtheta(y / x, 2, T) * jtheta(Monomial.q(1) * x * y, 2, T)).shift(x).scale(2)
            assert_equal(lhs, rhs, min(lhs.trunc, rhs.trunc, T))

    def test_sum_form(self):
        # j(-x;q) j(y;q) + j(x;q) j(-y;q) = 2 j(xy;q^2) j(q y/x;q^2)
        T = 20
        for x, y in zip(GENERIC_X, GENERIC_Y):
            lhs = jt(-x, T) * jt(y, T) + jt(x, T) * jt(-y, T)
            rhs = (jtheta(x * y, 2, T) * jtheta(Monomial.q(1) * y / x, 2, T)).scale(2)
            assert_equal(lhs, rhs, min(lhs.trunc, rhs.trunc, T))


class TestSplittingLaw:
    @pytest.mark.parametrize("n", [1, 2])
    def test_theta_splitting(self, n):
        # j(x;q) j(y;q^n) as a sum over k of two theta factors
        T = 18
        for x, y in zip(GENERIC_X[:3], GENERIC_Y[:3]):
            lhs = jt(x, T) * jtheta(y, n, T)
            rhs = QSeries.zero()
            for k in range(n + 1):
                pref = Monomial(2 * k + k * x.unit_k, F(comb2(k)) + k * x.qexp)
                inner1 = Monomial(
                    2 * n + n * x.unit_k + y.unit_k,
                    F(comb2(n) + k * n) + n * x.qexp + y.qexp,
                )
                inner2 = Monomial(
                    2 + y.unit_k - x.unit_k,
                    F(1 - k) - x.qexp + y.qexp,
                )
                term = jtheta(inner1, n * (n + 1), T) * jtheta(inner2, n + 1, T)
                rhs = rhs + term.shift(pref)
            assert_equal(lhs, rhs, min(lhs.trunc, rhs.trunc, T))


class TestLevel4ThetaLemmas:
    def test_two_six_evaluation(self):
        # 2 Jbar16 Jbar13 + 2 Jbar36 Jbar3_12 = Jbar01 Jbar02
        T = 40
        lhs = (Jbar(1, 6, T) * Jbar(1, 3, T)).scale(2) + (Jbar(3, 6, T) * Jbar(3, 12, T)).scale(2)
        rhs = Jbar(0, 1, T) * Jbar(0, 2, T)
        assert_equal(lhs, rhs, T)

    def test_twelfth_lattice_split(self):
        # j(q^(1/12); q^(1/6)) as a 7-term combination on the Z/12 lattice
        T = F(10)
        lhs = jtheta(q(F(1, 12)), F(1, 6), T)
        def JB(a, m, shift_exp=None, scale=1):
            s = Jbar(a, m, T if shift_exp is None else T - F(*shift_exp))
            if shift_exp is not None:
                s = s.shift(Monomial(0, F(*shift_exp)))
            return s.scale(scale)
        rhs = (
            JB(12, 24)
            + JB(0, 24, (3, 1))
            + JB(6, 24, (3, 4), -2)
            + JB(8, 24, (1, 3), 2)
            + JB(20, 24, (4, 3), 2)
            + JB(10, 24, (1, 12), -2)
            + JB(22, 24, (25, 12), -2)
        )
        assert_equal(lhs, rhs, T)


class TestSplitChains:
    def test_level3_kp_split_identities(self):
        T = 90
        lhs = J(2, 5, T)
        rhs = (J(21, 45, T) - J(36, 45, T - 2).shift(Monomial(0, F(2)))
               - J(6, 45, T - 3).shift(Monomial(0, F(3))))
        assert_equal(lhs, rhs, T)
        lhs2 = J(1, 5, T)
        rhs2 = (J(18, 45, T) - J(33, 45, T - 1).shift(Monomial(0, F(1)))
                - J(3, 45, T - 4).shift(Monomial(0, F(4))))
        assert_equal(lhs2, rhs2, T)

    def test_substituted_forms(self):
        T = F(30)
        lhs = jtheta(q(F(2, 3)), F(5, 3), T)
        rhs = (J(7, 15, T) - J(12, 15, T - F(2, 3)).shift(Monomial(0, F(2, 3)))
               - J(2, 15, T - 1).shift(Monomial(0, F(1))))
        assert_equal(lhs, rhs, T)
        lhs2 = jtheta(q(F(1, 3)), F(5, 3), T)
        rhs2 = (J(6, 15, T) - J(11, 15, T - F(1, 3)).shift(Monomial(0, F(1, 3)))
                - J(1, 15, T - F(4, 3)).shift(Monomial(0, F(4, 3))))
        assert_equal(lhs2, rhs2, T)

    def test_split_equals_substitution(self):
        # q -> q^(1/3) on J_{2,5} reproduces the fractional split identity
        T = F(20)
        s = J(2, 5, 3 * T).substitute_power(F(1, 3))
        assert_equal(s, jtheta(q(F(2, 3)), F(5, 3), T), T)


# -- properties over all four units and rational bases -------------------------

UNITS = st.integers(min_value=0, max_value=3)
QEXPS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
BASES = st.fractions(min_value=F(1, 3), max_value=4, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(UNITS, QEXPS, BASES, st.integers(min_value=1, max_value=10))
def test_jtheta_matches_bruteforce_sum(k, e, base, T):
    x = Monomial(k, e)
    s = jtheta(x, base, T)
    if is_theta_zero(x, base):
        assert s.is_exact_zero
    else:
        assert s.trunc == T
        assert gaussian_terms(s) == jtheta_sum_gaussian(k, e, base, F(T))
    # the range is exact without any slack, and an audit slack moves nothing
    for m in (0, 2):
        with margin_scale(m):
            other = jtheta(x, base, T)
        assert other.terms == s.terms and other.trunc == s.trunc


@settings(max_examples=30, deadline=None)
@given(UNITS, st.fractions(min_value=F(1, 7), max_value=2, max_denominator=7),
       st.sampled_from([F(1), F(2), F(1, 2)]))
def test_jtheta_matches_reduced_product(k, e, base):
    x = Monomial(k, e)
    assume(not is_theta_zero(x, base))
    assert_equal(jtheta(x, base, 6), jtheta_by_product(x, base, 6), 6)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([F(1), F(2), F(3), F(1, 2), F(5, 3)]), st.integers(min_value=1, max_value=30))
def test_Jm_matches_pochhammer_product(m, T):
    s = Jm(m, T)
    assert s.trunc == T
    assert {e: c.as_fraction() for e, c in s.terms.items()} == pochhammer_product(F(1), m, m, F(T))


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7),
       st.fractions(min_value=-4, max_value=40, max_denominator=7))
@example(F(1), F(50))
@example(F(2, 3), F(20))
@example(F(2, 3), F(0))
@example(F(1), F(-3))
def test_Jm_cubed_is_the_cube_of_Jm(m, T):
    # Jacobi's identity against two series products, with and without an
    # audit slack
    for k in (0, 2):
        with margin_scale(k):
            got, cube = Jm_cubed(m, T), Jm(m, T) ** 3
        assert got.terms == cube.terms
        # below T <= 0 no term is known; the product contract then gives the
        # cube trunc 3T, where Jacobi's sum keeps T
        assert got.trunc == T and cube.trunc == (T if T > 0 else 3 * T)


@pytest.mark.parametrize("m", [0, F(-1, 2)])
def test_Jm_cubed_needs_a_positive_m(m):
    # as Jm does: the sum has no least exponent for m < 0 and no range for m = 0
    with pytest.raises(ValueError):
        Jm_cubed(m, 5)


@st.composite
def pochhammer_args(draw):
    """(unit_k, qexp, base, n): qexp < 0 only for finite n, and now and then
    a factor 1 - q^0 (qexp = -j*base, unit 1, j < n)."""
    k, base = draw(UNITS), draw(BASES)
    n = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    if n is not None and n > 0 and draw(st.booleans()):
        return 0, -draw(st.integers(min_value=0, max_value=n - 1)) * base, base, n
    low = 0 if n is None else -3
    return k, draw(st.fractions(min_value=low, max_value=3, max_denominator=7)), base, n


UNIT_COEFFS = (F(1), Gauss(F(0), F(1)), F(-1), Gauss(F(0), F(-1)))


@settings(max_examples=200, deadline=None)
@given(pochhammer_args(), st.fractions(min_value=-3, max_value=12, max_denominator=6))
@example((1, F(-8, 5), F(1, 2), 3), F(5))  # trunc 5, where the old product gave 43/10
@example((0, F(-3), F(1, 2), 6), F(-5))  # (1 - q^-3)...(1 - q^-1/2): a factor past the window still counts
@example((2, F(0), F(1), None), F(8))  # (-1; q)_inf: a constant factor 2
@example((0, F(0), F(1), None), F(8))  # (1; q)_inf = 0
@example((0, F(0), F(1, 3), None), F(0))  # (1; q^(1/3))_inf = 0 also at order 0
@example((0, F(-4, 3), F(2, 3), 3), F(-3))  # (q^(-4/3); q^(2/3))_3 has the factor 1 - q^0
def test_pochhammer_matches_product_expand(args, T):
    k, e, base, n = args
    s = pochhammer(Monomial(k, e), base, n, T)
    count = n if n is not None else max(0, math.ceil((T - e) / base))
    # product_expand is exact below a positive bound: the factors with e < 0 come first
    want = product_expand([(UNIT_COEFFS[k], e + i * base) for i in range(count)], max(T, 1))
    assert {x: Gauss(c.re, c.im) for x, c in s.terms.items()} == {x: Gauss.of(c) for x, c in want.items() if x < T}
    zero = k == 0 and (e == 0 if n is None else any(e + i * base == 0 for i in range(n)))
    assert s.trunc == T or zero and s.is_exact_zero
    # a factor 1 - q^0 makes the exact zero at every order, also at T <= 0
    assert s.is_exact_zero == zero
    # the factor range is exact without any slack, and an audit slack moves
    # nothing below T
    for m in (0, 2):
        with margin_scale(m):
            other = pochhammer(Monomial(k, e), base, n, T)
        assert other.terms == s.terms and other.trunc == s.trunc


@settings(max_examples=100, deadline=None)
@given(UNITS, QEXPS, BASES)
def test_valuation_is_least_exponent(k, e, base):
    x = Monomial(k, e)
    assume(not is_theta_zero(x, base))
    # f(0) = 0, so the least exponent is never positive and order 1 holds it
    assert jtheta_valuation(x, base) == jtheta(x, base, 1).ord


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7),
       st.fractions(min_value=-6, max_value=6, max_denominator=7),
       st.fractions(min_value=-10, max_value=20, max_denominator=7))
# w = 1 lies on both roots, n = -1 and n = 2: the inequality is strict
@example(F(1), F(0), F(1))
# w = 0 on the roots n = 0 and n = 1, the least values: the range is empty
@example(F(1), F(0), F(0))
# no real root at all
@example(F(1), F(0), F(-1))
# one root on an integer (n = 3), the other, -13/5, between two
@example(F(2, 3), F(1, 5), F(13, 5))
def test_parabola_range_matches_bruteforce(a, b, w):
    # for |n| >= R: a*C(n,2) + b*n >= a*n^2/2 - (a/2 + |b|)*|n|, which is
    # increasing in |n| and >= w, so no n outside [-R, R] qualifies
    R = 0
    while R < F(1, 2) + abs(b) / a or a * R * R / 2 - (a / 2 + abs(b)) * R < w:
        R += 1
    inside = [n for n in range(-R, R + 1) if a * F(n * (n - 1), 2) + b * n < w]
    assert list(parabola_range(a, b, w)) == inside


# -- the int plan of theta_quotient against its Fraction restatement ------------

PLAN_DENS = list(range(1, 13)) + [35]


@st.composite
def plan_rational(draw, lo: int, hi: int, positive: bool = False) -> F:
    d = draw(st.sampled_from(PLAN_DENS))
    return F(draw(st.integers(min_value=1 if positive else lo * d, max_value=hi * d)), d)


@st.composite
def plan_factor(draw):
    """(unit_k, qexp, base); now and then a zero, qexp an integral multiple
    of the base at unit 1."""
    base = draw(plan_rational(0, 4, positive=True))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return 0, base * draw(st.integers(min_value=-3, max_value=3)), base
    return draw(UNITS), draw(plan_rational(-4, 4)), base


@settings(max_examples=200, deadline=None)
@given(st.lists(plan_factor(), max_size=4), st.lists(plan_factor(), max_size=3),
       plan_rational(-3, 12), plan_rational(-2, 2))
@example([(0, F(1), F(3))], [(2, F(0), F(4))], F(0), F(0))
@example([(1, F(1, 35), F(2, 7))], [(3, F(-5, 12), F(1, 12))], F(-7, 11), F(1, 35))
def test_int_plan_matches_the_fraction_plan(num, den, order, pre):
    # the zero test, the valuations, the deficit, every window and every range
    # of quotient_plan, on its lattice 1/D, against the Fraction plan
    nf = [(Monomial(u, e), b) for u, e, b in num]
    df = [(Monomial(u, e), b) for u, e, b in den]
    D = math.lcm(order.denominator, pre.denominator,
                 *(r.denominator for _, e, b in num + den for r in (e, b)))
    for k in (0, 2):
        zeros, want = theta_quotient_plan(num, den, order, pre, k)
        assert [is_theta_zero(x, b) for x, b in nf + df] == zeros
        assert [int_is_zero(u, e * D, b * D) for u, e, b in num + den] == zeros
        with margin_scale(k):
            if any(zeros[len(num):]):
                with pytest.raises(ThetaZeroDenominator):
                    quotient_plan(nf, df, order, pre)
                continue
            got = quotient_plan(nf, df, order, pre)
            if want is None:  # a numerator factor vanishes
                assert got is None
                continue
            D_plan, deficit, num_plan, den_plan = got
            factors = num_plan + den_plan
            ranges = [list(int_parabola(B, X, W + pad(B))) for _, X, B, _, W in factors]
        assert D_plan == D and F(deficit, D) == want.deficit
        assert [(u, F(X, D), F(B, D)) for u, X, B, _, _ in factors] == num + den
        assert [F(v, D) for *_, v, _ in factors] == want.valuations
        assert [F(W, D) for *_, W in factors] == want.windows
        assert ranges == want.ranges


# -- theta_quotient against the sequential restatement ----------------------------

CHAIN_DENS = [1, 2, 3, 4, 5]
GAUSS_UNITS = (Gauss(F(1)), Gauss(F(0), F(1)), Gauss(F(-1)), Gauss(F(0), F(-1)))


@st.composite
def chain_rational(draw, lo: int, hi: int, positive: bool = False) -> F:
    d = draw(st.sampled_from(CHAIN_DENS))
    return F(draw(st.integers(min_value=1 if positive else lo * d, max_value=hi * d)), d)


@st.composite
def chain_factor(draw):
    """(unit_k, qexp, base) of a theta factor that is not zero: any unit,
    and one draw in three with qexp a multiple of the base, where two terms
    share the least exponent, which gives the content 2 at unit -1 (as in
    Jbar_{0,k}) and the lead 1 -+ i, not a unit, at units +-i."""
    base = draw(chain_rational(0, 3, positive=True))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(st.sampled_from([1, 2, 3])), base * draw(st.integers(min_value=-2, max_value=2)), base
    unit, qexp = draw(UNITS), draw(chain_rational(-3, 3))
    assume(not is_theta_zero(Monomial(unit, qexp), base))
    return unit, qexp, base


CHAIN_SCALARS = st.sampled_from([Gauss(F(1)), Gauss(F(-1)), Gauss(F(1, 2)), Gauss(F(1), F(2)),
                                 Gauss(F(0), F(-2, 3))])


def as_gauss(s: QSeries) -> dict:
    return {e: Gauss(c.re, c.im) for e, c in s.terms.items()}


@settings(max_examples=100, deadline=None)
@given(st.lists(chain_factor(), max_size=3), st.lists(chain_factor(), min_size=1, max_size=3),
       chain_rational(-2, 8), UNITS, chain_rational(-2, 2), CHAIN_SCALARS)
# no numerator factors (an exact dividend) over Jbar_{0,3}, of content 2
@example([], [(2, F(0), F(3))], F(6), 0, F(0), Gauss(F(1)))
# Gaussian units on both sides, and j(i; q), whose lead 1 - i is not a unit
@example([(1, F(1, 3), F(1))], [(1, F(0), F(1)), (3, F(2, 5), F(2))], F(5), 1, F(1, 3), Gauss(F(1), F(2)))
# a divisor of step 2 under a dividend on 1/5: ten residue classes mod 2 on 1/5
@example([(0, F(1, 5), F(1))], [(2, F(0), F(2))], F(7), 2, F(-1, 2), Gauss(F(-1)))
def test_theta_quotient_matches_the_sequential_restatement(num, den, order, unit, pre, scalar):
    # every factor by the brute-force sum at the window of the Fraction plan,
    # the numerators multiplied and the product divided by one denominator
    # after the other, each step under its own truncation contract
    _, plan = theta_quotient_plan(num, den, order, pre, 0)
    factors = [({e: Gauss(F(re), F(im)) for e, (re, im) in jtheta_sum_gaussian(u, x, b, w).items()}, w)
               for (u, x, b), w in zip(num + den, plan.windows)]
    acc = ({F(0): Gauss(F(1))}, INF)
    for f in factors[:len(num)]:
        acc = truncated_mul(*acc, *f)
    for f in factors[len(num):]:
        acc = truncated_div(*acc, *f)
    terms, trunc = acc
    c = GAUSS_UNITS[unit] * scalar
    want = {e + pre: x * c for e, x in terms.items()}
    prefactor, sc = Monomial(unit, pre), GaussianRational(scalar.re, scalar.im)
    # the chain on the package's factors, with its own trunc
    nums, dens = ([jtheta(Monomial(u, x), b, w) for (u, x, b), w in pairs]
                  for pairs in (zip(num, plan.windows), zip(den, plan.windows[len(num):])))
    got = divide(reduce(mul, nums) if nums else QSeries.one(), dens, prefactor, sc)
    assert got.trunc == trunc + pre
    assert as_gauss(got) == want
    # theta_quotient checks that trunc against the order and truncates there
    got = theta_quotient([(Monomial(u, x), b) for u, x, b in num], [(Monomial(u, x), b) for u, x, b in den],
                         order, prefactor, sc)
    assert got.trunc == order
    assert as_gauss(got) == {e: x for e, x in want.items() if e < order}
