"""Hecke-type double sums: enumeration oracle, transformations, expansions."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import Gauss, hecke_double_sum
from qstrings import hecke
from qstrings.hecke import (
    acdivb_rhs,
    g_1b1,
    genfn_rhs,
    h_nn1,
    hecke_f,
    hecke_flip_rhs,
    hecke_shift_rhs,
    master_fnp_rhs,
    singshift_rhs,
)
from qstrings.series import GaussianRational, Monomial, margin_scale
from qstrings.theta import J, Jbar, Jm, jtheta

q = Monomial.q
mq = Monomial.mq


def assert_equal(a, b, upto):
    m = a.compare(b, upto)
    assert m is None, m


def i_power(k):
    u = Gauss(F(1))
    for _ in range(k):
        u = u * Gauss(F(0), F(1))
    return u


def oracle(a, b, c, x, y, base, bound, both=True):
    """hecke_double_sum at the Monomials x, y."""
    return hecke_double_sum(a, b, c, i_power(x.unit_k), x.qexp, i_power(y.unit_k), y.qexp,
                            F(base), F(bound), both)


def as_gauss(s):
    return {e: Gauss(c.re, c.im) for e, c in s.terms.items()}


class TestHeckeF:
    def test_f111_constant_term(self):
        s = hecke_f(1, 1, 1, q(1), q(1), 1, 5)
        assert s[0] == GaussianRational(1)

    def test_f121_is_j1_squared(self):
        T = 30
        assert_equal(hecke_f(1, 2, 1, q(1), q(1), 1, T), Jm(1, T) ** 2, T)

    def test_matches_bruteforce(self):
        for (a, b, c, x, y) in [
            (1, 2, 1, F(1), F(1)),
            (1, 3, 1, F(2), F(1)),
            (3, 3, 1, F(3), F(1)),
            (1, 5, 1, F(5), F(-7)),
            (2, 2, 1, F(1, 2), F(3, 5)),
        ]:
            s = hecke_f(a, b, c, q(x), q(y), 1, 14)
            assert as_gauss(s) == oracle(a, b, c, q(x), q(y), 1, 14), (a, b, c, x, y)

    def test_negative_quadrant_matters(self):
        s = hecke_f(1, 2, 1, q(1), q(1), 1, 10)
        only_pos = oracle(1, 2, 1, q(1), q(1), 1, 10, both=False)
        got = as_gauss(s)
        diff = {e for e in set(only_pos) | set(got) if only_pos.get(e) != got.get(e)}
        assert diff and min(diff) < 10

    @pytest.mark.parametrize("base", [0, -1, F(-1, 2)])
    def test_nonpositive_base_raises(self, base):
        # at base <= 0 hecke_f's parabolas do not open upward: its walk would never end
        for build in (lambda: hecke_f(1, 2, 1, q(1), q(1), base, 5),
                      lambda: g_1b1(q(1), q(1), base, 2, mq(0), mq(0), 5),
                      lambda: h_nn1(2, q(1), q(1), base, mq(0), mq(0), 5)):
            with pytest.raises(ValueError, match="base must be positive"):
                build()

    def test_off_lattice_order_on_its_lattice(self):
        # the order 7/3 lies off the lattice 1/2 of x and y: the sum is planned
        # on the lattice 1/6 of both, and stored there
        x, y = Monomial(1, F(1, 2)), q(F(-1, 2))
        for k in (0, 2):
            with margin_scale(k):
                s = hecke_f(1, 2, 1, x, y, 1, F(7, 3))
            assert (s.den, s.tk, s.trunc) == (6, 14, F(7, 3))
            assert as_gauss(s) == oracle(1, 2, 1, x, y, 1, F(7, 3))

    def test_window_stability(self):
        for (a, b, c, x, y, base) in [
            (1, 3, 1, q(2), q(1), F(1)),
            (3, 3, 1, q(5), q(4), F(2)),
            (1, 5, 1, q(5), q(-7), F(1)),
        ]:
            lo = hecke_f(a, b, c, x, y, base, 20)
            hi = hecke_f(a, b, c, x, y, base, 30).truncate(20)
            assert lo.terms == hi.terms and lo.trunc == hi.trunc


lattice_exps = st.sampled_from([1, 2, 3, 5, 7]).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda k: F(k, d)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 3), lattice_exps, st.integers(0, 3), lattice_exps,
       st.sampled_from([F(1), F(2), F(3), F(1, 2), F(2, 3)]),
       st.integers(-40, 40).map(lambda k: F(k, 4)))
# the r-parabola 2*C(r,2) - r is 0 at r = 0 and least, -1, at its vertex
# r = 1: with no slack the r-range must not stop at r = 0
@example(1, 1, 1, 0, F(-1), 0, F(0), F(2), F(0))
# with no slack the window 1/4 is off the lattice and holds the term q^0
@example(1, 2, 1, 0, F(1), 0, F(1), F(1), F(1, 4))
def test_hecke_f_matches_double_sum_oracle(a, b, c, xk, xe, yk, ye, base, order):
    x, y = Monomial(xk, xe), Monomial(yk, ye)
    s = hecke_f(a, b, c, x, y, base, order)
    assert s.trunc == order
    assert as_gauss(s) == oracle(a, b, c, x, y, base, order)
    # the enumeration is exact without any slack: scale 0 makes the window
    # the order itself, so a term just below an order off the lattice tests
    # the window bound; a two-step audit slack moves nothing either
    for k in (0, 2):
        with margin_scale(k):
            wide = hecke_f(a, b, c, x, y, base, order)
        assert wide.terms == s.terms and wide.trunc == s.trunc


SHIFT_SAMPLES = [
    (1, 2, 1, q(1), q(1), 0, 0),
    (1, 2, 1, q(F(2, 7)), q(F(3, 5)), 1, 1),
    (1, 3, 1, q(2), q(1), 1, 0),
    (1, 5, 1, q(7), q(1), 0, 1),
    (2, 2, 1, q(F(1, 2)), q(F(3, 5)), 2, 1),
    (3, 3, 1, q(3), q(1), 1, 2),
    (1, 4, 1, mq(F(1, 3)), q(F(1, 5)), 2, 0),
    (1, 5, 1, q(2), q(2), 0, 2),
    (2, 3, 2, q(F(1, 7)), mq(F(2, 5)), 1, 1),
    (1, 3, 1, q(F(5, 2)), q(F(1, 2)), 2, 2),
]


class TestShiftAndFlip:
    @pytest.mark.parametrize("a,b,c,x,y,R,S", SHIFT_SAMPLES)
    def test_shift(self, a, b, c, x, y, R, S):
        T = 25
        lhs = hecke_f(a, b, c, x, y, 1, T)
        rhs = hecke_shift_rhs(a, b, c, x, y, 1, R, S, T)
        assert_equal(lhs, rhs, T)

    @pytest.mark.parametrize("a,b,c,x,y", [
        (1, 2, 1, q(1), q(1)),
        (1, 2, 1, q(F(2, 7)), q(F(3, 5))),
        (1, 5, 1, q(5), q(-7)),
        (3, 3, 1, q(2), q(1)),
        (2, 2, 1, mq(3), q(2)),
        (1, 3, 1, q(F(1, 2)), q(F(1, 3))),
        (1, 4, 1, q(F(2, 5)), mq(F(1, 7))),
        (2, 3, 2, q(F(1, 5)), q(F(4, 7))),
        (1, 1, 1, q(F(1, 3)), q(F(1, 2))),
        (4, 5, 2, q(F(3, 7)), q(F(2, 5))),
    ])
    def test_flip(self, a, b, c, x, y):
        T = 25
        lhs = hecke_f(a, b, c, x, y, 1, T)
        rhs = hecke_flip_rhs(a, b, c, x, y, 1, T)
        assert_equal(lhs, rhs, T)

    def test_flip_twice_is_identity(self):
        # the flip applied to the flipped arguments lands on the original call
        a, b, c, x, y = 1, 3, 1, q(F(2, 7)), q(F(3, 5))
        T = 20
        pref = Monomial(2, F(a + b + c) - x.qexp - y.qexp) / (x * y * Monomial(2, F(0)))
        xs = Monomial(0, F(2 * a + b)) * x.inverse()
        ys = Monomial(0, F(2 * c + b)) * y.inverse()
        inner = hecke_flip_rhs(a, b, c, xs, ys, 1, T - pref.qexp + x.qexp + y.qexp)
        assert_equal(hecke_f(a, b, c, x, y, 1, T),
                     hecke_flip_rhs(a, b, c, x, y, 1, T), T)
        assert_equal(hecke_f(a, b, c, xs, ys, 1, 15), inner.truncate(15), 15)


class TestG1b1:
    def test_both_coefficients_vanish(self):
        assert g_1b1(q(1), q(1), 1, 2, Monomial(2, F(0)), Monomial(2, F(0)), 25).is_exact_zero

    def test_deep_shift_zero(self):
        z1 = q(-12)
        z0 = q(12)
        assert g_1b1(q(5), q(-7), 1, 5, z1, z0, 20).is_exact_zero

    @pytest.mark.parametrize("order", [5, F(-3, 2)])
    def test_theta_factor_covers_a_second_factor_of_negative_valuation(self, order):
        # j(q^(7/2); q) starts at q^(-9/2), so the theta factor of the product
        # must be exact below order + 9/2
        x, y = q(F(1, 3)), q(F(7, 2))
        got = hecke._theta_times(x, F(1), lambda T: jtheta(y, 1, T), F(order))
        want = (jtheta(x, 1, 20) * jtheta(y, 1, 20)).truncate(order)
        assert got.trunc == order and got.terms == want.terms


GENERIC_PAIRS = [
    (q(F(2, 7)), q(F(3, 5))),
    (q(F(1, 3)), q(F(1, 2))),
    (mq(F(2, 5)), q(F(1, 7))),
]


class TestMasterExpansion:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_master_fnp(self, p):
        T = 20
        for x, y in GENERIC_PAIRS:
            lhs = hecke_f(1, p + 1, 1, x, y, 1, T)
            rhs = master_fnp_rhs(p, x, y, 1, T)
            assert_equal(lhs, rhs, T)

    def test_master_p1_at_qq(self):
        # the calculation behind the level-1 evaluation
        T = 30
        assert_equal(master_fnp_rhs(1, q(1), q(1), 1, T), Jm(1, T) ** 2, T)

    @pytest.mark.parametrize("n", [2, 3])
    def test_acdivb(self, n):
        T = 20
        for x, y in GENERIC_PAIRS:
            lhs = hecke_f(n, n, 1, x, y, 1, T)
            rhs = acdivb_rhs(n, x, y, 1, T)
            assert_equal(lhs, rhs, T)

    def test_acdivb_n2_level2_kp_combination(self):
        # f_{2,2,1}(-q^3,q^2,q^2) - q f_{2,2,1}(-q^5,q^4,q^2) = J1 J2
        T = 30
        lhs = (acdivb_rhs(2, mq(3), q(2), 2, T)
               - acdivb_rhs(2, mq(5), q(4), 2, T - 1).shift(Monomial(0, F(1))))
        rhs = Jm(1, T) * Jm(2, T)
        assert_equal(lhs, rhs, T)


class TestGenfn:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_generic(self, p):
        T = 20
        for x, y in GENERIC_PAIRS:
            lhs = hecke_f(1, p + 1, 1, x, y, 1, T)
            rhs = genfn_rhs(p, x, y, 1, T)
            assert_equal(lhs, rhs, T)

    def test_f131_evaluations(self):
        T = 30
        assert_equal(hecke_f(1, 3, 1, q(1), q(1), 1, T), J(1, 2, T) * Jbar(3, 8, T), T)
        assert_equal(hecke_f(1, 3, 1, q(2), q(1), 1, T), Jm(1, T) * Jm(2, T), T)
        assert_equal(hecke_f(1, 3, 1, q(2), q(2), 1, T), J(1, 2, T) * Jbar(1, 8, T), T)

    def test_f141_evaluations(self):
        T = 30
        j1 = Jm(1, T)
        assert_equal(hecke_f(1, 4, 1, q(1), q(1), 1, T),
                     j1 * (J(8, 15, T) - J(2, 15, T - 1).shift(Monomial(0, F(1)))), T)
        assert_equal(hecke_f(1, 4, 1, q(2), q(1), 1, T), j1 * J(6, 15, T), T)
        assert_equal(hecke_f(1, 4, 1, q(2), q(2), 1, T),
                     j1 * (J(11, 15, T) + J(1, 15, T - 1).shift(Monomial(0, F(1)))), T)
        assert_equal(hecke_f(1, 4, 1, q(3), q(2), 1, T), j1 * J(3, 15, T), T)

    def test_level4_hecke_evaluations(self):
        T = 30
        j1 = Jm(1, T)
        qs = Monomial(0, F(1))
        # alternating-sign pair
        lhs0 = hecke_f(3, 3, 1, mq(2), q(1), 1, T) - hecke_f(3, 3, 1, mq(4), q(3), 1, T - 1).shift(qs)
        assert_equal(lhs0, j1 * J(1, 2, T), T)
        lhs1 = hecke_f(3, 3, 1, q(2), q(1), 1, T) + hecke_f(3, 3, 1, q(4), q(3), 1, T - 1).shift(qs)
        assert_equal(lhs1, j1 * Jbar(3, 6, T), T)
        assert_equal(hecke_f(1, 5, 1, q(2), q(2), 1, T), j1 * Jbar(1, 6, T), T)
        assert_equal(hecke_f(3, 3, 1, q(3), q(1), 1, T), J(1, 4, T) * J(6, 12, T), T)
        assert_equal(hecke_f(1, 5, 1, q(2), q(0), 1, T),
                     (j1 * Jbar(6, 24, T)).shift(qs).truncate(T), T)
        # base q^2 pair
        lhs5 = hecke_f(3, 3, 1, q(5), q(4), 2, T) + hecke_f(3, 3, 1, q(7), q(6), 2, T - 1).shift(qs)
        assert_equal(lhs5, Jm(2, T) * Jbar(1, 4, T), T)
        lhs6 = hecke_f(3, 3, 1, mq(5), q(4), 2, T) - hecke_f(3, 3, 1, mq(7), q(6), 2, T - 1).shift(qs)
        assert_equal(lhs6, Jm(2, T) * J(1, 4, T), T)

    def test_q_to_minus_q_relates_the_base2_pairs(self):
        T = 30
        lhs5 = (hecke_f(3, 3, 1, q(5), q(4), 2, T)
                + hecke_f(3, 3, 1, q(7), q(6), 2, T - 1).shift(Monomial(0, F(1))))
        lhs6 = (hecke_f(3, 3, 1, mq(5), q(4), 2, T)
                - hecke_f(3, 3, 1, mq(7), q(6), 2, T - 1).shift(Monomial(0, F(1))))
        assert_equal(lhs5.substitute_q_neg(), lhs6, T)

    def test_deep_negative_argument_evaluation(self):
        # f_{1,5,1}(q^5, q^-7, q) = -q^9 J1 Jbar_{1,6}
        T = 30
        lhs = hecke_f(1, 5, 1, q(5), q(-7), 1, T)
        rhs = (Jm(1, T) * Jbar(1, 6, T)).shift(Monomial(2, F(9))).truncate(T)
        assert_equal(lhs, rhs, T)
        rhs_genfn = genfn_rhs(4, q(5), q(-7), 1, 20)
        assert_equal(lhs.truncate(20), rhs_genfn, 20)

    def test_shifted_column_evaluation(self):
        # f_{1,5,1}(q^7, q, q) = -q J1 Jbar_{6,24}
        T = 30
        lhs = hecke_f(1, 5, 1, q(7), q(1), 1, T)
        rhs = (Jm(1, T) * Jbar(6, 24, T)).shift(Monomial(2, F(1))).truncate(T)
        assert_equal(lhs, rhs, T)
        assert_equal(genfn_rhs(4, q(7), q(1), 1, 18), lhs.truncate(18), 18)


class TestSingshift:
    @pytest.mark.parametrize("p,ell", [
        (1, 0), (1, 1), (1, -1),
        (2, 0), (2, 1), (2, 2), (2, -1), (2, -2),
        (3, 0), (3, 1), (3, 2), (3, -2),
        (4, 0), (4, 1),
    ])
    def test_generic_samples(self, p, ell):
        T = 16
        x, y = q(F(2, 7)), q(F(3, 5))
        lhs = hecke_f(1, 1 + p, 1, x, y, 1, T)
        rhs = singshift_rhs(p, ell, x, y, 1, T)
        assert_equal(lhs, rhs, T)

    def test_closed_form_specializations(self):
        T = 25
        # k = 1 branch at x = y = q reproduces J_{1,2} Jbar_{3,8}
        assert_equal(singshift_rhs(2, 1, q(1), q(1), 1, T),
                     J(1, 2, T) * Jbar(3, 8, T), T)
        # k = 2 branch at x = y = q^2 for the 1,4,1 family
        assert_equal(singshift_rhs(3, 2, q(2), q(2), 1, T),
                     Jm(1, T) * (J(4, 15, T) + J(14, 15, T - 1).shift(Monomial(0, F(1)))), T)
        # k = 1 branch at (q^3, q^2)
        assert_equal(singshift_rhs(3, 1, q(3), q(2), 1, T),
                     Jm(1, T) * J(3, 15, T), T)

    def test_ell_zero_matches_genfn(self):
        T = 15
        x, y = q(F(2, 7)), q(F(3, 5))
        for p in (2, 3):
            assert_equal(singshift_rhs(p, 0, x, y, 1, T), genfn_rhs(p, x, y, 1, T), T)
