"""Appell-Lerch sums: corollary evaluations and functional equations."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from qstrings.appell import PoleAtXZ, appell_m
from qstrings.series import Monomial, QSeries, margin_scale
from qstrings.theta import ThetaZeroDenominator

from oracles import Gauss, appell_numerator, jtheta_sum_gaussian

q = Monomial.q
mq = Monomial.mq
MINUS_ONE = Monomial(2, F(0))


def assert_equal(a, b, upto):
    m = a.compare(b, upto)
    assert m is None, m


class TestEvaluations:
    def test_half(self):
        s = appell_m(q(1), 2, MINUS_ONE, 40)
        assert_equal(s, QSeries.const(F(1, 2)), 40)

    def test_zero(self):
        s = appell_m(MINUS_ONE, 2, q(1), 40)
        assert_equal(s, QSeries.zero(), 40)

    def test_fractional_modulus(self):
        # the constant-1/2 evaluation survives q -> q^(1/4)
        s = appell_m(q(F(1, 4)), F(1, 2), MINUS_ONE, 8)
        assert_equal(s, QSeries.const(F(1, 2)), 8)


class TestDefinedness:
    def test_pole_detection(self):
        with pytest.raises(PoleAtXZ):
            appell_m(q(F(1, 2)), 1, q(F(1, 2)), 10)  # x z = q, integral power of q

    def test_z_power_of_modulus(self):
        with pytest.raises(ThetaZeroDenominator):
            appell_m(q(F(1, 2)), 1, q(2), 10)

    def test_negative_d_branch(self):
        # arguments from the deep-shift evaluations: x = -q^54, modulus q^24, z = q^-12
        s = appell_m(mq(54), 24, q(-12), 20)
        assert s.trunc >= 20


SAMPLES = [
    (q(F(2, 5)), F(1), q(F(1, 7))),
    (mq(F(1, 3)), F(1), q(F(2, 7))),
    (q(F(1, 2)), F(2), q(F(1, 3))),
    (mq(3), F(4), MINUS_ONE),
    (q(F(7, 5)), F(3), mq(F(1, 2))),
]


class TestFunctionalEquations:
    @pytest.mark.parametrize("x,base,z", SAMPLES)
    def test_z_quasi_period(self, x, base, z):
        T = 25
        lhs = appell_m(x, base, z, T)
        rhs = appell_m(x, base, Monomial(0, base) * z, T)
        assert_equal(lhs, rhs, T)

    @pytest.mark.parametrize("x,base,z", SAMPLES)
    def test_inversion_flip(self, x, base, z):
        # m(x,q,z) = x^-1 m(x^-1, q, z^-1)
        T = 25
        lhs = appell_m(x, base, z, T)
        xinv = x ** -1
        rhs = appell_m(xinv, base, z ** -1, T + x.qexp).shift(xinv)
        assert_equal(lhs, rhs, T)

    @pytest.mark.parametrize("x,base,z", SAMPLES)
    def test_x_step(self, x, base, z):
        # m(qx, q, z) = 1 - x m(x, q, z)
        T = 25
        lhs = appell_m(Monomial(0, base) * x, base, z, T)
        rhs = QSeries.one() - appell_m(x, base, z, T - x.qexp).shift(x)
        assert_equal(lhs, rhs, T)

    @pytest.mark.parametrize("x,base,z,periods", [
        (q(F(2, 5)), F(1), q(F(-5, 7)), 1),
        (mq(F(1, 3)), F(2), Monomial(1, F(-9, 2)), 3),
        (q(F(7, 5)), F(3), mq(F(-17, 2)), 3),
        (q(F(1, 2)), F(1), Monomial(3, F(-4, 3)), 2),
    ])
    def test_z_below_the_strip(self, x, base, z, periods):
        # j(z) leads with a negative power of q (o_z < 0), so the sum runs
        # only below the order plus o_z; z -> q^base z a few times carries z
        # into the strip, where o_z = 0 and the sum runs up to the order
        T = 20
        lhs = appell_m(x, base, z, T)
        rhs = appell_m(x, base, Monomial(0, periods * base) * z, T)
        assert lhs.trunc == rhs.trunc == T
        assert_equal(lhs, rhs, T)

    @pytest.mark.parametrize("x,base,z1,z0", [
        (q(F(2, 5)), F(1), q(F(2, 7)), q(F(1, 7))),
        (mq(F(1, 3)), F(1), q(F(3, 7)), q(F(1, 5))),
        (q(F(1, 2)), F(2), q(F(1, 3)), mq(F(1, 5))),
        (mq(3), F(4), q(F(1, 2)), MINUS_ONE),
        (q(F(7, 5)), F(3), mq(F(5, 2)), q(F(1, 7))),
    ])
    def test_changing_z(self, x, base, z1, z0):
        # m(x,q,z1) - m(x,q,z0) = z0 J^3 j(z1/z0;q) j(x z0 z1;q)
        #                          / (j(z0;q) j(z1;q) j(x z0;q) j(x z1;q))
        T = 25
        lhs = appell_m(x, base, z1, T) - appell_m(x, base, z0, T)
        from qstrings.theta import theta_quotient
        rhs = theta_quotient(
            num=[(z1 / z0, base), (x * z0 * z1, base), (Monomial.q(base), 3 * base)] + [(Monomial.q(base), 3 * base)] * 2,
            den=[(z0, base), (z1, base), (x * z0, base), (x * z1, base)],
            order=T,
            prefactor=z0,
        )
        assert_equal(lhs, rhs, T)


class TestStability:
    @pytest.mark.parametrize("x,base,z", SAMPLES)
    def test_higher_order_retruncates_identically(self, x, base, z):
        T = 18
        a = appell_m(x, base, z, T)
        b = appell_m(x, base, z, T + 10).truncate(T)
        assert a.terms == b.terms and a.trunc == b.trunc


UNITS = (Gauss(F(1)), Gauss(F(0), F(1)), Gauss(F(-1)), Gauss(F(0), F(-1)))  # i^k
lattice_exps = st.sampled_from([1, 2, 3, 5, 7]).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda k: F(k, d)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), lattice_exps, st.integers(0, 3), lattice_exps,
       st.sampled_from([F(1), F(2), F(3), F(1, 2), F(2, 3)]),
       st.integers(-12, 40).map(lambda k: F(k, 4)))
def test_appell_m_matches_numerator_oracle(xk, xe, zk, ze, base, T):
    # j(z; q^base) * m(x, q^base, z) is the defining sum over r; the theta
    # factor comes from the brute-force oracle, so only m is under test
    x, z = Monomial(xk, xe), Monomial(zk, ze)
    j_low = jtheta_sum_gaussian(zk, ze, base, F(1))  # j has a term below 1
    assume(j_low)  # else z is a zero of j
    o_j = min(j_low)
    try:
        m = appell_m(x, base, z, T - o_j)
    except PoleAtXZ:
        assume(False)
    # the ranges are exact without any slack, and a two-step audit slack
    # moves nothing
    for k in (0, 2):
        with margin_scale(k):
            other = appell_m(x, base, z, T - o_j)
        assert other.terms == m.terms and other.trunc == m.trunc
    # m below T - o_j and j below T - ord(m) fix the product below T
    o_m = m.ord_bound()
    j = jtheta_sum_gaussian(zk, ze, base, T - min(o_m, 0))
    prod: dict = {}
    for ej, (re, im) in j.items():
        for em, c in m.terms.items():
            if ej + em < T:
                prod[ej + em] = prod.get(ej + em, Gauss(F(0))) + Gauss(c.re, c.im) * Gauss(F(re), F(im))
    prod = {e: v for e, v in prod.items() if v}
    assert prod == appell_numerator(UNITS[xk], xe, UNITS[zk], ze, base, T)
