"""Core arithmetic on truncated Laurent series."""

import copy
import json
import pickle
import sys
import threading
from fractions import Fraction as F
from math import inf as INF, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from qstrings.series import (
    GaussianRational,
    FractionalExponent,
    InsufficientOrder,
    Mismatch,
    Monomial,
    NonPositiveRatio,
    PrecisionShortfall,
    QSeries,
    SeriesError,
    UNIT_PAIRS,
    ZeroLeadingTerm,
    divide,
    format_coeff,
    format_series,
    margin_scale,
    pad,
    product_sum,
    require_order,
    series_to_json,
)

from oracles import (
    Gauss,
    format_series_items,
    int_coeffs,
    ord_bound,
    partition_counts,
    pochhammer_product,
    poly_add,
    poly_div,
    poly_first_mismatch,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_substitute_power,
    poly_substitute_q_neg,
    poly_truncate,
    series_from_json_terms,
    series_to_json_terms,
    truncated_div,
    truncated_mul,
)

# frozen from the brute-force product oracle (tests/oracles.py)
PENTAGONAL_14 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0]
J1_SQUARED_14 = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, 0, 0, 2]
PARTITIONS_13 = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]


def i_power(k: int) -> GaussianRational:
    """The unit i**k."""
    return GaussianRational(*UNIT_PAIRS[k % 4])


def series_from_coeffs(coeffs, trunc):
    return QSeries({F(i): c for i, c in enumerate(coeffs)}, trunc)


def j1_series(order):
    d = pochhammer_product(F(1), F(1), F(1), F(order))
    return QSeries(d, order)


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(F(1, 2), F(3))
        b = GaussianRational(2, -1)
        assert a + b == GaussianRational(F(5, 2), 2)
        assert a * b == GaussianRational(4, F(11, 2))
        assert (a / b) * b == a
        assert -a == GaussianRational(F(-1, 2), -3)

    def test_units(self):
        i = i_power(1)
        assert i * i == -1
        assert i_power(7) == -i
        assert 1 / i == i_power(3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    @pytest.mark.parametrize("x", [1, -3, F(1, 3), F(-7, 2)])
    def test_hash_agrees_with_equal_real_values(self, x):
        g = GaussianRational(x)
        assert g == x and hash(g) == hash(x)
        assert len({g, x}) == 1
        assert {x: "v"}[g] == "v"

    def test_hash_of_non_real_values(self):
        g = GaussianRational(F(1, 2), -3)
        assert hash(g) == hash(GaussianRational(F(2, 4), F(-6, 2)))
        assert len({g, GaussianRational(F(1, 2), -3), F(1, 2)}) == 2

    def test_fraction_parts_kept_as_they_are(self):
        re, im = F(3, 4), F(-5, 6)
        g = GaussianRational(re, im)
        assert g.re is re and g.im is im
        # the same value from ints, other spellings and the boundary view
        for h in (GaussianRational(F(6, 8), F(10, -12)), F(3, 4) + GaussianRational(0, F(-5, 6)),
                  QSeries.below(3, {2: 9}, {2: -10}, INF, 12)[F(2, 3)]):
            assert h == g and hash(h) == hash(g)
            assert type(h.re) is F and type(h.im) is F
        assert GaussianRational(2, 0) == 2 and hash(GaussianRational(2, F(0))) == hash(2)
        assert type(GaussianRational(2).re) is F

    def test_boundary_view_over_a_coefficient_denominator(self):
        # parts over cden come out in lowest terms, whatever cden is
        s = QSeries.below(6, {-3: 2, 4: 8}, {-3: -6, 9: 3}, 14, 4)  # below q^(7/3)
        records = [
            {"num": -1, "den_exp": 2, "re_num": 1, "re_den": 2, "im_num": -3, "im_den": 2},
            {"num": 2, "den_exp": 3, "re_num": 2, "re_den": 1, "im_num": 0, "im_den": 1},
            {"num": 3, "den_exp": 2, "re_num": 0, "re_den": 1, "im_num": 3, "im_den": 4},
        ]
        assert series_to_json_terms(s) == records
        assert series_to_json(s) == json.dumps(records)
        assert s.terms == {F(-1, 2): GaussianRational(F(1, 2), F(-3, 2)), F(2, 3): 2,
                           F(3, 2): GaussianRational(0, F(3, 4))}
        assert series_from_json_terms(series_to_json_terms(s), s.trunc).compare(s, s.trunc) is None

    @pytest.mark.parametrize("c, text", [
        (GaussianRational(1, F(1, 2)), "(1+(1/2)i)"),
        (GaussianRational(1, F(-3, 2)), "(1-(3/2)i)"),
        (GaussianRational(F(-1, 3), 2), "(-1/3+2i)"),
        (GaussianRational(2, -1), "(2-i)"),
        (GaussianRational(0, F(1, 2)), "(1/2)i"),
        (GaussianRational(0, F(-1, 2)), "(-1/2)i"),
        (GaussianRational(0, -3), "-3i"),
    ])
    def test_mixed_coefficient_text_is_unambiguous(self, c, text):
        # (1+1/2i) would read as 1 + 1/(2i) = 1 - i/2
        assert format_coeff(c) == text

    @pytest.mark.parametrize("terms, trunc, text", [
        ({}, -2, "0 + O(q^(-2))"),
        ({F(-3): 1}, -2, "q^(-3) + O(q^(-2))"),
        ({F(-5, 2): 2}, F(-1, 2), "2q^(-5/2) + O(q^(-1/2))"),
        ({}, 0, "0 + O(q^0)"),
        ({F(1): -1}, 3, "-q + O(q^3)"),
    ])
    def test_truncation_is_spelled_as_a_term_exponent(self, terms, trunc, text):
        # a negative exponent is bracketed in the O-term as in the terms
        assert format_series(QSeries(terms, trunc)) == text


class TestMonomial:
    def test_mul_pow(self):
        m = Monomial(1, F(1, 2))  # i*q^(1/2)
        assert m * m == Monomial(2, F(1))
        assert m ** 4 == Monomial(0, F(2))
        assert m ** -1 == Monomial(3, F(-1, 2))
        assert (-m).unit_k == 3

    def test_neg_pow_combination(self):
        # (-y)^(-3) for y = q^2 is -q^(-6)
        y = Monomial.q(2)
        assert (-y) ** -3 == Monomial(2, F(-6))

    def test_unit_is_reduced_mod_4(self):
        assert Monomial(5, F(1, 3)) == Monomial(1, F(1, 3))
        assert Monomial(-1, 2).unit_k == 3
        assert hash(Monomial(6, 1)) == hash(Monomial(2, F(1))) == hash((2, F(1)))
        assert Monomial(4, F(1, 2)) != Monomial(0, F(1, 3))

    def test_record_behaviour(self):
        e = F(2, 7)
        m = Monomial(1, e)
        assert m.qexp is e  # a Fraction is kept as given
        assert Monomial(0, 3).qexp == F(3) and type(Monomial(0, 3).qexp) is F
        assert repr(m) == "Monomial(unit_k=1, qexp=Fraction(2, 7))"
        assert {m: 1}[Monomial(5, F(4, 14))] == 1
        assert m != (1, e) and m.__eq__((1, e)) is NotImplemented
        with pytest.raises(AttributeError):
            m.unit_k = 2
        with pytest.raises(AttributeError):
            m.other = 2
        with pytest.raises(AttributeError):
            del m.qexp
        assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m


class TestAddMul:
    def test_cancellation(self):
        a = QSeries({F(0): 1, F(1): -1}, F(10))
        b = QSeries({F(1): 1}, F(10))
        s = a + b
        assert s.terms == {F(0): GaussianRational(1)}
        assert s.trunc == F(10)

    def test_add_zero_identity(self):
        x = QSeries({F(2): 3, F(0): 1}, F(5))
        s = x + QSeries.zero()
        assert s.terms == x.terms and s.trunc == x.trunc

    def test_trunc_propagation(self):
        a = QSeries({F(0): 1}, F(5))
        b = QSeries({F(0): 1}, F(3))
        assert (a + b).trunc == F(3)
        assert (a + b)[0] == GaussianRational(2)

    def test_sum_drops_the_term_at_the_lower_trunc(self):
        # q is known below q^2, but the sum is exact only below q^1
        assert format_series(QSeries({1: 1}, 2) + QSeries({0: 1}, 1)) == "1 + O(q^1)"

    def test_mul_simple(self):
        one_minus_q = QSeries({F(0): 1, F(1): -1}, F(20))
        one_plus_q = QSeries({F(0): 1, F(1): 1}, F(20))
        p = one_minus_q * one_plus_q
        assert p.terms == {F(0): GaussianRational(1), F(2): GaussianRational(-1)}
        # the cancelled term at q^1 is not stored
        check_stored(p, {F(0): Gauss(F(1)), F(2): Gauss(F(-1))}, F(20))

    def test_mul_laurent(self):
        a = Monomial.q(-1).as_series()
        b = Monomial.q(1).as_series()
        p = a * b
        assert p.terms == {F(0): GaussianRational(1)}
        assert p.trunc == INF

    def test_mul_matches_bruteforce_j1_squared(self):
        j1 = j1_series(F(14))
        sq = j1 * j1
        assert int_coeffs({e: c.as_fraction() for e, c in sq.terms.items()}, 12) == J1_SQUARED_14[:12]
        assert sq.trunc == F(14)  # ord(j1) = 0 on both sides

    def test_exact_zero_absorbs(self):
        z = QSeries.zero()
        a = QSeries({F(0): 1}, F(3))
        assert (z * a).is_exact_zero

    # the integer bound ceil(trunc * den) on the operands' common lattice 1/den

    def test_mul_drops_term_at_trunc(self):
        a = QSeries({F(0): 1, F(2, 5): 1}, F(1))
        b = QSeries({F(0): 1, F(3, 5): 1}, INF)
        p = a * b
        assert p.trunc == F(1)
        assert p.terms == {F(0): GaussianRational(1), F(2, 5): GaussianRational(1),
                           F(3, 5): GaussianRational(1)}

    def test_mul_trunc_off_both_lattices(self):
        # 1/5 and 1/7 lattices, trunc 2/3 = 23.3/35: 23/35 = 4/5 - 1/7 stays
        a = QSeries({F(0): 1, F(4, 5): 1}, F(17, 21))
        b = QSeries({F(-1, 7): 1, F(0): 1}, INF)
        p = a * b
        assert p.trunc == F(2, 3)
        assert p.terms == {F(-1, 7): GaussianRational(1), F(0): GaussianRational(1),
                           F(23, 35): GaussianRational(1)}

    def test_mul_negative_trunc_off_both_lattices(self):
        # trunc -2/3 = -23.3/35: -24/35 stays, -23/35 goes
        a = QSeries({F(-4, 5): 1, F(-2, 5): 1}, F(-8, 21))
        b = QSeries({F(-2, 7): 1, F(1, 7): 1}, INF)
        p = a * b
        assert p.trunc == F(-2, 3)
        assert p.terms == {F(-38, 35): GaussianRational(1), F(-24, 35): GaussianRational(1)}

    def test_mul_operand_without_terms(self):
        b = QSeries({F(1, 5): 3, F(1): 1}, INF)
        p = QSeries({}, F(2)) * b
        assert p.terms == {} and p.trunc == F(11, 5)
        p = QSeries({}, F(2)) * QSeries({}, F(1, 3))
        assert p.terms == {} and p.trunc == F(7, 3)

    def test_product_sum_is_exact_below_the_least_trunc(self):
        # (1 + q)*1 is known below q^2 and (1 + q + q^2 + q^3)(1 + q^2) below
        # q^5: the sum is exact below q^2 whichever pair comes last
        a, b = QSeries({0: 1, 1: 1}, 2), QSeries({0: 1}, INF)
        c, d = QSeries({0: 1, 1: 1, 2: 1, 3: 1}, 5), QSeries({0: 1, 2: 1}, INF)
        for pairs in ([(a, b), (c, d)], [(c, d), (a, b)]):
            assert format_series(product_sum(pairs)) == "2 + 2q + O(q^2)"

    @pytest.mark.parametrize("b1, want", [
        (GaussianRational(-1, 1), GaussianRational(0, 2)),  # real parts cancel
        (GaussianRational(1, -1), GaussianRational(2, 0)),  # imaginary parts cancel
        (GaussianRational(-1, -1), None),  # both cancel: no term stored
    ])
    def test_mul_partial_cancellation(self, b1, want):
        a = QSeries({F(0): 1, F(1, 5): 1}, INF)
        b = QSeries({F(0): GaussianRational(1, 1), F(1, 5): b1}, INF)
        p = a * b
        assert p.terms.get(F(1, 5)) == want
        assert p.terms[F(0)] == GaussianRational(1, 1) and p.terms[F(2, 5)] == b1


class TestInverse:
    def test_geometric(self):
        a = QSeries({F(0): 1, F(1): -1}, F(8))
        inv = a.inverse()
        assert inv.trunc == F(8)
        assert [int(inv[k].as_fraction()) for k in range(8)] == [1] * 8

    def test_monomial(self):
        inv = Monomial.q(1).as_series().inverse()
        assert inv.terms == {F(-1): GaussianRational(1)}
        assert inv.trunc == INF

    def test_partition_numbers(self):
        inv = j1_series(F(14)).inverse()
        got = [int(inv[k].as_fraction()) for k in range(14)]
        assert got == PARTITIONS_13
        assert got == partition_counts(13)

    def test_trunc_contract_with_shift(self):
        # ord = 2，trunc 10  ->  inverse ord -2, trunc 10 - 4 = 6
        a = QSeries({F(2): 1, F(3): -1}, F(10))
        inv = a.inverse()
        assert inv.ord == F(-2)
        assert inv.trunc == F(6)
        prod = a * inv
        assert prod.compare(QSeries.one(INF), prod.trunc) is None

    def test_no_leading_term(self):
        with pytest.raises(ZeroLeadingTerm):
            QSeries({}, F(5)).inverse()

    def test_exact_polynomial_rejected(self):
        with pytest.raises(SeriesError):
            QSeries({F(0): 1, F(1): -1}, INF).inverse()


class TestDivision:
    def test_empty_dividend_uses_trunc_as_ord_bound(self):
        # ord_bound(a) = 5: min(5 - 0, 5 + 2 - 0) = 5, where ord(a) = 0 would give 2
        q = QSeries({}, F(5)) / QSeries({F(0): 1, F(1): 1}, F(2))
        assert q.terms == {} and q.trunc == F(5)

    def test_exact_over_exact_monomial_stays_exact(self):
        q = QSeries({F(0): 1, F(1): 2}, INF) / QSeries({F(1, 2): -2}, INF)
        assert q.terms == {F(-1, 2): GaussianRational(F(-1, 2)), F(1, 2): GaussianRational(-1)}
        assert q.trunc == INF

    def test_exact_over_exact_non_monomial_rejected(self):
        with pytest.raises(SeriesError):
            QSeries({F(0): 1, F(2): 3}, INF) / QSeries({F(0): 1, F(1): -1}, INF)

    def test_chain_rejects_exact_over_exact_at_its_step(self):
        # as in the sequential a/f_1/f_2, though the chain multiplies in the
        # conjugate of every non-real divisor first: a truncated conjugate
        # must not make an exact step look truncated
        f_exact = QSeries({F(0): 1, F(1): GaussianRational(0, 1)}, INF)
        f_cut = QSeries({F(0): 1, F(1, 2): GaussianRational(1, 1)}, F(4))
        with pytest.raises(SeriesError):
            divide(QSeries.one(), [f_exact, f_cut])
        # an exact zero stays exact under a truncated divisor
        with pytest.raises(SeriesError):
            divide(QSeries.zero(), [f_cut, f_exact])
        assert divide(QSeries.zero(), [f_cut]).is_exact_zero

    def test_divisor_without_terms(self):
        with pytest.raises(ZeroLeadingTerm):
            QSeries.one(F(5)) / QSeries({}, F(3))
        with pytest.raises(ZeroLeadingTerm):
            QSeries.one(F(5)) / QSeries.zero()

    def test_truncated_over_exact_polynomial(self):
        q = QSeries.one(F(8)) / QSeries({F(0): 1, F(1): -1}, INF)
        assert q.trunc == F(8)
        assert q.terms == {F(k): GaussianRational(1) for k in range(8)}

    @pytest.mark.parametrize("lead, trunc, ks", [
        (F(0), F(2, 3), range(5)),  # 2/3 = 4.7/7: 4/7 stays
        (F(-1), F(-2, 3), range(3)),  # -2/3 = -4.7/7: -5/7 stays
    ])
    def test_trunc_off_the_lattice(self, lead, trunc, ks):
        q = QSeries({lead: 1}, trunc) / QSeries({F(0): 1, F(1, 7): -1}, INF)
        assert q.trunc == trunc
        assert q.terms == {lead + F(k, 7): GaussianRational(1) for k in ks}

    def test_sparse_dividend_over_a_wide_step(self):
        # (1 + q^(1/30030)) / (1 - q^(1/2)) below q^20: on the lattice 1/30030
        # the divisor steps by 15015, and the dividend's two keys lie in two
        # residue classes mod 15015, so the walk covers two lists of 40 slots,
        # not the 600600 slots of one list over the gcd 1 of all offsets
        a = QSeries.below(30030, {0: 1, 1: 1}, {}, 20 * 30030)
        f = QSeries.below(2, {0: 1, 1: -1}, {}, INF)
        q = a / f
        want = poly_div({F(0): F(1), F(1, 30030): F(1)}, {F(0): F(1), F(1, 2): F(-1)}, F(20))
        assert len(want) == 80
        check_stored(q, {e: Gauss(c) for e, c in want.items()}, F(20))

    def test_non_real_divisor(self):
        # 1/(1 + i*q) = sum of (-i)^k q^k: dividend and divisor both take the
        # conjugate 1 - i*q, and the divisor alone would give 1/(1 + q^2)
        q = QSeries.one(F(6)) / QSeries({F(0): 1, F(1): GaussianRational(0, 1)}, INF)
        assert q.trunc == F(6)
        assert q.terms == {F(k): i_power(3 * k) for k in range(6)}

    def test_chain_trunc_moves_with_each_least_exponent(self):
        # a/f1 is exact below min(10 - 1, 0 + INF - 2) = 9 and starts at q^-1,
        # so over f2 (ord 0, trunc 3) the chain is exact below
        # min(9 - 0, -1 + 3 - 0) = 2, as the two divisions one by one are
        a = QSeries({F(0): 1}, F(10))
        f1, f2 = QSeries({F(1): 1, F(2): 1}, INF), QSeries({F(0): 1, F(1): 1}, F(3))
        q, want = divide(a, [f1, f2]), a / f1 / f2
        assert q.trunc == want.trunc == F(2) and q.terms == want.terms


class TestSubstitutions:
    def test_power_half(self):
        a = QSeries({F(0): 1, F(1): 1}, F(6))
        b = a.substitute_power(F(1, 2))
        assert b.terms == {F(0): GaussianRational(1), F(1, 2): GaussianRational(1)}
        assert b.trunc == F(3)

    def test_power_identity(self):
        a = QSeries({F(1, 3): 2}, F(5))
        b = a.substitute_power(1)
        assert b.terms == a.terms and b.trunc == a.trunc

    def test_power_rejects_nonpositive(self):
        with pytest.raises(NonPositiveRatio):
            QSeries.one(F(3)).substitute_power(0)

    def test_q_neg(self):
        a = series_from_coeffs([1, 1, 1], F(10))
        b = a.substitute_q_neg()
        assert [int(b[k].as_fraction()) for k in range(3)] == [1, -1, 1]

    def test_q_neg_involution(self):
        a = series_from_coeffs([3, -2, 0, 7, 1], F(9))
        assert a.substitute_q_neg().substitute_q_neg().compare(a, 9) is None

    def test_q_neg_rejects_fractional(self):
        a = QSeries({F(1, 2): 1}, F(4))
        with pytest.raises(FractionalExponent):
            a.substitute_q_neg()

    def test_shift(self):
        a = series_from_coeffs([1, 1], F(4))
        s = a.shift(Monomial(0, F(1, 2)))
        assert s.terms == {F(1, 2): GaussianRational(1), F(3, 2): GaussianRational(1)}
        assert s.trunc == F(9, 2)

    def test_shift_unit_rotates(self):
        a = QSeries.one(F(4))
        s = a.shift(Monomial(1, F(0)))
        assert s[0] == GaussianRational(0, 1)

    def test_shift_inverse(self):
        a = series_from_coeffs([2, 5, -1], F(7))
        back = a.shift(Monomial(0, F(3, 7))).shift(Monomial(0, F(-3, 7)))
        assert back.terms == a.terms and back.trunc == a.trunc


class TestOffLatticeTrunc:
    # a trunc whose denominator does not divide den lifts den to their lcm,
    # so that the trunc is the int tk on the series' own lattice

    def test_truncate_lifts_den(self):
        s = QSeries.below(2, {-1: 1, 0: 2, 1: 5}, {}, 6).truncate(F(1, 3))
        assert (s.den, s.tk, s.trunc) == (6, 2, F(1, 3))
        assert s.terms == {F(-1, 2): GaussianRational(1), F(0): GaussianRational(2)}

    def test_const_lifts_den(self):
        s = QSeries.const(GaussianRational(F(1, 2), -1), F(-2, 5))
        assert (s.den, s.tk, s.trunc, s.terms) == (5, -2, F(-2, 5), {})
        s = QSeries.const(GaussianRational(F(1, 2), -1), F(7, 3))
        assert (s.den, s.tk, s.trunc, s.cden) == (3, 7, F(7, 3), 2)
        assert s.terms == {F(0): GaussianRational(F(1, 2), -1)}
        assert format_series(s) == "(1/2-i) + O(q^(7/3))"

    def test_fraction_keyed_constructor_lifts_den(self):
        s = QSeries({F(1, 2): 1, F(3, 2): 1}, F(4, 3))
        assert (s.den, s.tk, s.trunc, s.terms) == (6, 8, F(4, 3), {F(1, 2): GaussianRational(1)})
        s = QSeries({F(1, 2): 1}, F(1, 3))  # q^(1/2) lies above q^(1/3)
        assert (s.den, s.tk, s.trunc, s.terms) == (3, 1, F(1, 3), {})
        s = QSeries({F(-1, 2): 1, F(0): 3, F(1, 2): 1}, F(1, 3))
        assert (s.den, s.tk, s.trunc) == (6, 2, F(1, 3))
        assert s.terms == {F(-1, 2): GaussianRational(1), F(0): GaussianRational(3)}
        assert format_series(s) == "q^(-1/2) + 3 + O(q^(1/3))"


class TestCompare:
    def test_equal_to_self(self):
        a = series_from_coeffs([1, 2, 3], F(5))
        assert a.compare(a, 5) is None

    def test_first_mismatch(self):
        a = QSeries.one(F(10))
        b = QSeries({F(0): 1, F(5): 1}, F(10))
        m = a.compare(b, 10)
        assert m == Mismatch(F(5), GaussianRational(0), GaussianRational(1))
        # equal real parts, a different imaginary part
        a = QSeries({F(0): 1, F(1): GaussianRational(1, 1)}, F(10))
        b = QSeries({F(0): 1, F(1): 1}, F(10))
        assert a.compare(b, 10) == Mismatch(F(1), GaussianRational(1, 1), GaussianRational(1))

    def test_least_of_several_mismatches(self):
        G = GaussianRational
        a = QSeries({F(0): 1, F(3, 2): 2, F(4): 1, F(7): 5}, F(10))
        common = {F(0): 1, F(7): 6}
        # 1/3 is in b only, 4 in a only, 3/2 and 7 differ in both
        b = QSeries({**common, F(1, 3): G(0, 1), F(3, 2): 3}, F(10))
        assert a.compare(b, 10) == Mismatch(F(1, 3), G(0), G(0, 1))
        assert b.compare(a, 10) == Mismatch(F(1, 3), G(0, 1), G(0))
        b = QSeries({**common, F(3, 2): 3}, F(10))
        assert a.compare(b, 10) == Mismatch(F(3, 2), G(2), G(3))
        assert a.compare(b, F(3, 2)) is None
        b = QSeries({**common, F(3, 2): 2}, F(10))
        assert a.compare(b, 10) == Mismatch(F(4), G(1), G(0))
        assert b.compare(a, 10) == Mismatch(F(4), G(0), G(1))

    def test_mismatches_at_or_above_upto_ignored(self):
        a = QSeries({F(0): 1, F(5): 1}, F(10))
        b = QSeries({F(0): 1, F(6): 2}, F(10))
        assert a.compare(b, 5) is None
        assert b.compare(a, 5) is None
        assert a.compare(b, F(11, 2)) == Mismatch(F(5), GaussianRational(1), GaussianRational(0))

    def test_insufficient_order(self):
        a = QSeries.one(F(3))
        with pytest.raises(InsufficientOrder):
            a.compare(QSeries.one(F(10)), 5)


# -- property tests ----------------------------------------------------------

small_fracs = st.fractions(min_value=-3, max_value=6, max_denominator=3)
coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def small_series(draw, min_trunc=4):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        e = draw(small_fracs)
        c = draw(coeffs)
        if c:
            terms[e] = c
    trunc = F(draw(st.integers(min_value=min_trunc, max_value=9)))
    return QSeries({e: c for e, c in terms.items() if e < trunc}, trunc)


@st.composite
def invertible_series(draw):
    s = draw(small_series())
    lead = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
    e0 = min(draw(small_fracs), s.trunc - 1)
    terms = {e: c for e, c in s.terms.items() if e > e0}
    terms[e0] = GaussianRational(lead)
    return QSeries(terms, s.trunc)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    t = min(a.trunc, b.trunc, c.trunc)
    assert ((a + b) + c).compare(a + (b + c), t) is None
    lhs = a * (b + c)
    rhs = a * b + a * c
    t2 = min(lhs.trunc, rhs.trunc)
    assert lhs.compare(rhs, t2) is None
    ab, ba = a * b, b * a
    assert ab.compare(ba, ab.trunc) is None


@settings(max_examples=100, deadline=None)
@given(invertible_series())
def test_inverse_is_two_sided(a):
    inv = a.inverse()
    left, right = a * inv, inv * a
    one = QSeries.one(INF)
    assert left.compare(one, left.trunc) is None
    assert right.compare(one, right.trunc) is None


# nonzero coefficients with non-unit denominators, non-real about half the time
_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.tuples(_parts, st.one_of(st.just(F(0)), _parts)).filter(any).map(lambda c: Gauss(*c))


def as_series(terms: dict, trunc) -> QSeries:
    return QSeries({e: GaussianRational(c.re, c.im) for e, c in terms.items()}, trunc)


def as_gauss(s: QSeries) -> dict:
    return {e: Gauss(c.re, c.im) for e, c in s.terms.items()}


def beyond_trunc(draw, trunc, den) -> dict:
    """Terms at or above `trunc`: they stand for a truncated series' unknown
    terms, which a result exact below its own trunc cannot depend on."""
    if trunc == INF:
        return {}
    ks = draw(st.dictionaries(st.integers(0, 4 * den), gaussians, max_size=3))
    return {trunc + F(k, den): c for k, c in ks.items()}


@st.composite
def mul_operand(draw):
    """(s, terms of s plus unknown terms beyond its trunc) on a lattice 1/den;
    lattices 1/5 .. 1/13 are coprime, so a product's lattice reaches 1/5005."""
    den = draw(st.sampled_from([1, 5, 7, 11, 13]))
    exps = st.integers(min_value=-3 * den, max_value=6 * den).map(lambda k: F(k, den))
    terms = draw(st.dictionaries(exps, gaussians, max_size=6))
    off_lattice = st.tuples(st.integers(-9, 24), st.sampled_from([3, 4])).map(lambda t: F(*t))
    trunc = draw(st.one_of(st.just(INF), exps, off_lattice))
    known = {e: c for e, c in terms.items() if e < trunc}
    return as_series(known, trunc), known | beyond_trunc(draw, trunc, den)


def gaussian_poly_mul(a: dict, b: dict, bound) -> dict:
    """a*b below `bound` for Gauss coefficients, as four real oracle products."""
    def part(d, name):
        return {e: getattr(c, name) for e, c in d.items() if getattr(c, name)}

    rr, ii = poly_mul(part(a, "re"), part(b, "re"), bound), poly_mul(part(a, "im"), part(b, "im"), bound)
    ri, ir = poly_mul(part(a, "re"), part(b, "im"), bound), poly_mul(part(a, "im"), part(b, "re"), bound)
    out = {}
    for e in rr.keys() | ii.keys() | ri.keys() | ir.keys():
        c = Gauss(rr.get(e, F(0)) - ii.get(e, F(0)), ri.get(e, F(0)) + ir.get(e, F(0)))
        if c:
            out[e] = c
    return out


@settings(max_examples=200, deadline=None)
@given(mul_operand(), mul_operand())
def test_mul_matches_poly_mul_oracle(x, y):
    (a, a_full), (b, b_full) = x, y
    p = a * b
    assert p.trunc == min(a.trunc + ord_bound(b.terms, b.trunc), b.trunc + ord_bound(a.terms, a.trunc))
    assert all(p.terms.values()) and all(e < p.trunc for e in p.terms)
    # the oracle sees the terms beyond each trunc too, so agreement below
    # p.trunc shows that the contract is provable
    assert as_gauss(p) == gaussian_poly_mul(a_full, b_full, p.trunc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mul_operand(), mul_operand()), min_size=1, max_size=3))
def test_product_sum_matches_the_oracle_products(pairs):
    # the sum is exact below the least of the products' truncs
    got = product_sum([(a, b) for (a, _), (b, _) in pairs])
    trunc = min(min(a.trunc + ord_bound(b.terms, b.trunc), b.trunc + ord_bound(a.terms, a.trunc))
                for (a, _), (b, _) in pairs)
    assert got.trunc == trunc
    want = {}
    for (_, a_full), (_, b_full) in pairs:
        want = poly_add(want, gaussian_poly_mul(a_full, b_full, trunc), trunc)
    assert as_gauss(got) == want
    check_stored(got, want, trunc)


@st.composite
def division_operands(draw):
    """(a, f, a beyond its trunc, f beyond its trunc), each on its own lattice.

    The "beyond" dicts stand for the unknown terms at or above each trunc;
    a quotient exact below its trunc cannot depend on them.
    """
    def operand(divisor):
        den = draw(st.sampled_from([1, 2, 3, 5, 7]))
        exps = st.integers(min_value=-3 * den, max_value=6 * den).map(lambda k: F(k, den))
        terms = draw(st.dictionaries(exps, gaussians, max_size=5))
        lead = None
        if divisor:  # the divisor's least term, so ord f = lead
            lead = draw(exps)
            terms = {e: c for e, c in terms.items() if e > lead}
            terms[lead] = draw(st.one_of(
                st.sampled_from([Gauss(F(2)), Gauss(F(1), F(1)), Gauss(F(1, 2)), Gauss(F(0), F(-1))]),
                gaussians))
        lo = max(terms, default=F(-3)) if lead is None else lead
        trunc = draw(st.one_of(st.just(INF),
                               st.integers(1, 8 * den).map(lambda k: lo + F(k, den))))
        if draw(st.integers(0, 2)) == 0:  # a truncation that hides some drawn terms
            trunc = min(trunc, draw(exps.filter(lambda e: lead is None or e > lead)))
        known = {e: c for e, c in terms.items() if e < trunc}
        return as_series(known, trunc), known | beyond_trunc(draw, trunc, den)

    a, a_full = operand(False)
    f, f_full = operand(True)
    return a, f, a_full, f_full


@settings(max_examples=200, deadline=None)
@given(division_operands())
def test_division_matches_long_division_oracle(operands):
    a, f, a_full, f_full = operands
    if a.trunc == INF and f.trunc == INF and len(f.terms) > 1:
        with pytest.raises(SeriesError):
            a / f
        return
    q = a / f
    v = f.ord
    assert q.trunc == min(a.trunc - v, ord_bound(a.terms, a.trunc) + f.trunc - 2 * v)
    # the oracle sees the terms beyond each trunc too, so agreement below
    # q.trunc shows that the contract is provable
    assert as_gauss(q) == poly_div(a_full, f_full, q.trunc)


@settings(max_examples=40, deadline=None)
@given(small_series(), st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3),
       st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
def test_substitute_power_multiplicative(a, r, s):
    lhs = a.substitute_power(r).substitute_power(s)
    rhs = a.substitute_power(r * s)
    assert lhs.terms == rhs.terms and lhs.trunc == rhs.trunc


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series())
def test_no_stored_zero_coefficients(a, b):
    for s in (a + b, a * b, a - b, (a * b) + (b * a)):
        assert all(c for c in s.terms.values())
        assert all(e < s.trunc for e in s.terms)


# -- the lattice-native operations against the plain-dict oracles ------------
#
# Operands are built on their int lattice directly, so a series can sit on a
# den that is not minimal (den 10 holding only even keys, or only multiples
# of 10), and a pair of operands usually has different dens.

_UNITS = (Gauss(F(1)), Gauss(F(0), F(1)), Gauss(F(-1)), Gauss(F(0), F(-1)))
_MINUS_ONE = _UNITS[2]
# a drawn coefficient c kept mixed, or made purely real or purely imaginary
_KINDS = {"mixed": lambda c: c, "real": lambda c: Gauss(c.re), "imaginary": lambda c: Gauss(F(0), c.re)}


def on_lattice(den: int, coeffs: dict, trunc, cden: int = 1):
    """(s, its terms as {Fraction: Gauss}) for the {int k: Gauss} terms on
    the lattice 1/den, stored as numerators over `cden`; a trunc off that
    lattice lifts den to the lcm of den and the trunc's denominator."""
    lifted = den if trunc == INF else lcm(den, F(trunc).denominator)
    m = lifted // den
    s = QSeries.below(lifted, {k * m: int(c.re * cden) for k, c in coeffs.items()},
                      {k * m: int(c.im * cden) for k, c in coeffs.items()},
                      INF if trunc == INF else int(trunc * lifted), cden)
    return s, {F(k, den): c for k, c in coeffs.items() if c and F(k, den) < trunc}


@st.composite
def lattice_operand(draw):
    """(s, its terms as {Fraction: Gauss}), purely real, purely imaginary or
    mixed; one draw in ten is the exact zero."""
    if draw(st.integers(0, 9)) == 0:
        return QSeries.zero(), {}
    den = draw(st.sampled_from([1, 2, 3, 5, 10, 12]))
    step = draw(st.sampled_from([d for d in (1, 2, 3, 5, 10, 12) if den % d == 0]))
    keys = st.integers(-3 * den // step, 6 * den // step).map(lambda j: j * step)
    kind = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    coeffs = {k: kind(c) for k, c in draw(st.dictionaries(keys, gaussians, max_size=6)).items()}
    off_lattice = st.tuples(st.integers(-9, 24), st.sampled_from([4, 7])).map(lambda t: F(*t))
    trunc = draw(st.one_of(st.just(INF), keys.map(lambda k: F(k, den)), off_lattice))
    # the numerators over a cden that is the least one times 1, 2 or 3
    cden = draw(st.sampled_from([1, 2, 3])) * lcm(*(p.denominator for c in coeffs.values()
                                                   for p in (c.re, c.im)))
    return on_lattice(den, coeffs, trunc, cden)


orders = st.one_of(st.just(INF), st.fractions(min_value=-4, max_value=7, max_denominator=12))


def check_stored(s: QSeries, want: dict, trunc) -> None:
    """`s` holds exactly the terms `want` and the truncation `trunc`: its
    `terms` view equals `want` (keys reduced Fractions), each of its two
    dicts maps int keys below the int trunc tk to nonzero ints over a
    positive int cden, tk is an int on the lattice 1/den or INF, a real
    series has an empty imaginary dict, and the view is a copy."""
    assert s.trunc == trunc
    assert s.tk == INF if trunc == INF else s.tk.__class__ is int and F(s.tk, s.den) == trunc
    assert as_gauss(s) == want
    assert all(e < trunc for e in want)
    assert s.cden.__class__ is int and s.cden > 0
    for part in (s.real, s.imag):
        assert all(c.__class__ is int and c != 0 for c in part.values())
        assert all(k.__class__ is int and k < s.tk for k in part)
    if all(c.im == 0 for c in want.values()):
        assert s.imag == {}
    view = s.terms
    view.clear()
    view[F(-99)] = GaussianRational(1)
    assert as_gauss(s) == want


def relattice(s: QSeries, m: int) -> QSeries:
    """`s` with every key, every numerator, den and cden multiplied by m: the
    same series."""
    return QSeries.below(s.den * m, *({k * m: c * m for k, c in d.items()} for d in (s.real, s.imag)),
                         s.tk * m, s.cden * m)


@settings(max_examples=200, deadline=None)
@given(lattice_operand(), lattice_operand())
def test_add_sub_neg_match_oracle(x, y):
    (a, ta), (b, tb) = x, y
    t = min(a.trunc, b.trunc)
    check_stored(a, ta, a.trunc)
    check_stored(a + b, poly_add(ta, tb, t), t)
    check_stored(a - b, poly_add(ta, poly_scale(tb, _MINUS_ONE), t), t)
    check_stored(-a, poly_scale(ta, _MINUS_ONE), a.trunc)


@settings(max_examples=100, deadline=None)
@given(lattice_operand(), gaussians)
def test_scale_matches_oracle(x, c):
    a, ta = x
    check_stored(a.scale(GaussianRational(c.re, c.im)), poly_scale(ta, c), a.trunc)
    assert a.scale(0).is_exact_zero


@settings(max_examples=150, deadline=None)
@given(lattice_operand(), orders)
def test_truncate_matches_oracle(x, order):
    a, ta = x
    got = a.truncate(order)
    if a.is_exact_zero:
        assert got.is_exact_zero
        return
    t = min(a.trunc, order)
    check_stored(got, poly_truncate(ta, t), t)


@settings(max_examples=200, deadline=None)
@given(lattice_operand(), lattice_operand(), orders)
def test_compare_matches_oracle(x, y, upto):
    (a, ta), (b, tb) = x, y
    upto = min(upto, a.trunc, b.trunc)
    if upto == INF:
        upto = F(100)
    assert a.compare(relattice(a, 3), upto) is None
    want = poly_first_mismatch(ta, tb, upto)
    got = a.compare(b, upto)
    if want is None:
        assert got is None
        return
    e, left, right = want
    assert got == Mismatch(e, *(GaussianRational(c.re, c.im) if c else GaussianRational(0)
                                for c in (left, right)))


@settings(max_examples=150, deadline=None)
@given(lattice_operand(), st.integers(0, 3), st.fractions(min_value=-3, max_value=3, max_denominator=14))
def test_shift_matches_oracle(x, unit_k, qexp):
    a, ta = x
    check_stored(a.shift(Monomial(unit_k, qexp)), poly_shift(ta, _UNITS[unit_k], qexp), a.trunc + qexp)


@settings(max_examples=150, deadline=None)
@given(lattice_operand(), st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6))
def test_substitute_power_matches_oracle(x, r):
    a, ta = x
    check_stored(a.substitute_power(r), poly_substitute_power(ta, r), a.trunc * r)


@settings(max_examples=150, deadline=None)
@given(lattice_operand())
def test_substitute_q_neg_matches_oracle(x):
    a, ta = x
    if any(e.denominator != 1 for e in ta) or (a.trunc != INF and a.trunc.denominator != 1):
        with pytest.raises(FractionalExponent):
            a.substitute_q_neg()
        return
    check_stored(a.substitute_q_neg(), poly_substitute_q_neg(ta), a.trunc)


@settings(max_examples=200, deadline=None)
@given(lattice_operand())
# keys and numerators that reduce by different gcds: -3/6 -> -1/2, 4/6 -> 2/3,
# and over cden 12, 6 -> 1/2, -9 -> -3/4 and 4 -> 1/3
@example(on_lattice(6, {-3: Gauss(F(1, 2), F(-3, 4)), 0: Gauss(F(0), F(1, 3)), 4: _MINUS_ONE}, INF, 12))
def test_json_wire_form_matches_the_records_oracle(x):
    # the writer formats the stored ints itself; json.dumps of the records,
    # built from the Fraction view, must give the same bytes, and the text
    # must read back to the same series
    a, ta = x
    text = series_to_json(a)
    assert text == json.dumps(series_to_json_terms(a))
    check_stored(series_from_json_terms(json.loads(text), a.trunc), ta, a.trunc)


@settings(max_examples=200, deadline=None)
@given(lattice_operand(), st.one_of(st.none(), st.integers(0, 7)))
# every spelling of a coefficient: 1 and -1 left out before q, a fraction
# bracketed before q, an imaginary part bracketed when it is not integral
@example(on_lattice(6, {-3: Gauss(F(1, 2), F(-3, 4)), 0: Gauss(F(0), F(-1, 3)), 2: _MINUS_ONE,
                        6: _UNITS[1], 9: Gauss(F(-5, 2)), 12: Gauss(F(2), F(1)), 18: Gauss(F(0), F(-2))},
                    F(7, 2), 12), None)
@example(on_lattice(1, {-3: _UNITS[0], -2: _UNITS[3]}, F(-1)), 1)
def test_text_form_matches_the_items_oracle(x, max_terms):
    # the writer formats the stored ints itself; the term-by-term writer
    # over the Fraction view must give the same text
    a, _ = x
    assert format_series(a, max_terms) == format_series_items(a, max_terms)


_R, _I = Gauss(F(1)), Gauss(F(0), F(1))


@settings(max_examples=150, deadline=None)
@given(lattice_operand(), lattice_operand())
# real times imaginary, and imaginary over real
@example(on_lattice(2, {0: _R, 1: F(-3, 2) * _R, 4: 2 * _R}, F(4), 2),
         on_lattice(3, {1: 3 * _I, 3: -_I, 5: F(1, 3) * _I}, F(3), 3))
@example(on_lattice(6, {-2: _I, 3: -2 * _I, 9: F(5, 2) * _I}, F(5), 2),
         on_lattice(2, {0: 3 * _R, 1: _R, 3: -_R}, F(4)))
# divisors (1+i) + q, 2i + q and 2 + q
@example(on_lattice(1, {0: _R, 2: _I}, F(6)), on_lattice(1, {0: _R + _I, 1: _R}, F(6)))
@example(on_lattice(1, {0: _R, 1: 2 * _R - _I}, F(6)), on_lattice(1, {0: 2 * _I, 1: _R}, F(6)))
@example(on_lattice(1, {0: _R, 1: _R}, F(6)), on_lattice(1, {0: 2 * _R, 1: _R}, F(6)))
# a Gaussian dividend over a non-unit real lead: the two parts of the
# quotient leave the long division with different powers of 2 and 3 and end
# over one cden
@example(on_lattice(1, {0: _R + 2 * _I, 1: F(3, 2) * _R - _I, 3: F(1, 2) * _I}, F(8), 2),
         on_lattice(1, {0: 6 * _R, 1: 3 * _R, 2: -_R}, F(8)))
def test_mul_div_on_non_minimal_lattices(x, y):
    (a, ta), (b, tb) = x, y
    p = a * b
    check_stored(p, gaussian_poly_mul(ta, tb, p.trunc), p.trunc)
    if not tb or (a.trunc == INF and b.trunc == INF and len(tb) > 1):
        return
    q = a / b
    check_stored(q, poly_div(ta, tb, q.trunc), q.trunc)


# divisors whose primitive part (the divisor over the gcd of its int parts)
# leads with a non-unit, times an int, a Gaussian or a rational content
_NON_UNIT_LEADS = (Gauss(F(2)), Gauss(F(3)), Gauss(F(1), F(1)), Gauss(F(2), F(-1)))
_CONTENTS = (Gauss(F(1)), Gauss(F(2)), Gauss(F(2), F(2)), Gauss(F(0), F(-3)), Gauss(F(1, 3)),
             Gauss(F(3, 2), F(-1, 2)))
gaussian_ints = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any).map(
    lambda c: Gauss(F(c[0]), F(c[1])))


@st.composite
def non_unit_division_operands(draw):
    """(a, f, a beyond its trunc, f beyond its trunc): f = content * P for a
    Gaussian-integer P with a non-unit least coefficient, a on a cden that is
    not minimal, each on a den of 1, 2, 5 or 12, truncs finite or INF."""
    def keys(den):
        return st.integers(-2 * den, 5 * den)

    fden, aden = draw(st.sampled_from([1, 2, 5, 12])), draw(st.sampled_from([1, 2, 5, 12]))
    lead = draw(keys(fden))
    content = draw(st.sampled_from(_CONTENTS))
    ptail = draw(st.dictionaries(st.integers(lead + 1, lead + 4 * fden), gaussian_ints, max_size=4))
    f_terms = {F(k, fden): c * content for k, c in ptail.items()}
    f_terms[F(lead, fden)] = draw(st.sampled_from(_NON_UNIT_LEADS)) * content
    f_trunc = draw(st.one_of(st.just(INF), st.integers(1, 6 * fden).map(lambda k: F(lead + k, fden))))
    a_coeffs = draw(st.dictionaries(keys(aden), gaussians, max_size=5))
    finite = st.integers(-2 * aden, 6 * aden).map(lambda k: F(k, aden))
    exact_divisor = f_trunc == INF and len([e for e in f_terms if e < f_trunc]) > 1
    a_trunc = draw(finite if exact_divisor else st.one_of(st.just(INF), finite))
    mult = draw(st.sampled_from([2, 3, 6]))
    cden = mult * lcm(*(p.denominator for c in a_coeffs.values() for p in (c.re, c.im)))
    a, a_known = on_lattice(aden, a_coeffs, a_trunc, cden)
    f_known = {e: c for e, c in f_terms.items() if e < f_trunc}
    return (a, as_series(f_known, f_trunc), a_known | beyond_trunc(draw, a_trunc, aden),
            f_known | beyond_trunc(draw, f_trunc, fden))


@settings(max_examples=200, deadline=None)
@given(non_unit_division_operands())
def test_division_by_non_unit_leads_matches_oracle(operands):
    a, f, a_full, f_full = operands
    q = a / f
    v = f.ord
    assert q.trunc == min(a.trunc - v, ord_bound(a.terms, a.trunc) + f.trunc - 2 * v)
    check_stored(q, poly_div(a_full, f_full, q.trunc), q.trunc)


# -- int truncations over chains of operations ----------------------------------
#
# Keys lie on 1/den and truncs on 1/tden for den and tden in _CHAIN_DENS, so a
# trunc is often off its operand's lattice and lifts den.

_CHAIN_DENS = (1, 2, 3, 5, 12)
_chain_fracs = st.tuples(st.integers(-12, 24), st.sampled_from(_CHAIN_DENS)).map(lambda t: F(*t))


@st.composite
def chain_operand(draw):
    den = draw(st.sampled_from(_CHAIN_DENS))
    coeffs = draw(st.dictionaries(st.integers(-2 * den, 4 * den), gaussians, max_size=3))
    trunc = draw(st.one_of(st.just(INF), _chain_fracs.map(lambda t: t / 2)))
    return on_lattice(den, coeffs, trunc, lcm(*(p.denominator for c in coeffs.values() for p in (c.re, c.im))))


chain_steps = st.lists(st.one_of(
    st.tuples(st.sampled_from("+*/"), chain_operand()),
    st.tuples(st.just("shift"), st.tuples(st.integers(0, 3), _chain_fracs.map(lambda t: t / 4))),
    st.tuples(st.just("power"), st.tuples(st.integers(1, 24), st.sampled_from(_CHAIN_DENS)).map(lambda t: F(*t) / 4)),
    st.tuples(st.just("truncate"), st.one_of(st.just(INF), _chain_fracs.map(lambda t: t / 2))),
), max_size=4)


@settings(max_examples=300, deadline=None)
@given(chain_operand(), chain_steps)
def test_int_truncs_follow_the_fraction_restatement_over_chains(start, steps):
    # each step's Fraction trunc and terms come from the oracle restatement;
    # check_stored compares tk/den with that trunc and every key with tk
    s, (terms, t) = start[0], (start[1], start[0].trunc)
    for op, arg in steps:
        if op in "+*/":
            b, (bterms, tb) = arg[0], (arg[1], arg[0].trunc)
            if op == "+":
                s, t = s + b, min(t, tb)
                terms = poly_add(terms, bterms, t)
            elif op == "*":
                s, (terms, t) = s * b, truncated_mul(terms, t, bterms, tb)
            elif not bterms or (t == INF and tb == INF and len(bterms) > 1):
                with pytest.raises(SeriesError):
                    s / b
                continue
            else:
                s, (terms, t) = s / b, truncated_div(terms, t, bterms, tb)
        elif op == "shift":
            s, terms, t = s.shift(Monomial(*arg)), poly_shift(terms, _UNITS[arg[0]], arg[1]), t + arg[1]
        elif op == "power":
            s, terms, t = s.substitute_power(arg), poly_substitute_power(terms, arg), t * arg
        elif terms or t != INF:  # truncate; the exact zero stays as it is
            s, t = s.truncate(arg), min(t, arg)
            terms = poly_truncate(terms, t)
        check_stored(s, terms, t)


class TestPrecision:
    def test_require_order_raises_typed_error(self):
        with pytest.raises(PrecisionShortfall, match="probe precision shortfall"):
            require_order(QSeries.one(F(5)), 10, "probe")
        assert issubclass(PrecisionShortfall, SeriesError)
        assert require_order(QSeries.one(F(5)), 3, "probe").trunc == 3

    def test_margin_scale_is_per_thread(self):
        # both threads hold their scale while the other reads; with one shared
        # value the thread that set it first would see the other's padding
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(k):
            with margin_scale(k):
                barrier.wait()
                seen[k] = {pad(1) for _ in range(2000)}
                barrier.wait()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in (2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        # each thread sees its own audit slack of k steps; outside any
        # margin_scale the slack is zero
        assert seen == {2: {2}, 3: {3}}
        assert pad(1) == 0

    @pytest.mark.parametrize("k", [-1, F(1, 2), 0.5])
    def test_margin_scale_needs_a_non_negative_int(self, k):
        # a negative k narrows every window and drops terms below the claimed
        # truncation; a fractional k is no whole number of steps, and a float
        # one makes pad return a float
        with pytest.raises(ValueError, match="margin_scale needs an int k >= 0"):
            with margin_scale(k):
                pass
        assert pad(1) == 0
