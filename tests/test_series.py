"""Core arithmetic on truncated Laurent series."""

import sys
import threading
from fractions import Fraction as F
from math import inf as INF

import pytest
from hypothesis import given, settings, strategies as st

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
    ZeroLeadingTerm,
    margin_scale,
    pad,
    require_order,
)

from oracles import Gauss, int_coeffs, partition_counts, pochhammer_product, poly_div, poly_mul

# frozen from the brute-force product oracle (tests/oracles.py)
PENTAGONAL_14 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0]
J1_SQUARED_14 = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, 0, 0, 2]
PARTITIONS_13 = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]


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
        i = GaussianRational.i_power(1)
        assert i * i == -1
        assert GaussianRational.i_power(7) == -i
        assert 1 / i == GaussianRational.i_power(3)

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

    def test_mul_simple(self):
        one_minus_q = QSeries({F(0): 1, F(1): -1}, F(20))
        one_plus_q = QSeries({F(0): 1, F(1): 1}, F(20))
        p = one_minus_q * one_plus_q
        assert p.terms == {F(0): GaussianRational(1), F(2): GaussianRational(-1)}

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


class TestCompare:
    def test_equal_to_self(self):
        a = series_from_coeffs([1, 2, 3], F(5))
        assert a.compare(a, 5) is None

    def test_first_mismatch(self):
        a = QSeries.one(F(10))
        b = QSeries({F(0): 1, F(5): 1}, F(10))
        m = a.compare(b, 10)
        assert m == Mismatch(F(5), GaussianRational(0), GaussianRational(1))

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
    assert p.trunc == min(a.trunc + b.ord_bound(), b.trunc + a.ord_bound())
    assert all(p.terms.values()) and all(e < p.trunc for e in p.terms)
    # the oracle sees the terms beyond each trunc too, so agreement below
    # p.trunc shows that the contract is provable
    assert as_gauss(p) == gaussian_poly_mul(a_full, b_full, p.trunc)


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
    assert q.trunc == min(a.trunc - v, a.ord_bound() + f.trunc - 2 * v)
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
        assert seen == {2: {4}, 3: {6}}
        assert pad(1) == 2
