"""Expression language: lexer/parser totality, round trips, evaluation."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qstrings import expr, theta
from qstrings.expr import (
    KNOWN_FUNCTIONS,
    BinOp,
    Call,
    EvalError,
    Neg,
    ParseError,
    Pow,
    UnknownFunction,
    evaluate_text,
    parse,
    pretty,
)
from qstrings.series import QSeries, format_series


ROUND_TRIP_CORPUS = [
    "1", "q", "i", "-q", "q^2", "q^(1/2)", "-q^2", "i*q^(1/2)", "q^(-3)",
    "1 + q", "1 - q*q", "2*q - q^3 + 1", "(1+q)*(1-q)", "q^2/(1-q)",
    "J[1]", "J[1,2]", "Jbar[3,8]", "Jm(5)", "eta(1)", "eta(1/2)",
    "J[1,2]*Jbar[3,8]", "J[1]^2", "J[1]^(-2)", "eta(1)^(-2)*eta(1/2)",
    "j(q, q)", "j(-q^2, q^3)", "jbar(q^3, q^8)", "j(i*q, q^4)",
    "m(q, q^2, -1)", "m(-1, q^2, q)", "m(-q^3, q^8, q^(-1))",
    "f(1,2,1; q,q; 1)", "f(1,3,1; q^2,q; 1)", "f(3,3,1; q^3,q; 1)",
    "f(1,5,1; q^5, q^(-7); 1)",
    "g(2; q,q; -1,-1; 1)", "h(2; -q^3,q^2; -1,-1; 2)",
    "C(2,1,1)", "calC(4,2,2)", "theta_side(3,2,0)",
    "f(1,2,1; q,q; 1) - J[1]^2",
    "q^(1/24)*J[1]", "1/2 + q", "(1+i)*q - i*q^2",
    "-(q + q^2)", "-q^2 + q^(1/2)", "2^3", "q*q*q",
    "eta(1)^(-2)*eta(1/6)^(-1)*eta(1/12)^2",
    "jbar(q, q^4)*2 - jbar(-1, q)",
]

# each corpus expression, a tab, and its printed value at order 6
CORPUS_OUTPUTS = Path(__file__).parent / "data" / "expr_corpus.txt"


def _call_names(node):
    if isinstance(node, Call):
        yield node.name
    for child in vars(node).values():
        for c in (child if isinstance(child, tuple) else (child,)):
            if hasattr(c, "pos"):
                yield from _call_names(c)


class TestParser:
    def test_corpus_round_trips(self):
        assert len(ROUND_TRIP_CORPUS) == 50
        for s in ROUND_TRIP_CORPUS:
            ast = parse(s)
            assert parse(pretty(ast)) == ast, s

    def test_precedence_mul_before_sub(self):
        ast = parse("1 - q * q")
        assert isinstance(ast, BinOp) and ast.op == "-"
        assert isinstance(ast.right, BinOp) and ast.right.op == "*"

    def test_precedence_pow_before_neg(self):
        ast = parse("-q^2")
        assert isinstance(ast, Neg)
        assert isinstance(ast.arg, Pow)

    def test_missing_bracket(self):
        with pytest.raises(ParseError) as e:
            parse("J[1,2")
        assert e.value.position == len("J[1,2")
        assert e.value.expected == "]"

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("zeta(2)")

    def test_positions(self):
        with pytest.raises(ParseError) as e:
            parse("1 + $")
        assert e.value.position == 4

    def test_semicolons_equal_commas(self):
        assert parse("f(1,2,1; q,q; 1)") == parse("f(1,2,1, q,q, 1)")

    def test_fractional_exponent_needs_parens(self):
        with pytest.raises(ParseError):
            parse("q^1/2 + j(")  # the 1/2 parses as division, then j( fails

    def test_fuzz_smoke(self):
        rng = random.Random(1234)
        alphabet = "qiJbarfmCghe()[]^+-*/;, 0123456789_t"
        for _ in range(10_000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
            try:
                parse(s)
            except ParseError:
                pass


class TestEvaluate:
    def test_zero_theta(self):
        s = evaluate_text("j(q, q)", 20)
        assert s.is_exact_zero

    def test_appell_half(self):
        s = evaluate_text("m(q, q^2, -1)", 30)
        assert s.compare(QSeries.const(F(1, 2)), 30) is None

    def test_f_minus_closed_form_is_zero(self):
        s = evaluate_text("f(1,2,1; q,q; 1) - J[1]^2", 20)
        assert s.compare(QSeries.zero(), 20) is None

    def test_shorthand_product(self):
        lhs = evaluate_text("J[1,2]*Jbar[3,8]", 25)
        rhs = evaluate_text("f(1,3,1; q, q; 1)", 25)
        assert lhs.compare(rhs, 25) is None

    def test_eta_quotient_lattice(self):
        s = evaluate_text("eta(1)^(-2) * eta(1/2)", 5)
        assert all(e.denominator in (16, 48, 1, 2, 4, 8, 3, 6, 12, 24) for e in s.support())
        assert s.ord == F(-1, 16)

    def test_inversion_rebump_reaches_order(self):
        s = evaluate_text("1/J[1]", 12)
        assert s.trunc >= 12
        assert [int(s[k].as_fraction()) for k in range(6)] == [1, 1, 2, 3, 5, 7]

    def test_monomial_arguments(self):
        s = evaluate_text("j(i*q, q^4)", 15)
        t = evaluate_text("j(q*i, q^4)", 15)
        assert s.compare(t, 15) is None

    def test_bad_monomial_argument(self):
        with pytest.raises(EvalError):
            evaluate_text("j(2*q, q)", 10)

    def test_bad_modulus(self):
        with pytest.raises(EvalError):
            evaluate_text("j(q, 3)", 10)

    def test_error_carries_path(self):
        with pytest.raises(EvalError) as e:
            evaluate_text("1 + j(q, q)/j(q^2, q)", 10)
        assert "/" in str(e.value) or "expr" in str(e.value)

    def test_division_by_exact_zero(self):
        with pytest.raises(EvalError):
            evaluate_text("1/j(q, q)", 10)

    def test_string_functions(self):
        lhs = evaluate_text("calC(2,1,1)", 20)
        rhs = evaluate_text("(J[1]*J[2])/J[1]^3", 20)
        assert lhs.compare(rhs, 20) is None

    def test_integer_arithmetic(self):
        s = evaluate_text("2^3 - 8", 5)
        assert s.compare(QSeries.zero(), 5) is None

    def test_gaussian_scalars(self):
        s = evaluate_text("(1+i)*(1-i)", 5)
        assert s.compare(QSeries.const(2), 5) is None

    def test_quotient_of_exact_polynomials(self):
        # the divisor is cut at the working order, which fixes the truncation
        assert format_series(evaluate_text("q^2/(1-q)", 6)) == "q^2 + q^3 + q^4 + q^5 + O(q^6)"
        alternating = "1 - q + q^2 - q^3 + q^4 - q^5 + O(q^6)"
        assert format_series(evaluate_text("1/(1+q)", 6)) == alternating
        assert format_series(evaluate_text("(1+q)^(-1)", 6)) == alternating
        # a divisor of positive valuation costs precision: the re-evaluation
        # at a higher working order still reaches the order, also when the
        # divisor starts at or above it
        assert format_series(evaluate_text("(q+q^2)^(-2)", 2)) == "q^(-2) - 2q^(-1) + 3 - 4q + O(q^2)"
        assert format_series(evaluate_text("1/(q^3+q^4)", 1)) == "q^(-3) - q^(-2) + q^(-1) - 1 + O(q^1)"

    @pytest.mark.parametrize("src, order, terms", [
        ("1/(1-q)", 0, {}),
        ("eta(1)^(-1)", 0, {F(-1, 24): 1}),
        ("1/(1-q)", -1, {}),
    ])
    def test_divisors_keep_their_leading_term_at_orders_up_to_zero(self, src, order, terms):
        # the working order has a floor of 1, so the cut of 1 - q and the
        # series of eta(1) keep the term they lead with; the result is then
        # the order-1 result truncated to the order
        s = evaluate_text(src, order)
        assert s.trunc == order and s.terms == terms
        assert s.terms == evaluate_text(src, 1).truncate(order).terms

    @pytest.mark.parametrize("src, order, want", [
        ("1/eta(48)", 1, "q^(-2) + O(q^1)"),
        ("1/eta(48)", F(1, 2), "q^(-2) + O(q^(1/2))"),
        ("eta(48)^(-2)", 1, "q^(-4) + O(q^1)"),
        ("q/(eta(48)*eta(24))", 1, "q^(-2) + O(q^1)"),
        ("1/(1/eta(48))", 1, "0 + O(q^1)"),
    ])
    def test_divisor_starting_above_the_working_order(self, src, order, want):
        # eta(48) = q^2 (1 - q^48 - ...) has no term below q^1 at order 1: the
        # divisor is evaluated again higher until its leading term shows, and
        # the result agrees with the same series evaluated at a higher order
        s = evaluate_text(src, order)
        assert format_series(s) == want
        assert s.terms == evaluate_text(src, 8).truncate(order).terms

    @pytest.mark.parametrize("src", ["1/(eta(1)-eta(1))", "(J[1,3]-J[1,3])^(-1)",
                                     "1/eta(4800)"])
    def test_cancelled_divisor_fails_after_a_bounded_search(self, monkeypatch, src):
        # a difference has no term at any order, and eta(4800) none below its
        # q^200, past every raise: the divisor is evaluated once plus once per
        # raise, and the division then fails as it did without the search
        node = parse(src)
        divisor = node.right if isinstance(node, BinOp) else node.base
        seen = []
        inner = expr._eval_series

        def counted(n, working, path, raises):
            if n is divisor:
                seen.append(working)
            return inner(n, working, path, raises)

        monkeypatch.setattr(expr, "_eval_series", counted)
        with pytest.raises(EvalError, match="ZeroLeadingTerm: division by a series with no term"):
            expr.evaluate(node, 1)
        assert seen == [1 + r for r in (0, *expr._RAISES)]

    def test_corpus_evaluates(self):
        for s in ROUND_TRIP_CORPUS:
            assert evaluate_text(s, 6).trunc >= 6, s

    def test_corpus_outputs_unchanged(self):
        rows = [line.split("\t") for line in CORPUS_OUTPUTS.read_text().splitlines()]
        assert [src for src, _ in rows] == ROUND_TRIP_CORPUS
        for src, text in rows:
            assert format_series(evaluate_text(src, 6)) == text, src

    def test_corpus_calls_every_function(self):
        called = {name for src in ROUND_TRIP_CORPUS for name in _call_names(parse(src))}
        assert called == KNOWN_FUNCTIONS

    @pytest.mark.parametrize("src,message", [
        ("C(2,1/2,0)", "expected an integer, found 1/2"),
        ("Jm(q)", "expected a rational, found a q-power"),
        ("Jm(i)", "expected a rational, found an imaginary value"),
        ("j(2*q,q)", "coefficient 2 is not a fourth root of unity"),
        ("j(q,3)", "modulus must be a positive plain power of q"),
        ("j(q,q^0)", "modulus must be a positive plain power of q"),
        ("j(q+q^2,q)", "expected a scalar times a power of q"),
        ("f(1,2,1; q,q)", "f takes 6 arguments, got 5"),
        ("J[1,2,3]", "J takes 1 or 2 arguments, got 3"),
    ])
    def test_argument_errors(self, src, message):
        with pytest.raises(EvalError, match=message):
            evaluate_text(src, 6)

    @pytest.mark.parametrize("src, want", [
        ("((2*q)/2)^(1/2)", "q^(1/2)"),
        ("(q*(1/2)*2)^(3/2)", "q^(3/2)"),
        ("(2*q^2/2)^(-1/2)", "q^(-1)"),
    ])
    def test_fractional_power_of_a_rescaled_q(self, src, want):
        # the base is q^e stored over a coefficient denominator other than 1
        assert format_series(evaluate_text(src, 6)) == f"{want} + O(q^6)"

    def test_argument_monomial_after_cancellation(self):
        # an argument is read off its value, not off the shape of its text
        assert evaluate_text("j((1+q)-q, q)", 6).is_exact_zero
        lhs = evaluate_text("j((q+q^2)-q^2, q^3) * Jm(3*q/q - 2)", 10)
        assert lhs.compare(evaluate_text("J[1]^2", 10), 10) is None


# -- two passes ------------------------------------------------------------------

ATOMS = st.one_of(
    st.sampled_from(["eta(1)", "eta(2)", "eta(1/2)", "1-q", "q+q^2", "i", "0", "1", "2", "-3"]),
    st.builds("J[{},{}]".format, st.integers(1, 2), st.integers(3, 5)),
    st.builds("q^({}/{})".format, st.integers(-3, 3), st.integers(1, 3)),
)


def _grow(children):
    # divisions weigh double: they are what costs precision
    binop = st.builds("({}) {} ({})".format, children, st.sampled_from("+-*//"), children)
    power = st.builds("({})^{}".format, children,
                      st.integers(-3, 3).map(lambda n: f"({n})" if n < 0 else str(n)))
    return binop | power


TREES = st.recursive(ATOMS, _grow, max_leaves=8)
ORDERS = st.sampled_from([F(1), F(3), F(7), F(12), F(1, 2), F(7, 3)])


@settings(max_examples=300, deadline=None)
@given(TREES, ORDERS)
def test_second_pass_at_the_deficit_reaches_the_order(src, order):
    # raising every builder's order by d raises the result's truncation by at
    # least d, so evaluate needs one more pass, at order + d, and no third;
    # the two passes share the raises of the divisors re-evaluated in the first
    node = parse(src)
    raises = {}
    try:
        first = expr._eval_series(node, order, "expr", raises)
    except EvalError:
        return  # a division by a zero, whatever the order
    if first.trunc < order:
        d = order - first.trunc
        assert expr._eval_series(node, order + d, "expr", raises).trunc >= order, src
    out = expr.evaluate(node, order)
    assert out.trunc == order or out.is_exact_zero, src


LATE_TREES = st.recursive(ATOMS | st.sampled_from(["eta(48)", "eta(24)", "q^2*J[1]"]), _grow,
                          max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(LATE_TREES, ORDERS)
def test_two_passes_reach_the_order_past_late_divisors(src, order):
    # eta(48), eta(24) and q^2*J[1] lead with a term at or above orders 1/2
    # to 2, so as divisors they are evaluated again higher; with the raises
    # kept from the first pass the second pass still reaches the order
    node = parse(src)
    try:
        out = expr.evaluate(node, order)
    except EvalError:
        return  # a division by a zero, whatever the order
    assert out.trunc == order or out.is_exact_zero, src
    assert out.terms == expr.evaluate(node, order + 4).truncate(order).terms, src


@pytest.mark.parametrize("src, order", [
    ("eta(1)^(-1)", 50),
    ("eta(2)/eta(1)^2", 50),
    ("eta(1)^5/eta(2)^2", 50),
    ("(q+q^2)^(-2)", 2),
    ("1/(q^3+q^4)", 1),
])
def test_evaluate_takes_at_most_two_passes(monkeypatch, src, order):
    node = parse(src)
    passes = []  # (working order, truncation) of each evaluation of the root
    inner = expr._eval_series

    def counted(n, working, path, raises):
        out = inner(n, working, path, raises)
        if n is node:
            passes.append((working, out.trunc))
        return out

    monkeypatch.setattr(expr, "_eval_series", counted)
    assert expr.evaluate(node, order).trunc == order
    # each of these falls short on the first pass, and the second pass runs
    # at exactly the order plus the deficit
    (first, short), (second, trunc) = passes
    assert first == order and short < order
    assert second == order + (order - short) and trunc >= order


def test_a_second_shortfall_raises(monkeypatch):
    # a builder that never gets past q^5 leaves the result short on both passes
    real_Jm = theta.Jm
    monkeypatch.setattr(theta, "Jm", lambda m, T: real_Jm(m, min(F(T), 5)))
    with pytest.raises(EvalError, match="could not reach order 10"):
        evaluate_text("J[1]", 10)
