"""A small expression language over q-series.

Grammar (LL(1), whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := primary ('^' exponent)?
    exponent := INT | '-' INT | '(' ['-'] INT ['/' INT] ')'
    primary  := INT | 'q' | 'i' | NAME '(' args ')' | NAME '[' args ']'
              | '(' expr ')'
    args     := expr ((',' | ';') expr)*

Rational exponents must be parenthesized (``q^(1/2)``); ``,`` and ``;`` are
interchangeable argument separators.  ``i`` is the imaginary unit.

Every node evaluates to an exact or truncated series, and ``evaluate`` takes
at most two passes.  A function argument must come out as one exact term
c*q^e, which ``FUNCTIONS`` reads as the kind of value its function takes:

    j(x, Q)          theta sum j(x; Q), Q a plain power of q
    jbar(x, Q)       j(-x; Q)
    J[a, m] / J[m]   J_{a,m} = j(q^a; q^m); J[m] = (q^m; q^m)_inf
    Jbar[a, m]       j(-q^a; q^m)
    Jm(m)            (q^m; q^m)_inf
    eta(r)           q^(r/24) (q^r; q^r)_inf
    m(x, Q, z)       Appell-Lerch sum, Q a plain power of q
    f(a,b,c; x,y; r) Hecke-type double sum at modulus q^r
    g(b; x,y; z1,z0; r)   the two-term Appell-Lerch combination g_{1,b,1}
    h(n; x,y; z1,z0; r)   the combination h_{n,n,1}
    C(N, ell, m)     string function with its q^s prefactor
    calC(N, ell, m)  normalized string function
    theta_side(N, ell, m)  tabulated closed form, levels 1..4

where `x, y, z, z1, z0` are monomials (unit times a q-power), `Q` is a
positive power of q, and the remaining arguments are integers or rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf as INF
from typing import List, Tuple, Union

from .series import UNIT_PAIRS, GaussianRational, Monomial, QSeries
from . import appell, hecke, strings, theta

F = Fraction


class ParseError(Exception):
    def __init__(self, message: str, position: int, expected: str = "", found: str = ""):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = expected
        self.found = found


class UnknownFunction(ParseError):
    pass


class EvalError(Exception):
    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class QVar:
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class IVar:
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: Fraction
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Node", ...]
    pos: int = field(compare=False, default=0)


Node = Union[Num, QVar, IVar, Neg, Pow, BinOp, Call]


# -- lexer ----------------------------------------------------------------------

_PUNCT = set("+-*/^()[],;")


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'num', 'name', 'q', 'i', punct chars, 'end'
        self.text = text
        self.pos = pos


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_word(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"


def _lex(src: str) -> List[Token]:
    toks = []
    n = len(src)
    k = 0
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if _is_digit(ch):
            j = k
            while j < n and _is_digit(src[j]):
                j += 1
            toks.append(Token("num", src[k:j], k))
            k = j
            continue
        if _is_word(ch):
            j = k
            while j < n and (_is_word(src[j]) or _is_digit(src[j])):
                j += 1
            word = src[k:j]
            kind = word if word in ("q", "i") else "name"
            toks.append(Token(kind, word, k))
            k = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k, found=repr(ch))
    toks.append(Token("end", "", n))
    return toks


# -- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.k = 0

    def peek(self) -> Token:
        return self.toks[self.k]

    def advance(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}",
                t.pos, expected=kind, found=t.kind,
            )
        return self.advance()

    def parse(self) -> Node:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.pos, expected="end", found=t.kind)
        return e

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = BinOp(op.kind, node, self.term(), op.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            node = BinOp(op.kind, node, self.factor(), op.pos)
        return node

    def factor(self) -> Node:
        t = self.peek()
        if t.kind == "-":
            self.advance()
            return Neg(self.factor(), t.pos)
        return self.power()

    def power(self) -> Node:
        node = self.primary()
        if self.peek().kind == "^":
            caret = self.advance()
            node = Pow(node, self.exponent(), caret.pos)
        return node

    def exponent(self) -> Fraction:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return F(int(t.text))
        if t.kind == "-":
            self.advance()
            num = self.expect("num")
            return -F(int(num.text))
        if t.kind == "(":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            num = self.expect("num")
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den = int(self.expect("num").text)
                if den == 0:
                    raise ParseError("zero denominator in exponent", num.pos)
            self.expect(")")
            return F(sign * int(num.text), den)
        raise ParseError(
            f"expected an exponent, found {t.text or 'end of input'!r}",
            t.pos, expected="exponent", found=t.kind,
        )

    def primary(self) -> Node:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Num(int(t.text), t.pos)
        if t.kind == "q":
            self.advance()
            return QVar(t.pos)
        if t.kind == "i":
            self.advance()
            return IVar(t.pos)
        if t.kind == "name":
            self.advance()
            if t.text not in KNOWN_FUNCTIONS:
                raise UnknownFunction(f"unknown function {t.text!r}", t.pos, found=t.text)
            opener = self.peek()
            if opener.kind not in ("(", "["):
                raise ParseError(
                    f"expected '(' or '[' after {t.text!r}",
                    opener.pos, expected="(", found=opener.kind,
                )
            closer = ")" if opener.kind == "(" else "]"
            self.advance()
            args = [self.expr()]
            while self.peek().kind in (",", ";"):
                self.advance()
                args.append(self.expr())
            self.expect(closer)
            return Call(t.text, tuple(args), t.pos)
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(
            f"expected a value, found {t.text or 'end of input'!r}",
            t.pos, expected="value", found=t.kind,
        )


def parse(src: str) -> Node:
    try:
        return _Parser(_lex(src)).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


# -- printing --------------------------------------------------------------------


def _fmt_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e)
    return f"({e})"


def pretty(node: Node, prec: int = 0) -> str:
    """Canonical re-parseable rendering; parse(pretty(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, QVar):
        return "q"
    if isinstance(node, IVar):
        return "i"
    if isinstance(node, Call):
        inner = ", ".join(pretty(a) for a in node.args)
        if node.name in ("J", "Jbar"):
            return f"{node.name}[{inner}]"
        return f"{node.name}({inner})"
    if isinstance(node, Pow):
        s = f"{pretty(node.base, 40)}^{_fmt_exponent(node.exponent)}"
        return s if prec <= 30 else f"({s})"
    if isinstance(node, Neg):
        s = f"-{pretty(node.arg, 25)}"
        return s if prec <= 20 else f"({s})"
    if isinstance(node, BinOp):
        mine = 10 if node.op in "+-" else 20
        left = pretty(node.left, mine)
        right = pretty(node.right, mine + 1)
        s = f"{left} {node.op} {right}"
        return s if prec <= mine else f"({s})"
    raise TypeError(f"not a node: {node!r}")


# -- evaluation --------------------------------------------------------------------


def _term(s: QSeries, path: str) -> Tuple[GaussianRational, Fraction]:
    """The coefficient and exponent of an exact series of at most one term."""
    if s.trunc != INF or len(s.keys()) > 1:
        raise EvalError("expected a scalar times a power of q", path)
    for e, c in s.items_sorted():
        return c, e
    return GaussianRational(0), F(0)


def _as_monomial(s: QSeries, path: str) -> Monomial:
    c, e = _term(s, path)
    if (c.re, c.im) not in UNIT_PAIRS:
        raise EvalError(f"coefficient {c} is not a fourth root of unity", path)
    return Monomial(UNIT_PAIRS.index((c.re, c.im)), e)


def _as_rational(s: QSeries, path: str) -> Fraction:
    c, e = _term(s, path)
    if e != 0:
        raise EvalError("expected a rational, found a q-power", path)
    if c.im != 0:
        raise EvalError("expected a rational, found an imaginary value", path)
    return c.re


def _as_int(s: QSeries, path: str) -> int:
    r = _as_rational(s, path)
    if r.denominator != 1:
        raise EvalError(f"expected an integer, found {r}", path)
    return int(r)


def _as_modulus(s: QSeries, path: str) -> Fraction:
    c, e = _term(s, path)
    if c != GaussianRational(1) or e <= 0:
        raise EvalError("modulus must be a positive plain power of q", path)
    return e


_READERS = {"int": _as_int, "rat": _as_rational, "mono": _as_monomial, "mod": _as_modulus}

# (name, arity) -> (argument kinds, builder of the series exact below T). Each
# builder looks its constructor up on the module at call time, so a wrapper
# installed on the module attribute after import sees every call.
FUNCTIONS = {
    ("j", 2): (("mono", "mod"), lambda x, Q, T: theta.jtheta(x, Q, T)),
    ("jbar", 2): (("mono", "mod"), lambda x, Q, T: theta.jtheta(-x, Q, T)),
    ("J", 1): (("rat",), lambda m, T: theta.Jm(m, T)),
    ("J", 2): (("rat", "rat"), lambda a, m, T: theta.J(a, m, T)),
    ("Jbar", 2): (("rat", "rat"), lambda a, m, T: theta.Jbar(a, m, T)),
    ("Jm", 1): (("rat",), lambda m, T: theta.Jm(m, T)),
    ("eta", 1): (("rat",), lambda r, T: theta.eta(r, T)),
    ("m", 3): (("mono", "mod", "mono"), lambda x, Q, z, T: appell.appell_m(x, Q, z, T)),
    ("f", 6): (("int", "int", "int", "mono", "mono", "rat"),
               lambda a, b, c, x, y, r, T: hecke.hecke_f(a, b, c, x, y, r, T)),
    ("g", 6): (("int", "mono", "mono", "mono", "mono", "rat"),
               lambda b, x, y, z1, z0, r, T: hecke.g_1b1(x, y, r, b, z1, z0, T)),
    ("h", 6): (("int", "mono", "mono", "mono", "mono", "rat"),
               lambda n, x, y, z1, z0, r, T: hecke.h_nn1(n, x, y, r, z1, z0, T)),
    ("C", 3): (("int", "int", "int"),
               lambda N, ell, m, T: strings.C_full(strings.StringLabel(N, ell, m), T)),
    ("calC", 3): (("int", "int", "int"),
                  lambda N, ell, m, T: strings.calC_hecke(strings.StringLabel(N, ell, m), T)),
    ("theta_side", 3): (("int", "int", "int"), lambda N, ell, m, T:
                        strings.level_theta_side(strings.StringLabel(N, ell, m), T)),
}
KNOWN_FUNCTIONS = {name for name, _ in FUNCTIONS}


def _call(node: Call, order: Fraction, path: str, raises: dict) -> QSeries:
    name, args = node.name, node.args
    if (name, len(args)) not in FUNCTIONS:
        want = " or ".join(str(n) for f, n in FUNCTIONS if f == name)
        raise EvalError(f"{name} takes {want} arguments, got {len(args)}", path)
    kinds, build = FUNCTIONS[name, len(args)]
    vals = []
    for idx, (kind, a) in enumerate(zip(kinds, args), start=1):
        apath = f"{path} -> argument {idx} of {name}"
        vals.append(_READERS[kind](_eval_series(a, order, apath, raises), apath))
    try:
        return build(*vals, order)
    except Exception as exc:
        raise EvalError(f"{type(exc).__name__}: {exc}", path) from exc


def _cut(s: QSeries, order: Fraction) -> QSeries:
    """`s` truncated `order` past its least exponent if it is exact with
    several terms: the quotient by such a series has infinitely many terms,
    and the cut gives it a truncation while keeping its leading term."""
    return s.truncate(s.ord + order) if s.trunc == INF and len(s.keys()) > 1 else s


# how far a divisor's working order is raised, in turn, while it comes back
# inexact with no term below its truncation
_RAISES = (1, 2, 4, 8, 16, 32, 64)


def _divisor(node: Node, order: Fraction, path: str, raises: dict) -> QSeries:
    """`node` evaluated as a divisor, with its leading term known if any
    of the `_RAISES` shows it.

    A divisor such as eta(48) at order 1 comes back inexact with no term
    below its truncation, and no quotient by it is known.  It is evaluated
    again at working orders raised by each of `_RAISES` until a term shows,
    and `raises` keeps the raise that showed it for every later evaluation
    of the node: a second pass d higher then evaluates the divisor d higher
    than the first did, as the two-pass argument of `evaluate` needs.  A
    divisor that cancels, such as eta(1) - eta(1), shows no term at any
    raise, and the division fails as it did before the re-evaluations.
    """
    key = id(node)
    s = _eval_series(node, order + raises.get(key, 0), path, raises)
    if key not in raises and s.trunc != INF and not s.keys():
        for r in _RAISES:
            s = _eval_series(node, order + r, path, raises)
            if s.keys():
                raises[key] = r
                break
    return s


def _eval_series(node: Node, order: Fraction, path: str, raises: dict) -> QSeries:
    if isinstance(node, Num):
        return QSeries.const(node.value)
    if isinstance(node, QVar):
        return Monomial.q().as_series()
    if isinstance(node, IVar):
        return QSeries.const(GaussianRational(0, 1))
    if isinstance(node, Call):
        return _call(node, order, f"{path}/{node.name}@{node.pos}", raises)
    if isinstance(node, Neg):
        return -_eval_series(node.arg, order, path, raises)
    if isinstance(node, Pow):
        e = node.exponent
        base = (_divisor if e < 0 and e.denominator == 1 else _eval_series)(node.base, order, path, raises)
        if e.denominator != 1:
            c, qexp = _term(base, path) if base.trunc == INF and len(base.keys()) == 1 else (None, 0)
            if c != GaussianRational(1):
                raise EvalError("fractional powers apply only to plain powers of q", path)
            return Monomial.q(qexp * e).as_series()
        if e < 0:
            base = _cut(base, order)
        try:
            return base ** e.numerator
        except Exception as exc:
            raise EvalError(f"{type(exc).__name__}: {exc}", f"{path}/^{e}@{node.pos}") from exc
    if isinstance(node, BinOp):
        lhs = _eval_series(node.left, order, path, raises)
        rhs = (_divisor if node.op == "/" else _eval_series)(node.right, order, path, raises)
        try:
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            # an inexact dividend already gives the quotient a truncation
            return lhs / (_cut(rhs, order) if lhs.trunc == INF else rhs)
        except Exception as exc:
            raise EvalError(f"{type(exc).__name__}: {exc}", f"{path}/{node.op}@{node.pos}") from exc
    raise EvalError(f"cannot evaluate {type(node).__name__}", path)


def evaluate(node: Node, order) -> QSeries:
    """Evaluate to a series exact below `order`, in at most two passes.

    The passes work at least at order 1 and the result is truncated to
    `order`, as ``jtheta_prod`` floors its window at the modulus: at an
    order <= 0 a divisor such as 1 - q or eta(1) would be cut or built below
    its leading term.  Every builder returns exactly the order it is asked
    for, a divisor that `_divisor` evaluated higher is evaluated higher by
    the same raise in both passes, and under the truncation rules of +, *,
    /, ^n, shift and `_cut` the valuations of exact results stay put, so
    evaluating at a working order raised by d raises the truncation by at
    least d: one more pass, d higher, makes up a first pass d short.
    """
    order = F(order)
    work = max(order, 1)
    raises = {}
    out = _eval_series(node, work, "expr", raises)
    if out.trunc < order:
        out = _eval_series(node, work + (order - out.trunc), "expr", raises)
        if out.trunc < order:
            raise EvalError(f"could not reach order {order} (got {out.trunc})", "expr")
    return out.truncate(order)


def evaluate_text(src: str, order) -> QSeries:
    return evaluate(parse(src), order)
