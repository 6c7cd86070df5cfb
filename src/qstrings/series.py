"""Exact truncated Laurent series in rational powers of q over Q(i).

The universal value type is :class:`QSeries`: a sparse map from exact
rational exponents to Gaussian-rational coefficients, together with a
truncation exponent ``trunc``.  The contract is "exact below trunc": every
term with exponent < trunc is stored exactly (zeros are never stored) and
nothing is claimed at or above trunc.  The exact zero series carries
``trunc = INF`` so that ``0 * anything`` stays exactly zero.

All operations are pure; values are immutable after construction and safe
to share between threads.  Arithmetic propagates the best provable
truncation and never silently claims more precision than its inputs
support.

Multiplication and series division run on plain ints: both operands go on
their common exponent lattice 1/den (den the lcm of their exponent
denominators), each exponent e becomes the int e*den, the truncation the
int bound ceil(trunc*den), and each coefficient an (re, im) pair whose parts
are ints when integral (mixed int/Fraction arithmetic keeps the rest exact).
Fractions and GaussianRationals are built only at the storage boundary,
once per output term.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil, inf as INF, lcm
from typing import Mapping, Union

Rat = Union[int, Fraction]
Trunc = Union[Fraction, float]  # a Fraction, or INF for exact values


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class ZeroLeadingTerm(SeriesError):
    """Division by a series with no nonzero term below its truncation."""


class NonPositiveRatio(SeriesError):
    """q -> q^r substitution with r <= 0."""


class FractionalExponent(SeriesError):
    """q -> -q substitution on a series with non-integer exponents."""


class InsufficientOrder(SeriesError):
    """Comparison requested beyond the known range of an operand."""


class PrecisionShortfall(SeriesError):
    """A constructor's result is not exact up to the order it promised."""


# --------------------------------------------------------------------------
# precision margins
#
# Enumeration cutoffs are derived exactly, in rational arithmetic; on top of
# that every internal window gets a small slack of PAD_STEPS lattice steps.
# `margin_scale` multiplies that slack, so precision audits can double every
# margin and assert that no coefficient below the requested order moves.
# The scale is a context variable: each thread (and each context a runner
# copies for a worker) sees its own value.

PAD_STEPS = 2
_margin_scale: ContextVar[int] = ContextVar("margin_scale", default=1)


@contextmanager
def margin_scale(k: int):
    token = _margin_scale.set(k)
    try:
        yield
    finally:
        _margin_scale.reset(token)


def pad(step: Rat) -> Fraction:
    """Slack added to an enumeration window whose lattice step is `step`."""
    return PAD_STEPS * _margin_scale.get() * Fraction(step)


def tadd(t: Trunc, d: Rat) -> Trunc:
    """Truncation arithmetic: INF absorbs shifts."""
    return INF if t == INF else t + d


def tmul(t: Trunc, r: Fraction) -> Trunc:
    return INF if t == INF else t * r


class GaussianRational:
    """An element a + b*i of the field Q(i).  Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def i_power(k: int) -> "GaussianRational":
        """The unit i**k."""
        k %= 4
        return _I_POWERS[k]

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    def _coerce(other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    def __add__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        if self.im == 0 and o.im == 0:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        if o.im == 0:
            if o.re == 0:
                raise ZeroDivisionError("division by zero in Q(i)")
            return GaussianRational(self.re / o.re, self.im / o.re)
        n = o.re * o.re + o.im * o.im
        return self * GaussianRational(o.re / n, -o.im / n)

    def __rtruediv__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __eq__(self, other):
        o = GaussianRational._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to int and Fraction values, so it must hash like them
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_coeff(self)


_I_POWERS = (
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
)

QI_ZERO = GaussianRational(0)
QI_ONE = _I_POWERS[0]


@dataclass(frozen=True)
class Monomial:
    """unit * q**qexp where unit = i**unit_k, unit_k in {0,1,2,3}.

    The only substitution form the constructors ever take for their x, y, z
    arguments: a fourth root of unity times an exact rational power of q.
    """

    unit_k: int
    qexp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "unit_k", self.unit_k % 4)
        object.__setattr__(self, "qexp", Fraction(self.qexp))

    @staticmethod
    def q(e: Rat = 1) -> "Monomial":
        return Monomial(0, Fraction(e))

    @staticmethod
    def one() -> "Monomial":
        return Monomial(0, Fraction(0))

    @staticmethod
    def mq(e: Rat) -> "Monomial":
        """-q**e"""
        return Monomial(2, Fraction(e))

    @property
    def unit(self) -> GaussianRational:
        return _I_POWERS[self.unit_k]

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.unit_k + other.unit_k, self.qexp + other.qexp)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.unit_k - other.unit_k, self.qexp - other.qexp)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.unit_k * n, self.qexp * n)

    def __neg__(self) -> "Monomial":
        return Monomial(self.unit_k + 2, self.qexp)

    def inverse(self) -> "Monomial":
        return self ** (-1)

    def as_series(self) -> "QSeries":
        return QSeries({self.qexp: self.unit}, INF)

    def __str__(self):
        u = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.unit_k]
        if self.qexp == 0:
            return {0: "1", 1: "i", 2: "-1", 3: "-i"}[self.unit_k]
        if self.qexp == 1:
            return f"{u}q"
        return f"{u}q^({self.qexp})"


@dataclass(frozen=True)
class Mismatch:
    """First differing coefficient from a series comparison."""

    exponent: Fraction
    left: GaussianRational
    right: GaussianRational


class QSeries:
    """Sparse exact q-series: finite exponent -> coefficient map + trunc."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[Fraction, GaussianRational], trunc: Trunc):
        t = {}
        for e, c in terms.items():
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c and e < trunc:
                t[Fraction(e)] = c
        self.terms = t
        self.trunc = trunc if trunc == INF else Fraction(trunc)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QSeries":
        return QSeries({}, INF)

    @staticmethod
    def const(c, trunc: Trunc = INF) -> "QSeries":
        return QSeries({Fraction(0): c if isinstance(c, GaussianRational) else GaussianRational(c)}, trunc)

    @staticmethod
    def one(trunc: Trunc = INF) -> "QSeries":
        return QSeries.const(1, trunc)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return not self.terms and self.trunc == INF

    @property
    def ord(self):
        """Least stored exponent, or None when no term is known."""
        return min(self.terms) if self.terms else None

    def ord_bound(self) -> Trunc:
        """A lower bound for the exponent of any term, known or not."""
        return self.ord if self.terms else self.trunc

    def __getitem__(self, e: Rat) -> GaussianRational:
        e = Fraction(e)
        if e >= self.trunc:
            raise InsufficientOrder(f"coefficient at q^{e} is beyond trunc {self.trunc}")
        return self.terms.get(e, QI_ZERO)

    def items_sorted(self):
        return sorted(self.terms.items())

    def support(self):
        return sorted(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        trunc = min(self.trunc, other.trunc)
        t = {e: c for e, c in self.terms.items() if e < trunc}
        for e, c in other.terms.items():
            if e >= trunc:
                continue
            s = t.get(e, QI_ZERO) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        out = QSeries.__new__(QSeries)
        out.terms = t
        out.trunc = trunc
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = QSeries.__new__(QSeries)
        out.terms = {e: -c for e, c in self.terms.items()}
        out.trunc = self.trunc
        return out

    def scale(self, c) -> "QSeries":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        if not c:
            return QSeries.zero()
        out = QSeries.__new__(QSeries)
        out.terms = {e: v * c for e, v in self.terms.items()}
        out.trunc = self.trunc
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return QSeries.zero()
        trunc = min(tadd(a.trunc, b.ord_bound()), tadd(b.trunc, a.ord_bound()))
        den, bound, la, lb = _on_lattice(trunc, a, b)
        acc: dict = {}
        if la and lb:
            kb_min = lb[0][0]
            for ka, ra, ia in la:
                if ka + kb_min >= bound:
                    break
                for kb, rb, ib in lb:
                    k = ka + kb
                    if k >= bound:
                        break
                    s = acc.get(k)
                    if s is None:
                        acc[k] = [ra * rb - ia * ib, ra * ib + ia * rb]
                    else:
                        s[0] += ra * rb - ia * ib
                        s[1] += ra * ib + ia * rb
        return _from_lattice(acc, den, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        acc = QSeries.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not isinstance(other, GaussianRational):
                other = GaussianRational(other)
            return self.scale(QI_ONE / other)
        a, f = self, other
        v = f.ord
        if v is None:
            raise ZeroLeadingTerm("division by a series with no term below its truncation")
        # trunc contract: min(a.trunc - v, ord(a) + f.trunc - 2v)
        trunc = min(tadd(a.trunc, -v), tadd(tadd(f.trunc, -2 * v), a.ord_bound()))
        if len(f.terms) > 1 and a.trunc == INF and f.trunc == INF:
            # an exact series over an exact non-monomial has infinitely many terms
            raise SeriesError("truncate before dividing by an exact non-monomial series")
        den, bound, la, lf = _on_lattice(trunc, a, f)
        # f = c0 q^v (1 - sum of m q^d) with d > 0; a = f*Q read at q^(e+v):
        # Q_e = a_(e+v)/c0 + sum of m Q_(e-d), all exponents in units of 1/den
        kv = lf[0][0]
        inv_c0 = QI_ONE / f.terms[v]
        ur, ui = _part(inv_c0.re), _part(inv_c0.im)
        tail = [(k - kv, ui * i - ur * r, -ur * i - ui * r) for k, r, i in lf[1:]]
        # pending[k] collects Q_k; it is final once popped, since every
        # contribution comes from a smaller exponent
        pending = {k - kv: [ur * r - ui * i, ur * i + ui * r]
                   for k, r, i in la if k - kv < bound}
        heap = list(pending)
        heapify(heap)
        acc: dict = {}
        while heap:
            k = heappop(heap)
            c = pending.pop(k)
            cr, ci = c
            if not (cr or ci):
                continue
            acc[k] = c
            for d, mr, mi in tail:
                k2 = k + d
                if k2 >= bound:
                    break
                s = pending.get(k2)
                if s is None:
                    pending[k2] = [mr * cr - mi * ci, mr * ci + mi * cr]
                    heappush(heap, k2)
                else:
                    s[0] += mr * cr - mi * ci
                    s[1] += mr * ci + mi * cr
        return _from_lattice(acc, den, trunc)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse 1/self; trunc contract: self.trunc - 2*ord(self)."""
        return QSeries.one() / self

    # -- substitutions and shifts -------------------------------------------

    def shift(self, mn: Monomial) -> "QSeries":
        """Multiply by a monomial: exponents shift, coefficients rotate."""
        if not (mn.unit_k or mn.qexp):
            return self
        u = mn.unit
        out = QSeries.__new__(QSeries)
        if mn.unit_k == 0:
            out.terms = {e + mn.qexp: c for e, c in self.terms.items()}
        else:
            out.terms = {e + mn.qexp: c * u for e, c in self.terms.items()}
        out.trunc = tadd(self.trunc, mn.qexp)
        return out

    def substitute_power(self, r: Rat) -> "QSeries":
        """q -> q**r with r > 0: scales every exponent and the truncation."""
        r = Fraction(r)
        if r <= 0:
            raise NonPositiveRatio(f"q -> q^{r} needs r > 0")
        out = QSeries.__new__(QSeries)
        out.terms = {e * r: c for e, c in self.terms.items()}
        out.trunc = tmul(self.trunc, r)
        return out

    def substitute_q_neg(self) -> "QSeries":
        """q -> -q on an integer-exponent series."""
        if self.trunc != INF and Fraction(self.trunc).denominator != 1:
            raise FractionalExponent(f"trunc {self.trunc} is not an integer")
        t = {}
        for e, c in self.terms.items():
            if e.denominator != 1:
                raise FractionalExponent(f"exponent {e} is not an integer")
            t[e] = c if e.numerator % 2 == 0 else -c
        out = QSeries.__new__(QSeries)
        out.terms = t
        out.trunc = self.trunc
        return out

    def truncate(self, order: Trunc) -> "QSeries":
        if self.is_exact_zero:
            return self
        trunc = min(self.trunc, order if order == INF else Fraction(order))
        out = QSeries.__new__(QSeries)
        out.terms = {e: c for e, c in self.terms.items() if e < trunc}
        out.trunc = trunc
        return out

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "QSeries", upto: Rat):
        """None when equal below `upto`, else the minimal Mismatch."""
        upto = Fraction(upto)
        if self.trunc < upto or other.trunc < upto:
            raise InsufficientOrder(
                f"comparison to order {upto} needs truncs >= it "
                f"(have {self.trunc}, {other.trunc})"
            )
        a, b = self.terms, other.terms
        diff = [e for e, c in a.items() if e < upto and b.get(e, QI_ZERO) != c]
        diff += [e for e, c in b.items() if e < upto and e not in a and c]
        if not diff:
            return None
        e = min(diff)
        return Mismatch(e, a.get(e, QI_ZERO), b.get(e, QI_ZERO))

    def __repr__(self):
        return f"QSeries({format_series(self, max_terms=8)})"


def _part(x: Fraction) -> Rat:
    """x as an int when integral: the kernels then run on ints, and mixed
    int/Fraction arithmetic keeps the other parts exact."""
    return x.numerator if x.denominator == 1 else x


def _on_lattice(trunc: Trunc, *series: QSeries):
    """Put `series` on their common exponent lattice 1/den.

    Returns den, the integer bound ceil(trunc*den) (INF stays INF), and for
    each series its terms as ascending (k, re, im) with exponent k/den and
    coefficient parts as `_part` gives them.
    """
    den = lcm(*{e.denominator for s in series for e in s.terms})
    bound = INF if trunc == INF else ceil(trunc * den)
    lists = [sorted((e.numerator * (den // e.denominator), _part(c.re), _part(c.im))
                    for e, c in s.terms.items()) for s in series]
    return (den, bound, *lists)


def _from_lattice(acc: dict, den: int, trunc: Trunc) -> QSeries:
    """The series with terms k/den: re + im*i for k: (re, im) in acc, zeros
    dropped; empties acc."""
    out = QSeries.__new__(QSeries)
    terms = {}
    while acc:
        k, (re, im) = acc.popitem()  # frees each pair as its term is built: lower peak memory
        if re or im:
            terms[Fraction(k, den)] = GaussianRational(re, im)
    out.terms = terms
    out.trunc = trunc
    return out


def require_order(s: QSeries, order: Rat, what: str) -> QSeries:
    """`s` truncated at `order`, which `s` must be exact up to.

    Raises PrecisionShortfall otherwise; unlike an assert, the check stays
    on under ``python -O``.
    """
    if s.trunc < order:
        raise PrecisionShortfall(f"{what} precision shortfall: {s.trunc} < {order}")
    return s.truncate(order)


# --------------------------------------------------------------------------
# rendering


def format_coeff(c: GaussianRational) -> str:
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        if c.im.denominator == 1:
            return f"{c.im}i"
        return f"({c.im})i"
    ims = "i" if c.im == 1 else ("-i" if c.im == -1 else f"{c.im}i")
    sep = "" if ims.startswith("-") else "+"
    return f"({c.re}{sep}{ims})"


def _term_str(c: GaussianRational, e: Fraction) -> str:
    if e == 0:
        return format_coeff(c)
    if e == 1:
        qp = "q"
    elif e.denominator == 1 and e > 0:
        qp = f"q^{e}"
    else:
        qp = f"q^({e})"
    if c == QI_ONE:
        return qp
    if c == GaussianRational(-1):
        return f"-{qp}"
    cs = format_coeff(c)
    if "/" in cs and not cs.startswith("("):
        cs = f"({cs})"
    return f"{cs}{qp}"


def format_series(s: QSeries, max_terms: int | None = None) -> str:
    items = s.items_sorted()
    shown = items if max_terms is None else items[:max_terms]
    parts = []
    for e, c in shown:
        t = _term_str(c, e)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(f"- {t[1:]}")
        else:
            parts.append(f"+ {t}")
    if len(shown) < len(items):
        parts.append("+ ...")
    if not parts:
        parts.append("0")
    if s.trunc != INF:
        tr = Fraction(s.trunc)
        ts = f"q^{tr}" if tr.denominator == 1 else f"q^({tr})"
        parts.append(f"+ O({ts})")
    return " ".join(parts)


def series_to_json_terms(s: QSeries) -> list:
    """The wire form: one record per term, ascending exponent."""
    return [
        {
            "num": e.numerator,
            "den_exp": e.denominator,
            "re_num": c.re.numerator,
            "re_den": c.re.denominator,
            "im_num": c.im.numerator,
            "im_den": c.im.denominator,
        }
        for e, c in s.items_sorted()
    ]


def series_from_json_terms(records, trunc: Trunc) -> QSeries:
    terms = {}
    for r in records:
        e = Fraction(r["num"], r["den_exp"])
        terms[e] = GaussianRational(
            Fraction(r["re_num"], r["re_den"]), Fraction(r["im_num"], r["im_den"])
        )
    return QSeries(terms, trunc)
