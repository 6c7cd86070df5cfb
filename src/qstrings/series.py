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

Every series is stored on ints, as FLINT's fmpq_poly stores integer
numerators over one common denominator, twice over: an int exponent
denominator ``den``, an int coefficient denominator ``cden`` and a dict
``coeffs`` mapping the int k to an (re, im) pair of ints, so that the
coefficient of q^(k/den) is (re + im*i)/cden.  Neither ``den`` nor
``cden`` need be minimal.  An operation on two series moves both onto the
lcm of their dens and compares exponents with trunc through the int bound
ceil(trunc*den); addition and comparison also move both onto the lcm of
their cdens, multiplication multiplies the cdens, and division takes out
the divisor's content (the gcd of its parts, Knuth, TAOCP vol. 2 §4.6.1)
and sets the quotient's cden once.  So addition, multiplication, division,
shifts, substitutions, truncation and comparison all run on ints.  The
constructors of the other modules build their lattice terms directly with
``QSeries.lattice``.  Fractions and GaussianRationals appear only at the
boundary: the Fraction-keyed constructor, scalar arguments,
``__getitem__``, ``terms`` (a view built on every read), ``items_sorted``,
``support``, ``ord``, ``Mismatch`` and the JSON and text forms.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf as INF, lcm
from typing import Mapping, Sequence, Union

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
# Enumeration cutoffs are derived exactly, in rational arithmetic, and every
# window is exactly what its result needs: there is no default slack.
# `margin_scale(k)` is an audit: it widens every window by k steps of the
# window's modulus, so a test can compare slack 0 against a positive slack
# and assert that no coefficient below the requested order moves.
# The scale is a context variable: each thread (and each context a runner
# copies for a worker) sees its own value.

_margin_scale: ContextVar[int] = ContextVar("margin_scale", default=0)


@contextmanager
def margin_scale(k: int):
    token = _margin_scale.set(k)
    try:
        yield
    finally:
        _margin_scale.reset(token)


def pad(step: Rat) -> Fraction:
    """Audit slack of a window whose modulus is `step`: k*step inside
    margin_scale(k), 0 outside any."""
    return _margin_scale.get() * Fraction(step)


def tadd(t: Trunc, d: Rat) -> Trunc:
    """Truncation arithmetic: INF absorbs shifts."""
    return INF if t == INF else t + d


def tmul(t: Trunc, r: Fraction) -> Trunc:
    return INF if t == INF else t * r


class GaussianRational:
    """An element a + b*i of the field Q(i).  Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        # a part that already is a Fraction is kept as it is
        self.re = re if re.__class__ is Fraction else Fraction(re)
        self.im = im if im.__class__ is Fraction else Fraction(im)

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
UNIT_PAIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im)


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
        return _new(self.qexp.denominator, {self.qexp.numerator: UNIT_PAIRS[self.unit_k]}, INF)

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
    """Sparse exact q-series on the exponent lattice 1/den.

    ``coeffs`` maps an int k to the (re, im) pair of ints whose coefficient
    (re + im*i)/cden is that of q^(k/den); only nonzero coefficients with
    k/den < trunc are stored, and neither den, cden nor the pairs are ever
    changed after construction.
    """

    __slots__ = ("den", "coeffs", "trunc", "cden")

    def __init__(self, terms: Mapping[Rat, object], trunc: Trunc):
        trunc = trunc if trunc == INF else Fraction(trunc)
        known = {}
        for e, c in terms.items():
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c and e < trunc:
                known[Fraction(e)] = c
        den = lcm(*(e.denominator for e in known))
        cden = lcm(*(p.denominator for c in known.values() for p in (c.re, c.im)))
        self.den = den
        self.cden = cden
        self.coeffs = {e.numerator * (den // e.denominator): (int(c.re * cden), int(c.im * cden))
                       for e, c in known.items()}
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lattice(den: int, coeffs: Mapping[int, Sequence[int]], trunc: Trunc, cden: int = 1) -> "QSeries":
        """The sum of ((re + im*i)/cden) q^(k/den) over k: (re, im) in `coeffs`,
        below `trunc`, for int pairs and a positive int cden; zero pairs are
        dropped."""
        trunc = trunc if trunc == INF else Fraction(trunc)
        bound = _bound(trunc, den)
        return _new(den, {k: (re, im) for k, (re, im) in coeffs.items() if (re or im) and k < bound},
                    trunc, cden)

    @staticmethod
    def zero() -> "QSeries":
        return _new(1, {}, INF)

    @staticmethod
    def const(c, trunc: Trunc = INF) -> "QSeries":
        re, im, d = _scalar(c)
        return QSeries.lattice(1, {0: (re, im)}, trunc, d)

    @staticmethod
    def one(trunc: Trunc = INF) -> "QSeries":
        return QSeries.const(1, trunc)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.trunc == INF

    @property
    def ord(self):
        """Least stored exponent, or None when no term is known."""
        return Fraction(min(self.coeffs), self.den) if self.coeffs else None

    def ord_bound(self) -> Trunc:
        """A lower bound for the exponent of any term, known or not."""
        return self.ord if self.coeffs else self.trunc

    def __getitem__(self, e: Rat) -> GaussianRational:
        e = Fraction(e)
        if e >= self.trunc:
            raise InsufficientOrder(f"coefficient at q^{e} is beyond trunc {self.trunc}")
        k = e * self.den
        return _gauss(self.coeffs.get(k.numerator) if k.denominator == 1 else None, self.cden)

    @property
    def terms(self) -> dict:
        """The stored terms as a new {Fraction exponent: GaussianRational} dict,
        built on every read; changing it leaves the series as it was."""
        den, cden = self.den, self.cden
        return {Fraction(k, den): _gauss(c, cden) for k, c in self.coeffs.items()}

    def items_sorted(self):
        den, cden = self.den, self.cden
        return [(Fraction(k, den), _gauss(c, cden)) for k, c in sorted(self.coeffs.items())]

    def support(self):
        return [Fraction(k, self.den) for k in sorted(self.coeffs)]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        trunc = min(self.trunc, other.trunc)
        cden = lcm(self.cden, other.cden)
        den, a, b = _rebase(self, other, cden=cden)
        bound = _bound(trunc, den)
        t = {k: c for k, c in a.items() if k < bound}
        for k, c in b.items():
            if k >= bound:
                continue
            s = t.get(k)
            if s is None:
                t[k] = c
                continue
            re, im = s[0] + c[0], s[1] + c[1]
            if re or im:
                t[k] = (re, im)
            else:
                del t[k]
        return _new(den, t, trunc, cden)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _new(self.den, {k: (-re, -im) for k, (re, im) in self.coeffs.items()}, self.trunc,
                    self.cden)

    def scale(self, c) -> "QSeries":
        return _times(self, *_scalar(c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return QSeries.zero()
        trunc = min(tadd(a.trunc, b.ord_bound()), tadd(b.trunc, a.ord_bound()))
        den, ca, cb = _rebase(a, b)
        bound = _bound(trunc, den)
        la, lb = _ascending(ca), _ascending(cb)
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
        return QSeries.lattice(den, acc, trunc, a.cden * b.cden)

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
            re, im, d = _scalar(other)
            if not (re or im):
                raise ZeroDivisionError("division by zero in Q(i)")
            # 1/c = d*(re - im*i)/(re^2 + im^2)
            return _times(self, d * re, -d * im, re * re + im * im)
        a, f = self, other
        v = f.ord
        if v is None:
            raise ZeroLeadingTerm("division by a series with no term below its truncation")
        # trunc contract: min(a.trunc - v, ord(a) + f.trunc - 2v)
        trunc = min(tadd(a.trunc, -v), tadd(tadd(f.trunc, -2 * v), a.ord_bound()))
        if len(f.coeffs) > 1 and a.trunc == INF and f.trunc == INF:
            # an exact series over an exact non-monomial has infinitely many terms
            raise SeriesError("truncate before dividing by an exact non-monomial series")
        den, ca, cf = _rebase(a, f)
        bound = _bound(trunc, den)
        lf = _ascending(cf)
        # a = A/a.cden and f = g*P/f.cden for int pairs A and P, g the content
        # of f's pairs, so a/f = (m*A/P) / (a.cden*gq) with m/gq = f.cden/g in
        # lowest terms
        g = 0
        for _, fr, fi in lf:
            g = gcd(g, fr, fi)
            if g == 1:
                break
        c = gcd(f.cden, g)
        m, gq = f.cden // c, g // c
        kv, ur, ui = lf[0]
        ur, ui = ur // g, ui // g
        tail = [(k - kv, fr // g, fi // g) for k, fr, fi in lf[1:]]
        # P = sum of P_d q^(v+d) over d >= 0 and m*A = P*Q, read at q^(e+v):
        # Q_e = (m*A_(e+v) - sum over d > 0 of P_d Q_(e-d)) / u, u = P_0, all
        # exponents in units of 1/den.  1/u = w/N for the Gaussian integer
        # w = conj(u)/h and the int N = |u|^2/h, h = gcd(re u, im u); N is 1
        # when u is a unit.  Every numerator, pending or final, is over N^p:
        # p rises by one whenever a quotient numerator is not divisible by N
        h = gcd(ur, ui)
        wr, wi, N = ur // h, -ui // h, (ur * ur + ui * ui) // h
        # pending[k] collects the numerator of Q_k; it is final once popped,
        # since every contribution comes from a smaller exponent
        pending = {k - kv: [re * m, im * m] for k, (re, im) in ca.items() if k - kv < bound}
        heap = list(pending)
        heapify(heap)
        acc: dict = {}
        p = 0
        while heap:
            k = heappop(heap)
            sr, si = pending.pop(k)
            cr, ci = wr * sr - wi * si, wr * si + wi * sr
            if not (cr or ci):
                continue
            if N != 1:
                if cr % N or ci % N:
                    p += 1
                    for s in pending.values():
                        s[0] *= N
                        s[1] *= N
                    for j, (xr, xi) in acc.items():
                        acc[j] = (xr * N, xi * N)
                else:
                    cr, ci = cr // N, ci // N
            acc[k] = (cr, ci)
            for d, fr, fi in tail:
                k2 = k + d
                if k2 >= bound:
                    break
                s = pending.get(k2)
                if s is None:
                    pending[k2] = [fi * ci - fr * cr, -fr * ci - fi * cr]
                    heappush(heap, k2)
                else:
                    s[0] -= fr * cr - fi * ci
                    s[1] -= fr * ci + fi * cr
        return _new(den, acc, trunc, a.cden * gq * N ** p)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse 1/self; trunc contract: self.trunc - 2*ord(self)."""
        return QSeries.one() / self

    # -- substitutions and shifts -------------------------------------------

    def shift(self, mn: Monomial) -> "QSeries":
        """Multiply by a monomial: exponents shift, coefficients rotate."""
        if not (mn.unit_k or mn.qexp):
            return self
        e = mn.qexp
        den = lcm(self.den, e.denominator)
        m, d = den // self.den, e.numerator * (den // e.denominator)
        items = self.coeffs.items()
        if mn.unit_k == 0:
            t = {k * m + d: c for k, c in items}
        elif mn.unit_k == 1:  # times i
            t = {k * m + d: (-im, re) for k, (re, im) in items}
        elif mn.unit_k == 2:
            t = {k * m + d: (-re, -im) for k, (re, im) in items}
        else:  # times -i
            t = {k * m + d: (im, -re) for k, (re, im) in items}
        return _new(den, t, tadd(self.trunc, e), self.cden)

    def substitute_power(self, r: Rat) -> "QSeries":
        """q -> q**r with r > 0: scales every exponent and the truncation."""
        r = Fraction(r)
        if r <= 0:
            raise NonPositiveRatio(f"q -> q^{r} needs r > 0")
        # k/den * p/s = k*(p/g) / (den/g * s), g = gcd(p, den)
        g = gcd(r.numerator, self.den)
        p = r.numerator // g
        return _new(self.den // g * r.denominator, {k * p: c for k, c in self.coeffs.items()},
                    tmul(self.trunc, r), self.cden)

    def substitute_q_neg(self) -> "QSeries":
        """q -> -q on an integer-exponent series."""
        if self.trunc != INF and Fraction(self.trunc).denominator != 1:
            raise FractionalExponent(f"trunc {self.trunc} is not an integer")
        den = self.den
        t = {}
        for k, (re, im) in self.coeffs.items():
            n, rest = divmod(k, den)
            if rest:
                raise FractionalExponent(f"exponent {Fraction(k, den)} is not an integer")
            t[n] = (-re, -im) if n % 2 else (re, im)
        return _new(1, t, self.trunc, self.cden)

    def truncate(self, order: Trunc) -> "QSeries":
        if self.is_exact_zero or order >= self.trunc:
            return self
        trunc = Fraction(order)
        bound = _bound(trunc, self.den)
        return _new(self.den, {k: c for k, c in self.coeffs.items() if k < bound}, trunc, self.cden)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "QSeries", upto: Rat):
        """None when equal below `upto`, else the minimal Mismatch."""
        upto = Fraction(upto)
        if self.trunc < upto or other.trunc < upto:
            raise InsufficientOrder(
                f"comparison to order {upto} needs truncs >= it "
                f"(have {self.trunc}, {other.trunc})"
            )
        cden = lcm(self.cden, other.cden)
        den, a, b = _rebase(self, other, cden=cden)
        bound = _bound(upto, den)
        diff = [k for k, c in a.items() if k < bound and b.get(k) != c]
        diff += [k for k in b if k < bound and k not in a]
        if not diff:
            return None
        k = min(diff)
        return Mismatch(Fraction(k, den), _gauss(a.get(k), cden), _gauss(b.get(k), cden))

    def __repr__(self):
        return f"QSeries({format_series(self, max_terms=8)})"


def _new(den: int, coeffs: dict, trunc: Trunc, cden: int = 1) -> QSeries:
    """A series around `coeffs` as given: nonzero (re, im) int tuples below trunc."""
    out = QSeries.__new__(QSeries)
    out.den = den
    out.coeffs = coeffs
    out.trunc = trunc
    out.cden = cden
    return out


def _scalar(c) -> tuple:
    """A scalar (int, Fraction or GaussianRational) as ints (re, im, d), d > 0,
    with c = (re + im*i)/d."""
    if c.__class__ is int:
        return c, 0, 1
    if not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    re, im = c.re, c.im
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _times(s: QSeries, cr: int, ci: int, d: int) -> QSeries:
    """`s` times the scalar (cr + ci*i)/d, d > 0."""
    if not (cr or ci):
        return QSeries.zero()
    g = gcd(cr, ci, d)
    cr, ci, d = cr // g, ci // g, d // g
    if ci == 0 and cr == d:
        return s
    return _new(s.den, {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in s.coeffs.items()},
                s.trunc, s.cden * d)


def _gauss(c, cden: int) -> GaussianRational:
    """The stored pair `c` (None for no term) over `cden` as a GaussianRational."""
    if c is None:
        return QI_ZERO
    return GaussianRational(c[0], c[1]) if cden == 1 else GaussianRational(Fraction(c[0], cden),
                                                                         Fraction(c[1], cden))


def _bound(trunc: Trunc, den: int):
    """The int bound of `trunc` on the lattice 1/den: k/den < trunc iff
    k < bound (INF stays INF)."""
    return INF if trunc == INF else -(-trunc.numerator * den // trunc.denominator)


def _rebase(*series: QSeries, cden: int = 0):
    """den, the lcm of the series' lattice denominators, and each series'
    coeffs with its keys moved onto the lattice 1/den and, for a cden that
    every series' cden divides (0: none), its pairs onto cden: equal series
    then have equal coeffs."""
    den = lcm(*(s.den for s in series))
    out = [den]
    for s in series:
        m, c = den // s.den, cden // s.cden
        if c > 1:
            out.append({k * m: (re * c, im * c) for k, (re, im) in s.coeffs.items()})
        else:
            out.append(s.coeffs if m == 1 else {k * m: v for k, v in s.coeffs.items()})
    return out


def _ascending(coeffs: dict) -> list:
    """coeffs as (k, re, im) triples in ascending k."""
    return [(k, re, im) for k, (re, im) in sorted(coeffs.items())]


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
