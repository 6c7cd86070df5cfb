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
numerators over one common denominator: an int exponent denominator
``den``, an int coefficient denominator ``cden`` and two dicts ``real`` and
``imag`` from the int k to a nonzero int, so that the coefficient of
q^(k/den) is (real[k] + imag[k]*i)/cden, a missing key reading 0.  Neither
den nor cden need be minimal.  A real series has an empty ``imag``, so its
imaginary arithmetic drops out with no flag and no second kernel.  An
operation on two series moves both onto the lcm of their dens and compares
exponents with trunc through the int bound ceil(trunc*den); addition and
comparison also move both onto the lcm of their cdens.  Every operation
works part by part: multiplication is one real convolution per pair of
nonzero parts, division one real long division per part of the dividend,
by a divisor made real with its conjugate and freed of its content (the
gcd of its numerators, Knuth, TAOCP vol. 2 §4.6.1).  The constructors of
the other modules fill the two dicts for ``QSeries.lattice``.  Fractions
and GaussianRationals appear only at the boundary: the Fraction-keyed
constructor, scalar arguments, ``__getitem__``, ``terms`` (a view built on
every read), ``items_sorted``, ``support``, ``ord``, ``Mismatch`` and the
text form.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf as INF, lcm
from typing import Mapping, NamedTuple, Union

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
# Enumeration cutoffs are derived exactly, in int arithmetic on a lattice
# 1/D, and every window is exactly what its result needs: there is no
# default slack.
# `margin_scale(k)` is an audit: it widens every window by k steps of the
# window's modulus, so a test can compare slack 0 against a positive slack
# and assert that no coefficient below the requested order moves.
# The scale is a context variable: each thread (and each context a runner
# copies for a worker) sees its own value.

_margin_scale: ContextVar[int] = ContextVar("margin_scale", default=0)


@contextmanager
def margin_scale(k: int):
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"margin_scale needs an int k >= 0, got {k!r}")
    token = _margin_scale.set(k)
    try:
        yield
    finally:
        _margin_scale.reset(token)


def pad(step: Rat) -> Rat:
    """Audit slack of a window whose modulus is `step`: k*step inside
    margin_scale(k), 0 outside any.  An int step, the modulus on a
    lattice, gives an int."""
    return _margin_scale.get() * step


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
QI_MINUS_ONE = _I_POWERS[2]
UNIT_PAIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im)


class FrozenRecord:
    """An immutable record whose fields are its ``__slots__``, each set once
    in ``__init__`` through ``object.__setattr__``: equal to a record of the
    same class with equal fields, hashed as the tuple of its fields, and
    shown and copied by them, as a frozen dataclass is, with no generated
    code to compile at import."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Monomial(FrozenRecord):
    """unit * q**qexp where unit = i**unit_k, unit_k in {0,1,2,3}.

    The only substitution form the constructors ever take for their x, y, z
    arguments: a fourth root of unity times an exact rational power of q.
    """

    __slots__ = ("unit_k", "qexp")

    def __init__(self, unit_k: int, qexp: Rat):
        object.__setattr__(self, "unit_k", unit_k % 4)
        object.__setattr__(self, "qexp", qexp if qexp.__class__ is Fraction else Fraction(qexp))

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
        re, im = UNIT_PAIRS[self.unit_k]
        return QSeries.lattice(self.qexp.denominator, {self.qexp.numerator: re}, {self.qexp.numerator: im}, INF)

    def __str__(self):
        u = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.unit_k]
        if self.qexp == 0:
            return {0: "1", 1: "i", 2: "-1", 3: "-i"}[self.unit_k]
        if self.qexp == 1:
            return f"{u}q"
        return f"{u}q^({self.qexp})"


class Mismatch(NamedTuple):
    """First differing coefficient from a series comparison."""

    exponent: Fraction
    left: GaussianRational
    right: GaussianRational


class QSeries:
    """Sparse exact q-series on the exponent lattice 1/den, stored as the
    module docstring says: only keys with k/den < trunc are stored, and
    neither den, cden nor the two dicts change after construction."""

    __slots__ = ("den", "real", "imag", "trunc", "cden")

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
        self.real = {e.numerator * (den // e.denominator): int(c.re * cden) for e, c in known.items() if c.re}
        self.imag = {e.numerator * (den // e.denominator): int(c.im * cden) for e, c in known.items() if c.im}
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lattice(den: int, real: Mapping[int, int], imag: Mapping[int, int], trunc: Trunc,
                cden: int = 1) -> "QSeries":
        """The sum of ((real[k] + imag[k]*i)/cden) q^(k/den) below `trunc`
        for two int dicts and an int cden > 0; zeros are dropped."""
        if trunc.__class__ is not Fraction and trunc != INF:
            trunc = Fraction(trunc)
        bound = lattice_bound(trunc, den)
        return _new(den, *({k: c for k, c in d.items() if c and k < bound} for d in (real, imag)),
                    trunc, cden)

    @staticmethod
    def zero() -> "QSeries":
        return _new(1, {}, {}, INF)

    @staticmethod
    def const(c, trunc: Trunc = INF) -> "QSeries":
        re, im, d = _scalar(c)
        return QSeries.lattice(1, {0: re}, {0: im}, trunc, d)

    @staticmethod
    def one(trunc: Trunc = INF) -> "QSeries":
        return QSeries.const(1, trunc)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return not (self.real or self.imag) and self.trunc == INF

    def keys(self):
        """The int k of every stored term q^(k/den), as a set-like view."""
        real, imag = self.real, self.imag
        return real.keys() | imag.keys() if real and imag else (real or imag).keys()

    @property
    def ord(self):
        """Least stored exponent, or None when no term is known."""
        return Fraction(min(self.keys()), self.den) if self.real or self.imag else None

    def ord_bound(self) -> Trunc:
        """A lower bound for the exponent of any term, known or not."""
        return self.ord if self.real or self.imag else self.trunc

    def __getitem__(self, e: Rat) -> GaussianRational:
        e = Fraction(e)
        if e >= self.trunc:
            raise InsufficientOrder(f"coefficient at q^{e} is beyond trunc {self.trunc}")
        k = e * self.den
        if k.denominator != 1:
            return QI_ZERO
        return _gauss(self.real.get(k.numerator, 0), self.imag.get(k.numerator, 0), self.cden)

    @property
    def terms(self) -> dict:
        """The stored terms as a new {Fraction exponent: GaussianRational} dict,
        built on every read; changing it leaves the series as it was."""
        return dict(self.items_sorted())

    def items_sorted(self):
        den, cden, real, imag = self.den, self.cden, self.real, self.imag
        return [(Fraction(k, den), _gauss(real.get(k, 0), imag.get(k, 0), cden)) for k in sorted(self.keys())]

    def support(self):
        return [Fraction(k, self.den) for k in sorted(self.keys())]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        trunc = min(self.trunc, other.trunc)
        cden = lcm(self.cden, other.cden)
        den, (ar, ai), (br, bi) = _rebase(self, other, cden=cden)
        bound = lattice_bound(trunc, den)
        return _new(den, _combo(ar, 1, br, 1, bound), _combo(ai, 1, bi, 1, bound), trunc, cden)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _times(self, -1, 0, 1)

    def scale(self, c) -> "QSeries":
        return _times(self, *_scalar(c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return QSeries.zero()
        trunc = min(tadd(a.trunc, b.ord_bound()), tadd(b.trunc, a.ord_bound()))
        den, (ar, ai), (br, bi) = _rebase(a, b)
        bound = lattice_bound(trunc, den)
        ar, ai, br, bi = (sorted(d.items()) for d in (ar, ai, br, bi))
        # (ar + ai*i)(br + bi*i) = ar*br - ai*bi + (ar*bi + ai*br)*i
        real, imag = {}, {}
        _convolve(real, ar, br, bound, 1)
        _convolve(real, ai, bi, bound, -1)
        _convolve(imag, ar, bi, bound, 1)
        _convolve(imag, ai, br, bound, 1)
        return _new(den, *({k: c for k, c in d.items() if c} for d in (real, imag)), trunc,
                    a.cden * b.cden)

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
        if len(f.keys()) > 1 and a.trunc == INF and f.trunc == INF:
            # an exact series over an exact non-monomial has infinitely many terms
            raise SeriesError("truncate before dividing by an exact non-monomial series")
        if f.imag:  # a/f = a*conj(f) / (f*conj(f)), f*conj(f) = fr^2 + fi^2 real; same trunc
            fc = _new(f.den, f.real, _combo(f.imag, -1, {}, 0), f.trunc, f.cden)
            return (a * fc) / (f * fc)
        # trunc contract: min(a.trunc - v, ord(a) + f.trunc - 2v)
        trunc = min(tadd(a.trunc, -v), tadd(tadd(f.trunc, -2 * v), a.ord_bound()))
        den, ca, (cf, _) = _rebase(a, f)
        bound = lattice_bound(trunc, den)
        # a = A/a.cden and f = g*P/f.cden for int numerators A and a real P,
        # g the content of f's numerators, so a/f = (m*A/P) / (a.cden*gq)
        # with m/gq = f.cden/g in lowest terms
        g = gcd(*cf.values())
        c = gcd(f.cden, g)
        m, gq = f.cden // c, g // c
        lf = sorted(cf.items())
        kv, u = lf[0][0], lf[0][1] // g
        tail = [(k - kv, fk // g) for k, fk in lf[1:]]
        # each part of m*A by P, over N^p for N = |P_0|, then both over the larger N^p
        parts = [_long_divide({k - kv: x * m for k, x in d.items() if k - kv < bound}, tail, u, bound)
                 for d in ca]
        N, p = abs(u), max(p for _, p in parts)
        real, imag = (q if p == pq else {k: x * N ** (p - pq) for k, x in q.items()} for q, pq in parts)
        return _new(den, real, imag, trunc, a.cden * gq * N ** p)

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
        real, imag = ({k * m + d: c for k, c in part.items()} for part in (self.real, self.imag))
        if mn.unit_k & 1:  # times i swaps the parts: i*(x + y*i) = -y + x*i
            real, imag = _combo(imag, -1, {}, 0), real
        if mn.unit_k & 2:  # times -1
            real, imag = _combo(real, -1, {}, 0), _combo(imag, -1, {}, 0)
        return _new(den, real, imag, tadd(self.trunc, e), self.cden)

    def substitute_power(self, r: Rat) -> "QSeries":
        """q -> q**r with r > 0: scales every exponent and the truncation."""
        r = Fraction(r)
        if r <= 0:
            raise NonPositiveRatio(f"q -> q^{r} needs r > 0")
        # k/den * p/s = k*(p/g) / (den/g * s), g = gcd(p, den)
        g = gcd(r.numerator, self.den)
        p = r.numerator // g
        return _new(self.den // g * r.denominator,
                    *({k * p: c for k, c in d.items()} for d in (self.real, self.imag)),
                    tmul(self.trunc, r), self.cden)

    def substitute_q_neg(self) -> "QSeries":
        """q -> -q on an integer-exponent series."""
        if self.trunc != INF and Fraction(self.trunc).denominator != 1:
            raise FractionalExponent(f"trunc {self.trunc} is not an integer")
        den = self.den
        for k in self.keys():
            if k % den:
                raise FractionalExponent(f"exponent {Fraction(k, den)} is not an integer")
        return _new(1, *({k // den: -c if k // den & 1 else c for k, c in d.items()} for d in (self.real, self.imag)),
                    self.trunc, self.cden)

    def truncate(self, order: Trunc) -> "QSeries":
        if self.is_exact_zero or order >= self.trunc:
            return self
        trunc = Fraction(order)
        bound = lattice_bound(trunc, self.den)
        return _new(self.den, *({k: c for k, c in d.items() if k < bound} for d in (self.real, self.imag)),
                    trunc, self.cden)

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
        bound = lattice_bound(upto, den)
        # a key differs where a part of one side is missing or other on the other
        diff = [k for x, y in zip(a, b) for k, _ in x.items() ^ y.items() if k < bound]
        if not diff:
            return None
        k = min(diff)
        return Mismatch(Fraction(k, den), *(_gauss(re.get(k, 0), im.get(k, 0), cden) for re, im in (a, b)))

    def __repr__(self):
        return f"QSeries({format_series(self, max_terms=8)})"


def _new(den: int, real: dict, imag: dict, trunc: Trunc, cden: int = 1) -> QSeries:
    """A series around the two dicts as given: nonzero ints below trunc."""
    out = QSeries.__new__(QSeries)
    out.den = den
    out.real = real
    out.imag = imag
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
    return _new(s.den, _combo(s.real, cr, s.imag, -ci), _combo(s.real, ci, s.imag, cr), s.trunc,
                s.cden * d)


def _combo(x: dict, a: int, y: dict, b: int, bound=INF) -> dict:
    """a*x + b*y below the int bound for int dicts x and y and ints a and b,
    without zeros."""
    t = {k: a * c for k, c in x.items() if k < bound} if a else {}
    if b:
        for k, c in y.items():
            if k < bound:
                s = t.get(k, 0) + b * c
                if s:
                    t[k] = s
                else:
                    del t[k]
    return t


def _convolve(acc: dict, la: list, lb: list, bound, sign: int) -> None:
    """Add sign*a*b below the int bound into `acc`, for a and b given as
    (k, int) lists in ascending k."""
    if not (la and lb):
        return
    kb_min = lb[0][0]
    for ka, ca in la:
        if ka + kb_min >= bound:
            break
        ca *= sign
        for kb, cb in lb:
            k = ka + kb
            if k >= bound:
                break
            acc[k] = acc.get(k, 0) + ca * cb


def _long_divide(pending: dict, tail: list, u: int, bound) -> tuple:
    """`pending` over the int series u + sum of P_d q^d, (d, P_d) in `tail`
    with ascending d > 0, below the int bound: Q_e = (pending_e - sum over
    d of P_d Q_(e-d)) / u, as (numerators, p), all over N^p, N = |u|.
    Whenever a numerator is not divisible by N, p rises by one and every
    numerator, pending or final, is multiplied by N."""
    N = abs(u)
    heap = list(pending)
    heapify(heap)
    acc: dict = {}
    p = 0
    while heap:
        # pending[k] is final once popped, since every contribution comes
        # from a smaller exponent
        k = heappop(heap)
        c = pending.pop(k)
        if not c:
            continue
        if c % N:
            p += 1
            for j in pending:
                pending[j] *= N
            for j in acc:
                acc[j] *= N
        else:
            c //= N
        c = c if u > 0 else -c
        acc[k] = c
        for d, fd in tail:
            k2 = k + d
            if k2 >= bound:
                break
            if k2 in pending:
                pending[k2] -= fd * c
            else:
                pending[k2] = -fd * c
                heappush(heap, k2)
    return acc, p


def _gauss(re: int, im: int, cden: int) -> GaussianRational:
    """The numerators re and im over `cden` as a GaussianRational."""
    return GaussianRational(Fraction(re, cden), Fraction(im, cden)) if re or im else QI_ZERO


def lattice_bound(trunc: Trunc, den: int):
    """The int bound of `trunc` on the lattice 1/den: k/den < trunc iff
    k < bound (INF stays INF)."""
    return INF if trunc == INF else -(-trunc.numerator * den // trunc.denominator)


def on_lattice(r: Rat, den: int) -> int:
    """r*den as an int, for an int or Fraction r whose denominator divides den."""
    return r.numerator * (den // r.denominator)


def _rebase(*series: QSeries, cden: int = 0):
    """den, the lcm of the series' dens, and each series' (real, imag) with
    its keys moved onto the lattice 1/den and, for a cden that every cden
    divides (0: none), its numerators onto cden: equal series then have
    equal parts."""
    den = lcm(*(s.den for s in series))
    out = [den]
    for s in series:
        m, c = den // s.den, cden // s.cden or 1
        out.append((s.real, s.imag) if m == c == 1 else
                   tuple({k * m: x * c for k, x in d.items()} for d in (s.real, s.imag)))
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
    # a non-integral imaginary part is bracketed, (1+(1/2)i): 1+1/2i would
    # read as 1 + 1/(2i)
    m = abs(c.im)
    ims = "i" if m == 1 else (f"{m}i" if m.denominator == 1 else f"({m})i")
    return f"({c.re}{'-' if c.im < 0 else '+'}{ims})"


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
    if c == QI_MINUS_ONE:
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
        # spelled as a term's exponent is: q^(-2), not q^-2
        ts = f"q^{tr}" if tr.denominator == 1 and tr >= 0 else f"q^({tr})"
        parts.append(f"+ O({ts})")
    return " ".join(parts)


_JSON_TERM = '{"num": %d, "den_exp": %d, "re_num": %d, "re_den": %d, "im_num": %d, "im_den": %d}'


def series_to_json(s: QSeries) -> str:
    """The wire form, a JSON list with one record per term in ascending
    exponent, each exponent and each part reduced with gcd on the stored ints;
    the bytes are those of ``json.dumps`` on the same records."""
    den, cden, real, imag = s.den, s.cden, s.real, s.imag
    out = []
    for k in sorted(s.keys()):
        re, im = real.get(k, 0), imag.get(k, 0)
        g, gr, gi = gcd(k, den), gcd(re, cden), gcd(im, cden)
        out.append(_JSON_TERM % (k // g, den // g, re // gr, cden // gr, im // gi, cden // gi))
    return f"[{', '.join(out)}]"
