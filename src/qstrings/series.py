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
``den``, an int coefficient denominator ``cden``, two dicts ``real`` and
``imag`` from the int k to a nonzero int, so that the coefficient of
q^(k/den) is (real[k] + imag[k]*i)/cden, a missing key reading 0, and the
int truncation ``tk``: every stored k is below tk, and trunc = tk/den, or
tk = INF, which absorbs int shifts, positive int scalings and ``min`` by
itself.  Neither den nor cden need be minimal, and a trunc off the lattice
lifts den to the lcm of den and the trunc's denominator.  A real series
has an empty ``imag``, so its imaginary arithmetic drops out with no flag
and no second kernel.  An operation on two series moves both onto the lcm
of their dens, and addition and comparison also onto the lcm of their
cdens.  Multiplication is one real convolution per pair of nonzero parts.
Division is one kernel, ``divide``: a chain of divisors, one for ``/`` and
every denominator of ``theta_quotient``, each made real with its conjugate
when it is not and divided out in place on int lists that lie on the
dividend's sublattice, one list per part and residue class of its keys
modulo the divisors' step; its docstring gives the cost.  The constructors
of the other modules fill the two dicts for ``QSeries.lattice``.  Fractions
and GaussianRationals appear only at the boundary: the Fraction-keyed
constructor, scalar arguments, ``trunc``, ``__getitem__``, ``terms``
(views built on every read), ``items_sorted``, ``support``, ``ord`` and
``Mismatch``; the text and JSON forms are written from the stored ints.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, inf as INF, lcm, prod
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
    module docstring says: only keys k < tk are stored, and neither den,
    cden, tk nor the two dicts change after construction."""

    __slots__ = ("den", "real", "imag", "tk", "cden")

    def __init__(self, terms: Mapping[Rat, object], trunc: Trunc):
        known = {}
        for e, c in terms.items():
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c and e < trunc:
                known[Fraction(e)] = c
        den = lcm(*(e.denominator for e in known))
        m, self.tk = _lift(den, trunc)
        den = self.den = den * m
        cden = self.cden = lcm(*(p.denominator for c in known.values() for p in (c.re, c.im)))
        self.real = {e.numerator * (den // e.denominator): int(c.re * cden) for e, c in known.items() if c.re}
        self.imag = {e.numerator * (den // e.denominator): int(c.im * cden) for e, c in known.items() if c.im}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lattice(den: int, real: Mapping[int, int], imag: Mapping[int, int], trunc: Trunc,
                cden: int = 1) -> "QSeries":
        """The sum of ((real[k] + imag[k]*i)/cden) q^(k/den) below `trunc`
        for two int dicts and an int cden > 0; zeros are dropped, and den is
        lifted onto the lattice of an off-lattice trunc."""
        m, tk = _lift(den, trunc)
        return _new(den * m, *({k * m: c for k, c in d.items() if c and k * m < tk} for d in (real, imag)),
                    tk, cden)

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
    def trunc(self) -> Trunc:
        """The truncation tk/den as a Fraction, or INF."""
        return self.tk if self.tk.__class__ is float else Fraction(self.tk, self.den)

    @property
    def is_exact_zero(self) -> bool:
        return not (self.real or self.imag) and self.tk.__class__ is float

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
        cden = lcm(self.cden, other.cden)
        den, (ar, ai, ta), (br, bi, tb) = _rebase(self, other, cden=cden)
        tk = min(ta, tb)
        return _new(den, _combo(ar, 1, br, 1, tk), _combo(ai, 1, bi, 1, tk), tk, cden)

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
        den, (ar, ai, ta), (br, bi, tb) = _rebase(a, b)
        ar, ai, br, bi = (sorted(d.items()) for d in (ar, ai, br, bi))
        # each trunc plus the other side's least key, or its trunc when it
        # has no term; a stored key is below its trunc, so min picks the key
        tk = min(ta + min(br[0][0] if br else tb, bi[0][0] if bi else tb),
                 tb + min(ar[0][0] if ar else ta, ai[0][0] if ai else ta))
        # (ar + ai*i)(br + bi*i) = ar*br - ai*bi + (ar*bi + ai*br)*i
        real, imag = {}, {}
        _convolve(real, ar, br, tk, 1)
        _convolve(real, ai, bi, tk, -1)
        _convolve(imag, ar, bi, tk, 1)
        _convolve(imag, ai, br, tk, 1)
        return _new(den, *({k: c for k, c in d.items() if c} for d in (real, imag)), tk,
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
        return divide(self, (other,))

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
        return _new(den, real, imag, self.tk * m + d, self.cden)

    def substitute_power(self, r: Rat) -> "QSeries":
        """q -> q**r with r > 0: scales every exponent and the truncation."""
        if r <= 0:
            raise NonPositiveRatio(f"q -> q^{r} needs r > 0")
        # k/den * p/s = k*(p/g) / (den/g * s), g = gcd(p, den)
        g = gcd(r.numerator, self.den)
        p = r.numerator // g
        return _new(self.den // g * r.denominator,
                    *({k * p: c for k, c in d.items()} for d in (self.real, self.imag)),
                    self.tk * p, self.cden)

    def substitute_q_neg(self) -> "QSeries":
        """q -> -q on an integer-exponent series."""
        den, tk = self.den, self.tk
        exact = tk.__class__ is float
        if not exact and tk % den:
            raise FractionalExponent(f"trunc {self.trunc} is not an integer")
        for k in self.keys():
            if k % den:
                raise FractionalExponent(f"exponent {Fraction(k, den)} is not an integer")
        return _new(1, *({k // den: -c if k // den & 1 else c for k, c in d.items()} for d in (self.real, self.imag)),
                    tk if exact else tk // den, self.cden)

    def truncate(self, order: Trunc) -> "QSeries":
        """`self` below `order`, on the lattice of an off-lattice order."""
        m, tk = _lift(self.den, order)
        if self.is_exact_zero or tk >= self.tk * m:
            return self
        return _new(self.den * m, *({k * m: c for k, c in d.items() if k * m < tk} for d in (self.real, self.imag)),
                    tk, self.cden)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "QSeries", upto: Rat):
        """None when equal below `upto`, else the minimal Mismatch."""
        n, d = upto.numerator, upto.denominator
        if self.tk * d < n * self.den or other.tk * d < n * other.den:
            raise InsufficientOrder(
                f"comparison to order {upto} needs truncs >= it "
                f"(have {self.trunc}, {other.trunc})"
            )
        cden = lcm(self.cden, other.cden)
        den, (*a, _), (*b, _) = _rebase(self, other, cden=cden)
        bound = lattice_bound(upto, den)
        # a key differs where a part of one side is missing or other on the other
        diff = [k for x, y in zip(a, b) for k, _ in x.items() ^ y.items() if k < bound]
        if not diff:
            return None
        k = min(diff)
        return Mismatch(Fraction(k, den), *(_gauss(re.get(k, 0), im.get(k, 0), cden) for re, im in (a, b)))

    def __repr__(self):
        return f"QSeries({format_series(self, max_terms=8)})"


def _new(den: int, real: dict, imag: dict, tk, cden: int = 1) -> QSeries:
    """A series around the two dicts as given: nonzero ints below the int
    trunc tk on 1/den, or INF."""
    out = QSeries.__new__(QSeries)
    out.den = den
    out.real = real
    out.imag = imag
    out.tk = tk
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
    return _new(s.den, _combo(s.real, cr, s.imag, -ci), _combo(s.real, ci, s.imag, cr), s.tk,
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


def divide(a: QSeries, divisors, shift: Monomial = Monomial.one(), scalar=1) -> QSeries:
    """scalar * shift * a / (f_1 * ... * f_n): the chain of the n divisions
    a/f_1/.../f_n, each under the truncation contract of ``/``, on one int
    buffer, with the monomial `shift` and the scalar folded into the one
    series it builds.

    A non-real divisor f is first made real with its conjugate, as
    a/f = a*conj(f) / (f*conj(f)); the products keep the trunc of every
    step, and each step raises where its division alone would.  Every
    exponent and trunc is then an int on the lattice 1/L, L the lcm of the
    dens and of the shift's denominator.  Step i, by f_i of least exponent
    v, takes the dividend's trunc t and least exponent o (its trunc when no
    term is known) to min(t - v, o + f_i.trunc - 2v) and o - v.  A
    coefficient of a quotient depends on no coefficient of its dividend
    above it, so every step is run only below the last step's trunc: in the
    dividend's exponents, below B = that trunc plus the sum of the v.  Each
    divisor is taken over its content g (the gcd of its numerators) and
    times the sign of its leading numerator u, so that it leads with
    N = |u|, and both go into the result's scalar.

    The buffer lies on the dividend's sublattice.  With h the gcd of every
    divisor's offsets from its leading term, each quotient keeps its terms
    in the residue classes mod h of the dividend's keys, and each part (real
    and imaginary) of each class is one int list whose slot j holds the key
    s + h*j, s the least key of the list, for every such key below B.  A
    step walks each list once, slot by slot: the slot's value over N is
    final, and it times each term of the divisor's tail is taken off the
    later slots.  When a value is not divisible by N, the whole list is
    multiplied by N, and the lists end over a common power of N (the rescale
    of Knuth, TAOCP vol. 2 §4.6.1, taken only where it is needed).  With no
    tail at all (h = 0: monomial divisors, or none) the quotient is the
    dividend scaled, shifted and cut, and no list is built.

    Cost: a step walks sum over lists of ceil((B - s)/h) slots, at most
    2 * min(h, number of dividend terms) * (ceil(span/h) + 1) for the span of
    the dividend's exponents up to B, with one multiply-add per tail term
    and nonzero slot, plus one pass over the list per rescale.  So
    1 + q over 1 - q^15015 below q^600600 walks two lists of 40 slots.
    Divisors whose offsets have a small gcd give one long list, which the
    quotient, eventually dense on that step, fills anyway.
    """
    chain = []  # the divisors, each real
    exact = a.tk.__class__ is float  # the step's dividend is: a zero or an exact f keeps it
    for f in divisors:
        if not (f.real or f.imag):
            raise ZeroLeadingTerm("division by a series with no term below its truncation")
        if exact and f.tk.__class__ is float and len(f.keys()) > 1:
            # an exact series over an exact non-monomial has infinitely many terms
            raise SeriesError("truncate before dividing by an exact non-monomial series")
        exact = exact and (f.tk.__class__ is float or not (a.real or a.imag))
        if f.imag:
            fc = _new(f.den, f.real, _combo(f.imag, -1, {}, 0), f.tk, f.cden)
            a, f = a * fc, f * fc
        chain.append(f)
    L = lcm(a.den, *(f.den for f in chain), shift.qexp.denominator)
    ma = L // a.den
    T = a.tk * ma
    # the dividend's least exponent, which only a step reads: with no divisor
    # the walk over its keys is skipped
    o = min(a.keys()) * ma if chain and (a.real or a.imag) else T
    V, h, M, G = 0, 0, 1, 1  # the shift, the step, the scalar M/G
    steps = []
    for f in chain:
        mf = L // f.den
        keys = sorted(f.real)
        # f = g*P/f.cden for the int numerators of P, so a/f = (m * a/P) / gq
        # with m/gq = f.cden/g in lowest terms; w*P, w the sign of P's lead,
        # leads with N > 0
        kv, g = keys[0], gcd(*f.real.values())
        c, w = gcd(f.cden, g), 1 if f.real[kv] > 0 else -1
        M, G = w * M * (f.cden // c), G * (g // c)
        tail = [((k - kv) * mf, w * f.real[k] // g) for k in keys[1:]]
        h = gcd(h, *(d for d, _ in tail))
        v = kv * mf
        T, o, V = min(T - v, o + f.tk * mf - 2 * v), o - v, V + v
        steps.append((w * f.real[kv] // g, tail))
    sr, si, sd = _scalar(scalar)
    if not (sr or si):
        return QSeries.zero()
    # the result's scalar: the scalar, the shift's unit i^k and M, over G*sd
    ur, ui = UNIT_PAIRS[shift.unit_k]
    cr, ci = M * (sr * ur - si * ui), M * (sr * ui + si * ur)
    B = T + V
    # the dividend's key x on 1/L is the result's key x + e, below B + e
    e = on_lattice(shift.qexp, L) - V
    if not h:  # scale, shift and cut the dividend, kept as it is where nothing moves
        if ma != 1 or e or B != a.tk:
            a = _new(L, *({k * ma + e: c for k, c in d.items() if k * ma < B} for d in (a.real, a.imag)), B + e,
                     a.cden)
        return _times(a, cr, ci, G * prod(N for N, _ in steps) * sd)
    plan = [(N, [(d // h, p) for d, p in tail]) for N, tail in steps]
    walked = []
    for i, part in enumerate((a.real, a.imag)):
        # the list of class r mod h is (s, b): slot j of b holds the key
        # s + h*j, s its least key
        lists = {}
        for k in sorted(part):
            x = k * ma
            if x >= B:
                break
            r = x % h
            if r not in lists:
                lists[r] = x, [0] * -((x - B) // h)
            s, b = lists[r]
            b[(x - s) // h] = part[k]
        for s, b in lists.values():
            scale = 1  # b holds the quotient times scale
            for N, tail in plan:
                scale *= _walk(b, N, tail)
            walked.append((i, s, b, scale))
    P = lcm(*(scale for *_, scale in walked))
    fold = 1 if ci else cr  # a real scalar is applied as the lists are read
    parts = {}, {}
    for i, s, b, scale in walked:
        m = fold * P // scale
        parts[i].update({k: m * x for k, x in zip(range(s + e, s + e + h * len(b), h), b) if x})
    return _times(_new(L, *parts, B + e, a.cden * G * P * sd), cr // fold, ci, 1)


def _walk(b: list, N: int, tail: list) -> int:
    """Divide the int list b in place by N + sum of P_d x^d over the (d, P_d)
    of `tail`, ascending d > 0, N > 0, below x^len(b); the quotient is b/p
    for the returned p, a power of N."""
    n, p = len(b), 1
    for j in range(n):
        c = b[j]
        if not c:
            continue
        if N != 1:
            if c % N:  # over N once more, the slot's value is c itself
                p *= N
                b[:] = [x * N for x in b]
            else:
                c //= N
            b[j] = c
        for d, fd in tail:
            i = j + d
            if i >= n:
                break
            b[i] -= fd * c
    return p


def _gauss(re: int, im: int, cden: int) -> GaussianRational:
    """The numerators re and im over `cden` as a GaussianRational."""
    return GaussianRational(Fraction(re, cden), Fraction(im, cden)) if re or im else QI_ZERO


def lattice_bound(r: Rat, den: int) -> int:
    """The int bound of `r` on the lattice 1/den: k/den < r iff k < bound."""
    return -(-r.numerator * den // r.denominator)


def _lift(den: int, trunc: Trunc) -> tuple:
    """(m, tk): den*m is the least multiple of den whose lattice holds
    `trunc` (an int, a Fraction or INF), and tk = trunc*den*m (INF stays INF)."""
    if trunc.__class__ is float and trunc == INF:
        return 1, INF
    m = trunc.denominator // gcd(den, trunc.denominator)
    return m, on_lattice(trunc, den * m)


def on_lattice(r: Rat, den: int) -> int:
    """r*den as an int, for an int or Fraction r whose denominator divides den."""
    return r.numerator * (den // r.denominator)


def _rebase(*series: QSeries, cden: int = 0):
    """den, the lcm of the series' dens, and each series' (real, imag, tk)
    with its keys and tk moved onto the lattice 1/den and, for a cden that
    every cden divides (0: none), its numerators onto cden: equal series
    then have equal parts."""
    den = lcm(*(s.den for s in series))
    out = [den]
    for s in series:
        m, c = den // s.den, cden // s.cden or 1
        out.append((s.real, s.imag, s.tk) if m == c == 1 else
                   (*({k * m: x * c for k, x in d.items()} for d in (s.real, s.imag)), s.tk * m))
    return out


def require_order(s: QSeries, order: Rat, what: str) -> QSeries:
    """`s` truncated at `order`, which `s` must be exact up to.

    Raises PrecisionShortfall otherwise; unlike an assert, the check stays
    on under ``python -O``.
    """
    if s.tk * order.denominator < order.numerator * s.den:
        raise PrecisionShortfall(f"{what} precision shortfall: {s.trunc} < {order}")
    return s.truncate(order)


# --------------------------------------------------------------------------
# rendering


def _fraction_text(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as ``str(Fraction(n, d))`` spells it."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _coeff_text(re: int, im: int, d: int) -> str:
    """The coefficient (re + im*i)/d, d > 0."""
    if not im:
        return _fraction_text(re, d)
    if not re:
        if abs(im) == d:
            return "i" if im > 0 else "-i"
        t = _fraction_text(im, d)
        return f"{t}i" if "/" not in t else f"({t})i"
    m = _fraction_text(abs(im), d)
    ims = "i" if abs(im) == d else (f"{m}i" if "/" not in m else f"({m})i")
    # a non-integral imaginary part is bracketed, (1+(1/2)i): 1+1/2i would
    # read as 1 + 1/(2i)
    return f"({_fraction_text(re, d)}{'-' if im < 0 else '+'}{ims})"


def format_coeff(c: GaussianRational) -> str:
    return _coeff_text(*_scalar(c))


def _term_text(re: int, im: int, d: int, k: int, den: int) -> str:
    """The term ((re + im*i)/d) q^(k/den)."""
    if not k:
        return _coeff_text(re, im, d)
    e = _fraction_text(k, den)
    qp = "q" if e == "1" else (f"q^{e}" if k > 0 and "/" not in e else f"q^({e})")
    if not im and abs(re) == d:
        return qp if re > 0 else f"-{qp}"
    cs = _coeff_text(re, im, d)
    if "/" in cs and not cs.startswith("("):
        cs = f"({cs})"
    return f"{cs}{qp}"


def format_series(s: QSeries, max_terms: int | None = None) -> str:
    """The text form, written from the stored ints, as ``series_to_json`` is."""
    den, cden, real, imag = s.den, s.cden, s.real, s.imag
    keys = sorted(s.keys())
    shown = keys if max_terms is None else keys[:max_terms]
    parts = []
    for k in shown:
        t = _term_text(real.get(k, 0), imag.get(k, 0), cden, k, den)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(f"- {t[1:]}")
        else:
            parts.append(f"+ {t}")
    if len(shown) < len(keys):
        parts.append("+ ...")
    if not parts:
        parts.append("0")
    if s.tk.__class__ is not float:
        t = _fraction_text(s.tk, den)
        # spelled as a term's exponent is: q^(-2), not q^-2
        parts.append(f"+ O(q^{t})" if s.tk >= 0 and "/" not in t else f"+ O(q^({t}))")
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
