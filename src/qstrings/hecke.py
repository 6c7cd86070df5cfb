"""Hecke-type double sums f_{a,b,c} and their theta/Appell-Lerch forms.

``hecke_f`` evaluates the double sum by direct enumeration over the two
same-sign quadrants.  On each quadrant the cross term b*r*s is nonnegative,
so E(r,s) >= P(r) + S(s) with separable parabolas
P(r) = base*a*C(r,2) + r*x.qexp and S(s) = base*c*C(s,2) + s*y.qexp.
Only the r with P(r) + min S below the window can contribute, and for each
such r the s with E(r,s) below it are exactly the lattice points under a
parabola in s; ``theta.int_parabola`` gives both ranges in closed form,
each cut to its quadrant, so every contributing pair is enumerated exactly
and no other.

The enumeration runs on plain ints: with D the lcm of the denominators of
base, x.qexp and y.qexp, every exponent is the int E(r,s)*D and the window
e < order becomes E*D < ceil(order*D); both ranges are exact, so the
window needs no slack (``margin_scale`` widens it only for an audit).  Each
term is a unit i^u: +-1 is summed into a dict of real int numerators and
+-i into one of imaginary numerators, keyed by the int exponent, and those
two dicts are the stored series on the lattice 1/D over the coefficient
denominator 1 (``QSeries.lattice``); the half-integral
coefficients of the closed forms enter through ``appell_m`` and the
division by j(-1; q^m).

The remaining builders construct the closed right-hand sides that express
f_{a,b,c} through Appell-Lerch sums plus quotients of theta functions.
Everything is stated at modulus q in the classical references; here all
exponents scale uniformly by `base` so calls at modulus q^2 need no lattice
gymnastics.  Their windows are planned in ints too: ``_theta_times`` puts
the theta factor, its valuation and its window on one lattice, as
``appell_m`` and ``theta.quotient_plan`` do.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .series import Monomial, QSeries, Rat, lattice_bound, on_lattice, pad, require_order
from .appell import appell_m
from .theta import (
    comb2,
    int_is_zero,
    int_jtheta,
    int_parabola,
    int_valuation,
    jtheta,
    theta_quotient,
)

F = Fraction
MINUS_ONE = Monomial(2, F(0))


def _on_arm(rng: range, up: bool) -> range:
    """The part of `rng` at or above 0 (up) or below 0."""
    return range(max(rng.start, 0), rng.stop) if up else range(rng.start, min(rng.stop, 0))


def hecke_f(a: int, b: int, c: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """f_{a,b,c}(x, y, q^base) by quadrant enumeration, exact below order."""
    if min(a, c) < 1 or b < 1:
        raise ValueError("a, b, c must be positive integers")
    if base <= 0:
        raise ValueError("base must be positive")
    # every exponent in units of 1/D: E(r,s)*D =
    # Ba*C(r,2) + Bb*r*s + Bc*C(s,2) + r*X + s*Y, all ints
    D = lcm(base.denominator, x.qexp.denominator, y.qexp.denominator)
    B, X, Y = on_lattice(base, D), on_lattice(x.qexp, D), on_lattice(y.qexp, D)
    Ba, Bb, Bc = B * a, B * b, B * c
    W = lattice_bound(order, D) + pad(B)  # e < order + pad(base) iff e*D < W
    # the unit of the (r, s) term is i^k, k = (2 + x.unit_k)*r + (2 + y.unit_k)*s
    kx, ky = 2 + x.unit_k, 2 + y.unit_k
    real, imag = {}, {}
    # the s-parabola Bc*C(s,2) + s*Y is least on an arm at the integers either
    # side of its vertex (Bc - 2Y) / 2Bc, moved onto the arm
    n0, n1 = (Bc - 2 * Y) // (2 * Bc), -((2 * Y - Bc) // (2 * Bc))
    for up in (True, False):
        if up:
            k0, arm = 0, {max(0, n0), max(0, n1)}
        else:  # the negative quadrant enters with a minus sign
            k0, arm = 2, {min(-1, n0), min(-1, n1)}
        smin = min(Bc * comb2(n) + n * Y for n in arm)
        # r can contribute only if P(r) + smin < W
        for r in _on_arm(int_parabola(Ba, X, W - smin), up):
            pr = Ba * comb2(r) + r * X
            lin = Bb * r + Y
            kr = kx * r + k0
            # E(r, s) < W exactly for these s
            for s in _on_arm(int_parabola(Bc, lin, W - pr), up):
                e = pr + s * lin + Bc * (s * (s - 1) // 2)
                u = (kr + ky * s) & 3  # i^u: +-1 is real, +-i imaginary
                part = imag if u & 1 else real
                part[e] = part.get(e, 0) + 1 - (u & 2)

    return QSeries.lattice(D, real, imag, order)


def hecke_shift_rhs(a: int, b: int, c: int, x: Monomial, y: Monomial, base: Rat,
                    R: int, S: int, order: Rat) -> QSeries:
    """The index-shift expansion of f_{a,b,c}: shifted double sum plus the
    two finite theta correction sums.  Requires R, S >= 0."""
    if R < 0 or S < 0:
        raise ValueError("R and S must be nonnegative")
    base = F(base)
    order = F(order)
    pref = ((-x) ** R) * ((-y) ** S) * Monomial(0, base * (a * comb2(R) + b * R * S + c * comb2(S)))
    xs = Monomial(0, base * (a * R + b * S)) * x
    ys = Monomial(0, base * (b * R + c * S)) * y
    acc = hecke_f(a, b, c, xs, ys, base, order - pref.qexp).shift(pref)
    for m in range(R):
        mono = ((-x) ** m) * Monomial(0, base * a * comb2(m))
        arg = Monomial(0, base * m * b) * y
        acc = acc + jtheta(arg, base * c, order - mono.qexp).shift(mono)
    for m in range(S):
        mono = ((-y) ** m) * Monomial(0, base * c * comb2(m))
        arg = Monomial(0, base * m * b) * x
        acc = acc + jtheta(arg, base * a, order - mono.qexp).shift(mono)
    return acc.truncate(order)


def hecke_flip_rhs(a: int, b: int, c: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """f_{a,b,c} rewritten through the argument inversion
    -q^(a+b+c)/(xy) * f_{a,b,c}(q^(2a+b)/x, q^(2c+b)/y, q)."""
    base = F(base)
    order = F(order)
    pref = Monomial(2 - x.unit_k - y.unit_k, base * (a + b + c) - x.qexp - y.qexp)
    xs = Monomial(0, base * (2 * a + b)) * x.inverse()
    ys = Monomial(0, base * (2 * c + b)) * y.inverse()
    return hecke_f(a, b, c, xs, ys, base, order - pref.qexp).shift(pref).truncate(order)


# -- Appell-Lerch building blocks ---------------------------------------------


def _theta_times(tx: Monomial, tbase: Fraction, other, order: Fraction) -> QSeries:
    """j(tx; q^tbase) * other(T), where other(T) builds the second factor
    exact below T; the second factor is skipped entirely when the theta
    factor vanishes (its zero is exact).  The windows are ints on the
    lattice 1/D of the theta factor and the order."""
    D = lcm(tbase.denominator, tx.qexp.denominator, order.denominator)
    B, X, T = on_lattice(tbase, D), on_lattice(tx.qexp, D), on_lattice(order, D)
    if int_is_zero(tx.unit_k, X, B):
        return QSeries.zero()
    rest = other(F(T - int_valuation(X, B), D))
    # the theta factor is exact below order - min(ord(rest), 0), rounded up
    # onto 1/D: no exponent of it lies in between
    low = min(rest.ord_bound(), 0)
    W = T - low.numerator * D // low.denominator + pad(B)
    coeff = int_jtheta(tx.unit_k, X, B, D, W)
    return require_order(coeff * rest, order, "theta product")


def g_1b1(x: Monomial, y: Monomial, base: Rat, b: int, z1: Monomial, z0: Monomial,
          order: Rat) -> QSeries:
    """g_{1,b,1}(x,y,q^base,z1,z0): the two-term Appell-Lerch combination."""
    if b < 2:
        raise ValueError("b must be >= 2")
    base = F(base)
    if base <= 0:
        raise ValueError("base must be positive")
    order = F(order)
    B = base * (b * b - 1)
    e = base * (comb2(b + 1) - 1)
    X1 = Monomial(0, e) * x * ((-y) ** (-b))
    X0 = Monomial(0, e) * y * ((-x) ** (-b))
    t1 = _theta_times(y, base, lambda T: appell_m(X1, B, z1, T), order)
    t0 = _theta_times(x, base, lambda T: appell_m(X0, B, z0, T), order)
    return (t1 + t0).truncate(order)


def h_nn1(n: int, x: Monomial, y: Monomial, base: Rat, z1: Monomial, z0: Monomial,
          order: Rat) -> QSeries:
    """h_{n,n,1}(x,y,q^base,z1,z0) for n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    base = F(base)
    if base <= 0:
        raise ValueError("base must be positive")
    order = F(order)
    X1 = Monomial(2, base * (n - 1)) * y * x.inverse()
    X0 = Monomial(0, base * comb2(n)) * x * ((-y) ** (-n))
    t1 = _theta_times(x, base * n, lambda T: appell_m(X1, base * (n - 1), z1, T), order)
    t0 = _theta_times(y, base, lambda T: appell_m(X0, base * (n * n - n), z0, T), order)
    return (t1 + t0).truncate(order)


# -- master expansions ---------------------------------------------------------


def master_fnp_rhs(p: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """f_{1,p+1,1} as g_{1,p+1,1}(x,y,q,-1,-1) plus the p*p-term theta block
    over Jbar_{0,p(2+p)}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    base = F(base)
    order = F(order)
    acc = g_1b1(x, y, base, p + 1, MINUS_ONE, MINUS_ONE, order)
    M = p * p * (2 + p)
    jm = (Monomial.q(base * M), 3 * base * M)  # J_{p^2(2+p)}
    for r in range(p):
        for s in range(p):
            mono = (((-x) ** r) * ((-y) ** (s + 1))
                    * Monomial(0, base * (comb2(r) + (1 + p) * r * (s + 1) + comb2(s + 1))))
            num = [
                jm, jm, jm,
                (Monomial(2, base * p * (s - r)) * x * y.inverse(), base * p * p),
                (Monomial(0, base * (p * (2 + p) * (r + s) + p * (1 + p))) * (x ** p) * (y ** p),
                 base * M),
            ]
            den = [
                (Monomial(0, base * F(p * (2 + p) * 2 * r + p * (1 + p), 2)) * ((-y) ** (1 + p)) / (-x),
                 base * M),
                (Monomial(0, base * F(p * (2 + p) * 2 * s + p * (1 + p), 2)) * ((-x) ** (1 + p)) / (-y),
                 base * M),
                (Monomial(2, F(0)), base * p * (2 + p)),  # Jbar_{0,p(2+p)}
            ]
            acc = acc + theta_quotient(num, den, order, prefactor=mono)
    return acc.truncate(order)


def acdivb_rhs(n: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """f_{n,n,1} as h_{n,n,1}(x,y,q,-1,-1) minus the n-term theta block over
    Jbar_{0,n-1} Jbar_{0,n^2-n}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    base = F(base)
    order = F(order)
    acc = h_nn1(n, x, y, base, MINUS_ONE, MINUS_ONE, order)
    M = n * (n - 1)
    jm = (Monomial.q(base * M), 3 * base * M)  # J_{n(n-1)}
    for d in range(n - 1 + 1):
        mono = Monomial(0, base * (n - 1) * comb2(d + 1))
        num = [
            (Monomial(0, base * (n - 1) * (d + 1)) * y, base * n),
            (Monomial(2, base * (n * (n - 1) - (n - 1) * (d + 1))) * x * y.inverse(), base * M),
            jm, jm, jm,
            (Monomial(0, base * (comb2(n) + (n - 1) * (d + 1))) * ((-y) ** (1 - n)), base * M),
        ]
        den = [
            (Monomial(2, base * comb2(n)) * x * ((-y) ** (-n)), base * M),
            (Monomial(0, base * (n - 1) * (d + 1)) * x.inverse() * y, base * M),
            (Monomial(2, F(0)), base * (n - 1)),      # Jbar_{0,n-1}
            (Monomial(2, F(0)), base * (n * n - n)),  # Jbar_{0,n^2-n}
        ]
        acc = acc - theta_quotient(num, den, order, prefactor=mono)
    return acc.truncate(order)


# -- the z = y/x expansions ----------------------------------------------------


def _delta_from_minus_one(X: Monomial, z: Monomial, modulus: Fraction, order: Fraction) -> QSeries:
    """m(X, q^modulus, z) - m(X, q^modulus, -1) as its closed theta quotient."""
    Q = modulus
    jm = (Monomial.q(Q), 3 * Q)
    num = [(-z, Q), (-(X * z), Q), jm, jm, jm]
    den = [(MINUS_ONE, Q), (z, Q), (-X, Q), (X * z, Q)]
    return theta_quotient(num, den, order, prefactor=MINUS_ONE)


def theta_1p(p: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """The correction block Theta_{1,p} for the z1 = y/x, z0 = x/y expansions,
    p in {1,2,3,4}.

    For p in {2,3,4} these are explicit theta quotients.  For p = 1 the
    block is assembled from the master p=1 correction re-based from
    z = -1 to z = y/x via the z-changing relation; the combination is the
    unique function with f_{1,2,1} = g_{1,2,1}(x,y,q,y/x,x/y) - Theta_{1,1}.
    """
    base = F(base)
    order = F(order)
    b = base

    def qb(e) -> Monomial:
        return Monomial(0, b * F(e))

    if p == 1:
        X1 = qb(2) * x * (y ** -2)
        X0 = qb(2) * y * (x ** -2)
        t1 = _theta_times(y, b, lambda T: _delta_from_minus_one(X1, y / x, 3 * b, T), order)
        t0 = _theta_times(x, b, lambda T: _delta_from_minus_one(X0, x / y, 3 * b, T), order)
        j3 = (Monomial.q(3 * b), 9 * b)
        acc = t1 + t0 + theta_quotient(
            num=[j3, j3, j3, (-(x / y), b), (qb(2) * x * y, 3 * b)],
            den=[(MINUS_ONE, 3 * b), (Monomial(2, b) * (y ** 2) / x, 3 * b),
                 (Monomial(2, b) * (x ** 2) / y, 3 * b)],
            order=order,
            prefactor=y,
        )
        return acc.truncate(order)

    if p == 2:
        return theta_quotient(
            num=[(Monomial.q(2 * b), 4 * b), (Monomial.q(8 * b), 16 * b),
                 (qb(3) * x * y, 8 * b), (qb(2) * (x ** -2) * (y ** -2), 16 * b)],
            den=[(Monomial(2, 3 * b) * (x ** 2), 8 * b),
                 (Monomial(2, 3 * b) * (y ** 2), 8 * b)],
            order=order,
            prefactor=qb(1) * x * y,
        )

    if p == 3:
        common_num = [(Monomial.q(3 * b), 9 * b), (Monomial.q(15 * b), 45 * b),
                      (qb(2) * x, 5 * b), (qb(2) * y, 5 * b)]
        common_den = [(Monomial.q(5 * b), 15 * b), (Monomial.q(5 * b), 15 * b),
                      (qb(6) * (x ** 3), 15 * b), (qb(6) * (y ** 3), 15 * b)]
        t1 = theta_quotient(
            num=common_num + [(qb(11) * (x ** 2) * y, 15 * b), (qb(11) * x * (y ** 2), 15 * b)],
            den=common_den, order=order, prefactor=qb(1) * x * y,
        )
        t2 = theta_quotient(
            num=common_num + [(qb(16) * (x ** 2) * y, 15 * b), (qb(16) * x * (y ** 2), 15 * b)],
            den=common_den, order=order, prefactor=qb(5) * (x ** 2) * (y ** 2), scalar=-1,
        )
        return (t1 + t2).truncate(order)

    if p == 4:
        J12 = (Monomial.q(12 * b), 36 * b)
        J24 = (Monomial.q(24 * b), 72 * b)
        J48 = (Monomial.q(48 * b), 144 * b)
        J416 = (Monomial.q(4 * b), 16 * b)
        J816 = (Monomial.q(8 * b), 16 * b)
        cden = [(Monomial(2, 10 * b) * (x ** 4), 24 * b),
                (Monomial(2, 10 * b) * (y ** 4), 24 * b)]
        s1pre_num = [(qb(22) * (x ** 2) * (y ** 2), 24 * b),
                     (Monomial(2, 12 * b) * y / x, 24 * b),
                     (qb(5) * x * y, 12 * b)]
        s2pre_num = [(qb(10) * (x ** 2) * (y ** 2), 24 * b),
                     (-(y / x), 24 * b),
                     (qb(11) * x * y, 12 * b)]
        t1 = theta_quotient(
            num=[J416] + s1pre_num + [(Monomial(2, 10 * b) * (x ** 2) * (y ** 2), 24 * b),
                                      (qb(12) * (y ** 2) * (x ** -2), 24 * b), J24, J24],
            den=[J12, J12, J12, J48] + cden,
            order=order, prefactor=qb(1) * x * y,
        )
        t2 = theta_quotient(
            num=[J416] + s1pre_num + [(Monomial(2, 22 * b) * (x ** 2) * (y ** 2), 24 * b),
                                      (qb(12) * y / x, 24 * b), (qb(12) * y / x, 24 * b),
                                      (-(y / x), 24 * b), (-(y / x), 24 * b)],
            den=[J12, J12, J12, J48, J24] + cden,
            order=order, prefactor=qb(6) * (x ** 3) * y,
        )
        t3 = theta_quotient(
            num=[J816] + s2pre_num + [(Monomial(2, 10 * b) * (x ** 2) * (y ** 2), 24 * b),
                                      (qb(12) * (y ** 2) * (x ** -2), 24 * b), J48],
            den=[J12, J12, J24] + cden,
            order=order, prefactor=qb(4) * x, scalar=-1,
        )
        t4 = theta_quotient(
            num=[J816] + s2pre_num + [(Monomial(2, 22 * b) * (x ** 2) * (y ** 2), 24 * b),
                                      (qb(24) * (y ** 2) * (x ** -2), 48 * b),
                                      (qb(24) * (y ** 2) * (x ** -2), 48 * b)],
            den=[J12, J12, J48] + cden,
            order=order, prefactor=qb(3) * (x ** 2) * y, scalar=-1,
        )
        return (t1 + t2 + t3 + t4).truncate(order)

    raise ValueError("p must be in {1, 2, 3, 4}")


def genfn_rhs(p: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """f_{1,p+1,1} = g_{1,p+1,1}(x,y,q,y/x,x/y) - Theta_{1,p}(x,y,q)."""
    base = F(base)
    order = F(order)
    g = g_1b1(x, y, base, p + 1, y / x, x / y, order)
    return (g - theta_1p(p, x, y, base, order)).truncate(order)


def singshift_rhs(p: int, ell: int, x: Monomial, y: Monomial, base: Rat, order: Rat) -> QSeries:
    """The shifted-z variant: z1 = q^(ell*p) y/x, z0 = q^(-ell*p) x/y, with the
    theta block evaluated at (q^ell x, q^(ell(1+p)) y) and re-prefixed by
    (-x)^ell q^C(ell,2)."""
    base = F(base)
    order = F(order)
    z1 = Monomial(0, base * ell * p) * y / x
    z0 = Monomial(0, -base * ell * p) * x / y
    g = g_1b1(x, y, base, 1 + p, z1, z0, order)
    pref = ((-x) ** ell) * Monomial(0, base * comb2(ell))
    xs = Monomial(0, base * ell) * x
    ys = Monomial(0, base * ell * (1 + p)) * y
    block = theta_1p(p, xs, ys, base, order - pref.qexp).shift(pref)
    return (g - block).truncate(order)
