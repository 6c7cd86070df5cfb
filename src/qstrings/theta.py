"""Theta-type constructors.

Every theta series is built from its defining two-sided sum
j(x; q^base) = sum over n of (-1)^n q^(base*C(n,2)) x^n, which has
O(sqrt(order/base)) terms below any order and needs no reduction of x into
a fundamental strip.  The n it runs over are one closed-form range,
``int_parabola``, which also cuts the Appell-Lerch and Hecke-type sums.
``jtheta(x, base, order)`` is the entry point: it returns the exact zero
when x is an integral power of the modulus and the sum otherwise, for all
four units +-1, +-i.  ``Jm`` and ``eta`` call it for the pentagonal case
J_m = j(q^m; q^{3m}), and ``Jm_cubed`` is J_m^3 by Jacobi's identity
J_m^3 = sum over n >= 0 of (-1)^n (2n+1) q^(m*n(n+1)/2), one sparse sum.

Planning runs on ints.  A caller fixes one lattice 1/D for everything it
plans, and then every exponent, modulus, valuation and window is an int
numerator over D: the zero test is ``int_is_zero``, the least exponent
``int_valuation`` and the range ``int_parabola``.  ``int_jtheta`` is the
one builder of a theta series: it sums j(x; q^base) straight onto the
caller's lattice, exact below the caller's int window, with no Fraction
for its trunc.  ``jtheta`` calls it on the lattice of x, base and the
order, after its zero test; ``theta_sum`` calls it
for each planned factor, ``hecke._theta_times`` for its theta factor and
``appell.appell_m`` for its divisor, each on its own plan's lattice.
``Jm_cubed`` is the one builder of J_m^3, on the lattice of m and the
order.

The Pochhammer products and the triple-product form ``jtheta_prod`` compute
the same series a second, independent way; they serve only as the other
side of the oracle identities and tests.

``theta_sum`` is the one assembler: it sums terms, each a scalar times a
monomial prefactor times a product of theta factors over another,
computing every factor at exactly the order its valuation requires
(``quotient_plan``, on one lattice for the whole sum), so the result is
provably exact below the requested order.  The terms over one multiset of
denominator factors share one dividend, into which each term's last
product convolves (``series.product_sum``), and one ``divide`` chain, whose
factors are built once each; a term's prefactor and scalar go on its
sparsest numerator factor, not on an assembled product.  ``theta_quotient``
is its one-term call.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence, Tuple, Union

from .series import (
    UNIT_PAIRS,
    GaussianRational,
    Monomial,
    QSeries,
    Rat,
    divide,
    product_sum,
    on_lattice,
    pad,
    require_order,
)


class ThetaError(Exception):
    pass


class DivergentProduct(ThetaError):
    """Infinite Pochhammer product with a non-convergent argument."""


class OutOfStrip(ThetaError):
    """Triple-product form requested outside the fundamental strip."""


class ThetaZeroDenominator(ThetaError):
    """A theta factor in a denominator vanishes identically."""


ThetaFactor = Tuple[Monomial, Rat]  # (argument, modulus exponent): j(x; q^base)
Scalar = Union[int, Fraction, GaussianRational]
# (num, den, prefactor, scalar): scalar * prefactor * prod(num) / prod(den)
ThetaTerm = Tuple[Sequence[ThetaFactor], Sequence[ThetaFactor], Monomial, Scalar]


def comb2(n: int) -> int:
    """Binomial(n, 2) for any integer n."""
    return n * (n - 1) // 2


def int_parabola(A: int, B: int, W: int) -> range:
    """The integers n with A*C(n,2) + B*n < W, for ints A > 0, B and W.

    The condition reads A*n*(n-1) + 2*B*n < 2*W, with real roots
    (c -+ sqrt(disc)) / 2A, c = A - 2B and disc = c^2 + 8AW.  With
    s = isqrt(disc) each end of the range is one of two adjacent integers,
    and one exact test picks it.
    """
    c, d = A - 2 * B, 2 * A
    disc = c * c + 8 * A * W
    if disc < 0:
        return range(0)
    s = isqrt(disc)
    lo = (c - s) // d  # the first integer of the range, or one before it
    if A * lo * (lo - 1) + 2 * (B * lo - W) >= 0:
        lo += 1
    hi = (c + s) // d  # the last integer of the range, or one past it
    if A * hi * (hi - 1) + 2 * (B * hi - W) < 0:
        hi += 1
    return range(lo, hi)


def int_is_zero(unit_k: int, X: int, B: int) -> bool:
    """j(i^unit_k q^(X/D); q^(B/D)) = 0 exactly iff the argument is an
    integral power of the modulus; B > 0."""
    return unit_k == 0 and X % B == 0


def int_valuation(X: int, B: int) -> int:
    """D times the least exponent of j(x; q^(B/D)), x = unit * q^(X/D) not a
    zero, B > 0.

    The exponents f(n) = B*C(n,2) + n*X form a parabola with its minimum
    at n = 1/2 - X/B, so the least one is f(lo) or f(lo+1),
    lo = floor((B - 2X) / 2B).  Those two terms cannot cancel: they have
    equal exponents only when X = -lo*B, and then their coefficients are
    equal for unit -1, differ by a factor +-i for units +-i, and x is a
    zero for unit +1.
    """
    lo = (B - 2 * X) // (2 * B)
    return min(B * comb2(lo) + lo * X, B * comb2(lo + 1) + (lo + 1) * X)


def int_jtheta(unit_k: int, X: int, B: int, D: int, W: int) -> QSeries:
    """j(i^unit_k q^(X/D); q^(B/D)) on the lattice 1/D, exact below W/D, by
    the defining two-sided sum; B > 0."""
    # the exponent of term n is k/D, k = B*C(n,2) + n*X; its coefficient
    # (-1)^n unit^n is i^u, u = (2 + unit_k)*n mod 4: +-1 goes to the real
    # part, +-i to the imaginary part
    kx = 2 + unit_k
    real, imag = {}, {}
    for n in int_parabola(B, X, W + pad(B)):
        k = B * comb2(n) + n * X
        u = kx * n & 3
        part = imag if u & 1 else real
        part[k] = part.get(k, 0) + 1 - (u & 2)
    return QSeries.below(D, real, imag, W)


def pochhammer(x: Monomial, base: Rat, n: Optional[int], order: Rat) -> QSeries:
    """(x; q^base)_n, with n = None meaning the infinite product.

    Factors whose exponent lands at or above the computation window only
    contribute 1 and are skipped.
    """
    if base <= 0:
        raise ValueError("base must be positive")
    if n is not None and n < 0:
        raise ValueError("n must be non-negative")
    if n is None and x.qexp < 0:
        raise DivergentProduct(f"(x; q^{base})_inf diverges for x = {x}")
    # factor i is 1 - x q^(i*base), its exponent k/D on the lattice 1/D; while
    # k < 0 every term is kept, and the terms reach down to n*min(k0, 0)
    D = lcm(base.denominator, x.qexp.denominator, order.denominator)
    k0, step, T = on_lattice(x.qexp, D), on_lattice(base, D), on_lattice(order, D)
    W = T + pad(step)
    if not x.unit_k and k0 <= 0 and k0 % step == 0 and (n is None or -k0 // step < n):
        return QSeries.zero()  # a factor 1 - q^0 kills the product exactly, at any order
    ur, ui = UNIT_PAIRS[x.unit_k]
    real, imag = {0: 1}, {}
    for k in range(k0, W if n is None else min(W - n * min(k0, 0), k0 + n * step), step):
        # read each term before the one k above it changes
        for j in sorted(real.keys() | imag.keys(), reverse=k > 0):
            if k < 0 or j + k < W:
                re, im = real.get(j, 0), imag.get(j, 0)
                cr, ci = ur * re - ui * im, ur * im + ui * re
                if cr:
                    real[j + k] = real.get(j + k, 0) - cr
                if ci:
                    imag[j + k] = imag.get(j + k, 0) - ci
    return QSeries.below(D, real, imag, T)


def jtheta_prod(x: Monomial, base: Rat, order: Rat) -> QSeries:
    """Triple product (x)_inf (q^base/x)_inf (q^base)_inf on the strip.

    Requires 0 <= x.qexp < base, and x != 1 at qexp 0 (the exact-zero case
    is detected by the caller).
    """
    base = Fraction(base)
    order = Fraction(order)
    if not (0 <= x.qexp < base) or (x.qexp == 0 and x.unit_k == 0):
        raise OutOfStrip(f"x = {x} not in the fundamental strip of q^{base}")
    # the three products have valuation 0, so three factors exact below some
    # win > 0 make a product exact below win; the floor base keeps win > 0
    # when order <= 0
    win = max(order, base) + pad(base)
    a = pochhammer(x, base, None, win)
    b = pochhammer(Monomial(-x.unit_k, base - x.qexp), base, None, win)
    c = pochhammer(Monomial(0, base), base, None, win)
    return require_order(a * b * c, order, "triple product")


def jtheta(x: Monomial, base: Rat, order: Rat) -> QSeries:
    """j(x; q^base), exact below `order`; exactly zero when x = q^(k*base).
    The lattice 1/D is the lcm of the denominators of x.qexp, base and the
    order, so the order is an int window on it."""
    D = lcm(base.denominator, x.qexp.denominator, order.denominator)
    B = on_lattice(base, D)
    if B <= 0:
        raise ValueError("base must be positive")
    X = on_lattice(x.qexp, D)
    if int_is_zero(x.unit_k, X, B):
        return QSeries.zero()
    return int_jtheta(x.unit_k, X, B, D, on_lattice(order, D))


# -- shorthands --------------------------------------------------------------


def J(a: Rat, m: Rat, order: Rat) -> QSeries:
    """J_{a,m} = j(q^a; q^m)."""
    return jtheta(Monomial.q(a), m, order)


def Jbar(a: Rat, m: Rat, order: Rat) -> QSeries:
    """Jbar_{a,m} = j(-q^a; q^m)."""
    return jtheta(Monomial.mq(a), m, order)


def Jm(m: Rat, order: Rat) -> QSeries:
    """J_m = (q^m; q^m)_inf = j(q^m; q^{3m}), Euler's pentagonal sum."""
    m = Fraction(m)
    return jtheta(Monomial.q(m), 3 * m, order)


def Jm_cubed(m: Rat, order: Rat) -> QSeries:
    """J_m^3 = sum over n >= 0 of (-1)^n (2n+1) q^(m*n(n+1)/2), Jacobi's
    identity, exact below `order`, on the lattice of m and the order."""
    if m <= 0:
        raise ValueError("m must be positive")
    # the exponent is m*C(n,2) + m*n; n and -1 - n have the same one, so the
    # range is symmetric about -1/2 and the sum runs over its n >= 0 half
    D = lcm(m.denominator, order.denominator)
    M, W = on_lattice(m, D), on_lattice(order, D)
    r = int_parabola(M, M, W)
    terms = {M * (n * (n + 1) // 2): (-1) ** n * (2 * n + 1) for n in range(max(r.start, 0), r.stop)}
    return QSeries.below(D, terms, {}, W)


def eta(scale: Rat, order: Rat) -> QSeries:
    """Dedekind eta at tau*scale: q^{scale/24} (q^scale; q^scale)_inf."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    pre = scale / 24
    return Jm(scale, Fraction(order) - pre).shift(Monomial(0, pre))


def j_split_components(z: Monomial, base: Rat, mm: int, order: Rat) -> list:
    """The mm summands whose total is j(z; q^base).

    Component k is (-1)^k q^{base*C(k,2)} z^k
    j((-1)^{mm+1} q^{base*(C(mm,2)+mm*k)} z^mm ; q^{base*mm^2}).
    """
    base = Fraction(base)
    order = Fraction(order)
    if mm < 1:
        raise ValueError("mm must be >= 1")
    out = []
    for k in range(mm):
        pref = Monomial(2 * k + z.unit_k * k, base * comb2(k) + k * z.qexp)
        inner = Monomial(
            2 * (mm + 1) + mm * z.unit_k,
            base * (comb2(mm) + mm * k) + mm * z.qexp,
        )
        comp = jtheta(inner, base * mm * mm, order - pref.qexp)
        out.append(comp.shift(pref).truncate(order))
    return out


# -- quotient assembly --------------------------------------------------------


def quotient_plan(num: Sequence[ThetaFactor], den: Sequence[ThetaFactor], order: Rat,
                  pre_qexp: Rat) -> Optional[tuple]:
    """The int plan of a term of ``theta_sum``: (D, deficit, num_plan, den_plan) on
    the lattice 1/D, or None when a numerator factor vanishes.

    D is the lcm of the denominators of the order, the prefactor's exponent
    pre_qexp and every factor's exponent and modulus, so every valuation,
    the deficit and every window is an int numerator over D.  Factor
    j(x; q^b) is planned as (unit_k, X, B, v, W): x = i^unit_k q^(X/D),
    b = B/D, valuation v/D, and the factor is computed exact below W/D,
    W = v + max(deficit, B) + pad(B): its valuation plus the common margin,
    with deficit/D = order - pre_qexp - (sum of num valuations - sum of den
    valuations).  Raises ThetaZeroDenominator when a denominator factor
    vanishes.
    """
    D = lcm(order.denominator, pre_qexp.denominator,
            *(r.denominator for x, b in (*num, *den) for r in (x.qexp, b)))
    nums, dens = ([(x.unit_k, on_lattice(x.qexp, D), on_lattice(b, D)) for x, b in fs] for fs in (num, den))
    if any(B <= 0 for *_, B in nums + dens):
        raise ValueError("base must be positive")
    for (x, b), f in zip(den, dens):
        if int_is_zero(*f):
            raise ThetaZeroDenominator(f"denominator factor j({x}; q^{b}) is zero")
    if any(int_is_zero(*f) for f in nums):
        return None
    n_vals = [int_valuation(X, B) for _, X, B in nums]
    d_vals = [int_valuation(X, B) for _, X, B in dens]
    deficit = on_lattice(order, D) - on_lattice(pre_qexp, D) - sum(n_vals) + sum(d_vals)

    def windows(fs: list, vals: list) -> list:
        return [(u, X, B, v, v + max(deficit, B) + pad(B)) for (u, X, B), v in zip(fs, vals)]

    return D, deficit, windows(nums, n_vals), windows(dens, d_vals)


def theta_sum(terms: Sequence[ThetaTerm], order: Rat) -> QSeries:
    """The sum of scalar * prefactor * prod(num) / prod(den) over the terms
    (num, den, prefactor, scalar), exact below `order`.

    Every term is planned by ``quotient_plan``, its ints rescaled onto one
    lattice 1/D, the lcm of the terms' lattices.  Each factor j(x; q^b) is
    computed at its valuation v plus the margin max(d, b), d the term's
    deficit, so a term's product is exact below its valuation plus
    d >= order - prefactor.qexp, with no slack; the floor b keeps every
    divisor's leading term.  The terms whose denominator factors are equal
    as a multiset form one group, which builds each of its denominator
    factors once, at the largest window any of its terms needs, and runs one
    ``divide`` chain: a shared factor exact that far keeps every term's
    quotient exact below the order.  The dividend of a group is the sum of
    its terms' numerator products, exact below the least of their truncs:
    each product is multiplied as a pairwise tree, smallest factors first,
    down to its last two factors, and ``product_sum`` convolves every
    term's last pair straight into the one dividend.  A term's prefactor and
    scalar go on its sparsest numerator factor, or on an exact unit when it
    has fewer than two: the exact monomial moves ord and trunc alike, so no
    pass over a product only shifts or scales it.  The groups are added, and
    ``require_order`` checks the order.  A term whose scalar is zero or
    whose numerator factor vanishes adds nothing; a sum known to be exactly
    zero, as when no other term is left, is the exact zero.  A vanishing
    denominator factor raises ThetaZeroDenominator, in any term.
    """
    plans = [(quotient_plan(num, den, order, pre.qexp), pre, scalar) for num, den, pre, scalar in terms]
    live = [(plan, pre, scalar) for plan, pre, scalar in plans if plan is not None and scalar]
    if not live:
        return QSeries.zero()
    D = lcm(*(plan[0] for plan, _, _ in live))
    groups = {}  # the sorted denominator factors (unit_k, X, B) -> the group's terms
    for (d, _, nums, dens), pre, scalar in live:
        m = D // d
        nums = [(u, X * m, B * m, W * m) for u, X, B, _, W in nums]
        dens = [((u, X * m, B * m), W * m) for u, X, B, _, W in dens]
        groups.setdefault(tuple(sorted(f for f, _ in dens)), []).append((nums, dens, pre, scalar))
    out = None
    for group in groups.values():
        windows = {}
        for _, dens, _, _ in group:
            for f, W in dens:
                windows[f] = max(W, windows.get(f, W))
        built = {f: int_jtheta(*f, D, W) for f, W in windows.items()}
        pairs = []
        for nums, _, pre, scalar in group:
            fs = [int_jtheta(u, X, B, D, W) for u, X, B, W in nums]
            fs += [QSeries.one()] * (2 - len(fs))
            i = min(range(len(fs)), key=lambda i: len(fs[i].keys()))
            fs[i] = fs[i].shift(pre).scale(scalar)
            while len(fs) > 2:  # one level of the tree, the odd factor carried
                fs.sort(key=lambda f: len(f.keys()))
                fs = [fs[j] * fs[j + 1] for j in range(0, len(fs) - 1, 2)] + fs[len(fs) & ~1:]
            pairs.append(fs)
        # the chain in the first term's order: a one-term call divides in its
        # caller's order
        quotient = divide(product_sum(pairs), [built[f] for f, _ in group[0][1]])
        out = quotient if out is None else out + quotient
    return require_order(out, order, "quotient")


def theta_quotient(
    num: Sequence[ThetaFactor],
    den: Sequence[ThetaFactor],
    order: Rat,
    prefactor: Monomial = Monomial.one(),
    scalar: Scalar = 1,
) -> QSeries:
    """scalar * prefactor * prod(num) / prod(den), exact below `order`: the
    one-term ``theta_sum``, whose docstring gives the plan and the contract."""
    return theta_sum([(num, den, prefactor, scalar)], order)
