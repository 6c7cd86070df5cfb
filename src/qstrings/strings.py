"""Level-N string functions for the affine Lie algebra A1^(1).

Two independent evaluation paths are provided and cross-checked by the
verification harness:

* ``calC_oracle`` sums the weight-multiplicity double sum directly.  The
  braced-difference form of that sum,

      sum_{j in Z} sum_{i in N} (-1)^i q^{i(i+m)/2 + j((N+2)j+l+1)}
          * { q^{+i(2(N+2)j+l+1)/2} - q^{-i(2(N+2)j+l+1)/2} },

  is only conditionally convergent: with E(i,j) denoting the exponent of
  the first braced term, the second term's exponent is E(i, j-i), so over
  the full lattice the two halves cancel pairwise and any naive box
  truncation is prescription-dependent.  The absolutely-summable form is
  the double-cone regrouping

      J_1^3 * calC = [ sum_{j >= 0, i >= -j}  -  sum_{j <= -1, i <= -j-1} ]
                         (-1)^i q^{E(i,j)},

  which is the image of the sign-split cone definition under the change of
  variables (r, s) = (i+j, j).  On each cone E is a parabola in i for fixed
  j and in j along the cone edge, so exact rational walks enumerate every
  term below the window.

* ``calC_hecke`` evaluates the same function through the Hecke-type double
  sum f_{1,1+N,1}(q^{1+(m+l)/2}, q^{1-(m-l)/2}, q) / J_1^3.

Every Hecke-form side is one call of ``_hecke_string``, the window plan for
q^s * sum of pre * f_{a,b,c}(x, y, q^base) / J_base^3: ``calC_hecke`` and the
even-level splittings ``mps_split_rhs``, ``mps_cor2_rhs`` and ``mps_cor3_rhs``.
Both paths divide in ``_divide_by_j1_cubed``, which builds J_base^3 by
Jacobi's identity (``theta.Jm_cubed``): one sparse sum and no series product.
Both plan their windows in ints on one lattice 1/D.
``normalized_theta_form`` is q^e f_{1,1+N,1}(x, y, q) itself.  Its closed
theta forms at levels 1..4 are one table, ``_LEVEL_THETA``, keyed by the 15
canonical labels of ``symmetry_reduce`` (the string functions are invariant
under its three symmetries); ``level_theta_side`` evaluates the row of a
label's canonical representative.  The Kac-Peterson examples are two tables:
``_KP_ETA`` (q-shift, eta factors and theta numerators for one
``theta_quotient``) and ``_KP_STRINGS`` ((coefficient, N, ell, m) rows).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add

from .hecke import hecke_f
from .series import FrozenRecord, Monomial, QSeries, Rat, lattice_bound, on_lattice, pad, require_order
from .theta import Jm_cubed, jtheta, theta_quotient

F = Fraction
ONE = Monomial.one()


class InvalidLabel(Exception):
    pass


class InvalidParity(InvalidLabel):
    pass


class UnsupportedLevel(Exception):
    pass


class StringLabel(FrozenRecord):
    """(N, ell, m): level N >= 1, 0 <= ell <= N, m of the same parity as ell."""

    __slots__ = ("N", "ell", "m")

    def __init__(self, N: int, ell: int, m: int):
        if N < 1:
            raise InvalidLabel(f"level must be >= 1, got {N}")
        if not 0 <= ell <= N:
            raise InvalidLabel(f"ell must lie in [0, {N}], got {ell}")
        if (m - ell) % 2 != 0:
            raise InvalidParity(f"m = {m} and ell = {ell} differ in parity")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)


def s_exponent(lbl: StringLabel) -> Fraction:
    """The exact q-power prefactor exponent attached to the level-N label."""
    return -F(1, 8) + F((lbl.ell + 1) ** 2, 4 * (lbl.N + 2)) - F(lbl.m ** 2, 4 * lbl.N)


def _cone_sum(N: int, ell: int, m: int, W: int) -> QSeries:
    """All terms of the double-cone sum with exponent below W/2.

    Every exponent E(i, j) is a half-integer, so the walk runs on the ints
    E2 = 2E and compares them with W, on the series' lattice 1/2.
    """
    terms: dict = {}

    def E2(i: int, j: int) -> int:
        return i * (i + m) + 2 * j * ((N + 2) * j + ell + 1) + i * (2 * (N + 2) * j + ell + 1)

    def iv2(j: int) -> int:
        # twice the stationary point of E(., j)
        return -(2 * (N + 2) * j + ell + m + 1)

    # cone+ : j >= 0, i >= -j, positive orientation
    j = 0
    while True:
        edge = -j
        v = iv2(j)
        if E2(edge, j) < W or 2 * edge < v:
            i = edge
            while True:
                e = E2(i, j)
                if e < W:
                    terms[e] = terms.get(e, 0) + (1 if i % 2 == 0 else -1)
                elif 2 * i >= v:
                    break
                i += 1
        elif 2 * j >= m - ell - 1:
            # past the vertex of E(-j, j) = j(j + ell + 1 - m)/2: no later j contributes
            break
        j += 1

    # cone- : j <= -1, i <= -j-1, negative orientation
    # edge value g(t) = E(t-1, -t) is a parabola in t = -j with vertex at
    # -(N + (m-ell+1)/2); an interior i-vertex exists only for
    # t <= ((ell+m+1)/2 - 1)/(N+1), that is 2t(N+1) <= ell+m-1
    t = 1
    while True:
        jj = -t
        edge = t - 1
        v = iv2(jj)
        if E2(edge, jj) < W or v < 2 * edge:
            i = edge
            while True:
                e = E2(i, jj)
                if e < W:
                    terms[e] = terms.get(e, 0) + (-1 if i % 2 == 0 else 1)
                elif 2 * i <= v:
                    break
                i -= 1
        elif 2 * t * (N + 1) > ell + m - 1 and 2 * t >= -(2 * N + m - ell + 1):
            break
        t += 1

    return QSeries.below(2, terms, {}, W)


def _divide_by_j1_cubed(raw: QSeries, order: Fraction, base: Rat = 1) -> QSeries:
    D = math.lcm(base.denominator, order.denominator)
    M, T = on_lattice(base, D), on_lattice(order, D)
    sigma = min(raw.ord_bound(), 0)
    # J_base^3 = 1 + O(q^base), Jacobi's sum, is exact below order - sigma,
    # rounded up onto 1/D, and at least below base: a divisor needs its
    # leading term also when nothing of the quotient lies below order
    W = max(T - sigma.numerator * D // sigma.denominator, M) + pad(M)
    return require_order(raw / Jm_cubed(base, F(W, D)), order, "string function")


def calC_oracle(lbl: StringLabel, order: Rat) -> QSeries:
    """The normalized string function from the weight-multiplicity sum."""
    W = lattice_bound(order, 2) + pad(2)  # 2*(order + pad(1)), rounded up
    return _divide_by_j1_cubed(_cone_sum(lbl.N, lbl.ell, lbl.m, W), order)


def _hecke_string(abc, terms, base: Rat, s: Rat, order: Fraction) -> QSeries:
    """q^s * (sum of pre * f_{a,b,c}(x, y, q^base) over (x, y, pre) in terms) / J_base^3,
    exact below order: the one window plan behind every Hecke-form string side,
    with every window an int on the lattice 1/D of the order, s, base and the
    prefactors."""
    D = math.lcm(order.denominator, s.denominator, base.denominator,
                 *(pre.qexp.denominator for *_, pre in terms))
    T = on_lattice(order, D) - on_lattice(s, D)
    W = T + pad(on_lattice(base, D))
    raw = reduce(add, (hecke_f(*abc, x, y, base, F(W - on_lattice(pre.qexp, D), D)).shift(pre)
                       for x, y, pre in terms))
    return _divide_by_j1_cubed(raw, F(T, D), base).shift(Monomial(0, s))


def _calC_args(lbl: StringLabel):
    """(x, y) with f_{1,1+N,1}(x, y, q) = J_1^3 calC."""
    return Monomial.q(1 + F(lbl.m + lbl.ell, 2)), Monomial.q(1 - F(lbl.m - lbl.ell, 2))


def calC_hecke(lbl: StringLabel, order: Rat) -> QSeries:
    """The normalized string function via f_{1,1+N,1} / J_1^3."""
    x, y = _calC_args(lbl)
    return _hecke_string((1, 1 + lbl.N, 1), [(x, y, ONE)], 1, 0, F(order))


def C_full(lbl: StringLabel, order: Rat, oracle: bool = False) -> QSeries:
    """The string function with its exact q^s prefactor (fractional lattice)."""
    order = F(order)
    s = s_exponent(lbl)
    inner = (calC_oracle if oracle else calC_hecke)(lbl, order - s)
    return inner.shift(Monomial(0, s))


def normalized_theta_form(lbl: StringLabel, order: Rat) -> QSeries:
    """q^{-(m^2-ell^2)/(4N)} J_1^3 calC = q^e f_{1,1+N,1}(x, y, q): the side
    tabulated by the level theorems."""
    order = F(order)
    e = -F(lbl.m ** 2 - lbl.ell ** 2, 4 * lbl.N)
    x, y = _calC_args(lbl)
    return hecke_f(1, 1 + lbl.N, 1, x, y, 1, order - e).shift(Monomial(0, e))


def symmetry_reduce(lbl: StringLabel) -> StringLabel:
    """Canonical representative under m -> -m, m -> 2N - m, and
    (ell, m) -> (N - ell, N - m); ties broken by the least (ell, m)."""
    N = lbl.N
    m = lbl.m % (2 * N)
    if m > N:
        m = 2 * N - m
    cands = [(lbl.ell, m), (N - lbl.ell, N - m)]
    ell2, m2 = min(cands)
    return StringLabel(N, ell2, m2)


# -- closed theta forms for levels 1..4 ----------------------------------------

_J1 = (Monomial.q(1), 3)  # J_1 = j(q; q^3)

# canonical label: (scalar, s, A, ((sign, t, B), ...)), the form
# scalar * q^s * j(A) * sum of sign * q^t * j(B), each factor a (Monomial, base)
# pair j(x; q^base); every other label with 0 <= m < 2N shares its
# symmetry_reduce's row
_LEVEL_THETA = {
    StringLabel(1, 0, 0): (1, 0, _J1, ((1, 0, _J1),)),
    StringLabel(2, 0, 0): (1, 0, (Monomial.q(1), 2), ((1, 0, (Monomial.mq(3), 8)),)),
    StringLabel(2, 0, 2): (1, F(1, 2), (Monomial.q(1), 2), ((1, 0, (Monomial.mq(1), 8)),)),
    StringLabel(2, 1, 1): (1, 0, _J1, ((1, 0, (Monomial.q(2), 6)),)),
    StringLabel(3, 0, 0): (1, 0, _J1, ((1, 0, (Monomial.q(8), 15)), (-1, 1, (Monomial.q(2), 15)))),
    StringLabel(3, 0, 2): (1, F(2, 3), _J1, ((1, 0, (Monomial.q(3), 15)),)),
    StringLabel(3, 1, 1): (1, 0, _J1, ((1, 0, (Monomial.q(6), 15)),)),
    StringLabel(3, 1, 3): (1, F(1, 3), _J1, ((1, 0, (Monomial.q(11), 15)), (1, 1, (Monomial.q(1), 15)))),
    StringLabel(4, 0, 0): (F(1, 2), 0, _J1, ((1, 0, (Monomial.mq(3), 6)), (1, 0, (Monomial.q(1), 2)))),
    StringLabel(4, 0, 2): (1, F(3, 4), _J1, ((1, 0, (Monomial.mq(6), 24)),)),
    StringLabel(4, 0, 4): (F(1, 2), 0, _J1, ((1, 0, (Monomial.mq(3), 6)), (-1, 0, (Monomial.q(1), 2)))),
    StringLabel(4, 1, 1): (1, 0, _J1, ((1, 0, (Monomial.mq(3), 8)),)),
    StringLabel(4, 1, 3): (1, F(1, 2), _J1, ((1, 0, (Monomial.mq(1), 8)),)),
    StringLabel(4, 2, 0): (1, F(1, 4), _J1, ((1, 0, (Monomial.mq(1), 6)),)),
    StringLabel(4, 2, 2): (1, 0, (Monomial.q(1), 4), ((1, 0, (Monomial.q(6), 12)),)),
}


def level_theta_side(lbl: StringLabel, order: Rat) -> QSeries:
    """The tabulated theta closed form for levels 1..4, 0 <= m < 2N."""
    if not 0 <= lbl.m < 2 * lbl.N:
        raise InvalidLabel(f"tabulated rows need 0 <= m < {2 * lbl.N}, got {lbl.m}")
    try:
        scalar, s, (a, b), terms = _LEVEL_THETA[symmetry_reduce(lbl)]
    except KeyError:
        raise UnsupportedLevel(f"no tabulated closed form for level {lbl.N}") from None
    T = F(order) - s
    # the unit i^(1 - sign) is the sign
    inner = reduce(add, (jtheta(x, base, T - t).shift(Monomial(1 - sign, t))
                         for sign, t, (x, base) in terms))
    return (jtheta(a, b, T) * inner).shift(Monomial(0, s)).scale(scalar)


# -- the even-level splitting identities ---------------------------------------


def mps_split_rhs(K: int, m: int, ell: int, sign: int, base: Rat, order: Rat) -> QSeries:
    """C_{m,ell}^{2K} +- C_{2K-m,ell}^{2K} through a pair of f_{K+1,K+1,1} sums.

    `sign` is +1 or -1 and enters both inner x-arguments and the cross term.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lbl = StringLabel(2 * K, ell, m)
    uk = 0 if sign == 1 else 2
    terms = [
        (Monomial(uk, base * (1 + F(K + ell, 2))), Monomial(0, base * (1 + F(m + ell, 2))), ONE),
        (Monomial(uk, base * (1 + F(3 * K - ell, 2))), Monomial(0, base * (1 + K + F(m - ell, 2))),
         Monomial(uk, base * F(K - ell, 2))),
    ]
    return _hecke_string((K + 1, K + 1, 1), terms, base, base * s_exponent(lbl), F(order))


def mps_cor2_rhs(K: int, m: int, base: Rat, order: Rat) -> QSeries:
    """C_{m,K}^{2K} as a single f_{K+1,K+1,1}; needs m = K (mod 2)."""
    lbl = StringLabel(2 * K, K, m)
    terms = [(Monomial(0, base * (K + 1)), Monomial(0, base * (1 + F(m + K, 2))), ONE)]
    return _hecke_string((K + 1, K + 1, 1), terms, base, base * s_exponent(lbl), F(order))


def mps_cor3_rhs(K: int, ell: int, base: Rat, order: Rat) -> QSeries:
    """C_{K,ell}^{2K} as a single f_{K+1,K+1,1}; needs K = ell (mod 2)."""
    lbl = StringLabel(2 * K, ell, K)
    terms = [(Monomial(0, base * (1 + F(K + ell, 2))), Monomial(0, base * (1 - F(K - ell, 2))), ONE)]
    return _hecke_string((K + 1, K + 1, 1), terms, base, base * s_exponent(lbl), F(order))


# -- classical examples ----------------------------------------------------------


def eta_quotient(factors, order: Rat, shift: Rat = 0, thetas=()) -> QSeries:
    """q^shift * prod of j(x; q^b) over (x, b) in thetas * prod of eta(scale)^power,
    exact below order: one theta_quotient with each J_scale = j(q^scale; q^(3 scale))
    repeated |power| times and prefactor q^(shift + sum of scale*power/24)."""
    num, den = list(thetas), []
    for scale, power in factors:
        scale = F(scale)
        (num if power > 0 else den).extend([(Monomial.q(scale), 3 * scale)] * abs(power))
    pre = Monomial(0, shift + sum(F(sc) * p for sc, p in factors) / 24)
    return theta_quotient(num, den, order, prefactor=pre)


# name: (q-shift, eta (scale, power) factors, theta numerators).  KP3A-C carry
# a restricted product prod over n mod 5 not in E of (1 - q^(t n)); by the
# triple product it is j(q^t; q^(5t)) for E = {2, 3} and j(q^(2t); q^(5t))
# for E = {1, 4}.
_KP_ETA = {
    "KP2A": (0, [(1, -2), (F(1, 2), 1)], ()),
    "KP3A": (F(27, 40), [(1, -2)], [(Monomial.q(3), 15)]),
    "KP3B": (F(1, 120), [(1, -2)], [(Monomial.q(F(2, 3)), F(5, 3))]),
    "KP3C": (F(3, 40), [(1, -2)], [(Monomial.q(F(1, 3)), F(5, 3))]),
    "KP4B": (0, [(1, -2), (F(1, 6), -1), (F(1, 12), 2)], ()),
}

# name: (coefficient, N, ell, m) rows of the string-function combination
_KP_STRINGS = {
    "KP2A": ((1, 2, 0, 0), (-1, 2, 0, 2)),
    "KP3A": ((1, 3, 0, 2),),
    "KP3B": ((1, 3, 0, 0), (-1, 3, 0, 2)),
    "KP3C": ((1, 3, 1, 1), (-1, 3, 1, 3)),
    "KP4B": ((1, 4, 0, 0), (-2, 4, 0, 2), (1, 4, 0, 4), (2, 4, 2, 0), (-2, 4, 2, 2)),
}


def _kp_row(table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; expected one of {tuple(table)}") from None


def kp_eta_side(name: str, order: Rat) -> QSeries:
    """The classical eta-quotient / restricted-product sides."""
    shift, factors, thetas = _kp_row(_KP_ETA, name)
    return eta_quotient(factors, order, shift, thetas)


def kp_string_side(name: str, order: Rat) -> QSeries:
    """The matching string-function combinations."""
    order = F(order)
    return reduce(add, (C_full(StringLabel(N, ell, m), order).scale(c)
                        for c, N, ell, m in _kp_row(_KP_STRINGS, name))).truncate(order)
