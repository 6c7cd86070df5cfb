"""The Appell-Lerch function m(x, q^base, z), truncated exactly.

m(x,q,z) = (1/j(z;q)) * sum over r of (-1)^r q^C(r,2) z^r / (1 - q^(r-1) x z).

Each denominator 1/(1 - rho q^d) with d = base*(r-1) + x.qexp + z.qexp and
rho = x.unit * z.unit expands geometrically forward for d > 0, is rewritten
as -sum_{t>=1} rho^-t q^(-t*d) for d < 0, and is the constant 1/(1-rho) for
d = 0 with rho != 1.

Every range is cut exactly, in closed form: the term for r contributes
nothing below m+(r) = base*C(r,2) + r*z.qexp (the d < 0 branch starts even
higher), so the r with m+(r) below the window are ``theta.parabola_range``
of that parabola, and each geometric series stops at the first t with
m+(r) + t*|d| at or above the window, t = ceil((window - m+(r)) / |d|).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import GaussianRational, Monomial, QI_ONE, QSeries, Rat, pad, require_order
from .theta import (ThetaZeroDenominator, comb2, is_theta_zero, jtheta, jtheta_valuation,
                    parabola_range)


class PoleAtXZ(Exception):
    """x*z is an integral power of the modulus: a term of the sum has a pole."""


def appell_m(x: Monomial, base: Rat, z: Monomial, order: Rat) -> QSeries:
    """m(x, q^base, z) exact below `order`."""
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    order = Fraction(order)
    if is_theta_zero(z, base):
        raise ThetaZeroDenominator(f"j({z}; q^{base}) = 0: z may not be a power of the modulus")
    xz = x * z
    if xz.unit_k == 0 and (xz.qexp / base).denominator == 1:
        raise PoleAtXZ(f"x*z = {xz} is an integral power of q^{base}")

    o_z = jtheta_valuation(z, base)
    win_s = order + max(o_z, Fraction(0)) + pad(base)

    terms: dict = {}

    def put(e: Fraction, c: GaussianRational):
        s = terms.get(e)
        s = c if s is None else s + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)

    sigma = Fraction(0)
    rho_k = (x.unit_k + z.unit_k) % 4  # rho = i^rho_k
    for r in parabola_range(base, z.qexp, win_s):
        e_r = base * comb2(r) + r * z.qexp
        sigma = min(sigma, e_r)
        lead_k = 2 * r + z.unit_k * r  # (-1)^r z.unit^r = i^lead_k
        d = base * (r - 1) + x.qexp + z.qexp
        if d > 0:
            for t in range(math.ceil((win_s - e_r) / d)):
                put(e_r + t * d, GaussianRational.i_power(lead_k + rho_k * t))
        elif d < 0:
            for t in range(1, math.ceil((win_s - e_r) / -d)):
                put(e_r - t * d, -GaussianRational.i_power(lead_k - rho_k * t))
        else:
            put(e_r, GaussianRational.i_power(lead_k) / (QI_ONE - GaussianRational.i_power(rho_k)))

    s = QSeries(terms, win_s)
    win_d = max(o_z + base, order + 2 * o_z - min(sigma, Fraction(0)) + pad(base))
    denom = jtheta(z, base, win_d)
    return require_order(s / denom, order, "appell")
