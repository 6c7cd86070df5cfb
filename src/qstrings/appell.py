"""The Appell-Lerch function m(x, q^base, z), truncated exactly.

m(x,q,z) = (1/j(z;q)) * sum over r of (-1)^r q^C(r,2) z^r / (1 - q^(r-1) x z).

Each denominator 1/(1 - rho q^d) with d = base*(r-1) + x.qexp + z.qexp and
rho the product of the units of x and z expands geometrically forward for
d > 0, is rewritten as -sum_{t>=1} rho^-t q^(-t*d) for d < 0, and is the
constant 1/(1-rho) for d = 0 with rho != 1.  d is linear in r, so at most
one term has d = 0; its coefficient is half a Gaussian integer, the one
term of the numerator sum over the coefficient denominator 2.

Every range is cut exactly, in closed form: the term for r contributes
nothing below m+(r) = base*C(r,2) + r*z.qexp (the d < 0 branch starts even
higher), so the r with m+(r) below the window are ``theta.parabola_range``
of that parabola, and each geometric series stops at the first t with
m+(r) + t*|d| at or above the window, t = ceil((window - m+(r)) / |d|).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import UNIT_PAIRS, Monomial, QSeries, Rat, pad, require_order
from .theta import (ThetaZeroDenominator, comb2, is_theta_zero, jtheta, jtheta_valuation,
                    parabola_range)


# rho_k: 2/(1 - i^rho_k) as an (re, im) pair; rho_k = 0 is a pole
_TWICE_GEOMETRIC = {1: (1, 1), 2: (1, 0), 3: (1, -1)}


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

    # every exponent in units of 1/D: e_r = base*C(r,2) + r*z.qexp is
    # Bc*C(r,2) + r*Z, d is Bc*(r-1) + X + Z, and e < win_s is e*D < W
    D = math.lcm(base.denominator, x.qexp.denominator, z.qexp.denominator)
    Bc, X, Z, W = int(base * D), int(x.qexp * D), int(z.qexp * D), math.ceil(win_s * D)
    real, imag = {}, {}
    half = QSeries.zero()
    sigma = 0
    rho_k = (x.unit_k + z.unit_k) % 4  # rho = i^rho_k
    for r in parabola_range(base, z.qexp, win_s):
        e_r = Bc * comb2(r) + r * Z
        sigma = min(sigma, e_r)
        lead_k = 2 * r + z.unit_k * r  # (-1)^r z.unit^r = i^lead_k
        d = Bc * (r - 1) + X + Z
        if d > 0:  # i^(lead_k + rho_k*t) q^(e_r + t*d) for e_r + t*d < W
            run = [(e_r + t * d, lead_k + rho_k * t) for t in range(-((e_r - W) // d))]
        elif d < 0:  # -i^(lead_k - rho_k*t) q^(e_r - t*d) for t >= 1
            run = [(e_r - t * d, lead_k - rho_k * t + 2) for t in range(1, -((e_r - W) // -d))]
        else:  # i^lead_k / (1 - rho), half a Gaussian integer; d is linear in r, so one r gets here
            (ar, ai), (ur, ui) = _TWICE_GEOMETRIC[rho_k], UNIT_PAIRS[lead_k & 3]
            half = QSeries.lattice(D, {e_r: ar * ur - ai * ui}, {e_r: ar * ui + ai * ur}, win_s, 2)
            continue
        for k, u in run:  # i^u: +-1 is real, +-i imaginary
            part = imag if u & 1 else real
            part[k] = part.get(k, 0) + 1 - (u & 2)

    s = QSeries.lattice(D, real, imag, win_s) + half
    sigma = Fraction(sigma, D)
    win_d = max(o_z + base, order + 2 * o_z - min(sigma, Fraction(0)) + pad(base))
    denom = jtheta(z, base, win_d)
    return require_order(s / denom, order, "appell")
