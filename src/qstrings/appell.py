"""The Appell-Lerch function m(x, q^base, z), truncated exactly.

m(x,q,z) = (1/j(z;q)) * sum over r of (-1)^r q^C(r,2) z^r / (1 - q^(r-1) x z).

Each denominator 1/(1 - rho q^d) with d = base*(r-1) + x.qexp + z.qexp and
rho the product of the units of x and z expands geometrically forward for
d > 0, is rewritten as -sum_{t>=1} rho^-t q^(-t*d) for d < 0, and is the
constant 1/(1-rho) for d = 0 with rho != 1.  d is linear in r, so at most
one term has d = 0; its coefficient is half a Gaussian integer, so the
numerator sum is summed twice, as ints over the coefficient denominator 2.

Every range is cut exactly, in closed form: the term for r contributes
nothing below m+(r) = base*C(r,2) + r*z.qexp (the d < 0 branch starts even
higher), so the r with m+(r) below the window are ``theta.int_parabola``
of that parabola, and each geometric series stops at the first t with
m+(r) + t*|d| at or above the window, t = ceil((window - m+(r)) / |d|).

Both windows are exact.  The ``QSeries`` division contract makes s/j(z)
exact below min(s.trunc - o_z, ord(s) + j.trunc - 2*o_z), o_z <= 0 the
valuation of j(z; q^base).  The sum s is taken below order + o_z, so the
first part is the order: terms of s from order + o_z up would land at or
above the order and be cut.  The sum starts at or above sigma, the least
e_r summed, and j(z) is taken below order + 2*o_z - sigma, so the second
part is at least sigma + (order + 2*o_z - sigma) - 2*o_z = order too.

Planning runs on ints: on the lattice 1/D of base, x, z and the order, the
valuation of j(z), both windows, sigma and every exponent are int
numerators over D, and j(z; q^base) is ``theta.int_jtheta`` on that lattice.
"""

from __future__ import annotations

from math import lcm

from .series import UNIT_PAIRS, Monomial, QSeries, Rat, on_lattice, pad, require_order
from .theta import ThetaZeroDenominator, comb2, int_is_zero, int_jtheta, int_parabola, int_valuation


# rho_k: 2/(1 - i^rho_k) as an (re, im) pair; rho_k = 0 is a pole
_TWICE_GEOMETRIC = {1: (1, 1), 2: (1, 0), 3: (1, -1)}


class PoleAtXZ(Exception):
    """x*z is an integral power of the modulus: a term of the sum has a pole."""


def appell_m(x: Monomial, base: Rat, z: Monomial, order: Rat) -> QSeries:
    """m(x, q^base, z) exact below `order`."""
    if base <= 0:
        raise ValueError("base must be positive")
    # every exponent in units of 1/D: e_r = base*C(r,2) + r*z.qexp is
    # Bc*C(r,2) + r*Z, d is Bc*(r-1) + X + Z, and every window is an int
    D = lcm(base.denominator, x.qexp.denominator, z.qexp.denominator, order.denominator)
    Bc, X, Z, T = (on_lattice(r, D) for r in (base, x.qexp, z.qexp, order))
    rho_k = (x.unit_k + z.unit_k) % 4  # rho = i^rho_k, the unit of x*z
    if int_is_zero(z.unit_k, Z, Bc):
        raise ThetaZeroDenominator(f"j({z}; q^{base}) = 0: z may not be a power of the modulus")
    if int_is_zero(rho_k, X + Z, Bc):
        raise PoleAtXZ(f"x*z = {x * z} is an integral power of q^{base}")

    o_z = int_valuation(Z, Bc)  # <= 0, the exponent of the n = 0 term of j(z)
    W = T + o_z + pad(Bc)  # win_s
    real, imag = {}, {}  # twice the sum, over the coefficient denominator 2
    sigma = 0
    for r in int_parabola(Bc, Z, W):
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
            real[e_r] = real.get(e_r, 0) + ar * ur - ai * ui
            imag[e_r] = imag.get(e_r, 0) + ar * ui + ai * ur
            continue
        for k, u in run:  # i^u: +-1 is real, +-i imaginary
            part = imag if u & 1 else real
            part[k] = part.get(k, 0) + 2 - 2 * (u & 2)

    s = QSeries.below(D, real, imag, W, 2)
    W_d = max(o_z + Bc, T + 2 * o_z - sigma + pad(Bc))  # win_d; sigma <= 0
    denom = int_jtheta(z.unit_k, Z, Bc, D, W_d)
    return require_order(s / denom, order, "appell")
