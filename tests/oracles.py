"""Independent brute-force oracles for the test suite.

Everything here works on plain ``dict[Fraction, Fraction]`` polynomials (or
``dict[Fraction, Gauss]`` where coefficients are non-real) and never touches
the package's series or coefficient types, so expected values computed from
these stay independent of the code paths they check.
"""

from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class Gauss:
    """re + im*i with Fraction parts: a minimal Gaussian rational."""

    re: Fraction
    im: Fraction = F(0)

    @staticmethod
    def of(x) -> "Gauss":
        return x if isinstance(x, Gauss) else Gauss(F(x))

    def __add__(self, other):
        o = Gauss.of(other)
        return Gauss(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gauss.of(other)

    def __rsub__(self, other):
        return Gauss.of(other) + -self

    def __mul__(self, other):
        o = Gauss.of(other)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, other):
        o = Gauss.of(other)
        n = o.re * o.re + o.im * o.im
        return self * Gauss(o.re / n, -o.im / n)

    def __bool__(self):
        return bool(self.re or self.im)


def poly_mul(a: dict, b: dict, bound: Fraction) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e >= bound:
                continue
            out[e] = out.get(e, F(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_div(a: dict, f: dict, bound) -> dict:
    """The quotient a/f below `bound` by remainder long division.

    Repeatedly takes the least exponent e left in the remainder and subtracts
    c*q^(e - v)*f, c = r_e/f_v, v = min(f); stops once e - v reaches `bound`.
    Coefficients are Fractions or Gauss values.
    """
    v = min(f)
    r = {e: c for e, c in a.items() if c}
    out: dict = {}
    while r:
        e = min(r)
        if e - v >= bound:
            break
        c = r.pop(e) / f[v]
        out[e - v] = c
        for ef, cf in f.items():
            if ef != v:
                k = e - v + ef
                r[k] = r.get(k, 0) - c * cf
                if not r[k]:
                    del r[k]
    return out


def product_expand(factors, bound: Fraction) -> dict:
    """Expand a product of (1 - c*q^e) binomial factors below `bound`."""
    acc = {F(0): F(1)}
    for c, e in factors:
        acc = poly_mul(acc, {F(0): F(1), F(e): -F(c)}, bound)
    return acc


def pochhammer_product(x_coeff: Fraction, x_exp: Fraction, base: Fraction, bound: Fraction) -> dict:
    """(x; q^base)_inf as a brute-force product, x = x_coeff * q^x_exp."""
    factors = []
    i = 0
    while x_exp + i * base < bound:
        factors.append((x_coeff, x_exp + i * base))
        i += 1
    return product_expand(factors, bound)


def jtheta_sum_gaussian(unit_k: int, x_exp: Fraction, base: Fraction, bound: Fraction) -> dict:
    """j(i^unit_k q^x_exp; q^base) as {exponent: (re, im)} with integer parts.

    The n-th term has coefficient (-1)^n i^(unit_k*n) = i^((2+unit_k)*n).
    """
    powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    out: dict = {}
    n = 0
    while True:  # walk both arms from 0; quadratic exponents terminate each arm
        added = False
        for m in ({n, -n} if n else {0}):
            e = base * F(m * (m - 1), 2) + m * x_exp
            if e < bound:
                re, im = out.get(e, (0, 0))
                dre, dim = powers[(2 + unit_k) * m % 4]
                out[e] = (re + dre, im + dim)
                added = True
        if not added and n > 2 * (abs(x_exp) / base + 2):
            break
        n += 1
    return {e: c for e, c in out.items() if c != (0, 0)}


def jtheta_sum_bruteforce(x_coeff: int, x_exp: Fraction, base: Fraction, bound: Fraction) -> dict:
    """j(x; q^base) for x = x_coeff * q^x_exp with x_coeff = +-1."""
    parts = jtheta_sum_gaussian(0 if x_coeff == 1 else 2, x_exp, base, bound)
    return {e: F(re) for e, (re, _im) in parts.items()}


def partition_counts(n: int) -> list:
    """p(0..n) by the classic coin-DP."""
    p = [0] * (n + 1)
    p[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def int_coeffs(d: dict, upto: int) -> list:
    """Dense integer-exponent coefficient list [q^0..q^(upto-1)]."""
    out = []
    for k in range(upto):
        c = d.get(F(k), F(0))
        assert c.denominator == 1
        out.append(int(c))
    return out
