"""Independent brute-force oracles for the test suite.

Everything here works on plain ``dict[Fraction, Fraction]`` polynomials (or
``dict[Fraction, Gauss]`` where coefficients are non-real) and never touches
the package's series or coefficient types, so expected values computed from
these stay independent of the code paths they check.  The exceptions are
the two writers at the end, the records form of the JSON wire form and the
text form: they read a series only through its Fraction view and build one
only through the Fraction-keyed constructor.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from qstrings.series import GaussianRational, QSeries

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

    __radd__ = __add__

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gauss.of(other)

    def __rsub__(self, other):
        return Gauss.of(other) + -self

    def __mul__(self, other):
        o = Gauss.of(other)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

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


def ord_bound(a: dict, trunc):
    """The least exponent of a truncated series, or its trunc when it has no
    known term: a lower bound for the exponent of any term, known or not."""
    return min(a) if a else trunc


def truncated_mul(a: dict, ta, b: dict, tb) -> tuple:
    """(a*b, its trunc) for two series given as terms and trunc: the product
    is exact below min(ta + ord b, tb + ord a)."""
    t = min(ta + ord_bound(b, tb), tb + ord_bound(a, ta))
    return poly_mul(a, b, t), t


def truncated_div(a: dict, ta, f: dict, tf) -> tuple:
    """(a/f, its trunc) for two series given as terms and trunc, f with a
    known term: the quotient is exact below min(ta - v, ord a + tf - 2v),
    v = ord f."""
    v = min(f)
    t = min(ta - v, ord_bound(a, ta) + tf - 2 * v)
    return poly_div(a, f, t), t


def poly_add(a: dict, b: dict, bound) -> dict:
    """a + b below `bound`, zero sums dropped."""
    out = {e: c for e, c in a.items() if e < bound}
    for e, c in b.items():
        if e < bound:
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def poly_truncate(a: dict, bound) -> dict:
    return {e: c for e, c in a.items() if e < bound}


def poly_scale(a: dict, c) -> dict:
    """c*a for a scalar c, zeros dropped."""
    return {e: v * c for e, v in a.items() if v * c}


def poly_first_mismatch(a: dict, b: dict, bound):
    """(e, a_e, b_e) at the least exponent e < bound where a and b differ,
    or None; a missing term reads as None."""
    diff = [e for e in a.keys() | b.keys() if e < bound and a.get(e) != b.get(e)]
    if not diff:
        return None
    e = min(diff)
    return e, a.get(e), b.get(e)


def poly_shift(a: dict, c, d: Fraction) -> dict:
    """c*q^d*a: every exponent moves by d, every coefficient is multiplied by c."""
    return {e + d: v * c for e, v in a.items()}


def poly_substitute_power(a: dict, r: Fraction) -> dict:
    """a(q^r): every exponent is multiplied by r."""
    return {e * r: v for e, v in a.items()}


def poly_substitute_q_neg(a: dict) -> dict:
    """a(-q) for integer exponents: odd exponents change sign."""
    return {e: -v if e.numerator % 2 else v for e, v in a.items()}


def product_expand(factors, bound: Fraction) -> dict:
    """Expand a product of (1 - c*q^e) binomial factors below `bound`; c may
    be a Gauss and e may be 0.  Each step drops the terms at or above
    `bound`, which is exact when the factors with e < 0 come first and
    bound > 0."""
    acc = {F(0): F(1)}
    for c, e in factors:
        factor = {F(0): F(1)}
        factor[F(e)] = factor.get(F(e), 0) - c
        acc = poly_mul(acc, factor, bound)
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


def hecke_double_sum(a: int, b: int, c: int, xu: Gauss, xe: Fraction, yu: Gauss, ye: Fraction,
                     base: Fraction, bound: Fraction, both: bool = True) -> dict:
    """f_{a,b,c}(x, y, q^base) below `bound` as {exponent: Gauss}, with
    x = xu*q^xe and y = yu*q^ye: the sum over r, s >= 0 minus the sum over
    r, s < 0 (left out when not `both`) of (-1)^(r+s) x^r y^s q^(base*Q(r,s)),
    Q(r,s) = a*C(r,2) + b*r*s + c*C(s,2).

    On both quadrants b*r*s >= 0, so E(r,s) >= P(r) + S(s) with
    P(r) = base*a*C(r,2) + r*xe and S(s) = base*c*C(s,2) + s*ye. The box
    |r| <= R, |s| <= Rs is taken wide enough that P(r) + min S >= bound for
    every |r| > R (likewise for s), and all of it is summed.
    """
    def low(k, e):  # the least real value of base*k*C(t,2) + t*e
        h = base * k / 2
        return -(e - h) ** 2 / (4 * h)

    def radius(k, e, rest):  # |t| > R gives base*k*C(t,2) + t*e >= bound - rest
        h = base * k / 2
        R = 0
        while R < abs(e) / h + 1 or h * R * R - (h + abs(e)) * R < bound - rest:
            R += 1
        return R

    R = radius(a, xe, low(c, ye))
    Rs = radius(c, ye, low(a, xe))

    def powers(u, n):  # {t: (-u)^t for |t| <= n}, by repeated multiplication
        out = {0: Gauss(F(1))}
        step, back = -u, Gauss(F(1)) / -u
        for t in range(1, n + 1):
            out[t] = out[t - 1] * step
            out[-t] = out[1 - t] * back
        return out

    xp, yp = powers(xu, R), powers(yu, Rs)
    out: dict = {}
    for r in range(-R, R + 1):
        for s in range(-Rs, Rs + 1):
            if r >= 0 and s >= 0:
                sign = 1
            elif r < 0 and s < 0 and both:
                sign = -1
            else:
                continue
            e = base * (a * F(r * (r - 1), 2) + b * r * s + c * F(s * (s - 1), 2)) + r * xe + s * ye
            if e < bound:
                out[e] = out.get(e, Gauss(F(0))) + xp[r] * yp[s] * sign
    return {e: v for e, v in out.items() if v}


def appell_numerator(xu: Gauss, xe: Fraction, zu: Gauss, ze: Fraction, base: Fraction,
                     bound: Fraction) -> dict:
    """j(z; q^base) * m(x, q^base, z) below `bound` as {exponent: Gauss},
    with x = xu*q^xe and z = zu*q^ze: the sum over r of
    (-1)^r z^r q^(base*C(r,2)) / (1 - rho q^d), rho = xu*zu and
    d = base*(r-1) + xe + ze.  Each quotient is expanded term by term: as
    sum over t >= 0 of rho^t q^(t*d) for d > 0, as -sum over t >= 1 of
    rho^-t q^(-t*d) for d < 0, and as the constant 1/(1 - rho) for d = 0.

    The term for r has no exponent below e_r = base*C(r,2) + r*ze.  The box
    |r| <= R is taken wide enough that e_r >= bound for every |r| > R, and
    all of it is summed.
    """
    h = base / 2
    R = 0
    while R < abs(ze) / h + 1 or h * R * R - (h + abs(ze)) * R < bound:
        R += 1
    rho = xu * zu
    out: dict = {}
    lead = Gauss(F(1))  # (-zu)^r, starting at r = -R
    for _ in range(R):
        lead = lead / -zu
    for r in range(-R, R + 1):
        e_r = base * F(r * (r - 1), 2) + r * ze
        d = base * (r - 1) + xe + ze
        if d == 0:
            if e_r < bound:
                out[e_r] = out.get(e_r, Gauss(F(0))) + lead / (1 - rho)
        else:
            # the first term's exponent and coefficient, then the common ratio
            if d > 0:
                e, c, step, ratio = e_r, lead, d, rho
            else:
                e, c, step, ratio = e_r - d, -lead / rho, -d, Gauss(F(1)) / rho
            while e < bound:
                out[e] = out.get(e, Gauss(F(0))) + c
                e, c = e + step, c * ratio
        lead = lead * -zu
    return {e: v for e, v in out.items() if v}


# -- the Fraction plan of a theta quotient ----------------------------------------


def parabola_scan(a: Fraction, b: Fraction, w: Fraction) -> list:
    """The integers n with a*C(n,2) + b*n < w, a > 0, by a walk each way
    from the integer nearest the vertex n = 1/2 - b/a, the least value of
    the parabola on the integers; the values grow along either walk."""
    def f(n):
        return a * F(n * (n - 1), 2) + b * n

    mid = round(F(1, 2) - b / a)
    out = []
    for n, step in ((mid, 1), (mid - 1, -1)):
        while f(n) < w:
            out.append(n)
            n += step
    return sorted(out)


def theta_is_zero(unit_k: int, qexp: Fraction, base: Fraction) -> bool:
    """j(i^unit_k q^qexp; q^base) = 0 iff the argument is an integral power
    of the modulus."""
    return unit_k == 0 and (qexp / base).denominator == 1


def theta_valuation(qexp: Fraction, base: Fraction) -> Fraction:
    """The least of base*C(n,2) + n*qexp: the parabola's minimum lies at
    n = 1/2 - qexp/base, so it is taken at its floor or the next integer."""
    lo = math.floor(F(1, 2) - qexp / base)
    return min(base * F(n * (n - 1), 2) + n * qexp for n in (lo, lo + 1))


@dataclass(frozen=True)
class QuotientPlan:
    """The plan of a theta quotient, each factor's entries in factor order,
    numerators first."""

    valuations: list
    deficit: Fraction
    windows: list  # each factor is computed exact below its window
    ranges: list  # the n of each factor's sum, below its window plus the slack


def theta_quotient_plan(num, den, order: Fraction, pre_qexp: Fraction, k: int):
    """(zeros, plan) for a quotient of factors (unit_k, qexp, base) under an
    audit slack of k steps: one zero test per factor, and the plan, or None
    when some factor vanishes.  Factor j(x; q^b) of valuation v is computed
    exact below v + max(d, b) + k*b, d = order - pre_qexp - (sum of num
    valuations - sum of den valuations), and its sum runs over the n whose
    exponent lies below that window plus k*b."""
    factors = list(num) + list(den)
    zeros = [theta_is_zero(*f) for f in factors]
    if any(zeros):
        return zeros, None
    vals = [theta_valuation(e, b) for _, e, b in factors]
    deficit = order - pre_qexp - sum(vals[:len(num)]) + sum(vals[len(num):])
    windows = [v + max(deficit, b) + k * b for v, (_, _, b) in zip(vals, factors)]
    ranges = [parabola_scan(b, e, w + k * b) for w, (_, e, b) in zip(windows, factors)]
    return zeros, QuotientPlan(vals, deficit, windows, ranges)


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


# -- the records form of the JSON wire form -----------------------------------


def series_to_json_terms(s: QSeries) -> list:
    """One record per term of a QSeries, ascending exponent, each exponent and
    each part in lowest terms as Fraction reduces them:
    ``json.dumps`` of this list is the wire form."""
    return [{"num": e.numerator, "den_exp": e.denominator, "re_num": c.re.numerator,
             "re_den": c.re.denominator, "im_num": c.im.numerator, "im_den": c.im.denominator}
            for e, c in s.items_sorted()]


def series_from_json_terms(records, trunc) -> QSeries:
    """The QSeries the records form describes, exact below `trunc`."""
    return QSeries({F(r["num"], r["den_exp"]): GaussianRational(F(r["re_num"], r["re_den"]),
                                                                  F(r["im_num"], r["im_den"]))
                    for r in records}, trunc)


# -- the text form, term by term through the Fraction view ----------------------


def coeff_text(c) -> str:
    """A GaussianRational as the text form spells it."""
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
    m = abs(c.im)
    ims = "i" if m == 1 else (f"{m}i" if m.denominator == 1 else f"({m})i")
    return f"({c.re}{'-' if c.im < 0 else '+'}{ims})"


def term_text(c, e: Fraction) -> str:
    """The term c*q^e."""
    if e == 0:
        return coeff_text(c)
    if e == 1:
        qp = "q"
    elif e.denominator == 1 and e > 0:
        qp = f"q^{e}"
    else:
        qp = f"q^({e})"
    if c.im == 0 and c.re == 1:
        return qp
    if c.im == 0 and c.re == -1:
        return f"-{qp}"
    cs = coeff_text(c)
    if "/" in cs and not cs.startswith("("):
        cs = f"({cs})"
    return f"{cs}{qp}"


def format_series_items(s: QSeries, max_terms=None) -> str:
    """The text form of a QSeries from its ``items_sorted`` view: the terms in
    ascending exponent joined by + and -, "+ ..." past `max_terms` of them,
    "0" for none, and "+ O(q^trunc)" when the trunc is finite."""
    items = s.items_sorted()
    shown = items if max_terms is None else items[:max_terms]
    parts = []
    for e, c in shown:
        t = term_text(c, e)
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
    if s.trunc != math.inf:
        tr = Fraction(s.trunc)
        ts = f"q^{tr}" if tr.denominator == 1 and tr >= 0 else f"q^({tr})"
        parts.append(f"+ O({ts})")
    return " ".join(parts)
