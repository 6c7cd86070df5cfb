"""The registered identities: 300 cases in eight suites.

Importing this module builds every case, once per process, in registration
order; ``verify.registry`` imports it on its first call, so ``qstrings eval``
and ``qstrings string`` never compile or build the cases.  Each case is an
:class:`~qstrings.verify.IdentityCase`: a named pair of series builders plus
lattice/order metadata.

Identities quantified over generic arguments are registered once per
documented sample point, with the instantiation in the case id, so a
failure names the exact specialization that broke.  The builders bind the
constructors as this module imports them, so a wrapper installed on a
constructor before the first ``verify.registry()`` call sees every call.
"""

from __future__ import annotations

from fractions import Fraction

from . import strings
from .appell import appell_m
from .hecke import (
    MINUS_ONE,
    acdivb_rhs,
    genfn_rhs,
    hecke_f,
    hecke_flip_rhs,
    hecke_shift_rhs,
    master_fnp_rhs,
    singshift_rhs,
)
from .series import Monomial, QSeries
from .strings import (
    C_full,
    StringLabel,
    calC_hecke,
    calC_oracle,
    kp_eta_side,
    kp_string_side,
    level_theta_side,
    mps_cor2_rhs,
    mps_cor3_rhs,
    mps_split_rhs,
    normalized_theta_form,
)
from .theta import (
    J,
    Jbar,
    Jm,
    comb2,
    eta,
    j_split_components,
    jtheta,
    jtheta_prod,
    pochhammer,
)
from .verify import IdentityCase

F = Fraction
q = Monomial.q
mq = Monomial.mq

CASES: list = []  # every IdentityCase, in registration order


def _case(cid, suite, lhs, rhs, den=1, order=30, ref=""):
    CASES.append(IdentityCase(cid, suite, lhs, rhs, den, F(order), ref))


# ---- notation suite ----


def _register_notation():
    _case("poch/J1-is-theta", "notation",
          lambda T: pochhammer(q(1), 1, None, T), lambda T: J(1, 3, T),
          ref="(q;q)_inf as the theta j(q;q^3)")
    _case("poch/empty-product", "notation",
          lambda T: pochhammer(q(1), 1, 0, T), lambda T: QSeries.one(T),
          ref="(x;q)_0 = 1")
    _case("poch/zero-argument", "notation",
          lambda T: jtheta(q(2), 1, T), lambda T: QSeries.zero(),
          ref="j vanishes at integral powers of the modulus")
    _case("eta/definition", "notation",
          lambda T: eta(1, T),
          lambda T: Jm(1, T - F(1, 24)).shift(Monomial(0, F(1, 24))),
          den=24, ref="eta = q^(1/24) (q;q)_inf")
    _case("eta/half-argument", "notation",
          lambda T: eta(F(1, 2), T),
          lambda T: Jm(1, 2 * T).substitute_power(F(1, 2)).shift(Monomial(0, F(1, 48))).truncate(T),
          den=48, order=10, ref="eta at tau/2 via q -> q^(1/2)")
    _case("subst/fifth-to-fifteenth", "notation",
          lambda T: J(2, 5, 3 * T).substitute_power(F(1, 3)).truncate(T),
          lambda T: jtheta(q(F(2, 3)), F(5, 3), T),
          den=3, order=20, ref="q -> q^(1/3) substitution in J_{2,5}")

    def partition_gf(T):
        n = int(T) + 1
        p = [0] * n
        p[0] = 1
        for part in range(1, n):
            for total in range(part, n):
                p[total] += p[total - part]
        return QSeries({F(k): p[k] for k in range(n)}, T)

    _case("poch/partition-inverse", "notation",
          lambda T: Jm(1, T).inverse().truncate(T), partition_gf,
          order=24, ref="1/(q;q)_inf is the partition generating function")
    _case("jbar/doubling", "notation",
          lambda T: Jbar(0, 1, T), lambda T: Jbar(1, 4, T).scale(2),
          ref="the even-odd doubling of j(-1;q)")


# ---- theta suite ----

TRIPLE_SAMPLES = [
    (q(F(1, 2)), F(1)), (q(F(1, 3)), F(1)), (q(F(2, 3)), F(1)),
    (q(F(1, 5)), F(1)), (q(F(3, 5)), F(1)), (q(F(1, 7)), F(1)),
    (q(F(5, 7)), F(1)), (q(1), F(3)), (q(2), F(3)), (q(1), F(2)),
    (q(2), F(5)), (q(3), F(7)), (q(F(1, 2)), F(2)), (q(F(3, 2)), F(2)),
    (q(F(5, 2)), F(4)), (mq(0), F(1)), (mq(1), F(2)), (mq(1), F(3)),
    (mq(3), F(8)), (mq(2), F(5)), (mq(F(1, 2)), F(1)), (mq(F(1, 3)), F(2)),
    (mq(F(5, 3)), F(2)), (q(F(7, 3)), F(3)), (mq(6), F(24)),
]

GENERIC_X = [q(F(1, 5)), mq(F(2, 7)), q(3), Monomial(1, F(1, 2)), q(F(3, 7))]
GENERIC_Y = [q(F(1, 3)), q(F(2, 5)), mq(F(1, 7)), q(F(5, 7)), Monomial(3, F(1, 3))]

WEIERSTRASS_QUADS = [
    (q(F(1, 5)), q(F(1, 7)), q(F(1, 11)), q(F(1, 13)), F(1)),
    (q(F(2, 5)), q(F(3, 7)), q(F(5, 11)), q(F(4, 13)), F(1)),
    (mq(F(1, 5)), q(F(1, 7)), q(F(1, 11)), q(F(1, 13)), F(1)),
    (q(F(1, 2)), q(F(1, 5)), q(F(1, 7)), q(F(1, 11)), F(1)),
    (q(F(1, 3)), mq(F(1, 5)), q(F(2, 7)), q(F(3, 11)), F(1)),
    (q(F(3, 5)), q(F(2, 7)), mq(F(5, 11)), q(F(1, 13)), F(1)),
    (q(F(1, 5)), q(F(4, 7)), q(F(2, 11)), mq(F(3, 13)), F(1)),
    (q(F(2, 5)), q(F(1, 7)), q(F(3, 11)), Monomial(1, F(1, 13)), F(1)),
    (q(F(1, 7)), q(F(1, 5)), q(F(1, 13)), q(F(1, 11)), F(1)),
    (mq(5), q(4), q(2), Monomial(3, F(0)), F(12)),
]


def _register_theta():
    for k, (x, base) in enumerate(TRIPLE_SAMPLES):
        den = (x.qexp / base).denominator * 2
        _case(f"triple-product/{k:02d}[x={x},b=q^{base}]", "theta",
              (lambda T, x=x, b=base: jtheta(x, b, T)),
              (lambda T, x=x, b=base: jtheta_prod(x, b, T)),
              den=den, ref="sum and product forms of j agree")

    rearr = [
        ("jbar01", lambda T: Jbar(0, 1, T) * Jm(1, T), lambda T: Jm(2, T) ** 2 * 2, 1),
        ("jbar12", lambda T: Jbar(1, 2, T) * Jm(1, T) ** 2 * Jm(4, T) ** 2,
         lambda T: Jm(2, T) ** 5, 1),
        ("j12", lambda T: J(1, 2, T) * Jm(2, T), lambda T: Jm(1, T) ** 2, 1),
        ("jbar13", lambda T: Jbar(1, 3, T) * Jm(1, T) * Jm(6, T),
         lambda T: Jm(2, T) * Jm(3, T) ** 2, 1),
        ("j14", lambda T: J(1, 4, T) * Jm(2, T), lambda T: Jm(1, T) * Jm(4, T), 1),
        ("j16", lambda T: J(1, 6, T) * Jm(2, T) * Jm(3, T),
         lambda T: Jm(1, T) * Jm(6, T) ** 2, 1),
        ("jbar16", lambda T: Jbar(1, 6, T) * Jm(1, T) * Jm(4, T) * Jm(6, T),
         lambda T: Jm(2, T) ** 2 * Jm(3, T) * Jm(12, T), 1),
    ]
    for name, lhs, rhs, den in rearr:
        _case(f"rearrange/{name}", "theta", lhs, rhs, den=den,
              ref="standard product rearrangement")

    for n in (-2, -1, 1, 2):
        for x in (GENERIC_X[0], GENERIC_X[1]):
            def lhs(T, n=n, x=x):
                return jtheta(Monomial(0, F(n)) * x, 1, T)

            def rhs(T, n=n, x=x):
                shift = Monomial(2 * n - n * x.unit_k, -comb2(n) - n * x.qexp)
                return jtheta(x, 1, T - shift.qexp).shift(shift)

            _case(f"elliptic/n={n}[x={x}]", "theta", lhs, rhs,
                  den=x.qexp.denominator, ref="quasi-periodicity of j")

    for x in (GENERIC_X[0], GENERIC_X[1], GENERIC_X[3]):
        _case(f"reflect[x={x}]", "theta",
              (lambda T, x=x: jtheta(x, 1, T)),
              (lambda T, x=x: jtheta(Monomial(-x.unit_k, 1 - x.qexp), 1, T)),
              den=x.qexp.denominator, ref="j(x;q) = j(q/x;q)")

    for n in (2, 3):
        for x in (GENERIC_X[0], GENERIC_X[3]):
            def lhs(T, n=n, x=x):
                return jtheta(x, 1, T) * (Jm(n, T) ** n)

            def rhs(T, n=n, x=x):
                out = Jm(1, T)
                for k in range(n):
                    out = out * jtheta(Monomial(0, F(k)) * x, n, T)
                return out

            _case(f"dissect/n={n}[x={x}]", "theta", lhs, rhs,
                  den=x.qexp.denominator, ref="modulus dissection of j")

    for n in (2, 4):
        for x in (q(F(1, 5)), q(F(2, 7))):
            def lhs(T, n=n, x=x):
                return jtheta(x ** n, n, T) * (Jm(1, T) ** n)

            def rhs(T, n=n, x=x):
                out = Jm(n, T)
                for u in range(n):
                    out = out * jtheta(Monomial(u * (4 // n), F(0)) * x, 1, T)
                return out

            _case(f"unity-dissect/n={n}[x={x}]", "theta", lhs, rhs,
                  den=x.qexp.denominator,
                  ref="roots-of-unity dissection (all factors at the base modulus)")

    from .theta import theta_quotient as _tq

    for k, (a, b, c, d, base) in enumerate(WEIERSTRASS_QUADS):
        def lhs(T, a=a, b=b, c=c, d=d, base=base):
            return _tq([(a * c, base), (a / c, base), (b * d, base), (b / d, base)], [], T)

        def rhs(T, a=a, b=b, c=c, d=d, base=base):
            r1 = _tq([(a * d, base), (a / d, base), (b * c, base), (b / c, base)], [], T)
            r2 = _tq([(a * b, base), (a / b, base), (c * d, base), (c / d, base)], [], T,
                     prefactor=b / c)
            return r1 + r2

        den = 5 * 7 * 11 * 13 * 2 * 3
        _case(f"weierstrass/{k:02d}", "theta", lhs, rhs, den=den, order=20,
              ref="three-term relation for theta quotients")

    for k, (x, y) in enumerate(zip(GENERIC_X[:2], GENERIC_Y[:2])):
        def lhs(T, x=x, y=y):
            return _tq([(x, 1), (y, 1)], [], T)

        def rhs(T, x=x, y=y):
            t1 = _tq([(-(x * y), 2), (-(q(1) / x * y), 2)], [], T)
            t2 = _tq([(-(q(1) * x * y), 2), (-(y / x), 2)], [], T, prefactor=x, scalar=-1)
            return t1 + t2

        _case(f"two-square-split/{k}", "theta", lhs, rhs, den=105,
              ref="product of two thetas as two modulus-2 terms")

        def lhs_d(T, x=x, y=y):
            return _tq([(-x, 1), (y, 1)], [], T) - _tq([(x, 1), (-y, 1)], [], T)

        def rhs_d(T, x=x, y=y):
            return _tq([(y / x, 2), (q(1) * x * y, 2)], [], T, prefactor=x, scalar=2)

        _case(f"sign-difference/{k}", "theta", lhs_d, rhs_d, den=105,
              ref="difference of sign-flipped theta products")

        def lhs_s(T, x=x, y=y):
            return _tq([(-x, 1), (y, 1)], [], T) + _tq([(x, 1), (-y, 1)], [], T)

        def rhs_s(T, x=x, y=y):
            return _tq([(x * y, 2), (q(1) * y / x, 2)], [], T, scalar=2)

        _case(f"sign-sum/{k}", "theta", lhs_s, rhs_s, den=105,
              ref="sum of sign-flipped theta products")

    for n in (1, 2):
        for k, (x, y) in enumerate(zip(GENERIC_X[:2], GENERIC_Y[:2])):
            def lhs(T, n=n, x=x, y=y):
                return _tq([(x, 1), (y, n)], [], T)

            def rhs(T, n=n, x=x, y=y):
                out = QSeries.zero()
                for kk in range(n + 1):
                    pref = Monomial(2 * kk + kk * x.unit_k, F(comb2(kk)) + kk * x.qexp)
                    in1 = Monomial(2 * n + n * x.unit_k + y.unit_k,
                                   F(comb2(n) + kk * n) + n * x.qexp + y.qexp)
                    in2 = Monomial(2 + y.unit_k - x.unit_k, F(1 - kk) - x.qexp + y.qexp)
                    out = out + _tq([(in1, n * (n + 1)), (in2, n + 1)], [], T, prefactor=pref)
                return out

            _case(f"split-law/n={n}/{k}", "theta", lhs, rhs, den=105,
                  ref="splitting a theta product across moduli")

    for mm, z, base, den in [(2, q(F(1, 2)), F(1), 2), (3, q(2), F(5), 1),
                             (12, q(F(1, 2)), F(1), 2)]:
        def lhs(T, z=z, base=base):
            return jtheta(z, base, T)

        def rhs(T, mm=mm, z=z, base=base):
            out = QSeries.zero()
            for comp in j_split_components(z, base, mm, T):
                out = out + comp
            return out

        _case(f"j-split/m={mm}", "theta", lhs, rhs, den=den, order=30,
              ref="the m-part decomposition of j")

    _case("level4/theta-evaluation", "theta",
          lambda T: (Jbar(1, 6, T) * Jbar(1, 3, T)).scale(2)
          + (Jbar(3, 6, T) * Jbar(3, 12, T)).scale(2),
          lambda T: Jbar(0, 1, T) * Jbar(0, 2, T),
          order=40, ref="the level-4 two-product evaluation")

    def jsplit12_rhs(T):
        def shifted(a, m, e, sc):
            return Jbar(a, m, T - e).shift(Monomial(0, e)).scale(sc)

        return (Jbar(12, 24, T) + shifted(0, 24, F(3), 1) + shifted(6, 24, F(3, 4), -2)
                + shifted(8, 24, F(1, 3), 2) + shifted(20, 24, F(4, 3), 2)
                + shifted(10, 24, F(1, 12), -2) + shifted(22, 24, F(25, 12), -2))

    _case("level4/twelfth-split", "theta",
          lambda T: jtheta(q(F(1, 12)), F(1, 6), T), jsplit12_rhs,
          den=12, order=10, ref="the 12-part split on the twelfth lattice")

    _case("split-chain/J25", "theta",
          lambda T: J(2, 5, T),
          lambda T: (J(21, 45, T) - J(36, 45, T - 2).shift(q(2))
                     - J(6, 45, T - 3).shift(q(3))),
          order=90, ref="three-part split of J_{2,5} (sign of the last term corrected)")
    _case("split-chain/J15", "theta",
          lambda T: J(1, 5, T),
          lambda T: (J(18, 45, T) - J(33, 45, T - 1).shift(q(1))
                     - J(3, 45, T - 4).shift(q(4))),
          order=90, ref="three-part split of J_{1,5}")
    _case("split-chain/J25-scaled", "theta",
          lambda T: jtheta(q(F(2, 3)), F(5, 3), T),
          lambda T: (J(7, 15, T) - J(12, 15, T - F(2, 3)).shift(Monomial(0, F(2, 3)))
                     - J(2, 15, T - 1).shift(q(1))),
          den=3, order=30, ref="the split after q -> q^(1/3)")
    _case("split-chain/J15-scaled", "theta",
          lambda T: jtheta(q(F(1, 3)), F(5, 3), T),
          lambda T: (J(6, 15, T) - J(11, 15, T - F(1, 3)).shift(Monomial(0, F(1, 3)))
                     - J(1, 15, T - F(4, 3)).shift(Monomial(0, F(4, 3)))),
          den=3, order=30, ref="the split after q -> q^(1/3)")


# ---- appell suite ----

APPELL_SAMPLES = [
    (q(F(2, 5)), F(1), q(F(1, 7))),
    (mq(F(1, 3)), F(1), q(F(2, 7))),
    (q(F(1, 2)), F(2), q(F(1, 3))),
    (mq(3), F(4), MINUS_ONE),
    (q(F(7, 5)), F(3), mq(F(1, 2))),
]

APPELL_Z_PAIRS = [
    (q(F(2, 5)), F(1), q(F(2, 7)), q(F(1, 7))),
    (mq(F(1, 3)), F(1), q(F(3, 7)), q(F(1, 5))),
    (q(F(1, 2)), F(2), q(F(1, 3)), mq(F(1, 5))),
    (mq(3), F(4), q(F(1, 2)), MINUS_ONE),
    (q(F(7, 5)), F(3), mq(F(5, 2)), q(F(1, 7))),
]


def _register_appell():
    _case("mxqz-eval/half", "appell",
          lambda T: appell_m(q(1), 2, MINUS_ONE, T),
          lambda T: QSeries.const(F(1, 2), T),
          order=40, ref="the constant 1/2 evaluation")
    _case("mxqz-eval/zero", "appell",
          lambda T: appell_m(MINUS_ONE, 2, q(1), T),
          lambda T: QSeries({}, T),
          order=40, ref="the vanishing evaluation")

    for k, (x, base, z) in enumerate(APPELL_SAMPLES):
        den = 2 * 5 * 7 * 3
        _case(f"z-period/{k}", "appell",
              (lambda T, x=x, b=base, z=z: appell_m(x, b, z, T)),
              (lambda T, x=x, b=base, z=z: appell_m(x, b, Monomial(0, b) * z, T)),
              den=den, order=25, ref="z -> qz invariance")
        _case(f"flip/{k}", "appell",
              (lambda T, x=x, b=base, z=z: appell_m(x, b, z, T)),
              (lambda T, x=x, b=base, z=z:
               appell_m(x ** -1, b, z ** -1, T + x.qexp).shift(x ** -1).truncate(T)),
              den=den, order=25, ref="x -> 1/x, z -> 1/z inversion")
        _case(f"x-step/{k}", "appell",
              (lambda T, x=x, b=base, z=z: appell_m(Monomial(0, b) * x, b, z, T)),
              (lambda T, x=x, b=base, z=z:
               (QSeries.one() - appell_m(x, b, z, T - x.qexp).shift(x)).truncate(T)),
              den=den, order=25, ref="the x -> qx recursion")

    for k, (x, base, z1, z0) in enumerate(APPELL_Z_PAIRS):
        def lhs(T, x=x, b=base, z1=z1, z0=z0):
            return appell_m(x, b, z1, T) - appell_m(x, b, z0, T)

        def rhs(T, x=x, b=base, z1=z1, z0=z0):
            from .theta import theta_quotient
            jm3 = (q(b), 3 * b)
            return theta_quotient(
                num=[(z1 / z0, b), (x * z0 * z1, b), jm3, jm3, jm3],
                den=[(z0, b), (z1, b), (x * z0, b), (x * z1, b)],
                order=T, prefactor=z0,
            )

        _case(f"change-z/{k}", "appell", lhs, rhs, den=2 * 5 * 7 * 3, order=25,
              ref="the two-z difference as a theta quotient")


# ---- hecke suite ----

HECKE_GENERIC = [
    (q(F(2, 7)), q(F(3, 5))),
    (q(F(1, 3)), q(F(1, 2))),
    (mq(F(2, 5)), q(F(1, 7))),
]


def _register_hecke():
    _case("f121/x=q,y=q", "hecke",
          lambda T: hecke_f(1, 2, 1, q(1), q(1), 1, T),
          lambda T: Jm(1, T) ** 2,
          ref="the level-1 double-sum evaluation")

    f131 = [
        ("x=q,y=q", q(1), q(1), lambda T: J(1, 2, T) * Jbar(3, 8, T)),
        ("x=q^2,y=q", q(2), q(1), lambda T: Jm(1, T) * Jm(2, T)),
        ("x=q^2,y=q^2", q(2), q(2), lambda T: J(1, 2, T) * Jbar(1, 8, T)),
    ]
    for tag, x, y, rhs in f131:
        _case(f"f131/{tag}", "hecke",
              (lambda T, x=x, y=y: hecke_f(1, 3, 1, x, y, 1, T)), rhs,
              ref="level-2 evaluation of the 1,3,1 double sum")

    f141 = [
        ("x=q,y=q", q(1), q(1),
         lambda T: Jm(1, T) * (J(8, 15, T) - J(2, 15, T - 1).shift(q(1)))),
        ("x=q^2,y=q", q(2), q(1), lambda T: Jm(1, T) * J(6, 15, T)),
        ("x=q^2,y=q^2", q(2), q(2),
         lambda T: Jm(1, T) * (J(11, 15, T) + J(1, 15, T - 1).shift(q(1)))),
        ("x=q^3,y=q^2", q(3), q(2), lambda T: Jm(1, T) * J(3, 15, T)),
    ]
    for tag, x, y, rhs in f141:
        _case(f"f141/{tag}", "hecke",
              (lambda T, x=x, y=y: hecke_f(1, 4, 1, x, y, 1, T)), rhs,
              ref="level-3 evaluation of the 1,4,1 double sum")

    n4 = [
        ("minus-pair", lambda T: (hecke_f(3, 3, 1, mq(2), q(1), 1, T)
                                  - hecke_f(3, 3, 1, mq(4), q(3), 1, T - 1).shift(q(1))),
         lambda T: Jm(1, T) * J(1, 2, T), 1),
        ("plus-pair", lambda T: (hecke_f(3, 3, 1, q(2), q(1), 1, T)
                                 + hecke_f(3, 3, 1, q(4), q(3), 1, T - 1).shift(q(1))),
         lambda T: Jm(1, T) * Jbar(3, 6, T), 1),
        ("f151-diagonal", lambda T: hecke_f(1, 5, 1, q(2), q(2), 1, T),
         lambda T: Jm(1, T) * Jbar(1, 6, T), 1),
        ("f331-column", lambda T: hecke_f(3, 3, 1, q(3), q(1), 1, T),
         lambda T: J(1, 4, T) * J(6, 12, T), 1),
        ("f151-column", lambda T: hecke_f(1, 5, 1, q(2), q(0), 1, T),
         lambda T: (Jm(1, T - 1) * Jbar(6, 24, T - 1)).shift(q(1)), 1),
        ("base2-plus-pair", lambda T: (hecke_f(3, 3, 1, q(5), q(4), 2, T)
                                       + hecke_f(3, 3, 1, q(7), q(6), 2, T - 1).shift(q(1))),
         lambda T: Jm(2, T) * Jbar(1, 4, T), 1),
        ("base2-minus-pair", lambda T: (hecke_f(3, 3, 1, mq(5), q(4), 2, T)
                                        - hecke_f(3, 3, 1, mq(7), q(6), 2, T - 1).shift(q(1))),
         lambda T: Jm(2, T) * J(1, 4, T), 1),
    ]
    for tag, lhs, rhs, den in n4:
        _case(f"level4-hecke/{tag}", "hecke", lhs, rhs, den=den,
              ref="level-4 double-sum evaluation")

    _case("level4-hecke/deep-negative", "hecke",
          lambda T: hecke_f(1, 5, 1, q(5), q(-7), 1, T),
          lambda T: (Jm(1, T - 9) * Jbar(1, 6, T - 9)).shift(Monomial(2, F(9))),
          ref="the shifted-column evaluation with a negative argument")
    _case("level4-hecke/shifted-column", "hecke",
          lambda T: hecke_f(1, 5, 1, q(7), q(1), 1, T),
          lambda T: (Jm(1, T - 1) * Jbar(6, 24, T - 1)).shift(Monomial(2, F(1))),
          ref="the other shifted-column evaluation")
    _case("level4-hecke/q-to-minus-q", "hecke",
          lambda T: (hecke_f(3, 3, 1, q(5), q(4), 2, T)
                     + hecke_f(3, 3, 1, q(7), q(6), 2, T - 1).shift(q(1))).substitute_q_neg(),
          lambda T: (hecke_f(3, 3, 1, mq(5), q(4), 2, T)
                     - hecke_f(3, 3, 1, mq(7), q(6), 2, T - 1).shift(q(1))),
          ref="q -> -q carries the plus pair to the minus pair")

    for p in (1, 2, 3):
        for k, (x, y) in enumerate(HECKE_GENERIC):
            _case(f"masterF/p={p}/{k}[x={x},y={y}]", "hecke",
                  (lambda T, p=p, x=x, y=y: hecke_f(1, p + 1, 1, x, y, 1, T)),
                  (lambda T, p=p, x=x, y=y: master_fnp_rhs(p, x, y, 1, T)),
                  den=210, order=20,
                  ref="the master Appell-Lerch expansion at z = -1")

    for n in (2, 3):
        for k, (x, y) in enumerate(HECKE_GENERIC):
            _case(f"acdivb/n={n}/{k}[x={x},y={y}]", "hecke",
                  (lambda T, n=n, x=x, y=y: hecke_f(n, n, 1, x, y, 1, T)),
                  (lambda T, n=n, x=x, y=y: acdivb_rhs(n, x, y, 1, T)),
                  den=210, order=20,
                  ref="the diagonal-family expansion")

    for p in (2, 3, 4):
        for k, (x, y) in enumerate(HECKE_GENERIC):
            _case(f"genfn/p={p}/{k}[x={x},y={y}]", "hecke",
                  (lambda T, p=p, x=x, y=y: hecke_f(1, p + 1, 1, x, y, 1, T)),
                  (lambda T, p=p, x=x, y=y: genfn_rhs(p, x, y, 1, T)),
                  den=210, order=20,
                  ref="the z = y/x expansion")

    x0, y0 = HECKE_GENERIC[0]
    for p in (2, 3):
        for ell in (0, 1, 2):
            for k, (xs, ys) in enumerate(HECKE_GENERIC):
                _case(f"singshift/p={p}/ell={ell}/{k}[x={xs},y={ys}]", "hecke",
                      (lambda T, p=p, xs=xs, ys=ys: hecke_f(1, 1 + p, 1, xs, ys, 1, T)),
                      (lambda T, p=p, ell=ell, xs=xs, ys=ys:
                       singshift_rhs(p, ell, xs, ys, 1, T)),
                      den=210, order=20, ref="the shifted-z expansion")
    _case("singshift/p=1/ell=1", "hecke",
          lambda T: hecke_f(1, 2, 1, x0, y0, 1, T),
          lambda T: singshift_rhs(1, 1, x0, y0, 1, T),
          den=35, order=18, ref="the shifted-z expansion, first family")
    _case("singshift/p=4/ell=1", "hecke",
          lambda T: hecke_f(1, 5, 1, x0, y0, 1, T),
          lambda T: singshift_rhs(4, 1, x0, y0, 1, T),
          den=35, order=16, ref="the shifted-z expansion, fourth family")

    shift_samples = [
        (1, 2, 1, q(F(2, 7)), q(F(3, 5)), 1, 1),
        (1, 3, 1, q(2), q(1), 1, 0),
        (1, 5, 1, q(7), q(1), 0, 1),
        (3, 3, 1, q(3), q(1), 1, 2),
    ]
    for (a, b, c, x, y, R, S) in shift_samples:
        _case(f"f-shift/a{a}b{b}c{c}/R{R}S{S}[x={x},y={y}]", "hecke",
              (lambda T, a=a, b=b, c=c, x=x, y=y: hecke_f(a, b, c, x, y, 1, T)),
              (lambda T, a=a, b=b, c=c, x=x, y=y, R=R, S=S:
               hecke_shift_rhs(a, b, c, x, y, 1, R, S, T)),
              den=35, order=25, ref="index shifting")

    flip_samples = [
        (1, 2, 1, q(1), q(1)),
        (1, 5, 1, q(5), q(-7)),
        (3, 3, 1, q(2), q(1)),
        (2, 2, 1, mq(3), q(2)),
    ]
    for (a, b, c, x, y) in flip_samples:
        _case(f"f-flip/a{a}b{b}c{c}[x={x},y={y}]", "hecke",
              (lambda T, a=a, b=b, c=c, x=x, y=y: hecke_f(a, b, c, x, y, 1, T)),
              (lambda T, a=a, b=b, c=c, x=x, y=y: hecke_flip_rhs(a, b, c, x, y, 1, T)),
              den=1, order=25, ref="argument inversion")

    _case("level2-kp/f221-combination", "hecke",
          lambda T: (acdivb_rhs(2, mq(3), q(2), 2, T)
                     - acdivb_rhs(2, mq(5), q(4), 2, T - 1).shift(q(1))),
          lambda T: Jm(1, T) * Jm(2, T),
          ref="the even-level combination behind the level-2 example")


# ---- strings suites ----


def _all_labels(max_level=4):
    out = []
    for N in range(1, max_level + 1):
        for ell in range(N + 1):
            for m in range(2 * N):
                if (m - ell) % 2 == 0:
                    out.append(StringLabel(N, ell, m))
    return out


def _register_strings():
    for lbl in _all_labels():
        den = (4 * lbl.N) if (lbl.m ** 2 - lbl.ell ** 2) % (4 * lbl.N) else 1
        _case(f"level{lbl.N}/l{lbl.ell}m{lbl.m}", "strings_levels",
              (lambda T, lbl=lbl: normalized_theta_form(lbl, T)),
              (lambda T, lbl=lbl: level_theta_side(lbl, T)),
              den=den, order=30,
              ref=f"tabulated closed form, level {lbl.N}")

    for lbl in _all_labels():
        _case(f"oracle-cross/N{lbl.N}/l{lbl.ell}m{lbl.m}", "strings_levels",
              (lambda T, lbl=lbl: calC_oracle(lbl, T)),
              (lambda T, lbl=lbl: calC_hecke(lbl, T)),
              den=1, order=25,
              ref="cone sum against the double-sum form")

    n4_string = [
        ((4, 0, 0), lambda T: (Jm(1, T) * Jbar(3, 6, T) + Jm(1, T) * J(1, 2, T)).scale(F(1, 2))),
        ((4, 0, 4), lambda T: ((Jm(1, T) * Jbar(3, 6, T) - Jm(1, T) * J(1, 2, T))
                               .scale(F(1, 2)).shift(q(1)).truncate(T))),
        ((4, 0, 2), lambda T: (Jm(1, T - 1) * Jbar(6, 24, T - 1)).shift(q(1))),
        ((4, 1, 1), lambda T: Jm(1, T) * Jbar(3, 8, T)),
        ((4, 1, 3), lambda T: (Jm(1, T - 1) * Jbar(1, 8, T - 1)).shift(q(1))),
        ((4, 2, 0), lambda T: Jm(1, T) * Jbar(1, 6, T)),
        ((4, 2, 2), lambda T: J(1, 4, T) * J(6, 12, T)),
    ]
    for (N, ell, m), rhs in n4_string:
        lbl = StringLabel(N, ell, m)
        _case(f"level4-string/l{ell}m{m}", "strings_levels",
              (lambda T, lbl=lbl: (calC_hecke(lbl, T) * (Jm(1, T) ** 3)).truncate(T)),
              rhs, order=30,
              ref="normalized level-4 string evaluation"
              + (" (q prefactor restored)" if (ell, m) == (1, 3) else ""))

    sym_labels = [(2, 0, 2), (3, 1, 3), (3, 2, 4), (4, 2, 2), (4, 1, 3)]
    for (N, ell, m) in sym_labels:
        lbl = StringLabel(N, ell, m)
        variants = [
            ("m-negate", StringLabel(N, ell, -m)),
            ("m-reflect", StringLabel(N, ell, 2 * N - m)),
            ("diagram-flip", StringLabel(N, N - ell, N - m)),
        ]
        for tag, other in variants:
            _case(f"symmetry/{tag}/N{N}l{ell}m{m}", "strings_symmetries",
                  (lambda T, lbl=lbl: C_full(lbl, T)),
                  (lambda T, other=other: C_full(other, T)),
                  den=8 * N * (N + 2), order=20,
                  ref="label symmetry of the full string function")

    def norm(lbl, T):
        e = -F(lbl.m ** 2 - lbl.ell ** 2, 4 * lbl.N)
        return calC_hecke(lbl, T - e).shift(Monomial(0, e))

    for (N, ell, m) in [(2, 0, 2), (4, 2, 2)]:
        lbl = StringLabel(N, ell, m)
        _case(f"symmetry/canonical/N{N}l{ell}m{m}", "strings_symmetries",
              (lambda T, lbl=lbl: norm(lbl, T)),
              (lambda T, red=strings.symmetry_reduce(lbl): norm(red, T)), den=4 * N, order=20,
              ref="normalized series agrees with its canonical representative")


def _register_mps():
    _case("split/K2-minus", "mps",
          lambda T: (C_full(StringLabel(4, 0, 0), T, oracle=True)
                     - C_full(StringLabel(4, 0, 4), T, oracle=True)),
          lambda T: mps_split_rhs(2, 0, 0, -1, 1, T),
          den=12, order=25, ref="even-level splitting, minus sign")
    _case("split/K2-plus", "mps",
          lambda T: (C_full(StringLabel(4, 0, 0), T, oracle=True)
                     + C_full(StringLabel(4, 0, 4), T, oracle=True)),
          lambda T: mps_split_rhs(2, 0, 0, 1, 1, T),
          den=12, order=25, ref="even-level splitting, plus sign")
    _case("split/K2-closed-form", "mps",
          lambda T: mps_split_rhs(2, 0, 0, -1, 1, T),
          lambda T: ((Jm(1, T + F(1, 12)) * J(1, 2, T + F(1, 12)))
                     / Jm(1, T + F(1, 12)) ** 3
                     ).shift(Monomial(0, F(-1, 12))).truncate(T),
          den=12, order=25, ref="the minus split evaluates in closed form")
    _case("split/K1-base2", "mps",
          lambda T: (C_full(StringLabel(2, 0, 0), T, oracle=True).substitute_power(2)
                     - C_full(StringLabel(2, 0, 2), T, oracle=True).substitute_power(2)).truncate(2 * T),
          lambda T: mps_split_rhs(1, 0, 0, -1, 2, 2 * T).truncate(2 * T),
          den=8, order=12, ref="odd-parity splitting on the doubled lattice")
    _case("split/K3-sample", "mps",
          lambda T: (C_full(StringLabel(6, 1, 1), T, oracle=True)
                     - C_full(StringLabel(6, 1, 5), T, oracle=True)),
          lambda T: mps_split_rhs(3, 1, 1, -1, 1, T),
          den=24 * 8, order=18, ref="splitting at level 6")
    _case("op2/K2-m0", "mps",
          lambda T: C_full(StringLabel(4, 2, 0), T, oracle=True),
          lambda T: mps_cor2_rhs(2, 0, 1, T),
          den=24, order=25, ref="middle-column corollary")
    _case("op2/K1-m1", "mps",
          lambda T: C_full(StringLabel(2, 1, 1), T, oracle=True),
          lambda T: mps_cor2_rhs(1, 1, 1, T),
          den=16, order=25, ref="middle-column corollary at level 2")
    _case("op3/K2-l2", "mps",
          lambda T: C_full(StringLabel(4, 2, 2), T, oracle=True),
          lambda T: mps_cor3_rhs(2, 2, 1, T),
          den=24, order=25, ref="middle-row corollary")
    _case("op3/K2-l0", "mps",
          lambda T: C_full(StringLabel(4, 0, 2), T, oracle=True),
          lambda T: mps_cor3_rhs(2, 0, 1, T),
          den=24, order=25, ref="middle-row corollary, edge row")
    _case("op3/K3-l1", "mps",
          lambda T: C_full(StringLabel(6, 1, 3), T, oracle=True),
          lambda T: mps_cor3_rhs(3, 1, 1, T),
          den=24 * 8, order=18, ref="middle-row corollary at level 6")


def _register_kp():
    dens = {"KP2A": 16, "KP3A": 120, "KP3B": 120, "KP3C": 120, "KP4B": 12}
    for name in ("KP2A", "KP3A", "KP3B", "KP3C", "KP4B"):
        _case(f"kp/{name}", "kp_examples",
              (lambda T, name=name: kp_string_side(name, T)),
              (lambda T, name=name: kp_eta_side(name, T)),
              den=dens[name], order=10,
              ref="classical eta-quotient example")


_register_notation()
_register_theta()
_register_appell()
_register_hecke()
_register_strings()
_register_mps()
_register_kp()
