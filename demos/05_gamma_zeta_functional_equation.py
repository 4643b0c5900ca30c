"""The analytic layer, all coefficient-exact: Bessel functions by two
independent methods, the gamma factor 4/3 of the p = 3 example, zeta
polynomials, the parity obstruction, and the local functional equation
verified coefficient by coefficient.

Run:  python demos/05_gamma_zeta_functional_equation.py
"""

from fractions import Fraction

from metaplectic import (
    MultChar,
    PadicContext,
    Representation,
    bessel_closed,
    bessel_direct,
    builtin_sigma_p3,
    check_fe,
    gamma_factor,
    zeta_function,
)

ctx = PadicContext(3)
rep = Representation(builtin_sigma_p3(ctx, 1))
xi = Fraction(1, 3)
mu = MultChar.trivial(ctx)

print("== Bessel function, two independent methods ==")
for x in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 9), Fraction(3)):
    direct = bessel_direct(rep, xi, xi, x)
    line = f"J(<{x}>w) = {direct!r}"
    if x.denominator % 3 == 0:
        line += f"   closed formula agrees: {direct == bessel_closed(rep, xi, xi, x)}"
    print(line)
print("(vanishes on P, equals 1 on units for this datum)")

print("\n== the gamma factor ==")
gf = gamma_factor(rep, xi, xi, mu)
for n, c in sorted(gf.coefficients.items()):
    print(f"gamma({n}) = {c!r}")
print("Gamma(s) =", gf.poly, " -- the nonzero constant 4/3")

print("\n== zeta polynomials ==")
for v, name in ((rep.phi(), "phi^e"), (rep.phi(n=1), "phi^{<3>}")):
    z = zeta_function(rep, xi, mu, v)
    print(f"Z(s; {name}) = {z.poly}   window {z.window}")

print("\n== parity: the quadratic character kills every zeta ==")
mu1 = MultChar(ctx, 1, Fraction(0), 1)
z = zeta_function(rep, xi, mu1, rep.phi())
print("Z(s; phi^e, quadratic mu) =", z.poly, "  parity_ok =", z.parity_ok)

print("\n== the functional equation, coefficient by coefficient ==")
for v, name in ((rep.phi(), "phi^e"),
                (rep.phi(n=1), "phi^{<3>}"),
                (rep.phi(t=Fraction(1, 3), n=-1) + rep.phi(n=1, coeff=Fraction(5)),
                 "a mixed vector")):
    fe = check_fe(rep, mu, v, xi)
    print(f"{name}: LHS = {fe.lhs}")
    print(f"{'':>{len(name) + 2}}RHS = {fe.rhs}   residual = {fe.residual}  "
          f"PASS = {fe.passed}")

print("\n== unramified twist mu(3) = i stays exact ==")
fe = check_fe(rep, MultChar(ctx, 0, Fraction(1, 4)), rep.phi(n=1), xi)
print("LHS =", fe.lhs)
print("residual =", fe.residual, " PASS =", fe.passed)
