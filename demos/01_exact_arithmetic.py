"""Exact scalars: p-adic rationals, cyclotomic values (sqrt(q) among them)
and Laurent polynomials in q^{+-s}.

Run:  python demos/01_exact_arithmetic.py
"""

from fractions import Fraction

from metaplectic import CycValue, LaurentPoly, PadicContext, Q_NEG_S

ctx = PadicContext(3)

print("== the field Q_3 through exact rationals ==")
x = ctx.elem(Fraction(45, 7))
print(f"x = {x.value}: valuation {x.valuation()}, unit part {x.unit_part()}, |x| = {x.abs_value()}")
y = ctx.elem(Fraction(5, 27))
print(f"y = {y.value}: valuation {y.valuation()}  (5/27 = 5 * 3^-3)")

print("\n== cyclotomic values ==")
zeta3 = CycValue.root_of_unity(ctx.q, Fraction(1, 3))
print("zeta_3 + zeta_3^2 =", zeta3 + zeta3 * zeta3, " (canonical form decides zero exactly)")

gauss = CycValue.sum([CycValue.root_of_unity(ctx.q, Fraction(k * k, 3)) for k in range(3)], 3)
print("quadratic Gauss sum g =", gauss)
print("g^2 =", gauss * gauss, " -- the classical identity g^2 = -3, so g = i sqrt(3)")

s = CycValue.sqrtq(ctx.q)
print("sqrt(q) = e(-1/4) g =", s, " (a value of Q(zeta_12), not a symbol)")
print("sqrt(q) * sqrt(q) =", s * s,
      " sqrt(q) == e(-1/4) g:", s == CycValue.root_of_unity(ctx.q, Fraction(-1, 4)) * gauss)

print("\n== Laurent polynomials in q^{-s} ==")
P = LaurentPoly(3, Q_NEG_S, {0: CycValue.rational(ctx.q, Fraction(4, 3)), 1: gauss})
print("P =", P)
Q = P.one_minus_s()
print("P(1-s) =", Q)
print("double substitution returns P:", Q.one_minus_s() == P)
