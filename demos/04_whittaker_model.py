"""The compact-induction model: strongly cuspidal data on SL(2, Z/3), its
unipotent eigenbasis, the spectrum of Whittaker characters, and Whittaker
functions with their compact torus support.

Run:  python demos/04_whittaker_model.py
"""

from fractions import Fraction

from metaplectic import (
    MetaElement,
    PadicContext,
    Representation,
    builtin_sigma_p3,
)

ctx = PadicContext(3)

print("== strongly cuspidal data ==")
sigma = builtin_sigma_p3(ctx, 1)
print(f"table on SL(2, Z/3): {len(sigma.table)} elements, dimension {sigma.dim}, "
      f"conductor {sigma.level}")
print("sigma(n(1)) =", sigma.table[(1, 1, 0, 1)][0][0], "   sigma(w) =",
      sigma.table[(0, 2, 1, 0)][0][0])
print("denominators of the betas (each 3 = p^l: strongly cuspidal of conductor 1):",
      [beta.denominator for beta in sigma.betas])

print("\n== eigenbasis and spectrum ==")
print("unipotent characters beta:", sigma.betas)
rep = Representation(sigma)
spec = rep.spectrum()
print("spectrum representatives:",
      [(str(r.xi), f"|xi| = {r.abs_value}", f"class {r.square_class}") for r in spec.reps])
print("central sign at -1:", rep.central_sign_minus_one())

print("\n== Whittaker functionals on the model basis ==")
xi = spec.reps[0].xi
print("l^xi(phi^e) =", rep.whittaker_functional(xi, rep.phi()))
print("l^xi(phi^{<3>}) =", rep.whittaker_functional(xi, rep.phi(n=1)),
      "  (wrong shell: zero)")
print("l^xi(phi^{n(1/3)}) =", rep.whittaker_functional(xi, rep.phi(t=Fraction(1, 3))))

print("\n== equivariance l^xi(pi(n(a)) v) = psi^xi(a) l^xi(v) ==")
psi_xi = rep.psi.twist(xi)
a = Fraction(5, 9)
v = rep.phi(t=Fraction(1, 3))
lhs = rep.whittaker_functional(xi, rep.act(MetaElement.n(ctx, a), v))
print("exact at a = 5/9:", lhs == psi_xi.value(a) * rep.whittaker_functional(xi, v))

print("\n== compact support of a -> W(<a>) ==")
for v, name in ((rep.phi(), "phi^e"), (rep.phi(n=1), "phi^{<3>}")):
    hits = [j for j in range(-6, 7)
            if not rep.whittaker_function(xi, v, MetaElement.torus(ctx, Fraction(3) ** j)).is_zero()]
    print(f"nonzero torus shells for {name}: {hits}")
