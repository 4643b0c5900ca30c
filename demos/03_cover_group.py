"""The metaplectic double cover of SL(2, Q_3): the Hilbert-symbol cocycle,
the validated Kubota splitting over SL(2, Z_3), and coset decomposition
against the representatives n(t) diag(p^n, p^-n).

Run:  python demos/03_cover_group.py
"""

import random
from fractions import Fraction

from metaplectic import (
    MetaElement,
    PadicContext,
    SL2Element,
    cocycle,
    kubota_split,
    validate_kubota_splitting,
)
from metaplectic.cover import decompose_meta, random_sl2_word

ctx = PadicContext(3)

print("== the cocycle and the group law ==")
w = MetaElement.w(ctx)
print("w * w =", w * w, " (the lift of -I with trivial sign at p = 3)")
z = MetaElement.central(ctx, -1)
x = MetaElement.n(ctx, Fraction(1, 3)) * MetaElement.torus(ctx, 2)
print("[1,-1] is central:", (z * x).eps == (x * z).eps == -x.eps)

rng = random.Random(1)
ok = all(
    cocycle(g, h) * cocycle(g * h, k) == cocycle(h, k) * cocycle(g, h * k)
    for g, h, k in ((random_sl2_word(ctx, rng).g for _ in range(3)) for _ in range(200))
)
print("2-cocycle identity on 200 random triples:", ok)

print("\n== the Kubota splitting, gated not assumed ==")
h = SL2Element.of(ctx, 2, 1, 3, 2)
print(f"s({h!r}) = {kubota_split(h)}  (the (c, d) branch with 0 < v(c))")
validate_kubota_splitting(ctx, random.Random(2), trials=1000)
print("splitting property s(g) s(h) {g,h} = s(gh) validated on 1000 random pairs")

print("\n== coset decomposition ==")
for m in (MetaElement.w(ctx),
          MetaElement.torus(ctx, Fraction(1, 3)),
          MetaElement.n(ctx, Fraction(7, 9)) * w * MetaElement.torus(ctx, Fraction(2, 3))):
    h_meta, dec = decompose_meta(m)
    back = h_meta * dec.rep_meta()
    print(f"g ~ h * n({dec.t}) diag(3^{dec.n}, 3^{-dec.n}); "
          f"round trip exact: {back.g.entries() == m.g.entries() and back.eps == m.eps}")
