"""The group SL(2, Q_p), its metaplectic double cover, and coset geometry.

Cover elements are pairs [g, eps] with the group law
[g, e1][h, e2] = [gh, {g,h} e1 e2], where {g,h} is the Hilbert-symbol
2-cocycle built from chi(g) = c (c != 0) or d (c = 0).

The cover splits over SL(2, Z_p) for odd p.  The splitting used here,
s(h) = (c, d) when 0 < v(c), else +1, is treated as a falsifiable candidate:
``validate_kubota_splitting`` is a mandatory gate run before the splitting
feeds any representation-theoretic computation.

Coset decomposition writes any g as h * n(t) * diag(p^n, p^-n) with h
integral and t a canonical fractional representative of Q_p/Z_p, the
representative system used by the compact-induction model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import PadicContext, frac_mod, frac_valuation, p_fractional_part
from .localchar import hilbert_frac

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SL2Element:
    """A determinant-one 2x2 matrix over Q_p with exact rational entries.

    ``of`` is the constructor for arbitrary entries and checks ad - bc = 1;
    the other constructors, products, inverses and coset parts have
    determinant 1 by construction and skip the check."""

    ctx: PadicContext
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, ctx, a, b, c, d) -> "SL2Element":
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        if a * d - b * c != 1:
            raise ValueError("matrix does not have determinant 1")
        return cls(ctx, a, b, c, d)

    @classmethod
    def identity(cls, ctx) -> "SL2Element":
        return cls(ctx, _ONE, _ZERO, _ZERO, _ONE)

    @classmethod
    def n(cls, ctx, x) -> "SL2Element":
        return cls(ctx, _ONE, Fraction(x), _ZERO, _ONE)

    @classmethod
    def n_lower(cls, ctx, x) -> "SL2Element":
        return cls(ctx, _ONE, _ZERO, Fraction(x), _ONE)

    @classmethod
    def torus(cls, ctx, y) -> "SL2Element":
        y = Fraction(y)
        return cls(ctx, y, _ZERO, _ZERO, 1 / y)

    @classmethod
    def w(cls, ctx) -> "SL2Element":
        return cls(ctx, _ZERO, Fraction(-1), _ONE, _ZERO)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.ctx,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.ctx, self.d, -self.b, -self.c, self.a)

    def is_integral(self) -> bool:
        p = self.ctx.p
        return all(e.denominator % p != 0 for e in (self.a, self.b, self.c, self.d))

    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def reduce_mod(self, modulus: int):
        """Entries as integers modulo p^l; requires an integral matrix."""
        if not self.is_integral():
            raise ValueError("matrix is not integral at p")
        return tuple(frac_mod(e, modulus) for e in self.entries())

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def chi_entry(g: SL2Element) -> Fraction:
    """chi(g) = c if c != 0 else d; never zero on SL2."""
    return g.c if g.c != 0 else g.d


def cocycle(g: SL2Element, h: SL2Element, gh: SL2Element | None = None) -> int:
    """The 2-cocycle {g, h} = (chi(gh)/chi(g), chi(gh)/chi(h))."""
    if gh is None:
        gh = g * h
    x = chi_entry(gh)
    return hilbert_frac(g.ctx.p, x / chi_entry(g), x / chi_entry(h))


@dataclass(frozen=True)
class MetaElement:
    """A point [g, eps] of the double cover."""

    g: SL2Element
    eps: int

    @classmethod
    def identity(cls, ctx) -> "MetaElement":
        return cls(SL2Element.identity(ctx), 1)

    @classmethod
    def central(cls, ctx, eps: int) -> "MetaElement":
        return cls(SL2Element.identity(ctx), eps)

    @classmethod
    def n(cls, ctx, x) -> "MetaElement":
        return cls(SL2Element.n(ctx, x), 1)

    @classmethod
    def torus(cls, ctx, y) -> "MetaElement":
        return cls(SL2Element.torus(ctx, y), 1)

    @classmethod
    def w(cls, ctx) -> "MetaElement":
        return cls(SL2Element.w(ctx), 1)

    def __mul__(self, other: "MetaElement") -> "MetaElement":
        gh = self.g * other.g
        return MetaElement(gh, cocycle(self.g, other.g, gh) * self.eps * other.eps)

    def inverse(self) -> "MetaElement":
        ginv = self.g.inverse()
        return MetaElement(ginv, self.eps * cocycle(self.g, ginv))

    def __repr__(self):
        return f"[{self.g!r}, {self.eps:+d}]"


def kubota_split(h: SL2Element) -> int:
    """Candidate splitting s of the cover over SL(2, Z_p):
    s(h) = (c, d) when c != 0 and 0 < v(c), else +1.

    Must satisfy s(g) s(h) {g, h} = s(gh); ``validate_kubota_splitting`` is
    the property gate and any failure is a hard error upstream."""
    if not h.is_integral():
        raise ValueError("Kubota splitting is only defined on integral matrices")
    p = h.ctx.p
    if h.c != 0 and frac_valuation(h.c, p) > 0:
        return hilbert_frac(p, h.c, h.d)
    return 1


def random_unit(p: int, rng) -> int:
    """A uniformly random unit residue modulo p^2, drawn by rejection."""
    u = rng.randrange(1, p**2)
    while u % p == 0:
        u = rng.randrange(1, p**2)
    return u


def random_integral_sl2(ctx: PadicContext, rng) -> SL2Element:
    """Random word of length 4 in generators of SL(2, Z_p): upper/lower
    unipotents with integral parameters and unit torus elements."""
    g = SL2Element.identity(ctx)
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            g = g * SL2Element.n(ctx, rng.randrange(-3 * ctx.p, 3 * ctx.p + 1))
        elif kind == 1:
            g = g * SL2Element.n_lower(ctx, rng.randrange(-3 * ctx.p, 3 * ctx.p + 1))
        else:
            g = g * SL2Element.torus(ctx, Fraction(random_unit(ctx.p, rng)))
    return g


def random_sl2_word(ctx: PadicContext, rng, length: int = 5) -> MetaElement:
    """Random word in the generators n(x), <a>, w of the full group, with
    rational parameters of bounded valuation."""
    x = MetaElement.identity(ctx)
    p = ctx.p
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            num = rng.randrange(-2 * p**2, 2 * p**2 + 1)
            x = x * MetaElement.n(ctx, Fraction(num, p ** rng.randrange(0, 3)))
        elif kind == 1:
            u = random_unit(p, rng)
            x = x * MetaElement.torus(ctx, Fraction(u) * Fraction(p) ** rng.randrange(-2, 3))
        else:
            x = x * MetaElement.w(ctx)
    if rng.randrange(2):
        x = x * MetaElement.central(ctx, -1)
    return x


class SplittingError(AssertionError):
    """The candidate Kubota splitting failed its property gate."""


def validate_kubota_splitting(ctx: PadicContext, rng, trials: int) -> None:
    """Property gate: s(g) s(h) {g, h} = s(gh) on random integral pairs."""
    for _ in range(trials):
        g = random_integral_sl2(ctx, rng)
        h = random_integral_sl2(ctx, rng)
        gh = g * h
        if kubota_split(g) * kubota_split(h) * cocycle(g, h, gh) != kubota_split(gh):
            raise SplittingError(
                f"Kubota splitting candidate failed on g={g!r}, h={h!r}")


def coset_rep(ctx: PadicContext, t: Fraction, n: int) -> SL2Element:
    """The representative n(t) diag(p^n, p^-n) = [[p^n, t p^-n], [0, p^-n]]."""
    pn = Fraction(ctx.p) ** n
    return SL2Element(ctx, pn, t / pn, _ZERO, 1 / pn)


@dataclass(frozen=True)
class CosetDecomposition:
    """Data of g = h * n(t) * diag(p^n, p^-n) with h integral and t the
    canonical fractional representative; eps_track is the cocycle sign
    relating the lifts: [g, e] = [h, e * eps_track] * [n(t) diag(p^n, p^-n), 1]."""

    h: SL2Element
    t: Fraction
    n: int
    eps_track: int

    def rep_meta(self) -> MetaElement:
        return MetaElement(coset_rep(self.h.ctx, self.t, self.n), 1)


def coset_decompose(x: MetaElement | SL2Element) -> CosetDecomposition:
    """Decompose against the representative system {n(t) diag(p^n, p^-n)}.

    n = min(v(a), v(c)); t solves the integrality of g * rep^{-1} in the row
    carrying the minimal valuation, and the determinant forces the rest."""
    g = x.g if isinstance(x, MetaElement) else x
    ctx = g.ctx
    p = ctx.p
    va = frac_valuation(g.a, p)
    vc = frac_valuation(g.c, p)
    n = int(min(va, vc))
    p2n = Fraction(p) ** (2 * n)
    if vc <= va:
        t = p_fractional_part(g.d * p2n / g.c, p)
    else:
        t = p_fractional_part(g.b * p2n / g.a, p)
    pn = Fraction(p) ** n
    # h = g * rep^{-1}, rep^{-1} = [[p^-n, -t p^-n], [0, p^n]]
    h = SL2Element(
        ctx,
        g.a / pn,
        -g.a * t / pn + g.b * pn,
        g.c / pn,
        -g.c * t / pn + g.d * pn,
    )
    if not h.is_integral():
        raise ArithmeticError(f"coset decomposition produced a non-integral part for {g!r}")
    return CosetDecomposition(h, t, n, cocycle(h, coset_rep(ctx, t, n), g))


def decompose_meta(x: MetaElement):
    """Split [g, eps] exactly as [h_meta] * [rep, 1]; returns (h_meta, dec)."""
    dec = coset_decompose(x)
    return MetaElement(dec.h, x.eps * dec.eps_track), dec
