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
from math import gcd, lcm

from .exactnum import INFINITY, PadicContext, p_split
from .localchar import hilbert_frac


def _ratio(x):
    """(numerator, denominator) of a rational, an int or a ``Fraction``
    (anything else is coerced through ``Fraction`` once)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


class SL2Element:
    """A determinant-one 2x2 matrix over Q_p with exact rational entries.

    The form is fraction-free: four int numerators na, nb, nc, nd over one
    int denominator den > 0, always in lowest terms (the gcd of all five is
    1), so equal matrices have equal fields and hash equal, and the matrix is
    integral at p exactly when p does not divide den.  Products, inverses,
    coset parts and Kubota signs run on these ints; ``a``, ``b``, ``c``,
    ``d``, ``entries()`` and ``repr`` give the ``Fraction`` view.

    ``of`` is the constructor for arbitrary entries and checks ad - bc = 1;
    the other constructors, products, inverses and coset parts have
    determinant 1 by construction and skip the check."""

    __slots__ = ("ctx", "na", "nb", "nc", "nd", "den")

    @classmethod
    def of(cls, ctx, a, b, c, d) -> "SL2Element":
        ratios = [_ratio(x) for x in (a, b, c, d)]
        den = lcm(*(r[1] for r in ratios))
        na, nb, nc, nd = (num * (den // r_den) for num, r_den in ratios)
        if na * nd - nb * nc != den * den:
            raise ValueError("matrix does not have determinant 1")
        return _lowest(ctx, na, nb, nc, nd, den)

    @classmethod
    def identity(cls, ctx) -> "SL2Element":
        return _lowest(ctx, 1, 0, 0, 1, 1)

    @classmethod
    def n(cls, ctx, x) -> "SL2Element":
        num, den = _ratio(x)
        return _lowest(ctx, den, num, 0, den, den)

    @classmethod
    def n_lower(cls, ctx, x) -> "SL2Element":
        num, den = _ratio(x)
        return _lowest(ctx, den, 0, num, den, den)

    @classmethod
    def torus(cls, ctx, y) -> "SL2Element":
        # diag(s/t, t/s) = diag(s^2, t^2) / (s t)
        s, t = _ratio(y)
        if s == 0:
            raise ZeroDivisionError("torus element of 0")
        return _lowest(ctx, s * s, 0, 0, t * t, s * t)

    @classmethod
    def w(cls, ctx) -> "SL2Element":
        return _lowest(ctx, 0, -1, 1, 0, 1)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        a, b, c, d = self.na, self.nb, self.nc, self.nd
        e, f, g, h = other.na, other.nb, other.nc, other.nd
        return _lowest(self.ctx, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                       self.den * other.den)

    def inverse(self) -> "SL2Element":
        return _lowest(self.ctx, self.nd, -self.nb, -self.nc, self.na, self.den)

    def is_integral(self) -> bool:
        return self.den % self.ctx.p != 0

    def is_diagonal(self) -> bool:
        return self.nb == 0 and self.nc == 0

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.nc, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.nd, self.den)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def reduce_mod(self, modulus: int):
        """Entries as integers modulo p^l; requires an integral matrix."""
        if not self.is_integral():
            raise ValueError("matrix is not integral at p")
        inv = pow(self.den, -1, modulus)
        return tuple(x * inv % modulus for x in (self.na, self.nb, self.nc, self.nd))

    def _key(self):
        return (self.na, self.nb, self.nc, self.nd, self.den)

    def __eq__(self, other):
        if not isinstance(other, SL2Element):
            return NotImplemented
        return self.ctx == other.ctx and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _lowest(ctx, na, nb, nc, nd, den) -> SL2Element:
    """The element (na, nb; nc, nd) / den, for ints with den != 0 and
    determinant one, brought to lowest terms with den > 0."""
    if den != 1:
        g = gcd(na, nb, nc, nd, den)
        if den < 0:
            g = -g
        if g != 1:
            na, nb, nc, nd, den = na // g, nb // g, nc // g, nd // g, den // g
    x = object.__new__(SL2Element)
    x.ctx, x.na, x.nb, x.nc, x.nd, x.den = ctx, na, nb, nc, nd, den
    return x


def cocycle(g: SL2Element, h: SL2Element, gh: SL2Element | None = None) -> int:
    """The 2-cocycle {g, h} = (chi(gh)/chi(g), chi(gh)/chi(h)).

    The ratios are taken on the chi numerators; the common denominators
    cancel up to the factors den(g)/den(gh) and den(h)/den(gh)."""
    if gh is None:
        gh = g * h
    x = gh.nc or gh.nd
    return hilbert_frac(g.ctx.p, Fraction(x * g.den, gh.den * (g.nc or g.nd)),
                        Fraction(x * h.den, gh.den * (h.nc or h.nd)))


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
    # den is prime to p here, so v(c) = v(nc)
    if h.nc != 0 and h.nc % p == 0:
        return hilbert_frac(p, Fraction(h.nc, h.den), Fraction(h.nd, h.den))
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


def _scales(p: int, n: int):
    """(p^|n|, x, y) with (x, y) = (1, p^2n) for n >= 0 and (p^-2n, 1) for
    n < 0: over the denominator p^|n|, p^-n is x / p^|n| and p^n is
    y / p^|n|."""
    pn = p ** abs(n)
    return (pn, 1, pn * pn) if n >= 0 else (pn, pn * pn, 1)


def _coset_rep(ctx: PadicContext, tn: int, td: int, n: int) -> SL2Element:
    """The representative n(t) diag(p^n, p^-n) = [[p^n, t p^-n], [0, p^-n]]
    at t = tn/td, td > 0: (td y, tn x; 0, td x) / (td p^|n|)."""
    pn, x, y = _scales(ctx.p, n)
    return _lowest(ctx, td * y, tn * x, 0, td * x, td * pn)


@dataclass(frozen=True)
class CosetDecomposition:
    """Data of g = h * n(t) * diag(p^n, p^-n) with h integral and t the
    canonical fractional representative, kept as the int pair (r, j) of the
    induced model's keys: t = r/p^j with 0 <= r < p^j and r prime to p, and
    t = 0 as (0, 0); eps_track is the cocycle sign relating the lifts:
    [g, e] = [h, e * eps_track] * [n(t) diag(p^n, p^-n), 1]."""

    h: SL2Element
    r: int
    j: int
    n: int
    eps_track: int

    @property
    def t(self) -> Fraction:
        return Fraction(self.r, self.h.ctx.p**self.j)

    def rep_meta(self) -> MetaElement:
        return MetaElement(_coset_rep(self.h.ctx, self.r, self.h.ctx.p**self.j, self.n), 1)


def coset_decompose(x: MetaElement | SL2Element) -> CosetDecomposition:
    """Decompose against the representative system {n(t) diag(p^n, p^-n)}.

    n = min(v(a), v(c)); t solves the integrality of g * rep^{-1} in the row
    carrying the minimal valuation, and the determinant forces the rest."""
    g = x.g if isinstance(x, MetaElement) else x
    ctx = g.ctx
    p = ctx.p
    A, B, C, D, E = g.na, g.nb, g.nc, g.nd, g.den
    va = p_split(A, E, p)[0] if A else INFINITY
    vc = p_split(C, E, p)[0] if C else INFINITY
    n = int(min(va, vc))
    # t = [d p^2n / c] or [b p^2n / a]; the denominator E cancels
    num, div = (D, C) if vc <= va else (B, A)
    if n >= 0:
        num *= p ** (2 * n)
    else:
        div *= p ** (-2 * n)
    if div < 0:
        num, div = -num, -div
    # [num/div] = tc/pm, pm = p^j: 0 when num/div is integral
    v, un, ud = p_split(num, div, p) if num else (0, 0, 1)
    j = max(-v, 0)
    pm = p**j
    tc = un * pow(ud, -1, pm) % pm
    # h = g * rep^{-1}, rep^{-1} = [[p^-n, -t p^-n], [0, p^n]], over E pm p^|n|
    pn, sx, sy = _scales(p, n)
    h = _lowest(ctx, A * pm * sx, B * pm * sy - A * tc * sx,
                C * pm * sx, D * pm * sy - C * tc * sx, E * pm * pn)
    if not h.is_integral():
        raise ArithmeticError(f"coset decomposition produced a non-integral part for {g!r}")
    return CosetDecomposition(h, tc, j, n, cocycle(h, _coset_rep(ctx, tc, pm, n), g))


def decompose_meta(x: MetaElement):
    """Split [g, eps] exactly as [h_meta] * [rep, 1]; returns (h_meta, dec)."""
    dec = coset_decompose(x)
    return MetaElement(dec.h, x.eps * dec.eps_track), dec
