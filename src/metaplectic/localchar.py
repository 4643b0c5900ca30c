"""Characters of Q_p and its multiplicative group, local symbols, and the
Weil constant.

The additive character is fixed to psi(a) = e(2*pi*i*[a]) with [a] the
p-power-denominator fractional part, so psi is trivial on Z_p and nontrivial
on p^{-1}Z_p.  The Hilbert symbol ships both a closed formula (odd p) and a
brute-force solvability oracle; the oracle is authoritative in tests.  The
Weil constant alpha(a) is computed from its defining quadratic Fourier
identity rather than a table of cases, which pins the factor-2 Fourier
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    MAX_GATE_SAMPLES,
    CycValue,
    KElement,
    PadicContext,
    exact_int,
    frac_mod,
    frac_unit_part,
    frac_valuation,
    p_fractional_int,
    p_fractional_part,
    q_half_power,
    valuation_unit,
)


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi^xi(a) = psi(xi * a); the canonical psi is scale = 1."""

    ctx: PadicContext
    scale: Fraction = Fraction(1)

    def twist(self, xi) -> "AdditiveCharacter":
        return AdditiveCharacter(self.ctx, self.scale * xi)

    def value(self, a) -> CycValue:
        return self.value_int(a.numerator, a.denominator)

    def value_int(self, num: int, den: int) -> CycValue:
        """psi^scale(num/den) for ints num and den > 0."""
        s = self.scale
        return CycValue.root_of_unity_int(
            self.ctx.q, *p_fractional_int(s.numerator * num, s.denominator * den, self.ctx.p))


@lru_cache(maxsize=None)
def _residue_signs(p: int) -> tuple:
    """The Legendre symbol mod p as a table: +1, -1, and 0 at 0."""
    return (0,) + tuple(1 if pow(r, (p - 1) // 2, p) == 1 else -1 for r in range(1, p))


def legendre_int(p: int, u: int) -> int:
    """+1 iff the int u, prime to p, is a nonzero square mod p."""
    sign = _residue_signs(p)[u % p]
    if not sign:
        raise ValueError(f"legendre symbol needs a p-adic unit, got {u} = 0 mod {p}")
    return sign


def legendre(u: KElement) -> int:
    """+1 iff the unit u reduces to a nonzero square mod p (``legendre_int``)."""
    p = u.ctx.p
    v = u.valuation()
    if v != 0:
        raise ValueError(f"legendre symbol needs a p-adic unit, got valuation {v}")
    return legendre_int(p, frac_mod(u.value, p))


def hilbert_int(p: int, va: int, ua: int, vb: int, ub: int) -> int:
    """Closed formula for the Hilbert symbol (p^va ua, p^vb ub) over Q_p,
    p odd, for ints ua and ub prime to p."""
    sign = 1
    if va % 2 and vb % 2:
        sign = legendre_int(p, -1)
    if vb % 2:
        sign *= legendre_int(p, ua)
    if va % 2:
        sign *= legendre_int(p, ub)
    return sign


@lru_cache(maxsize=None)
def hilbert_frac(p: int, a: Fraction, b: Fraction) -> int:
    """The Hilbert symbol over Q_p, p odd (``hilbert_int``), memoized on
    its ``Fraction`` arguments.  The cover's cocycle calls ``hilbert_int``
    directly and does not fill this cache; ``hilbert_symbol`` and
    ``cover.kubota_split`` still do, and the cache has no bound."""
    if a == 0 or b == 0:
        raise ZeroDivisionError("Hilbert symbol of zero")
    return hilbert_int(p, *valuation_unit(a.numerator, a.denominator, p, p),
                       *valuation_unit(b.numerator, b.denominator, p, p))


def hilbert_symbol(a: KElement, b: KElement) -> int:
    """(a, b) = +1 iff a = x^2 - b*y^2 is solvable over Q_p."""
    return hilbert_frac(a.ctx.p, a.value, b.value)


@lru_cache(maxsize=None)
def _sqrt_table(modulus: int):
    table: dict = {}
    for z in range(modulus):
        table.setdefault(z * z % modulus, z)
    return table


def hilbert_symbol_oracle(a: KElement, b: KElement) -> int:
    """Brute-force Hilbert symbol: solvability of z^2 = a x^2 + b y^2 with
    (x, y, z) != 0, which for b nonsquare is equivalent to a being a norm
    from Q_p(sqrt b), i.e. to a = x^2 - b y^2.  Scans primitive candidates
    mod p^3.

    a and b are first normalized to a0 = a p^(-2 floor(v(a)/2)) and b0
    likewise, reduced mod p^4, so v(a0) and v(b0) are 0 or 1.  A nonzero
    solution scales to a primitive one (x, y, z in Z_p, not all in p Z_p),
    and then x or y is a unit: if both lay in p Z_p, z^2 would lie in
    p^2 Z_p, so z in p Z_p too.  If x is a unit, dividing by it makes
    x = 1.  If x lies in p Z_p, y is a unit; dividing by it gives
    z^2 = b0 + a0 x^2 with v(a0 x^2) >= 2, so v(b0) is even, hence 0, and
    b0 = z^2 mod p is a square mod p, hence a square unit beta^2 (Hensel,
    p odd).  Then x = 1 solves too: z = (1 + a0)/2 and
    y = (a0 - 1)/(2 beta) give z^2 - b0 y^2 = (z - beta y)(z + beta y)
    = 1 * a0.  So it suffices to test x = 1 with y over Z/p^3: p^3
    candidates.  Every candidate whose value a0 + b0 y^2 is a square mod
    p^3 lifts to a solution: Hensel's lemma lifts a solution of
    F = a0 x^2 + b0 y^2 - z^2 mod p^3 in a variable whose partial
    derivative has valuation e with 2e + 1 <= 3, moving it only modulo
    p^(3 - e); at x = 1 the partial 2 a0 has valuation v(a0) <= 1 (p odd),
    so e <= 1 always holds, and the lift has x = 1 mod p^2, a unit, so it
    is nonzero."""
    p = a.ctx.p
    k = 3
    modulus = p**k

    def normalize(x: Fraction) -> int:
        v = frac_valuation(x, p)
        u = frac_unit_part(x, p)
        ui = u.numerator * pow(u.denominator, -1, modulus * p) % (modulus * p)
        return p ** (int(v) % 2) * ui % (modulus * p) or modulus * p  # nonzero residue

    if a.value == 0 or b.value == 0:
        raise ZeroDivisionError("Hilbert symbol of zero")
    a0 = normalize(a.value)
    b0 = normalize(b.value)
    squares = _sqrt_table(modulus)
    for y in range(modulus):  # x = 1
        if (a0 + b0 * y * y) % modulus in squares:
            return 1
    return -1


def square_class_int(p: int, v: int, u: int):
    """The square class of p^v u for an int u prime to p: (v mod 2, Legendre
    of u); classifies Q_p^x modulo squares for odd p."""
    return (v % 2, legendre_int(p, u))


def square_class_data(x: KElement):
    """(valuation parity, Legendre of the unit part) of x (``square_class_int``)."""
    if x.value == 0:
        raise ZeroDivisionError("0 has no square class")
    p = x.ctx.p
    return square_class_int(p, *valuation_unit(x.value.numerator, x.value.denominator, p, p))


@lru_cache(maxsize=None)
def _smallest_nonresidue(p: int) -> int:
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) != 1:
            return u
    raise ArithmeticError("no quadratic nonresidue found")


def square_class_representative(ctx: PadicContext, data) -> KElement:
    parity, leg = data
    u = 1 if leg == 1 else _smallest_nonresidue(ctx.p)
    return ctx.elem(Fraction(u * ctx.p**parity))


def _gauss_ball_integral(ctx: PadicContext, coeff: Fraction, level: int) -> CycValue:
    """Exact value of the integral over Z_p of psi(coeff * x^2) dx at sampling
    level `level` (valid once the integrand is constant on cosets of p^level).

    While the level is at least 2 and v(c) = -m <= -2 for c = coeff, the
    integral is first reduced by

        int_{Z_p} psi(c x^2) dx = p^{-1} int_{Z_p} psi(p^2 c x^2) dx

    and the level lowered by 2, so at most p^3 points are ever summed.  Proof:
    write x = y + p^{m-1} z with z in Z_p.  As 2m - 2 >= m, psi(c x^2) =
    psi(c y^2) psi(2 c y p^{m-1} z), and the integral over z vanishes unless
    p divides y (for a unit y the character z -> psi(2 c y p^{m-1} z) is
    nontrivial on Z_p).  So only x = p x' contributes, with dx = p^{-1} dx'.
    Constancy on cosets of p^L for c is constancy on cosets of p^(L-2) for
    p^2 c, so a valid level stays valid."""
    p = ctx.p
    scale = Fraction(1)
    while level >= 2 and frac_valuation(coeff, p) <= -2:
        coeff, level, scale = coeff * p * p, level - 2, scale / p
    pl = p**level
    vals = [CycValue.root_of_unity(ctx.q, p_fractional_part(coeff * x * x, p)) for x in range(pl)]
    return CycValue.sum(vals, ctx.q) * (scale / pl)


def weil_alpha(a: KElement) -> CycValue:
    """The Weil constant alpha(a), from the defining relation

        int Phihat(x) psi(a x^2) dx = |a|^{-1/2} alpha(a) int Phi(x) psi(-x^2/a) dx

    with Phi the indicator of Z_p and Phihat(y) = int Phi(x) psi(-2xy) dx,
    so Phihat = Phi for odd p.  Both sides are exact finite character sums
    of at most p^3 terms each (``_gauss_ball_integral``), so nothing is
    cached here; ``chi_psi`` caches per square class."""
    ctx = a.ctx
    if a.value == 0:
        raise ZeroDivisionError("alpha(0) is undefined")
    v = int(a.valuation())
    lhs_level = max(0, -v) + 1
    rhs_level = max(0, v) + 1
    lhs = _gauss_ball_integral(ctx, a.value, lhs_level)
    if lhs != _gauss_ball_integral(ctx, a.value, lhs_level + 1):
        raise ArithmeticError("left Weil integral not stable under refinement")
    inv = -1 / a.value
    rhs = _gauss_ball_integral(ctx, inv, rhs_level)
    if rhs != _gauss_ball_integral(ctx, inv, rhs_level + 1):
        raise ArithmeticError("right Weil integral not stable under refinement")
    if rhs.is_zero():
        raise ArithmeticError("right Weil integral vanished; it is provably nonzero for odd p")
    return q_half_power(ctx.q, -v) * lhs * rhs.inverse()


_CHI_CACHE: dict = {}


def chi_psi(a: KElement) -> CycValue:
    """chi_psi(a) = alpha(1)/alpha(a) (``chi_psi_int``)."""
    ctx = a.ctx
    if a.value == 0:
        raise ZeroDivisionError("chi_psi(0) is undefined")
    return chi_psi_int(ctx, *valuation_unit(a.value.numerator, a.value.denominator, ctx.p, ctx.p))


def chi_psi_int(ctx: PadicContext, v: int, u: int) -> CycValue:
    """chi_psi(p^v u) for an int u prime to p.  Constant on square classes
    (tested), so the value is computed once per class at a canonical
    representative."""
    cls = square_class_int(ctx.p, v, u)
    key = (ctx.p, cls)
    hit = _CHI_CACHE.get(key)
    if hit is not None:
        return hit
    rep = square_class_representative(ctx, cls)
    value = weil_alpha(ctx.elem(1)) * weil_alpha(rep).inverse()
    _CHI_CACHE[key] = value
    return value


@lru_cache(maxsize=None)
def _primitive_root(p: int, m: int) -> int:
    """Smallest primitive root of (Z/p^m)^x, p odd."""
    order_p = p - 1

    def is_root_mod_p(g: int) -> bool:
        return all(pow(g, d, p) != 1 for d in range(1, order_p) if order_p % d == 0)

    g = 2
    while not is_root_mod_p(g):
        g += 1
    # a root mod p generates mod p^m unless g^(p-1) = 1 mod p^2
    if m >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=None)
def _dlog_table(p: int, m: int):
    pm = p**m
    g = _primitive_root(p, m)
    order = pm // p * (p - 1)
    table = {}
    acc = 1
    for i in range(order):
        table[acc] = i
        acc = acc * g % pm
    if len(table) != order:
        raise ArithmeticError("primitive root failed to generate the unit group")
    return g, order, table


def max_conductor_exponent(p: int) -> int:
    """The largest m with p^(2m) <= ``MAX_GATE_SAMPLES``: 5 at p = 3, 3 at
    p = 5 and p = 7, 2 at p = 11.  For m >= l the deepest sampler of a
    gamma factor is the two-method Bessel spot check
    (``zeta.BesselTable.check_shell``) on the deepest shell -M,
    M = 2m - l: the closed sum and the Bessel kernel there sample at level
    M, one pass of p^(M+1) - p^M < p^(2m) samples for l >= 1.  The other
    deep samplers read level m: T on its support shell -m and the deep
    integrand on the units (``zeta.gamma_coefficient``).  The cap keeps
    the spot check within the budget; it is not the largest m that
    would."""
    m = 0
    while p ** (2 * m + 2) <= MAX_GATE_SAMPLES:
        m += 1
    return m


class MultChar:
    """A character mu of Q_p^x with values in roots of unity, given by its
    conductor exponent m, the exponent of mu(p), and the image of a fixed
    generator of (Z/p^m)^x.

    The generator is the smallest primitive root; its image is
    e(generator_exponent / phi(p^m)).  Conductor exactness (nontrivial on
    1 + p^{m-1} Z_p for m >= 1) is validated at construction.
    """

    def __init__(self, ctx: PadicContext, conductor_exponent: int, p_exponent=Fraction(0),
                 generator_exponent: int = 0):
        m = exact_int(conductor_exponent, "conductor exponent")
        generator_exponent = exact_int(generator_exponent, "generator exponent")
        if m < 0:
            raise ValueError("conductor exponent must be >= 0")
        cap = max_conductor_exponent(ctx.p)
        if m > cap:
            raise ValueError(f"conductor exponent {m} exceeds the cap {cap} at p = {ctx.p}")
        self.ctx = ctx
        self.m = m
        self.p_exponent = Fraction(p_exponent) % 1
        self._modulus = ctx.p**self.m
        self._inverse = None
        if self.m == 0:
            self.generator_exponent = 0
            self._order = 1
        else:
            _, order, self._dlog = _dlog_table(ctx.p, self.m)
            self._order = order
            self.generator_exponent = generator_exponent % order
            self._validate_conductor()

    def _validate_conductor(self):
        p, m = self.ctx.p, self.m
        if m == 1:
            if self.generator_exponent == 0:
                raise ValueError("claimed conductor exponent 1 but the character is unramified")
            return
        probe = self.exponent_int(0, 1 + p ** (m - 1))
        if probe == 0:
            raise ValueError(
                f"claimed conductor exponent {m} but the character is trivial on 1 + P^{m - 1}")

    def is_trivial(self) -> bool:
        return self.m == 0 and self.p_exponent == 0

    def exponent_int(self, v: int, u: int) -> Fraction:
        """mu(p^v u) = e(exponent_int(v, u)) for an int u prime to p."""
        e = v * self.p_exponent
        if self.m:
            e += Fraction(self.generator_exponent * self._dlog[u % self._modulus], self._order)
        return e % 1

    def value_int(self, v: int, u: int) -> CycValue:
        return CycValue.root_of_unity(self.ctx.q, self.exponent_int(v, u))

    def value(self, x) -> CycValue:
        if x == 0:
            raise ZeroDivisionError("mu(0) is undefined")
        return self.value_int(*valuation_unit(x.numerator, x.denominator, self.ctx.p,
                                              self._modulus))

    def inverse(self) -> "MultChar":
        """mu^-1, built on first use and then remembered on the instance."""
        if self._inverse is None:
            self._inverse = MultChar(self.ctx, self.m, -self.p_exponent, -self.generator_exponent)
        return self._inverse

    def cache_key(self):
        return (self.m, self.p_exponent, self.generator_exponent)

    @classmethod
    def trivial(cls, ctx: PadicContext) -> "MultChar":
        return cls(ctx, 0)

    @classmethod
    def from_spec(cls, ctx: PadicContext, record: dict) -> "MultChar":
        """Build from the character record

            {conductor_exponent, value_at_p_numerator_of_exponent,
             value_at_p_denominator_of_exponent, generator_image_exponent}

        where mu(p) = e(num/den) and the generator of (Z/p^m)^x maps to
        e(generator_image_exponent / phi(p^m)).  Every field must be an
        integer (``exact_int``)."""
        return cls(
            ctx,
            record["conductor_exponent"],
            Fraction(exact_int(record["value_at_p_numerator_of_exponent"], "mu(p) numerator"),
                     exact_int(record["value_at_p_denominator_of_exponent"],
                               "mu(p) denominator")),
            record.get("generator_image_exponent", 0),
        )

    def spec_record(self) -> dict:
        return {
            "conductor_exponent": self.m,
            "value_at_p_numerator_of_exponent": self.p_exponent.numerator,
            "value_at_p_denominator_of_exponent": self.p_exponent.denominator,
            "generator_image_exponent": self.generator_exponent,
        }

    def __repr__(self):
        if self.is_trivial():
            return f"MultChar(trivial, p={self.ctx.p})"
        return (f"MultChar(p={self.ctx.p}, m={self.m}, mu(p)=e({self.p_exponent}), "
                f"gen->e({self.generator_exponent}/{self._order}))")
