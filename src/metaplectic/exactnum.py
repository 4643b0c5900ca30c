"""Exact scalar arithmetic over Q_p and cyclotomic fields.

Three layers, all exact:

* ``KElement`` -- a rational number viewed inside Q_p, with valuation and
  unit-part accessors.  Every sample point, matrix entry and character
  argument in this package is such a rational, so no precision management
  is ever needed.
* ``CycValue`` -- an element of Q(zeta_N)[X]/(X^2 - q) for a dynamically
  chosen root-of-unity level N, written as  A + B*sqrt(q)  with A, B kept
  in a canonical cyclotomic basis.  Half-integer powers of q stay formal;
  the classical Gauss-sum identity sqrt(p) in Q(zeta_4p) is a cross-check,
  not a representation choice.
* ``LaurentPoly`` -- a finitely supported map from integer exponents to
  ``CycValue`` in a tagged formal variable q^{-s} or q^{s}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct

INFINITY = math.inf

Q_NEG_S = "q^-s"
Q_POS_S = "q^s"

S_TO_ONE_MINUS_S = "S_TO_ONE_MINUS_S"
NEGATE_S = "NEGATE_S"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PadicContext:
    """The local field Q_p for an odd prime p, with q = p and uniformizer p."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p < 3:
            raise ValueError("even residue characteristic is not supported (p must be odd)")

    @property
    def q(self) -> int:
        return self.p

    @property
    def uniformizer(self) -> Fraction:
        return Fraction(self.p)

    def elem(self, value) -> "KElement":
        return KElement(Fraction(value), self)

    def cyc(self, value) -> "CycValue":
        return CycValue.rational(self.q, Fraction(value))

    def cyc_e(self, exponent) -> "CycValue":
        return CycValue.root_of_unity(self.q, Fraction(exponent))

    def sqrtq(self) -> "CycValue":
        return CycValue.sqrtq(self.q)

    def one(self) -> "CycValue":
        return CycValue.one(self.q)

    def zero(self) -> "CycValue":
        return CycValue.zero(self.q)


def frac_valuation(x: Fraction, p: int):
    """p-adic valuation of a rational; +infinity for 0."""
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def frac_unit_part(x: Fraction, p: int) -> Fraction:
    if x == 0:
        raise ZeroDivisionError("0 has no unit part")
    v = frac_valuation(x, p)
    return x / Fraction(p) ** v


def frac_mod(x: Fraction, modulus: int) -> int:
    """x modulo a power of p, for x with denominator prime to p."""
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


@lru_cache(maxsize=None)
def p_fractional_part(x: Fraction, p: int) -> Fraction:
    """The map [.] : Q -> Q, the unique rational in [0,1) with p-power
    denominator congruent to x modulo Z_p."""
    v = frac_valuation(x, p)
    if v >= 0:
        return Fraction(0)
    m = -int(v)
    pm = p**m
    d0 = x.denominator // pm
    c = x.numerator * pow(d0, -1, pm) % pm
    return Fraction(c, pm)


@dataclass(frozen=True)
class KElement:
    """A rational number carrying its ambient p-adic context."""

    value: Fraction
    ctx: PadicContext

    def valuation(self):
        return frac_valuation(self.value, self.ctx.p)

    def unit_part(self) -> Fraction:
        return frac_unit_part(self.value, self.ctx.p)

    def abs_value(self) -> Fraction:
        """The normalized absolute value |x| = q^{-v(x)} as an exact rational."""
        if self.value == 0:
            return Fraction(0)
        return Fraction(self.ctx.q) ** (-self.valuation())

    def is_zero(self) -> bool:
        return self.value == 0

    def is_integral(self) -> bool:
        return self.value.denominator % self.ctx.p != 0

    def fractional_part(self) -> Fraction:
        return p_fractional_part(self.value, self.ctx.p)

    def _coerce(self, other) -> Fraction:
        if isinstance(other, KElement):
            if other.ctx.p != self.ctx.p:
                raise ValueError("mixed p-adic contexts")
            return other.value
        return Fraction(other)

    def __add__(self, other):
        return KElement(self.value + self._coerce(other), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        return KElement(self.value - self._coerce(other), self.ctx)

    def __rsub__(self, other):
        return KElement(self._coerce(other) - self.value, self.ctx)

    def __mul__(self, other):
        return KElement(self.value * self._coerce(other), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return KElement(self.value / self._coerce(other), self.ctx)

    def __rtruediv__(self, other):
        return KElement(self._coerce(other) / self.value, self.ctx)

    def __neg__(self):
        return KElement(-self.value, self.ctx)

    def __eq__(self, other):
        if isinstance(other, KElement):
            return self.value == other.value and self.ctx.p == other.ctx.p
        return self.value == other

    def __hash__(self):
        return hash((self.value, self.ctx.p))

    def __repr__(self):
        return f"KElement({self.value}, p={self.ctx.p})"


# ---------------------------------------------------------------------------
# Cyclotomic canonical form.
#
# An exponent r in Q/Z decomposes via CRT over the prime powers of its
# denominator; the power basis {zeta_{l^a}^b : 0 <= b < phi(l^a)} per prime
# power gives a tensor-product basis of Q(zeta_N) that is stable under
# enlarging N.  A single rewriting step using the minimal polynomial of
# zeta_{l^a} lands every root in the basis.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _den_parts(den: int):
    """CRT data for a denominator: tuples (l, M=l^a, inv, phi, step=l^(a-1))."""
    parts = []
    rest = den
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            m = 1
            while rest % f == 0:
                rest //= f
                m *= f
            parts.append((f, m))
        f += 1
    if rest > 1:
        parts.append((rest, 1 * rest))
    out = []
    for ell, m in parts:
        cof = den // m
        # inv = (den/m)^{-1} mod m, the CRT multiplier for the l-part
        inv = pow(cof, -1, m) if cof > 1 else 1
        step = m // ell
        phi = step * (ell - 1)
        out.append((ell, m, inv, phi, step))
    return tuple(out)


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _canonical_insert(out: dict, r: Fraction, c: Fraction) -> None:
    """Accumulate c * e(r) into ``out`` in canonical-basis coordinates."""
    if c == 0:
        return
    r = _mod1(r)
    den = r.denominator
    if den == 1:
        out[Fraction(0)] = out.get(Fraction(0), Fraction(0)) + c
        return
    num = r.numerator
    factors = []
    for ell, m, inv, phi, step in _den_parts(den):
        b = (num * inv) % m
        if b < phi:
            factors.append(((1, Fraction(b, m)),))
        else:
            cc = b - phi
            factors.append(tuple((-1, Fraction(cc + j * step, m)) for j in range(ell - 1)))
    for combo in _iproduct(*factors):
        sign = 1
        expo = Fraction(0)
        for s, fr in combo:
            sign *= s
            expo += fr
        expo = _mod1(expo)
        out[expo] = out.get(expo, Fraction(0)) + sign * c


def _canonicalize(raw: dict) -> dict:
    out: dict = {}
    for r, c in raw.items():
        _canonical_insert(out, r, c)
    return {r: c for r, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _unit_residues_mod(n: int):
    """The units of Z/n in ascending order.  The single-pass refinement gate
    of ``zeta`` relies on the order: for n = p^(L+1) the units below p^L,
    the level-L sample set, are the first 1/p of the tuple."""
    return tuple(t for t in range(1, n) if math.gcd(t, n) == 1)


class CycValue:
    """An exact element  A + B*sqrt(q)  with A, B in Q(zeta_N) for a level N
    determined by the exponents present; always kept in canonical form."""

    __slots__ = ("q", "_one", "_sq", "_hash")

    def __init__(self, q: int, one_terms=None, sqrt_terms=None, _canonical=False):
        self.q = q
        one_terms = one_terms or {}
        sqrt_terms = sqrt_terms or {}
        if _canonical:
            self._one = one_terms
            self._sq = sqrt_terms
        else:
            self._one = _canonicalize(one_terms)
            self._sq = _canonicalize(sqrt_terms)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "CycValue":
        return cls(q, {}, {}, _canonical=True)

    @classmethod
    def one(cls, q: int) -> "CycValue":
        return cls.rational(q, 1)

    @classmethod
    def rational(cls, q: int, r) -> "CycValue":
        r = Fraction(r)
        if r == 0:
            return cls.zero(q)
        return cls(q, {Fraction(0): r}, {}, _canonical=True)

    @classmethod
    def root_of_unity(cls, q: int, exponent) -> "CycValue":
        """e(exponent) := exp(2*pi*i*exponent)."""
        return _root_memo(q, Fraction(exponent))

    @classmethod
    def sqrtq(cls, q: int) -> "CycValue":
        return cls(q, {}, {Fraction(0): Fraction(1)}, _canonical=True)

    @classmethod
    def sum(cls, values, q=None) -> "CycValue":
        one: dict = {}
        sq: dict = {}
        for v in values:
            if q is None:
                q = v.q
            for r, c in v._one.items():
                one[r] = one.get(r, Fraction(0)) + c
            for r, c in v._sq.items():
                sq[r] = sq.get(r, Fraction(0)) + c
        if q is None:
            raise ValueError("empty sum with unknown q")
        return cls(q, {r: c for r, c in one.items() if c != 0},
                   {r: c for r, c in sq.items() if c != 0}, _canonical=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._one and not self._sq

    def is_rational(self) -> bool:
        if self._sq:
            return False
        if not self._one:
            return True
        return len(self._one) == 1 and Fraction(0) in self._one

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self._one.get(Fraction(0), Fraction(0))

    def _coerce(self, other) -> "CycValue":
        if isinstance(other, CycValue):
            if other.q != self.q:
                raise ValueError("mixed ambient q")
            return other
        return CycValue.rational(self.q, Fraction(other))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        one = dict(self._one)
        for r, c in o._one.items():
            s = one.get(r, Fraction(0)) + c
            if s:
                one[r] = s
            elif r in one:
                del one[r]
        sq = dict(self._sq)
        for r, c in o._sq.items():
            s = sq.get(r, Fraction(0)) + c
            if s:
                sq[r] = s
            elif r in sq:
                del sq[r]
        return CycValue(self.q, one, sq, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return CycValue(self.q, {r: -c for r, c in self._one.items()},
                        {r: -c for r, c in self._sq.items()}, _canonical=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    @staticmethod
    def _convolve(t1: dict, t2: dict, scale: Fraction, acc: dict) -> None:
        for r1, c1 in t1.items():
            for r2, c2 in t2.items():
                r = _mod1(r1 + r2)
                acc[r] = acc.get(r, Fraction(0)) + scale * c1 * c2

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return CycValue.zero(self.q)
            return CycValue(self.q, {r: c * f for r, c in self._one.items()},
                            {r: c * f for r, c in self._sq.items()}, _canonical=True)
        o = self._coerce(other)
        one_raw: dict = {}
        sq_raw: dict = {}
        self._convolve(self._one, o._one, Fraction(1), one_raw)
        self._convolve(self._sq, o._sq, Fraction(self.q), one_raw)
        self._convolve(self._one, o._sq, Fraction(1), sq_raw)
        self._convolve(self._sq, o._one, Fraction(1), sq_raw)
        return CycValue(self.q, one_raw, sq_raw)

    __rmul__ = __mul__

    def conjugate(self) -> "CycValue":
        one = {}
        sq = {}
        for r, c in self._one.items():
            one[_mod1(-r)] = c
        for r, c in self._sq.items():
            sq[_mod1(-r)] = c
        return CycValue(self.q, one, sq)

    def _galois(self, t: int, n: int) -> "CycValue":
        """Apply e(r) -> e(t*r); only meaningful on the pure cyclotomic part."""
        one = {}
        for r, c in self._one.items():
            rr = _mod1(Fraction(t * r.numerator, r.denominator))
            one[rr] = one.get(rr, Fraction(0)) + c
        return CycValue(self.q, one, {})

    def _cyclotomic_inverse(self) -> "CycValue":
        """Inverse of a nonzero pure-cyclotomic value."""
        terms = self._one
        if len(terms) == 1:
            (r, c), = terms.items()
            return CycValue(self.q, {_mod1(-r): 1 / c}, {})
        m = self * self.conjugate()
        if m.is_rational():
            return self.conjugate() * (1 / m.as_rational())
        lev = 1
        for r in terms:
            lev = lev * r.denominator // math.gcd(lev, r.denominator)
        prod = CycValue.one(self.q)
        for t in _unit_residues_mod(lev):
            if t == 1:
                continue
            prod = prod * self._galois(t, lev)
        norm = self * prod
        if not norm.is_rational():
            raise ArithmeticError("field norm failed to land in Q")
        return prod * (1 / norm.as_rational())

    def inverse(self) -> "CycValue":
        if self.is_zero():
            raise ZeroDivisionError("division by zero CycValue")
        a_part = CycValue(self.q, self._one, {}, _canonical=True)
        if not self._sq:
            return a_part._cyclotomic_inverse()
        b_part = CycValue(self.q, self._sq, {}, _canonical=True)
        disc = a_part * a_part - b_part * b_part * self.q
        if disc.is_zero():
            raise ZeroDivisionError("value is a zero divisor in Q(zeta)[sqrt q]")
        conj = CycValue(self.q, self._one, {r: -c for r, c in self._sq.items()}, _canonical=True)
        return conj * disc._cyclotomic_inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycValue.one(self.q)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self._one == o._one and self._sq == o._sq

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.q,
                               frozenset(self._one.items()),
                               frozenset(self._sq.items())))
        return self._hash

    def to_complex(self) -> complex:
        z = sum((complex(c) * cmath.exp(2j * cmath.pi * float(r)) for r, c in self._one.items()),
                complex(0))
        w = sum((complex(c) * cmath.exp(2j * cmath.pi * float(r)) for r, c in self._sq.items()),
                complex(0))
        return z + math.sqrt(self.q) * w

    @staticmethod
    def _fmt_terms(terms: dict) -> str:
        bits = []
        for r in sorted(terms):
            c = terms[r]
            if r == 0:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(f"e({r})")
            else:
                bits.append(f"{c}*e({r})")
        return " + ".join(bits)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self._one:
            parts.append(self._fmt_terms(self._one))
        if self._sq:
            parts.append(f"sqrt(q)*({self._fmt_terms(self._sq)})")
        return " + ".join(parts)

    def terms(self):
        """Flat term view: tuples (coefficient, root exponent, sqrtq flag)."""
        out = [(c, r, False) for r, c in sorted(self._one.items())]
        out += [(c, r, True) for r, c in sorted(self._sq.items())]
        return out

    @classmethod
    def from_terms(cls, q: int, triples) -> "CycValue":
        one: dict = {}
        sq: dict = {}
        for coeff, expo, half in triples:
            target = sq if half else one
            e = Fraction(expo)
            target[e] = target.get(e, Fraction(0)) + Fraction(coeff)
        return cls(q, one, sq)


@lru_cache(maxsize=None)
def _root_memo(q: int, exponent: Fraction) -> CycValue:
    return CycValue(q, {exponent: Fraction(1)}, {})


def q_half_power(q: int, n: int) -> CycValue:
    """q^{n/2} as an exact CycValue (formal sqrt(q) for odd n)."""
    if n % 2 == 0:
        return CycValue.rational(q, Fraction(q) ** (n // 2))
    return CycValue.sqrtq(q) * Fraction(q) ** ((n - 1) // 2)


class LaurentPoly:
    """Finitely supported exponent -> CycValue map in a tagged variable,
    either q^{-s} (Q_NEG_S) or q^{s} (Q_POS_S)."""

    __slots__ = ("q", "var", "coeffs")

    def __init__(self, q: int, var: str, coeffs=None):
        if var not in (Q_NEG_S, Q_POS_S):
            raise ValueError(f"unknown variable tag {var!r}")
        self.q = q
        self.var = var
        self.coeffs = {int(n): c for n, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, q: int, var: str) -> "LaurentPoly":
        return cls(q, var, {})

    @classmethod
    def constant(cls, q: int, var: str, value) -> "LaurentPoly":
        if not isinstance(value, CycValue):
            value = CycValue.rational(q, value)
        return cls(q, var, {0: value})

    @classmethod
    def monomial(cls, q: int, var: str, n: int, value) -> "LaurentPoly":
        if not isinstance(value, CycValue):
            value = CycValue.rational(q, value)
        return cls(q, var, {n: value})

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.var != self.var or other.q != self.q:
            raise ValueError("mismatched Laurent variables")
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            s = out.get(n, CycValue.zero(self.q)) + c
            if s.is_zero():
                out.pop(n, None)
            else:
                out[n] = s
        return LaurentPoly(self.q, self.var, out)

    def __neg__(self):
        return LaurentPoly(self.q, self.var, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.var != self.var or other.q != self.q:
                raise ValueError("mismatched Laurent variables")
            out: dict = {}
            for n1, c1 in self.coeffs.items():
                for n2, c2 in other.coeffs.items():
                    n = n1 + n2
                    s = out.get(n, CycValue.zero(self.q)) + c1 * c2
                    out[n] = s
            return LaurentPoly(self.q, self.var, out)
        return LaurentPoly(self.q, self.var, {n: c * other for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.q == other.q and self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.var, frozenset(self.coeffs.items())))

    def substitute(self, rule: str) -> "LaurentPoly":
        """Formal substitution of s.

        * ``S_TO_ONE_MINUS_S``: s -> 1-s.  In the q^{-s} variable a term
          c*(q^{-s})^n becomes c*q^{-n}*(q^{s})^n, and symmetrically.
        * ``NEGATE_S``: s -> -s, i.e. the variable tag swaps with the
          integer exponents kept.
        """
        other = Q_POS_S if self.var == Q_NEG_S else Q_NEG_S
        if rule == NEGATE_S:
            return LaurentPoly(self.q, other, dict(self.coeffs))
        if rule != S_TO_ONE_MINUS_S:
            raise ValueError(f"unknown substitution rule {rule!r}")
        sign = -1 if self.var == Q_NEG_S else 1
        out = {n: c * Fraction(self.q) ** (sign * n) for n, c in self.coeffs.items()}
        return LaurentPoly(self.q, other, out)

    def retagged(self) -> "LaurentPoly":
        """The same function of s written in the other variable
        ((q^{-s})^n = (q^{s})^{-n})."""
        other = Q_POS_S if self.var == Q_NEG_S else Q_NEG_S
        return LaurentPoly(self.q, other, {-n: c for n, c in self.coeffs.items()})

    def evaluate(self, s: complex) -> complex:
        sign = -1 if self.var == Q_NEG_S else 1
        return sum(c.to_complex() * self.q ** (sign * s * n) for n, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = [f"({self.coeffs[n]!r})*({self.var})^{n}" for n in self.support()]
        return " + ".join(bits)
