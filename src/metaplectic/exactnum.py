"""Exact scalar arithmetic over Q_p and cyclotomic fields.

Three layers, all exact:

* ``KElement`` -- a rational number viewed inside Q_p, with valuation and
  unit-part accessors: the argument type of the character API
  (``chi_psi``, ``hilbert_symbol``, ``weil_alpha``).  Every other p-adic
  argument in this package is an exact rational, an ``int`` or a
  ``Fraction``, so no precision management is ever needed; shell sample
  points are ``ShellPoint``s, which also carry their valuation and unit as
  ints.
* ``CycValue`` -- an element of Q(zeta_N) for a dynamically chosen
  root-of-unity level N, kept in a canonical cyclotomic basis, so equal
  values compare and hash equal.  Half-integer powers of q need no extra
  symbol: sqrt(q) is the quadratic Gauss sum (times e(-1/4) when
  q = 3 mod 4), which lies in Q(zeta_q) or Q(zeta_4q).  The ring
  operations run on ints only: a value is a level N, one positive
  denominator D and one map {k: c} of ints meaning (1/D) * sum c e(k/N);
  the rewrite of e(k/N) into the basis is looked up in a table memoized
  per level, and ``Fraction`` appears only at the boundary (``terms()``,
  ``repr``, ``to_complex``).
* ``LaurentPoly`` -- a finitely supported map from integer exponents to
  ``CycValue`` in a tagged formal variable q^{-s} or q^{s}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf

Q_NEG_S = "q^-s"
Q_POS_S = "q^s"


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
        p = exact_int(self.p, "p")
        if p < 3 or not _is_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> int:
        return self.p

    def elem(self, value) -> "KElement":
        return KElement(Fraction(value), self)


def p_split(num: int, den: int, p: int):
    """(v, n, d) with num/den = p^v n/d and n, d prime to p, for ints
    num != 0 and den > 0."""
    if num == 0:
        raise ZeroDivisionError("0 has no unit part")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def frac_valuation(x: Fraction, p: int):
    """p-adic valuation of a rational; +infinity for 0."""
    if x == 0:
        return INFINITY
    return p_split(x.numerator, x.denominator, p)[0]


def frac_unit_part(x: Fraction, p: int) -> Fraction:
    _, n, d = p_split(x.numerator, x.denominator, p)
    return Fraction(n, d)


def frac_mod(x: Fraction, modulus: int) -> int:
    """x modulo a power of p, for x with denominator prime to p."""
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def valuation_unit(num: int, den: int, p: int, modulus: int):
    """(v, u mod modulus) for the nonzero rational num/den = p^v u, u a
    p-adic unit and modulus a power of p; ints only."""
    v, n, d = p_split(num, den, p)
    return v, n * pow(d, -1, modulus) % modulus


def p_fractional_int(num: int, den: int, p: int):
    """[num/den] as (c, p^m) with c/p^m its value, 0 <= c < p^m, for ints
    num and den > 0 (not necessarily coprime)."""
    if num == 0:
        return 0, 1
    v, n, d = p_split(num, den, p)
    if v >= 0:
        return 0, 1
    pm = p**-v
    return n * pow(d, -1, pm) % pm, pm


@lru_cache(maxsize=None)
def p_fractional_part(x: Fraction, p: int) -> Fraction:
    """The map [.] : Q -> Q, the unique rational in [0,1) with p-power
    denominator congruent to x modulo Z_p."""
    return Fraction(*p_fractional_int(x.numerator, x.denominator, p))


class ShellPoint(Fraction):
    """The sample point x = u p^k of the shell p^k Z_p^x: a ``Fraction``
    equal to x that also keeps its valuation k and its unit u, an int prime
    to p, so integrands can read the integer coordinates directly.
    Arithmetic on it returns plain ``Fraction``s."""

    __slots__ = ("k", "u")

    def __new__(cls, u: int, k: int, p: int):
        self = super().__new__(cls, u * p**k) if k >= 0 else super().__new__(cls, u, p**-k)
        self.k = k
        self.u = u
        return self


def torus_coordinates(x: Fraction, p: int):
    """(k, u) with x = p^k u: u is an int when x has a p-power denominator
    (always for a ``ShellPoint``), else the unit as a ``Fraction`` with
    denominator prime to p."""
    if type(x) is ShellPoint:
        return x.k, x.u
    return ratio_torus_coordinates(x.numerator, x.denominator, p)


def ratio_torus_coordinates(num: int, den: int, p: int):
    """``torus_coordinates`` of num/den, for ints num != 0 and den > 0 (not
    necessarily coprime)."""
    k, n, d = p_split(num, den, p)
    if d != 1:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return k, n if d == 1 else Fraction(n, d)


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

    def __repr__(self):
        return f"KElement({self.value}, p={self.ctx.p})"


def exact_int(value, what: str) -> int:
    """`value` as an int, for a field that must be an integer: a value that
    is not equal to its int (1.9, or the string "2") raises ValueError
    instead of being truncated, and so does an infinite float."""
    try:
        n = int(value)
    except OverflowError:
        n = None
    if n != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return n


# ---------------------------------------------------------------------------
# Cyclotomic canonical form.
#
# An exponent r in Q/Z decomposes via CRT over the prime powers of its
# denominator; the power basis {zeta_{l^a}^b : 0 <= b < phi(l^a)} per prime
# power gives a tensor-product basis of Q(zeta_N) that is stable under
# enlarging N.  A single rewriting step using the minimal polynomial of
# zeta_{l^a} lands every root in the basis.
#
# Values are stored fraction-free: a root is an int k standing for e(k/N) at
# the value's level N, and the coefficients are ints over one shared
# denominator.  The rewrite of e(k/N) depends on N and k alone, so it is
# memoized per level (``_reduce_table``).  Lifting a basis root to a multiple
# of N keeps it a basis root (the leading base-l digit of each l-component
# is unchanged), so sums never need a rewrite.
# ---------------------------------------------------------------------------


def _den_parts(den: int):
    """CRT data for a level: tuples (l, M=l^a, cof=den/M, inv, phi, step=l^(a-1))."""
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
        out.append((ell, m, cof, inv, phi, step))
    return tuple(out)


class _ReductionTable(dict):
    """k -> the canonical-basis expansion of e(k/N) at one level N.

    An entry is None when e(k/N) is a basis root, else (sign, roots) with
    e(k/N) = sign * sum of e(k'/N) over k' in roots.  The sign is shared:
    each l-component outside the basis contributes one factor -1.  Entries
    are filled on first use."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.parts = _den_parts(n)

    def __missing__(self, k: int):
        n = self.n
        sign = 1
        roots = [0]
        for ell, m, cof, inv, phi, step in self.parts:
            b = k * inv % m   # the l-component: k/N = sum of b/m over l, mod 1
            if b < phi:
                roots = [r + b * cof for r in roots]
            else:
                sign = -sign
                roots = [r + (b - phi + j * step) * cof for r in roots for j in range(ell - 1)]
        entry = None if len(roots) == 1 and sign == 1 else (sign, tuple(r % n for r in roots))
        self[k] = entry
        return entry


@lru_cache(maxsize=None)
def _reduce_table(n: int) -> _ReductionTable:
    return _ReductionTable(n)


def _reduced(raw: dict, n: int) -> dict:
    """{k: c} at level n rewritten into the canonical basis, zeros dropped."""
    table = _reduce_table(n)
    out: dict = {}
    get = out.get
    for k, c in raw.items():
        if not c:
            continue
        entry = table[k]
        if entry is None:
            out[k] = get(k, 0) + c
        else:
            sign, roots = entry
            if sign < 0:
                c = -c
            for r in roots:
                out[r] = get(r, 0) + c
    return {k: c for k, c in out.items() if c}


def _lifted(terms: dict, m: int) -> dict:
    return terms if m == 1 else {k * m: c for k, c in terms.items()}


@lru_cache(maxsize=None)
def _unit_residues_mod(n: int):
    """The units of Z/n in ascending order.  The single-pass refinement gate
    of ``zeta`` relies on the order: for n = p^(L+1) the units below p^L,
    the level-L sample set, are the first 1/p of the tuple."""
    return tuple(t for t in range(1, n) if math.gcd(t, n) == 1)


# The samples one pass of ``zeta``'s refinement gate may take, compared with
# p**level; ``localchar.max_conductor_exponent`` derives its cap from it.
MAX_GATE_SAMPLES = 3**11


class CycValue:
    """An exact element of Q(zeta_N) for a level N determined by the roots
    present; always kept in canonical form.

    The form is fraction-free: a level N, a denominator D > 0 and one map
    {k: c} of ints meaning (1/D) * sum c e(k/N), every e(k/N) a canonical
    basis root and no c zero.  It is normalized to gcd(D, all c) = 1 and
    gcd(N, all k) = 1, so N is the least level of the roots present and
    equal values have equal coordinates, whatever level they were computed
    at.  sqrt(q) is no separate coordinate: ``sqrtq`` is the quadratic Gauss
    sum, a value of Q(zeta_q) or Q(zeta_4q) like any other.  ``terms()``
    gives the Fraction view."""

    __slots__ = ("q", "_n", "_d", "_coeffs", "_hash")

    def _set(self, q, n, d, coeffs) -> None:
        """Store a canonical, zero-free form after dividing out
        gcd(D, all c) and gcd(N, all k)."""
        if d != 1:
            g = math.gcd(d, *coeffs.values())
            if g != 1:
                d //= g
                coeffs = {k: c // g for k, c in coeffs.items()}
        if n != 1:
            g = math.gcd(n, *coeffs)
            if g != 1:
                n //= g
                coeffs = {k // g: c for k, c in coeffs.items()}
        self.q = q
        self._n = n
        self._d = d
        self._coeffs = coeffs
        self._hash = None

    @classmethod
    def _make(cls, q, n, d, coeffs) -> "CycValue":
        """A value from a canonical, zero-free form, normalized."""
        self = object.__new__(cls)
        self._set(q, n, d, coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "CycValue":
        return cls._make(q, 1, 1, {})

    @classmethod
    def one(cls, q: int) -> "CycValue":
        return cls.rational(q, 1)

    @classmethod
    def rational(cls, q: int, r) -> "CycValue":
        """The rational r: an int or ``Fraction`` is read as it is, any
        other value through ``Fraction``."""
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if not r.numerator:
            return cls.zero(q)
        return cls._make(q, 1, r.denominator, {0: r.numerator})

    @classmethod
    def root_of_unity(cls, q: int, exponent) -> "CycValue":
        """e(exponent) := exp(2*pi*i*exponent)."""
        exponent = Fraction(exponent)
        return cls.root_of_unity_int(q, exponent.numerator, exponent.denominator)

    @classmethod
    def root_of_unity_int(cls, q: int, k: int, n: int) -> "CycValue":
        """e(k/n) for ints k and n > 0."""
        return _root_memo(q, k % n, n)

    @classmethod
    def sqrtq(cls, q: int) -> "CycValue":
        """The positive square root of the odd prime q (``_sqrtq_memo``)."""
        return _sqrtq_memo(q)

    @classmethod
    def sum(cls, values, q=None) -> "CycValue":
        values = list(values)
        if len(values) == 1 and q in (None, values[0].q):
            return values[0]
        n = d = 1
        for v in values:
            if q is None:
                q = v.q
            elif v.q != q:
                raise ValueError("mixed ambient q")
            if v._n != n:
                n = math.lcm(n, v._n)
            if v._d != d:
                d = math.lcm(d, v._d)
        if q is None:
            raise ValueError("empty sum with unknown q")
        acc: dict = {}
        get = acc.get
        for v in values:
            m = n // v._n
            s = d // v._d
            if m == 1 and s == 1:
                for k, c in v._coeffs.items():
                    acc[k] = get(k, 0) + c
            else:
                for k, c in v._coeffs.items():
                    k *= m
                    acc[k] = get(k, 0) + c * s
        return cls._make(q, n, d, {k: c for k, c in acc.items() if c})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self._coeffs.get(0, 0), self._d)

    def _coerce(self, other) -> "CycValue | None":
        """`other` over the same q, or None (the operator then returns
        NotImplemented) for an operand that is not a CycValue, int or Fraction."""
        if isinstance(other, CycValue):
            if other.q != self.q:
                raise ValueError("mixed ambient q")
            return other
        if isinstance(other, (int, Fraction)):
            return CycValue.rational(self.q, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else CycValue.sum((self, o))

    __radd__ = __add__

    def __neg__(self):
        """Negating the coefficients keeps the form normalized: the fields
        are copied, and no gcd is taken again."""
        out = object.__new__(CycValue)
        out.q, out._n, out._d, out._hash = self.q, self._n, self._d, None
        out._coeffs = {k: -c for k, c in self._coeffs.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def _scaled(self, num: int, den: int) -> "CycValue":
        """self * num/den for ints num and den > 0; self itself, or its
        negation, for +-1 (a value is immutable, so sharing it is safe)."""
        if den == 1 and (num == 1 or num == -1):
            return self if num == 1 else -self
        if not num:
            return CycValue.zero(self.q)
        return CycValue._make(self.q, self._n, self._d * den,
                              {k: c * num for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, CycValue):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        o = self._coerce(other)
        n1, n2 = self._n, o._n
        # a rational factor scales the coefficients; no root moves
        if n2 == 1:
            return self._scaled(o._coeffs.get(0, 0), o._d)
        if n1 == 1:
            return o._scaled(self._coeffs.get(0, 0), self._d)
        if len(self._coeffs) == 1 and len(o._coeffs) == 1:
            # c1 e(k1/n1) * c2 e(k2/n2) is one root, the memoized e(k/n),
            # scaled by c1 c2
            (k1, c1), = self._coeffs.items()
            (k2, c2), = o._coeffs.items()
            n = n1 if n1 == n2 else math.lcm(n1, n2)
            root = _root_memo(self.q, (k1 * (n // n1) + k2 * (n // n2)) % n, n)
            return root._scaled(c1 * c2, self._d * o._d)
        return self._convolved(o)

    def _convolved(self, o: "CycValue") -> "CycValue":
        """self * o by the general route: both lifted to a common level,
        convolved, and the product rewritten into the canonical basis."""
        n1, n2 = self._n, o._n
        n = n1 if n1 == n2 else math.lcm(n1, n2)
        t1, t2 = _lifted(self._coeffs, n // n1), _lifted(o._coeffs, n // n2)
        acc: dict = {}
        get = acc.get
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                k = k1 + k2
                if k >= n:
                    k -= n
                acc[k] = get(k, 0) + c1 * c2
        return CycValue._make(self.q, n, self._d * o._d, _reduced(acc, n))

    __rmul__ = __mul__

    def conjugate(self) -> "CycValue":
        return self._galois(-1)

    def _galois(self, t: int) -> "CycValue":
        """Apply e(r) -> e(t*r) for t prime to the level."""
        lev = self._n
        raw: dict = {}
        for k, c in self._coeffs.items():
            k = t * k % lev
            raw[k] = raw.get(k, 0) + c
        return CycValue._make(self.q, lev, self._d, _reduced(raw, lev))

    def inverse(self) -> "CycValue":
        """The inverse of a nonzero value: one root is inverted directly,
        any other value through the field norm: self times the product of
        its other Galois conjugates (t = 1 is the first unit) is rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero CycValue")
        terms = self._coeffs
        if len(terms) == 1:
            (k, c), = terms.items()
            n = self._n
            sign = 1 if c > 0 else -1
            return CycValue._make(self.q, n, abs(c), _reduced({-k % n: sign * self._d}, n))
        others = [self._galois(t) for t in _unit_residues_mod(self._n)[1:]]
        prod = math.prod(others[1:], start=others[0])
        norm = self * prod
        if not norm.is_rational():
            raise ArithmeticError("field norm failed to land in Q")
        return prod * (1 / norm.as_rational())

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

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
        o = other if isinstance(other, CycValue) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.q == o.q and self._n == o._n and self._d == o._d and self._coeffs == o._coeffs

    def __hash__(self):
        """A rational value hashes as its Fraction, since it equals the int
        or Fraction it coerces from."""
        if self._hash is None:
            self._hash = (hash(self.as_rational()) if self._n == 1 else
                          hash((self.q, self._n, self._d, frozenset(self._coeffs.items()))))
        return self._hash

    def terms(self):
        """Flat term view: (coefficient, root exponent) Fraction pairs in
        ascending exponent."""
        n, d = self._n, self._d
        return [(Fraction(c, d), Fraction(k, n)) for k, c in sorted(self._coeffs.items())]

    def to_complex(self) -> complex:
        """The complex value, term by term in ascending exponent from the int
        form: c/D and k/N are the floats of the ``terms()`` Fractions, as
        int true division rounds the exact quotient."""
        n, d = self._n, self._d
        return sum((complex(c / d) * cmath.exp(2j * cmath.pi * (k / n))
                    for k, c in sorted(self._coeffs.items())), complex(0))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for c, r in self.terms():
            if r == 0:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(f"e({r})")
            else:
                bits.append(f"{c}*e({r})")
        return " + ".join(bits)

    @classmethod
    def from_terms(cls, q: int, triples) -> "CycValue":
        """From (coefficient, root exponent, sqrtq flag) triples, the term
        records of the JSON format; a flagged term means c e(r) sqrt(q)."""
        return cls.sum([cls.root_of_unity(q, expo) * Fraction(coeff)
                        * (cls.sqrtq(q) if flag else 1) for coeff, expo, flag in triples], q)


@lru_cache(maxsize=None)
def _root_memo(q: int, k: int, n: int) -> CycValue:
    return CycValue._make(q, n, 1, _reduced({k: 1}, n))


@lru_cache(maxsize=None)
def _sqrtq_memo(q: int) -> CycValue:
    """sqrt(q) from the quadratic Gauss sum g = sum over a mod q of
    (a/q) e(a/q): g = sqrt(q) when q = 1 mod 4 and g = i sqrt(q) when
    q = 3 mod 4, so there sqrt(q) = e(-1/4) g, a value of level 4q."""
    if q < 3 or not _is_prime(q):
        raise ValueError(f"sqrt(q) is a Gauss sum only for an odd prime q, not {q}")
    n, shift = (q, 0) if q % 4 == 1 else (4 * q, 3 * q)
    raw = {(a * (n // q) + shift) % n: 1 if pow(a, (q - 1) // 2, q) == 1 else -1
           for a in range(1, q)}
    return CycValue._make(q, n, 1, _reduced(raw, n))


def q_half_power(q: int, n: int) -> CycValue:
    """q^{n/2} as an exact CycValue (``CycValue.sqrtq`` for odd n)."""
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
    def _make(cls, q: int, var: str, coeffs: dict) -> "LaurentPoly":
        """The polynomial on `coeffs`, int exponents to values, in a tag
        already checked: zero values dropped, nothing validated again."""
        self = object.__new__(cls)
        self.q = q
        self.var = var
        self.coeffs = {n: c for n, c in coeffs.items() if not c.is_zero()}
        return self

    @classmethod
    def zero(cls, q: int, var: str) -> "LaurentPoly":
        return cls(q, var, {})

    @classmethod
    def constant(cls, q: int, var: str, value) -> "LaurentPoly":
        if not isinstance(value, CycValue):
            value = CycValue.rational(q, value)
        return cls(q, var, {0: value})

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
            prev = out.get(n)
            out[n] = c if prev is None else prev + c
        return LaurentPoly._make(self.q, self.var, out)

    def __neg__(self):
        return LaurentPoly._make(self.q, self.var, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.var != self.var or other.q != self.q:
                raise ValueError("mismatched Laurent variables")
            out: dict = {}
            for n1, c1 in self.coeffs.items():
                for n2, c2 in other.coeffs.items():
                    out.setdefault(n1 + n2, []).append(c1 * c2)
            return LaurentPoly._make(self.q, self.var,
                                     {n: CycValue.sum(cs, self.q) for n, cs in out.items()})
        return LaurentPoly._make(self.q, self.var,
                                 {n: c * other for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.q == other.q and self.var == other.var and self.coeffs == other.coeffs

    def one_minus_s(self) -> "LaurentPoly":
        """The formal substitution s -> 1-s.  In the q^{-s} variable a term
        c*(q^{-s})^n becomes c*q^{-n}*(q^{s})^n, and symmetrically."""
        other = Q_POS_S if self.var == Q_NEG_S else Q_NEG_S
        sign = -1 if self.var == Q_NEG_S else 1
        out = {n: c * Fraction(self.q) ** (sign * n) for n, c in self.coeffs.items()}
        return LaurentPoly._make(self.q, other, out)

    def retagged(self) -> "LaurentPoly":
        """The same function of s written in the other variable
        ((q^{-s})^n = (q^{s})^{-n})."""
        other = Q_POS_S if self.var == Q_NEG_S else Q_NEG_S
        return LaurentPoly._make(self.q, other, {-n: c for n, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = [f"({self.coeffs[n]!r})*({self.var})^{n}" for n in self.support()]
        return " + ".join(bits)
