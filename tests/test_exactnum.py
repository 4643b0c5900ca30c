import cmath
import math
from fractions import Fraction

import pytest

from metaplectic import (
    CycValue,
    LaurentPoly,
    PadicContext,
    Q_NEG_S,
    Q_POS_S,
    q_half_power,
)
from metaplectic.exactnum import (
    INFINITY,
    ShellPoint,
    _unit_residues_mod,
    frac_unit_part,
    frac_valuation,
    p_fractional_int,
    p_fractional_part,
    torus_coordinates,
    valuation_unit,
)
from metaplectic.invariants import random_nonzero


# -- reference canonicalization ---------------------------------------------------
#
# The Fraction-dict form CycValue used to store: {exponent in [0, 1): coefficient},
# rewritten into the canonical basis one root at a time by CRT over the prime
# powers of the exponent's denominator and one minimal-polynomial step per part.
# It shares no code with the int tables of ``exactnum`` and serves as the oracle.


def _oracle_den_parts(den):
    parts = []
    rest, f = den, 2
    while f * f <= rest:
        if rest % f == 0:
            m = 1
            while rest % f == 0:
                rest //= f
                m *= f
            parts.append((f, m))
        f += 1
    if rest > 1:
        parts.append((rest, rest))
    out = []
    for ell, m in parts:
        cof = den // m
        inv = pow(cof, -1, m) if cof > 1 else 1
        step = m // ell
        out.append((ell, m, inv, step * (ell - 1), step))
    return out


def _mod1(x):
    return x - (x.numerator // x.denominator)


def _canonical_insert(out, r, c):
    if c == 0:
        return
    r = _mod1(r)
    if r.denominator == 1:
        out[Fraction(0)] = out.get(Fraction(0), Fraction(0)) + c
        return
    factors = []
    for ell, m, inv, phi, step in _oracle_den_parts(r.denominator):
        b = (r.numerator * inv) % m
        if b < phi:
            factors.append(((1, Fraction(b, m)),))
        else:
            factors.append(tuple((-1, Fraction(b - phi + j * step, m)) for j in range(ell - 1)))
    combos = [(1, Fraction(0))]
    for options in factors:
        combos = [(s * s2, e + e2) for s, e in combos for s2, e2 in options]
    for sign, expo in combos:
        expo = _mod1(expo)
        out[expo] = out.get(expo, Fraction(0)) + sign * c


def _canonicalize(raw):
    out = {}
    for r, c in raw.items():
        _canonical_insert(out, r, c)
    return {r: c for r, c in out.items() if c != 0}


def _convolve(t1, t2, acc):
    for r1, c1 in t1.items():
        for r2, c2 in t2.items():
            r = _mod1(r1 + r2)
            acc[r] = acc.get(r, Fraction(0)) + c1 * c2


def _oracle_sqrtq(q):
    """sqrt(q) as {exponent: coefficient}: the quadratic Gauss sum
    sum over a of (a/q) e(a/q), the Legendre symbol read off the set of
    squares mod q, times e(-1/4) = -i when q = 3 mod 4."""
    squares = {x * x % q for x in range(1, q)}
    shift = Fraction(0) if q % 4 == 1 else Fraction(-1, 4)
    return {Fraction(a, q) + shift: Fraction(1 if a in squares else -1) for a in range(1, q)}


class Oracle:
    """A + B sqrt(q) as one canonical {Fraction exponent: Fraction coeff} dict,
    sqrt(q) expanded as its Gauss sum."""

    def __init__(self, q, one, sq=None):
        raw = dict(one)
        if sq:
            _convolve(sq, _oracle_sqrtq(q), raw)
        self.q, self.coeffs = q, _canonicalize(raw)

    @classmethod
    def of(cls, value):
        return cls(value.q, {r: c for c, r in value.terms()})

    def terms(self):
        return [(c, r) for r, c in sorted(self.coeffs.items())]

    def __add__(self, other):
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            out[r] = out.get(r, Fraction(0)) + c
        return Oracle(self.q, out)

    def __neg__(self):
        return Oracle(self.q, {r: -c for r, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Oracle):
            f = Fraction(other)
            return Oracle(self.q, {r: c * f for r, c in self.coeffs.items()})
        out = {}
        _convolve(self.coeffs, other.coeffs, out)
        return Oracle(self.q, out)

    def conjugate(self):
        return Oracle(self.q, {_mod1(-r): c for r, c in self.coeffs.items()})

    def galois(self, t):
        out = {}
        for r, c in self.coeffs.items():
            rr = _mod1(r * t)
            out[rr] = out.get(rr, Fraction(0)) + c
        return Oracle(self.q, out)


ORACLE_DENOMINATORS = (4, 8, 9, 12, 27, 25, 35, 108)


def random_raw_terms(rng, count, dens=ORACLE_DENOMINATORS):
    """{exponent: coefficient}, exponents of the given denominators in any range."""
    out = {}
    for _ in range(count):
        den = rng.choice(dens)
        out[Fraction(rng.randrange(-den, 2 * den), den)] = Fraction(
            rng.choice([-1, 1]) * rng.randrange(1, 12), rng.randrange(1, 8))
    return out


def from_maps(q, one, sq=None):
    """sum c e(r) + sqrt(q) sum c' e(r') from {r: c} and {r': c'} maps of
    rationals in any form, through ``CycValue.from_terms``."""
    return CycValue.from_terms(q, [(c, r, False) for r, c in one.items()]
                               + [(c, r, True) for r, c in (sq or {}).items()])


def random_value(rng, q, dens=ORACLE_DENOMINATORS, max_terms=4):
    one = random_raw_terms(rng, rng.randrange(1, max_terms + 1), dens)
    sq = random_raw_terms(rng, rng.randrange(1, 3), dens) if rng.randrange(3) == 0 else {}
    return from_maps(q, one, sq), Oracle(q, one, sq)


def test_context_rejects_bad_p():
    with pytest.raises(ValueError):
        PadicContext(2)
    with pytest.raises(ValueError):
        PadicContext(9)
    assert PadicContext(3).q == 3
    # p is an integer field: an equal float becomes the int, a string raises
    third = PadicContext(3.0)
    assert type(third.p) is int and third == PadicContext(3) and third.q == 3
    with pytest.raises(ValueError, match="integer"):
        PadicContext("3")


def test_valuation_examples(ctx):
    assert ctx.elem(1).valuation() == 0
    assert ctx.elem(9).valuation() == 2
    assert ctx.elem(Fraction(5, 27)).valuation() == -3
    assert ctx.elem(0).valuation() == INFINITY


def test_unit_part(ctx):
    x = ctx.elem(Fraction(45, 7))
    v = x.valuation()
    assert x.unit_part() * Fraction(3) ** v == x.value
    assert ctx.elem(Fraction(45, 7)).unit_part() == Fraction(5, 7)


def test_valuation_is_additive_and_ultrametric(rng):
    for _ in range(200):
        x = random_nonzero(3, rng)
        y = random_nonzero(3, rng)
        vx, vy = frac_valuation(x, 3), frac_valuation(y, 3)
        assert frac_valuation(x * y, 3) == vx + vy
        s = x + y
        if s != 0:
            assert frac_valuation(s, 3) >= min(vx, vy)
        if vx != vy:
            assert frac_valuation(s, 3) == min(vx, vy)


def test_abs_value(ctx):
    assert ctx.elem(3).abs_value() == Fraction(1, 3)
    assert ctx.elem(Fraction(1, 3)).abs_value() == 3
    assert ctx.elem(0).abs_value() == 0


class TestIntPoints:
    """The int p-adic helpers against the Fraction ones."""

    POINTS = [Fraction(u) * Fraction(p) ** k for p in (3, 5) for u in (1, -1, 2, 7, -22)
              for k in range(-3, 4)] + [Fraction(2, 5), Fraction(-7, 11), Fraction(25, 18)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_valuation_unit(self, p):
        for x in self.POINTS:
            for modulus in (1, p, p**3):
                v, u = valuation_unit(x.numerator, x.denominator, p, modulus)
                assert v == frac_valuation(x, p) and 0 <= u < modulus
                # u is the unit part modulo `modulus`
                assert ((frac_unit_part(x, p) - u) / modulus).denominator % p != 0
        with pytest.raises(ZeroDivisionError):
            valuation_unit(0, 1, p, p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_p_fractional_int(self, p):
        for x in self.POINTS:
            for scale in (1, p, p**2 * 4):   # num/den need not be reduced
                c, pm = p_fractional_int(x.numerator * scale, x.denominator * scale, p)
                assert Fraction(c, pm) == p_fractional_part(x, p)
                assert 0 <= c < pm and pm == max(1, p ** -min(0, frac_valuation(x, p)))

    @pytest.mark.parametrize("p", [3, 5])
    def test_torus_coordinates(self, p):
        for x in self.POINTS:
            k, u = torus_coordinates(x, p)
            assert k == frac_valuation(x, p) and u * Fraction(p) ** k == x
            assert type(u) is int or u.denominator % p
        with pytest.raises(ZeroDivisionError):
            torus_coordinates(Fraction(0), p)

    def test_shell_point(self):
        for p in (3, 5):
            for k in range(-3, 4):
                for u in _unit_residues_mod(p**2):
                    x = ShellPoint(u, k, p)
                    plain = Fraction(u) * Fraction(p) ** k
                    assert x == plain and hash(x) == hash(plain)
                    assert (x.k, x.u) == (k, u) == torus_coordinates(x, p)
                    assert type(x + 1) is Fraction and type(-x) is Fraction
                    assert type(Fraction(x)) is Fraction and {x: 1}[plain] == 1


class TestCycValue:
    def test_root_of_unity_sum(self):
        z = CycValue.root_of_unity(3, Fraction(1, 3)) + CycValue.root_of_unity(3, Fraction(2, 3))
        assert z == -1

    def test_sqrtq_square(self):
        s = CycValue.sqrtq(3)
        assert s * s == 3

    def test_inverse_of_root(self):
        i = CycValue.root_of_unity(3, Fraction(1, 4))
        assert i.inverse() == CycValue.root_of_unity(3, Fraction(-1, 4))
        assert i.inverse() == CycValue.root_of_unity(3, Fraction(3, 4))
        assert (1 / i) * i == 1

    def test_zero_and_canonical_form(self):
        z = CycValue.sum([CycValue.root_of_unity(3, Fraction(k, 5)) for k in range(5)], 3)
        assert z.is_zero()
        z9 = CycValue.sum([CycValue.root_of_unity(3, Fraction(k, 9)) for k in range(9)], 3)
        assert z9.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycValue.one(3) / CycValue.zero(3)

    @pytest.mark.parametrize("other", [0.5, "1/2", None])
    def test_foreign_operand_not_implemented(self, other):
        # only CycValue, int and Fraction coerce; anything else is left to
        # the other operand's reflected method
        c = CycValue.root_of_unity(3, Fraction(1, 3))
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__eq__"):
            assert getattr(c, op)(other) is NotImplemented, op
        with pytest.raises(TypeError):
            c * other
        assert c != other

    def test_gauss_sum_crosscheck(self):
        g = CycValue.sum([CycValue.root_of_unity(3, Fraction(x * x, 3)) for x in range(3)], 3)
        assert g * g == -3
        assert g * g.conjugate() == 3

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sqrtq_is_the_gauss_sum(self, p):
        # g = sum over x mod p of e(x^2/p) is sqrt(p) for p = 1 mod 4 and
        # i sqrt(p) for p = 3 mod 4: one number, one form, one hash
        g = CycValue.sum([CycValue.root_of_unity(p, Fraction(x * x, p)) for x in range(p)], p)
        gauss_form = g if p % 4 == 1 else g * CycValue.root_of_unity(p, Fraction(-1, 4))
        s = CycValue.sqrtq(p)
        assert s == gauss_form and hash(s) == hash(gauss_form)
        assert s * s == p and s ** 2 == p and s ** -2 == Fraction(1, p)
        assert abs(s.to_complex() - math.sqrt(p)) < 1e-12

    def test_sqrtq_needs_an_odd_prime(self):
        for q in (1, 2, 9, 15):
            with pytest.raises(ValueError):
                CycValue.sqrtq(q)

    def test_ring_axioms_random(self, rng):
        def rand_value():
            one = {Fraction(rng.randrange(0, 12), 12): Fraction(rng.randrange(-3, 4))
                   for _ in range(rng.randrange(1, 4))}
            sq = {}
            if rng.randrange(2):
                sq = {Fraction(rng.randrange(0, 9), 9): Fraction(rng.randrange(-2, 3))}
            return from_maps(3, one, sq)

        for _ in range(60):
            a, b, c = rand_value(), rand_value(), rand_value()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_inverse_random(self, rng):
        for _ in range(30):
            a = (CycValue.root_of_unity(3, Fraction(rng.randrange(0, 12), 12))
                 * Fraction(rng.randrange(1, 5)) + CycValue.rational(3, rng.randrange(1, 4)))
            if a.is_zero():
                continue
            assert a * a.inverse() == 1

    def test_embed_float_agrees(self, rng):
        for _ in range(40):
            r1 = Fraction(rng.randrange(0, 36), 36)
            r2 = Fraction(rng.randrange(0, 36), 36)
            exact = ((CycValue.root_of_unity(3, r1) + CycValue.root_of_unity(3, r2))
                     * CycValue.sqrtq(3))
            expected = (complex(math.cos(2 * math.pi * r1), math.sin(2 * math.pi * r1))
                        + complex(math.cos(2 * math.pi * r2), math.sin(2 * math.pi * r2))) \
                * math.sqrt(3)
            got = exact.to_complex()
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_to_complex_is_the_float_sum_of_its_terms(self, rng):
        # bit for bit the sum over terms() of c e(r) in float arithmetic,
        # from complex(0) in ascending exponent: the floats the CLI prints
        for q, level in ((3, 36), (5, 20), (7, 28), (3, 27)):
            for _ in range(30):
                value = CycValue.sum(
                    [CycValue.root_of_unity(q, Fraction(rng.randrange(level), level))
                     * Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                     for _ in range(rng.randrange(1, 5))]
                    + [CycValue.sqrtq(q) * rng.randrange(-2, 3)], q)
                want = sum((complex(c) * cmath.exp(2j * cmath.pi * float(r))
                            for c, r in value.terms()), complex(0))
                got = value.to_complex()
                assert (got.real, got.imag) == (want.real, want.imag), value

    def test_conjugate_is_ring_map(self, rng):
        for _ in range(30):
            a = (CycValue.root_of_unity(3, Fraction(rng.randrange(0, 9), 9))
                 + CycValue.sqrtq(3) * rng.randrange(-2, 3))
            b = CycValue.root_of_unity(3, Fraction(rng.randrange(0, 12), 12))
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    def test_terms_roundtrip(self):
        a = (CycValue.rational(3, Fraction(1, 3)) + CycValue.root_of_unity(3, Fraction(5, 9)) * 2
             + CycValue.sqrtq(3) * Fraction(-1, 2))
        assert CycValue.from_terms(3, [(c, r, False) for c, r in a.terms()]) == a
        # a flagged term, as the JSON format still reads it, is c e(r) sqrt(q)
        flagged = [(Fraction(1, 3), 0, False), (2, Fraction(5, 9), False),
                   (Fraction(-1, 2), 0, True)]
        assert CycValue.from_terms(3, flagged) == a

    def test_sum_rejects_mixed_q(self):
        with pytest.raises(ValueError, match="mixed ambient q"):
            CycValue.sqrtq(3) + CycValue.sqrtq(5)
        with pytest.raises(ValueError, match="mixed ambient q"):
            CycValue.sum([CycValue.sqrtq(3), CycValue.sqrtq(5)])
        with pytest.raises(ValueError, match="mixed ambient q"):
            CycValue.sum([CycValue.sqrtq(3), CycValue.sqrtq(3)], 5)
        assert CycValue.sum([CycValue.sqrtq(3)] * 2, 3) == CycValue.sqrtq(3) * 2
        assert CycValue.sum([], 5) == CycValue.zero(5)

    def test_q_half_power(self):
        assert q_half_power(3, 2) == 3
        assert q_half_power(3, -2) == Fraction(1, 3)
        assert q_half_power(3, 1) == CycValue.sqrtq(3)
        assert q_half_power(3, -1) * CycValue.sqrtq(3) == 1


class TestAgainstOracle:
    """Exact agreement of the int core with the Fraction-dict reference."""

    QS = (3, 5, 7)

    def test_construction(self, rng):
        for q in self.QS:
            for _ in range(40):
                value, ref = random_value(rng, q)
                assert value.terms() == ref.terms()
                for coeff, expo in value.terms():
                    assert coeff != 0 and 0 <= expo < 1

    def test_ring_operations(self, rng):
        for q in self.QS:
            for _ in range(40):
                (a, ra), (b, rb) = random_value(rng, q), random_value(rng, q)
                assert (a * b).terms() == (ra * rb).terms()
                assert (a + b).terms() == (ra + rb).terms()
                assert (a - b).terms() == (ra + -rb).terms()
                assert (-a).terms() == (-ra).terms()
                f = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
                assert (a * f).terms() == (ra * f).terms()
                assert (a * CycValue.rational(q, f)).terms() == (ra * f).terms()
                assert (CycValue.rational(q, f) * a).terms() == (ra * f).terms()
                assert (a + f).terms() == (ra + Oracle(q, {Fraction(0): f})).terms()

    def test_sum(self, rng):
        for q in self.QS:
            for _ in range(20):
                pairs = [random_value(rng, q) for _ in range(rng.randrange(1, 6))]
                ref = pairs[0][1]
                for _, r in pairs[1:]:
                    ref = ref + r
                assert CycValue.sum([v for v, _ in pairs]).terms() == ref.terms()
                assert CycValue.sum([v for v, _ in pairs], q).terms() == ref.terms()

    def test_conjugate_and_galois(self, rng):
        for q in self.QS:
            for _ in range(30):
                a, ra = random_value(rng, q)
                assert a.conjugate().terms() == ra.conjugate().terms()
                level = math.lcm(*(r.denominator for _, r in a.terms()))
                t = rng.choice(_unit_residues_mod(level) or (1,))
                assert a._galois(t).terms() == ra.galois(t).terms()

    def test_inverse(self, rng):
        # an inverse is the one x with a x = 1, so the reference checks the
        # product; its norm (a product over all units of the level) would
        # cost 15 s at level 700 = lcm(25, 28) with q = 7
        for q in self.QS:
            for dens in ((4, 8, 12), (9, 27), (25,), (35,), (108,)):
                for _ in range(2):
                    a, ra = random_value(rng, q, dens, max_terms=3)
                    got = a.inverse()
                    assert (ra * Oracle.of(got)).terms() == [(1, 0)]
                    assert a * got == 1
        # a + b sqrt(q) through the Galois norm, at the levels 108 = 27 * 4 (q = 3), 20 (q = 5) and 28 (q = 7)
        for q, one, sq in [
                (3, {Fraction(1, 27): 2, Fraction(0): 1}, {Fraction(0): 1}),
                (3, {Fraction(0): 2}, {Fraction(0): 1}),
                (5, {Fraction(1, 5): 1, Fraction(0): 3}, {Fraction(1, 4): Fraction(1, 2)}),
                (5, {Fraction(0): 1}, {Fraction(0): 1}),
                (7, {Fraction(1, 7): 1, Fraction(0): 2}, {Fraction(0): 1}),
                (7, {Fraction(1, 4): 3}, {Fraction(0): -1})]:
            a = from_maps(q, one, sq)
            got = a.inverse()
            assert (Oracle(q, one, sq) * Oracle.of(got)).terms() == [(1, 0)]
            assert a * got == 1

    def test_repr_and_complex_read_the_fraction_view(self):
        a = from_maps(3, {Fraction(5, 4): Fraction(2, 3), Fraction(1, 9): 1}, {0: Fraction(-1, 2)})
        # sqrt(3) = -e(1/4) - 2 e(7/12), its Gauss-sum form in the basis
        assert repr(a) == "e(1/9) + 7/6*e(1/4) + e(7/12)"
        z = (cmath.exp(2j * cmath.pi / 9) + Fraction(2, 3) * 1j - math.sqrt(3) / 2)
        assert abs(a.to_complex() - z) < 1e-12


class TestLevelIndependence:
    def test_value_through_a_higher_level(self):
        through = (CycValue.root_of_unity(3, Fraction(1, 27))
                   * CycValue.root_of_unity(3, Fraction(1, 4))
                   * CycValue.root_of_unity(3, Fraction(-1, 27)))
        direct = CycValue.root_of_unity(3, Fraction(1, 4))
        assert through == direct
        assert hash(through) == hash(direct)
        assert through.terms() == direct.terms()

    def test_rational_through_a_higher_level(self):
        x = (CycValue.root_of_unity(3, Fraction(2, 35)) * Fraction(3, 7)
             * CycValue.root_of_unity(3, Fraction(-2, 35)))
        assert x.is_rational() and x.as_rational() == Fraction(3, 7)
        assert x == Fraction(3, 7) and hash(x) == hash(CycValue.rational(3, Fraction(3, 7)))

    def test_ninth_roots_sum_to_zero_at_every_level(self):
        ninth = [CycValue.root_of_unity(3, Fraction(k, 9)) for k in range(9)]
        assert CycValue.sum(ninth).is_zero()
        for m in (1, 4, 8, 12, 25, 27, 35, 108):
            lift = CycValue.root_of_unity(3, Fraction(1, m))
            back = CycValue.root_of_unity(3, Fraction(-1, m))
            assert CycValue.sum([z * lift * back for z in ninth]).is_zero()
            assert (CycValue.sum([z * lift for z in ninth]) * back).is_zero()
            total = CycValue.zero(3)
            for z in ninth:
                total = total + z * lift
            assert total.is_zero() and total == 0 and hash(total) == hash(CycValue.zero(3))

    def test_equal_values_are_interchangeable_keys(self):
        i = CycValue.root_of_unity(3, Fraction(1, 4))
        table = {i: "i", CycValue.sqrtq(3): "s"}
        i_via_108 = (CycValue.root_of_unity(3, Fraction(1, 27)) * i
                     * CycValue.root_of_unity(3, Fraction(26, 27)))
        s_via_9 = (CycValue.sqrtq(3) * CycValue.root_of_unity(3, Fraction(4, 9))
                   * CycValue.root_of_unity(3, Fraction(5, 9)))
        assert table[i_via_108] == "i" and table[s_via_9] == "s"
        assert len({i, i_via_108, CycValue.sqrtq(3), s_via_9}) == 2

    def test_rational_values_are_interchangeable_with_ints_and_fractions(self):
        # a rational value equals the int or Fraction it coerces from, so it
        # must hash like it: as set members and dict keys the three mix
        three, two_thirds = CycValue.rational(3, 3), CycValue.rational(3, Fraction(2, 3))
        zero = CycValue.root_of_unity(3, Fraction(1, 9)) - CycValue.root_of_unity(3, Fraction(1, 9))
        assert three == 3 and 3 in {three} and three in {3, 5}
        assert hash(two_thirds) == hash(Fraction(2, 3)) and hash(zero) == hash(0)
        table = {0: "zero", Fraction(2, 3): "two thirds", 3: "three"}
        assert [table[x] for x in (zero, two_thirds, three)] == ["zero", "two thirds", "three"]
        mixed = {0, zero, CycValue.zero(3), Fraction(0), Fraction(2, 3), two_thirds,
                 3, Fraction(3), three, CycValue.rational(3, -1), -1}
        assert len(mixed) == 4


def _coordinates(v: CycValue):
    return v.q, v._n, v._d, v._coeffs


class TestMultiplicationFastPaths:
    """The products that skip the convolution, a rational +-1 factor and two
    single roots, and the negation that skips normalization, against
    ``CycValue._convolved``, the general route."""

    LEVELS = (1, 2, 3, 4, 9, 12, 27, 36)

    def test_single_roots_match_convolution(self, ctx):
        roots = [CycValue.root_of_unity_int(ctx.q, k, n) for n in self.LEVELS for k in range(n)]
        values = roots + [r * Fraction(-2, 5) for r in roots]
        single = 0
        for a in values:
            for b in values:
                assert _coordinates(a * b) == _coordinates(a._convolved(b))
                single += len(a._coeffs) == len(b._coeffs) == 1 and a._n > 1 and b._n > 1
        assert single > 10000

    RATIONALS = (1, -1, 2, -3, Fraction(-1, 2), Fraction(3, 7), 0)

    def test_rationals_times_multi_term_match_convolution(self, ctx):
        q = ctx.q
        values = [CycValue.sqrtq(q), -CycValue.sqrtq(q),
                  CycValue.root_of_unity(q, Fraction(1, 9))
                  + 2 * CycValue.root_of_unity(q, Fraction(2, 9)),
                  CycValue.rational(q, Fraction(1, 3)) + CycValue.root_of_unity(q, Fraction(1, 4)),
                  CycValue.root_of_unity(q, Fraction(5, 36)) * Fraction(3, 2)
                  - CycValue.root_of_unity(q, Fraction(1, 27)),
                  CycValue.rational(q, Fraction(-5, 4)), CycValue.root_of_unity(q, Fraction(1, 3))]
        for v in values:
            for r in self.RATIONALS:
                want = _coordinates(v._convolved(CycValue.rational(q, r)))
                for factor in (r, CycValue.rational(q, r)):
                    assert _coordinates(v * factor) == want
                    assert _coordinates(factor * v) == want
            # +-1 returns the operand itself, or its negation
            assert v * 1 is v and v * CycValue.one(q) is v
            assert v.is_rational() or CycValue.one(q) * v is v
            assert v * -1 == -v == v * CycValue.rational(q, -1)

    def test_negation_is_the_normalized_form(self, ctx):
        # -v copies the normalized fields of v instead of normalizing again
        q = ctx.q
        roots = [CycValue.root_of_unity_int(q, k, n) for n in self.LEVELS for k in range(n)]
        values = roots + [r * Fraction(-2, 5) for r in roots] + [
            CycValue.zero(q), CycValue.rational(q, Fraction(-5, 4)),
            CycValue.sqrtq(q), CycValue.sqrtq(q).inverse(),
            CycValue.root_of_unity(q, Fraction(1, 9))
            + 2 * CycValue.root_of_unity(q, Fraction(2, 9)),
            CycValue.root_of_unity(q, Fraction(5, 36)) * Fraction(3, 2)
            - CycValue.root_of_unity(q, Fraction(1, 27))]
        for v in values:
            want = CycValue._make(q, v._n, v._d, {k: -c for k, c in v._coeffs.items()})
            assert _coordinates(-v) == _coordinates(want)
            assert _coordinates(-v) == _coordinates(v._convolved(CycValue.rational(q, -1)))
            assert hash(-v) == hash(want)
            assert -(-v) == v and hash(-(-v)) == hash(v)


class TestLaurentPoly:
    def test_constant_fixed_under_substitution(self):
        p = LaurentPoly.constant(3, Q_NEG_S, 1)
        q = p.one_minus_s()
        assert q.var == Q_POS_S
        assert q.coeffs[0] == 1

    def test_substitution_example(self):
        p = LaurentPoly(3, Q_NEG_S, {1: CycValue.one(3)})
        q = p.one_minus_s()
        assert q.var == Q_POS_S and q.coeffs[1] == Fraction(1, 3)

    def test_substitution_involution_random(self, rng):
        for _ in range(40):
            coeffs = {rng.randrange(-4, 5):
                      CycValue.root_of_unity(3, Fraction(rng.randrange(0, 9), 9))
                      for _ in range(rng.randrange(1, 4))}
            p = LaurentPoly(3, rng.choice([Q_NEG_S, Q_POS_S]), coeffs)
            assert p.one_minus_s().one_minus_s() == p
            assert p.retagged().retagged() == p

    def test_retag_preserves_value(self):
        # (q^-s)^n = (q^s)^-n: every exponent is negated, every coefficient kept
        p = LaurentPoly(3, Q_NEG_S, {1: CycValue.rational(3, 2), -2: CycValue.one(3)})
        r = p.retagged()
        assert r.var == Q_POS_S and r.coeffs == {-1: CycValue.rational(3, 2), 2: CycValue.one(3)}
        s = 0.37 + 0.21j
        for poly, sign in ((p, -1), (r, 1)):
            value = sum(c.to_complex() * 3 ** (sign * s * n) for n, c in poly.coeffs.items())
            assert abs(value - (2 * 3 ** -s + 3 ** (2 * s))) < 1e-9

    def test_arithmetic(self):
        p = LaurentPoly(3, Q_POS_S, {1: CycValue.rational(3, 2)})
        q = LaurentPoly.constant(3, Q_POS_S, 5)
        assert (p + q).support() == [0, 1]
        assert (p * q).coeffs[1] == 10
        assert (p - p).is_zero()
        with pytest.raises(ValueError):
            p + LaurentPoly.constant(3, Q_NEG_S, 1)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), "x", CycValue.one(3)])
    def test_subtracting_a_non_polynomial_raises_for_minus(self, other):
        p = LaurentPoly(3, Q_POS_S, {1: CycValue.rational(3, 2)})
        assert p.__sub__(other) is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand type.*for -: 'LaurentPoly'"):
            p - other
        with pytest.raises(TypeError, match="unsupported operand type.*for -: .*'LaurentPoly'"):
            other - p
