import random
from fractions import Fraction

import pytest

from metaplectic import (
    AdditiveCharacter,
    CycValue,
    MultChar,
    chi_psi,
    hilbert_symbol,
    hilbert_symbol_oracle,
    legendre,
    square_class_data,
    weil_alpha,
)
from metaplectic.exactnum import PadicContext, frac_unit_part, p_fractional_part
from metaplectic.localchar import (
    _gauss_ball_integral,
    _primitive_root,
    _sqrt_table,
    chi_psi_int,
    hilbert_frac,
    hilbert_int,
    legendre_int,
    max_conductor_exponent,
    square_class_int,
)
from metaplectic.invariants import check_characters, random_nonzero

from helpers import characters


class TestAdditiveCharacter:
    def test_trivial_on_integers(self, ctx):
        psi = AdditiveCharacter(ctx)
        assert psi.value(2) == 1
        assert psi.value(Fraction(45)) == 1

    def test_uniformizer_denominator(self, ctx):
        psi = AdditiveCharacter(ctx)
        assert psi.value(Fraction(1, 3)) == CycValue.root_of_unity(ctx.q, Fraction(1, 3))

    def test_mixed_denominator(self, ctx):
        # oracle: the unique c/9 with 14/45 - c/9 3-integral, by brute force
        target = Fraction(14, 45)
        candidates = [Fraction(c, 9) for c in range(9)
                      if ((target - Fraction(c, 9)).denominator % 3) != 0]
        assert candidates == [Fraction(1, 9)]
        psi = AdditiveCharacter(ctx)
        assert psi.value(target) == CycValue.root_of_unity(ctx.q, Fraction(1, 9))

    def test_additivity(self, ctx, rng):
        psi = AdditiveCharacter(ctx)
        for _ in range(100):
            a = random_nonzero(3, rng)
            b = random_nonzero(3, rng)
            assert psi.value(a + b) == psi.value(a) * psi.value(b)

    def test_faithful_on_p_power_torsion(self, ctx):
        psi = AdditiveCharacter(ctx)
        values = {psi.value(Fraction(j, 27)) for j in range(27)}
        assert len(values) == 27

    def test_twist(self, ctx):
        psi = AdditiveCharacter(ctx)
        xi = Fraction(1, 3)
        assert psi.twist(xi).value(1) == psi.value(xi)
        assert psi.twist(xi).value(Fraction(1, 3)) == CycValue.root_of_unity(ctx.q, Fraction(1, 9))


class TestLegendre:
    def test_examples(self, ctx):
        assert legendre(ctx.elem(1)) == 1
        assert legendre(ctx.elem(2)) == -1  # squares mod 3 are {1}
        assert legendre(ctx.elem(4)) == 1

    def test_rejects_non_unit(self, ctx):
        with pytest.raises(ValueError):
            legendre(ctx.elem(3))
        with pytest.raises(ValueError):
            legendre(ctx.elem(Fraction(1, 3)))


class TestHilbertSymbol:
    def test_one_is_always_represented(self, ctx, rng):
        for _ in range(30):
            b = ctx.elem(random_nonzero(3, rng))
            assert hilbert_symbol(ctx.elem(1), b) == 1

    def test_a_minus_a(self, ctx, rng):
        for _ in range(30):
            a = ctx.elem(random_nonzero(3, rng))
            assert hilbert_symbol(a, ctx.elem(-a.value)) == 1

    def test_three_three(self, ctx):
        a = ctx.elem(3)
        assert hilbert_symbol(a, a) == -1
        assert hilbert_symbol_oracle(a, a) == -1

    def test_symmetry_and_bimultiplicativity(self, ctx, rng):
        for _ in range(200):
            a = ctx.elem(random_nonzero(3, rng))
            b = ctx.elem(random_nonzero(3, rng))
            c = ctx.elem(random_nonzero(3, rng))
            assert hilbert_symbol(a, b) == hilbert_symbol(b, a)
            assert hilbert_symbol(ctx.elem(a.value * b.value), c) == \
                hilbert_symbol(a, c) * hilbert_symbol(b, c)

    def test_oracle_p5(self, ctx5, rng):
        for _ in range(25):
            a = ctx5.elem(random_nonzero(5, rng))
            b = ctx5.elem(random_nonzero(5, rng))
            assert hilbert_symbol(a, b) == hilbert_symbol_oracle(a, b)

    def test_zero_rejected(self, ctx):
        with pytest.raises(ZeroDivisionError):
            hilbert_symbol(ctx.elem(0), ctx.elem(1))
        for a, b in ((0, 1), (1, 0)):
            with pytest.raises(ZeroDivisionError, match="Hilbert symbol of zero"):
                hilbert_symbol_oracle(ctx.elem(a), ctx.elem(b))


def _int_valuation_capped(n: int, p: int, cap: int) -> int:
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def _hilbert_oracle_full_scan(a, b) -> int:
    """The reference oracle: the same normalization as
    ``hilbert_symbol_oracle``, over every (x, y) mod p^3 (p^6 candidates),
    each certified by a Hensel-lift validity check."""
    p = a.ctx.p
    k = 3
    modulus = p**k

    def normalize(x) -> int:
        u = frac_unit_part(x.value, p)
        ui = u.numerator * pow(u.denominator, -1, modulus * p) % (modulus * p)
        return p ** (int(x.valuation()) % 2) * ui % (modulus * p)

    a0, b0 = normalize(a), normalize(b)
    sqrts = _sqrt_table(modulus)
    for x in range(modulus):
        for y in range(modulus):
            z = sqrts.get((a0 * x * x + b0 * y * y) % modulus)
            if z is None:
                continue
            e = min(_int_valuation_capped(2 * c % modulus or modulus, p, k)
                    for c in (a0 * x, b0 * y, z))
            if 2 * e + 1 <= k:
                return 1
    return -1


class TestHilbertOraclePrimitiveScan:
    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_full_scan(self, p):
        # units below p^2: all 900 pairs of the p = 3 sweep, and at p = 5
        # the 1600 pairs of valuation 0 and 1 (both square classes each)
        ctx = PadicContext(p)
        sweep = [ctx.elem(Fraction(u) * Fraction(p) ** v)
                 for v in (range(-2, 3) if p == 3 else (0, 1)) for u in _units(p, 2)]
        signs = [hilbert_symbol_oracle(a, b) for a in sweep for b in sweep]
        assert signs == [_hilbert_oracle_full_scan(a, b) for a in sweep for b in sweep]
        assert -1 in signs and 1 in signs


class TestWeilConstant:
    def test_units_give_one(self, ctx):
        for u in (1, 2, 4, 5):
            assert weil_alpha(ctx.elem(u)) == 1

    def test_alpha_three_frozen(self, ctx):
        # independent oracle: both defining integrals as level-3 sums,
        # scaled by |3|^{1/2} = q^{-1/2}
        from metaplectic import q_half_power
        psi = AdditiveCharacter(ctx)
        lhs = CycValue.sum([psi.value(Fraction(3 * x * x)) for x in range(27)], 3) \
            * Fraction(1, 27)
        rhs = CycValue.sum([psi.value(Fraction(-x * x, 3)) for x in range(27)], 3) \
            * Fraction(1, 27)
        oracle = q_half_power(3, -1) * lhs * rhs.inverse()
        value = weil_alpha(ctx.elem(3))
        assert value == oracle
        # the hand value: sqrt(q) * (1 + 2 e(1/3)) / 3, exactly i
        assert value == (CycValue.sqrtq(3) * Fraction(1, 3)
                         * (1 + CycValue.root_of_unity(3, Fraction(1, 3)) * 2))
        assert value == CycValue.root_of_unity(ctx.q, Fraction(1, 4))

    def test_modulus_one(self, ctx):
        for x in (1, 2, 3, 6, Fraction(1, 3), Fraction(2, 9), -5):
            a = weil_alpha(ctx.elem(x))
            assert a * a.conjugate() == 1

    def test_square_class_invariance(self, ctx, rng):
        for _ in range(25):
            a = random_nonzero(3, rng)
            t = random_nonzero(3, rng)
            assert weil_alpha(ctx.elem(a * t * t)) == weil_alpha(ctx.elem(a))

    def test_alpha_zero_rejected(self, ctx):
        with pytest.raises(ZeroDivisionError):
            weil_alpha(ctx.elem(0))


class TestGaussBallReduction:
    """``_gauss_ball_integral`` reduces v(c) <= -2 by p^2; the reduced value
    is the brute-force sum p^-L sum_{x < p^L} psi(c x^2) at the valid levels
    L = -v(c) and -v(c) + 1."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_brute_force(self, p, m):
        ctx = PadicContext(p)
        for u in (1, 2, p - 1, p + 1):
            c = Fraction(u, p**m)
            for level in (m, m + 1):
                pl = p**level
                brute = CycValue.sum([CycValue.root_of_unity(p, p_fractional_part(c * x * x, p))
                                      for x in range(pl)], p) * Fraction(1, pl)
                assert _gauss_ball_integral(ctx, c, level) == brute

    @pytest.mark.parametrize("p", [5, 7])
    def test_characters_suite_beyond_p3(self, p):
        # deep valuations at p = 5, 7 cost p^3 samples, not p^(|v| + 2)
        assert check_characters(PadicContext(p), random.Random(7), 100) == "100 samples"


class TestChiPsi:
    def test_one(self, ctx):
        assert chi_psi(ctx.elem(1)) == 1

    def test_trivial_on_squares(self, ctx, rng):
        for _ in range(25):
            t = random_nonzero(3, rng)
            assert chi_psi(ctx.elem(t * t)) == 1

    def test_twisted_multiplicativity(self, ctx, rng):
        for _ in range(40):
            a = ctx.elem(random_nonzero(3, rng))
            b = ctx.elem(random_nonzero(3, rng))
            lhs = chi_psi(ctx.elem(a.value * b.value))
            rhs = chi_psi(a) * chi_psi(b) * hilbert_symbol(a, b)
            assert lhs == rhs

    def test_square_is_quadratic_symbol(self, ctx, rng):
        for _ in range(25):
            a = ctx.elem(random_nonzero(3, rng))
            assert chi_psi(a) ** 2 == CycValue.rational(ctx.q, hilbert_symbol(a, ctx.elem(-1)))

    def test_both_defining_expressions_agree(self, ctx, rng):
        # alpha(1)/alpha(a) versus (alpha(a)/alpha(1)) (a, -1), raw values
        one = weil_alpha(ctx.elem(1))
        for x in (2, 3, 6, Fraction(1, 3), Fraction(5, 9), -1, -3):
            a = ctx.elem(x)
            first = one * weil_alpha(a).inverse()
            second = weil_alpha(a) * one.inverse() * hilbert_symbol(a, ctx.elem(-1))
            assert first == second
            assert chi_psi(a) == first

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_values_are_fourth_roots_of_unity(self, p):
        # at odd valuation both Weil constants carry sqrt(q); their quotient
        # is still exactly one of 1, i, -1, -i
        ctx = PadicContext(p)
        fourth_roots = [CycValue.root_of_unity(ctx.q, Fraction(k, 4)) for k in range(4)]
        bad = [(v, u) for v in range(-3, 4) for u in range(1, p)
               if chi_psi(ctx.elem(Fraction(u) * Fraction(p) ** v)) not in fourth_roots]
        assert bad == []


class TestSquareClass:
    def test_examples(self, ctx):
        assert square_class_data(ctx.elem(1)) == (0, 1)
        assert square_class_data(ctx.elem(Fraction(1, 3))) == (1, 1)
        assert square_class_data(ctx.elem(2)) == (0, -1)

    def test_invariance(self, ctx, rng):
        for _ in range(30):
            x = random_nonzero(3, rng)
            t = random_nonzero(3, rng)
            assert square_class_data(ctx.elem(x)) == square_class_data(ctx.elem(x * t * t))

    def test_classifies(self, ctx):
        reps = [1, 2, 3, 6]
        classes = {square_class_data(ctx.elem(r)) for r in reps}
        assert len(classes) == 4


def _prime_factors(n: int) -> set:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


class TestPrimitiveRoot:
    def test_lift_when_the_root_mod_p_fails_mod_p_squared(self):
        # 40487 is the first prime whose least primitive root 5 has
        # 5^(p-1) = 1 mod p^2, so mod p^2 the root moves to 5 + p; at
        # p = 3, 5 and 7 the least root mod p also generates mod p^2
        p = 40487
        assert _primitive_root(p, 1) == 5
        assert pow(5, p - 1, p * p) == 1
        g = _primitive_root(p, 2)
        assert g == 5 + p
        order = p * (p - 1)
        assert pow(g, order, p * p) == 1
        assert all(pow(g, order // r, p * p) != 1 for r in _prime_factors(order))


class TestMultChar:
    def test_trivial(self, ctx):
        mu = MultChar.trivial(ctx)
        assert mu.is_trivial()
        assert mu.value(5) == 1
        assert mu.value(Fraction(1, 3)) == 1

    def test_legendre_character(self, ctx):
        mu = MultChar(ctx, 1, Fraction(0), 1)
        assert mu.value(1) == 1
        assert mu.value(2) == -1
        assert mu.value(4) == 1
        assert mu.value(-1) == -1

    def test_multiplicative(self, ctx, rng):
        mu = MultChar(ctx, 2, Fraction(1, 4), 1)
        for _ in range(50):
            x = random_nonzero(3, rng)
            y = random_nonzero(3, rng)
            assert mu.value(x * y) == mu.value(x) * mu.value(y)

    def test_conductor_exactness(self, ctx):
        mu = MultChar(ctx, 2, Fraction(0), 1)
        assert mu.value(1 + 9) == 1      # trivial on 1 + P^2
        assert mu.value(1 + 3) != 1      # nontrivial on 1 + P^1
        with pytest.raises(ValueError):
            MultChar(ctx, 1, Fraction(0), 0)   # unramified data, claimed conductor 1
        with pytest.raises(ValueError):
            # the quadratic character mod 9 is trivial on 1 + P: conductor 1
            MultChar(ctx, 2, Fraction(0), 3)

    def test_conductor_cap(self, ctx, ctx5):
        # the largest m with p^(2m) <= MAX_GATE_SAMPLES = 3^11
        assert [max_conductor_exponent(p) for p in (3, 5, 7, 11)] == [5, 3, 3, 2]
        assert MultChar(ctx, 5, Fraction(0), 1).m == 5
        with pytest.raises(ValueError, match="exceeds the cap 5 at p = 3"):
            MultChar(ctx, 6, Fraction(0), 1)
        assert MultChar(ctx5, 3, Fraction(0), 1).m == 3
        with pytest.raises(ValueError, match="exceeds the cap 3 at p = 5"):
            MultChar(ctx5, 4, Fraction(0), 1)

    def test_inverse(self, ctx, rng):
        mu = MultChar(ctx, 2, Fraction(1, 4), 1)
        inv = mu.inverse()
        for _ in range(30):
            x = random_nonzero(3, rng)
            assert mu.value(x) * inv.value(x) == 1
        # built once per character, and mu^-1^-1 has mu's fields
        assert mu.inverse() is inv
        assert inv.inverse().cache_key() == mu.cache_key()

    def test_integer_fields_checked_not_truncated(self, ctx):
        for args in ((1.9, 0, 1), (2, 0, 1.5), ("2", 0, 1), (1, 0, "1")):
            with pytest.raises(ValueError, match="must be an integer"):
                MultChar(ctx, *args)
        assert MultChar(ctx, 2.0, 0, Fraction(5)).cache_key() == \
            MultChar(ctx, 2, 0, 5).cache_key()
        record = {"conductor_exponent": 1, "value_at_p_numerator_of_exponent": 0.5,
                  "value_at_p_denominator_of_exponent": 1}
        with pytest.raises(ValueError, match="must be an integer"):
            MultChar.from_spec(ctx, record)

    def test_cache_key_is_ints_equal_by_construction(self, ctx):
        mu = MultChar(ctx, 2, Fraction(1, 4), 1)
        for chi in (MultChar.trivial(ctx), mu, mu.inverse(), MultChar(ctx, 1, 0.5, 1)):
            key = chi.cache_key()
            assert len(key) == 4 and all(type(x) is int for x in key), key
        assert mu.inverse().inverse().cache_key() == mu.cache_key() == (2, 1, 4, 1)
        # int, Fraction and integral-float fields, and exponents equal mod 1
        same = (MultChar(ctx, 2, 0, 5), MultChar(ctx, 2.0, 0, Fraction(5)),
                MultChar(ctx, Fraction(2), Fraction(0), 5.0), MultChar(ctx, 2, 1, 5),
                MultChar(ctx, 2, 0.0, 5 + 6))
        assert {chi.cache_key() for chi in same} == {(2, 0, 1, 5)}
        quarter = (MultChar(ctx, 0, Fraction(1, 4)), MultChar(ctx, 0, 0.25),
                   MultChar(ctx, 0, Fraction(5, 4)), MultChar(ctx, 0, Fraction(-3, 4)))
        assert {chi.cache_key() for chi in quarter} == {(0, 1, 4, 0)}

    def test_from_spec_roundtrip(self, ctx):
        mu = MultChar(ctx, 2, Fraction(3, 8), 5)
        again = MultChar.from_spec(ctx, mu.spec_record())
        assert again.cache_key() == mu.cache_key()

    def test_p5_character(self, ctx5):
        mu = MultChar(ctx5, 1, Fraction(0), 2)
        vals = {u: mu.value(u) for u in range(1, 5)}
        assert vals[1] == 1
        assert all((v ** 4) == 1 for v in vals.values())


def test_fractional_part_negative():
    assert p_fractional_part(Fraction(-1, 3), 3) == Fraction(2, 3)
    assert p_fractional_part(Fraction(7, 3), 3) == Fraction(1, 3)
    assert p_fractional_part(Fraction(2, 5), 3) == 0


def test_legendre_p7():
    ctx7 = PadicContext(7)
    squares = {x * x % 7 for x in range(1, 7)}
    for u in range(1, 7):
        assert legendre(ctx7.elem(u)) == (1 if u in squares else -1)


def _units(p: int, m: int):
    return [u for u in range(1, p**m) if u % p]


class TestIntCharacters:
    """The int entry points against the Fraction/KElement functions and the
    Hilbert oracle, over complete residue sweeps."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_hilbert_int_against_closed_formula(self, p):
        # v in -2..2 x units mod p^2, every ordered pair
        points = [(v, u) for v in range(-2, 3) for u in _units(p, 2)]
        for va, ua in points:
            a = Fraction(ua) * Fraction(p) ** va
            for vb, ub in points:
                b = Fraction(ub) * Fraction(p) ** vb
                assert hilbert_int(p, va, ua, vb, ub) == hilbert_frac(p, a, b), (a, b)

    @pytest.mark.parametrize("p", [5, 7])
    def test_hilbert_int_against_oracle(self, p):
        ctx = PadicContext(p)
        nonresidue = next(u for u in range(2, p) if legendre_int(p, u) == -1)
        classes = [(v, u) for v in (0, 1) for u in (1, nonresidue)]
        signs = []
        for va, ua in classes:
            for vb, ub in classes:
                oracle = hilbert_symbol_oracle(ctx.elem(ua * p**va), ctx.elem(ub * p**vb))
                assert hilbert_int(p, va, ua, vb, ub) == oracle, (va, ua, vb, ub)
                signs.append(oracle)
        assert len(signs) == 16 and -1 in signs

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_legendre_and_square_class(self, p):
        ctx = PadicContext(p)
        for u in _units(p, 2):
            assert legendre_int(p, u) == legendre(ctx.elem(u))
            assert legendre_int(p, -u) == legendre(ctx.elem(-u))
            for v in range(-2, 3):
                x = ctx.elem(Fraction(u) * Fraction(p) ** v)
                assert square_class_int(p, v, u) == square_class_data(x)
        with pytest.raises(ValueError):
            legendre_int(p, p)

    def test_chi_psi_int(self, ctx):
        for u in _units(3, 2):
            for v in range(-2, 3):
                x = Fraction(u) * Fraction(3) ** v
                assert chi_psi_int(ctx, v, u) == chi_psi(ctx.elem(x)), x
                assert chi_psi_int(ctx, v, -u) == chi_psi(ctx.elem(-x)), -x

    @pytest.mark.parametrize("m", range(max_conductor_exponent(3) + 1))
    def test_mu_exponent_int(self, ctx, m):
        # every m up to the p = 3 cap; every character for m <= 3, and an
        # even stride of about 24 of the 72 (m = 4) and 216 (m = 5) above
        chars = characters(ctx, m, (Fraction(0), Fraction(1, 4)))
        assert chars
        for mu in chars[::max(1, len(chars) // 24)]:
            for u in _units(3, max(m, 1)):
                for v in range(-2, 3):
                    x = Fraction(u) * Fraction(3) ** v
                    assert mu.value(x) == CycValue.root_of_unity(3, mu.exponent_int(v, u)), (mu, x)
                    assert mu.value_int(v, u) == mu.value(x)
