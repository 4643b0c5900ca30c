import random
from fractions import Fraction

import pytest

from metaplectic import (
    MetaElement,
    SL2Element,
    chi_entry,
    cocycle,
    coset_decompose,
    hilbert_symbol,
    kubota_split,
    validate_kubota_splitting,
)
from metaplectic.cover import random_integral_sl2, random_sl2_word, random_unit
from metaplectic.invariants import check_cocycle, check_coset_roundtrip


class TestChiEntry:
    def test_identity(self, ctx):
        assert chi_entry(SL2Element.identity(ctx)) == 1

    def test_w(self, ctx):
        assert chi_entry(SL2Element.w(ctx)) == 1

    def test_unipotent(self, ctx):
        assert chi_entry(SL2Element.n(ctx, 5)) == 1

    def test_torus(self, ctx):
        assert chi_entry(SL2Element.torus(ctx, 3)) == Fraction(1, 3)


class TestCocycle:
    def test_unipotents(self, ctx):
        g = SL2Element.n(ctx, Fraction(1, 3))
        h = SL2Element.n(ctx, 7)
        assert cocycle(g, h) == 1

    def test_w_w(self, ctx):
        # chi(w^2) = chi(-I) = -1, chi(w) = 1, so {w,w} = (-1,-1) = +1 at p=3
        w = SL2Element.w(ctx)
        assert cocycle(w, w) == hilbert_symbol(ctx.elem(-1), ctx.elem(-1)) == 1

    def test_two_cocycle_identity(self, ctx, rng):
        assert check_cocycle(ctx, rng, 300) == "300 triples"


class TestMetaElement:
    def test_identity(self, ctx, rng):
        e = MetaElement.identity(ctx)
        x = random_sl2_word(ctx, rng)
        assert (e * x).g.entries() == x.g.entries() and (e * x).eps == x.eps

    def test_w_squared(self, ctx):
        ww = MetaElement.w(ctx) * MetaElement.w(ctx)
        assert ww.g.entries() == (-1, 0, 0, -1)
        assert ww.eps == 1

    def test_central_kernel_flips_sign(self, ctx, rng):
        z = MetaElement.central(ctx, -1)
        for _ in range(20):
            x = random_sl2_word(ctx, rng)
            prod = z * x
            assert prod.g.entries() == x.g.entries() and prod.eps == -x.eps

    def test_inverse(self, ctx, rng):
        for _ in range(100):
            x = random_sl2_word(ctx, rng)
            e = x * x.inverse()
            assert e.g.entries() == (1, 0, 0, 1) and e.eps == 1

    def test_minus_identity_is_central(self, ctx, rng):
        for eps in (1, -1):
            z = MetaElement(SL2Element.of(ctx, -1, 0, 0, -1), eps)
            for _ in range(100):
                x = random_sl2_word(ctx, rng)
                a, b = z * x, x * z
                assert a.g.entries() == b.g.entries() and a.eps == b.eps

    def test_determinant_enforced(self, ctx):
        with pytest.raises(ValueError):
            SL2Element.of(ctx, 1, 0, 0, 2)


class TestKubotaSplitting:
    def test_identity_and_unipotents(self, ctx):
        assert kubota_split(SL2Element.identity(ctx)) == 1
        assert kubota_split(SL2Element.n(ctx, 4)) == 1

    def test_nontrivial_value(self, ctx):
        # c = 3, d = 2: (3, 2) = legendre(2) = -1
        h = SL2Element.of(ctx, 2, 1, 3, 2)
        assert kubota_split(h) == -1

    def test_property_gate(self, ctx, rng):
        validate_kubota_splitting(ctx, rng, trials=500)

    def test_property_gate_p5(self, ctx5):
        validate_kubota_splitting(ctx5, random.Random(4), trials=200)

    def test_rejects_non_integral(self, ctx):
        with pytest.raises(ValueError):
            kubota_split(SL2Element.torus(ctx, Fraction(1, 3)))


class TestRandomUnit:
    @pytest.mark.parametrize("p", [3, 5])
    def test_rejection_draw(self, p):
        # the value and the RNG state of the plain rejection loop
        rng, ref = random.Random(p), random.Random(p)
        for _ in range(200):
            u = ref.randrange(1, p**2)
            while u % p == 0:
                u = ref.randrange(1, p**2)
            assert random_unit(p, rng) == u
        assert rng.getstate() == ref.getstate()


class TestCosetDecomposition:
    def test_w_is_integral(self, ctx):
        dec = coset_decompose(MetaElement.w(ctx))
        assert dec.t == 0 and dec.n == 0
        assert dec.h.entries() == SL2Element.w(ctx).entries()

    def test_antidiagonal_torus(self, ctx):
        dec = coset_decompose(MetaElement.torus(ctx, Fraction(1, 3)))
        assert dec.t == 0 and dec.n == -1
        assert dec.h.entries() == (1, 0, 0, 1)

    def test_unipotent_fraction(self, ctx):
        dec = coset_decompose(MetaElement.n(ctx, Fraction(1, 3)))
        assert dec.t == Fraction(1, 3) and dec.n == 0
        assert dec.h.entries() == (1, 0, 0, 1)

    def test_roundtrip(self, ctx, rng):
        assert check_coset_roundtrip(ctx, rng, 300) == "300 words"

    def test_canonical_t(self, ctx, rng):
        for _ in range(100):
            dec = coset_decompose(random_sl2_word(ctx, rng))
            assert 0 <= dec.t < 1
            d = dec.t.denominator
            while d % 3 == 0:
                d //= 3
            assert d == 1  # p-power denominator

    def test_same_coset_differ_by_integral(self, ctx, rng):
        for _ in range(60):
            m = random_sl2_word(ctx, rng)
            h = random_integral_sl2(ctx, rng)
            m2 = MetaElement(h, 1) * m
            d1 = coset_decompose(m)
            d2 = coset_decompose(m2)
            assert (d1.t, d1.n) == (d2.t, d2.n)
            quotient = m2.g * m.g.inverse()
            assert quotient.is_integral()
