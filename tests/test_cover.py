import math
import random
from fractions import Fraction

import pytest

from metaplectic import (
    MetaElement,
    PadicContext,
    SL2Element,
    cocycle,
    coset_decompose,
    hilbert_symbol,
    kubota_split,
    validate_kubota_splitting,
)
from metaplectic.cover import random_integral_sl2, random_sl2_word, random_unit
from metaplectic.exactnum import frac_valuation
from metaplectic.invariants import check_cocycle, check_coset_roundtrip
from metaplectic.localchar import hilbert_frac

from helpers import (
    coset_rep,
    random_cover_word,
    ref_cocycle,
    ref_coset_decompose,
    ref_coset_rep,
    ref_inverse,
    ref_is_integral,
    ref_kubota_split,
    ref_mul,
    ref_word,
)


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


def _small_words(p: int):
    """A fixed set of short words in n(x), n_lower(x), torus(y) and w at p,
    with parameters +-u p^k for u = 1 and the smallest non-residue, k = -2..2:
    each generator alone (c = 0 and chi = d for n(x) and torus(y)), and
    n_lower(x) torus(y), w torus(y) and w n(x) torus(y) on paired
    parameters, so that chi takes both signs, both unit square classes and
    every valuation -2..2."""
    ctx = PadicContext(p)
    r = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) != 1)
    params = [Fraction(s * u) * Fraction(p) ** k
              for k in range(-2, 3) for u in (1, r) for s in (1, -1)]
    n, lower, torus, w = SL2Element.n, SL2Element.n_lower, SL2Element.torus, SL2Element.w(ctx)
    words = [w] + [make(ctx, x) for x in params for make in (n, lower, torus)]
    for x, y in zip(params, reversed(params)):
        words += [lower(ctx, x) * torus(ctx, y), w * torus(ctx, y), w * n(ctx, x) * torus(ctx, y)]
    return words


class TestCocycleAgainstHilbertFrac:
    """The int cocycle against ``ref_cocycle``, ``hilbert_frac`` of the two
    ``Fraction`` chi ratios read from ``entries()``, on every pair of a
    fixed word set."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_pair_of_small_words(self, p):
        words = _small_words(p)
        chis = [g.c or g.d for g in words]
        assert {frac_valuation(x, p) for x in chis} == set(range(-2, 3))
        assert any(x < 0 for x in chis) and any(g.nc == 0 for g in words)
        entries = [g.entries() for g in words]
        seen = set()
        for g, rg in zip(words, entries):
            for h, rh in zip(words, entries):
                expected = ref_cocycle(p, rg, rh)
                assert cocycle(g, h) == expected, (g, h)
                seen.add(expected)
        assert seen == {1, -1}


class TestCocycleLeavesHilbertCacheEmpty:
    @pytest.mark.parametrize("p", [3, 5])
    def test_products_and_inverses_fill_no_cache_entry(self, p):
        # p does not divide c: these matrices lie outside the Kubota sign's
        # branch (0 < v(c)), so only the cocycle could fill the cache
        ctx, rng = PadicContext(p), random.Random(p)
        xs = []
        while len(xs) < 200:
            x = random_sl2_word(ctx, rng)
            if x.g.nc % p:
                xs.append(x)
        hilbert_frac.cache_clear()
        for x, y in zip(xs, xs[1:]):
            x * y
            x.inverse()
        assert hilbert_frac.cache_info().currsize == 0
        # a Kubota sign does fill it: the probe sees the cache
        kubota_split(SL2Element.of(ctx, 1, 0, p, 1))
        assert hilbert_frac.cache_info().currsize == 1


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


def _build(ctx, word) -> SL2Element:
    g = SL2Element.identity(ctx)
    for kind, x in word:
        g = g * (SL2Element.w(ctx) if kind == "w" else getattr(SL2Element, kind)(ctx, x))
    return g


def _assert_lowest_terms(g: SL2Element):
    assert g.den > 0
    assert math.gcd(g.na, g.nb, g.nc, g.nd, g.den) == 1


class TestFractionFreeAgainstReference:
    """The int-numerator SL2Element against the Fraction-entry reference of
    ``helpers``, on seeded random words at p = 3, 5, 7 with negative and
    non-integral entries and denominators both p-powers and prime to p."""

    PRIMES = (3, 5, 7)

    def _pairs(self, p, count, seed=0):
        rng = random.Random(1000 * p + seed)
        ctx = PadicContext(p)
        for _ in range(count):
            word = random_cover_word(p, rng, rng.randrange(1, 7))
            g = _build(ctx, word)
            yield ctx, g, ref_word(word)

    @pytest.mark.parametrize("p", PRIMES)
    def test_product_and_inverse(self, p):
        pairs = list(self._pairs(p, 80))
        for (_, g, rg), (_, h, rh) in zip(pairs, pairs[1:]):
            _assert_lowest_terms(g)
            assert g.entries() == rg
            prod = g * h
            _assert_lowest_terms(prod)
            assert prod.entries() == ref_mul(rg, rh)
            inv = g.inverse()
            _assert_lowest_terms(inv)
            assert inv.entries() == ref_inverse(rg)
            assert g * inv == SL2Element.identity(g.ctx)

    @pytest.mark.parametrize("p", PRIMES)
    def test_cocycle(self, p):
        pairs = list(self._pairs(p, 80, seed=1))
        for (_, g, rg), (_, h, rh) in zip(pairs, pairs[1:]):
            assert cocycle(g, h) == ref_cocycle(p, rg, rh)
            assert cocycle(g, h, g * h) == ref_cocycle(p, rg, rh)

    @pytest.mark.parametrize("p", PRIMES)
    def test_kubota_split(self, p):
        seen = set()
        for ctx, g, rg in self._pairs(p, 120, seed=2):
            assert g.is_integral() == ref_is_integral(p, rg)
            if ref_is_integral(p, rg):
                seen.add(kubota_split(g))
                assert kubota_split(g) == ref_kubota_split(p, rg)
            else:
                with pytest.raises(ValueError):
                    kubota_split(g)
        rng = random.Random(p)
        for _ in range(60):
            g = random_integral_sl2(PadicContext(p), rng)
            assert kubota_split(g) == ref_kubota_split(p, g.entries())
            seen.add(kubota_split(g))
        assert seen == {1, -1}

    @pytest.mark.parametrize("p", PRIMES)
    def test_coset_rep(self, p):
        ctx = PadicContext(p)
        for t in (Fraction(0), Fraction(1, p), Fraction(p - 1, p**2), Fraction(7, p**3)):
            for n in range(-3, 4):
                rep = coset_rep(ctx, t, n)
                _assert_lowest_terms(rep)
                assert rep.entries() == ref_coset_rep(p, t, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_coset_decompose(self, p):
        for _, g, rg in self._pairs(p, 120, seed=3):
            dec = coset_decompose(g)
            h, t, n, eps = ref_coset_decompose(p, rg)
            _assert_lowest_terms(dec.h)
            assert (dec.h.entries(), dec.t, dec.n, dec.eps_track) == (h, t, n, eps)
            assert type(dec.t) is Fraction and type(dec.n) is int


class TestCanonicalForm:
    def test_routes_to_the_same_matrix_compare_and_hash_equal(self, ctx):
        one = SL2Element.identity(ctx)
        routes = (
            SL2Element.torus(ctx, 3) * SL2Element.torus(ctx, Fraction(1, 3)),
            SL2Element.torus(ctx, Fraction(-2, 9)) * SL2Element.torus(ctx, Fraction(-9, 2)),
            SL2Element.n(ctx, Fraction(1, 2)) * SL2Element.n(ctx, Fraction(-1, 2)),
            SL2Element.w(ctx) * SL2Element.w(ctx) * SL2Element.w(ctx) * SL2Element.w(ctx),
            SL2Element.of(ctx, Fraction(2, 4), 0, 0, 2) * SL2Element.torus(ctx, 2),
        )
        for g in routes:
            assert g == one and hash(g) == hash(one)
            assert (g.na, g.nb, g.nc, g.nd, g.den) == (1, 0, 0, 1, 1)
        assert len({one, *routes}) == 1
        assert SL2Element.n(ctx, 1) == SL2Element.n(ctx, Fraction(1, 2)) * SL2Element.n(ctx, Fraction(1, 2))
        assert SL2Element.of(ctx, 2, 0, 0, Fraction(1, 2)) == SL2Element.torus(ctx, 2)
        assert SL2Element.n(ctx, 1) != SL2Element.n_lower(ctx, 1)
        assert SL2Element.identity(ctx) != SL2Element.identity(PadicContext(5))

    def test_negative_torus_has_positive_denominator(self, ctx):
        g = SL2Element.torus(ctx, Fraction(-2, 3))
        assert (g.na, g.nb, g.nc, g.nd, g.den) == (-4, 0, 0, -9, 6)
        assert g.entries() == (Fraction(-2, 3), 0, 0, Fraction(-3, 2))

    def test_is_integral_exactly_when_denominator_prime_to_p(self, ctx):
        cases = {
            SL2Element.torus(ctx, 2): True,             # 2 and 1/2
            SL2Element.n(ctx, Fraction(5, 4)): True,
            SL2Element.torus(ctx, Fraction(2, 3)): False,
            SL2Element.n(ctx, Fraction(1, 3)): False,
            SL2Element.n(ctx, Fraction(1, 6)): False,
            # 3 / 3 = 1: a numerator divisible by p with the same p in den
            SL2Element.torus(ctx, 3) * SL2Element.n(ctx, Fraction(1, 3)): False,
            SL2Element.torus(ctx, 3) * SL2Element.torus(ctx, Fraction(1, 3)): True,
        }
        for g, integral in cases.items():
            assert g.is_integral() is integral, g
            assert (g.den % ctx.p != 0) is integral
            assert ref_is_integral(ctx.p, g.entries()) is integral

    def test_of_refuses_determinant_other_than_one(self, ctx):
        for entries in ((1, 0, 0, 2), (Fraction(1, 2), 0, 0, 1), (1, 1, 1, 1),
                        (Fraction(1, 2), Fraction(1, 3), 0, 3)):
            with pytest.raises(ValueError, match="determinant 1"):
                SL2Element.of(ctx, *entries)
        g = SL2Element.of(ctx, Fraction(1, 2), Fraction(1, 3), 0, 2)
        assert (g.na, g.nb, g.nc, g.nd, g.den) == (3, 2, 0, 12, 6)

    def test_repr_and_chi_entry_read_the_fraction_view(self, ctx):
        g = SL2Element.n(ctx, Fraction(1, 2)) * SL2Element.torus(ctx, Fraction(-2, 3))
        assert repr(g) == "[[-2/3, -3/4], [0, -3/2]]"
        # chi(g) = d here (c = 0), read from the same view
        assert (g.c or g.d) == Fraction(-3, 2) and type(g.d) is Fraction
