"""Acceptance criteria, one test per criterion.

Every assertion is exact (zero tolerance): all quantities are finite sums in
exact cyclotomic arithmetic.  Stated runtime budgets are asserted where the
criterion names one.  Each criterion prints a single PASS line on success
(run with -s to see them live).
"""

import random
import time
from fractions import Fraction

import pytest

from metaplectic import (
    MetaElement,
    MultChar,
    PadicContext,
    Representation,
    builtin_sigma_p3,
    bessel_closed,
    bessel_direct,
    check_fe,
    gamma_coefficient,
    gamma_factor,
    zeta_function,
)
from metaplectic.exactnum import ShellPoint
from metaplectic.invariants import (
    check_characters,
    check_cocycle,
    check_coset_roundtrip,
    check_hilbert_oracle,
    check_kubota_splitting,
    check_whittaker_equivariance,
)
from metaplectic.zeta import zeta_parity_holds

from helpers import c_factor, fourier_inversion_check

XI = Fraction(1, 3)


def _report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def acceptance_vectors(rep1):
    combo = (rep1.phi(t=Fraction(1, 3), n=-1, coeff=Fraction(2))
             + rep1.phi(n=1, coeff=Fraction(-1, 2))
             + rep1.phi(t=Fraction(2, 3)))
    return {
        "phi_e": rep1.phi(),
        "phi_n(1/3)": rep1.phi(t=Fraction(1, 3)),
        "phi_<3>": rep1.phi(n=1),
        "random_3term": combo,
    }


def test_ac1_example_reproduction():
    """AC1: p = 3, builtin datum 1, xi = eta = 1/3, trivial mu: the gamma
    factor is the constant polynomial 4/3, exactly, in under 10 s."""
    start = time.time()
    ctx = PadicContext(3)
    rep = Representation(builtin_sigma_p3(ctx, 1))
    gf = gamma_factor(rep, XI, XI, MultChar.trivial(ctx))
    elapsed = time.time() - start
    assert gf.poly.support() == [0]
    assert gf.poly.coeffs[0] == Fraction(4, 3)
    assert gf.coefficients[1].is_zero()
    assert elapsed < 10.0
    _report(f"AC1 example reproduction: gamma = 4/3 exactly [{elapsed:.2f}s] PASS")


def test_ac2_functional_equation(acceptance_vectors):
    """AC2: exact zero residual for the vector x character acceptance matrix
    (>= 6 cases), total under 60 s."""
    start = time.time()
    ctx = PadicContext(3)
    rep = Representation(builtin_sigma_p3(ctx, 1))
    mus = {
        "trivial": MultChar.trivial(ctx),
        "conductor1": MultChar(ctx, 1, Fraction(0), 1),
    }
    vectors = {
        "phi_e": rep.phi(),
        "phi_n(1/3)": rep.phi(t=Fraction(1, 3)),
        "phi_<3>": rep.phi(n=1),
        "random_3term": (rep.phi(t=Fraction(1, 3), n=-1, coeff=Fraction(2))
                         + rep.phi(n=1, coeff=Fraction(-1, 2))
                         + rep.phi(t=Fraction(2, 3))),
    }
    cases = 0
    for mu_name, mu in mus.items():
        for vec_name, v in vectors.items():
            fe = check_fe(rep, mu, v, XI)
            assert fe.residual.is_zero(), (mu_name, vec_name, fe.residual)
            cases += 1
    elapsed = time.time() - start
    assert cases >= 6
    assert elapsed < 60.0
    _report(f"AC2 functional equation: {cases} cases, zero residual [{elapsed:.2f}s] PASS")


def test_ac3_gamma_support(rep1, rep2):
    """AC3: gamma(n) = 0 exactly above the support bound 2 max(l,m) - l and
    at all tested n < 0, across both builtin data and mu conductors {0, 1}."""
    start = time.time()
    checked = 0
    for rep, xi in ((rep1, Fraction(1, 3)), (rep2, Fraction(2, 3))):
        ctx = rep.ctx
        for mu in (MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1)):
            bound = 2 * max(rep.level, mu.m) - rep.level
            for n in (bound + 1, -1, -2):
                assert gamma_coefficient(rep, xi, xi, mu, n).is_zero(), (xi, mu.m, n)
                checked += 1
    # one deeper check above the bound
    assert gamma_coefficient(rep1, XI, XI, MultChar.trivial(rep1.ctx), 3).is_zero()
    checked += 1
    elapsed = time.time() - start
    _report(f"AC3 gamma support: {checked} vanishing checks exact [{elapsed:.2f}s] PASS")


def test_ac4_zeta_finiteness_and_parity(rep1, acceptance_vectors):
    """AC4: every acceptance vector's zeta window closes inside [-10, 10];
    zeta vanishes identically when omega_pi(-1) != (chi_psi mu)(-1)."""
    start = time.time()
    ctx = rep1.ctx
    mu = MultChar.trivial(ctx)
    mu1 = MultChar(ctx, 1, Fraction(0), 1)
    for name, v in acceptance_vectors.items():
        z = zeta_function(rep1, XI, mu, v)
        assert -10 <= z.window[0] and z.window[1] <= 10, name
    assert not zeta_parity_holds(rep1, mu1)
    for name, v in acceptance_vectors.items():
        assert zeta_function(rep1, XI, mu1, v).poly.is_zero(), name
    elapsed = time.time() - start
    _report(f"AC4 zeta finiteness and parity: windows closed, parity vanishing exact "
            f"[{elapsed:.2f}s] PASS")


def test_ac5_bessel_cross_validation(rep1):
    """AC5: direct = closed exactly at >= 20 points spanning shells -5..-1,
    and direct = 0 exactly at 10 points of P."""
    start = time.time()
    points = 0
    for n in range(-5, 0):
        for u in (1, 2, 4, 5):
            x = ShellPoint(u, n, 3)
            assert bessel_direct(rep1, XI, XI, x) == bessel_closed(rep1, XI, XI, x), x
            points += 1
    assert points >= 20
    zeros = 0
    for x in (3, 6, 9, 12, 15, 18, 27, 33, 81, 243):
        assert bessel_direct(rep1, XI, XI, Fraction(x)).is_zero(), x
        zeros += 1
    elapsed = time.time() - start
    _report(f"AC5 Bessel cross-validation: {points} agreement points, "
            f"{zeros} vanishing points [{elapsed:.2f}s] PASS")


def test_ac6_group_theoretic_suites(ctx):
    """AC6: cocycle identity, splitting property and coset round-trip on 1000
    random samples each, exact, in under 30 s combined."""
    start = time.time()
    rng = random.Random(20250)
    assert check_cocycle(ctx, rng, 1000) == "1000 triples"
    assert check_kubota_splitting(ctx, rng, 1000) == "1000 pairs"
    assert check_coset_roundtrip(ctx, rng, 1000) == "1000 words"
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"AC6 group-theoretic suites: 3 x 1000 samples exact [{elapsed:.2f}s] PASS")


def test_ac7_character_suites(ctx):
    """AC7: chi_psi(a^2) = 1, twisted multiplicativity, |alpha| = 1, alpha
    square-class invariance, and the exhaustive Hilbert oracle sweep."""
    start = time.time()
    rng = random.Random(20251)
    assert check_characters(ctx, rng, 50) == "50 samples"
    assert check_hilbert_oracle(ctx) == "900 pairs vs oracle"
    elapsed = time.time() - start
    _report(f"AC7 character suites: 50 random identities, 900-pair oracle sweep "
            f"exact [{elapsed:.2f}s] PASS")


def test_ac8_whittaker_and_bessel_transformations(rep1):
    """AC8: Whittaker equivariance, and the scaling relations tying the
    Whittaker functionals and Bessel functions to the torus action, for the
    admissible units (a^2 = 1 mod 3 holds for every unit here)."""
    start = time.time()
    ctx = rep1.ctx
    assert rep1.spectrum().dedup[0].xi == XI
    assert check_whittaker_equivariance(rep1, random.Random(20252), 100) == "100 pairs"
    # l^xi(pi(<a>)v) = c_xi(a) l^{a^2 xi}(v) on independent vectors
    for a in (1, 2, 4, 5, 7, 8):
        c = c_factor(rep1, XI, a)
        for v in (rep1.phi(), rep1.phi(t=Fraction(1, 3)), rep1.phi(t=Fraction(2, 9))):
            lhs = rep1.whittaker_functional(XI, rep1.act(MetaElement.torus(ctx, a), v))
            assert lhs == c * rep1.whittaker_functional(a * a * XI, v)
    # J^{t^2 xi, u^2 eta}(<a>w) = c(u) c(t)^{-1} (u,-1) |u|^{-2} J^{xi,eta}(<a><t><u>w)
    from metaplectic.localchar import hilbert_frac
    w = MetaElement.w(ctx)
    a0 = Fraction(1, 3)
    checked = 0
    for t in (1, 2, 4):
        for u in (1, 2, 5):
            lhs = bessel_direct(rep1, t * t * XI, u * u * XI,
                                MetaElement.torus(ctx, a0) * w)
            g = (MetaElement.torus(ctx, a0) * MetaElement.torus(ctx, t)
                 * MetaElement.torus(ctx, u) * w)
            rhs = c_factor(rep1, XI, u) * c_factor(rep1, XI, t).inverse() \
                * bessel_direct(rep1, XI, XI, g)
            if hilbert_frac(3, Fraction(u), Fraction(-1)) == -1:
                rhs = -rhs
            assert lhs == rhs, (t, u)
            checked += 1
    elapsed = time.time() - start
    _report(f"AC8 Whittaker equivariance, torus scaling and Bessel transformation "
            f"laws exact ({checked} (t, u) pairs) [{elapsed:.2f}s] PASS")


def test_ac9_fourier_inversion(rep1):
    """AC9: the inversion identity at one point of valuation -1, exact."""
    start = time.time()
    a = Fraction(1, 3)
    for v in (rep1.phi(), rep1.phi(n=1)):
        lhs, rhs = fourier_inversion_check(rep1, XI, v, a)
        assert lhs == rhs
    elapsed = time.time() - start
    _report(f"AC9 Fourier inversion at v(a) = -1: exact equality [{elapsed:.2f}s] PASS")
