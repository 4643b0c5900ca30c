"""Test-side helpers built on the public model: the value of a model vector
at a cover point, the torus constant c_xi(a), the per-point Bessel integral,
the Fourier inversion identity of the Bessel function, a float growth
report, the characters of one conductor, the gamma factor solved from the
functional equation, the coset representative at a rational t and a
``Fraction``-entry reference of the cover arithmetic.
Nothing in the library calls them; the tests use them as oracles.  The
data the tests run on are the named data of ``metaplectic.repn.SIGMA_NAMES``,
each built once (``named_sigma_once``)."""

import functools
from fractions import Fraction

from metaplectic import (
    CycValue,
    LaurentPoly,
    MetaElement,
    MultChar,
    PadicContext,
    ShellIntegralPlan,
    integrate_ball,
    integrate_shell,
    named_sigma,
    zeta_function,
)
from metaplectic.cover import SL2Element, _coset_rep, decompose_meta
from metaplectic.exactnum import (
    Q_POS_S,
    ShellPoint,
    _unit_residues_mod,
    frac_valuation,
    p_fractional_part,
    torus_coordinates,
    valuation_unit,
)
from metaplectic.localchar import hilbert_frac, hilbert_int
from metaplectic.zeta import ADDITIVE_DX, MULTIPLICATIVE_DX, bessel_table


@functools.cache
def named_sigma_once(name: str):
    """The datum `name` of ``SIGMA_NAMES``, built once per test session: the
    session fixtures and the table tests share it (the elliptic datum takes
    about 1.3 s to build)."""
    return named_sigma(name)


def evaluate_vector(rep, v, g: MetaElement):
    """The model vector phi evaluated at the cover point g, as a tuple of
    eigencoordinates."""
    h_meta, dec = decompose_meta(g)
    coords = [CycValue.zero(rep.ctx.q) for _ in range(rep.dim)]
    for (r, j, n, b), coeff in v.terms.items():
        if Fraction(r, rep.ctx.p**j) != dec.t or n != dec.n:
            continue
        # g = h * rep, so g * rep^{-1} = h and phi^rep_b(g) = sigma(h) b
        mat = rep.genuine_eval(h_meta)
        for i in range(rep.dim):
            coords[i] = coords[i] + coeff * mat[i][b]
    return tuple(coords)


def c_factor(rep, xi, a) -> CycValue:
    """The constant c_xi(a) with l^xi(pi(<a>) v) = c_xi(a) l^{a^2 xi}(v),
    computed on one test vector and verified on an independent second."""
    ctx = rep.ctx
    a = Fraction(a)
    xi = Fraction(xi)
    rep.basis_index_for(xi)  # outside X(pi) raises
    target = a * a * xi
    b2 = rep.basis_index_for(target)
    torus = MetaElement.torus(ctx, a)
    psi_t = rep.psi.twist(target)
    v1 = rep.phi(b=b2)
    c1 = rep.whittaker_functional(xi, rep.act(torus, v1))  # l^{a^2 xi}(v1) = 1
    t0 = Fraction(1, ctx.p**rep.level)
    v2 = rep.phi(t=t0, b=b2)
    c2 = rep.whittaker_functional(xi, rep.act(torus, v2)) * psi_t.value(-t0).inverse()
    if c1 != c2:
        raise ArithmeticError("c factor is not well defined; multiplicity one violated (bug)")
    return c1


def bessel_per_point(rep, xi, eta, x) -> CycValue:
    """J^{xi,eta}(<x>w), or J^{xi,eta}(g) at an antidiagonal cover element
    g, as one scalar integral per point: the integrand is
    l^xi(pi(D) pi(w n(y)) phi_{b(eta)}) psi^eta(-y) with D = g w^-1 in torus
    form, over the same support as ``zeta.bessel_direct``, but with no
    kernel shared between points, and sampled at max(2, l + |k|), finer
    than the kernel's level (1 on Z_p, |k| on a shell k < 0)."""
    ctx = rep.ctx
    b_eta = rep.basis_index_for(eta)
    if isinstance(x, MetaElement):
        torus = x * MetaElement.w(ctx).inverse()
        coord, e = torus.g.a, torus.eps
    else:
        coord, e = x, 1
    k, u = torus_coordinates(coord, ctx.p)
    if k > 0:
        return CycValue.zero(ctx.q)
    psi_eta = rep.psi.twist(eta)

    def f(y):
        value = rep.whittaker_functional(xi, rep.w_translate(b_eta, y), (k, u, e))
        return value if value.is_zero() else value * psi_eta.value(-y)

    if k == 0:
        return integrate_ball(ctx, f, 0, max(2, rep.level))
    return integrate_shell(ctx, f, ShellIntegralPlan(k, max(2, rep.level - k), ADDITIVE_DX))


def fourier_inversion_check(rep, xi, v, a):
    """Both sides of the inversion identity

        W^xi_v(<a>w) = sum_eta (|eta|/2) * integral over Q_p^x of
            J^{xi,eta}(<ay>w) (ay, y) W^eta_v(<y>) d*y

    with eta over deduplicated square-class representatives; the integral
    runs over the shells of v (``InducedVector.shells``), the only ones where
    W^eta_v(<y>) can be nonzero."""
    ctx = rep.ctx
    p, q = ctx.p, ctx.q
    xi = Fraction(xi)
    a = Fraction(a)
    va, ua = valuation_unit(a.numerator, a.denominator, p, p)
    lhs = rep.whittaker_function(xi, v, MetaElement.torus(ctx, a) * MetaElement.w(ctx))
    rhs = CycValue.zero(q)
    for eta_rep in rep.spectrum().dedup:
        table = bessel_table(rep, xi, eta_rep.xi)

        def f(y: ShellPoint) -> CycValue:
            weta = rep.whittaker_functional(eta_rep.xi, v, (y.k, y.u, 1))
            if weta.is_zero():
                return weta
            jval = table.value(a * y) if va + y.k <= 0 else CycValue.zero(q)
            if jval.is_zero():
                return CycValue.zero(q)
            value = jval * weta
            return value if hilbert_int(p, va + y.k, ua * y.u, y.k, y.u) == 1 else -value

        total = CycValue.zero(q)
        for m in v.shells():
            level = rep.level + 1 + max(0, -(va + m))
            total = total + integrate_shell(
                ctx, f, ShellIntegralPlan(m, level, MULTIPLICATIVE_DX))
        rhs = rhs + total * eta_rep.abs_value * Fraction(1, 2)
    return lhs, rhs


def bessel_growth_report(rep, xi, eta, shells) -> dict:
    """max |J(<x>w)| / max(1, |x|) per shell in float, for the growth bound
    diagnostics; exact values stay authoritative elsewhere."""
    ctx = rep.ctx
    table = bessel_table(rep, xi, eta)
    out = {}
    for n in shells:
        norm = max(1.0, float(ctx.q) ** (-n))
        vals = [abs(table.value(ShellPoint(u, n, ctx.p)).to_complex()) / norm
                for u in _unit_residues_mod(ctx.p ** min(rep.level + 1, 3))]
        out[n] = max(vals)
    return out


def characters(ctx, m: int, p_exponents) -> list:
    """Every character of exact conductor exponent m with mu(p) = e(x), x in
    `p_exponents`."""
    if m == 0:
        return [MultChar(ctx, 0, x) for x in p_exponents]
    out = []
    for gen in range(ctx.p ** (m - 1) * (ctx.p - 1)):
        for x in p_exponents:
            try:
                out.append(MultChar(ctx, m, x, gen))
            except ValueError:  # conductor below m
                pass
    return out


def fe_witness(rep, eta, mu):
    """The first phi(t, n, b) with Z(s, mu^-1, l^eta, phi) != 0, t = r/p^j in
    lowest terms and b in the square class of eta: j = max(m - l, 0) first,
    then every other j < l + 3, each with n in 0, 1, -1, 2, -2; None when no
    term there is seen.  Each term lies on one shell, so its zeta integral is
    one monomial."""
    p, mu_inv = rep.ctx.p, mu.inverse()
    own = rep.spectrum().reps[rep.basis_index_for(eta)].square_class
    bs = [b for b, r in enumerate(rep.spectrum().reps) if r.square_class == own]
    first = max(mu.m - rep.level, 0)
    for j in [first] + [j for j in range(rep.level + 3) if j != first]:
        for r in range(p**j):
            if j and r % p == 0:
                continue
            for n in (0, 1, -1, 2, -2):
                for b in bs:
                    phi = rep.phi(t=Fraction(r, p**j), n=n, b=b)
                    if not zeta_function(rep, eta, mu_inv, phi).poly.is_zero():
                        return phi
    return None


def gamma_from_fe(rep, xi, eta, mu) -> LaurentPoly:
    """Gamma^{xi,eta}_mu solved from the functional equation, with no Bessel
    function.  On the witness phi of eta (``fe_witness``) no other class's
    zeta integral is nonzero (independence (i) of
    ``zeta.gamma_involution_defects``), so the equation

        Z(s, mu, l^xi, pi(w) phi) = (1/4) |eta| Gamma^{xi,eta}_mu(s) Z(1-s, mu^-1, l^eta, phi)

    keeps one term, and Z(1-s, mu^-1, l^eta, phi) = c X^e, X = q^s, is a
    monomial: Gamma = 4 Z(s, mu, l^xi, pi(w) phi) / (|eta| c X^e), an exact
    division.  A ``LaurentPoly`` in q^s, like ``gamma_factor(...).poly``."""
    ctx = rep.ctx
    phi = fe_witness(rep, eta, mu)
    if phi is None:
        raise ArithmeticError(f"no witness for eta = {eta} and {mu!r}")
    (e, c), = zeta_function(rep, eta, mu.inverse(), phi).poly.one_minus_s().coeffs.items()
    lhs = zeta_function(rep, xi, mu, rep.act(MetaElement.w(ctx), phi)).poly.retagged()
    scale = (c * Fraction(ctx.q) ** rep.level).inverse() * 4
    return LaurentPoly(ctx.q, Q_POS_S, {n - e: a * scale for n, a in lhs.coeffs.items()})


# -- Fraction-entry reference of the cover -------------------------------------
# The cover arithmetic as it ran on one ``Fraction`` per entry, the oracle of
# the fraction-free ``SL2Element``.  A matrix is a tuple (a, b, c, d) of
# Fractions; the Hilbert symbol is the library's own ``hilbert_frac``.

def ref_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def ref_inverse(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def ref_is_integral(p: int, x) -> bool:
    return all(e.denominator % p != 0 for e in x)


def ref_cocycle(p: int, g, h) -> int:
    """{g, h} = (chi(gh)/chi(g), chi(gh)/chi(h)), chi = c if c != 0 else d."""
    def chi(x):
        return x[2] if x[2] != 0 else x[3]

    x = chi(ref_mul(g, h))
    return hilbert_frac(p, x / chi(g), x / chi(h))


def ref_kubota_split(p: int, h) -> int:
    if not ref_is_integral(p, h):
        raise ValueError("Kubota splitting is only defined on integral matrices")
    c, d = h[2], h[3]
    return hilbert_frac(p, c, d) if c != 0 and frac_valuation(c, p) > 0 else 1


def coset_rep(ctx: PadicContext, t, n: int) -> SL2Element:
    """The library's representative n(t) diag(p^n, p^-n) at a rational t."""
    t = Fraction(t)
    return _coset_rep(ctx, t.numerator, t.denominator, n)


def ref_coset_rep(p: int, t: Fraction, n: int):
    pn = Fraction(p) ** n
    return (pn, t / pn, Fraction(0), 1 / pn)


def ref_coset_decompose(p: int, g):
    """(h, t, n, eps_track) of g = h * n(t) diag(p^n, p^-n)."""
    a, b, c, d = g
    va, vc = frac_valuation(a, p), frac_valuation(c, p)
    n = int(min(va, vc))
    p2n = Fraction(p) ** (2 * n)
    t = p_fractional_part(d * p2n / c if vc <= va else b * p2n / a, p)
    pn = Fraction(p) ** n
    h = (a / pn, -a * t / pn + b * pn, c / pn, -c * t / pn + d * pn)
    return h, t, n, ref_cocycle(p, h, ref_coset_rep(p, t, n))


def random_cover_word(p: int, rng, length: int = 5):
    """A random word in n(x), n_lower(x), diag(y, 1/y) and w: a list of
    (constructor name, argument) pairs, with signed rational parameters whose
    denominators mix powers of p with numbers prime to p (2, 4, 2p, ...)."""
    dens = (1, 2, 4, p, p * p, 2 * p, 3 * p if p != 3 else 5)
    word = []
    for _ in range(length):
        kind = rng.choice(("n", "n_lower", "torus", "w"))
        if kind == "w":
            word.append(("w", None))
            continue
        num = rng.randrange(-2 * p * p, 2 * p * p + 1)
        if kind == "torus" and num == 0:
            num = -1
        word.append((kind, Fraction(num, rng.choice(dens))))
    return word


def ref_generator(kind: str, x):
    one, zero = Fraction(1), Fraction(0)
    if kind == "n":
        return (one, x, zero, one)
    if kind == "n_lower":
        return (one, zero, x, one)
    if kind == "torus":
        return (x, zero, zero, 1 / x)
    return (zero, Fraction(-1), one, zero)


def ref_word(word):
    """The reference matrix of a ``random_cover_word``."""
    out = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for kind, x in word:
        out = ref_mul(out, ref_generator(kind, x))
    return out
