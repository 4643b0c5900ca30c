"""Test-side helpers built on the public model: the value of a model vector
at a cover point, the torus constant c_xi(a), the per-point Bessel integral,
the Fourier inversion identity of the Bessel function, a float growth
report and the characters of one conductor.  Nothing in the library calls
them; the tests use them as oracles.  The data the tests run on are the
named data of ``metaplectic.repn.SIGMA_NAMES``, each built once
(``named_sigma_once``)."""

import functools
from fractions import Fraction

from metaplectic import (
    SIGMA_NAMES,
    CycValue,
    MetaElement,
    MultChar,
    PadicContext,
    ShellIntegralPlan,
    integrate_ball,
    integrate_shell,
    named_sigma,
)
from metaplectic.cover import decompose_meta
from metaplectic.exactnum import (
    ShellPoint,
    _unit_residues_mod,
    torus_coordinates,
    valuation_unit,
)
from metaplectic.localchar import hilbert_int
from metaplectic.zeta import ADDITIVE_DX, MULTIPLICATIVE_DX, bessel_table


@functools.cache
def named_sigma_once(name: str):
    """The datum `name` of ``SIGMA_NAMES``, built once per test session: the
    session fixtures and the table tests share it (the elliptic datum takes
    about 1.3 s to build)."""
    return named_sigma(PadicContext(SIGMA_NAMES[name][0]), name)


def evaluate_vector(rep, v, g: MetaElement):
    """The model vector phi evaluated at the cover point g, as a tuple of
    eigencoordinates."""
    h_meta, dec = decompose_meta(g)
    coords = [CycValue.zero(rep.ctx.q) for _ in range(rep.dim)]
    for (t, n, b), coeff in v.terms.items():
        if t != dec.t or n != dec.n:
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
    form, over the same support and sampling levels as
    ``zeta.bessel_direct``, but with no kernel shared between points."""
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
