"""Exact p-adic integration, Bessel functions, gamma factors, local zeta
functions and the functional-equation verdict.

Everything in scope is a finite exact sum over shells p^n Z_p^x.  Shell and
ball integrals carry a locally-constant refinement gate (the value must be
stable from one sampling level to the next).

Measure normalization: dx gives Z_p volume 1 and d*x = dx/|x|, so the unit
group has multiplicative volume 1 - 1/q.  The factor 2 in the zeta integral,
the 2 q^{-n/2} in the gamma coefficients and the 1/4 in the functional
equation are carried explicitly, never folded into measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    MAX_GATE_SAMPLES,
    CycValue,
    LaurentPoly,
    PadicContext,
    Q_NEG_S,
    Q_POS_S,
    ShellPoint,
    _unit_residues_mod,
    frac_mod,
    frac_valuation,
    p_fractional_int,
    q_half_power,
    ratio_torus_coordinates,
    torus_coordinates,
    valuation_unit,
)
from .localchar import (
    MultChar,
    chi_psi,
    chi_psi_int,
    hilbert_int,
    square_class_int,
)
from .cover import MetaElement
from .repn import InducedVector, Representation

ADDITIVE_DX = "ADDITIVE_DX"
MULTIPLICATIVE_DX = "MULTIPLICATIVE_DX"


class NotLocallyConstantError(ArithmeticError):
    pass


class SamplingBudgetError(ArithmeticError):
    """The first gate pass at the caller's level would take more samples
    than ``MAX_GATE_SAMPLES``; nothing was evaluated."""


@dataclass(frozen=True)
class ShellIntegralPlan:
    """How to integrate over the shell of valuation n: sample the unit part
    modulo p^level, under the additive or multiplicative measure."""

    n: int
    level: int
    measure: str = MULTIPLICATIVE_DX


def _sample_sum(vals: list, q: int):
    """The sum of integrand samples by their own type's ``sum``: scalar
    ``CycValue``s, or ``InducedVector``s for a vector-valued integral."""
    return type(vals[0]).sum(vals, q)


def _shell_sum(ctx: PadicContext, f, n: int, level: int, measure: str):
    """The shell sums at sampling levels `level` and `level + 1`, from one
    pass over the level-(level + 1) units: the level-`level` units are those
    below p^level, the first 1/p of them in ascending order.  f receives
    each point u p^n as a ``ShellPoint``, which carries n and u as ints, and
    returns a ``CycValue`` or an ``InducedVector`` (``_sample_sum``)."""
    p, q = ctx.p, ctx.q
    if measure == MULTIPLICATIVE_DX:
        scale = Fraction(1, q**level)
    elif measure == ADDITIVE_DX:
        scale = Fraction(q) ** (-n - level)
    else:
        raise ValueError(f"unknown measure {measure!r}")
    units = _unit_residues_mod(p ** (level + 1))
    vals = [f(ShellPoint(u, n, p)) for u in units]
    return (_sample_sum(vals[:len(units) // p], q) * scale,
            _sample_sum(vals, q) * (scale / q))


def _gated(compute, p: int, level: int, what: str, shift: int = 0):
    """Locally-constant refinement gate: accept once the sums at level and
    level+1 agree; on mismatch double the level, twice at most.

    `compute(level)` returns both sums from one evaluation pass over the
    level+1 samples, whose first part is the level sample set, so every
    sample of an attempt is evaluated once.  The budget is checked before
    each pass, on p^(level + shift) samples: over it, the first pass raises
    ``SamplingBudgetError`` and a refinement ``NotLocallyConstantError``.
    A shell pass at level L takes p^(L+1) - p^L samples (shift 0); a pass
    over the ball P^m takes p^(L+1-m), hence shift -min(m, 0) for a ball
    below Z_p."""
    if p ** (level + shift) > MAX_GATE_SAMPLES:
        raise SamplingBudgetError(
            f"{what}: level {level} needs {p ** (level + shift)} samples, over the budget of "
            f"{MAX_GATE_SAMPLES}")
    for attempt in range(3):
        if attempt and p ** (level + shift) > MAX_GATE_SAMPLES:
            raise NotLocallyConstantError(
                f"{what}: refinement level {level} exceeds the sampling budget")
        v1, v2 = compute(level)
        if v1 == v2:
            return v1
        level *= 2
    raise NotLocallyConstantError(f"{what}: not locally constant at tested resolution")


def integrate_shell(ctx: PadicContext, f, plan: ShellIntegralPlan):
    """Exact integral of a locally constant f over the shell p^n Z_p^x; f
    may be scalar (``CycValue``) or vector valued (``InducedVector``), and
    the gate then compares whole vectors.

    An accepted gate at relative level L evaluates f once at each of the
    p^(L+1) - p^L unit residues mod p^(L+1); a refinement to 2L adds one
    pass at level 2L + 1."""
    return _gated(lambda lv: _shell_sum(ctx, f, plan.n, lv, plan.measure),
                  ctx.p, max(1, plan.level), f"shell n={plan.n}")


def integrate_ball(ctx: PadicContext, f, m: int, level: int):
    """Exact additive integral over the ball P^m = p^m Z_p, of a scalar or
    vector valued f as in ``integrate_shell``.  `level` is the absolute
    sampling depth (cosets of P^level); an accepted gate evaluates f once at
    each point a p^m, 0 <= a < p^(level + 1 - m).  Below Z_p (m < 0) the
    sampling budget is checked on p^(level - m), not p^level, so a ball too
    deep for it raises ``SamplingBudgetError`` before f is called."""
    p, q = ctx.p, ctx.q
    pm = Fraction(p) ** m

    def compute(lv):
        vals = [f(a * pm) for a in range(p ** (lv + 1 - m))]
        scale = Fraction(q) ** (-lv)
        return (_sample_sum(vals[:p ** (lv - m)], q) * scale,
                _sample_sum(vals, q) * (scale / q))

    return _gated(compute, p, max(level, m + 1), f"ball P^{m}", -min(m, 0))


# -- Bessel functions ----------------------------------------------------------


def bessel_direct(rep: Representation, xi, eta, x) -> CycValue:
    """J^{xi,eta}(g) from its definition: the integral over Q_p of
    W^xi_v(g n(y)) psi^eta(-y) dy with v = phi^e_{b(eta)}, so W^eta_v(e) = 1.

    `x` may be a torus coordinate (g = <x> w) or an antidiagonal cover
    element g; any other element raises ValueError.  With the diagonal
    D = g w^-1 = [diag(x, 1/x), e], W^xi_v(g n(y)) = l^xi(pi(D) pi(w n(y)) v),
    and l^xi(pi(D) .) is linear, so

        J^{xi,eta}(g) = l^xi(pi(D) K),  K = integral of pi(w n(y)) v psi^eta(-y) dy,

    the Bessel function read as a vector integral (Baruch-Mao, Amer. J.
    Math. 2003).  The translate lies on the shell min(v(y), 0) and the
    functional at D reads only the shell v(x) = k, so K runs over Z_p for
    k = 0 and over the shell v(y) = k for k < 0, and J is 0 for k > 0.  K
    depends on eta and k alone, not on xi, the unit of x or e, so it is
    integrated once per shell (``_bessel_kernel``); D then acts through the
    torus form of ``Representation.whittaker_functional``."""
    ctx = rep.ctx
    rep.basis_index_for(xi)  # outside X(pi) raises, also before the v(x) > 0 shortcut
    b_eta = rep.basis_index_for(eta)
    if isinstance(x, MetaElement):
        if x.g.na != 0 or x.g.nd != 0:
            raise ValueError(f"bessel_direct needs an antidiagonal element, got {x!r}")
        torus = x * MetaElement.w(ctx).inverse()
        (k, u), e = ratio_torus_coordinates(torus.g.na, torus.g.den, ctx.p), torus.eps
    else:
        if x == 0:
            raise ZeroDivisionError("Bessel function needs x != 0")
        (k, u), e = torus_coordinates(x, ctx.p), 1
    if k > 0:
        return CycValue.zero(ctx.q)
    return rep.whittaker_functional(xi, _bessel_kernel(rep, eta, b_eta, k), (k, u, e))


def _bessel_kernel(rep: Representation, eta: Fraction, b_eta: int, k: int) -> InducedVector:
    """The Bessel kernel K_eta(k) of ``bessel_direct``, the integral of
    pi(w n(y)) phi_{b_eta} psi^eta(-y) dy over Z_p (k = 0) or the shell
    v(y) = k (k < 0), memoized per (eta, k) in ``rep._bessel_kernels``.

    The samples are closed translates (``Representation.w_translate``, its
    own gate against ``act`` included), and the integrand reads y only mod
    Z_p.  For t in Z_p, phi_b is the eigenvector of pi(n(t)) of eigenvalue
    psi(beta_b t), so

        pi(w n(y + t)) phi_b = pi(w n(y)) pi(n(t)) phi_b
                             = psi(beta_b t) pi(w n(y)) phi_b,

    and psi^eta(-(y + t)) = psi^eta(-y) psi(-eta t), where psi(-eta t) =
    psi(-beta_b t) as [eta] = beta_b and eta t - beta_b t lies in Z_p: the
    two factors cancel.  So the integrand is constant on Z_p, sampled at
    the ball's floor level 1; on a shell k < 0, y + t = (u + t p^-k) p^k
    for y = u p^k, so it reads the unit u only mod p^-k, and the shell is
    sampled at level -k, where psi^eta(-y) = psi^eta(-u / p^-k) reads the
    int unit.  The gate then accepts in one pass.  It still compares the
    vector sums at levels L and L+1, at least as strict as comparing their
    image under any functional, so a level that were too low would refine
    or raise, never pass.  Only an accepted kernel is stored; a raise
    stores nothing, so the next call integrates and raises again."""
    key = (eta, k)
    kernel = rep._bessel_kernels.get(key)
    if kernel is None:
        ctx = rep.ctx
        psi_eta = rep.psi.twist(eta)

        if k == 0:
            def f(y: Fraction) -> InducedVector:
                return rep.w_translate(b_eta, y) * psi_eta.value(-y)

            kernel = integrate_ball(ctx, f, 0, 1)
        else:
            pk = ctx.p**-k

            def f(y: ShellPoint) -> InducedVector:
                # -y = -u / p^-k
                return rep.w_translate(b_eta, y) * psi_eta.value_int(-y.u, pk)

            kernel = integrate_shell(ctx, f, ShellIntegralPlan(k, -k, ADDITIVE_DX))
        rep._bessel_kernels[key] = kernel
    return kernel


def bessel_closed(rep: Representation, xi, eta, x) -> CycValue:
    """The closed shell-sum form of J^{xi,eta}(<x>w), valid for
    v(x) = n <= -level:

        integral over p^n Z_p of |sigma(<x/y>) b'|_b (y/x, 1/y)
            psi^xi(-x^2/y - eta/xi * y) dy

    with the eigen-coefficient extraction |.|_b.  On the shell y = u_y p^n,
    x = u_x p^n, so x/y is the unit u_x/u_y: sigma(<x/y>) is the torus
    action's ``unit_torus_value`` at u_x u_y^-1 mod p^l, and the Hilbert
    sign is ``hilbert_int`` on the same ints.

    The character reads ints too.  The scales of psi^xi and psi^eta are
    xi = x_n/x_d and eta = e_n/e_d; write x = X/X_d (the ``Fraction`` x
    itself, so a unit with a denominator prime to p works as well) and
    y = u_y / P with P = p^-n.  Then x^2/y = X^2 P / (X_d^2 u_y) and

        psi^xi(-x^2/y - (eta/xi) y)
            = psi(-(x_n/x_d) X^2 P / (X_d^2 u_y) - (e_n/e_d) u_y / P)
            = psi(-(x_n e_d X^2 P^2 + e_n x_d X_d^2 u_y^2) / (x_d X_d^2 e_d P u_y)),

    one int pair per sample, with a positive denominator as u_y > 0.

    The integrand reads y only mod Z_p, so the shell is sampled at level
    |n|.  For z in Z_p, y + z = (u_y + z p^|n|) p^n, and |n| >= l, so
    y -> y + z moves neither u_x u_y^-1 mod p^l nor the units mod p the
    Hilbert sign reads.  The argument of psi (psi^xi(a) = psi(xi a)) moves by

        xi x^2 z / (y (y + z)) - eta z = z (xi s - eta),
        s = u_x^2 / (u_y (u_y + z p^|n|)) = (u_x u_y^-1)^2 mod p^|n|,

    and xi s - eta lies in Z_p wherever the coefficient at u_x u_y^-1 is
    nonzero: sigma(<a>) maps the eigenline of beta to that of beta a^-2,
    so a nonzero (xi, eta) entry at a = u_x u_y^-1 has xi a^2 = eta mod
    Z_p, and v(xi) = -l with s = a^2 mod p^l.  The gate then accepts in one
    pass, and still compares the sums at levels |n| and |n| + 1.

    A sample's value is the product of three operands: the coefficient at
    t = u_x u_y^-1 mod p^l, the Hilbert sign and the root of unity of that
    pair.  It is built once per key (t, sign, pair) and shared by the
    samples of the call that repeat it."""
    ctx = rep.ctx
    p = ctx.p
    n, ux = torus_coordinates(x, p)
    if n > -rep.level:
        raise ValueError(
            f"closed Bessel formula needs v(x) <= -{rep.level}, got {n}")
    b_out = rep.basis_index_for(xi)
    b_in = rep.basis_index_for(eta)
    pn = p**-n
    # psi^xi's argument is -(c + e_n x_den u_y^2) / (den u_y) (docstring)
    c = xi.numerator * eta.denominator * x.numerator**2 * pn**2
    x_den = xi.denominator * x.denominator**2
    den = x_den * eta.denominator * pn
    modulus = rep.sigma.modulus
    ux = frac_mod(ux, modulus)  # an int or a Fraction unit
    ux_inv = pow(ux, -1, modulus)
    products: dict = {}

    def f(y: ShellPoint) -> CycValue:
        uy_inv = pow(y.u, -1, modulus)
        t = ux * uy_inv % modulus
        # (y/x, 1/y) with y/x = u_y/u_x and 1/y = p^-n / u_y
        sign = hilbert_int(p, 0, y.u * ux_inv, -n, uy_inv)
        num = -(c + eta.numerator * x_den * y.u * y.u)
        root = p_fractional_int(num, den * y.u, p)
        key = (t, sign, root)
        hit = products.get(key)
        if hit is None:
            hit = rep.unit_torus_value(t)[b_out][b_in]
            if not hit.is_zero():
                hit = hit * CycValue.root_of_unity_int(ctx.q, *root)
                hit = hit if sign == 1 else -hit
            products[key] = hit
        return hit

    return integrate_shell(ctx, f, ShellIntegralPlan(n, abs(n), ADDITIVE_DX))


class BesselTable:
    """Memoized Bessel values J^{xi,eta}(<x>w) for one (xi, eta) pair.

    Every value is the defining integral (``bessel_direct``): one
    functional once the shell's kernel is integrated, the kernel shared by
    every x on the shell and every xi, and `_values` memoizes the scalars.
    On the shells v(x) <= -level, where the closed shell sum
    (``bessel_closed``) also holds, a lookup first passes the two-method
    spot check (``check_shell``), so the closed sum is evaluated only as the
    check's witness.  Its pair's indices `b_xi` and `b_eta` are resolved on
    construction."""

    def __init__(self, rep: Representation, xi, eta):
        self.rep = rep
        self.xi = xi
        self.eta = eta
        self.b_xi = rep.basis_index_for(xi)
        self.b_eta = rep.basis_index_for(eta)
        self._values: dict = {}
        self._checked_shells: set = set()

    def value(self, x: Fraction) -> CycValue:
        hit = self._values.get(x)
        if hit is None:
            n = frac_valuation(x, self.rep.ctx.p)
            if n <= -self.rep.level:
                self.check_shell(n)
            hit = self._values[x] = bessel_direct(self.rep, self.xi, self.eta, x)
        return hit

    def check_shell(self, n: int) -> None:
        """The two-method spot check of the shell n <= -level, once per
        shell: direct == closed exactly at the first two unit residues mod
        p^2.  The values that agree are kept, and the shell is marked
        checked only once both probes agree; a disagreement raises
        ArithmeticError and leaves it unmarked, so the next check there
        runs, and raises, again."""
        if n in self._checked_shells:
            return
        p = self.rep.ctx.p
        for u in _unit_residues_mod(p**2)[:2]:
            x = ShellPoint(u, n, p)
            direct = bessel_direct(self.rep, self.xi, self.eta, x)
            closed = bessel_closed(self.rep, self.xi, self.eta, x)
            if direct != closed:
                raise ArithmeticError(
                    f"Bessel methods disagree at x={x}: direct {direct!r}, closed {closed!r}")
            self._values[x] = direct
        self._checked_shells.add(n)

    def shell_values(self, n: int, level: int) -> dict:
        p = self.rep.ctx.p
        return {u: self.value(ShellPoint(u, n, p)) for u in _unit_residues_mod(p**level)}


def bessel_table(rep: Representation, xi, eta) -> BesselTable:
    key = (xi, eta)
    table = rep._bessel_tables.get(key)
    if table is None:
        table = rep._bessel_tables[key] = BesselTable(rep, *key)
    return table


# -- gamma factors ---------------------------------------------------------------


def _char_factor(ctx: PadicContext, mu: MultChar):
    """(k, u) -> chi_psi(x) mu(x) at x = p^k u for an int unit u, computed
    once per k and u mod p^max(1, m): both characters depend on no more."""
    modulus = ctx.p ** max(1, mu.m)
    memo: dict = {}

    def char(k: int, u: int) -> CycValue:
        key = (k, u % modulus)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = chi_psi_int(ctx, k, u) * mu.value_int(k, u)
        return hit

    return char


def _support_t(ctx: PadicContext, char, m: int, alpha: int, ua: int) -> CycValue:
    """T of ``gamma_coefficient`` for a = p^alpha ua on its support shell
    -m: the integral over v(z) = -m of chi_psi(z) mu(z) (z, a) psi(z) dz,
    with char = ``_char_factor`` of mu.

    At z = u / p^m, psi(z) = e(u / p^m) is the int pair (u, p^m), char(-m, u)
    reads u mod p^m and the sign (z, a) reads u mod p, so the shell is
    sampled at level m, and a sample's value is built once per u mod p^m
    and shared by the samples of the call that repeat it."""
    p, pm = ctx.p, ctx.p**m
    products: dict = {}

    def f(z: ShellPoint) -> CycValue:
        key = z.u % pm
        value = products.get(key)
        if value is None:
            value = char(-m, z.u) * CycValue.root_of_unity_int(ctx.q, z.u, pm)
            value = products[key] = value if hilbert_int(p, -m, z.u, alpha, ua) == 1 else -value
        return value

    return integrate_shell(ctx, f, ShellIntegralPlan(-m, m, ADDITIVE_DX))


def gamma_coefficient(rep: Representation, xi, eta, mu: MultChar, n: int) -> CycValue:
    """gamma(n) = 2 q^{-n/2} * integral over |x| = q^n of
    J^{xi,eta}(<x>w) chi_psi(x) mu(x) d*x.

    On the shells n < level the Bessel values come from ``BesselTable``
    (the defining integral, the only valid method there).  A deep shell
    n >= level first passes the two-method Bessel spot check (direct ==
    closed at two probes, ``BesselTable.check_shell``), whatever follows.
    No Bessel value is read there: the closed Bessel shell sum is
    substituted as a formula and the order of integration swapped: with
    x = u y for a unit u, the Hilbert sign (y/x, 1/y) = (u, y) cancels
    against chi_psi(u y) = chi_psi(u) chi_psi(y) (u, y), leaving

        gamma(n) = 2 q^{-n/2} * integral over Z_p^x of
            c(u) chi_psi(u) mu(u) G_n(a) d*u,   a = -(xi u^2 + eta),
        G_n(a) = integral over v(y) = -n of chi_psi(y) mu(y) psi(a y) dy,

    with c(u) the (xi, eta) eigen-coefficient of sigma(<u>).

    The Gauss-sum support: for n >= l, gamma(n) = 0 unless n = m - l.
    (1) c(u) != 0 only where xi u^2 = eta mod Z_p (sigma(<u>) maps the
    eigenline of beta to that of beta u^-2), so there a = -2 eta mod Z_p
    and v(a) = -l.
    (2) Put y = z/a, dy = q^v(a) dz: as chi_psi(z/a) = chi_psi(z) chi_psi(a)
    (z, a),

        G_n(a) = q^v(a) chi_psi(a) mu(a)^-1 T,
        T = integral over v(z) = -l - n of chi_psi(z) mu(z) (z, a) psi(z) dz,

    on a shell k = -l - n <= -2l <= -2.
    (3) At z = p^k u, chi_psi(z) = chi_psi(p^k) chi_psi(u) (p^k, u) and
    (z, a) = (p^k, a) (u, a): T is a constant times the integral of
    chi'(u) psi(z), chi'(u) = chi_psi(u) (p^k, u) (u, a) mu(u).  On units
    chi_psi and both signs read u only mod p (chi_psi is multiplicative on
    units, whose Hilbert symbol is 1 at odd p), so chi' is a character of
    Z_p^x of conductor m' = m when m >= 2 (the rest is trivial on 1 + pZ_p
    and cannot cancel mu there) and m' <= 1 when m <= 1.
    (4) The integral of chi'(u) psi(z) over a shell v(z) = k is a Gauss
    sum: for m' >= 1 it vanishes unless k = -m' (Tate's thesis;
    Bushnell-Henniart, The Local Langlands Conjecture for GL(2), 23), and
    for m' = 0 it is the integral of psi over the shell, 0 for k <= -2.
    So T = 0 unless -l - n = -m' with m' >= 1, that is n = m' - l, and
    n >= l needs m' >= 2l >= 2, so m' = m.  Every conductor case: m <= 1
    (m' <= 1 < 2l) and 2 <= m < 2l (m - l < l) leave every deep shell zero;
    m >= 2l leaves the one shell n = m - l.  Every other deep shell returns
    zero after the spot check, with no sample.

    On the support shell m >= 2l, so every read level is m.  T lies on the
    shell -m (``_support_t``), and depends on a only through its square
    class; the prefactor q^-l chi_psi(a) mu(a)^-1 T reads a through its
    key, (-l, the unit p^l a mod p^m).  A deep sample reads u only mod p^m:
    c(u) reads it mod p^l, chi_psi(u) mod p, mu(u) mod p^m, and where
    c(u) != 0, u -> u + p^m t moves xi u^2 by an element of valuation at
    least m - l, so not the key of a.  The deep shell is sampled at level
    m; the gate accepts in one pass, and still compares the sums at levels
    m and m + 1.  T is integrated once per square class of a, the prefactor
    built once per key of a and a sample's value once per u mod p^m, each
    shared within the call.  The integrands read the int coordinates of
    their ``ShellPoint`` samples."""
    ctx = rep.ctx
    table = bessel_table(rep, xi, eta)
    char = _char_factor(ctx, mu)

    if n >= rep.level:
        table.check_shell(-n)
        m = mu.m
        if n != m - rep.level:
            return CycValue.zero(ctx.q)
        p, b_xi, b_eta = ctx.p, table.b_xi, table.b_eta
        pm, mu_inv = p**m, mu.inverse()
        # a = -(xi u^2 + eta) = num / den
        xn, xd, en, ed = xi.numerator, xi.denominator, eta.numerator, eta.denominator
        den = xd * ed
        ts: dict = {}
        prefactors: dict = {}
        products: dict = {}

        def prefactor(num: int) -> CycValue:
            key = valuation_unit(num, den, p, pm)
            hit = prefactors.get(key)
            if hit is None:
                alpha, ua = key
                t_key = square_class_int(p, alpha, ua)
                if t_key not in ts:
                    ts[t_key] = _support_t(ctx, char, m, alpha, ua)
                hit = prefactors[key] = (ts[t_key] * chi_psi_int(ctx, alpha, ua)
                                         * mu_inv.value_int(alpha, ua) * Fraction(ctx.q) ** alpha)
            return hit

        def f(u: ShellPoint) -> CycValue:
            key = u.u % pm
            hit = products.get(key)
            if hit is None:
                c = rep.unit_torus_value(u.u)[b_xi][b_eta]
                num = -(xn * u.u * u.u * ed + en * xd)
                hit = products[key] = c if c.is_zero() else c * char(0, u.u) * prefactor(num)
            return hit

        shell = integrate_shell(ctx, f, ShellIntegralPlan(0, m, MULTIPLICATIVE_DX))
    else:
        def f(x: ShellPoint) -> CycValue:
            j = table.value(x)
            if j.is_zero():
                return j
            return j * char(x.k, x.u)

        # J is locally constant at relative level l + n on the shell |x| = q^n
        level = max(rep.level + max(0, n), mu.m, 1)
        shell = integrate_shell(ctx, f, ShellIntegralPlan(-n, level, MULTIPLICATIVE_DX))
    return shell * q_half_power(ctx.q, -n) * 2


@dataclass
class GammaFactor:
    """Gamma factor as a polynomial in q^s with its coefficient provenance:
    `coefficients` holds gamma(n) for every n in 0..support_bound, and the
    shells listed in `zero_by_theorem` hold zeros proven by the certified
    class matrix (``gamma_factor``), not computed ones.  Where the parity
    fails the list is empty and every coefficient is zero.  The scanned
    deep shells n >= l off the Gauss-sum support n = m - l are zero by that
    support (``gamma_coefficient``), returned after their Bessel spot check
    without a sample, and are not listed."""

    poly: LaurentPoly
    coefficients: dict
    xi: Fraction
    eta: Fraction
    support_bound: int
    zero_by_theorem: tuple = ()


def gamma_support_bound(rep: Representation, mu: MultChar) -> int:
    """M = 2 max(level, m) - level: gamma(n) = 0 for n > M and for n < 0."""
    return 2 * max(rep.level, mu.m) - rep.level


def gamma_involution_defects(rep: Representation, mu: MultChar, gamma, rows, mids) -> dict:
    """The entries where the gamma factors of mu and mu^-1 break the
    identity M = omega_pi(-1) I (M = 0 when the parity of
    ``zeta_parity_holds`` fails), with

        M^{xi,zeta}(s) = (q^2l / 16) sum_eta
                         Gamma^{xi,eta}_mu(s) Gamma^{eta,zeta}_{mu^-1}(1 - s),

    xi and zeta running over `rows` and eta over `mids`, each a list of one
    xi of X(pi) per square class (any one: see "Any representatives"
    below), and gamma(xi, eta, chi) returning Gamma^{xi,eta}_chi as a
    ``LaurentPoly`` in q^s.  The weight is |eta| |zeta| / 16, and every xi
    of X(pi) has |xi| = q^l.  Returns {(xi, zeta): M^{xi,zeta}} over the
    failing entries, so an empty dict means the identity holds.

    The identity is the functional equation (``check_fe``) applied twice.
    For every v,

        Z(s, mu, l^xi, pi(w) v)
            = (1/4) sum_eta |eta| Gamma^{xi,eta}_mu(s) Z(1-s, mu^-1, l^eta, v),

    with eta over one xi per square class.  Apply it over `mids` to pi(w) v,
    and then once more, at 1 - s and mu^-1 and over `rows`, to each
    Z(1-s, mu^-1, l^eta, pi(w) v).  As pi(w)^2 = pi([-I, 1]) = omega_pi(-1),

        omega_pi(-1) Z(s, mu, l^xi, v) = sum_zeta M^{xi,zeta}(s) Z(s, mu, l^zeta, v),

    so M = omega_pi(-1) I where the functionals Z(s, mu, l^zeta, .), zeta
    in `rows`, are independent.  When the parity fails every zeta integral
    vanishes and the equation says nothing; M is 0 then, as Gamma_mu itself
    vanishes (substitute x -> -x).

    Any representatives.  Two xi of X(pi) in one square class differ by the
    square of a unit a (both have valuation -l).  In the cover, with the
    cocycle of ``cover``,

        <a><b> = <ab> (a, b),   <a>^-1 = <a^-1> (a, -1),
        w <a> w^-1 = <a^-1>,     <a> n(y) <a>^-1 = n(a^2 y),

    and chi_psi(ab) = chi_psi(a) chi_psi(b) (a, b) with chi_psi(a^2) = 1,
    so chi_psi(a)^2 = (a, a) = (a, -1).  By multiplicity one,
    l^eta o pi(<a>) = c_eta(a) l^{a^2 eta} for a constant c_eta(a) != 0
    (``c_factor`` in tests/helpers.py).
    (1) Bessel.  Put y -> a^-2 y in the integral of W^xi_v(g n(y))
    psi^{a^2 eta}(-y) dy that defines J^{xi,a^2 eta}(g) l^{a^2 eta}(v)
    (``bessel_direct``): n(a^-2 y) = <a>^-1 n(y) <a> makes it
    |a|^-2 J^{xi,eta}(g <a>^-1) l^eta(pi(<a>) v), so

        J^{xi,a^2 eta}(g) = |a|^-2 c_eta(a) J^{xi,eta}(g <a>^-1).

    At g = <x> w, <x> w <a>^-1 = <x> w <a^-1> (a, -1) = <xa> w (x, a)(a, -1),
    and pi is genuine: J^{xi,a^2 eta}(<x> w) = |a|^-2 c_eta(a) (x, a)(a, -1)
    J^{xi,eta}(<xa> w).
    (2) Gamma.  Gamma^{xi,eta}_mu(s) is 2 times the integral of
    J^{xi,eta}(<x> w) chi_psi(x) mu(x) |x|^{s-1/2} d*x.  Put x = y/a: the
    signs (x, a)(a, -1) = (y, a)(a^-1, a)(a, -1) = (y, a) and the (y, a) of
    chi_psi(y/a) = chi_psi(y) chi_psi(a^-1) (y, a) cancel, and

        Gamma^{xi,a^2 eta}_mu(s)
            = |a|^{-3/2-s} c_eta(a) chi_psi(a^-1) mu(a)^-1 Gamma^{xi,eta}_mu(s).

    (3) Zeta.  W^{a^2 zeta}_v(<x>) = c_zeta(a)^-1 W^zeta_v(<a><x>)
    = c_zeta(a)^-1 (a, x) W^zeta_v(<ax>), and x = y/a leaves the sign
    (a, y)(a, a^-1)(y, a) = (a, -1):

        Z(s, mu, l^{a^2 zeta}, v)
            = |a|^{1/2-s} c_zeta(a)^-1 (a, -1) chi_psi(a^-1) mu(a)^-1 Z(s, mu, l^zeta, v).

    (4) By (2) and (3) at 1 - s and mu^-1, the term
    |a^2 eta| Gamma^{xi,a^2 eta}_mu(s) Z(1 - s, mu^-1, l^{a^2 eta}, v) is
    |eta| Gamma^{xi,eta}_mu(s) Z(1 - s, mu^-1, l^eta, v) times
    |a|^2 |a|^{-3/2-s} |a|^{s-1/2} c_eta(a) c_eta(a)^-1 mu(a)^-1 mu(a)
    chi_psi(a^-1)^2 (a, -1) = (a^-1, -1)(a, -1) = 1.  So each term of the
    sum does not depend on which eta stands for its class, and the
    functional equation holds over any representatives.  The same
    substitution with <a> on the left, W^{a^2 xi}_v(g) = c_xi(a)^-1
    W^xi_v(<a> g), scales both sides of the equation at a^2 xi by the
    constant of (3), so it holds at every xi of X(pi).  By (3),
    Z(s, mu, l^{a^2 zeta}, .) is a nonzero constant times
    Z(s, mu, l^zeta, .), so the functionals over `rows` are independent as
    they are over the class representatives.  And (2), with the constant of
    (3) for a change of xi, gives every matrix over `rows` and `mids` the
    support of the class matrix.

    Independence, when the parity holds, has two halves.
    (i) Only its own class sees phi(t, n, b): Z(s, mu, l^zeta, phi(t, n, b))
    is 0 unless zeta lies in the square class of beta_b.  At x = p^k u the
    torus form (``Representation._torus_terms``) sends the term through
    sigma at the key (u, -carry/u, 0, 1/u) = diag(u, 1/u) n(-carry/u^2).
    In eigencoordinates sigma(n(y)) is diagonal, and sigma(diag(u, 1/u))
    maps the beta-line to the beta u^-2-line, as diag(u, 1/u)^-1 n(a)
    diag(u, 1/u) = n(u^-2 a).  l^zeta reads only the line of [zeta], so
    W^zeta(<x>) of phi(t, n, b) vanishes unless [zeta] = beta_b u^-2 for a
    unit u, and so does its zeta integral.
    (ii) Each class zeta has some phi(t, n, b) with Z(s, mu, l^zeta, .) != 0
    when the parity holds: the one-class claim, that some vector has a
    nonzero zeta integral, applied to each class.  It is not proven here.
    It is tested on every named datum and every character of the gamma
    atlas (``TestGammaFromFunctionalEquation`` in tests/test_zeta.py, which
    finds a witness for each class, checks (i) on it, and solves the
    functional equation on it for the class matrix).
    A relation sum_zeta c_zeta(s) Z(s, mu, l^zeta, .) = 0, evaluated at the
    witness of zeta, keeps only its own term by (i), so c_zeta = 0.

    Corollary, the certified class matrix: write X = q^s, P = Gamma_mu(s) as
    a k x k matrix in X (`rows` by `mids`) and Q = Gamma_{mu^-1}(1 - s)
    (`mids` by `rows`) in X^-1, and let C be P's coefficient at its lowest
    power X^n1 and C'' Q's coefficient at its highest power X^-n1'.  If
    (q^2l / 16) C C'' X^(n1 - n1') = omega_pi(-1) I, then n1 = n1', C'' is
    invertible and P = C X^n1 exactly.  For write P = X^n1 (C + A) and
    Q = X^-n1 (C'' + B), A with only positive powers of X and B with only
    negative ones; the identity gives A C'' + C B + A B = 0.  If A != 0 has
    top degree a, the X^a coefficient is A_a C'' alone, which is not 0; so
    A = 0, and C B = 0 gives B = 0.  With one square class this is the unit
    theorem: Gamma_mu is one monomial c q^{ns}, and Gamma_{mu^-1} one at the
    same n.  With several, every entry is c q^{n1 s} or 0, at the one shell
    n1 of the matrix."""
    q = rep.ctx.q
    weight = Fraction(q) ** (2 * rep.level) / 16
    mu_inv = mu.inverse()
    unit = rep.central_sign_minus_one() if zeta_parity_holds(rep, mu) else CycValue.zero(q)
    defects = {}
    for xi in rows:
        for zeta_ in rows:
            total = LaurentPoly.zero(q, Q_POS_S)
            for eta in mids:
                term = gamma(xi, eta, mu) * gamma(eta, zeta_, mu_inv).one_minus_s().retagged()
                total = total + weight * term
            if total != LaurentPoly.constant(q, Q_POS_S, unit if xi == zeta_ else 0):
                defects[xi, zeta_] = total
    return defects


def _scan(rep: Representation, pairs, mu: MultChar, bound: int) -> dict:
    """{(xi, eta): Gamma^{xi,eta}_mu} for every pair in `pairs`, from
    gamma(0), gamma(1), ... computed shell by shell for all pairs at once,
    up to the first shell n1 where some pair is nonzero: n1 + 1..bound are
    zeros, listed in `zero_by_theorem`, which only a certificate
    (``gamma_factor``) makes true.  A scan that finds every pair zero runs
    to `bound`."""
    q = rep.ctx.q
    coeffs = {pair: {} for pair in pairs}
    for n in range(bound + 1):
        for (xi, eta), column in coeffs.items():
            column[n] = gamma_coefficient(rep, xi, eta, mu, n)
        if any(not column[n].is_zero() for column in coeffs.values()):
            break
    later = tuple(range(n + 1, bound + 1))
    for column in coeffs.values():
        column.update(dict.fromkeys(later, CycValue.zero(q)))
    return {pair: GammaFactor(LaurentPoly(q, Q_POS_S, column), column, *pair, bound, later)
            for pair, column in coeffs.items()}


def _representatives(rep: Representation, xi) -> list:
    """One xi of X(pi) per square class, in the order of
    ``spectrum().dedup``: its representatives, with xi in place of the one
    of its own class.  An xi outside X(pi) raises ValueError."""
    own = rep.spectrum().reps[rep.basis_index_for(xi)].square_class
    return [xi if r.square_class == own else r.xi for r in rep.spectrum().dedup]


def gamma_factor(rep: Representation, xi, eta, mu: MultChar) -> GammaFactor:
    """Assemble Gamma^{xi,eta}(s) = sum_{n=0}^{M} gamma(n) q^{ns} with
    M = ``gamma_support_bound``; entire in s by construction.

    Where the parity holds (``zeta_parity_holds``), let R1 be the
    square-class representatives of X(pi) with xi in place of the one of
    its own class, and R2 the same with eta.  Gamma_mu on R1 x R2 is
    scanned shell by shell up to its first shell n1 with a nonzero entry,
    and so is Gamma_{mu^-1} on R2 x R1 (the union of both, once, when
    mu = mu^-1).  The two are accepted only if the identity of
    ``gamma_involution_defects``

        sum_{eta' in R2} (q^2l / 16) Gamma^{xi',eta'}_mu(s)
            Gamma^{eta',zeta}_{mu^-1}(1 - s) = omega_pi(-1) [xi' = zeta]

    holds exactly on the scanned leading coefficients, for xi' and zeta in
    R1; it holds with any representatives, as that docstring proves.  By
    the corollary there, it then holds only if both leading shells are n1,
    and it forces Gamma_mu = C q^{n1 s} with C its coefficient matrix at
    n1, and a wrong value in one of the two leading matrices cannot pass.
    The shells n1 + 1..M are zero by theorem: `coefficients` holds them as
    zeros and `zero_by_theorem` lists them.  A matrix with no nonzero
    coefficient makes the left side 0, not omega_pi(-1) I, and fails the
    certificate; a failure raises ArithmeticError and caches nothing, and
    certified matrices are cached entry by entry, both characters.  With
    xi and eta both representatives, R1 = R2 are the representatives, and
    the scans are those of the one class matrix.

    Where the parity fails, Gamma_mu vanishes (substitute x -> -x): the
    pair alone is scanned, every gamma(n), 0 <= n <= M, is computed and
    must be zero, and a nonzero one raises ArithmeticError and caches
    nothing."""
    key = (xi, eta, mu.cache_key())
    hit = rep._gamma_cache.get(key)
    if hit is not None:
        return hit
    bound = gamma_support_bound(rep, mu)
    if zeta_parity_holds(rep, mu):
        rows, mids = _representatives(rep, xi), _representatives(rep, eta)
        # per character its pairs: R1 x R2 for mu, R2 x R1 for mu^-1, one union if equal
        scans: dict = {}
        for chi, left, right in ((mu, rows, mids), (mu.inverse(), mids, rows)):
            _, pairs = scans.setdefault(chi.cache_key(), (chi, {}))
            pairs.update(dict.fromkeys((a, b) for a in left for b in right))
        found = {(a, b, ck): gf for ck, (chi, pairs) in scans.items()
                 for (a, b), gf in _scan(rep, pairs, chi, bound).items()}
        defects = gamma_involution_defects(
            rep, mu, lambda a, b, chi: found[a, b, chi.cache_key()].poly, rows, mids)
    else:  # Gamma_mu vanishes: every nonzero entry is a defect
        found = {key: _scan(rep, [(xi, eta)], mu, bound)[xi, eta]}
        defects = {k: gf.poly for k, gf in found.items() if not gf.poly.is_zero()}
    if defects:
        raise ArithmeticError(f"gamma certificate fails for {mu!r}: {defects!r}")
    rep._gamma_cache.update(found)
    return found[key]


# -- zeta functions ----------------------------------------------------------------


_CLOSURE_ZEROS = 5  # zero shells that close each end of a zeta window


@dataclass
class ZetaFunction:
    """A local zeta function as a polynomial in q^{-s}, with its window
    [lo, hi]: the smallest one containing [-h, h], h = l + 6, with every
    nonzero shell at least `_CLOSURE_ZEROS` shells inside each end.  The
    window is a report of where the support lies, never a limit on it."""

    poly: LaurentPoly
    window: tuple
    parity_ok: bool


def zeta_parity_holds(rep: Representation, mu: MultChar) -> bool:
    """omega_pi(-1) = (chi_psi mu)(-1); all zeta functions vanish otherwise.
    The representation remembers the answer per ``mu.cache_key()``
    (``Representation._parities``); a raise stores nothing."""
    key = mu.cache_key()
    holds = rep._parities.get(key)
    if holds is None:
        lhs = rep.central_sign_minus_one()
        holds = rep._parities[key] = lhs == chi_psi(rep.ctx.elem(-1)) * mu.value(-1)
    return holds


def zeta_function(rep: Representation, xi, mu: MultChar, v: InducedVector) -> ZetaFunction:
    """Z(s, mu, l^xi, v) = 2 * integral over Q_p^x of W^xi_v(<x>) chi_psi mu
    |x|^{s-1/2} d*x, emitted shell by shell as 2 q^{n/2} (shell integral) at
    exponent n of q^{-s}.

    Z is linear in v: it is the sum of a Z(s, mu, l^xi, phi_k) over the
    terms a phi_k of v, k = (r, j, n, b) the key of phi^{n(r/p^j)<p^n>}_b.
    The integral of phi_k lies on its one shell n (``InducedVector.shells``):
    W^xi_{phi_k}(<x>) vanishes wherever v(x) != n.  Each term goes through
    the refinement gate on that shell at its own level

        L_k = max(l + j, m, 1).

    At x = p^n u the integrand W^xi_{phi_k}(<x>) chi_psi(x) mu(x) reads u
    only modulo p^(L_k):

    - the torus form (``Representation._torus_terms``) reads u modulo
      p^(j + l) on a term at t = c/p^j: r = c u^2 mod p^j, then the carry
      (c u^2 - r)/p^j and the sigma key modulo p^l;
    - its Hilbert signs read u only through its square class, modulo p;
    - chi_psi mu reads u modulo p^max(1, m) (``_char_factor``).

    So the integrand is constant on each u + p^(L_k) Z_p, the sums at
    levels L_k and L_k + 1 agree, and the gate accepts after one pass of
    p^(L_k + 1) - p^(L_k) samples.  The gate still compares the two sums,
    so a level that were too low would refine or raise, never pass.

    The integral of phi_k depends only on (xi, mu, k), so the
    representation remembers it once the gate has accepted it, in one dict
    of term integrals per (xi, ``mu.cache_key()``)
    (``Representation._zeta_terms``), looked up once per call: a term met
    again with the same xi and character integrates nothing, and a gate
    that raises stores nothing.  X(pi) membership is checked through the
    per-xi memo ``Representation._twist``, and ``_char_factor`` is built
    only when a term is integrated.

    The window (``ZetaFunction``) is then known exactly: hi is the smallest
    integer >= h = l + 6 with no nonzero shell above it and shells hi-4..hi
    zero, and lo is its mirror image.  It grows with the support of v and
    bounds nothing."""
    ctx = rep.ctx
    q = ctx.q
    rep._twist(xi)  # outside X(pi) raises, even for v = 0
    memo = rep._zeta_terms.setdefault((xi, mu.cache_key()), {})
    char = None

    def term_integral(term) -> CycValue:
        """The shell integral of phi_term alone, at its level L_term."""
        nonlocal char
        if char is None:
            char = _char_factor(ctx, mu)
        _, j, n, _ = term
        phi = InducedVector._nonzero(q, {term: CycValue.one(q)})

        def f(x: ShellPoint) -> CycValue:
            wv = rep.whittaker_functional(xi, phi, (x.k, x.u, 1))
            if wv.is_zero():
                return wv
            return wv * char(x.k, x.u)

        level = max(rep.level + j, mu.m, 1)
        return integrate_shell(ctx, f, ShellIntegralPlan(n, level, MULTIPLICATIVE_DX))

    shells: dict = {}
    for term, c in v.terms.items():
        shell = memo.get(term)
        if shell is None:
            shell = memo[term] = term_integral(term)
        if not shell.is_zero():
            shells.setdefault(term[2], []).append(c * shell)
    coeffs: dict = {}
    for n in sorted(shells):
        shell = CycValue.sum(shells[n], q)
        if not shell.is_zero():
            coeffs[n] = shell * _zeta_shell_factor(q, n)
    half = rep.level + 6
    lo = min([-half] + [n - _CLOSURE_ZEROS for n in coeffs])
    hi = max([half] + [n + _CLOSURE_ZEROS for n in coeffs])
    return ZetaFunction(LaurentPoly._make(q, Q_NEG_S, coeffs), (lo, hi),
                        zeta_parity_holds(rep, mu))


@lru_cache(maxsize=None)
def _zeta_shell_factor(q: int, n: int) -> CycValue:
    """2 q^{n/2}, the factor of the shell n of a zeta function."""
    return q_half_power(q, n) * 2


# -- functional equation --------------------------------------------------------------


@dataclass
class FEReport:
    """Both sides of the local functional equation and their exact residual,
    all written in the q^s variable."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    residual: LaurentPoly
    passed: bool
    vacuous_parity: bool
    xi: Fraction
    mu_record: dict


def check_fe(rep: Representation, mu: MultChar, v: InducedVector, xi,
             corrupt_gamma: CycValue | None = None) -> FEReport:
    """Verify  Z(s, mu, l^xi, pi(w) v) =
    (1/4) sum_eta |eta| Gamma^{xi,eta}_mu(s) Z(1-s, mu^{-1}, l^eta, v),
    the sum over deduplicated square-class representatives of X(pi).
    Returns the exact coefficient-wise residual (zero iff the equation holds).

    `corrupt_gamma` is a test hook adding a deliberate error to the first
    gamma coefficient, for negative controls."""
    ctx = rep.ctx
    q = ctx.q
    w = MetaElement.w(ctx)
    zeta_lhs = zeta_function(rep, xi, mu, rep.act(w, v))
    lhs = zeta_lhs.poly.retagged()
    mu_inv = mu.inverse()
    rhs = LaurentPoly.zero(q, Q_POS_S)
    for eta_rep in rep.spectrum().dedup:
        gpoly = gamma_factor(rep, xi, eta_rep.xi, mu).poly
        if corrupt_gamma is not None:
            gpoly = gpoly + LaurentPoly.constant(q, Q_POS_S, corrupt_gamma)
        z = zeta_function(rep, eta_rep.xi, mu_inv, v).poly.one_minus_s()
        rhs = rhs + (gpoly * z) * (eta_rep.abs_value / 4)
    residual = lhs - rhs
    vacuous = not zeta_lhs.parity_ok
    if vacuous and not (lhs.is_zero() and rhs.is_zero()):
        raise ArithmeticError("parity predicts vanishing but a side is nonzero")
    return FEReport(lhs, rhs, residual, residual.is_zero(), vacuous, xi, mu.spec_record())
