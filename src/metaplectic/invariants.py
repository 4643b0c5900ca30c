"""Property suites, each identity written once.  A suite draws from the
``rng`` it is given, raises ``AssertionError`` with a counterexample, and
otherwise returns a one-line detail of what it checked."""

from fractions import Fraction

from .exactnum import LaurentPoly, PadicContext, Q_POS_S
from .localchar import MultChar, chi_psi, hilbert_symbol, hilbert_symbol_oracle, weil_alpha
from .cover import (MetaElement, cocycle, decompose_meta, random_sl2_word, random_unit,
                    validate_kubota_splitting)
from .repn import Representation
from .zeta import (bessel_table, gamma_coefficient, gamma_involution_defects,
                   gamma_support_bound, zeta_parity_holds)


def random_nonzero(p: int, rng) -> Fraction:
    """A random nonzero +-u p^v with u a unit residue mod p^2 and |v| <= 2."""
    return Fraction(random_unit(p, rng)) * Fraction(p) ** rng.randrange(-2, 3) \
        * rng.choice([1, -1])


def check_cocycle(ctx: PadicContext, rng, trials: int) -> str:
    """{g,h}{gh,k} = {h,k}{g,hk} on random triples of the full group."""
    for _ in range(trials):
        g, h, k = (random_sl2_word(ctx, rng).g for _ in range(3))
        if cocycle(g, h) * cocycle(g * h, k) != cocycle(h, k) * cocycle(g, h * k):
            raise AssertionError(f"2-cocycle identity fails at {g!r}, {h!r}, {k!r}")
    return f"{trials} triples"


def check_kubota_splitting(ctx: PadicContext, rng, trials: int) -> str:
    """s(g) s(h) {g,h} = s(gh) on random integral pairs (the gate itself)."""
    validate_kubota_splitting(ctx, rng, trials)
    return f"{trials} pairs"


def check_coset_roundtrip(ctx: PadicContext, rng, trials: int) -> str:
    """[g, eps] = [h, eps'] [n(t) diag(p^n, p^-n), 1] with h integral."""
    for _ in range(trials):
        m = random_sl2_word(ctx, rng)
        h_meta, dec = decompose_meta(m)
        back = h_meta * dec.rep_meta()
        if not dec.h.is_integral() or back.g.entries() != m.g.entries() or back.eps != m.eps:
            raise AssertionError(f"coset round trip fails at {m!r}")
    return f"{trials} words"


def check_characters(ctx: PadicContext, rng, samples: int) -> str:
    """chi_psi(a^2) = 1, chi_psi(ab) = chi_psi(a) chi_psi(b) (a, b), |alpha| = 1
    and alpha(a t^2) = alpha(a), which ``chi_psi``'s per-class cache relies on."""
    for _ in range(samples):
        a, b, t = (random_nonzero(ctx.p, rng) for _ in range(3))
        ka, kb = ctx.elem(a), ctx.elem(b)
        if chi_psi(ctx.elem(a * a)) != 1:
            raise AssertionError(f"chi_psi(a^2) != 1 at a={a}")
        if chi_psi(ctx.elem(a * b)) != chi_psi(ka) * chi_psi(kb) * hilbert_symbol(ka, kb):
            raise AssertionError(f"twisted multiplicativity fails at {a}, {b}")
        alpha = weil_alpha(ka)
        if alpha * alpha.conjugate() != 1:
            raise AssertionError(f"|alpha| != 1 at a={a}")
        if weil_alpha(ctx.elem(a * t * t)) != alpha:
            raise AssertionError(f"alpha(a t^2) != alpha(a) at a={a}, t={t}")
    return f"{samples} samples"


def check_hilbert_oracle(ctx: PadicContext) -> str:
    """The closed Hilbert symbol against its oracle on all pairs u p^v, |v| <= 2."""
    p = ctx.p
    units = [u for u in range(1, p**2) if u % p != 0]
    sweep = [ctx.elem(Fraction(u) * Fraction(p) ** v) for v in range(-2, 3) for u in units]
    for a in sweep:
        for b in sweep:
            if hilbert_symbol(a, b) != hilbert_symbol_oracle(a, b):
                raise AssertionError(
                    f"closed formula disagrees with oracle at {a.value}, {b.value}")
    return f"{len(sweep) ** 2} pairs vs oracle"


def _classes(rep: Representation) -> list:
    """The xi of every square class of X(pi), one representative each."""
    return [r.xi for r in rep.spectrum().dedup]


def check_whittaker_equivariance(rep: Representation, rng, samples: int) -> str:
    """l^xi(pi(n(a)) v) = psi^xi(a) l^xi(v), a in [-3p^2, 3p^2] p^-{0,1,2},
    `samples` draws for each square class xi; the detail counts them all."""
    ctx, p = rep.ctx, rep.ctx.p
    classes = _classes(rep)
    for xi in classes:
        psi_xi = rep.psi.twist(xi)
        for _ in range(samples):
            a = Fraction(rng.randrange(-3 * p**2, 3 * p**2 + 1), p ** rng.randrange(0, 3))
            v = rep.phi(t=Fraction(rng.randrange(0, p**2), p**2), n=rng.choice([-1, 0, 1]))
            lhs = rep.whittaker_functional(xi, rep.act(MetaElement.n(ctx, a), v))
            if lhs != psi_xi.value(a) * rep.whittaker_functional(xi, v):
                raise AssertionError(f"equivariance fails at xi={xi}, a={a}")
    return f"{samples * len(classes)} pairs"


def check_bessel_agreement(rep: Representation) -> str:
    """Direct and closed Bessel values agree on the shells -level-1, -level,
    for every pair (xi, eta) of square classes (``BesselTable.check_shell``,
    two probes per shell)."""
    classes = _classes(rep)
    shells = (-rep.level - 1, -rep.level)
    for xi in classes:
        for eta in classes:
            try:
                for n in shells:
                    bessel_table(rep, xi, eta).check_shell(n)
            except ArithmeticError as exc:
                raise AssertionError(f"({xi}, {eta}): {exc}") from exc
    return f"{2 * len(shells) * len(classes) ** 2} points, two methods"


def check_shell_vanishing(rep: Representation) -> str:
    """gamma(n) = 0 just above the support bound and at n = -1 (trivial mu),
    for every pair (xi, eta) of square classes."""
    mu = MultChar.trivial(rep.ctx)
    classes = _classes(rep)
    bound = gamma_support_bound(rep, mu)
    for xi in classes:
        for eta in classes:
            for n in (bound + 1, -1):
                if not gamma_coefficient(rep, xi, eta, mu, n).is_zero():
                    raise AssertionError(f"gamma({n}) != 0 at ({xi}, {eta})")
    k = len(classes)
    return f"gamma({bound + 1}) = gamma(-1) = 0, {k} x {k} class matrix"


def check_gamma_involution(rep: Representation) -> str:
    """Gamma_mu(s) Gamma_{mu^-1}(1 - s) = omega_pi(-1) I, scaled by
    q^2l / 16, over every pair of square-class representatives
    (``zeta.gamma_involution_defects`` with `rows` and `mids` both the
    representatives; the identity is derived there, for any choice of
    them), for the trivial character, the unramified one with mu(p) = -1
    and the conductor-1 characters sending the generator to e(1/(p - 1))
    and to -1.  Each Gamma is a full scan of ``gamma_coefficient`` over
    0..M, never ``gamma_factor``, whose certified early exit relies on the
    corollary checked here: with the parity holding, the class matrix
    Gamma_mu is one constant matrix times one power of q^s."""
    ctx = rep.ctx
    chars = (MultChar.trivial(ctx), MultChar(ctx, 0, Fraction(1, 2)),
             MultChar(ctx, 1, 0, 1), MultChar(ctx, 1, 0, (ctx.p - 1) // 2))
    mus = list({mu.cache_key(): mu for mu in chars}.values())
    scans: dict = {}

    def gamma(xi, eta, mu):
        key = (xi, eta, mu.cache_key())
        if key not in scans:
            scans[key] = LaurentPoly(ctx.q, Q_POS_S, {
                n: gamma_coefficient(rep, xi, eta, mu, n)
                for n in range(gamma_support_bound(rep, mu) + 1)})
        return scans[key]

    rows = _classes(rep)  # the representatives, as rows and as mids
    for mu in mus:
        for (xi, zeta_), value in gamma_involution_defects(rep, mu, gamma, rows, rows).items():
            raise AssertionError(f"involution fails for {mu!r} at ({xi}, {zeta_}): {value!r}")
    holding = sum(zeta_parity_holds(rep, mu) for mu in mus)
    k = len(rows)
    return f"{len(mus)} characters ({holding} with parity), {k} x {k} class matrix"
