import itertools
from fractions import Fraction

import pytest

from metaplectic import (
    ADDITIVE_DX,
    MULTIPLICATIVE_DX,
    AdditiveCharacter,
    CycValue,
    InducedVector,
    LaurentPoly,
    MetaElement,
    MultChar,
    Representation,
    ShellIntegralPlan,
    SigmaRep,
    bessel_closed,
    bessel_direct,
    bessel_table,
    check_fe,
    chi_psi,
    gamma_coefficient,
    gamma_factor,
    integrate_ball,
    integrate_shell,
    norm_sigma,
    zeta_function,
)
from metaplectic import zeta
from metaplectic.exactnum import (
    Q_NEG_S,
    Q_POS_S,
    ShellPoint,
    _unit_residues_mod,
    frac_valuation,
    q_half_power,
)
from metaplectic.zeta import (
    BesselTable,
    NotLocallyConstantError,
    SamplingBudgetError,
    _bessel_kernel,
    gamma_support_bound,
    zeta_parity_holds,
)
from metaplectic.localchar import hilbert_frac, legendre_int
from metaplectic.cover import SL2Element
from metaplectic.repn import mat_mul

from helpers import (
    bessel_growth_report,
    bessel_per_point,
    c_factor,
    characters,
    evaluate_vector,
    fe_witness,
    fourier_inversion_check,
    gamma_from_fe,
    named_sigma_once,
)

XI = Fraction(1, 3)


def one(ctx):
    return lambda x: CycValue.one(ctx.q)


class TestShellIntegral:
    def test_unit_volume_multiplicative(self, ctx):
        plan = ShellIntegralPlan(0, 1, MULTIPLICATIVE_DX)
        assert integrate_shell(ctx, one(ctx), plan) == Fraction(2, 3)

    def test_character_on_units_additive(self, ctx):
        psi = AdditiveCharacter(ctx)
        f = lambda x: psi.value(x / 3)
        plan = ShellIntegralPlan(0, 1, ADDITIVE_DX)
        # full-ball sum is 0, the P-part contributes 1/3
        assert integrate_shell(ctx, f, plan) == Fraction(-1, 3)

    def test_character_on_ball_additive(self, ctx):
        psi = AdditiveCharacter(ctx)
        f = lambda x: psi.value(x / 3)
        assert integrate_ball(ctx, f, 0, 1) == 0

    def test_deeper_character(self, ctx):
        psi = AdditiveCharacter(ctx)
        f = lambda x: psi.value(x / 27)
        assert integrate_ball(ctx, f, 0, 1) == 0
        assert integrate_ball(ctx, f, 2, 3) == 0      # still nontrivial on P^2
        assert integrate_ball(ctx, f, 3, 4) == Fraction(1, 27)

    def test_refinement_gate_failure(self, ctx):
        # valuation is not locally constant at any finite resolution near 0
        from metaplectic.exactnum import frac_valuation

        def f(x):
            if x == 0:
                return CycValue.zero(ctx.q)
            return CycValue.rational(ctx.q, frac_valuation(x, 3))

        with pytest.raises(NotLocallyConstantError):
            integrate_ball(ctx, f, 0, 1)

    def test_single_pass_gate_counts(self, ctx):
        # an unmemoized integrand is evaluated once per level-(L+1) sample
        psi = AdditiveCharacter(ctx)
        calls = []

        def counting(g):
            def f(x):
                calls.append(x)
                return g(x)
            return f

        units = lambda level: 3**level - 3 ** (level - 1)
        for level in (1, 2, 3):
            calls.clear()
            plan = ShellIntegralPlan(0, level, MULTIPLICATIVE_DX)
            assert integrate_shell(ctx, counting(one(ctx)), plan) == Fraction(2, 3)
            assert len(calls) == units(level + 1)
        # psi(x/9) is not constant mod 3, so the gate refines once from L = 1
        # to 2L = 2, where the level-2 and level-3 sums agree
        calls.clear()
        plan = ShellIntegralPlan(0, 1, MULTIPLICATIVE_DX)
        assert integrate_shell(ctx, counting(lambda x: psi.value(x / 9)), plan) == 0
        assert len(calls) == units(2) + units(3)
        for m, level in ((0, 1), (0, 2), (1, 3), (-1, 1)):
            calls.clear()
            assert integrate_ball(ctx, counting(one(ctx)), m, level) == Fraction(3) ** -m
            assert len(calls) == 3 ** (level + 1 - m)

    def test_samples_carry_int_coordinates(self, ctx, ctx5):
        # every shell sample is a ShellPoint u p^n with its int coordinates
        for c in (ctx, ctx5):
            for n in (-2, 0, 3):
                seen = []

                def f(x):
                    assert type(x) is ShellPoint and x.k == n and x.u % c.p
                    assert x == Fraction(x.u) * Fraction(c.p) ** n
                    seen.append(x.u)
                    return CycValue.one(c.q)

                integrate_shell(c, f, ShellIntegralPlan(n, 1, MULTIPLICATIVE_DX))
                assert seen == list(_unit_residues_mod(c.p**2))

    def test_unknown_measure_evaluates_nothing(self, ctx):
        calls = []
        plan = ShellIntegralPlan(0, 1, "NOT_A_MEASURE")
        with pytest.raises(ValueError, match="unknown measure"):
            integrate_shell(ctx, lambda x: calls.append(x) or CycValue.one(ctx.q), plan)
        assert calls == []

    def test_ball_below_z_p_budget_counts_its_points(self, ctx):
        # a pass over P^-4 at level 8 evaluates 3^(8 + 1 + 4) points: the
        # budget sees 3^12 > 3^11, not 3^8, and nothing is evaluated
        calls = []
        with pytest.raises(SamplingBudgetError, match=f"level 8 needs {3**12} samples"):
            integrate_ball(ctx, lambda x: calls.append(x) or CycValue.one(ctx.q), -4, 8)
        assert calls == []

    def test_sampling_budget_depends_on_p(self, ctx5):
        # 5^8 samples exceed the budget although 3^8 would not
        calls = []

        def f(x):
            calls.append(x)
            return CycValue.one(ctx5.q)

        with pytest.raises(SamplingBudgetError):
            integrate_shell(ctx5, f, ShellIntegralPlan(0, 8, MULTIPLICATIVE_DX))
        with pytest.raises(SamplingBudgetError):
            integrate_ball(ctx5, f, 0, 8)
        assert calls == []

    def test_over_budget_vector_evaluates_nothing(self, rep1, monkeypatch):
        # phi(t=1/3^11) puts its shell at level l + 11 = 12, over the budget
        # 3^11 before the first pass: the gate raises SamplingBudgetError,
        # naming the level and the sample count, with no integrand evaluated
        rep = Representation(rep1.sigma)
        calls = []
        functional = rep.whittaker_functional
        monkeypatch.setattr(rep, "whittaker_functional",
                            lambda *args: calls.append(args) or functional(*args))
        v = rep.phi(t=Fraction(1, 3**11))
        with pytest.raises(SamplingBudgetError, match=f"level 12 needs {3**12} samples"):
            zeta_function(rep, XI, MultChar.trivial(rep.ctx), v)
        assert calls == []


class _NotStabilized(ArithmeticError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _improper_integral(ctx, f, max_range: int, level_for_shell=None,
                       tail_level: int | None = None, min_range: int = 0):
    """The improper integral over Q_p: the limit of integrals over P^{-n},
    accepted once three consecutive enlargements agree exactly, starting
    from the ball P sampled at level `tail_level` (default 3).

    `level_for_shell(n)` gives the starting relative sampling level on the
    shell of valuation n (the gate refines it if needed).  `min_range` makes
    the acceptance wait until the scan has passed P^{-min_range}, so interior
    zero shells cannot mask deeper support."""
    if level_for_shell is None:
        level_for_shell = lambda n: 2
    total = integrate_ball(ctx, f, 1, tail_level or 3)
    trace = []
    consecutive_zero = 0
    for m in range(0, -max_range - 1, -1):
        plan = ShellIntegralPlan(m, level_for_shell(m), ADDITIVE_DX)
        shell = integrate_shell(ctx, f, plan)
        total = total + shell
        trace.append((m, total))
        if m <= -1:
            consecutive_zero = consecutive_zero + 1 if shell.is_zero() else 0
            if consecutive_zero >= 3 and m <= -(min_range + 1):
                return total
    raise _NotStabilized(
        f"improper integral did not stabilize within P^{-max_range}", trace)


class TestImproperIntegral:
    """The scan behind the ``_bessel_via_cover_products`` oracle."""

    def test_indicator_of_integers(self, ctx):
        f = lambda x: CycValue.one(ctx.q) if x.denominator % 3 != 0 else CycValue.zero(ctx.q)
        assert _improper_integral(ctx, f, 8) == 1

    def test_twisted_character_vanishes(self, ctx):
        # psi^xi(-x) summed over P^{-2} kills the nontrivial character
        psi_xi = AdditiveCharacter(ctx).twist(XI)

        def f(x):
            return psi_xi.value(-x) if _val3(x) >= -2 else CycValue.zero(ctx.q)

        assert _improper_integral(ctx, f, 8, level_for_shell=lambda m: 3) == 0

    def test_divergence_reported(self, ctx):
        with pytest.raises(_NotStabilized) as err:
            _improper_integral(ctx, one(ctx), 6)
        assert err.value.trace  # partial sums travel with the error


def _val3(x: Fraction) -> int:
    if x == 0:
        return 10**9
    v = 0
    n, d = x.numerator, x.denominator
    while n % 3 == 0:
        n //= 3
        v += 1
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


class TestBessel:
    def test_vanishes_on_p(self, rep1):
        for x in (3, 9, 27, Fraction(6), Fraction(12), Fraction(18), Fraction(33),
                  Fraction(45), Fraction(81), Fraction(15)):
            assert bessel_direct(rep1, XI, XI, Fraction(x)).is_zero()

    def test_unit_shell_value_against_triple_sum_oracle(self, ctx, rep1):
        # independent oracle: J(<x>w) W^eta(e) as the double character sum of
        # the model vector over (z, y) in P^{-1} sampled modulo P^2: the
        # representatives are c/3 for c in [0, 27), each coset of volume 1/9
        w = MetaElement.w(ctx)
        v = rep1.phi()
        psi = rep1.psi
        for u in (1, 2, 4):
            g = MetaElement.torus(ctx, u) * w
            total = CycValue.zero(3)
            for zi in range(27):
                for yi in range(27):
                    z, y = Fraction(zi, 3), Fraction(yi, 3)
                    point = MetaElement.n(ctx, z) * g * MetaElement.n(ctx, y)
                    val = evaluate_vector(rep1, v, point)[0]
                    if val.is_zero():
                        continue
                    total = total + val * psi.value(-XI * z - XI * y)
            oracle = total * Fraction(1, 81)
            assert bessel_direct(rep1, XI, XI, Fraction(u)) == oracle
            assert oracle == 1

    def test_direct_rejects_eta_outside_spectrum_and_zero(self, rep1):
        with pytest.raises(ValueError, match="not in X"):
            bessel_direct(rep1, XI, Fraction(2, 3), Fraction(1))
        with pytest.raises(ZeroDivisionError, match="x != 0"):
            bessel_direct(rep1, XI, XI, 0)

    def test_two_methods_agree_shell_minus_one(self, rep1):
        for u in (1, 2, 4, 5, 7, 8):
            x = Fraction(u, 3)
            assert bessel_direct(rep1, XI, XI, x) == bessel_closed(rep1, XI, XI, x)

    def test_two_methods_agree_deeper(self, rep1):
        for u, k in ((1, 2), (2, 2), (4, 3)):
            x = Fraction(u, 3**k)
            assert bessel_direct(rep1, XI, XI, x) == bessel_closed(rep1, XI, XI, x)

    def test_closed_requires_deep_shell(self, rep1):
        with pytest.raises(ValueError):
            bessel_closed(rep1, XI, XI, Fraction(2))

    def test_scaling_invariance_of_ratio(self, ctx, rep1):
        # J is a ratio, independent of the test vector normalization
        w = MetaElement.w(ctx)
        g = MetaElement.torus(ctx, Fraction(1, 3)) * w
        base = bessel_direct(rep1, XI, XI, g)
        assert bessel_direct(rep1, XI, XI, Fraction(1, 3)) == base

    def test_transformation_law(self, ctx, rep1):
        # J^{t^2 xi, u^2 eta}(<a>w) = c_eta(u) c_xi(t)^{-1} (u,-1) |u|^{-2}
        #     * J^{xi,eta}(<a><t><u>w) for units t, u
        a = Fraction(1, 3)
        w = MetaElement.w(ctx)
        for t in (1, 2, 4):
            for u in (1, 2, 5):
                lhs = bessel_direct(rep1, t * t * XI, u * u * XI,
                                    MetaElement.torus(ctx, a) * w)
                g = (MetaElement.torus(ctx, a) * MetaElement.torus(ctx, t)
                     * MetaElement.torus(ctx, u) * w)
                rhs = c_factor(rep1, XI, u) * c_factor(rep1, XI, t).inverse() \
                    * bessel_direct(rep1, XI, XI, g)
                if hilbert_frac(3, Fraction(u), Fraction(-1)) == -1:
                    rhs = -rhs
                assert lhs == rhs, (t, u)

    def test_rejects_non_antidiagonal_element(self, ctx, rep1):
        for g in (MetaElement.torus(ctx, Fraction(1, 3)),
                  MetaElement.n(ctx, 1) * MetaElement.w(ctx),
                  MetaElement.w(ctx) * MetaElement.n(ctx, Fraction(1, 3))):
            with pytest.raises(ValueError):
                bessel_direct(rep1, XI, XI, g)

    def test_growth_bound(self, rep1):
        report = bessel_growth_report(rep1, XI, XI, range(-5, 1))
        constant = max(report.values())
        assert constant < float("inf")
        shallow = max(bessel_growth_report(rep1, XI, XI, range(-3, 1)).values())
        assert constant <= shallow + 1e-12  # stable under extending the range

    def test_table_consistency_gate(self, rep1):
        table = bessel_table(rep1, XI, XI)
        for n in (-2, -1):
            table.check_shell(n)
        assert {-2, -1} <= table._checked_shells
        for n in (-2, -1):
            for u in (1, 2):  # the first two unit residues mod 9 are the probes
                x = ShellPoint(u, n, 3)
                assert table._values[x] == bessel_closed(rep1, XI, XI, x), x
        assert table.value(Fraction(1, 3)) == bessel_closed(rep1, XI, XI, Fraction(1, 3))


    def test_failed_spot_check_is_not_remembered(self, rep1, monkeypatch):
        closed = zeta.bessel_closed
        monkeypatch.setattr(zeta, "bessel_closed",
                            lambda *args: closed(*args) + CycValue.one(3))
        table = BesselTable(rep1, XI, XI)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                table.value(Fraction(5, 9))
        assert -2 not in table._checked_shells


def _bessel_closed_via_cover(rep, xi, eta, x):
    """The oracle: the closed Bessel shell sum with sigma(<x/y>) as the
    genuine value at the cover torus element and the Hilbert sign
    (y/x, 1/y) on ``Fraction`` arguments."""
    ctx = rep.ctx
    p = ctx.p
    x = Fraction(x)
    n = int(frac_valuation(x, p))
    b_out, b_in = rep.basis_index_for(xi), rep.basis_index_for(eta)
    psi_xi = rep.psi.twist(xi)
    ratio = eta / xi

    def f(y):
        coeff = rep.genuine_eval(MetaElement.torus(ctx, x / y))[b_out][b_in]
        if coeff.is_zero():
            return coeff
        value = coeff * psi_xi.value(-x * x / y - ratio * y)
        return value if hilbert_frac(p, y / x, 1 / y) == 1 else -value

    return integrate_shell(ctx, f, ShellIntegralPlan(n, rep.level + abs(n), ADDITIVE_DX))


class TestBesselClosedTorusForm:
    @pytest.mark.parametrize("which", [1, 2])
    def test_matches_cover_route_oracle(self, rep1, rep2, which):
        # shells -l-3..-l cover both valuation parities; the unit 2/5 has a
        # denominator prime to p
        rep = rep1 if which == 1 else rep2
        p, l = rep.ctx.p, rep.level
        xis = [r.xi for r in rep.spectrum().reps]
        for xi in xis:
            for eta in xis:
                for n in range(-l - 3, -l + 1):
                    points = [ShellPoint(u, n, p) for u in (1, 2, 4, 5, -1)]
                    points.append(Fraction(2, 5) * Fraction(p) ** n)
                    for x in points:
                        assert bessel_closed(rep, xi, eta, x) == \
                            _bessel_closed_via_cover(rep, xi, eta, x), (xi, eta, x)

    def test_rejects_xi_or_eta_outside_spectrum(self, rep1):
        for xi, eta in ((Fraction(2, 3), XI), (XI, Fraction(2, 3))):
            with pytest.raises(ValueError, match=r"^xi=2/3 is not in X\(pi\)$"):
                bessel_closed(rep1, xi, eta, Fraction(1, 3))

    def test_weil_data_matches_cover_route_oracle(self, weil5):
        # sigma(<u>) is not scalar on this data, so a wrong unit in the int
        # psi argument of the closed sum shows; x has a Fraction unit with a
        # denominator prime to p, and a square and a non-square int unit
        p = weil5.ctx.p
        xis = [r.xi for r in weil5.spectrum().reps]
        nonzero = 0
        for xi in xis:
            for eta in xis:
                for n in range(-1, -4, -1):
                    points = [Fraction(-2, 7) * Fraction(p) ** n,
                              ShellPoint(1, n, p), ShellPoint(2, n, p)]
                    for x in points:
                        value = bessel_closed(weil5, xi, eta, x)
                        assert value == _bessel_closed_via_cover(weil5, xi, eta, x), \
                            (xi, eta, x)
                        nonzero += not value.is_zero()
        assert nonzero

    @pytest.mark.parametrize("data, shells", [("norm5", (-1, -2)), ("elliptic9", (-2, -3))],
                             ids=["norm5", "elliptic9"])
    def test_d_term_columns_match_cover_route_oracle(self, request, data, shells):
        # sigma has dimension 4 and 6 here, and sigma(<x/y>) is a d x d
        # matrix that is not scalar; every xi against one eta per square
        # class, on two deep shells v(x) <= -l, at a square and a
        # non-square unit
        rep = request.getfixturevalue(data)
        p = rep.ctx.p
        nonsquare = next(a for a in range(2, p) if legendre_int(p, a) < 0)
        nonzero = 0
        for eta in (r.xi for r in rep.spectrum().dedup):
            for xi in rep.betas:
                for n in shells:
                    for u in (1, nonsquare):
                        x = ShellPoint(u, n, p)
                        value = bessel_closed(rep, xi, eta, x)
                        assert value == _bessel_closed_via_cover(rep, xi, eta, x), (xi, eta, x)
                        nonzero += not value.is_zero()
        assert nonzero

    def test_weil_data_direct_agrees_with_closed(self, weil5):
        # sigma(<u>) is not the identity on this data, so a wrong unit in the
        # closed sum's torus value shows; the builtins cannot see it
        xis = [r.xi for r in weil5.spectrum().reps]
        for xi in xis:
            for eta in xis:
                table = BesselTable(weil5, xi, eta)
                for n in (-1, -2):
                    table.check_shell(n)
                assert table._checked_shells == {-1, -2}, (xi, eta)


class TestOneMembershipDoor:
    @pytest.mark.parametrize("outside", ["xi", "eta"])
    def test_every_entry_point_raises_and_caches_nothing(self, rep1, outside):
        # builtin1 has X(pi) = 1/3 + Z_3, and 2/3 is the other unit square
        # class; x = 3 reaches bessel_direct's v(x) > 0 shortcut.  An entry
        # point that reads one class is called with the one outside X(pi).
        rep = Representation(rep1.sigma)
        bad = Fraction(2, 3)
        xi, eta = (bad, XI) if outside == "xi" else (XI, bad)
        mu = MultChar.trivial(rep.ctx)
        calls = {
            "bessel_direct x=3": lambda: bessel_direct(rep, xi, eta, 3),
            "bessel_direct x=1/3": lambda: bessel_direct(rep, xi, eta, Fraction(1, 3)),
            "bessel_closed": lambda: bessel_closed(rep, xi, eta, Fraction(1, 3)),
            "bessel_table": lambda: bessel_table(rep, xi, eta),
            "gamma_coefficient n=-1": lambda: gamma_coefficient(rep, xi, eta, mu, -1),
            "gamma_coefficient n=1": lambda: gamma_coefficient(rep, xi, eta, mu, 1),
            "gamma_factor": lambda: gamma_factor(rep, xi, eta, mu),
            "zeta_function": lambda: zeta_function(rep, bad, mu, rep.phi()),
            "whittaker_functional": lambda: rep.whittaker_functional(bad, rep.phi()),
            "check_fe": lambda: check_fe(rep, mu, rep.phi(), bad),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=r"^xi=2/3 is not in X\(pi\)$"):
                call()
            assert not rep._bessel_tables and not rep._gamma_cache, name
            assert not rep._bessel_kernels, name


def _bessel_via_cover_products(rep, xi, eta, g):
    """The oracle: J^{xi,eta}(g) from its definition with the integrand
    W^xi_v(g n(y)) evaluated through the cover product g * n(y) at every y,
    under the improper-integral scan over P^1 and the shells 0, -1, -2, ...
    (``_improper_integral``), not over the support ``bessel_direct`` uses."""
    ctx = rep.ctx
    entries = [e for e in g.g.entries() if e != 0]
    depth = max(0, -min(frac_valuation(e, ctx.p) for e in entries))
    v = rep.phi(b=rep.basis_index_for(eta))
    psi_eta = rep.psi.twist(eta)

    def f(y):
        return rep.whittaker_function(xi, v, g * MetaElement.n(ctx, y)) * psi_eta.value(-y)

    def lvl(m):
        if m < -depth:
            return 2
        return max(2, rep.level + (-m if m < 0 else 0))

    return _improper_integral(ctx, f, depth + 6, level_for_shell=lvl,
                              tail_level=rep.level + 2, min_range=depth)


class TestBesselDirectTranslates:
    @pytest.mark.parametrize("which", [1, 2])
    def test_translate_lies_on_one_shell(self, rep1, rep2, which):
        # pi(w n(y)) phi_b lies on the shell min(v(y), 0): the support rule
        # of bessel_direct
        rep = rep1 if which == 1 else rep2
        for b in range(rep.dim):
            assert rep.w_translate(b, Fraction(0)).shells() == [0]
            for k in range(-5, 5):
                for u in (1, 2, 4, 5, -1, Fraction(2, 5), Fraction(-7, 11)):
                    y = Fraction(u) * Fraction(3) ** k
                    assert rep.w_translate(b, y).shells() == [min(k, 0)], (b, y)

    @pytest.mark.parametrize("which", [1, 2])
    def test_torus_coordinates_match_cover_product_oracle(self, ctx, rep1, rep2, which):
        # v(x) = 2 and 1 take the zero short-cut, v(x) = 0 the ball Z_p; the
        # unit 2/5 has a denominator prime to p
        rep = rep1 if which == 1 else rep2
        w = MetaElement.w(ctx)
        dedup = rep.spectrum().dedup
        for xi in (r.xi for r in dedup):
            for eta in (r.xi for r in dedup):
                for k in range(2, -5, -1):
                    for u in (1, 2, 4, 5, Fraction(2, 5)):
                        x = Fraction(u) * Fraction(3) ** k
                        oracle = _bessel_via_cover_products(
                            rep, xi, eta, MetaElement.torus(ctx, x) * w)
                        assert bessel_direct(rep, xi, eta, x) == oracle, (xi, eta, x)

    @pytest.mark.parametrize("which", [1, 2])
    def test_antidiagonal_elements_match_cover_product_oracle(self, ctx, rep1, rep2, which):
        rep = rep1 if which == 1 else rep2
        xi = rep.spectrum().dedup[0].xi
        w = MetaElement.w(ctx)
        for a, t, e in ((Fraction(1, 3), 2, 1), (Fraction(1, 3), 2, -1),
                        (Fraction(2, 9), Fraction(5, 3), -1), (Fraction(4), 1, -1),
                        (Fraction(-1, 3), Fraction(7, 9), 1)):
            g = (MetaElement.torus(ctx, a) * MetaElement.torus(ctx, t) * w
                 * MetaElement.central(ctx, e))
            assert bessel_direct(rep, xi, xi, g) == \
                _bessel_via_cover_products(rep, xi, xi, g), (a, t, e)

    def test_positive_valuation_evaluates_nothing(self, ctx, rep1, monkeypatch):
        calls = []
        monkeypatch.setattr(rep1, "w_translate", lambda *args: calls.append(args))
        w = MetaElement.w(ctx)
        for x in (Fraction(3), Fraction(18, 5), MetaElement.torus(ctx, Fraction(9)) * w):
            assert bessel_direct(rep1, XI, XI, x).is_zero()
        assert calls == []

    @pytest.mark.parametrize("data", ["rep1", "rep2", "weil5", "weil7", "elliptic9"])
    def test_closed_form_matches_act(self, request, data):
        # y = 0, the ints 1..2p^2, every unit mod p^3 on the shells -3..1
        # and units with a denominator prime to p; the Weil data see a
        # wrong Kubota sign or unit, which the p = 3 builtins cannot
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        p = ctx.p
        points = [Fraction(0)] + list(range(1, 2 * p * p + 1))
        for k in range(-3, 2):
            points += [ShellPoint(u, k, p) for u in _unit_residues_mod(p**3)]
            points += [Fraction(2, 11) * Fraction(p) ** k, Fraction(-7, 13) * Fraction(p) ** k]
        w = MetaElement.w(ctx)
        for b in range(rep.dim):
            for y in points:
                assert rep.w_translate(b, y) == \
                    rep.act(w * MetaElement.n(ctx, y), rep.phi(b=b)), (b, y)

    def test_cold_gamma_decomposes_only_at_gate_probes(self, ctx, monkeypatch):
        # the closed form goes through the cover only at the gate's two
        # probes per basis index and shell
        from metaplectic import builtin_sigma_p3, repn
        rep = Representation(builtin_sigma_p3(ctx, 1))
        calls = []
        decompose = repn.decompose_meta
        monkeypatch.setattr(repn, "decompose_meta",
                            lambda x: calls.append(x) or decompose(x))
        shells = set()
        translate = rep.w_translate

        def spy(b, y):
            shells.add(min(frac_valuation(y, 3), 0))
            return translate(b, y)

        monkeypatch.setattr(rep, "w_translate", spy)
        gamma_factor(rep, XI, XI, MultChar(ctx, 2, Fraction(1, 4), 1))
        assert shells and calls
        assert len(calls) <= 2 * rep.dim * len(shells)


class TestBesselKernel:
    @pytest.mark.parametrize("data", ["rep1", "rep2", "weil5", "weil7"])
    def test_matches_per_point_oracle(self, request, data):
        # every (xi, eta) on the shells 0..-3 at a square unit, a non-square
        # unit and a unit with a denominator prime to p.  At p = 7 one oracle
        # value on shell -3 takes about 0.6 s and one kernel there as long,
        # so each case takes one of the three units in turn, and shell -3
        # (of the same parity as -1) is checked for the first pair only
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        p = ctx.p
        nonsquare = next(a for a in range(2, p) if legendre_int(p, a) < 0)
        units = [Fraction(1), Fraction(nonsquare), Fraction(-2, 11)]
        xis = [r.xi for r in rep.spectrum().reps]
        cases = [(xi, eta, k) for xi in xis for eta in xis for k in range(0, -4, -1)
                 if p < 7 or k > -3 or xi == eta == xis[0]]
        nonzero = 0
        for i, (xi, eta, k) in enumerate(cases):
            for u in (units if p < 7 else [units[i % len(units)]]):
                x = u * Fraction(p) ** k
                value = bessel_direct(rep, xi, eta, x)
                assert value == bessel_per_point(rep, xi, eta, x), (xi, eta, x)
                nonzero += not value.is_zero()
        assert nonzero
        # an antidiagonal cover element with cover sign -1: the kernel is
        # the same, the torus form carries e
        xi = xis[-1]
        g = (MetaElement.torus(ctx, Fraction(nonsquare, p)) * MetaElement.w(ctx)
             * MetaElement.central(ctx, -1))
        value = bessel_direct(rep, xi, xi, g)
        assert value == bessel_per_point(rep, xi, xi, g)
        assert not value.is_zero()
        assert value == -bessel_direct(rep, xi, xi, Fraction(nonsquare, p))

    @pytest.mark.parametrize("data, shells", [("norm5", (-1, -2)), ("elliptic9", (-2, -3))],
                             ids=["norm5", "elliptic9"])
    def test_d_term_columns_match_per_point_oracle(self, request, data, shells):
        # sigma has dimension 4 and 6 here, so every translate and every
        # kernel carries a column of d terms; every xi against one eta per
        # square class, on two deep shells, at a square unit, a non-square
        # unit and a unit with a denominator prime to p
        rep = request.getfixturevalue(data)
        p = rep.ctx.p
        nonsquare = next(a for a in range(2, p) if legendre_int(p, a) < 0)
        nonzero = 0
        for eta in (r.xi for r in rep.spectrum().dedup):
            assert len(_bessel_kernel(rep, eta, rep.basis_index_for(eta), shells[0]).terms) > 1
            for xi in rep.betas:
                for k in shells:
                    for u in (Fraction(1), Fraction(nonsquare), Fraction(-2, 7)):
                        x = u * Fraction(p) ** k
                        value = bessel_direct(rep, xi, eta, x)
                        assert value == bessel_per_point(rep, xi, eta, x), (xi, eta, x)
                        nonzero += not value.is_zero()
        assert nonzero

    def test_cold_gamma_translates_each_sample_once(self, ctx, monkeypatch):
        # a cold conductor-2 gamma factor integrates one kernel on Z_p (9
        # samples, level 1) and one on each spot-checked shell -1..-3, at
        # level |k| (6 + 18 + 54): 87 translates, where integrating per x
        # took 954
        from metaplectic import builtin_sigma_p3
        rep = Representation(builtin_sigma_p3(ctx, 1))
        calls = []
        translate = rep.w_translate
        monkeypatch.setattr(rep, "w_translate",
                            lambda b, y: calls.append(y) or translate(b, y))
        gamma_factor(rep, XI, XI, MultChar(ctx, 2, Fraction(1, 4), 1))
        assert len(calls) == 9 + 6 + 18 + 54
        assert sorted(rep._bessel_kernels) == [(XI, k) for k in range(-3, 1)]

    def test_cold_gamma_adds_no_attribute(self, ctx):
        # the products shared inside one integral call live in that call:
        # a cold gamma factor fills the representation's existing memos and
        # adds no attribute to it, nor a global to the module
        from metaplectic import builtin_sigma_p3
        rep = Representation(builtin_sigma_p3(ctx, 1))
        attributes, module_globals = set(vars(rep)), set(vars(zeta))
        gamma_factor(rep, XI, XI, MultChar(ctx, 2, Fraction(1, 4), 1))
        assert set(vars(rep)) == attributes
        assert set(vars(zeta)) == module_globals
        assert rep._bessel_kernels and rep._gamma_cache

    def test_failed_kernel_is_not_remembered(self, ctx, rep1, monkeypatch):
        # a translate scaled by 1 + y is not locally constant: the kernel's
        # gate on Z_p sees different sums at every level and raises; the
        # budget is cut to two passes (levels 1 and 2, 9 + 27 samples) so
        # the test stays fast
        rep = Representation(rep1.sigma)
        translate = rep.w_translate
        calls = []

        def mutated(b, y):
            calls.append(y)
            return translate(b, y) * (1 + y)

        monkeypatch.setattr(zeta, "MAX_GATE_SAMPLES", 3**3)
        with monkeypatch.context() as faulty:
            faulty.setattr(rep, "w_translate", mutated)
            for attempt in range(1, 3):
                with pytest.raises(NotLocallyConstantError):
                    bessel_direct(rep, XI, XI, Fraction(2))
                assert rep._bessel_kernels == {}
                assert len(calls) == (9 + 27) * attempt
        assert bessel_direct(rep, XI, XI, Fraction(2)) == bessel_per_point(rep1, XI, XI, 2)
        assert list(rep._bessel_kernels) == [(XI, 0)]


class TestWTranslateGate:
    @staticmethod
    def _mutated(rep, mutation):
        w_terms = rep._w_terms

        def mutated(items, e):
            for r, j, n, b, coeff, key, eps in w_terms(items, e):
                if mutation == "sign_dropped":
                    eps = 1
                else:
                    key = (key[3], key[1], key[2], key[0])
                yield r, j, n, b, coeff, key, eps

        return mutated

    @pytest.mark.parametrize("mutation", ["sign_dropped", "units_swapped"])
    def test_mutated_closed_form_raises(self, weil5, mutation, monkeypatch):
        # at y with u = 1 neither mutation changes the value; the probe at
        # the smallest non-square unit on the odd shell -1 does
        rep = Representation(weil5.sigma)
        monkeypatch.setattr(rep, "_w_terms", self._mutated(rep, mutation))
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                rep.w_translate(0, ShellPoint(1, -1, 5))
        assert not rep._w_checked

    def test_gate_runs_once_per_shell(self, weil5, monkeypatch):
        rep = Representation(weil5.sigma)
        calls = []
        act = rep.act
        monkeypatch.setattr(rep, "act", lambda *args: calls.append(args) or act(*args))
        for u in (1, 2, 3, 4, 6):
            rep.w_translate(1, ShellPoint(u, -2, 5))
        assert len(calls) == 2
        rep.w_translate(0, ShellPoint(1, -2, 5))
        rep.w_translate(1, Fraction(3, 7))
        assert len(calls) == 6


def _direct_gauss_sum(ctx, mu, n, a):
    """G_n(a) from its definition, starting at the level where the
    integrand chi_psi(y) mu(y) psi(a y) is locally constant on v(y) = -n."""
    psi = AdditiveCharacter(ctx)

    def f(y):
        return chi_psi(ctx.elem(y)) * mu.value(y) * psi.value(a * y)

    alpha = frac_valuation(a, ctx.p) if a != 0 else n
    level = max(n - int(alpha), mu.m, 1)
    return integrate_shell(ctx, f, ShellIntegralPlan(-n, level, ADDITIVE_DX))


class TestGaussSumSupport:
    """The support of the twisted Gauss sum G_n(a) at v(a) = -l, proven in
    ``gamma_coefficient``: on the shells n >= l it vanishes unless
    n = m - l, and for m >= 2 it is nonzero at n = m - l, where it equals
    q^-l chi_psi(a) mu(a)^-1 T with T on its one shell -m
    (``zeta._support_t``).  G_n(a) is the definition,
    ``_direct_gauss_sum``."""

    @pytest.mark.parametrize("p, m", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2)])
    def test_vanishes_off_the_support_shell(self, ctx, ctx5, p, m):
        # both unit square classes, and at p = 3 a unit with a denominator
        # prime to p; the shells run from l to one past max(l, m - l)
        c = ctx if p == 3 else ctx5
        nonsquare = next(a for a in range(2, p) if legendre_int(p, a) < 0)
        units = [1, nonsquare] + ([Fraction(-2, 7)] if p == 3 else [])
        for mu in characters(c, m, (0, Fraction(1, 4)))[:2 if p == 3 else 1]:
            for l in (1, 2):
                support = {m - l} if m >= 2 else set()
                for n in sorted(set(range(l, max(l, m - l) + 2)) | support):
                    values = [_direct_gauss_sum(c, mu, n, u / Fraction(p) ** l) for u in units]
                    if n in support:
                        assert any(not g.is_zero() for g in values), (mu, l, n)
                    else:
                        assert all(g.is_zero() for g in values), (mu, l, n)

    @pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (5, 2)])
    def test_support_shell_is_prefactor_times_t(self, ctx, ctx5, p, m):
        c = ctx if p == 3 else ctx5
        for mu in characters(c, m, (0, Fraction(1, 4)))[:4]:
            char = zeta._char_factor(c, mu)
            for l in (1, 2):
                for u in range(1, p**m):
                    if u % p:
                        a = u / Fraction(p) ** l
                        prefactor = (chi_psi(c.elem(a)) * mu.inverse().value(a)
                                     * Fraction(c.q) ** -l)
                        assert _direct_gauss_sum(c, mu, m - l, a) == \
                            prefactor * zeta._support_t(c, char, m, -l, u), (mu, l, u)


def _gamma_via_bessel_table(rep, xi, eta, mu, n):
    """The oracle: gamma(n) as the shell integral of J^{xi,eta} chi_psi mu
    over |x| = q^n, with every Bessel value taken from the BesselTable."""
    ctx = rep.ctx
    table = bessel_table(rep, xi, eta)

    def f(x):
        j = table.value(x)
        if j.is_zero():
            return j
        return j * chi_psi(ctx.elem(x)) * mu.value(x)

    level = max(rep.level + max(0, n), mu.m, 1)
    shell = integrate_shell(ctx, f, ShellIntegralPlan(-n, level, MULTIPLICATIVE_DX))
    return shell * q_half_power(ctx.q, -n) * 2


class TestGammaDeepShells:
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("m, p_exponent, gen", [
        (0, Fraction(0), 0), (0, Fraction(1, 4), 0), (1, Fraction(1, 4), 1)])
    def test_matches_bessel_table_oracle(self, rep1, rep2, which, m, p_exponent, gen):
        rep = rep1 if which == 1 else rep2
        xi = rep.spectrum().dedup[0].xi
        mu = MultChar(rep.ctx, m, p_exponent, gen)
        bound = 2 * max(rep.level, mu.m) - rep.level
        for n in range(rep.level, bound + 2):
            assert gamma_coefficient(rep, xi, xi, mu, n) == \
                _gamma_via_bessel_table(rep, xi, xi, mu, n), n

    def test_conductor_two_matches_oracle(self, rep1):
        mu = MultChar(rep1.ctx, 2, Fraction(0), 2)
        bound = 2 * mu.m - rep1.level
        values = {n: gamma_coefficient(rep1, XI, XI, mu, n)
                  for n in range(rep1.level, bound + 1)}
        for n, value in values.items():
            assert value == _gamma_via_bessel_table(rep1, XI, XI, mu, n), n
        assert not values[1].is_zero()  # the comparison is not vacuous

    def test_conductor_two_vanishes_above_bound(self, rep1):
        mu = MultChar(rep1.ctx, 2, Fraction(0), 2)
        bound = 2 * mu.m - rep1.level
        assert gamma_coefficient(rep1, XI, XI, mu, bound + 1).is_zero()

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("gen", [2, 4])
    def test_conductor_three_matches_oracle(self, rep1, rep2, which, gen):
        # the oracle's cost grows about tenfold per shell (0.9 s at n = 3,
        # 7 s at n = 4), so the comparison stops at n = 3
        rep = rep1 if which == 1 else rep2
        xi = rep.spectrum().dedup[0].xi
        mu = MultChar(rep.ctx, 3, Fraction(0), gen)
        values = {n: gamma_coefficient(rep, xi, xi, mu, n) for n in range(rep.level, 4)}
        for n, value in values.items():
            assert value == _gamma_via_bessel_table(rep, xi, xi, mu, n), n
        assert not values[2].is_zero()  # a nonzero deep shell

    def test_weil_data_matches_oracle(self, weil5):
        # sigma(<u>) is not the identity on this data, so a wrong unit in the
        # deep integrand's torus value shows; the builtins cannot see it.
        # sigma(<u>) is not diagonal either, so on the pairs xi != eta a
        # transposed eigen-coefficient index shows too.  At conductor 3 the
        # shell n = 2 compares nonzero values as well, not zeros
        for m, n in ((2, 1), (3, 2)):
            mu = MultChar(weil5.ctx, m, Fraction(0), 1)
            for xi in weil5.betas:
                for eta in weil5.betas:
                    value = gamma_coefficient(weil5, xi, eta, mu, n)
                    assert value == _gamma_via_bessel_table(weil5, xi, eta, mu, n), (m, xi, eta)
                    assert not value.is_zero(), (m, xi, eta)

    @pytest.mark.parametrize("data", ["rep1", "rep2", "weil5", "norm3", "norm5", "weil7",
                                      "elliptic9"])
    def test_support_law_on_every_named_datum(self, request, data):
        # every class pair on the deep shells from l to one past the support
        # shell m - l, against the oracle, which reads no Gauss sum, for
        # parity-holding characters with a support shell (m >= 2l): the
        # nonzero entries lie at n = m - l alone.  At p = 3, l = 1 the
        # conductor 3 puts the shell l = 1 below the support shell 2
        rep = request.getfixturevalue(data)
        l = rep.level
        classes = [r.xi for r in rep.spectrum().dedup]
        for m in (2 * l, 2 * l + 1) if (rep.ctx.p, l) == (3, 1) else (2 * l,):
            mus = [mu for mu in characters(rep.ctx, m, (0,)) if zeta_parity_holds(rep, mu)]
            assert mus, m
            for mu in mus[:2]:
                shells = range(l, m - l + 2)
                assert shells[-1] <= gamma_support_bound(rep, mu)
                nonzero = set()
                for xi in classes:
                    for eta in classes:
                        for n in shells:
                            value = gamma_coefficient(rep, xi, eta, mu, n)
                            assert value == _gamma_via_bessel_table(rep, xi, eta, mu, n), \
                                (mu.spec_record(), xi, eta, n)
                            if not value.is_zero():
                                nonzero.add(n)
                assert nonzero == {m - l}, mu.spec_record()


class TestShallowGammaIsKernelZeta:
    """On a shallow shell 0 <= n < l, J^{xi,eta}(<x>w) at |x| = q^n is
    W^xi_K(<x>) for the Bessel kernel K = K_eta(-n) (``bessel_direct``), so
    gamma(n) is the coefficient at exponent -n of Z(s, mu, l^xi, K); both
    sides sample the shell at level max(l + n, m, 1)."""

    @pytest.mark.parametrize("data", ["rep1", "rep2", "weil5", "norm3", "norm5", "weil7",
                                      "elliptic9"])
    def test_gamma_coefficient_is_kernel_zeta_coefficient(self, request, data):
        # elliptic9 has the first shallow shell n = 1 < l = 2
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        chars = [mu for m in range(3) for mu in characters(ctx, m, (0, Fraction(1, 2)))[:4]]
        nonzero = 0
        for xi in rep.betas:
            for eta in rep.betas:
                for mu in chars:
                    for n in range(rep.level):
                        kernel = _bessel_kernel(rep, eta, rep.basis_index_for(eta), -n)
                        zeta_poly = zeta_function(rep, xi, mu, kernel).poly
                        gamma = gamma_coefficient(rep, xi, eta, mu, n)
                        zero = CycValue.zero(ctx.q)
                        assert gamma == zeta_poly.coeffs.get(-n, zero), (xi, eta, mu, n)
                        nonzero += not gamma.is_zero()
        assert nonzero


class TestGamma:
    def test_example_value(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        assert gamma_coefficient(rep1, XI, XI, mu, 0) == Fraction(4, 3)

    def test_support_strict(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        assert gamma_coefficient(rep1, XI, XI, mu, 1).is_zero()

    def test_vanishing_above_bound(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        assert gamma_coefficient(rep1, XI, XI, mu, 2).is_zero()

    def test_vanishing_below_zero(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        for n in (-1, -2, -3):
            assert gamma_coefficient(rep1, XI, XI, mu, n).is_zero()

    def test_factor_is_constant_four_thirds(self, rep1):
        gf = gamma_factor(rep1, XI, XI, MultChar.trivial(rep1.ctx))
        assert gf.poly.var == Q_POS_S
        assert gf.poly.support() == [0]
        assert gf.poly.coeffs[0] == Fraction(4, 3)
        assert gf.support_bound == 1

    def test_conductor_one_bound(self, rep1):
        mu1 = MultChar(rep1.ctx, 1, Fraction(0), 1)
        gf = gamma_factor(rep1, XI, XI, mu1)
        assert gf.support_bound == 1
        assert all(n <= 1 for n in gf.poly.support())

    def test_second_datum(self, rep2):
        xi2 = Fraction(2, 3)
        gf = gamma_factor(rep2, xi2, xi2, MultChar.trivial(rep2.ctx))
        assert gf.poly.support() in ([], [0])

    @pytest.mark.parametrize("gen", [1, 3])
    def test_weil_data_support_bound(self, weil5, gen):
        # gamma(M + 1) = gamma(-1) = 0 on sigma of dimension 2, for every
        # (xi, eta), with mu of conductor 1
        mu = MultChar(weil5.ctx, 1, Fraction(0), gen)
        gf = gamma_factor(weil5, weil5.betas[0], weil5.betas[0], mu)
        assert not gf.poly.is_zero()
        bound = gf.support_bound
        for xi in weil5.betas:
            for eta in weil5.betas:
                for n in (bound + 1, -1):
                    assert gamma_coefficient(weil5, xi, eta, mu, n).is_zero(), (xi, eta, n)


class TestZeta:
    def test_base_vector(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        z = zeta_function(rep1, XI, mu, rep1.phi())
        assert z.poly.var == Q_NEG_S
        assert z.poly.support() == [0]
        assert z.poly.coeffs[0] == Fraction(4, 3)
        assert z.parity_ok

    def test_window_closes(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        for v in (rep1.phi(), rep1.phi(n=1), rep1.phi(t=Fraction(1, 3), n=-1)):
            z = zeta_function(rep1, XI, mu, v)
            assert -10 <= z.window[0] and z.window[1] <= 10

    def test_genuineness_negates(self, ctx, rep1):
        mu = MultChar.trivial(ctx)
        v = rep1.phi()
        z = zeta_function(rep1, XI, mu, v)
        zminus = zeta_function(rep1, XI, mu, rep1.act(MetaElement.central(ctx, -1), v))
        assert zminus.poly == z.poly * Fraction(-1)

    def test_parity_vanishing(self, ctx, rep1):
        mu1 = MultChar(ctx, 1, Fraction(0), 1)  # mu(-1) = -1 breaks parity here
        assert not zeta_parity_holds(rep1, mu1)
        for v in (rep1.phi(), rep1.phi(n=1), rep1.phi(t=Fraction(2, 3))):
            assert zeta_function(rep1, XI, mu1, v).poly.is_zero()

    def test_smooth_translation_invariance(self, ctx, rep1):
        # pi(n(a)) v with psi^xi(a x^2) = 1 on the support leaves Z unchanged
        mu = MultChar.trivial(ctx)
        v = rep1.phi()
        z1 = zeta_function(rep1, XI, mu, v)
        z2 = zeta_function(rep1, XI, mu, rep1.act(MetaElement.n(ctx, 9), v))
        assert z1.poly == z2.poly

    def test_rejects_foreign_xi(self, rep1):
        with pytest.raises(ValueError):
            zeta_function(rep1, Fraction(2, 3), MultChar.trivial(rep1.ctx), rep1.phi())


class TestFarShells:
    """Support beyond the default window [-(l+6), l+6] is integrated, not
    lost behind five interior zero shells, and the window grows with it:
    it reports the support and bounds nothing."""

    def test_support_at_shell_eight(self, rep1):
        z = zeta_function(rep1, XI, MultChar.trivial(rep1.ctx), rep1.phi(n=8))
        assert z.poly.support() == [8]
        assert z.window == (-7, 13)

    def test_fe_at_shell_eight(self, rep1):
        fe = check_fe(rep1, MultChar.trivial(rep1.ctx), rep1.phi(n=8), XI)
        assert fe.passed and not fe.lhs.is_zero()

    @pytest.mark.parametrize("n, window", [(12, (-7, 17)), (-12, (-17, 7)),
                                           (20, (-7, 25))])
    def test_window_follows_support(self, rep1, n, window):
        z = zeta_function(rep1, XI, MultChar.trivial(rep1.ctx), rep1.phi(n=n))
        assert z.poly.support() == [n]
        assert z.window == window

    def test_fe_at_shell_twelve(self, rep1):
        fe = check_fe(rep1, MultChar.trivial(rep1.ctx), rep1.phi(n=12), XI)
        assert fe.passed and not fe.lhs.is_zero() and not fe.rhs.is_zero()


class TestZetaShellLevels:
    """Z is linear in v, and each distinct term key k = (r, j, n, b) of v
    takes one gate pass on its shell n, at max(l + j, m, 1), the first time
    the representation meets (xi, mu, k): the torus action reads the unit
    only mod p^(l + j), its Hilbert signs mod p, and chi_psi mu mod
    p^max(1, m).  The accepted integral is remembered, so the same
    (xi, mu, k) again makes no pass, and a new xi or a new character
    integrates again."""

    @pytest.mark.parametrize("conductor", [0, 1, 2])
    @pytest.mark.parametrize("data", ["rep1", "weil5"])
    def test_one_gate_pass_per_shell(self, request, monkeypatch, data, conductor):
        rep = Representation(request.getfixturevalue(data).sigma)  # nothing remembered yet
        ctx = rep.ctx
        p, b = ctx.p, rep.dim - 1
        gen = 1 if conductor else 0
        mu, other = (MultChar(ctx, conductor, Fraction(a, 4), gen) for a in (0, 1))
        passes = []
        shell_sum = zeta._shell_sum

        def spy(c, f, n, level, measure):
            passes.append((n, level))
            return shell_sum(c, f, n, level, measure)

        monkeypatch.setattr(zeta, "_shell_sum", spy)
        # t of denominator 1, p, p^2, p^3; the last vector repeats the term
        # phi(n=0) of the first with another coefficient
        vectors = [
            rep.phi(n=0),
            rep.phi(t=Fraction(1, p), n=-1)
            + rep.phi(t=Fraction(2, p**2), n=1, b=b) + rep.phi(n=1),
            rep.phi(t=Fraction(1, p**3), n=0) + rep.phi(t=Fraction(1, p), n=0, b=b)
            + rep.phi(n=2, coeff=Fraction(-1, 2)) + rep.phi(coeff=2),
        ]

        def check_cold(xi, chi):
            seen = set()
            for v in vectors:
                passes.clear()
                zeta_function(rep, xi, chi, v)
                new = [key for key in v.terms if key not in seen]
                seen.update(new)
                assert passes == [(n, max(rep.level + j, conductor, 1))
                                  for _, j, n, _ in new], (xi, v)
            assert len(seen) == 7

        for xi in rep.betas:
            check_cold(xi, mu)
            passes.clear()
            for v in vectors:
                zeta_function(rep, xi, mu, v)
            assert passes == [], xi
        check_cold(rep.betas[0] + 1, mu)  # same beta, another xi
        check_cold(rep.betas[0], other)


class TestDeepShellLevels:
    """The deep-shell integrals each take one gate pass, at the level their
    docstrings prove they read: the Bessel kernel (``_bessel_kernel``) at
    level 1 on Z_p, where it is constant, and at |k| on a shell k < 0, as it
    reads y only mod Z_p; the closed Bessel sum (``bessel_closed``) at |n|
    on its shell n <= -l, both on every deep shell as the spot check's two
    sides; and the deep gamma integrand (``gamma_coefficient``) on the unit
    shell and T (``_support_t``) on the shell -m, both at level m and only
    at the support shell n = m - l, which exists for m >= 2l.  Every gate a
    gamma coefficient opens, the shallow gamma shells included, accepts in
    one pass."""

    @pytest.mark.parametrize("conductor", [0, 1, 2])
    @pytest.mark.parametrize("data", ["rep1", "weil5", "norm5", "elliptic9"])
    def test_one_gate_pass_at_the_read_level(self, request, monkeypatch, data, conductor):
        rep = Representation(request.getfixturevalue(data).sigma)  # nothing integrated yet
        ctx, l = rep.ctx, rep.level
        chars = characters(ctx, conductor, (0,))
        mu = next((chi for chi in chars if zeta_parity_holds(rep, chi)), chars[0])
        bound = gamma_support_bound(rep, mu)
        gates, passes = [], []
        gated, shell_sum = zeta._gated, zeta._shell_sum

        def gate_spy(compute, p, level, what, shift=0):
            record = [what, level, 0]
            gates.append(record)

            def counted(lv):
                record[2] += 1
                return compute(lv)

            return gated(counted, p, level, what, shift)

        def shell_spy(c, f, n, level, measure):
            passes.append((f.__qualname__.split(".")[0], gamma_shell, n, level))
            return shell_sum(c, f, n, level, measure)

        monkeypatch.setattr(zeta, "_gated", gate_spy)
        monkeypatch.setattr(zeta, "_shell_sum", shell_spy)
        classes = [r.xi for r in rep.spectrum().dedup]
        for gamma_shell in range(bound + 1):
            for xi in classes:
                for eta in classes:
                    gamma_coefficient(rep, xi, eta, mu, gamma_shell)

        assert gates and all(tries == 1 for _, _, tries in gates), gates
        assert {level for what, level, _ in gates if what == "ball P^0"} == {1}
        kernels = {(n, level) for kind, _, n, level in passes if kind == "_bessel_kernel"}
        assert kernels == {(k, -k) for k in range(-1, -bound - 1, -1)}
        closed = {(n, level) for kind, _, n, level in passes if kind == "bessel_closed"}
        assert closed == {(k, -k) for k in range(-l, -bound - 1, -1)}
        deep = {(at, n, level) for kind, at, n, level in passes
                if kind == "gamma_coefficient" and at >= l}
        ts = {(at, n, level) for kind, at, n, level in passes if kind == "_support_t"}
        if conductor >= 2 * l:
            assert deep == {(conductor - l, 0, conductor)}
            assert ts == {(conductor - l, -conductor, conductor)}
        else:
            assert deep == ts == set()


class TestZetaTermMemo:
    """The term integrals a representation remembers are grouped in one dict
    per (xi, character) and keyed there by the term: on one shared
    representation every zeta function equals the one a fresh
    representation computes."""

    def test_shared_representation_matches_fresh(self, weil5):
        ctx = weil5.ctx
        xis = weil5.betas  # 1/5 and 4/5: one square class
        # two odd characters of conductor 1: the parity holds for both
        mus = (MultChar(ctx, 1, Fraction(0), 1), MultChar(ctx, 1, Fraction(0), 3))
        vectors = [weil5.phi(n=1) + weil5.phi(t=Fraction(1, 5), n=0, b=1),
                   weil5.phi(n=-1, b=1, coeff=3) + weil5.phi(t=Fraction(2, 25), n=1)
                   + weil5.phi(n=0)]
        shared = Representation(weil5.sigma)
        seen = []
        for mu in mus:
            for xi in xis:
                polys = []
                for v in vectors:
                    z = zeta_function(Representation(weil5.sigma), xi, mu, v)
                    assert zeta_function(shared, xi, mu, v) == z, (mu.spec_record(), xi, v)
                    polys.append(z.poly)
                seen.append(polys)
        # so the comparison sees a memo that drops xi or the character
        assert all(a != b for a, b in itertools.combinations(seen, 2))

    def test_failed_gate_is_not_remembered(self, monkeypatch, rep1):
        rep = Representation(rep1.sigma)
        mu = MultChar.trivial(rep.ctx)
        v = rep.phi(n=0) + rep.phi(n=1)
        shell_sum = zeta._shell_sum
        passes = []

        def disagree_on_shell_one(c, f, n, level, measure):
            passes.append(n)
            v1, v2 = shell_sum(c, f, n, level, measure)
            return v1, (v2 + 1 if n == 1 else v2)

        monkeypatch.setattr(zeta, "_shell_sum", disagree_on_shell_one)
        with pytest.raises(NotLocallyConstantError):
            zeta_function(rep, XI, mu, v)
        assert [term for terms in rep._zeta_terms.values() for term in terms] == [(0, 0, 0, 0)]
        passes.clear()
        with pytest.raises(NotLocallyConstantError):
            zeta_function(rep, XI, mu, v)
        assert passes == [1, 1, 1]  # the first term is remembered, the second gated again
        monkeypatch.setattr(zeta, "_shell_sum", shell_sum)
        assert zeta_function(rep, XI, mu, v) == zeta_function(rep1, XI, mu, v)


class TestParityMemo:
    """A representation remembers zeta_parity_holds per character."""

    def test_shared_representation_matches_fresh(self, ctx, norm3):
        # failing and holding in turn: trivial, conductor 1, unramified
        # mu(3) = -1, conductor 2
        mus = (MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1),
               MultChar(ctx, 0, Fraction(1, 2)), MultChar(ctx, 2, Fraction(0), 1))
        shared = Representation(norm3.sigma)
        for _ in range(2):
            for mu, holds in zip(mus, (False, True, False, True)):
                fresh = zeta_parity_holds(Representation(norm3.sigma), mu)
                assert zeta_parity_holds(shared, mu) is fresh is holds, mu.spec_record()
        assert len(shared._parities) == len(mus)

    def test_raise_is_not_remembered(self, monkeypatch, ctx, norm3):
        rep = Representation(norm3.sigma)
        mu = MultChar(ctx, 1, Fraction(0), 1)

        def not_scalar():
            raise ArithmeticError("pi(-1) is not scalar")

        monkeypatch.setattr(rep, "central_sign_minus_one", not_scalar)
        with pytest.raises(ArithmeticError, match="scalar"):
            zeta_parity_holds(rep, mu)
        assert rep._parities == {}
        monkeypatch.undo()
        assert zeta_parity_holds(rep, mu)


class TestCharacterKeys:
    """The memos a representation keys by character hold the ints of
    ``MultChar.cache_key()`` on their character side, never a Fraction."""

    def test_no_fraction_on_the_character_side(self, ctx, rep1):
        rep = Representation(rep1.sigma)
        # failing and holding parities, a float exponent among them
        mus = (MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1), MultChar(ctx, 0, 0.25),
               MultChar(ctx, 0, Fraction(1, 2)))
        v = rep.phi(n=1) + rep.phi(t=Fraction(1, 3))
        for mu in mus:
            assert check_fe(rep, mu, v, XI).passed
        sides = ([key for key in rep._parities]
                 + [key[2] for key in rep._gamma_cache]
                 + [key[1] for key in rep._zeta_terms])
        assert rep._parities and rep._gamma_cache and rep._zeta_terms
        assert all(len(side) == 4 and all(type(x) is int for x in side) for side in sides), sides


class TestDeepDenominator:
    """A term at t = 1/3^8 on builtin 1 (l = 1): its shell is sampled at
    level l + 8.  The rule max(l, m) + 1 sampled it at 2 and raised
    NotLocallyConstantError after three doublings."""

    def test_fe_passes(self, ctx, rep1):
        mu = MultChar.trivial(ctx)
        v = rep1.phi(t=Fraction(1, 3**8), n=0) + rep1.phi(n=1)
        fe = check_fe(rep1, mu, v, XI)
        assert fe.passed and not fe.lhs.is_zero()
        # the shell n = 0 against the test's own integral one level deeper
        part = InducedVector(ctx.q, {key: c for key, c in v.terms.items() if key[2] == 0})

        def f(x):
            return rep1.whittaker_functional(XI, part, (x.k, x.u, 1)) * chi_psi(ctx.elem(x))

        assert not f(ShellPoint(1, 0, 3)).is_zero()
        own = integrate_shell(ctx, f, ShellIntegralPlan(0, rep1.level + 8 + 1,
                                                         MULTIPLICATIVE_DX)) * 2
        z = zeta_function(rep1, XI, mu, v)
        assert z.poly.coeffs.get(0, CycValue.zero(ctx.q)) == own


def _zeta_by_full_scan(rep, xi, mu, v, scan_limit=16, closure_zeros=5):
    """The window-growth scan: integrate every shell of [-(l+6), l+6], then
    grow each end until `closure_zeros` consecutive zero shells close it,
    never past +-scan_limit.  Right whenever the support lies inside the
    scanned window.  Every shell starts at level max(l, m) + 1 and the gate
    refines from there, so the oracle does not share the per-shell levels
    of ``zeta_function``."""
    ctx = rep.ctx
    level = max(rep.level, mu.m) + 1

    def shell_coefficient(n):
        def f(x):
            wv = rep.whittaker_function(xi, v, MetaElement.torus(ctx, x))
            if wv.is_zero():
                return wv
            return wv * chi_psi(ctx.elem(x)) * mu.value(x)

        shell = integrate_shell(ctx, f, ShellIntegralPlan(n, level, MULTIPLICATIVE_DX))
        return shell * q_half_power(ctx.q, n) * 2

    halfwidth = rep.level + 6
    computed = {n: shell_coefficient(n) for n in range(-halfwidth, halfwidth + 1)}

    def compute(n):
        if n not in computed:
            computed[n] = shell_coefficient(n)
        return computed[n]

    def closed(end, direction):
        return all(compute(end + direction * k).is_zero() for k in range(closure_zeros))

    hi = halfwidth
    while not closed(hi - closure_zeros + 1, +1):
        hi += 1
        assert hi <= scan_limit
    lo = -halfwidth
    while not closed(lo + closure_zeros - 1, -1):
        lo -= 1
        assert lo >= -scan_limit
    coeffs = {n: c for n, c in computed.items() if not c.is_zero()}
    return LaurentPoly(ctx.q, Q_NEG_S, coeffs), (lo, hi)


class TestZetaFullScanOracle:
    """Integrating only the vector's shells gives the full scan's polynomial
    and window wherever the support lies inside the scanned window."""

    @pytest.mark.parametrize("which", [1, 2])
    def test_matches_full_scan(self, which, rep1, rep2):
        rep = rep1 if which == 1 else rep2
        ctx = rep.ctx
        mus = (MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1),
               MultChar(ctx, 0, Fraction(1, 4)))
        vectors = [rep.phi(n=n) for n in range(-3, 4)] + [
            rep.phi(t=Fraction(1, 9), n=-2) + rep.phi(n=3, coeff=Fraction(-1, 2)),
            rep.phi(t=Fraction(1, 3), n=-1, coeff=Fraction(2))
            + rep.phi(n=1, coeff=Fraction(-1, 2)) + rep.phi(t=Fraction(2, 3)),
            rep.phi(n=-3) + rep.phi(t=Fraction(2, 3), n=0) + rep.phi(n=2),
        ]
        nonzero = 0
        for mu in mus:
            for xi_rep in rep.spectrum().dedup:
                for v in vectors:
                    z = zeta_function(rep, xi_rep.xi, mu, v)
                    poly, window = _zeta_by_full_scan(rep, xi_rep.xi, mu, v)
                    assert (z.poly, z.window) == (poly, window), (mu.spec_record(), v)
                    nonzero += not poly.is_zero()
        assert nonzero >= 2 * len(vectors)


    @pytest.mark.parametrize("which", [1, 2])
    def test_deep_denominators_match_full_scan(self, which, rep1, rep2):
        """3-term vectors with t of denominator 27, deeper than the sigma
        modulus, on shells in -2..2, with two terms on one shell.  A term at
        t = c/27 has W^xi(<x>) varying with u mod 81, and its shell integral
        vanishes against every mu of conductor <= 3; the partner terms
        phi(t=0, n=1) and phi(t=which/3, n=0) make the polynomials nonzero
        for mu trivial and for the conductor-2 mu respectively."""
        rep = rep1 if which == 1 else rep2
        ctx = rep.ctx
        xi = rep.spectrum().dedup[0].xi
        mus = (MultChar.trivial(ctx), MultChar(ctx, 2, Fraction(1, 4), 2))
        vectors = [
            rep.phi(t=Fraction(1, 27), n=-2) + rep.phi(t=Fraction(which, 3), n=0)
            + rep.phi(t=Fraction(13, 27), n=0, coeff=Fraction(-2, 3)),
            rep.phi(t=Fraction(2, 27), n=-1) + rep.phi(t=Fraction(7, 27), n=1, coeff=3)
            + rep.phi(n=1),
            rep.phi(t=Fraction(4, 27), n=2, coeff=Fraction(1, 2))
            + rep.phi(t=Fraction(10, 27), n=2) + rep.phi(t=Fraction(25, 27), n=-2),
        ]
        supports = []
        for mu in mus:
            for v in vectors:
                z = zeta_function(rep, xi, mu, v)
                poly, window = _zeta_by_full_scan(rep, xi, mu, v)
                assert (z.poly, z.window) == (poly, window), (mu.spec_record(), v)
                supports.append(poly.support())
        assert supports == [[], [1], [], [0], [], []]
        # the last vector's zeros come from the integration, not from W
        assert any(not rep.whittaker_function(xi, vectors[2], MetaElement.torus(ctx, x)).is_zero()
                   for x in (Fraction(u, 9) for u in range(1, 81) if u % 3))

    @pytest.mark.parametrize("data, conductor, gen", [
        ("weil5", 0, 0), ("weil5", 1, 1), ("weil5", 1, 3), ("weil5", 2, 1), ("weil7", 0, 0)])
    def test_weil_data_matches_full_scan(self, request, data, conductor, gen):
        # every basis index of sigma of dimension 2 and 3; on weil5 the
        # trivial mu fails parity and every polynomial is 0, elsewhere none
        # is, except that at conductor 2 only the vectors at t = beta_b with
        # basis index b (added there) give nonzero polynomials
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        mu = MultChar(ctx, conductor, Fraction(0), gen)
        vectors = [rep.phi(n=n, b=b) for n in (-1, 0, 1) for b in range(rep.dim)] + [
            rep.phi(t=Fraction(1, ctx.p), n=-1, b=1) + rep.phi(n=2, coeff=Fraction(-1, 2)),
        ]
        deep = [rep.phi(t=rep.betas[b], n=n, b=b)
                for b in range(rep.dim) for n in (-1, 0, 1)] if conductor == 2 else []
        nonzero = []
        for xi in rep.betas:
            for v in vectors + deep:
                z = zeta_function(rep, xi, mu, v)
                poly, window = _zeta_by_full_scan(rep, xi, mu, v)
                assert (z.poly, z.window) == (poly, window), (xi, v)
                nonzero.append(not poly.is_zero())
        parity = zeta_parity_holds(rep, mu)
        assert parity == (data == "weil7" or conductor >= 1)
        assert nonzero == [parity and (conductor < 2 or i >= len(vectors))
                           for i in range(len(vectors) + len(deep))] * len(rep.betas)

    def test_elliptic9_matches_full_scan(self, ctx, elliptic9):
        # level 2: every shell of the oracle samples at level max(2, m) + 1;
        # a vector at t = 1/9 on one class and basis vectors on both
        mus = (MultChar.trivial(ctx), MultChar(ctx, 2, Fraction(0), 1))
        vectors = [elliptic9.phi(n=1), elliptic9.phi(n=-1, b=1),
                   elliptic9.phi(t=Fraction(1, 9)) + elliptic9.phi(n=2, b=3)]
        nonzero = 0
        for mu in mus:
            for xi_rep in elliptic9.spectrum().dedup:
                for v in vectors:
                    z = zeta_function(elliptic9, xi_rep.xi, mu, v)
                    poly, window = _zeta_by_full_scan(elliptic9, xi_rep.xi, mu, v)
                    assert (z.poly, z.window) == (poly, window), (mu.spec_record(), xi_rep.xi, v)
                    nonzero += not poly.is_zero()
        assert nonzero

    def test_norm3_matches_full_scan(self, ctx, norm3):
        # two square classes; of the 56 cases only the conductor-1 mu gives
        # nonzero polynomials: the trivial and the unramified mu fail parity,
        # and the conductor-2 mu integrates to zero on these vectors
        mus = (MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1),
               MultChar(ctx, 0, Fraction(1, 2)), MultChar(ctx, 2, Fraction(0), 1))
        vectors = [norm3.phi(n=n, b=b) for n in (-1, 0, 1) for b in range(2)] + [
            norm3.phi(t=Fraction(1, 3)) + norm3.phi(n=-1, b=1)]
        nonzero = []
        for mu in mus:
            count = 0
            for xi_rep in norm3.spectrum().dedup:
                for v in vectors:
                    z = zeta_function(norm3, xi_rep.xi, mu, v)
                    poly, window = _zeta_by_full_scan(norm3, xi_rep.xi, mu, v)
                    assert (z.poly, z.window) == (poly, window), (mu.spec_record(), xi_rep.xi, v)
                    count += not poly.is_zero()
            nonzero.append(count)
        assert [zeta_parity_holds(norm3, mu) for mu in mus] == [False, True, False, True]
        assert nonzero == [0, 7, 0, 0]


class TestFunctionalEquation:
    def test_base_case_explicit(self, rep1):
        # LHS(s) = Z(s, pi(w)v) should equal Z(1-s, v) after (1/4)|eta|Gamma
        mu = MultChar.trivial(rep1.ctx)
        fe = check_fe(rep1, mu, rep1.phi(), XI)
        assert fe.passed and not fe.vacuous_parity
        assert fe.lhs.coeffs[0] == Fraction(4, 3)
        assert fe.residual.is_zero()

    def test_zero_vector(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        fe = check_fe(rep1, mu, InducedVector.zero(3), XI)
        assert fe.passed and fe.lhs.is_zero() and fe.rhs.is_zero()

    def test_negative_control(self, rep1):
        mu = MultChar.trivial(rep1.ctx)
        fe = check_fe(rep1, mu, rep1.phi(), XI, corrupt_gamma=CycValue.one(3))
        assert not fe.passed
        assert not fe.residual.is_zero()

    def test_random_combinations(self, ctx, rep1, rng):
        mu = MultChar.trivial(ctx)
        for _ in range(3):
            v = (rep1.phi(t=Fraction(rng.randrange(0, 3), 3), n=rng.choice([-1, 0, 1]),
                          coeff=Fraction(rng.randrange(1, 5)))
                 + rep1.phi(t=Fraction(rng.randrange(0, 9), 9), n=rng.choice([-1, 0, 1]))
                 + rep1.phi(n=rng.choice([-1, 0, 1]), coeff=Fraction(-1, 2)))
            fe = check_fe(rep1, mu, v, XI)
            assert fe.passed

    def test_unramified_twist(self, ctx, rep1):
        mu_i = MultChar(ctx, 0, Fraction(1, 4))
        fe = check_fe(rep1, mu_i, rep1.phi(n=1), XI)
        assert fe.passed and not fe.vacuous_parity
        assert not fe.lhs.is_zero()

    def test_conductor_three_nonzero_side(self, ctx, rep1):
        # the deep gamma shells of a conductor-3 mu carry the equation
        mu = MultChar(ctx, 3, Fraction(1, 4), 4)
        fe = check_fe(rep1, mu, rep1.phi(n=1) + rep1.phi(t=Fraction(1, 9), n=2), XI)
        assert fe.passed and not fe.vacuous_parity
        assert fe.lhs.support() == [4]

    def test_nonzero_side_against_parity_raises(self, rep1, monkeypatch):
        # a parity that wrongly predicts vanishing on a non-vacuous case
        monkeypatch.setattr(zeta, "zeta_parity_holds", lambda rep, mu: False)
        with pytest.raises(ArithmeticError, match="parity predicts vanishing"):
            check_fe(rep1, MultChar.trivial(rep1.ctx), rep1.phi(), XI)

    def test_parity_vacuous_flagged(self, ctx, rep1):
        mu1 = MultChar(ctx, 1, Fraction(0), 1)
        fe = check_fe(rep1, mu1, rep1.phi(), XI)
        assert fe.passed and fe.vacuous_parity
        assert fe.lhs.is_zero() and fe.rhs.is_zero()


class TestFunctionalEquationWeilData:
    """check_fe beyond p = 3, dim 1: the odd Weil data, where sigma has
    dimension 2 (p = 5) and 3 (p = 7), both sides nonzero."""

    @pytest.mark.parametrize("data, conductor, gen", [
        ("weil5", 1, 1), ("weil5", 1, 3), ("weil7", 0, 0)])
    def test_nonzero_side(self, request, data, conductor, gen):
        rep = request.getfixturevalue(data)
        mu = MultChar(rep.ctx, conductor, Fraction(0), gen)
        v = rep.phi() + rep.phi(n=1, b=1)
        for xi in rep.betas:
            fe = check_fe(rep, mu, v, xi)
            assert fe.passed and not fe.vacuous_parity, xi
            assert fe.lhs.support() == [0, 1], xi


def _conjugated_by_ones(rep):
    """The representation of U sigma U^-1, with U the upper unitriangular
    matrix of ones: the same representation in a basis where the unipotent
    eigenvectors are the columns of U, so the eigenbasis change is not
    diagonal, and neither are the dual rows read off the projections."""
    ctx, d = rep.ctx, rep.dim
    one, zero = CycValue.one(ctx.q), CycValue.zero(ctx.q)
    u = tuple(tuple(one if j >= i else zero for j in range(d)) for i in range(d))
    u_inv = tuple(tuple(one if j == i else -one if j == i + 1 else zero for j in range(d))
                  for i in range(d))
    table = {key: mat_mul(u, mat_mul(m, u_inv)) for key, m in rep.sigma.table.items()}
    return Representation(SigmaRep(ctx, rep.level, d, table))


class TestNonDiagonalEigenbasis:
    """The odd Weil data conjugated into a basis where ``SigmaRep.change`` is
    not diagonal; every result must be that of the data."""

    @pytest.mark.parametrize("data", ["weil5", "weil7"])
    def test_same_betas_gammas_and_fe(self, request, data):
        rep = request.getfixturevalue(data)
        conj = _conjugated_by_ones(rep)
        change = conj.sigma.change
        assert any(not change[i][j].is_zero()
                   for i in range(rep.dim) for j in range(rep.dim) if i != j)
        assert conj.betas == rep.betas
        ctx = rep.ctx
        v = rep.phi() + rep.phi(n=1, b=1)
        w = conj.phi() + conj.phi(n=1, b=1)
        mus = [MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1),
               MultChar(ctx, 2, Fraction(0), 1), MultChar(ctx, 2, Fraction(0), 2)]
        for mu in mus:
            # where the parity fails every gamma is zero, but each pair is
            # still a full scan of every shell: about 1.1 s per pair and
            # representation for the generator-1 character of conductor 2 at
            # p = 7, so there the pair check_fe reads stands for all nine.
            # Where it holds, every pair is certified, off the class
            # representatives too
            carve_out = (ctx.p, mu.m) == (7, 2) and not zeta_parity_holds(rep, mu)
            pairs = ([(rep.betas[0], rep.betas[0])] if carve_out
                     else [(xi, eta) for xi in rep.betas for eta in rep.betas])
            for xi, eta in pairs:
                assert gamma_factor(conj, xi, eta, mu).poly == \
                    gamma_factor(rep, xi, eta, mu).poly, (mu.m, xi, eta)
            for xi in rep.spectrum().dedup:
                fe = check_fe(conj, mu, w, xi.xi)
                assert fe.passed and fe.lhs == check_fe(rep, mu, v, xi.xi).lhs, (mu.m, xi)


class TestFourierInversion:
    def test_spot_check_at_valuation_minus_one(self, rep1):
        lhs, rhs = fourier_inversion_check(rep1, XI, rep1.phi(), Fraction(1, 3))
        assert lhs == rhs

    def test_nontrivial_vector(self, rep1):
        lhs, rhs = fourier_inversion_check(rep1, XI, rep1.phi(n=1), Fraction(1, 3))
        assert lhs == rhs
        assert not lhs.is_zero()

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("a, t, n", [
        (Fraction(2), 0, 0), (Fraction(2, 9), 0, 0), (Fraction(2, 45), 0, 0),
        (Fraction(2, 3), Fraction(2, 9), -1), (Fraction(2, 15), Fraction(2, 9), -1)])
    def test_odd_and_even_valuations(self, rep1, rep2, which, a, t, n):
        # the Hilbert sign (ay, y) and the test v(ay) <= 0 read the ints of
        # y on two shells; 2/45 and 2/15 have units with a denominator
        # prime to p
        rep = rep1 if which == 1 else rep2
        xi = rep.spectrum().dedup[0].xi
        v = rep.phi(t=t, n=n) + rep.phi(t=Fraction(1, 3), n=1)
        lhs, rhs = fourier_inversion_check(rep, xi, v, a)
        assert lhs == rhs, a
        assert not lhs.is_zero()


class TestNormFormData:
    """The norm-form data norm3 (``repn.norm_sigma`` at p = 3, k = 1):
    dimension 2, betas 1/3 and 2/3 in the two square classes, so the sums
    over eta in ``check_fe`` have two terms and the gamma matrix is 2 x 2."""

    def test_two_square_classes(self, norm3):
        assert norm3.betas == (Fraction(1, 3), Fraction(2, 3))
        assert [r.xi for r in norm3.spectrum().dedup] == list(norm3.betas)
        assert norm3.central_sign_minus_one() == -1

    def test_functional_equation_on_both_classes(self, ctx, norm3):
        mus = [MultChar.trivial(ctx), MultChar(ctx, 1, Fraction(0), 1),
               MultChar(ctx, 0, Fraction(1, 2))]
        vectors = [norm3.phi(), norm3.phi(n=1, b=1),
                   norm3.phi(t=Fraction(1, 3)) + norm3.phi(n=-1)]
        nonzero = 0
        for mu in mus:
            for v in vectors:
                for xi in norm3.spectrum().dedup:
                    fe = check_fe(norm3, mu, v, xi.xi)
                    assert fe.passed, (mu.spec_record(), v, xi.xi)
                    nonzero += not fe.vacuous_parity and not fe.lhs.is_zero()
        assert nonzero == 6

    def test_gamma_coefficients_match_bessel_table_oracle(self, ctx, norm3):
        # every (xi, eta) pair, cross-class ones included, at conductors 0..2
        cross = 0
        for mu in (mu for m in range(3) for mu in characters(ctx, m, (0,))):
            for xi in norm3.betas:
                for eta in norm3.betas:
                    for n in range(gamma_support_bound(norm3, mu) + 1):
                        value = gamma_coefficient(norm3, xi, eta, mu, n)
                        assert value == _gamma_via_bessel_table(norm3, xi, eta, mu, n), \
                            (mu.spec_record(), xi, eta, n)
                        cross += xi != eta and not value.is_zero()
        assert cross  # the cross-class comparisons are not all of zeros

    def test_theta_squared_one_rejected(self, ctx):
        # theta^2 = 1 gives distinct betas but a reducible table
        with pytest.raises(ValueError, match="reducible"):
            norm_sigma(ctx, 2)


class TestEllipticData:
    """The regular elliptic data elliptic9 (``repn.elliptic_sigma`` at k = 1,
    and k = 4): level 2, dimension 6, so the support bound 2 max(l, m) - l,
    the deep threshold n >= l, the closed Bessel shells v(x) <= -l and the
    kernel levels all see l = 2, and gamma(1) is a shallow shell."""

    def test_spectrum(self, elliptic9, elliptic9k4):
        betas = tuple(Fraction(j, 9) for j in range(9) if j % 3)
        for rep, omega in ((elliptic9, -1), (elliptic9k4, 1)):
            assert (rep.level, rep.dim, rep.betas) == (2, 6, betas)
            assert [r.xi for r in rep.spectrum().dedup] == [Fraction(1, 9), Fraction(2, 9)]
            assert rep.central_sign_minus_one() == omega

    def test_support_bound_reads_the_level(self, ctx, elliptic9):
        # M = 2 max(l, m) - l with l = 2: 4 at m = 3, and 2 at m <= 2
        bounds = [gamma_support_bound(elliptic9, MultChar(ctx, m, Fraction(0), 1))
                  for m in (1, 2, 3)]
        assert bounds == [2, 2, 4]

    def test_closed_bessel_needs_shells_at_or_below_minus_level(self, elliptic9):
        # v(x) = -1 is a shallow shell at level 2: the closed sum does not
        # hold there and is refused, while v(x) = -2 is computed
        xi = Fraction(1, 9)
        with pytest.raises(ValueError, match=r"needs v\(x\) <= -2, got -1$"):
            bessel_closed(elliptic9, xi, xi, Fraction(1, 3))
        assert bessel_closed(elliptic9, xi, xi, Fraction(1, 9)) == \
            bessel_direct(elliptic9, xi, xi, Fraction(1, 9))

    def test_leading_class_matrix_is_anti_diagonal_at_m_equal_l(self, ctx, elliptic9):
        # the one datum whose leading class matrix is not diagonal: at m = 2
        # only the cross-class entries are nonzero, both at n1 = 0
        mu = MultChar(ctx, 2, Fraction(0), 1)
        assert zeta_parity_holds(elliptic9, mu)
        classes = [r.xi for r in elliptic9.spectrum().dedup]
        support = [[gamma_factor(elliptic9, xi, eta, mu).poly.support() for eta in classes]
                   for xi in classes]
        assert support == [[[], [0]], [[0], []]]

    def test_functional_equation_on_both_classes(self, ctx, elliptic9):
        # one character per conductor 1..3 with the parity holding; the
        # vectors sit at basis indices of both square classes.  At m = 3 the
        # leading gamma shell is the shallow n1 = 1, and only the last
        # vector gives a nonzero side there
        mus = [MultChar(ctx, 1, Fraction(0), 1), MultChar(ctx, 2, Fraction(0), 1),
               MultChar(ctx, 3, Fraction(0), 1)]
        vectors = [elliptic9.phi() + elliptic9.phi(n=1, b=1),
                   elliptic9.phi(t=Fraction(1, 9), n=-1, b=2) + elliptic9.phi(b=3),
                   elliptic9.phi(t=Fraction(1, 3), n=1) + elliptic9.phi(t=Fraction(1, 3), b=1)]
        nonzero = 0
        for mu in mus:
            assert zeta_parity_holds(elliptic9, mu)
            for v in vectors:
                for xi in elliptic9.spectrum().dedup:
                    fe = check_fe(elliptic9, mu, v, xi.xi)
                    assert fe.passed, (mu.spec_record(), v, xi.xi)
                    nonzero += not fe.lhs.is_zero()
        assert nonzero == 7

    def test_gamma_coefficients_match_bessel_table_oracle(self, ctx, elliptic9):
        # every class pair and shell at conductors 1 and 2: the shallow
        # shells n < 2 against the defining integral, the deep n = 2 too
        nonzero = 0
        for mu in (MultChar(ctx, 1, Fraction(0), 1), MultChar(ctx, 2, Fraction(0), 1)):
            for xi in (r.xi for r in elliptic9.spectrum().dedup):
                for eta in (r.xi for r in elliptic9.spectrum().dedup):
                    for n in range(gamma_support_bound(elliptic9, mu) + 1):
                        value = gamma_coefficient(elliptic9, xi, eta, mu, n)
                        assert value == _gamma_via_bessel_table(elliptic9, xi, eta, mu, n), \
                            (mu.spec_record(), xi, eta, n)
                        nonzero += not value.is_zero()
        assert nonzero


class TestClassIndependence:
    """Both halves of the independence of the functionals Z(s, mu, l^zeta, .)
    over the square classes zeta (``zeta.gamma_involution_defects``), on
    every datum with two classes and every character of conductor <= 2
    (<= 1 at p = 5) where the parity holds:

    (i) Z(s, mu, l^zeta, phi(t, n, b)) = 0 unless zeta lies in the square
        class of beta_b;
    (ii) each class zeta has some phi(t, n, b) with a nonzero zeta integral.

    The vectors have t in {0} and the units over p and p^2, n in -1..1 and
    every b; at p = 5 the units over p^2 are left out (each of those zeta
    integrals samples 500 points).  At m = 2 every phi(0, n, b) on the norm
    data has a zero integral, so (ii) needs t != 0 there."""

    @pytest.mark.parametrize("data", ["norm3", "norm5", "elliptic9"])
    def test_own_class_only_and_a_witness_per_class(self, request, data):
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        p = ctx.p
        ts = [Fraction(0)] + [Fraction(u, p**j) for j in ((1, 2) if p == 3 else (1,))
                              for u in _unit_residues_mod(p**j)]
        reps, classes = rep.spectrum().reps, rep.spectrum().dedup
        mus = [mu for m in range(2 if p == 5 else 3) for mu in characters(ctx, m, (0,))
               if zeta_parity_holds(rep, mu)]
        assert mus
        for mu in mus:
            witnessed = set()
            for t in ts:
                for n in (-1, 0, 1):
                    for b in range(rep.dim):
                        v = rep.phi(t=t, n=n, b=b)
                        for zeta_ in classes:
                            z = zeta_function(rep, zeta_.xi, mu, v).poly
                            if zeta_.square_class != reps[b].square_class:
                                assert z.is_zero(), (mu.spec_record(), t, n, b, zeta_.xi)
                            elif not z.is_zero():
                                witnessed.add(zeta_.xi)
            assert witnessed == {r.xi for r in classes}, mu.spec_record()


class TestGammaFromFunctionalEquation:
    """The paper's definition of the gamma factor, by the functional
    equation, against the Bessel route of ``gamma_factor``: on every named
    datum, every character of conductor 0..3 at p = 3 and 0..2 otherwise
    with mu(p) = e(0) or e(1/4) where the parity holds, and every pair of
    class representatives, Gamma^{xi,eta}_mu solved from the equation on a
    witness of eta (``helpers.gamma_from_fe``) is ``gamma_factor``'s.  The
    same run checks both halves of the independence of
    ``zeta.gamma_involution_defects``: each class has a witness (ii), and no
    other class's zeta integral sees it ((i), on which the solution rests).
    Each datum is a fresh representation, so no gamma or zeta term is shared
    with another test."""

    ENTRIES = {"builtin1": 18, "builtin2": 18, "weil5": 20, "weil7": 42, "norm3": 72,
               "norm5": 80, "elliptic9": 72}

    @pytest.mark.parametrize("name", list(ENTRIES))
    def test_class_matrix_equals_gamma_factor(self, name):
        rep = Representation(named_sigma_once(name))
        classes = [r.xi for r in rep.spectrum().dedup]
        entries = 0
        for m in range(4 if rep.ctx.p == 3 else 3):
            for mu in characters(rep.ctx, m, (0, Fraction(1, 4))):
                if not zeta_parity_holds(rep, mu):
                    continue
                for eta in classes:
                    phi = fe_witness(rep, eta, mu)
                    assert phi is not None, (mu.spec_record(), eta)
                    for zeta_ in classes:
                        if zeta_ != eta:
                            assert zeta_function(rep, zeta_, mu.inverse(), phi).poly.is_zero(), \
                                (mu.spec_record(), eta, zeta_)
                    for xi in classes:
                        assert gamma_from_fe(rep, xi, eta, mu) == \
                            gamma_factor(rep, xi, eta, mu).poly, (mu.spec_record(), xi, eta)
                        entries += 1
        assert entries == self.ENTRIES[name]


class TestRepresentativeChange:
    """The substitutions behind "Any representatives" in
    ``zeta.gamma_involution_defects``, for a unit a (so |a| = 1 and
    (a, -1) = 1) and the c-factor of l^eta o pi(<a>) = c_eta(a) l^{a^2 eta}:

        Gamma^{xi,a^2 eta}_mu = c_eta(a) chi_psi(a^-1) mu(a)^-1 Gamma^{xi,eta}_mu,
        Z(s, mu, l^{a^2 eta}, v) = c_eta(a)^-1 chi_psi(a^-1) mu(a)^-1 Z(s, mu, l^eta, v),

    coefficient by coefficient, for every beta eta, every unit a in 2..p-1
    and every character of conductor <= 1."""

    @pytest.mark.parametrize("data", ["weil5", "norm5", "elliptic9"])
    def test_gamma_and_zeta_scale_by_one_constant(self, request, data):
        rep = request.getfixturevalue(data)
        ctx = rep.ctx
        classes = [r.xi for r in rep.spectrum().dedup]
        v = rep.phi() + rep.phi(n=1, b=1)
        nonzero = 0
        for mu in (mu for m in range(2) for mu in characters(ctx, m, (0,))):
            for eta in rep.betas:
                for a in range(2, ctx.p):
                    common = chi_psi(ctx.elem(Fraction(1, a))) * mu.value(a).inverse()
                    c = c_factor(rep, eta, a)
                    for xi in classes:
                        for n in range(gamma_support_bound(rep, mu) + 1):
                            value = gamma_coefficient(rep, xi, a * a * eta, mu, n)
                            assert value == c * common * gamma_coefficient(rep, xi, eta, mu, n), \
                                (mu.spec_record(), xi, eta, a, n)
                            nonzero += not value.is_zero()
                    z = zeta_function(rep, a * a * eta, mu, v).poly
                    assert z == c.inverse() * common * zeta_function(rep, eta, mu, v).poly, \
                        (mu.spec_record(), eta, a)
                    nonzero += not z.is_zero()
        assert nonzero


_FULL_SCANS: dict = {}


def full_scan(rep, xi, eta, mu) -> dict:
    """gamma(n) for every n in 0..M from ``gamma_coefficient``: the oracle
    of ``gamma_factor``'s early exit, memoized per representation."""
    key = (rep, xi, eta, mu.cache_key())
    if key not in _FULL_SCANS:
        _FULL_SCANS[key] = {n: gamma_coefficient(rep, xi, eta, mu, n)
                            for n in range(gamma_support_bound(rep, mu) + 1)}
    return _FULL_SCANS[key]


# data, mu(p) = e(x) for x in the tuple, conductors 0..max, count
INVOLUTION_CASES = [
    ("rep1", (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), 2, 24),
    ("rep2", (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), 2, 24),
    ("norm3", (0,), 2, 6),
    ("weil5", (0, Fraction(1, 4)), 1, 8),
    ("weil7", (0,), 1, 6),
    ("norm5", (0,), 1, 4),
    ("elliptic9", (0,), 3, 18),
    ("elliptic9k4", (0,), 2, 6),
]
INVOLUTION_IDS = [case[0] for case in INVOLUTION_CASES]


def _involution_chars(rep, p_exponents, max_conductor, count):
    mus = [mu for m in range(max_conductor + 1)
           for mu in characters(rep.ctx, m, p_exponents)]
    assert len(mus) == count
    return mus


class TestGammaInvolution:
    """The identity of ``zeta.gamma_involution_defects``, derived there from
    the functional equation and pi(w)^2 = omega_pi(-1): over the square
    classes of X(pi), Gamma_mu(s) Gamma_{mu^-1}(1 - s) with the weights
    |eta| |zeta| / 16 is omega_pi(-1) I, and 0 when the parity fails.  Every
    Gamma here is a full scan of ``gamma_coefficient``, so this tests the
    theorem that ``gamma_factor``'s early exit relies on."""

    def test_w_squared_is_minus_one(self, ctx):
        w = MetaElement.w(ctx)
        assert w * w == MetaElement(SL2Element.of(ctx, -1, 0, 0, -1), 1)

    @pytest.mark.parametrize("data, p_exponents, max_conductor, count", INVOLUTION_CASES,
                             ids=INVOLUTION_IDS)
    def test_identity(self, request, data, p_exponents, max_conductor, count):
        rep = request.getfixturevalue(data)
        q = rep.ctx.q
        classes = [r.xi for r in rep.spectrum().dedup]

        def gamma(xi, eta, mu):
            return LaurentPoly(q, Q_POS_S, full_scan(rep, xi, eta, mu))

        parities, cross = set(), 0
        for mu in _involution_chars(rep, p_exponents, max_conductor, count):
            parities.add(zeta_parity_holds(rep, mu))
            assert zeta.gamma_involution_defects(rep, mu, gamma, classes, classes) == {}, \
                mu.spec_record()
            cross += sum(not gamma(xi, eta, mu).is_zero()
                         and not gamma(eta, zeta_, mu.inverse()).is_zero()
                         for xi in classes for eta in classes for zeta_ in classes
                         if xi != zeta_)
        assert parities == {True, False}
        # on the norm data off-diagonal products are nonzero and cancel in
        # the sum
        assert (cross > 0) == data.startswith("norm")

    @pytest.mark.parametrize("data, max_conductor, count, choices, holding", [
        ("weil5", 1, 4, 2, 2), ("weil7", 1, 6, 3, 3), ("norm5", 1, 4, 4, 2),
        ("elliptic9", 2, 6, 9, 3)], ids=["weil5", "weil7", "norm5", "elliptic9"])
    def test_identity_on_every_choice_of_representatives(self, request, data, max_conductor,
                                                         count, choices, holding):
        # `rows` and `mids` each run over every set with one beta per square
        # class, so the entries of Gamma_mu off the class representatives
        # are in the identity too
        rep = request.getfixturevalue(data)
        spectrum = rep.spectrum()
        sets = [list(choice) for choice in itertools.product(*(
            [r.xi for r in spectrum.reps if r.square_class == cls.square_class]
            for cls in spectrum.dedup))]
        assert len(sets) == choices

        def gamma(xi, eta, mu):
            return LaurentPoly(rep.ctx.q, Q_POS_S, full_scan(rep, xi, eta, mu))

        mus = _involution_chars(rep, (0,), max_conductor, count)
        for mu in mus:
            for rows in sets:
                for mids in sets:
                    assert zeta.gamma_involution_defects(rep, mu, gamma, rows, mids) == {}, \
                        (mu.spec_record(), rows, mids)
        assert sum(zeta_parity_holds(rep, mu) for mu in mus) == holding


def _assert_gammas_equal_full_scans(rep, mus, xis):
    """Every cold ``gamma_factor`` over xis x xis equals the full scan, with
    the shells after the leading shell n1 of the class matrix listed as
    zero by theorem where the parity holds, and none where it fails."""
    fresh = Representation(rep.sigma)  # cold caches, early exit included
    classes = [r.xi for r in rep.spectrum().dedup]
    for mu in mus:
        parity = zeta_parity_holds(rep, mu)
        # the shells where some entry of the class matrix is nonzero
        shells = sorted({n for xi in classes for eta in classes
                         for n, c in full_scan(rep, xi, eta, mu).items() if not c.is_zero()})
        assert len(shells) == parity, mu.spec_record()  # one leading shell, or none
        for xi in xis:
            for eta in xis:
                gf = gamma_factor(fresh, xi, eta, mu)
                assert gf.coefficients == full_scan(rep, xi, eta, mu), \
                    (mu.spec_record(), xi, eta)
                later = range(shells[0] + 1, gf.support_bound + 1) if parity else ()
                assert gf.zero_by_theorem == tuple(later), (mu.spec_record(), xi, eta)


class TestGammaEarlyExit:
    """``gamma_factor`` stops the class matrix where the parity holds at its
    first shell n1 with a nonzero entry, certified by the identity of
    ``zeta.gamma_involution_defects``; the full scan is the oracle."""

    @pytest.mark.parametrize("data, p_exponents, max_conductor, count", INVOLUTION_CASES,
                             ids=INVOLUTION_IDS)
    def test_equals_full_scan(self, request, data, p_exponents, max_conductor, count):
        rep = request.getfixturevalue(data)
        classes = [r.xi for r in rep.spectrum().dedup]
        _assert_gammas_equal_full_scans(
            rep, _involution_chars(rep, p_exponents, max_conductor, count), classes)

    @pytest.mark.parametrize("data, p_exponents, max_conductor, count, extra", [
        ("weil5", (0, Fraction(1, 4)), 1, 8, ()),
        ("weil7", (0,), 1, 6, ((2, 2),)),
        ("norm5", (0,), 1, 4, ()),
        ("elliptic9", (0,), 2, 6, ()),
        ("elliptic9k4", (0,), 2, 6, ())],
        ids=["weil5", "weil7", "norm5", "elliptic9", "elliptic9k4"])
    def test_every_pair_of_betas_equals_full_scan(self, request, data, p_exponents,
                                                  max_conductor, count, extra):
        # the pairs off the class representatives go through the same
        # certificate, on representative sets that hold them; on the other
        # data every beta is a class representative.  The extra character of
        # conductor 2 at p = 7 (generator 2) holds the parity
        rep = request.getfixturevalue(data)
        mus = _involution_chars(rep, p_exponents, max_conductor, count)
        mus += [MultChar(rep.ctx, m, Fraction(0), gen) for m, gen in extra]
        assert all(zeta_parity_holds(rep, mu) for mu in mus[count:])
        assert len(rep.betas) > len(rep.spectrum().dedup)
        _assert_gammas_equal_full_scans(rep, mus, rep.betas)

    @pytest.mark.parametrize("fault", ["double", "zero"])
    def test_wrong_coefficient_raises_and_caches_nothing(self, ctx, rep1, monkeypatch, fault):
        mu = MultChar(ctx, 2, Fraction(0), 2)  # parity holds; gamma(1) is the monomial
        assert zeta_parity_holds(rep1, mu)
        rep = Representation(rep1.sigma)
        coefficient = zeta.gamma_coefficient

        def faulty(rep, xi, eta, chi, n):
            value = coefficient(rep, xi, eta, chi, n)
            if fault == "zero":
                return CycValue.zero(ctx.q)
            return value * 2 if chi.cache_key() == mu.cache_key() else value

        # an all-zero matrix fails the certificate too: its product is 0, not omega I
        with monkeypatch.context() as patched:
            patched.setattr(zeta, "gamma_coefficient", faulty)
            with pytest.raises(ArithmeticError, match="certificate fails"):
                gamma_factor(rep, XI, XI, mu)
            assert (XI, XI, mu.cache_key()) not in rep._gamma_cache
            assert rep._gamma_cache == {}
        assert gamma_factor(rep, XI, XI, mu).coefficients == full_scan(rep1, XI, XI, mu)

    def test_nonzero_coefficient_against_parity_raises_and_caches_nothing(self, ctx, rep1,
                                                                           monkeypatch):
        # the parity fails, so Gamma_mu is zero: a nonzero coefficient is a
        # fault, never a value to remember
        mu = MultChar(ctx, 1, Fraction(0), 1)
        assert not zeta_parity_holds(rep1, mu)
        rep = Representation(rep1.sigma)
        coefficient = zeta.gamma_coefficient

        def faulty(rep, xi, eta, chi, n):
            value = coefficient(rep, xi, eta, chi, n)
            return value + CycValue.one(ctx.q) if n == 1 else value

        with monkeypatch.context() as patched:
            patched.setattr(zeta, "gamma_coefficient", faulty)
            with pytest.raises(ArithmeticError, match="certificate fails"):
                gamma_factor(rep, XI, XI, mu)
            assert rep._gamma_cache == {}
        gf = gamma_factor(rep, XI, XI, mu)
        assert gf.coefficients == full_scan(rep1, XI, XI, mu)
        assert gf.poly.is_zero() and gf.zero_by_theorem == ()

    def test_wrong_cross_class_entry_raises_and_caches_nothing(self, ctx, elliptic9,
                                                               monkeypatch):
        # at m = l = 2 the leading class matrix is anti-diagonal: a doubled
        # cross-class entry of Gamma_mu breaks the certificate, also for a
        # call that asks for a diagonal entry, which is zero
        mu = MultChar(ctx, 2, Fraction(0), 1)
        rep = Representation(elliptic9.sigma)
        xi, eta = Fraction(1, 9), Fraction(2, 9)
        coefficient = zeta.gamma_coefficient

        def faulty(rep, a, b, chi, n):
            value = coefficient(rep, a, b, chi, n)
            return value * 2 if (a, b, chi.cache_key()) == (xi, eta, mu.cache_key()) else value

        with monkeypatch.context() as patched:
            patched.setattr(zeta, "gamma_coefficient", faulty)
            with pytest.raises(ArithmeticError, match="certificate fails"):
                gamma_factor(rep, eta, eta, mu)
            assert rep._gamma_cache == {}
        assert gamma_factor(rep, xi, eta, mu).coefficients == full_scan(elliptic9, xi, eta, mu)

    def test_conductor_above_the_old_cap(self, rep1):
        # m = 4 at p = 3 was refused by the old cap of 3 for every p; the
        # scan stops at gamma(3), and gamma(4..7) are zero by theorem
        mu = MultChar(rep1.ctx, 4, Fraction(0), 2)
        assert zeta_parity_holds(rep1, mu)
        gf = gamma_factor(Representation(rep1.sigma), XI, XI, mu)
        assert gf.support_bound == 7
        assert gf.poly.support() == [3]
        assert gf.zero_by_theorem == (4, 5, 6, 7)
        assert sorted(gf.coefficients) == list(range(8))
